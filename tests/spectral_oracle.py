"""The 2/3-rule filter written out, for reference right-hand sides, and a
counting stand-in for the pocketfft gufuncs that every transform of
coneflow goes through."""
from types import SimpleNamespace

import numpy as np

import coneflow.grid


def dealias(values):
    """values (..., n) with every mode k > n/3 zeroed."""
    n = np.shape(values)[-1]
    vh = np.fft.rfft(values, axis=-1)
    vh[..., np.arange(n // 2 + 1) > n / 3.0] = 0.0
    return np.fft.irfft(vh, n=n, axis=-1)


def count_transforms(monkeypatch) -> list:
    """Put a counting stand-in for coneflow.grid._pocketfft in place; the
    returned list gets (name, input shape) of every transform made after,
    name "rfft" (either parity) or "irfft"."""
    real = coneflow.grid._pocketfft
    calls = []

    def counted(name, gufunc):
        def call(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return gufunc(a, *args, **kwargs)
        return call

    monkeypatch.setattr(coneflow.grid, "_pocketfft", SimpleNamespace(
        rfft_n_even=counted("rfft", real.rfft_n_even),
        rfft_n_odd=counted("rfft", real.rfft_n_odd),
        irfft=counted("irfft", real.irfft)))
    return calls
