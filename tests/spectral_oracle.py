"""The 2/3-rule filter written out, for reference right-hand sides."""
import numpy as np


def dealias(values):
    """values (..., n) with every mode k > n/3 zeroed."""
    n = np.shape(values)[-1]
    vh = np.fft.rfft(values, axis=-1)
    vh[..., np.arange(n // 2 + 1) > n / 3.0] = 0.0
    return np.fft.irfft(vh, n=n, axis=-1)
