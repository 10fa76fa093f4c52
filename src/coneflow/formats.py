"""Deterministic serialization: JSON reports, CSV series, field mini-language.

Floats are rendered with 17 significant digits so that values round-trip
bit-exactly through text and identical runs produce identical bytes.
"""
from __future__ import annotations

from array import array

import numpy as np

from .grid import PeriodicGrid, bump_density

# rows formatted and written per write call: bounds the text held in memory
_ROWS_PER_BLOCK = 4096


def fmt_float(x) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    x = float(x)
    if np.isnan(x):
        return "NaN"
    if np.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return "%.17g" % x


def to_json(obj) -> str:
    """Render dicts/lists/scalars in insertion order with fmt_float floats."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
        return f'"{out}"'
    if isinstance(obj, np.ndarray):
        return to_json(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(to_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{to_json(str(k))}: {to_json(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_columns_csv(path, header: str, columns) -> None:
    columns = [np.asarray(c, dtype=float).ravel() for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("csv columns must have equal length")
    data = np.column_stack(columns)
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for start in range(0, n, _ROWS_PER_BLOCK):
            block = data[start:start + _ROWS_PER_BLOCK]
            if np.all(np.isfinite(block)):
                # "%.17g" is fmt_float's text for every finite value
                fh.write(row * len(block) % tuple(block.ravel().tolist()))
            else:
                fh.writelines(",".join(fmt_float(v) for v in r) + "\n"
                              for r in block.tolist())


def _read_table(path, header: str):
    width = header.count(",") + 1
    flat = array("d")
    has_header = False
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln:
                continue
            if not has_header:
                if ln != header:
                    break
                has_header = True
                continue
            parts = ln.split(",")
            if len(parts) != width:
                raise ValueError(f"{path}: malformed row '{ln}'")
            try:
                flat.extend(map(float, parts))
            except ValueError as exc:
                raise ValueError(f"{path}: non-numeric value in '{ln}'") from exc
    if not has_header:
        raise ValueError(f"{path}: expected csv header '{header}'")
    if not flat:
        raise ValueError(f"{path}: no data rows")
    data = np.frombuffer(flat, dtype=float).reshape(-1, width)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite value")
    return [data[:, j] for j in range(width)]


def write_density_csv(path, x, values) -> None:
    write_columns_csv(path, "x,value", [x, values])


def read_density_csv(path):
    x, values = _read_table(path, "x,value")
    return x, values


def _grid_layout(t_col, x_col):
    """Infer (times, x) from flattened time-major columns."""
    x0 = x_col[0]
    n = 1
    while n < len(x_col) and abs(x_col[n] - x0) > 1e-12:
        n += 1
    if n < 4 or len(x_col) % n != 0:
        raise ValueError("csv rows do not form a time-major grid")
    n_times = len(x_col) // n
    x = x_col[:n]
    times = t_col[::n]
    if not np.allclose(np.tile(x, n_times), x_col, atol=1e-12):
        raise ValueError("csv space column varies between time blocks")
    rep = np.repeat(times, n)
    if not np.allclose(rep, t_col, atol=1e-12):
        raise ValueError("csv time column varies within a time block")
    return times, x, n_times, n


def write_time_major_csv(path, header, times, x, fields) -> None:
    """Rows (t, x, *fields) of (len(times), len(x)) fields, time-major."""
    times = np.asarray(times, dtype=float)
    x = np.asarray(x, dtype=float)
    write_columns_csv(path, header,
                      [np.repeat(times, len(x)), np.tile(x, len(times))]
                      + [np.asarray(f, dtype=float).ravel() for f in fields])


def write_trajectory_csv(path, times, x, u) -> None:
    """Time-major rows (t, x, u) for a velocity trajectory."""
    write_time_major_csv(path, "t,x,u", times, x, [u])


def read_trajectory_csv(path):
    t_col, x_col, u_col = _read_table(path, "t,x,u")
    times, x, n_times, n = _grid_layout(t_col, x_col)
    return times, x, u_col.reshape(n_times, n)


def write_wfr_csv(path, t_cells, x, rho_c, m_c, mu_c) -> None:
    """Cell-centered rows (t, x, rho, m, mu) of a transport plan."""
    write_time_major_csv(path, "t,x,rho,m,mu", t_cells, x, [rho_c, m_c, mu_c])


def grid_from_x(x) -> PeriodicGrid:
    x = np.asarray(x, dtype=float)
    grid = PeriodicGrid(len(x))
    if np.max(np.abs(x - grid.x)) > 1e-9:
        raise ValueError("csv nodes are not the uniform periodic grid")
    return grid


def parse_field_spec(spec: str, grid: PeriodicGrid) -> np.ndarray:
    """Field mini-language: const:c | sin:amp | bump:center,width,mass | file:path."""
    if not isinstance(spec, str) or ":" not in spec:
        raise ValueError(f"bad field spec '{spec}'")
    kind, _, arg = spec.partition(":")
    if kind in ("const", "sin", "bump"):
        nums = [float(p) for p in arg.split(",")]
        if not np.all(np.isfinite(nums)):
            raise ValueError(f"non-finite number in field spec '{spec}'")
    if kind == "const":
        return np.full(grid.n, float(arg))
    if kind == "sin":
        return float(arg) * np.sin(grid.x)
    if kind == "bump":
        if len(nums) != 3:
            raise ValueError(f"bump spec needs center,width,mass: '{spec}'")
        return bump_density(grid, *nums)
    if kind == "file":
        x, values = read_density_csv(arg)
        if len(x) != grid.n:
            raise ValueError(f"{arg}: {len(x)} nodes, grid has {grid.n}")
        if np.max(np.abs(x - grid.x)) > 1e-9:
            raise ValueError(f"{arg}: nodes do not match the grid")
        return values
    raise ValueError(f"unknown field spec kind '{kind}'")
