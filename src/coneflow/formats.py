"""Deterministic serialization: JSON reports, CSV series, field mini-language.

Floats are rendered with 17 significant digits so that values round-trip
bit-exactly through text and identical runs produce identical bytes.
CSV bodies are parsed by np.loadtxt; a line-by-line loop rereads a body
it rejects, to name the first bad row or take what float() takes.
"""
from __future__ import annotations

import warnings
from array import array

import numpy as np

from .grid import PeriodicGrid, bump_density

# rows formatted and written per write call: bounds the text held in memory
_ROWS_PER_BLOCK = 4096
# JSON string escapes: quote, backslash, \t \n \r, and \u00XX below U+0020
_JSON_ESCAPES = {i: f"\\u{i:04x}" for i in range(32)} | {
    9: "\\t", 10: "\\n", 13: "\\r", 34: '\\"', 92: "\\\\"}


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
        return f'"{obj.translate(_JSON_ESCAPES)}"'
    if isinstance(obj, np.ndarray):
        return to_json(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(to_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{to_json(str(k))}: {to_json(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _fill(template: str, values: np.ndarray) -> str:
    """template % values; "%.17g" is fmt_float's text for every finite
    value, so only a block with a non-finite one goes through fmt_float."""
    flat = values.ravel().tolist()
    if np.all(np.isfinite(values)):
        return template % tuple(flat)
    return template.replace("%.17g", "%s") % tuple(map(fmt_float, flat))


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
            fh.write(_fill(row * len(block), block))


def _read_table(path, header: str):
    width = header.count(",") + 1
    with open(path) as fh:
        first = next((ln for ln in iter(fh.readline, "") if ln.strip()), "")
        if first.strip() != header:
            raise ValueError(f"{path}: expected csv header '{header}'")
        body = fh.tell()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt warns on no rows
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except (ValueError, Warning):
            data = np.empty((0, 0))
        if data.shape[1] != width or not len(data):
            # the line loop names the first bad row, and reads what float()
            # reads and loadtxt does not: whitespace-only lines, 1_0
            fh.seek(body)
            flat = array("d")
            for ln in fh:
                ln = ln.strip()
                if not ln:
                    continue
                parts = ln.split(",")
                if len(parts) != width:
                    raise ValueError(f"{path}: malformed row '{ln}'")
                try:
                    flat.extend(map(float, parts))
                except ValueError as exc:
                    raise ValueError(f"{path}: non-numeric value in '{ln}'") from exc
            if not flat:
                raise ValueError(f"{path}: no data rows")
            data = np.frombuffer(flat, dtype=float).reshape(-1, width)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite value")
    # contiguous columns: a matmul's rounding can depend on strides
    return [np.ascontiguousarray(data[:, j]) for j in range(width)]


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
    if not np.allclose(np.tile(x, n_times), x_col, rtol=0, atol=1e-12):
        raise ValueError("csv space column varies between time blocks")
    rep = np.repeat(times, n)
    if not np.allclose(rep, t_col, rtol=0, atol=1e-12):
        raise ValueError("csv time column varies within a time block")
    return times, x, n_times, n


def write_time_major_csv(path, header, times, x, fields) -> None:
    """Rows (t, x, *fields) of (len(times), len(x)) fields, time-major.

    t and x are formatted once each: a slice's rows are one template with
    their text built in, filled from the slice's field values.
    """
    x_text = [fmt_float(v) for v in np.asarray(x, dtype=float).tolist()]
    cells = [s + ",%.17g" * len(fields) + "\n" for s in x_text]
    times = np.asarray(times, dtype=float)
    data = np.stack([np.asarray(f, dtype=float).reshape(len(times), len(x_text))
                     for f in fields], axis=-1)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for t, rows in zip(times.tolist(), data):
            fh.write(_fill((fmt_float(t) + ",").join([""] + cells), rows))


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


_SPEC_FORMS = {"const": "c", "sin": "amp", "bump": "center,width,mass"}


def parse_field_spec(spec: str, grid: PeriodicGrid) -> np.ndarray:
    """Field mini-language: const:c | sin:amp | bump:center,width,mass | file:path."""
    if not isinstance(spec, str) or ":" not in spec:
        raise ValueError(f"bad field spec '{spec}'")
    kind, _, arg = spec.partition(":")
    if kind in _SPEC_FORMS:
        form = _SPEC_FORMS[kind]
        try:
            nums = [float(p) for p in arg.split(",")]
        except ValueError:
            nums = []
        if len(nums) != form.count(",") + 1:
            raise ValueError(f"{kind} spec needs {form}: '{spec}'")
        if not np.all(np.isfinite(nums)):
            raise ValueError(f"non-finite number in field spec '{spec}'")
    if kind == "const":
        return np.full(grid.n, nums[0])
    if kind == "sin":
        return nums[0] * np.sin(grid.x)
    if kind == "bump":
        return bump_density(grid, *nums)
    if kind == "file":
        x, values = read_density_csv(arg)
        if len(x) != grid.n:
            raise ValueError(f"{arg}: {len(x)} nodes, grid has {grid.n}")
        if np.max(np.abs(x - grid.x)) > 1e-9:
            raise ValueError(f"{arg}: nodes do not match the grid")
        return values
    raise ValueError(f"unknown field spec kind '{kind}'")
