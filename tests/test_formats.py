"""Serialization: exact float round-trips, ordered JSON, CSV tables, field specs."""
import json
import warnings
from array import array

import numpy as np
import pytest

from coneflow import (CHTrajectory, PeriodicGrid, bump_density, ch_solve,
                      flow_map)
from coneflow.formats import (
    fmt_float,
    parse_field_spec,
    read_density_csv,
    read_trajectory_csv,
    to_json,
    write_columns_csv,
    write_density_csv,
    write_trajectory_csv,
    write_wfr_csv,
)


def test_fmt_float_round_trips_exactly():
    rng = np.random.default_rng(70)
    values = np.concatenate([
        rng.normal(0, 1, 200),
        rng.normal(0, 1e-300, 50),
        rng.normal(0, 1e300, 50),
        [0.0, -0.0, 1.0, np.pi, 2 ** -1074, np.nextafter(1.0, 2.0)],
    ])
    for v in values:
        assert float(fmt_float(v)) == v


def test_fmt_float_special_values():
    assert fmt_float(np.nan) == "NaN"
    assert fmt_float(np.inf) == "Infinity"
    assert fmt_float(-np.inf) == "-Infinity"


def test_to_json_order_nesting_and_escaping():
    obj = {
        "b": 1,
        "a": [1.5, True, None, "x\"y\\z\nw"],
        "nested": {"k": np.float64(0.1)},
        "arr": np.array([1.0, 2.0]),
    }
    out = to_json(obj)
    # insertion order is preserved, not sorted
    assert out.index('"b"') < out.index('"a"') < out.index('"nested"')
    assert '"x\\"y\\\\z\\nw"' in out
    assert '"k": 0.10000000000000001' in out
    assert '"arr": [1, 2]' in out
    assert to_json(np.bool_(False)) == "false"
    with pytest.raises(TypeError):
        to_json(object())


def test_to_json_escapes_every_control_character():
    # JSON allows no raw code point below U+0020 inside a string
    text = "".join(map(chr, range(40))) + "\x7f\u00e9\u2028"
    out = to_json({"message": text})
    assert json.loads(out) == {"message": text}
    assert '"\\u0000\\u0001' in out and "\\u001f !\\\"" in out
    assert "\\u0008\\t\\n\\u000b\\u000c\\r" in out
    assert all(ord(ch) >= 0x20 for ch in out)


def test_density_csv_round_trip_bit_exact(tmp_path):
    grid = PeriodicGrid(32)
    rng = np.random.default_rng(71)
    values = rng.normal(0, 1, 32)
    path = tmp_path / "density.csv"
    write_density_csv(path, grid.x, values)
    x, v = read_density_csv(path)
    assert np.array_equal(x, grid.x)
    assert np.array_equal(v, values)
    # identical writes give identical bytes
    path2 = tmp_path / "density2.csv"
    write_density_csv(path2, grid.x, values)
    assert path.read_bytes() == path2.read_bytes()


def test_trajectory_csv_round_trip(tmp_path):
    grid = PeriodicGrid(16)
    times = np.linspace(0.0, 0.5, 6)
    rng = np.random.default_rng(72)
    u = rng.normal(0, 1, (6, 16))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, times, grid.x, u)
    grid2, t2, u2 = read_trajectory_csv(path)
    assert grid2 == grid
    assert np.array_equal(t2, times)
    assert np.array_equal(u2, u)


def test_trajectory_csv_round_trip_full_size(tmp_path):
    grid = PeriodicGrid(256)
    times = np.linspace(0.0, 0.25, 251)
    rng = np.random.default_rng(74)
    u = rng.normal(0, 1, (251, 256)) * np.exp(rng.normal(0, 30, (251, 256)))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, times, grid.x, u)
    grid2, t2, u2 = read_trajectory_csv(path)
    assert grid2 == grid
    assert np.array_equal(t2, times)
    assert np.array_equal(u2, u)


def test_trajectory_csv_round_trip_gives_the_same_flow_map(tmp_path):
    # the read columns are contiguous, so a matmul rounds them as it rounds
    # the trajectory in memory
    grid = PeriodicGrid(256)
    traj = ch_solve(grid, 0.2 * np.sin(grid.x), 1.0, 1e-3)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj.times, grid.x, traj.u)
    _, times, u = read_trajectory_csv(path)
    assert u.flags.c_contiguous
    path_mem = flow_map(traj)
    path_csv = flow_map(CHTrajectory(grid, traj.params, traj.dt, times, u))
    for name in ("phi", "lam", "lam_ode"):
        assert np.array_equal(getattr(path_csv, name), getattr(path_mem, name))


def fmt_float_table(header, columns):
    """Reference CSV text: every value through fmt_float, one at a time."""
    columns = [np.asarray(c, dtype=float).ravel() for c in columns]
    lines = [header]
    for i in range(len(columns[0])):
        lines.append(",".join(fmt_float(c[i]) for c in columns))
    return "\n".join(lines) + "\n"


def test_csv_writer_bytes_match_per_value_fmt_float(tmp_path):
    special = [-0.0, 5e-324, 1e-310, 1.7976931348623157e308, np.nan, np.inf,
               -np.inf, 0.0, -1.7976931348623157e308, 0.1]
    rng = np.random.default_rng(75)
    # 9000 rows span three write blocks; only the second has non-finite values
    a = rng.normal(0, 1, 9000) * 10.0 ** rng.uniform(-320, 307, 9000)
    b = rng.normal(0, 1, 9000)
    b[5000:5000 + len(special)] = special
    tables = [
        ("a,b", [special, special[::-1]]),
        ("a,b", [a, b]),
        ("a,b,c", [[], [], []]),
    ]
    for header, columns in tables:
        path = tmp_path / "table.csv"
        write_columns_csv(path, header, columns)
        assert path.read_bytes() == fmt_float_table(header, columns).encode()


def test_time_major_writers_bytes_match_per_value_fmt_float(tmp_path):
    # t and x are formatted once per file; one slice holds NaN and +-inf
    # and goes through fmt_float, the others through the "%.17g" template
    grid = PeriodicGrid(8)
    rng = np.random.default_rng(76)
    times = np.array([-0.0, 5e-324, 0.25, 1e300])
    fields = rng.normal(0, 1, (3, 4, 8)) * 10.0 ** rng.uniform(-300, 300,
                                                                (3, 4, 8))
    fields[0, 1, :3] = (-0.0, 5e-324, -5e-324)
    fields[1, 2, 2:5] = (np.nan, np.inf, -np.inf)
    path = tmp_path / "traj.csv"
    columns = [np.repeat(times, 8), np.tile(grid.x, 4)]
    write_trajectory_csv(path, times, grid.x, fields[0])
    assert path.read_bytes() == fmt_float_table(
        "t,x,u", columns + [fields[0]]).encode()
    write_wfr_csv(path, times, grid.x, *fields)
    assert path.read_bytes() == fmt_float_table(
        "t,x,rho,m,mu", columns + list(fields)).encode()
    write_trajectory_csv(path, [], grid.x, np.empty((0, 8)))
    assert path.read_bytes() == b"t,x,u\n"


def line_loop_table(path, header):
    """Reference reader: every line through strip, split and float()."""
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


@pytest.mark.parametrize("text, error", [
    ("x,value\n0,1\n   \n1,2.5\n", None),
    ("x,value\r\n0,1\r\n \t\r\n1,2.5\r\n", None),
    ("\n x,value \n0, 1 \n\n1 ,2.5\n", None),
    ("x,value\n0,1_0\n1,2\n", None),
    ("x,value\n0,1\n#1,2\n", "non-numeric value in '#1,2'"),
    ('x,value\n0,1\n"1",2\n', "non-numeric value in '\"1\",2'"),
    ("x,value\n0,1,2\n1,2,3\n", "malformed row '0,1,2'"),
    ("x,value\n0,1\n1,2,3\n", "malformed row '1,2,3'"),
    ("x,value\n0,1\n1,\n", "non-numeric value in '1,'"),
    ("x,value\n0,nan\n1,2\n", "non-finite value"),
    ("x,value\n", "no data rows"),
    ("x,value\n\n  \n", "no data rows"),
    ("", "expected csv header 'x,value'"),
    ("t,x,u\n0,1\n", "expected csv header 'x,value'"),
])
def test_reader_matches_the_line_loop(tmp_path, text, error):
    # np.loadtxt reads the body; what it rejects is reread line by line,
    # so the accepted files, the arrays and the messages are the loop's
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            expected = line_loop_table(path, "x,value")
            for got, want in zip(read_density_csv(path), expected):
                assert np.array_equal(got, want)
        else:
            with pytest.raises(ValueError) as ref:
                line_loop_table(path, "x,value")
            assert str(ref.value) == f"{path}: {error}"
            with pytest.raises(ValueError) as err:
                read_density_csv(path)
            assert str(err.value) == str(ref.value)


def test_read_reports_first_bad_row_in_mid_file(tmp_path):
    rows = [f"{0.5 * i},{i}" for i in range(10)]
    path = tmp_path / "bad.csv"
    bad = rows[:4] + ["2,3,4"] + rows[4:] + ["9,abc"]
    path.write_text("x,value\n" + "\n".join(bad) + "\n")
    with pytest.raises(ValueError) as err:
        read_density_csv(path)
    assert str(err.value) == f"{path}: malformed row '2,3,4'"
    bad = rows[:6] + ["5,abc"] + rows[6:] + ["9,Infinity"]
    path.write_text("x,value\n" + "\n".join(bad) + "\n")
    with pytest.raises(ValueError) as err:
        read_density_csv(path)
    assert str(err.value) == f"{path}: non-numeric value in '5,abc'"


def test_wfr_csv_layout(tmp_path):
    grid = PeriodicGrid(8)
    t_cells = np.array([0.25, 0.75])
    rho = np.ones((2, 8))
    m = np.zeros((2, 8))
    mu = 0.5 * np.ones((2, 8))
    path = tmp_path / "plan.csv"
    write_wfr_csv(path, t_cells, grid.x, rho, m, mu)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x,rho,m,mu"
    assert len(lines) == 1 + 2 * 8
    first = lines[1].split(",")
    assert float(first[0]) == 0.25 and float(first[2]) == 1.0


def test_read_rejects_bad_header_and_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,wrong\n0,1\n")
    with pytest.raises(ValueError):
        read_density_csv(path)
    path.write_text("x,value\n0,1,2\n")
    with pytest.raises(ValueError):
        read_density_csv(path)
    path.write_text("x,value\n0,abc\n")
    with pytest.raises(ValueError):
        read_density_csv(path)
    path.write_text("x,value\n")
    with pytest.raises(ValueError):
        read_density_csv(path)
    path.write_text("x,value\n0,Infinity\n")
    with pytest.raises(ValueError):
        read_density_csv(path)


def test_read_rejects_inconsistent_grid_blocks(tmp_path):
    path = tmp_path / "bad_traj.csv"
    # second time block has a different space column
    rows = ["t,x,u"]
    for t, xs in [(0.0, [0, 1, 2, 3]), (1.0, [0, 1, 2, 4])]:
        rows += [f"{t},{x},0.0" for x in xs]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError):
        read_trajectory_csv(path)


@pytest.mark.parametrize("blocks, error", [
    ([((0.0,) * 4, [0, 1, 2, 3]), ((1.0,) * 3, [0, 1, 2])],
     "do not form a time-major grid"),
    ([((0.0,) * 3, [0, 1, 2]), ((1.0,) * 3, [0, 1, 2])],
     "do not form a time-major grid"),
    ([((0.0, 0.0, 0.5, 0.0), [0, 1, 2, 3]), ((1.0,) * 4, [0, 1, 2, 3])],
     "time column varies within a time block"),
], ids=["ragged", "too-few-nodes", "t-within-block"])
def test_read_rejects_rows_off_a_time_major_grid(tmp_path, blocks, error):
    path = tmp_path / "bad_traj.csv"
    rows = ["t,x,u"]
    for ts, xs in blocks:
        rows += [f"{t},{x},0.0" for t, x in zip(ts, xs)]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=error):
        read_trajectory_csv(path)


def test_write_columns_requires_equal_lengths(tmp_path):
    with pytest.raises(ValueError):
        write_columns_csv(tmp_path / "c.csv", "a,b", [[1.0, 2.0], [1.0]])


def write_zero_trajectory(path, times, x):
    path.write_text("t,x,u\n" + "".join(
        f"{t!r},{v!r},0.0\n" for t in times for v in np.asarray(x).tolist()))


def test_trajectory_reader_accepts_the_uniform_grid_only(tmp_path):
    path = tmp_path / "traj.csv"
    write_zero_trajectory(path, [0.0, 0.1], PeriodicGrid(16).x)
    grid, times, u = read_trajectory_csv(path)
    assert grid == PeriodicGrid(16)
    assert times.tolist() == [0.0, 0.1]
    assert np.array_equal(u, np.zeros((2, 16)))
    for x, error in ((PeriodicGrid(16).x + 0.01, "nodes do not match"),
                     (np.arange(9) * (2 * np.pi / 9), "grid size must be")):
        write_zero_trajectory(path, [0.0, 0.1], x)
        with pytest.raises(ValueError, match=error):
            read_trajectory_csv(path)


@pytest.mark.parametrize("times, shift, error", [
    ([0.0], 0.0, "need at least two time slices"),
    ([0.0, 0.1, 0.3], 0.0, "time column is not uniformly spaced"),
    ([0.0, 0.1], 1e-8, "nodes do not match the grid")],
    ids=["one-slice", "uneven", "off-grid"])
def test_trajectory_reader_checks_slices_spacing_and_nodes(
        tmp_path, times, shift, error):
    # the reader, not its callers, holds a trajectory file to the grid
    path = tmp_path / "traj.csv"
    write_zero_trajectory(path, times, PeriodicGrid(16).x + shift)
    with pytest.raises(ValueError) as err:
        read_trajectory_csv(path)
    assert str(err.value) == f"{path}: {error}"


def test_parse_field_spec_forms(tmp_path):
    grid = PeriodicGrid(32)
    assert np.array_equal(parse_field_spec("const:2.5", grid),
                          np.full(32, 2.5))
    assert np.array_equal(parse_field_spec("sin:0.3", grid),
                          0.3 * np.sin(grid.x))
    bump = parse_field_spec("bump:1.0,0.5,2.0", grid)
    assert np.array_equal(bump, bump_density(grid, 1.0, 0.5, 2.0))
    path = tmp_path / "field.csv"
    write_density_csv(path, grid.x, bump)
    assert np.array_equal(parse_field_spec(f"file:{path}", grid), bump)


def test_parse_field_spec_errors(tmp_path):
    grid = PeriodicGrid(32)
    for bad in ("plain", "unknown:1", "const:xyz", "bump:1.0,0.5",
                "bump:1.0,0.5,2.0,9", "const:nan", "sin:-inf",
                "bump:1.0,inf,2.0"):
        with pytest.raises(ValueError):
            parse_field_spec(bad, grid)
    # a wrong count of numbers names the spec and the expected form
    for bad, form in (("const:1,2", "const spec needs c"),
                      ("sin:1,2", "sin spec needs amp"),
                      ("const:", "const spec needs c"),
                      ("bump:", "bump spec needs center,width,mass")):
        with pytest.raises(ValueError, match=f"^{form}: '{bad}'$"):
            parse_field_spec(bad, grid)
    other = PeriodicGrid(16)
    path = tmp_path / "mismatch.csv"
    write_density_csv(path, other.x, np.ones(16))
    with pytest.raises(ValueError):
        parse_field_spec(f"file:{path}", grid)
    write_density_csv(path, grid.x + 0.01, np.ones(32))
    with pytest.raises(ValueError, match="nodes do not match the grid"):
        parse_field_spec(f"file:{path}", grid)
