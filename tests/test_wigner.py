"""Plane transform: closed forms, round trips, and grid file formats."""

import json
import os
import tracemalloc
from collections import deque

import numpy as np
import pytest

from oracles import (
    direct_wig_inverse,
    one_plane_forward_samples,
    shift_table_wig_inverse,
    shifted_wig_forward,
    table_read_grid,
)
from wigreg.hermite import GaussianPacket, Hermite, to_polygauss
from wigreg import wigner
from wigreg.wigner import (
    DEFAULT_BOUNDARY_TOL,
    MAX_GRID_N,
    BoundaryDecayError,
    Grid2D,
    GridFunction2D,
    _alternating_phase,
    _block_count,
    _forward_blocks,
    manifest_path,
    read_grid,
    wig_forward,
    wig_inverse,
    write_grid,
)

GRID = Grid2D(12.0, 256)
H0, H1, H2 = Hermite(0), Hermite(1), Hermite(2)


def mesh(grid, dual=True):
    return np.meshgrid(grid.x_nodes, grid.axis_nodes(dual), indexing="ij")


# ---------------------------------------------------------------------------
# grid containers
# ---------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(0.0, 256)
    with pytest.raises(ValueError):
        Grid2D(12.0, 100)          # not a power of two
    with pytest.raises(ValueError):
        Grid2D(12.0, 2)
    assert Grid2D(12.0, MAX_GRID_N).N == MAX_GRID_N
    with pytest.raises(ValueError, match=f"grid size N exceeds the limit of {MAX_GRID_N}"):
        Grid2D(12.0, 2 * MAX_GRID_N)


def test_grid_nodes():
    g = Grid2D(4.0, 8)
    assert g.dx == 1.0
    assert np.allclose(g.x_nodes, np.arange(-4.0, 4.0))
    assert np.allclose(g.dual_nodes, (np.pi / 4.0) * np.arange(-4, 4))
    assert g.dy_dual == pytest.approx(np.pi / 4.0)


def test_grid_function_validation():
    g = Grid2D(4.0, 8)
    with pytest.raises(ValueError):
        GridFunction2D(g, np.zeros((4, 4)))
    bad = np.zeros((8, 8))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        GridFunction2D(g, bad)
    bad = np.zeros((8, 8), dtype=complex)
    bad[3, 5] = complex(0.0, np.inf)
    with pytest.raises(ValueError, match="finite"):
        GridFunction2D(g, bad)


def test_alternating_phase_matches_node_parity():
    g = Grid2D(4.0, 8)
    ks = np.arange(-4, 4)
    assert np.array_equal(_alternating_phase(8), (-1.0) ** ks)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def max_err(gf, expected):
    return float(np.max(np.abs(gf.samples - expected)))


def test_symmetric_gaussian_pair():
    # p = 1/2 on h0 (x) h0: sqrt(2/pi) exp(-x^2 - y^2)
    out = wig_forward(H0, H0, 0.5, GRID)
    gx, gy = mesh(GRID)
    expected = np.sqrt(2.0 / np.pi) * np.exp(-gx ** 2 - gy ** 2)
    assert max_err(out, expected) < 1e-13


def test_symmetric_gaussian_first_excited():
    # p = 1/2 on h0 (x) h1: (2/sqrt(pi)) (x + i y) exp(-x^2 - y^2)
    out = wig_forward(H0, H1, 0.5, GRID)
    gx, gy = mesh(GRID)
    expected = (2.0 / np.sqrt(np.pi)) * (gx + 1j * gy) * np.exp(-gx ** 2 - gy ** 2)
    assert max_err(out, expected) < 1e-13


def test_one_sided_shift_is_windowed_fourier():
    # p = 0: v(x) e^{ixy} uhat(y), and h0 is its own transform
    out = wig_forward(H0, H0, 0.0, GRID)
    gx, gy = mesh(GRID)
    expected = H0(gx) * H0(gy) * np.exp(1j * gx * gy)
    assert max_err(out, expected) < 1e-13
    # p = 1 is the mirror image with the opposite phase
    out = wig_forward(H0, H0, 1.0, GRID)
    expected = H0(gx) * H0(gy) * np.exp(-1j * gx * gy)
    assert max_err(out, expected) < 1e-13


FORWARD_PS = [-1.0, 0.0, 0.25, 1.0 / 3.0, 0.5, 0.7, 1.0, 2.0]
FORWARD_PAIRS = [(0, 0), (1, 2), (2, 1)]


@pytest.mark.parametrize("n", [64, 128, 256, 512])
def test_forward_matches_shifted_oracle_bit_for_bit(n):
    # z in FFT order with the sign (-1)^l folded into the product gives the
    # same values as fftshift and the (-1)^k phase after the FFT; only the
    # sign of an exact zero may differ, which np.array_equal does not compare
    for p in FORWARD_PS:
        grid = Grid2D(12.0 if 0.0 <= p <= 1.0 else 20.0, n)
        for m, k in FORWARD_PAIRS:
            out = wig_forward(Hermite(m), Hermite(k), p, grid).samples
            assert np.array_equal(out, shifted_wig_forward(Hermite(m), Hermite(k), p, grid)), \
                (n, p, m, k)


def forward_window_sets():
    # one window; several first windows sharing v, PolyGauss ones among them
    h1 = to_polygauss(H1)
    yield (H2,), H1
    yield (H0, h1, h1.apply_d(), h1.mul_t()), H2


@pytest.mark.parametrize("n", [64, 512])
def test_forward_blocks_match_the_one_plane_oracle_byte_for_byte(n):
    # the sign of every zero included, which np.array_equal does not compare
    for p in FORWARD_PS:
        grid = Grid2D(12.0 if 0.0 <= p <= 1.0 else 20.0, n)
        for firsts, v in forward_window_sets():
            oracle = one_plane_forward_samples(firsts, v, p, grid, DEFAULT_BOUNDARY_TOL)
            ours = [np.empty((n, n), dtype=complex) for _ in firsts]
            deque(_forward_blocks(firsts, v, p, grid, ours), maxlen=0)
            assert [s.tobytes() for s in ours] == [s.tobytes() for s in oracle], (n, p, len(firsts))


def peak_planes(run, n):
    """run() and its tracemalloc peak in N x N complex planes; what was
    allocated before the call does not count."""
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / (16 * n * n)


def test_forward_stays_within_its_plane_budget():
    # the output plane plus a block of rows (an eighth of a plane at N = 512)
    # of arguments, v's values and the window's values
    _, planes = peak_planes(lambda: wig_forward(H2, H1, 1.0 / 3.0, Grid2D(12.0, 512)), 512)
    assert planes <= 1.5


class ShapeRecorder:
    def __init__(self, fn):
        self.fn = fn
        self.shapes = []

    def __call__(self, t):
        self.shapes.append(np.shape(t))
        return self.fn(t)


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_forward_evaluates_a_z_free_window_on_one_column(p):
    # after the two edge lines, each window is evaluated once per block of x
    # rows; v's argument x - p z is z-free at p = 0 and u's argument x + q z
    # at p = 1, so that window gets the block's column alone
    n = GRID.N
    u, v = ShapeRecorder(H1), ShapeRecorder(H2)
    wig_forward(u, v, p, GRID)
    assert u.shapes[:2] == v.shapes[:2] == [(n,), (n,)]
    u_blocks, v_blocks = u.shapes[2:], v.shapes[2:]
    assert len(u_blocks) == len(v_blocks) > 1
    assert [rows for rows, _ in u_blocks] == [rows for rows, _ in v_blocks]
    assert sum(rows for rows, _ in u_blocks) == n
    assert {cols for _, cols in u_blocks} == {1 if p == 1.0 else n}
    assert {cols for _, cols in v_blocks} == {1 if p == 0.0 else n}


def test_forward_is_bilinear():
    base = wig_forward(H0, H1, 0.5, GRID)
    scaled = wig_forward(lambda t: 3j * H0(t), H1, 0.5, GRID)
    assert np.allclose(scaled.samples, 3j * base.samples)
    other = wig_forward(H2, H1, 0.5, GRID)
    summed = wig_forward(lambda t: H0(t) + H2(t), H1, 0.5, GRID)
    assert np.allclose(summed.samples, base.samples + other.samples, atol=1e-14)


def test_boundary_decay_guard():
    wide = GaussianPacket(a=0.01)
    with pytest.raises(BoundaryDecayError, match="enlarge L"):
        wig_forward(wide, wide, 0.5, GRID)


def test_high_hermite_pair_clears_default_boundary():
    # worst smoke fixture: h2 (x) h1 at L = 12 sits just under the default
    out = wig_forward(H2, H1, 0.5, GRID)
    assert np.isfinite(out.samples).all()


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 0.25])
def test_round_trip_on_fast_path(p):
    out = wig_inverse(wig_forward(H2, H1, p, GRID), p)
    assert not out.dual_y
    gs, gt = mesh(GRID, dual=False)
    expected = np.where(np.abs(gs - gt) < GRID.L, H2(gs) * H1(gt), 0.0)
    assert max_err(out, expected) < 1e-12


def test_round_trip_generic_p():
    p = 1.0 / 3.0
    out = wig_inverse(wig_forward(H1, H0, p, GRID), p)
    gs, gt = mesh(GRID, dual=False)
    expected = np.where(np.abs(gs - gt) < GRID.L, H1(gs) * H0(gt), 0.0)
    assert max_err(out, expected) < 1e-12


@pytest.mark.parametrize("p", [1.0 / 3.0, 0.7])
def test_round_trip_generic_p_at_n512(p):
    grid = Grid2D(12.0, 512)
    out = wig_inverse(wig_forward(H2, H1, p, grid), p)
    gs, gt = mesh(grid, dual=False)
    expected = np.where(np.abs(gs - gt) < grid.L, H2(gs) * H1(gt), 0.0)
    assert max_err(out, expected) < 1e-12


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("p", [0.0, 0.25, 1.0 / 3.0, 0.5, 0.7, 1.0, 1.25])
def test_inverse_matches_direct_sum(n, p):
    transform = wig_forward(H2, H1, p, Grid2D(12.0, n))
    out = wig_inverse(transform, p)
    assert max_err(out, direct_wig_inverse(transform, p)) <= 1e-13


def test_inverse_matches_direct_sum_off_band():
    # random samples carry full-band content, up to the x-axis Nyquist frequency
    rng = np.random.default_rng(7)
    grid = Grid2D(4.0, 32)
    transform = GridFunction2D(grid, rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
    for p in (1.0 / 3.0, 0.5, 0.7):
        assert max_err(wig_inverse(transform, p), direct_wig_inverse(transform, p)) <= 1e-13


INVERSE_PS = [0.0, 0.25, 1.0 / 3.0, 0.5, 0.7, 1.0, 1.25, -1.0]


def inverse_inputs(n, p):
    """Two Hermite transforms and random full-band samples."""
    grid = Grid2D(12.0 if 0.0 <= p <= 1.0 else 20.0, n)
    rng = np.random.default_rng(n)
    return [wig_forward(H2, H1, p, grid), wig_forward(H0, Hermite(3), p, grid),
            GridFunction2D(grid, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))]


@pytest.mark.parametrize("n", [4, 8, 64, 512])
def test_inverse_matches_the_whole_plane_oracle_byte_for_byte(n):
    for p in INVERSE_PS:
        for transform in inverse_inputs(n, p):
            given = transform.samples.tobytes()
            ours = wig_inverse(transform, p).samples.tobytes()
            assert ours == shift_table_wig_inverse(transform, p).tobytes(), (n, p)
            assert transform.samples.tobytes() == given


def test_inverse_stays_within_its_plane_budget():
    # one plane besides its input, plus a block of phase rows
    transform = wig_forward(H2, H1, 1.0 / 3.0, Grid2D(12.0, 512))
    _, planes = peak_planes(lambda: wig_inverse(transform, 1.0 / 3.0), 512)
    assert planes <= 1.5


def test_inverse_rejects_spatial_axis():
    gf = GridFunction2D(GRID, np.zeros((256, 256)), dual_y=False)
    with pytest.raises(ValueError):
        wig_inverse(gf, 0.5)


# ---------------------------------------------------------------------------
# file round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["csv", "raw"])
def test_grid_file_round_trip(tmp_path, fmt):
    gf = wig_forward(H0, H1, 0.5, Grid2D(12.0, 16))
    path = str(tmp_path / f"grid.{fmt}")
    write_grid(gf, path, fmt=fmt, extra={"p": "1/2"})
    back = read_grid(path)
    assert back.grid == gf.grid
    assert back.dual_y == gf.dual_y
    tol = 1e-15 if fmt == "raw" else 1e-14
    assert np.max(np.abs(back.samples - gf.samples)) <= tol
    with open(manifest_path(path)) as fh:
        manifest = json.load(fh)
    assert manifest["p"] == "1/2"
    assert manifest["axis_y"] == "dual"


@pytest.mark.parametrize("fmt", ["csv", "raw"])
@pytest.mark.parametrize("n", [8, 256])
def test_grid_file_round_trip_keeps_bits(tmp_path, fmt, n):
    # every sign of zero in either part, next to nonzero and subnormal parts
    rng = np.random.default_rng(n)
    parts = np.array([-0.0, 0.0, -1.5, 2.25, -5e-324, 1e300])
    samples = rng.choice(parts, (n, n)) + 0j
    samples.imag = rng.choice(parts, (n, n))
    samples[0, :4] = [complex(-0.0, -0.0), complex(-0.0, 3.0), complex(3.0, -0.0),
                      complex(0.0, -0.0)]
    gf = GridFunction2D(Grid2D(6.0, n), samples)
    path = str(tmp_path / f"grid.{fmt}")
    write_grid(gf, path, fmt=fmt)
    back = read_grid(path)
    assert back.samples.dtype == np.complex128
    assert np.array_equal(back.samples.view(np.uint64), gf.samples.view(np.uint64))


def savetxt_bytes(gf, path):
    gx, gy = mesh(gf.grid, gf.dual_y)
    table = np.column_stack([gx.ravel(), gy.ravel(),
                             gf.samples.real.ravel(), gf.samples.imag.ravel()])
    np.savetxt(path, table, delimiter=",", header="x,y,re,im", comments="", fmt="%.17g")
    with open(path, "rb") as fh:
        return fh.read()


def special_values_grid():
    values = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.7976931348623157e308,
                       1.0 / 3.0])
    samples = np.resize(values, 64).reshape(8, 8) + 1j * np.resize(values[::-1], 64).reshape(8, 8)
    return GridFunction2D(Grid2D(np.e, 8), samples, dual_y=False)


CSV_CASES = {
    # smallest grid: 4 x rows, 16 lines
    "N4": lambda: GridFunction2D(Grid2D(np.pi, 4), np.arange(16).reshape(4, 4) * (0.1 - 0.3j)),
    # 128 x rows of 128 samples, 16384 lines: still one row block
    "N128": lambda: wig_forward(H2, H1, 1.0 / 3.0, Grid2D(12.0, 128)),
    "special": special_values_grid,
    # large enough for one row block per CPU
    "N256": lambda: wig_forward(H1, H2, 0.5, Grid2D(12.0, 256)),
    "N512": lambda: wig_inverse(wig_forward(H2, H1, 1.0 / 3.0, Grid2D(12.0, 512)), 1.0 / 3.0),
}


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


# the small cases stay in one block on any machine; the large ones run with
# 1, 2 and 3 usable CPUs
CSV_RUNS = [("N4", None), ("N128", None), ("special", None)] + [
    (case, cpus) for case in ("N256", "N512") for cpus in (1, 2, 3)]


@pytest.mark.parametrize("case, cpus", CSV_RUNS,
                         ids=[case if cpus is None else f"{case}-{cpus}cpu" for case, cpus in CSV_RUNS])
def test_csv_bytes_match_savetxt(tmp_path, monkeypatch, case, cpus):
    gf = CSV_CASES[case]()
    n = gf.grid.N
    if cpus is not None:
        use_cpus(monkeypatch, cpus)
    assert _block_count(n) == (1 if cpus is None else cpus)
    path = str(tmp_path / "grid.csv")
    write_grid(gf, path)
    with open(path, "rb") as fh:
        written = fh.read()
    assert written == savetxt_bytes(gf, str(tmp_path / "reference.csv"))
    # the blocks parse to exactly what one np.loadtxt call gives
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    expected = (table[:, 2] + 1j * table[:, 3]).reshape(n, n)
    assert read_grid(path).samples.tobytes() == expected.tobytes()


@pytest.mark.parametrize("fmt", ["csv", "raw"])
@pytest.mark.parametrize("n, cpus", [(64, None), (512, 2), (512, 3)],
                         ids=["N64", "N512-2cpu", "N512-3cpu"])
def test_read_grid_matches_the_table_oracle_byte_for_byte(tmp_path, monkeypatch, fmt, n, cpus):
    # an inverse has exact zeros outside its window; at 3 CPUs the row
    # blocks do not fall on whole blocks of BLOCK_POINTS
    gf = wig_inverse(wig_forward(H2, H1, 1.0 / 3.0, Grid2D(12.0, n)), 1.0 / 3.0)
    path = str(tmp_path / f"grid.{fmt}")
    write_grid(gf, path, fmt=fmt)
    if cpus is not None:
        use_cpus(monkeypatch, cpus)
    assert _block_count(n) == (1 if cpus is None else cpus)
    assert read_grid(path).samples.tobytes() == table_read_grid(path).tobytes()
    assert_no_child_left()


def test_read_grid_stays_within_its_plane_budget(tmp_path, monkeypatch):
    # on one CPU or two, the samples and one block of parsed lines, an eighth
    # of the grid as (N^2 / 8, 4) floats at N = 512; one np.loadtxt call over
    # this process's rows took 3.25 planes on one CPU and 2.04 on two
    gf = wig_forward(H2, H1, 1.0 / 3.0, Grid2D(12.0, 512))
    path = str(tmp_path / "grid.csv")
    write_grid(gf, path)
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        back, planes = peak_planes(lambda: read_grid(path), 512)
        assert back.samples.tobytes() == gf.samples.tobytes()
        assert planes <= 1.75, (cpus, planes)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _truncate_last_line(text):
    return text[:text.rindex(",")]


def _extra_row(text):
    return text + text.splitlines(keepends=True)[-1]


def _non_numeric_field(line):
    def edit(text):
        lines = text.splitlines(keepends=True)
        x, y, _, im = lines[line].split(",")
        lines[line] = ",".join([x, y, "abc", im])
        return "".join(lines)
    return edit


N256_DEFECTS = {
    "truncated_last_line": (_truncate_last_line, "number of columns changed"),
    "extra_row": (_extra_row, "has 65537 data lines, expected 65536"),
    # long enough to pass the size check; the second half of the blocks is
    # short or past the end of the file
    "missing_second_half": (lambda text: "".join(text.splitlines(keepends=True)[:1 + 32768]),
                            "has 32768 data lines, expected 65536"),
    # first block (this process) and last block (a child for 2 and 3 CPUs)
    "non_numeric_first_block": (_non_numeric_field(5), "could not convert string 'abc'"),
    "non_numeric_last_block": (_non_numeric_field(60000), "could not convert string 'abc'"),
}


@pytest.fixture(scope="module")
def n256_csv_text(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("n256") / "grid.csv")
    write_grid(wig_forward(H0, H1, 0.5, Grid2D(12.0, 256)), path)
    with open(path) as fh, open(manifest_path(path)) as mf:
        return fh.read(), mf.read()


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("defect", sorted(N256_DEFECTS))
def test_read_grid_rejects_damaged_large_csv(tmp_path, monkeypatch, capfd, n256_csv_text,
                                             defect, cpus):
    edit, message = N256_DEFECTS[defect]
    text, manifest = n256_csv_text
    path = tmp_path / "grid.csv"
    path.write_text(edit(text))
    (tmp_path / "grid.csv.manifest.json").write_text(manifest)
    use_cpus(monkeypatch, cpus)
    with pytest.raises(ValueError, match=message):
        read_grid(str(path))
    assert_no_child_left()
    # no block, here or in a child, printed a warning of its own
    assert capfd.readouterr().err == ""


def _edited_node(line):
    def edit(text):
        lines = text.splitlines(keepends=True)
        x, y, re, im = lines[line - 1].split(",")
        lines[line - 1] = ",".join([x, repr(float(y) + 1e-9), re, im])
        return "".join(lines)
    return edit


# at 2 CPUs the child's block starts on line 32770; 65537 is the last line
NODE_EDITS = {f"node_on_line_{line}": _edited_node(line) for line in (5, 32769, 32770, 60000, 65537)}


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("defect", sorted(NODE_EDITS))
def test_read_grid_names_the_node_the_table_oracle_names(tmp_path, monkeypatch, n256_csv_text,
                                                         defect, cpus):
    # the nodes are checked a block of rows at a time, but a wrong node is
    # named as when the whole table was checked at once
    edit = NODE_EDITS[defect]
    text, manifest = n256_csv_text
    path = tmp_path / "grid.csv"
    path.write_text(edit(text))
    (tmp_path / "grid.csv.manifest.json").write_text(manifest)
    use_cpus(monkeypatch, cpus)
    with pytest.raises(ValueError) as ours:
        read_grid(str(path))
    with pytest.raises(ValueError) as oracle:
        table_read_grid(str(path))
    assert str(ours.value) == str(oracle.value)
    assert_no_child_left()


def test_child_block_error_names_its_first_line(tmp_path, monkeypatch, n256_csv_text):
    text, manifest = n256_csv_text
    path = tmp_path / "grid.csv"
    path.write_text(_non_numeric_field(60000)(text))
    (tmp_path / "grid.csv.manifest.json").write_text(manifest)
    use_cpus(monkeypatch, 2)
    # block 1 holds x rows 128..255, from line 128 * 256 + 2
    with pytest.raises(ValueError, match=r"grid CSV from line 32770: could not convert .* at row 27231"):
        read_grid(str(path))
    assert_no_child_left()


# numpy's errors from the second parse of a block (rows 128..255 at N = 256
# on one CPU), and from the parse that runs to the end of the file
ROW_DEFECTS = {
    "non_numeric_in_second_parse": _non_numeric_field(40000),
    "quoted_at_row_in_second_parse": lambda text: _non_numeric_field(45000)(text).replace("abc", "x at row 7"),
    "short_line_in_second_parse": lambda text: "".join(
        line if number != 50000 else "1,2,3\n" for number, line in enumerate(text.splitlines(True))),
    "non_numeric_surplus_line": lambda text: text + "1,2,abc,4\n",
}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("defect", sorted(ROW_DEFECTS))
def test_read_grid_names_the_row_one_parse_names(tmp_path, monkeypatch, n256_csv_text, defect, cpus):
    # a block is parsed by several np.loadtxt calls, but numpy's error names
    # the row that one call over the block would name
    text, manifest = n256_csv_text
    path = tmp_path / "grid.csv"
    path.write_text(ROW_DEFECTS[defect](text))
    (tmp_path / "grid.csv.manifest.json").write_text(manifest)
    use_cpus(monkeypatch, cpus)
    with pytest.raises(ValueError) as ours:
        read_grid(str(path))
    with pytest.raises(ValueError) as oracle:
        table_read_grid(str(path))
    assert str(ours.value) == str(oracle.value)
    assert " at row " in str(ours.value)
    assert_no_child_left()


def test_child_block_names_the_row_one_parse_names(tmp_path, monkeypatch):
    # at N = 512 on two CPUs the child parses rows 256..511 in four calls;
    # line 200000 lies in its third
    path = tmp_path / "grid.csv"
    write_grid(wig_forward(H0, H1, 0.5, Grid2D(12.0, 512)), str(path))
    path.write_text(_non_numeric_field(199999)(path.read_text()))
    use_cpus(monkeypatch, 2)
    with pytest.raises(ValueError) as ours:
        read_grid(str(path))
    with pytest.raises(ValueError) as oracle:
        table_read_grid(str(path))
    assert str(ours.value) == str(oracle.value)
    assert str(ours.value).startswith("grid CSV from line 131074: could not convert string 'abc'")
    assert_no_child_left()


def _insert_line(line, number):
    """Put ``line`` in as line ``number`` (1-based; the header is line 1);
    a negative number counts from the end."""
    def edit(text):
        lines = text.splitlines(keepends=True)
        at = number - 1 if number > 0 else len(lines) + 1 + number
        return "".join(lines[:at] + [line] + lines[at:])
    return edit


def _replace_line(line, number):
    def edit(text):
        lines = text.splitlines(keepends=True)
        lines[number - 1] = line
        return "".join(lines)
    return edit


# edit -> (line named at N = 64, at N = 256)
BLANK_OR_COMMENT = {
    "blank_early": (_insert_line("\n", 11), 11, 11),
    "blank_in_last_block": (_insert_line("\n", -6), 4093, 65533),
    "blank_at_end": (_insert_line("\n", -1), 4098, 65538),
    "whitespace": (_insert_line(" \t\n", 40), 40, 40),
    "comment": (_insert_line("# a note\n", 11), 11, 11),
    "comment_for_a_node": (_replace_line("#0,0,0,0\n", 3000), 3000, 3000),
}


@pytest.fixture(scope="module")
def n64_csv_text(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("n64") / "grid.csv")
    write_grid(wig_forward(H0, H1, 0.5, Grid2D(12.0, 64)), path)
    with open(path) as fh, open(manifest_path(path)) as mf:
        return fh.read(), mf.read()


@pytest.mark.parametrize("n, cpus", [(64, None), (256, 1), (256, 2)])
@pytest.mark.parametrize("defect", sorted(BLANK_OR_COMMENT))
def test_read_grid_rejects_blank_and_comment_lines(tmp_path, monkeypatch, capfd, n64_csv_text,
                                                   n256_csv_text, defect, n, cpus):
    # one format at every size and block count: np.loadtxt alone would skip
    # such lines where the file is read in one block
    edit, line_64, line_256 = BLANK_OR_COMMENT[defect]
    text, manifest = n64_csv_text if n == 64 else n256_csv_text
    path = tmp_path / "grid.csv"
    path.write_text(edit(text))
    (tmp_path / "grid.csv.manifest.json").write_text(manifest)
    if cpus is not None:
        use_cpus(monkeypatch, cpus)
    assert _block_count(n) == (1 if cpus is None else cpus)
    line = line_64 if n == 64 else line_256
    kind = "a '#' comment" if defect.startswith("comment") else "blank"
    with pytest.raises(ValueError, match=f"^grid CSV line {line} is {kind};"):
        read_grid(str(path))
    assert_no_child_left()
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("edit", [lambda text: text.replace("\n", "\r\n"),
                                  lambda text: text[:-1]], ids=["crlf", "no_final_newline"])
def test_read_grid_accepts_other_line_ends(tmp_path, monkeypatch, n256_csv_text, edit):
    text, manifest = n256_csv_text
    path = tmp_path / "grid.csv"
    path.write_text(text)
    (tmp_path / "grid.csv.manifest.json").write_text(manifest)
    expected = read_grid(str(path)).samples.tobytes()
    with open(path, "w", newline="") as fh:
        fh.write(edit(text))
    use_cpus(monkeypatch, 2)
    assert read_grid(str(path)).samples.tobytes() == expected


def test_failed_write_reaps_every_child(tmp_path, monkeypatch):
    use_cpus(monkeypatch, 3)
    gf = wig_forward(H0, H1, 0.5, Grid2D(12.0, 256))

    def broken_copy(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(wigner.shutil, "copyfileobj", broken_copy)
    with pytest.raises(OSError, match="disk full"):
        write_grid(gf, str(tmp_path / "grid.csv"))
    assert_no_child_left()


def test_read_grid_requires_manifest(tmp_path):
    path = str(tmp_path / "orphan.csv")
    with open(path, "w") as fh:
        fh.write("x,y,re,im\n")
    with pytest.raises(FileNotFoundError):
        read_grid(path)


def _small_grid_file(tmp_path, fmt="csv"):
    path = str(tmp_path / f"grid.{fmt}")
    write_grid(wig_forward(H0, H1, 0.5, Grid2D(12.0, 16)), path, fmt=fmt)
    return path


def _edit_manifest(path, **changes):
    with open(manifest_path(path)) as fh:
        manifest = json.load(fh)
    for key, value in changes.items():
        if value is None:
            del manifest[key]
        else:
            manifest[key] = value
    with open(manifest_path(path), "w") as fh:
        json.dump(manifest, fh)


@pytest.mark.parametrize("key, value, message", [
    ("L", None, "has no 'L'"),
    ("N", None, "has no 'N'"),
    ("axis_y", None, "has no 'axis_y'"),
    ("format", None, "has no 'format'"),
    ("L", "12", "key 'L' must be a finite number"),
    ("L", True, "key 'L' must be a finite number"),
    ("L", 10 ** 400, "key 'L' must be a finite number"),
    ("N", 16.0, "key 'N' must be an integer"),
    ("axis_y", "other", "key 'axis_y' must be 'dual' or 'spatial'"),
    ("format", "npz", "key 'format' must be 'csv' or 'raw'"),
    ("L", -1.0, "L must be positive"),
    ("N", 24, "power of two"),
    ("N", 2 * MAX_GRID_N, "exceeds the limit"),
])
def test_read_grid_validates_manifest(tmp_path, key, value, message):
    path = _small_grid_file(tmp_path)
    _edit_manifest(path, **{key: value})
    with pytest.raises(ValueError, match=message):
        read_grid(path)


@pytest.mark.parametrize("key, message", [("N", "key 'N' must be an integer"),
                                          ("L", "key 'L' must be a finite number")],
                         ids=["N", "L"])
def test_read_grid_names_an_over_long_manifest_integer(tmp_path, key, message):
    # 5000 digits: beyond the 4300 that Python's int() converts
    path = _small_grid_file(tmp_path)
    _edit_manifest(path, **{key: "long"})
    with open(manifest_path(path)) as fh:
        text = fh.read().replace('"long"', "1" + "0" * 4999)
    with open(manifest_path(path), "w") as fh:
        fh.write(text)
    with pytest.raises(ValueError, match=message) as info:
        read_grid(path)
    # the value is echoed in at most 80 characters
    assert str(info.value).endswith(", got '" + "1" + "0" * 78)


def test_read_grid_rejects_non_object_manifest(tmp_path):
    path = _small_grid_file(tmp_path)
    with open(manifest_path(path), "w") as fh:
        fh.write("[12.0, 16]")
    with pytest.raises(ValueError, match="must hold a JSON object"):
        read_grid(path)


@pytest.mark.parametrize("fmt, message", [("csv", "too few for 16777216 lines"),
                                          ("raw", "expected 268435456")])
def test_read_grid_checks_file_size_before_allocating(tmp_path, fmt, message):
    # a manifest that claims the largest grid over a 16 x 16 data file fails
    # on the file size, before a 4096 x 4096 table is allocated
    path = _small_grid_file(tmp_path, fmt)
    _edit_manifest(path, N=MAX_GRID_N)
    with pytest.raises(ValueError, match=message):
        read_grid(path)


def _rewrite_csv(path, edit):
    with open(path) as fh:
        header, *rows = fh.read().splitlines()
    rows = edit([row.split(",") for row in rows])
    with open(path, "w") as fh:
        fh.write("\n".join([header] + [",".join(row) for row in rows]) + "\n")


def _inverse_grid_file(tmp_path):
    pair = wig_inverse(wig_forward(H0, H1, 0.5, Grid2D(12.0, 16)), 0.5)
    path = str(tmp_path / "pair.csv")
    write_grid(pair, path)
    return path


def test_read_grid_rejects_reversed_rows(tmp_path):
    path = _inverse_grid_file(tmp_path)
    _rewrite_csv(path, lambda rows: rows[::-1])
    with pytest.raises(ValueError, match=r"line 2 holds node \(10\.5, 10\.5\), expected \(-12\.0, -12\.0\)"):
        read_grid(path)


def test_read_grid_rejects_swapped_coordinate_columns(tmp_path):
    # both axes are spatial here, so the diagonal rows still match and the
    # first wrong line is the second one
    path = _inverse_grid_file(tmp_path)
    _rewrite_csv(path, lambda rows: [[y, x, re, im] for x, y, re, im in rows])
    with pytest.raises(ValueError, match="line 3 holds node"):
        read_grid(path)


def test_read_grid_rejects_one_edited_node(tmp_path):
    path = str(tmp_path / "grid.csv")
    write_grid(wig_forward(H0, H1, 0.5, Grid2D(12.0, 16)), path)

    def edit(rows):
        rows[37][1] = repr(float(rows[37][1]) + 1e-12)
        return rows

    _rewrite_csv(path, edit)
    with pytest.raises(ValueError, match="line 39 holds node"):
        read_grid(path)


def test_read_grid_rejects_truncated_raw(tmp_path):
    gf = GridFunction2D(Grid2D(4.0, 8), np.ones((8, 8)))
    path = str(tmp_path / "grid.raw")
    write_grid(gf, path, fmt="raw")
    with open(path, "r+b") as fh:
        fh.truncate(100)
    with pytest.raises(ValueError, match="raw grid holds"):
        read_grid(path)


def test_write_grid_rejects_unknown_format(tmp_path):
    gf = GridFunction2D(Grid2D(4.0, 8), np.ones((8, 8)))
    with pytest.raises(ValueError):
        write_grid(gf, str(tmp_path / "grid.bin"), fmt="npz")
