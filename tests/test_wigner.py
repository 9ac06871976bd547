"""Plane transform: closed forms, round trips, and grid file formats."""

import numpy as np
import pytest

from oracles import direct_wig_inverse
from wigreg.hermite import GaussianPacket, Hermite
from wigreg.wigner import (
    BoundaryDecayError,
    Grid2D,
    GridFunction2D,
    _alternating_phase,
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
    with pytest.raises(ValueError):
        GridFunction2D(g, bad)
    a = GridFunction2D(g, np.ones((8, 8)))
    b = GridFunction2D(g, np.ones((8, 8)), dual_y=False)
    with pytest.raises(ValueError):
        a - b


def test_grid_function_norms():
    g = Grid2D(4.0, 8)
    gf = GridFunction2D(g, np.full((8, 8), 2.0), dual_y=False)
    assert gf.sup_norm() == 2.0
    # 64 cells of area dx*dx = 1, each contributing |2|^2
    assert gf.l2_norm() == pytest.approx(16.0)


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
    assert np.isfinite(out.sup_norm())


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
    import json
    with open(manifest_path(path)) as fh:
        manifest = json.load(fh)
    assert manifest["p"] == "1/2"
    assert manifest["axis_y"] == "dual"


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
    # 128 x rows of 128 samples, 16384 lines
    "N128": lambda: wig_forward(H2, H1, 1.0 / 3.0, Grid2D(12.0, 128)),
    "special": special_values_grid,
}


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_csv_bytes_match_savetxt(tmp_path, case):
    gf = CSV_CASES[case]()
    path = str(tmp_path / "grid.csv")
    write_grid(gf, path)
    with open(path, "rb") as fh:
        written = fh.read()
    assert written == savetxt_bytes(gf, str(tmp_path / "reference.csv"))


def test_read_grid_requires_manifest(tmp_path):
    path = str(tmp_path / "orphan.csv")
    with open(path, "w") as fh:
        fh.write("x,y,re,im\n")
    with pytest.raises(FileNotFoundError):
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
