"""Grid operators, the intertwining identity, and the energy comparison."""

import random
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from wigreg.exact import GR_I, GR_ONE, GaussianRational, MultiPoly
from wigreg.hermite import PI_QUARTER_INV, Hermite, apply_model_operator
from wigreg.spectral import (
    BoundaryDecayWarning,
    DEFAULT_GRID,
    _CheckPlane,
    apply_operator_2d,
    coherent_transform,
    intertwine_residual,
    wick_energy_compare,
)
from wigreg.symbols import MODEL_VARS, OperatorSpec
from wigreg.wigner import BoundaryDecayError, Grid2D, GridFunction2D, wig_forward

from oracles import (
    factorwise_apply_operator_2d,
    fresh_planes_apply_operator_2d,
    separate_intertwine_residual,
)

H0, H1, H2 = Hermite(0), Hermite(1), Hermite(2)


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


EQ44 = OperatorSpec({(2, 0): gr(4), (0, 2): gr(1) * Fraction(1, 4)}, Fraction(1, 2))
HARMONIC_SPEC = OperatorSpec({(2, 0): gr(1), (0, 2): gr(1)}, Fraction(1, 2))
QUARTIC = OperatorSpec({(4, 0): gr(1), (2, 2): gr(2), (1, 1): gr(0, -4), (0, 4): gr(1)},
                       Fraction(1, 2))
FIRST_PLUS = OperatorSpec({(0, 1): gr(1), (1, 0): gr(0, 1)}, Fraction(1, 2))


# ---------------------------------------------------------------------------
# spectral derivative and the planar operator
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::wigreg.spectral.BoundaryDecayWarning")
def test_factors_act_on_plane_waves_by_their_eigenvalues():
    # (y + p D_x) e^{i kappa x} = (y + p kappa) e^{i kappa x}, and
    # (x - q D_y) e^{i kappa y} = (x - q kappa) e^{i kappa y}
    grid = Grid2D(8.0, 64)
    ones = np.ones(grid.N)
    kx = 2.0 * np.pi / (grid.N * grid.dx) * 5          # exact grid modes
    ky = 2.0 * np.pi / (grid.N * grid.dy_dual) * -3
    wave_x = np.outer(np.exp(1j * kx * grid.x_nodes), ones)
    wave_y = np.outer(ones, np.exp(1j * ky * grid.dual_nodes))
    for p in [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(2)]:
        y_factor = OperatorSpec({(0, 1): GR_ONE}, p)
        out = apply_operator_2d(y_factor, GridFunction2D(grid, wave_x)).samples
        expected = (grid.dual_nodes[None, :] + float(p) * kx) * wave_x
        assert np.max(np.abs(out - expected)) < 1e-12, p
        x_factor = OperatorSpec({(1, 0): GR_ONE}, p)
        out = apply_operator_2d(x_factor, GridFunction2D(grid, wave_y)).samples
        expected = (grid.x_nodes[:, None] - float(1 - p) * ky) * wave_y
        assert np.max(np.abs(out - expected)) < 1e-12, p


def test_model_operator_oscillator_eigenvalue():
    for n in range(4):
        hn = Hermite(n)
        out = apply_model_operator(HARMONIC_SPEC.complex_coeffs(), hn)(DEFAULT_GRID.x_nodes)
        assert np.max(np.abs(out - (2 * n + 1) * hn(DEFAULT_GRID.x_nodes))) < 1e-10, n


def test_boundary_decay_warning_fires():
    x = DEFAULT_GRID.x_nodes
    slow = np.exp(-0.01 * (x[:, None] ** 2 + x[None, :] ** 2))
    with pytest.warns(BoundaryDecayWarning):
        apply_operator_2d(EQ44, GridFunction2D(DEFAULT_GRID, slow))


def test_no_warning_for_schwartz_samples():
    with warnings.catch_warnings():
        warnings.simplefilter("error", BoundaryDecayWarning)
        apply_operator_2d(EQ44, wig_forward(H0, H0, 0.5, DEFAULT_GRID))


def test_apply_operator_2d_requires_dual_axis():
    w = wig_forward(H0, H0, 0.5, DEFAULT_GRID)
    spatial = type(w)(w.grid, w.samples, dual_y=False)
    with pytest.raises(ValueError):
        apply_operator_2d(EQ44, spatial)


def _relative(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


def _random_spec(rng: random.Random, p: Fraction) -> OperatorSpec:
    """A Gaussian-rational operator of order at most 4 with random support."""
    order = rng.randint(1, 4)
    support = [(j, k) for j in range(order + 1) for k in range(order + 1 - j)]
    chosen = rng.sample(support, rng.randint(1, len(support)))
    return OperatorSpec({jk: gr(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                                Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
                         for jk in chosen}, p)


@pytest.mark.filterwarnings("ignore::wigreg.spectral.BoundaryDecayWarning")
@pytest.mark.parametrize("n_pts", [64, 256])
@pytest.mark.parametrize("p", [Fraction(-1), Fraction(0), Fraction(1, 3),
                               Fraction(1, 2), Fraction(1), Fraction(2)])
def test_apply_operator_2d_matches_factorwise_oracle(p, n_pts):
    rng = random.Random(f"{p}:{n_pts}")
    inside = 0 <= p <= 1
    grid = Grid2D(12.0 if inside else 20.0, n_pts)
    for _ in range(4):
        spec = _random_spec(rng, p)
        w = wig_forward(Hermite(rng.randint(0, 2)), Hermite(rng.randint(0, 2)), float(p), grid)
        new = apply_operator_2d(spec, w).samples
        old = factorwise_apply_operator_2d(spec, w).samples
        if inside:
            assert _relative(new, old) <= 1e-12, (spec.coeffs, p, n_pts)
            continue
        # Outside 0 <= p <= 1 the symbols reach |x - q omega_y| and
        # |y + p omega_x| near 60 on the wider window, so a 4th-order term
        # magnifies float64 rounding beyond 1e-12 in either scheme.  Measure
        # both against the oracle run in extended precision instead.
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("no extended-precision long double on this platform")
        wide = SimpleNamespace(grid=grid, samples=w.samples.astype(np.clongdouble))
        ref = factorwise_apply_operator_2d(spec, wide).samples
        assert _relative(new, ref) <= 2.0 * _relative(old, ref) + 1e-13, (spec.coeffs, p, n_pts)


@pytest.mark.filterwarnings("ignore::wigreg.spectral.BoundaryDecayWarning")
@pytest.mark.parametrize("p", [Fraction(-1), Fraction(0), Fraction(1, 3),
                               Fraction(1, 2), Fraction(1), Fraction(2)])
def test_apply_operator_2d_matches_fresh_planes_oracle_bit_for_bit(p):
    # block-wise symbols, in-place frames and the check's own plane change no bit
    rng = random.Random(f"bits:{p}")
    grid = Grid2D(12.0, 64)
    w = wig_forward(H1, H2, float(p), grid)
    plain = OperatorSpec({(3, 0): gr(2, -1), (1, 0): gr(Fraction(1, 3)), (0, 0): gr(5)}, p)
    rows = OperatorSpec({(2, 1): gr(1, 1), (0, 3): gr(Fraction(-1, 4)), (0, 1): gr(0, 2)}, p)
    for spec in [plain, rows, QUARTIC.with_p(p)] + [_random_spec(rng, p) for _ in range(4)]:
        expected = fresh_planes_apply_operator_2d(spec, w)
        assert np.array_equal(apply_operator_2d(spec, w).samples, expected), spec.coeffs
        owned = _CheckPlane(grid, w.samples.copy())
        assert np.array_equal(apply_operator_2d(spec, owned).samples, expected), spec.coeffs


@pytest.mark.filterwarnings("ignore::wigreg.spectral.BoundaryDecayWarning")
@pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)])
def test_reused_row_planes_keep_every_residual_bit(p):
    # three and four rows that hold a derivative: a row from the third on is
    # built in the plane of a row already added to the total
    four_rows = OperatorSpec({(3, 1): gr(1, -1), (2, 2): gr(Fraction(1, 2)), (1, 1): gr(0, 3),
                              (0, 2): gr(2), (4, 0): gr(1)}, p)
    grid = Grid2D(12.0, 64)
    w = wig_forward(H1, H2, float(p), grid)
    for spec in (QUARTIC.with_p(p), four_rows):
        assert len({j for j, k in spec.coeffs if k}) >= 3
        expected = fresh_planes_apply_operator_2d(spec, w)
        assert np.array_equal(apply_operator_2d(spec, w).samples, expected), spec.coeffs
        for m, n in [(0, 0), (1, 2)]:
            args = (spec, Hermite(m), Hermite(n), p, grid)
            assert intertwine_residual(*args) == separate_intertwine_residual(*args), (spec.coeffs, m, n)


def _count_ffts(monkeypatch) -> list:
    """Record the axis of every one-axis FFT and inverse FFT."""
    calls = []
    for name in ("fft", "ifft"):
        original = getattr(np.fft, name)

        def counted(a, *args, _original=original, **kwargs):
            calls.append(kwargs.get("axis", -1) % np.ndim(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize("coeffs, expected", [
    # QUARTIC: x^4 has no derivative; the rows j = 2, 1, 0 each do (28 FFTs factor by factor)
    ({(4, 0): gr(1), (2, 2): gr(2), (1, 1): gr(0, -4), (0, 4): gr(1)}, 9),
    ({(2, 0): gr(4), (0, 2): gr(Fraction(1, 4))}, 5),           # EQ44
    ({(1, 1): gr(1)}, 4),
    ({(1, 0): gr(1)}, 2),
    ({(3, 0): gr(1), (1, 0): gr(2)}, 2),
    ({(0, 6): gr(1), (0, 1): gr(3)}, 4),
    ({(3, 1): gr(1), (3, 0): gr(2), (1, 2): gr(1), (0, 1): gr(5), (0, 0): gr(1)}, 9),
])
def test_apply_operator_2d_fft_count(monkeypatch, coeffs, expected):
    # p = 1/2: one FFT along x into the frame of Y and one along y into the
    # frame of X, each only when some term needs it, an inverse-x/forward-y
    # pair for each row with a derivative term, and the closing inverse FFT
    # along y.  p = 0: Y is multiplication by y, so nothing moves along x.
    # p = 1: X is multiplication by x, so nothing moves along y, and the
    # result is already in the frame of the samples.
    rows = len({j for j, k in coeffs if k > 0})
    plain = any(k == 0 for _, k in coeffs)
    assert 2 * rows + bool(rows) + plain + 1 == expected
    cases = [(Fraction(1, 2), expected, {0, 1}),
             (Fraction(0), rows + plain + 1, {1}),
             (Fraction(1), rows + bool(rows), {0})]
    for p, count, axes in cases:
        w = wig_forward(H1, H0, float(p), Grid2D(12.0, 64))
        calls = _count_ffts(monkeypatch)
        apply_operator_2d(OperatorSpec(coeffs, p), w)
        monkeypatch.undo()
        assert len(calls) == count, p
        assert set(calls) <= axes, p


# ---------------------------------------------------------------------------
# intertwining identity
# ---------------------------------------------------------------------------


def test_full_intertwining_residual_small():
    residuals = intertwine_residual(EQ44, H2, H1, Fraction(1, 2))
    assert [name for name, _ in residuals] == ["intertwining"]
    assert residuals[0][1] < 1e-10


def test_generator_residuals_small():
    residuals = intertwine_residual(EQ44, H0, H0, Fraction(1, 2), mode="generators")
    assert [name for name, _ in residuals] == ["derivative_factor", "position_factor"]
    assert all(value < 1e-10 for _, value in residuals)


@pytest.mark.parametrize("p", [Fraction(-1), Fraction(0), Fraction(1, 3),
                               Fraction(1, 2), Fraction(1), Fraction(2)])
def test_generator_sweep_over_p(p):
    # outside 0 <= p <= 1 the transform of a Gaussian pair decays like
    # exp(-(x^2+y^2)/10) instead of exp(-x^2-y^2): widen the window to match
    grid = DEFAULT_GRID if 0 <= p <= 1 else Grid2D(20.0, 512)
    for m, n in [(0, 0), (1, 0), (0, 1), (2, 1)]:
        residuals = intertwine_residual(EQ44, Hermite(m), Hermite(n), p,
                                        grid=grid, mode="generators")
        worst = max(value for _, value in residuals)
        assert worst < 1e-8, (p, m, n, worst)


def test_full_residual_across_operators():
    specs = [
        EQ44,
        OperatorSpec({(1, 1): gr(1)}, Fraction(1, 2)),
        OperatorSpec({(0, 1): gr(1), (1, 0): gr(0, 1)}, Fraction(1, 3)),
        OperatorSpec({(4, 0): gr(1), (2, 2): gr(2), (1, 1): gr(0, -4),
                      (0, 4): gr(1)}, Fraction(1, 2)),
    ]
    for spec in specs:
        for p in [Fraction(0), Fraction(1, 2), Fraction(1)]:
            residuals = intertwine_residual(spec, H1, H0, p)
            assert residuals[0][1] < 1e-6, (spec.coeffs, p, residuals)


def _outcome(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except BoundaryDecayError as exc:
        return str(exc)


@pytest.mark.filterwarnings("ignore::wigreg.spectral.BoundaryDecayWarning")
@pytest.mark.parametrize("n_pts", [64, 256])
@pytest.mark.parametrize("p", [Fraction(-1), Fraction(0), Fraction(1, 3),
                               Fraction(1, 2), Fraction(1), Fraction(2)])
def test_intertwine_residual_matches_separate_forwards_bit_for_bit(p, n_pts):
    # the shared v plane, the consumed transform and the in-place arithmetic
    # change no bit of any residual, nor an edge-decay failure
    grid = Grid2D(12.0 if 0 <= p <= 1 else 20.0, n_pts)
    for spec in (EQ44, QUARTIC, FIRST_PLUS):
        for m, n in [(0, 0), (1, 2), (2, 1)]:
            for mode in ("full", "generators"):
                args = (spec, Hermite(m), Hermite(n), p, grid)
                ours = _outcome(intertwine_residual, *args, mode=mode)
                assert ours == _outcome(separate_intertwine_residual, *args, mode=mode), \
                    (spec.coeffs, m, n, mode)


@pytest.mark.filterwarnings("ignore::wigreg.spectral.BoundaryDecayWarning")
@pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 3), Fraction(1)])
def test_apply_operator_2d_leaves_its_input_untouched(p):
    rng = random.Random(f"untouched:{p}")
    w = wig_forward(H1, H2, float(p), Grid2D(12.0, 64))
    before = w.samples.copy()
    for spec in [EQ44.with_p(p), QUARTIC.with_p(p)] + [_random_spec(rng, p) for _ in range(4)]:
        apply_operator_2d(spec, w)
        assert w.samples.tobytes() == before.tobytes(), spec.coeffs


class WindowRecorder:
    """A window that records the shape of every argument it is called on."""

    def __init__(self, fn):
        self.fn = fn
        self.shapes = []

    def __call__(self, t):
        self.shapes.append(np.shape(t))
        return self.fn(t)

    def to_polygauss(self):
        return self.fn.to_polygauss()


@pytest.mark.parametrize("mode", ["full", "generators"])
def test_intertwining_check_evaluates_v_on_one_plane(mode):
    # two edge lines for every pair, then for each check v once for
    # Wig_p[u, v] and once more for its right side, which is compared after
    # the operator has run; u is evaluated for the first forward of each
    # check only.  At L = 12 the nodes are multiples of dx = 3/8 and p = 1/3
    # puts v's arguments x - z/3 on a line of 4N - 3 points of step dx/3,
    # while fl(2/3 z) puts u's on none: u comes in blocks of rows (one at
    # N = 64).  At L = 11.3 neither window is on a lattice
    n = 64
    checks = 1 if mode == "full" else 2
    for L, v_line in [(12.0, (4 * n - 3,)), (11.3, (n, n))]:
        u, v = WindowRecorder(H1), WindowRecorder(H2)
        intertwine_residual(EQ44, u, v, Fraction(1, 3), Grid2D(L, n), mode=mode)
        assert v.shapes == [(n,), (n,)] + [v_line, v_line] * checks, L
        assert u.shapes == [(n,), (n,)] + [(n, n)] * checks, L


def test_intertwining_check_fails_on_the_operator_pair_before_any_plane(monkeypatch):
    # u (x) v decays at the edge of [-10, 10), x^8 u (x) v does not
    def no_operator(*args, **kwargs):
        raise AssertionError("the operator ran before the edge checks")

    monkeypatch.setattr("wigreg.spectral.apply_operator_2d", no_operator)
    n = 64
    u, v = WindowRecorder(H0), WindowRecorder(H0)
    spec = OperatorSpec({(8, 0): gr(1)}, Fraction(1, 2))
    with pytest.raises(BoundaryDecayError, match="inputs reach 5.314e-06 at the z window edge"):
        intertwine_residual(spec, u, v, Fraction(1, 2), Grid2D(10.0, n))
    assert u.shapes == v.shapes == [(n,), (n,)]


def _peak_planes(p: Fraction, mode: str, spec: OperatorSpec = QUARTIC) -> float:
    """The traced peak of an intertwining check at N = 512, in planes."""
    grid = Grid2D(12.0, 512)
    tracemalloc.start()
    try:
        intertwine_residual(spec, H1, H2, p, grid, mode=mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (16 * grid.N ** 2)


def test_intertwining_check_stays_within_its_plane_budget():
    # QUARTIC at p = 1/3 has a plain term and three derivative rows, so the
    # operator holds, besides the transform it consumes, the plain term, the
    # running total and one row in flight.  The right side comes a block of
    # rows at a time, as do symbols and Horner values (an eighth of a plane
    # at N = 512)
    assert _peak_planes(Fraction(1, 3), "full") < 4.75


@pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 3), Fraction(1)])
def test_generator_check_stays_within_its_plane_budget(p):
    # one factor at a time, each working in place over its transform, and
    # the right sides come a block of rows at a time
    assert _peak_planes(p, "generators") < 1.75


@pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 3), Fraction(1)])
def test_position_factor_check_works_in_its_transform_plane(p):
    # x - q D_y alone: no derivative row follows its plain term, so it takes
    # its frame of X in the check's own plane and holds that plane and a few
    # blocks of rows
    assert _peak_planes(p, "full", OperatorSpec({(1, 0): gr(1)}, p)) < 1.6


class SpoiledWindow:
    """A Hermite window whose value near t = 3/16 is ``bad``.  On Grid2D(12,
    64) at p = 1/2 the plane reaches that point and the edge lines do not, so
    the non-finite samples pass the edge check and land in the planes."""

    def __init__(self, n: int, bad: float):
        self.fn, self.bad = Hermite(n), bad

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(np.abs(t - 0.1875) < 0.01, self.bad, self.fn(t))

    def to_polygauss(self):
        return self.fn.to_polygauss()


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("spoiled", ["u", "v"])
@pytest.mark.parametrize("mode", ["full", "generators"])
def test_intertwining_check_refuses_non_finite_samples_once(monkeypatch, mode, spoiled, bad):
    # the check's own planes skip GridFunction2D's scan; the residual finds
    # the non-finite sample and raises the scan's error
    scans = []
    real_isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a: scans.append(np.shape(a)) or real_isfinite(a))
    u = SpoiledWindow(1, bad) if spoiled == "u" else H1
    v = SpoiledWindow(0, bad) if spoiled == "v" else H0
    with pytest.raises(ValueError, match="^samples must be finite$"):
        intertwine_residual(EQ44, u, v, Fraction(1, 2), Grid2D(12.0, 64), mode=mode)
    assert (64, 64) not in scans


def test_only_public_planes_are_scanned_for_non_finite_samples(monkeypatch):
    scans = []
    real_isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a: scans.append(np.shape(a)) or real_isfinite(a))
    for mode in ("full", "generators"):
        intertwine_residual(EQ44, H1, H0, Fraction(1, 2), Grid2D(12.0, 64), mode=mode)
    assert (64, 64) not in scans
    # the public constructor and operator keep their scan
    result = apply_operator_2d(EQ44, GridFunction2D(Grid2D(12.0, 64), np.zeros((64, 64))))
    assert type(result) is GridFunction2D
    assert scans.count((64, 64)) == 2


def test_intertwine_mode_validation():
    with pytest.raises(ValueError):
        intertwine_residual(EQ44, H0, H0, Fraction(1, 2), mode="sideways")


# ---------------------------------------------------------------------------
# coherent-state transform and the energy identity
# ---------------------------------------------------------------------------


def test_window_is_normalized():
    # with a unit window, V keeps the norm: (1 / 2 pi) sum |V u|^2 = |u|^2
    for m in range(3):
        vu = coherent_transform(Hermite(m), DEFAULT_GRID)
        norm = np.sum(np.abs(vu) ** 2) * DEFAULT_GRID.dx * DEFAULT_GRID.dy_dual / (2.0 * np.pi)
        assert norm == pytest.approx(1.0, abs=1e-12)


def test_coherent_transform_matches_direct_quadrature():
    grid = Grid2D(12.0, 128)
    vu = coherent_transform(H1, grid)
    t = grid.x_nodes
    for iy in [30, 64, 90]:
        for ieta in [40, 64, 100]:
            y, eta = grid.x_nodes[iy], grid.dual_nodes[ieta]
            # the window Phi_{y,eta}(t) = pi^(-1/4) e^{i t eta} e^{-(y-t)^2/2}
            window = PI_QUARTER_INV * np.exp(1j * eta * t) * np.exp(-0.5 * (y - t) ** 2)
            direct = np.sum(H1(t) * np.conj(window)) * grid.dx
            assert abs(vu[iy, ieta] - direct) < 1e-12


def test_wick_energy_ground_state():
    # (A h0 | h0) = 1 for the oscillator; the coherent average must agree
    a = MultiPoly(MODEL_VARS, {(2, 0): GR_ONE, (0, 2): GR_ONE})
    result = wick_energy_compare(a, H0)
    assert result.direct == pytest.approx(1.0, abs=1e-12)
    assert result.gap < 1e-12


def test_wick_energy_excited_states_and_position_symbol():
    a = MultiPoly(MODEL_VARS, {(2, 0): GR_ONE, (0, 2): GR_ONE})
    result = wick_energy_compare(a, H1)
    assert result.direct == pytest.approx(3.0, abs=1e-11)
    assert result.gap < 1e-11
    # first moment of |h1|^2 vanishes; x^2 moment is 3/2
    b = MultiPoly(MODEL_VARS, {(2, 0): GR_ONE})
    result = wick_energy_compare(b, H1)
    assert result.direct == pytest.approx(1.5, abs=1e-11)
    assert result.gap < 1e-11


def test_wick_energy_rejects_complex_average():
    a = MultiPoly(MODEL_VARS, {(0, 1): GR_ONE, (1, 0): GR_I})
    with pytest.raises(ValueError, match="complex"):
        wick_energy_compare(a, H0)


def test_wick_energy_rejects_plane_symbols():
    a = MultiPoly(("x", "y", "xi", "eta"), {(1, 0, 0, 0): GR_ONE})
    with pytest.raises(ValueError, match="model symbol"):
        wick_energy_compare(a, H0)
