"""Analytic test functions and the symbolic model-operator action."""

import numpy as np
import pytest

from wigreg.hermite import (
    GaussianPacket,
    Hermite,
    PolyGauss,
    apply_model_operator,
    hermite_values,
    to_polygauss,
)

from oracles import fresh_planes_envelope, fresh_planes_hermite_values, hermite_quadrature_values

GRID = np.linspace(-10.0, 10.0, 2001)
DX = GRID[1] - GRID[0]


def test_hermite_values_match_independent_construction():
    for n in range(8):
        ours = hermite_values(n, GRID)
        ref = hermite_quadrature_values(n, GRID)
        assert np.max(np.abs(ours - ref)) < 1e-12, n


SPECIAL_POINTS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                           np.inf, -np.inf, 1e154, -1e154, 1e155, 37.5, -38.6, 0.25, -3.0])


def assert_same_bits(ours, ref):
    assert ours.dtype == ref.dtype and ours.shape == ref.shape
    assert np.array_equal(ours, ref, equal_nan=True)
    assert np.array_equal(np.signbit(ours), np.signbit(ref))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", range(12))
def test_hermite_values_in_place_match_fresh_planes_bit_for_bit(n):
    # 96 points: 15 special values (signed zeros, subnormals, infinities and
    # squares beyond the float range) and 81 ordinary ones, on a line and on
    # a plane
    t = np.concatenate([SPECIAL_POINTS, np.linspace(-12.0, 12.0, 81)])
    assert t.size == 96
    assert_same_bits(hermite_values(n, t), fresh_planes_hermite_values(n, t))
    plane = np.add.outer(t, np.array([0.0, -0.5, 3.25]))
    assert_same_bits(hermite_values(n, plane), fresh_planes_hermite_values(n, plane))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("a, x0", [(0.5, 0.0), (0.7, -0.4), (1.5, 0.25), (1e-3, 1e154)])
def test_polygauss_envelope_in_place_matches_expression_bit_for_bit(monkeypatch, a, x0):
    t = np.concatenate([SPECIAL_POINTS, np.linspace(-12.0, 12.0, 81)])
    envelopes = []
    original = np.exp

    def recording_exp(x, *args, **kwargs):
        out = original(x, *args, **kwargs)
        envelopes.append(np.array(out))
        return out

    monkeypatch.setattr(np, "exp", recording_exp)
    PolyGauss([1.0, -0.5j], a=a, x0=x0)(t)
    monkeypatch.undo()
    assert len(envelopes) == 1
    assert_same_bits(envelopes[0], fresh_planes_envelope(a, x0, t))


def test_hermite_rejects_bad_index():
    with pytest.raises(ValueError):
        hermite_values(-1, GRID)
    with pytest.raises(ValueError):
        hermite_values(1.5, GRID)


def test_hermite_orthonormality():
    funcs = [hermite_values(n, GRID) for n in range(6)]
    for i, fi in enumerate(funcs):
        for j, fj in enumerate(funcs):
            inner = np.trapezoid(fi * fj, dx=DX)
            assert abs(inner - (1.0 if i == j else 0.0)) < 1e-10, (i, j)


def test_hermite_decays_at_the_ends():
    vals = hermite_values(5, np.array([-10.0, 10.0]))
    assert np.max(np.abs(vals)) < 1e-15


def test_hermite_parity():
    vals_p = hermite_values(4, GRID)
    vals_m = hermite_values(4, -GRID)
    assert np.allclose(vals_p, vals_m)
    odd_p = hermite_values(3, GRID)
    odd_m = hermite_values(3, -GRID)
    assert np.allclose(odd_p, -odd_m)


def test_gaussian_packet_evaluates_and_validates():
    g = GaussianPacket(a=2.0, b=1.0, x0=0.5, amplitude=3.0)
    t = np.array([0.0, 0.5])
    assert np.allclose(g(t), 3.0 * np.exp(-2.0 * (t - 0.5) ** 2 + 1j * t))
    with pytest.raises(ValueError):
        GaussianPacket(a=0.0)


def test_polygauss_matches_hermite_pointwise():
    for n in range(6):
        h = Hermite(n)
        pg = h.to_polygauss()
        assert np.max(np.abs(pg(GRID) - h(GRID))) < 1e-12, n


@pytest.mark.parametrize("pg", [
    Hermite(3).to_polygauss(),                                   # b == 0
    PolyGauss([0.5 - 1j, 2.0, 0.25j], a=0.7, x0=-0.4),           # b == 0
    GaussianPacket(a=0.8, b=0.6, x0=0.3).to_polygauss().apply_d(),
    PolyGauss([1.0, -0.5j], a=1.5, b=-2.0, x0=0.25),
])
def test_polygauss_matches_complex_exponential_formula(monkeypatch, pg):
    t = np.add.outer(GRID[::20], 0.5 * GRID[::20])
    expected = (np.polynomial.polynomial.polyval(t, pg.coeffs)
                * np.exp(-pg.a * (t - pg.x0) ** 2 + 1j * pg.b * t))
    exp_args = []
    original = np.exp

    def recording_exp(x, *args, **kwargs):
        exp_args.append(np.asarray(x))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", recording_exp)
    values = pg(t)
    monkeypatch.undo()
    assert np.max(np.abs(values - expected)) <= 1e-15 * np.max(np.abs(expected))
    # the real envelope alone when there is no phase
    assert any(np.iscomplexobj(x) for x in exp_args) == (pg.b != 0)


@pytest.mark.parametrize("pg", [
    Hermite(4).to_polygauss(),                                   # real coefficients
    Hermite(3).to_polygauss().apply_d(),                         # imaginary coefficients
    PolyGauss([0.5 - 1j, 2.0, 0.25j, -1.5 + 0.5j], a=0.7, x0=-0.4),
    PolyGauss([1.0, -0.5j, 0.75], a=1.5, b=-2.0, x0=0.25),      # b != 0
    PolyGauss([0.0], a=0.5),
])
def test_polygauss_real_horner_matches_complex_polyval_bit_for_bit(pg):
    t = np.add.outer(GRID[::20], 0.37 * GRID[::20])
    expected = np.polynomial.polynomial.polyval(t, pg.coeffs) * np.exp(-pg.a * (t - pg.x0) ** 2)
    if pg.b != 0:
        expected *= np.exp(1j * pg.b * t)
    values = pg(t)
    assert values.dtype == complex and values.shape == t.shape
    assert np.array_equal(values, expected)


def test_polygauss_trims_trailing_zeros_and_requires_width():
    pg = PolyGauss([1.0, 0.0, 0.0], a=1.0)
    assert pg.coeffs.size == 1
    with pytest.raises(ValueError):
        PolyGauss([1.0], a=-1.0)


def test_mul_t_matches_pointwise_product():
    pg = GaussianPacket(a=1.5, b=-2.0, x0=0.25).to_polygauss()
    assert np.allclose(pg.mul_t()(GRID), GRID * pg(GRID))


def test_apply_d_matches_central_differences():
    h = 1e-5
    for f in [Hermite(3).to_polygauss(),
              GaussianPacket(a=0.7, b=1.3, x0=-0.4).to_polygauss()]:
        derived = f.apply_d()
        fd = -1j * (f(GRID + h) - f(GRID - h)) / (2 * h)
        scale = np.max(np.abs(fd)) + 1.0
        assert np.max(np.abs(derived(GRID) - fd)) / scale < 1e-8


def test_apply_d_reproduces_ladder_identity():
    # D h_n = i/sqrt(2) (sqrt(n+1) h_{n+1} - sqrt(n) h_{n-1})
    for n in range(1, 5):
        lhs = Hermite(n).to_polygauss().apply_d()(GRID)
        rhs = (1j / np.sqrt(2)) * (np.sqrt(n + 1) * hermite_values(n + 1, GRID)
                                   - np.sqrt(n) * hermite_values(n - 1, GRID))
        assert np.max(np.abs(lhs - rhs)) < 1e-12, n


def test_add_requires_identical_envelopes():
    f = GaussianPacket(a=1.0).to_polygauss()
    g = GaussianPacket(a=2.0).to_polygauss()
    with pytest.raises(ValueError):
        f.add(g)


def test_to_polygauss_rejects_plain_callables():
    with pytest.raises(TypeError):
        to_polygauss(lambda t: t)


def test_model_operator_on_oscillator_eigenfunction():
    # (M^2 + D^2) h_n = (2n + 1) h_n
    coeffs = {(2, 0): 1.0 + 0j, (0, 2): 1.0 + 0j}
    for n in range(4):
        out = apply_model_operator(coeffs, Hermite(n))
        expect = (2 * n + 1) * hermite_values(n, GRID)
        assert np.max(np.abs(out(GRID) - expect)) < 1e-12, n


def test_model_operator_order_of_factors():
    # off-diagonal term M D: multiply after differentiating
    out = apply_model_operator({(1, 1): 1.0 + 0j}, Hermite(0))
    pg = Hermite(0).to_polygauss()
    expect = GRID * pg.apply_d()(GRID)
    assert np.allclose(out(GRID), expect)
