"""Certificates: recognizers, certifiers, falsifier, and re-verification."""

import json
import random
import tracemalloc
import warnings
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from wigreg import certify as certify_module
from wigreg.certify import (
    DEFAULT_RADII,
    DEFAULT_SAMPLES,
    WICK_COUNT,
    WICK_DIRECTIONS,
    WICK_RADIUS,
    Certificate,
    FirstOrderShape,
    NewtonFamilyParams,
    QuadraticCoeffs,
    RegularityVerdict,
    VerifyResult,
    _mixed_block_terms,
    _quad_best_split,
    extract_quadratic_coeffs,
    family_left_symbol,
    first_order_certify,
    hypo_certify_first_order,
    hypo_certify_newton,
    hypo_certify_quadratic,
    hypo_falsify,
    injectivity_quadratic,
    injectivity_sos,
    injectivity_wick,
    newton_polygon,
    recognize_first_order,
    recognize_newton_family,
    unfalsified_certificate,
    verify_certificate,
)
from wigreg.exact import (
    GR_I,
    GR_ONE,
    GRID_BLOCK_ROWS,
    GaussianRational,
    MultiPoly,
    NonFiniteSampleError,
    parse_rational,
)
from wigreg.pipeline import EXIT_UNKNOWN, PositivityError, check_positivity
from wigreg.pipeline import certify as certify_spec
from wigreg.pipeline import (
    emit_report,
    generate_from_positive_symbol,
    generate_quasi_homogeneous,
    parse_spec,
    verify_report,
)
from wigreg.symbols import MODEL_VARS, weyl_wick_inverse

from oracles import (
    composed_mixed_block_dmd,
    composed_mixed_block_mdm,
    fieldwise_verify_certificate,
    fraction_quad_best_split,
    meshgrid_check_positivity,
    meshgrid_injectivity_wick,
    quadratic_split_exists,
    separate_planes_hypo_falsify,
)


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def poly(terms):
    return MultiPoly(MODEL_VARS, {e: c for e, c in terms.items()})


EQ44_A = poly({(2, 0): gr(4), (0, 2): gr(1) * Fraction(1, 4)})
HARMONIC = poly({(2, 0): GR_ONE, (0, 2): GR_ONE})
# x^4 + 2 sigma(MD^2M) + xi^4 with the mixed block expanded
QUARTIC = poly({(4, 0): GR_ONE, (2, 2): gr(2), (1, 1): gr(0, -4), (0, 4): GR_ONE})
SEXTIC = poly({(6, 0): GR_ONE, (2, 2): gr(2), (1, 1): gr(0, -4), (0, 6): GR_ONE})
FIRST_PLUS = poly({(0, 1): GR_ONE, (1, 0): GR_I})         # xi + i x
FIRST_MINUS = poly({(0, 1): GR_ONE, (1, 0): gr(0, -1)})   # xi - i x


# ---------------------------------------------------------------------------
# certificate and verdict containers
# ---------------------------------------------------------------------------


def test_certificate_rejects_unknown_kind_and_grade():
    with pytest.raises(ValueError):
        Certificate(kind="Bogus", grade="exact", payload={}, subject={})
    with pytest.raises(ValueError):
        Certificate(kind="InjSOS", grade="guess", payload={}, subject={})


def test_every_certificate_kind_is_issued_by_one_chain_row():
    issued = [kind for step in certify_module._CHAIN for kind in step.kinds]
    assert sorted(issued) == sorted(set(certify_module.ALL_KINDS) - {"NotApplicable"})
    stage_prefixes = {"hypo": ("Hypo",), "injectivity": ("Inj", "NotInjective")}
    for step in certify_module._CHAIN:
        assert all(kind.startswith(stage_prefixes[step.stage]) for kind in step.kinds), step.method
    assert certify_module.HYPO_KINDS == ("HypoQuadraticForm", "HypoNewtonPolygon",
                                         "HypoFirstOrder", "HypoUnfalsified")
    # a kernel witness decides injectivity but is no injectivity certificate
    assert certify_module.INJ_KINDS == ("InjQuadraticEstimate", "InjSOS", "InjWickPositive",
                                        "InjKernelEscape")
    assert certify_module.ALL_KINDS == (certify_module.HYPO_KINDS + certify_module.INJ_KINDS
                                        + ("NotInjectiveWitness", "NotApplicable"))


def test_certificate_json_round_trip():
    cert = hypo_certify_quadratic(HARMONIC)
    again = Certificate.from_json(cert.to_json())
    assert again.kind == cert.kind
    assert again.payload == cert.payload
    assert again.subject == cert.subject


def test_verdict_validation():
    hypo = hypo_certify_quadratic(HARMONIC)
    inj = injectivity_quadratic(extract_quadratic_coeffs(HARMONIC))
    RegularityVerdict("Regular", [hypo, inj])
    with pytest.raises(ValueError):
        RegularityVerdict("Regular", [hypo])          # no injectivity side
    with pytest.raises(ValueError):
        RegularityVerdict("NotRegular", [hypo, inj])  # no kernel witness
    with pytest.raises(ValueError):
        RegularityVerdict("Maybe", [])


def test_evidence_graded_regular_verdict_by_construction():
    # exact hypo-ellipticity + evidence-only injectivity: overall grade drops
    shifted = HARMONIC + poly({(0, 0): gr(2)})
    hypo = hypo_certify_quadratic(shifted)
    wick = injectivity_wick(shifted)
    assert wick.kind == "InjWickPositive" and wick.grade == "evidence"
    verdict = RegularityVerdict("Regular", [hypo, wick], grade="evidence")
    assert verdict.to_json()["grade"] == "evidence"


# ---------------------------------------------------------------------------
# quadratic-form certifier
# ---------------------------------------------------------------------------


def test_quadratic_certifier_accepts_definite_forms():
    cert = hypo_certify_quadratic(EQ44_A)
    assert cert.kind == "HypoQuadraticForm"
    assert cert.grade == "exact"
    assert cert.payload["det"] == "1"
    assert verify_certificate(cert).ok


def test_quadratic_certifier_ignores_lower_order_terms():
    shifted = EQ44_A + poly({(1, 0): gr(-3), (0, 0): gr(7, 2)})
    assert hypo_certify_quadratic(shifted).kind == "HypoQuadraticForm"


def test_quadratic_certifier_declines_indefinite_forms():
    assert hypo_certify_quadratic(poly({(2, 0): GR_ONE, (0, 2): gr(-1)})) is None
    assert hypo_certify_quadratic(poly({(1, 1): GR_ONE})) is None


def test_quadratic_certifier_not_applicable_off_shape():
    cert = hypo_certify_quadratic(QUARTIC)
    assert cert.kind == "NotApplicable"
    cert = hypo_certify_quadratic(poly({(2, 0): gr(1, 1), (0, 2): GR_ONE}))
    assert cert.kind == "NotApplicable"


# ---------------------------------------------------------------------------
# two-block family: recognizer, polygon, certifier, energy identity
# ---------------------------------------------------------------------------


def test_mixed_blocks_agree_when_symmetric():
    # M D^2 M and D M^2 D share the left symbol x^2 xi^2 - 2i x xi
    expected = poly({(2, 2): GR_ONE, (1, 1): gr(0, -2)})
    assert poly(_mixed_block_terms(1, 1, 1, 0)) == expected
    assert poly(_mixed_block_terms(1, 1, 0, 1)) == expected


def test_mixed_blocks_differ_in_general():
    assert poly(_mixed_block_terms(2, 1, 1, 0)) != poly(_mixed_block_terms(2, 1, 0, 1))


# (mu, nu) weights of M^m D^(2n) M^m and of D^n M^(2m) D^n
@pytest.mark.parametrize("weights, oracle", [
    ((1, 0), composed_mixed_block_mdm),
    ((0, 1), composed_mixed_block_dmd),
], ids=["mdm", "dmd"])
def test_mixed_blocks_match_general_composition(weights, oracle):
    # same terms in the same order, so every symbol built on them is unchanged
    for m in range(9):
        for n in range(9):
            got, want = poly(_mixed_block_terms(m, n, *weights)), oracle(m, n)
            assert got.vars == want.vars
            assert list(got.terms.items()) == list(want.terms.items()), (m, n)


def test_recognize_quartic_family():
    params = recognize_newton_family(QUARTIC)
    assert params is not None
    assert (params.h, params.k, params.m, params.n) == (2, 2, 1, 1)
    assert params.lam == 1 and params.sig == 1
    assert params.mu == 1 and params.nu == 1
    assert family_left_symbol(params) == QUARTIC


def test_recognize_asymmetric_blocks():
    sym = (poly({(4, 0): GR_ONE, (0, 6): GR_ONE})
           + poly(_mixed_block_terms(1, 2, 1, 0)).scale(gr(3))
           + poly(_mixed_block_terms(1, 2, 0, 1)).scale(gr(5)))
    params = recognize_newton_family(sym)
    assert params is not None
    assert (params.mu, params.nu) == (3, 5)
    assert family_left_symbol(params) == sym


def _composed_family(lam, mu, nu, sig, h, k, m, n):
    """The two-block family with its blocks from the general composition formula."""
    return (poly({(2 * h, 0): gr(lam), (0, 2 * k): gr(sig)})
            + composed_mixed_block_mdm(m, n).scale(gr(mu))
            + composed_mixed_block_dmd(m, n).scale(gr(nu)))


def test_recognizer_round_trips_seeded_family_params():
    rng = random.Random(22)

    def weight():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))

    shapes = [(1, 1), (1, 4), (3, 1), (2, 2), (5, 5)]
    shapes += [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(25)]
    for m, n in shapes:
        h, k = rng.randint(m + 1, 6), rng.randint(n + 1, 6)
        lam, mu, nu, sig = weight(), weight(), weight(), weight()
        if mu + nu == 0:
            nu += 1
        sym = _composed_family(lam, mu, nu, sig, h, k, m, n)
        if m == n:                     # one symbol: the weight is split evenly
            mu = nu = (mu + nu) / 2
        params = NewtonFamilyParams(lam, mu, nu, sig, h, k, m, n)
        assert recognize_newton_family(sym) == params, (m, n)
        assert family_left_symbol(params) == sym
        # no family member differs from another in the top coefficient or the
        # one below it alone
        for exp in ((2 * m, 2 * n), (2 * m - 1, 2 * n - 1)):
            bump = gr(weight(), rng.choice((0, 1, -1)))
            assert recognize_newton_family(sym + poly({exp: bump})) is None, (m, n, exp)


def test_recognizer_accepts_pure_diagonal():
    # no mixed block: mu = nu = 0 and the placeholder exponents are 1
    params = recognize_newton_family(HARMONIC)
    assert params is not None
    assert (params.mu, params.nu) == (0, 0)
    assert family_left_symbol(params) == HARMONIC


def test_recognizer_rejects_near_misses():
    assert recognize_newton_family(poly({(3, 0): GR_ONE, (0, 4): GR_ONE})) is None
    tampered = QUARTIC + poly({(1, 1): gr(0, 1)})               # wrong commutator weight
    assert recognize_newton_family(tampered) is None
    assert recognize_first_order(HARMONIC) is None


def test_newton_polygon_completeness():
    params = recognize_newton_family(QUARTIC)
    data = newton_polygon(params)
    assert data.complete
    assert (2, 2) in data.vertices
    cert = hypo_certify_newton(params)
    assert cert.kind == "HypoNewtonPolygon" and cert.grade == "exact"
    assert verify_certificate(cert).ok


def test_newton_polygon_incomplete_for_sextic_variant():
    params = recognize_newton_family(SEXTIC)
    assert params is not None
    assert (params.h, params.k) == (3, 3)
    assert not newton_polygon(params).complete          # 1*3 + 1*3 < 3*3
    assert hypo_certify_newton(params) is None


def test_sos_energy_identity_certificate():
    params = recognize_newton_family(SEXTIC)
    cert = injectivity_sos(params)
    assert cert.kind == "InjSOS" and cert.grade == "exact"
    assert verify_certificate(cert).ok
    bad = NewtonFamilyParams(Fraction(-1), Fraction(0), Fraction(0), Fraction(1), 2, 2, 1, 1)
    assert injectivity_sos(bad) is None


# ---------------------------------------------------------------------------
# first-order shapes
# ---------------------------------------------------------------------------


def test_recognize_first_order_shapes():
    shape = recognize_first_order(FIRST_PLUS)
    assert shape == FirstOrderShape(alpha=GR_I, m=1, scale=GR_ONE)
    scaled = poly({(0, 1): gr(0, 2), (3, 0): gr(-2)})
    shape = recognize_first_order(scaled)
    assert shape.m == 3 and shape.scale == gr(0, 2)
    assert shape.alpha == gr(-2) / gr(0, 2)
    assert recognize_first_order(HARMONIC) is None
    assert recognize_first_order(poly({(0, 1): GR_ONE})) is None


def test_first_order_hypo_needs_complex_alpha():
    assert hypo_certify_first_order(FIRST_PLUS).kind == "HypoFirstOrder"
    assert hypo_certify_first_order(poly({(0, 1): GR_ONE, (1, 0): gr(2)})) is None


def test_first_order_kernel_parity():
    # odd power, decaying kernel: genuine non-injectivity witness
    wit = first_order_certify(gr(0, -1), 1)
    assert wit.kind == "NotInjectiveWitness"
    assert wit.payload["kernel"]["rendered"] == "exp((-1/2)*x^2)"
    # odd power, growing kernel: escapes the Schwartz class
    esc = first_order_certify(GR_I, 1)
    assert esc.kind == "InjKernelEscape"
    assert esc.payload["kernel"]["rendered"] == "exp((1/2)*x^2)"
    # even power: one side always grows
    esc = first_order_certify(gr(0, -1), 2)
    assert esc.kind == "InjKernelEscape"
    # adjoint side conjugates alpha
    adj = first_order_certify(GR_I, 1, side="adjoint")
    assert adj.kind == "NotInjectiveWitness"


def test_first_order_certify_validates_inputs():
    with pytest.raises(ValueError):
        first_order_certify(GR_I, 0)
    with pytest.raises(ValueError):
        first_order_certify(GR_I, 1, side="sideways")
    assert first_order_certify(gr(3), 1).kind == "NotApplicable"


# ---------------------------------------------------------------------------
# symmetric quadratic injectivity search
# ---------------------------------------------------------------------------


def sym_quad(qc: QuadraticCoeffs) -> MultiPoly:
    return poly({
        (2, 0): gr(qc.a2), (1, 0): gr(qc.a1), (0, 0): GaussianRational(qc.a0, -qc.b1),
        (1, 1): gr(2 * qc.b1), (0, 1): gr(2 * qc.b0), (0, 2): gr(qc.c0),
    })


def test_extract_quadratic_requires_symmetry_lock():
    qc = QuadraticCoeffs(Fraction(4), Fraction(0), Fraction(0), Fraction(1),
                         Fraction(0), Fraction(1, 4))
    assert extract_quadratic_coeffs(sym_quad(qc)) == qc
    broken = sym_quad(qc) + poly({(0, 0): gr(0, 1)})
    assert extract_quadratic_coeffs(broken) is None


def test_quadratic_estimate_on_anisotropic_oscillator():
    # a0 = 0, so the best margin is exactly zero: the relaxed branch fires
    qc = extract_quadratic_coeffs(EQ44_A)
    cert = injectivity_quadratic(qc)
    assert cert.kind == "InjQuadraticEstimate" and cert.grade == "exact"
    assert cert.payload["relaxed"] is True
    assert verify_certificate(cert).ok


def test_quadratic_estimate_strict_margin():
    qc = extract_quadratic_coeffs(EQ44_A + poly({(0, 0): gr(1)}))
    cert = injectivity_quadratic(qc)
    assert cert.kind == "InjQuadraticEstimate"
    assert cert.payload["relaxed"] is False
    assert cert.payload["margin"] == "16"
    assert verify_certificate(cert).ok


def test_quadratic_estimate_relaxed_branch():
    # a = x^2 exactly: margin 0 at the trivial split
    qc = QuadraticCoeffs(Fraction(1), Fraction(0), Fraction(0), Fraction(0),
                         Fraction(0), Fraction(0))
    cert = injectivity_quadratic(qc)
    assert cert is not None and cert.payload["relaxed"] is True
    assert verify_certificate(cert).ok


def test_quadratic_estimate_declines_and_not_applicable():
    # a = x^2 - 1 is negative near 0: no split exists
    qc = QuadraticCoeffs(Fraction(1), Fraction(0), Fraction(-1), Fraction(0),
                         Fraction(0), Fraction(0))
    assert injectivity_quadratic(qc) is None
    # c0 < 0 and a2 <= 0 are out of scope
    na = injectivity_quadratic(QuadraticCoeffs(*(Fraction(v) for v in (1, 0, 0, 0, 0, -1))))
    assert na.kind == "NotApplicable"
    na = injectivity_quadratic(QuadraticCoeffs(*(Fraction(v) for v in (0, 0, 1, 0, 0, 1))))
    assert na.kind == "NotApplicable"


def _random_qc(rng):
    def f(lo=-6, hi=6):
        return Fraction(rng.randint(lo, hi), rng.choice([1, 2, 3, 4]))
    return QuadraticCoeffs(a2=f(0), a1=f(), a0=f(), b1=f(), b0=f(), c0=f(0))


def test_quadratic_search_matches_brute_force_oracle():
    rng = random.Random(20260818)
    checked = 0
    for _ in range(120):
        qc = _random_qc(rng)
        if qc.a2 <= 0 or qc.c0 < 0:
            continue
        cert = injectivity_quadratic(qc)
        found = cert is not None and cert.kind == "InjQuadraticEstimate"
        assert found == quadratic_split_exists(qc), qc
        if found:
            assert verify_certificate(cert).ok
        checked += 1
    assert checked >= 40


def _split_search_cases() -> list[QuadraticCoeffs]:
    rng = random.Random(20261018)

    def f(lo=-9, hi=9, big=False):
        if big:
            num = rng.randrange(10 ** 99, 10 ** 100) * rng.choice([-1, 1])
            return Fraction(num, rng.randrange(10 ** 99, 10 ** 100))
        return Fraction(rng.randint(lo, hi), rng.choice([1, 2, 3, 4, 7]))

    def coeffs(**fixed):
        big = fixed.pop("big", False)
        values = {k: f(big=big) for k in ("a1", "a0", "b1", "b0")}
        values["a2"] = abs(f(1, 9, big)) or Fraction(1)
        values["c0"] = abs(f(0, 9, big))
        values.update(fixed)
        return QuadraticCoeffs(**values)

    cases = [coeffs() for _ in range(100)]
    for _ in range(4):
        cases += [
            coeffs(b1=Fraction(0)), coeffs(b0=Fraction(0)), coeffs(a1=Fraction(0)),
            coeffs(c0=Fraction(0)),
            coeffs(c0=Fraction(0), b1=Fraction(0), b0=Fraction(0)),
            # all margins equal: the first point, u = 0, must win
            coeffs(b1=Fraction(0), b0=Fraction(0)),
            # every margin negative
            coeffs(a0=Fraction(-50)),
            coeffs(big=True),
            coeffs(big=True, b0=Fraction(0)),
        ]
    # margin zero at the best split, from b1 = b0 = 0 and from a tight fit
    cases.append(QuadraticCoeffs(*(Fraction(v) for v in (4, 0, 0, 0, 0, 1))))
    cases.append(QuadraticCoeffs(*(Fraction(v) for v in (2, 0, 1, 1, 1, 1))))
    return cases


def test_integer_split_search_matches_fraction_oracle(monkeypatch):
    cases = _split_search_cases()
    expected = {qc: fraction_quad_best_split(qc) for qc in cases}
    certs = {qc: injectivity_quadratic(qc) for qc in cases}
    for qc in cases:
        assert _quad_best_split(qc) == expected[qc], qc
    # the certificate from the oracle's split is the one the library gives
    monkeypatch.setattr(certify_module, "_quad_best_split", expected.__getitem__)
    for qc in cases:
        assert injectivity_quadratic(qc) == certs[qc], qc
    # the cases reach every outcome: no split, negative best, relaxed, strict
    found = list(expected.values())
    assert any(best is None for best in found)
    assert any(best is not None and best.margin < 0 for best in found)
    assert any(best is not None and best.margin == 0 for best in found)
    assert any(best is not None and best.margin > 0 and best.u not in (0, 1)
               for best in found)
    assert any(certs[qc] is not None and len(str(qc.a2)) > 150 for qc in cases)


# ---------------------------------------------------------------------------
# coherent-state positivity (evidence grade)
# ---------------------------------------------------------------------------


def test_wick_positive_on_shifted_oscillator():
    sym = HARMONIC + poly({(0, 0): gr(2)})     # W[a] = x^2 + xi^2 + 1 > 0
    cert = injectivity_wick(sym)
    assert cert.kind == "InjWickPositive" and cert.grade == "evidence"
    assert cert.payload["min_sample"] > 0
    assert verify_certificate(cert).ok


def test_wick_declines_when_average_symbol_dips():
    cert = injectivity_wick(HARMONIC)          # W[a] = x^2 + xi^2 - 1 < 0 at 0
    assert cert.kind == "NotApplicable"
    assert cert.payload["witness"]["value"] < 0


def test_wick_not_applicable_for_complex_average():
    cert = injectivity_wick(FIRST_PLUS)
    assert cert.kind == "NotApplicable"
    assert "complex" in cert.payload["reason"]


def _wick_target(terms):
    """The model symbol whose W[a] is the real polynomial sum c x^j xi^k."""
    return weyl_wick_inverse(poly({e: gr(Fraction(c)) for e, c in terms.items()}))


def _times(p, q):
    out = {}
    for (j1, k1), c1 in p.items():
        for (j2, k2), c2 in q.items():
            out[(j1 + j2, k1 + k2)] = out.get((j1 + j2, k1 + k2), 0) + Fraction(c1) * c2
    return out


_RADIAL = {(2, 0): 1, (0, 2): 1}                       # x^2 + xi^2
_DIAGONAL_ZERO = _times({(2, 0): 1, (1, 1): -2, (0, 2): 1}, _RADIAL)   # (x - xi)^2 (x^2 + xi^2)
# ((x - 3/7 xi)^2 - xi^2/10^6) (x^2 + xi^2)^2 + 1000: the leading form dips
# below zero in a thin cone, where the grid samples still stay above 744
_THIN_CONE = _times({(2, 0): 1, (1, 1): Fraction(-6, 7), (0, 2): Fraction(9, 49) - Fraction(1, 10**6)},
                    _times(_RADIAL, _RADIAL))
_THIN_CONE[(0, 0)] = 1000

WICK_TARGETS = [
    # (W[a], the kind or NotApplicable reason injectivity_wick gives)
    ({(2, 0): 1, (0, 2): 1, (0, 0): 1}, "InjWickPositive"),
    ({(4, 0): 1, (0, 4): 2, (2, 2): 1, (1, 1): -3, (0, 0): 5}, "InjWickPositive"),
    ({(6, 0): 1, (0, 6): 1, (3, 3): Fraction(1, 2), (2, 1): 7, (1, 0): -4, (0, 0): 60},
     "InjWickPositive"),
    # the leading form vanishes on the diagonal, where the far re-check decides
    ({**_DIAGONAL_ZERO, **{(2, 0): 2, (1, 1): -2, (0, 2): 2, (0, 0): 1}}, "InjWickPositive"),
    ({(2, 0): 1, (0, 2): 1, (0, 0): -1}, "sampled non-positive"),
    ({(3, 0): 1, (0, 2): 1, (0, 0): 5}, "sampled non-positive"),
    ({(5, 0): 1, (0, 4): 3, (2, 2): -1}, "sampled non-positive"),
    (_THIN_CONE, "leading form"),
    ({**_DIAGONAL_ZERO, **{(2, 0): -1, (1, 1): -2, (0, 2): -1, (0, 0): 2000}}, "lower-order terms"),
    ({(2, 0): 1, (0, 0): 1}, "InjWickPositive"),          # one variable
    ({(2, 0): 1, (0, 0): -1}, "sampled non-positive"),
    ({(0, 4): 1, (0, 0): -3}, "sampled non-positive"),
    # (x - 20)^2 + xi^2 - 1: the one minimum is in the last row block, x = 20
    ({(2, 0): 1, (1, 0): -40, (0, 2): 1, (0, 0): 399}, "sampled non-positive"),
    # (x^2 - 4)^2 + xi^2 - 1: the minimum ties at x = -2 and x = 2, two blocks apart
    ({(4, 0): 1, (2, 0): -8, (0, 2): 1, (0, 0): 15}, "sampled non-positive"),
]


@pytest.mark.parametrize("terms,outcome", WICK_TARGETS)
def test_wick_axis_line_sampling_matches_meshgrid_oracle(terms, outcome):
    a = _wick_target(terms)
    cert = injectivity_wick(a)
    got = cert.payload["reason"] if cert.kind == "NotApplicable" else cert.kind
    assert got.startswith(outcome)
    assert json.dumps(cert.to_json()) == json.dumps(meshgrid_injectivity_wick(a).to_json())


def test_wick_one_variable_witness_is_the_first_grid_minimum():
    # x^2 - 1 is smallest on the whole column x = 0; the first grid point of
    # that column in row-major order is xi = -WICK_RADIUS
    cert = injectivity_wick(_wick_target({(2, 0): 1, (0, 0): -1}))
    assert cert.payload["witness"] == {"x": 0.0, "xi": -WICK_RADIUS, "value": -1.0}
    cert = injectivity_wick(_wick_target({(0, 4): 1, (0, 0): -3}))
    assert cert.payload["witness"] == {"x": -WICK_RADIUS, "xi": 0.0, "value": -3.0}


@pytest.mark.parametrize("terms,outcome", WICK_TARGETS)
def test_positivity_sampling_matches_meshgrid_oracle_on_wick_targets(terms, outcome):
    target = poly({e: gr(Fraction(c)) for e, c in terms.items()})

    def run(check):
        try:
            return check(target)
        except PositivityError as exc:
            return exc.witness, exc.value, str(exc)

    assert run(check_positivity) == run(meshgrid_check_positivity)


def test_wick_witness_is_the_first_minimum_across_row_blocks():
    line = np.linspace(-WICK_RADIUS, WICK_RADIUS, WICK_COUNT)
    first, second = (int(np.flatnonzero(line == x)[0]) for x in (-2.0, 2.0))
    assert first // GRID_BLOCK_ROWS < second // GRID_BLOCK_ROWS
    last, tie = (_wick_target(terms) for terms, _ in WICK_TARGETS[-2:])
    cert = injectivity_wick(last)
    assert cert.payload["witness"] == {"x": WICK_RADIUS, "xi": 0.0, "value": -1.0}
    # a later block's equal minimum does not replace the first one
    cert = injectivity_wick(tie)
    assert cert.payload["witness"] == {"x": -2.0, "xi": 0.0, "value": -1.0}


def test_wick_grid_stays_within_its_plane_budget():
    # the grid is sampled a block of rows at a time, about a tenth of it,
    # plus one term in flight; the whole grid took about 1.1 planes
    spec, _ = parse_spec(Path(__file__).with_name("golden").joinpath(
        "specs", "wick6_p1o3.json").read_text())
    a = spec.a_symbol()
    plane = 16 * WICK_COUNT ** 2
    tracemalloc.start()
    try:
        cert = injectivity_wick(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.kind == "InjWickPositive"
    assert peak < 0.5 * plane


# 10^300 (x^10 - x^9 + D^10) at p = 1/2: W[a] overflows to inf and NaN on
# most of the grid, and its finite samples include negative ones
OVERFLOW_SPEC = {"p": "1/2", "coeffs": [{"j": 10, "k": 0, "re": "1" + "0" * 300},
                                        {"j": 9, "k": 0, "re": "-1" + "0" * 300},
                                        {"j": 0, "k": 10, "re": "1" + "0" * 300}]}


def test_wick_grid_beyond_the_float_range_is_not_applicable():
    report = certify_spec(parse_spec(json.dumps(OVERFLOW_SPEC))[0])
    assert "InjWickPositive" not in [c.kind for c in report.verdict.chain]
    (attempt,) = [a for a in report.attempts if a["method"] == "wick_positivity"]
    assert (attempt["outcome"], attempt["detail"]) == (
        "not_applicable", "sampled symbol leaves the float range")
    assert report.exit_code == EXIT_UNKNOWN
    results = verify_report(json.loads(json.dumps(report.to_json())))
    assert all(result.ok for _, result in results), results


def test_falsifier_beyond_the_float_range_is_not_applicable():
    # the outer circles overflow to inf and NaN, which are no witness of a zero
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        report = certify_spec(parse_spec(json.dumps(OVERFLOW_SPEC))[0])
        with pytest.raises(NonFiniteSampleError, match="^sampled symbol leaves the float range$"):
            hypo_falsify(report.symbols["a"])
    (attempt,) = [a for a in report.attempts if a["method"] == "falsifier"]
    assert (attempt["outcome"], attempt["detail"]) == (
        "not_applicable", "sampled symbol leaves the float range")
    assert report.verdict.chain == [] and report.exit_code == EXIT_UNKNOWN
    results = verify_report(json.loads(json.dumps(report.to_json())))
    assert all(result.ok for _, result in results), results


# ---------------------------------------------------------------------------
# falsifier
# ---------------------------------------------------------------------------


def test_falsifier_passes_definite_symbols():
    result = hypo_falsify(EQ44_A)
    assert not result.falsified
    cert = unfalsified_certificate(EQ44_A, result)
    assert cert.kind == "HypoUnfalsified" and cert.grade == "evidence"
    assert verify_certificate(cert).ok


def test_falsifier_catches_vanishing_directions():
    result = hypo_falsify(poly({(1, 1): GR_ONE}))   # x*xi vanishes on the axes
    assert result.falsified
    assert result.witness["reason"].startswith("symbol vanishes")


def test_falsifier_catches_real_first_order():
    # xi + 2x vanishes along a line through the origin
    result = hypo_falsify(poly({(0, 1): GR_ONE, (1, 0): gr(2)}))
    assert result.falsified


def test_falsifier_input_validation():
    with pytest.raises(ValueError):
        hypo_falsify(poly({}))
    with pytest.raises(ValueError):
        unfalsified_certificate(poly({(1, 1): GR_ONE}), hypo_falsify(poly({(1, 1): GR_ONE})))


def test_falsifier_never_contradicts_exact_certified_symbols():
    rng = random.Random(7)
    tried = 0
    while tried < 60:
        a2 = Fraction(rng.randint(1, 5))
        c0 = Fraction(rng.randint(1, 5))
        b1 = Fraction(rng.randint(-2, 2))
        sym = poly({(2, 0): gr(a2), (1, 1): gr(2 * b1), (0, 2): gr(c0),
                    (0, 0): gr(rng.randint(-3, 3))})
        if hypo_certify_quadratic(sym) is None:
            continue
        if isinstance(hypo_certify_quadratic(sym), Certificate) and \
                hypo_certify_quadratic(sym).kind != "HypoQuadraticForm":
            continue
        assert not hypo_falsify(sym).falsified, sym
        tried += 1


def test_falsifier_matches_separate_planes_oracle_bit_for_bit(monkeypatch):
    rng = random.Random(808)
    symbols = [EQ44_A, HARMONIC, QUARTIC, SEXTIC, FIRST_PLUS, FIRST_MINUS, poly({(1, 1): GR_ONE})]
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 7)):
            j = rng.randint(0, 6)
            terms[(j, rng.randint(0, 6 - j))] = gr(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                                                   Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                                   if rng.random() < 0.5 else 0)
        if any(not c.is_zero() for c in terms.values()):
            symbols.append(poly(terms))
    # the model symbols of every golden spec, and of seeded dense specs of
    # order 2 to 10 (up to 66 terms) as the order-sweep benchmark draws them
    symbols += [parse_spec(path.read_text())[0].a_symbol()
                for path in sorted((GOLDEN / "specs").glob("*.json"))
                if path.name != "positive_target.json"]
    for order in (2, 4, 6, 8, 10):
        coeffs = [{"j": j, "k": k, "re": f"{rng.choice((-1, 1)) * rng.randint(16, 31)}/{1 + (j + 2 * k) % 4}",
                   "im": f"{rng.choice((-1, 1)) * rng.randint(16, 31)}/{1 + (2 * j + k) % 4}"}
                  for j in range(order + 1) for k in range(order + 1 - j)]
        symbols.append(parse_spec({"p": "3/7", "coeffs": coeffs})[0].a_symbol())
    reasons = set()
    # the falsifier always samples DEFAULT_RADII and DEFAULT_SAMPLES; a second,
    # coarser sampling is set through those module constants
    for radii, samples in ((DEFAULT_RADII, DEFAULT_SAMPLES), ((2.0, 5.0, 11.0), 97)):
        monkeypatch.setattr(certify_module, "DEFAULT_RADII", radii)
        monkeypatch.setattr(certify_module, "DEFAULT_SAMPLES", samples)
        for sym in symbols:
            got = hypo_falsify(sym)
            # repr spells every float out, so equal reprs are equal bits
            assert repr(got) == repr(separate_planes_hypo_falsify(sym, radii, samples)), sym
            reasons.add(got.witness["reason"] if got.witness else None)
    assert reasons == {None, "symbol vanishes on the outermost circle",
                       "gradient-to-symbol ratio grows with the radius"}


# ---------------------------------------------------------------------------
# verification catches tampering
# ---------------------------------------------------------------------------


def tampered(cert: Certificate, **changes) -> Certificate:
    obj = cert.to_json()
    obj["payload"] = {**obj["payload"], **changes}
    return Certificate.from_json(obj)


def test_verify_rejects_tampered_quadratic_form():
    cert = hypo_certify_quadratic(EQ44_A)
    bad = tampered(cert, det="-1")
    assert not verify_certificate(bad).ok


def test_verify_rejects_tampered_margin():
    cert = injectivity_quadratic(extract_quadratic_coeffs(EQ44_A))
    bad = tampered(cert, margin="1000000")
    assert not verify_certificate(bad).ok


def test_verify_rejects_wrong_subject_symbol():
    cert = hypo_certify_quadratic(EQ44_A)
    res = verify_certificate(cert, symbol=HARMONIC)
    assert not res.ok
    assert "does not match" in res.reason


def test_verify_rejects_forged_kernel_witness():
    wit = first_order_certify(gr(0, -1), 1)
    obj = wit.to_json()
    obj["subject"] = {**obj["subject"], "alpha": GR_I.to_json()}   # claims the growing case decays
    assert not verify_certificate(Certificate.from_json(obj)).ok


def test_verify_all_smoke_fixture_kinds():
    certs = [
        hypo_certify_quadratic(EQ44_A),
        hypo_certify_newton(recognize_newton_family(QUARTIC)),
        hypo_certify_first_order(FIRST_PLUS),
        injectivity_quadratic(extract_quadratic_coeffs(EQ44_A)),
        injectivity_sos(recognize_newton_family(SEXTIC)),
        injectivity_wick(HARMONIC + poly({(0, 0): gr(2)})),
        first_order_certify(GR_I, 1),
        first_order_certify(gr(0, -1), 1),
        unfalsified_certificate(SEXTIC, hypo_falsify(SEXTIC)),
    ]
    for cert in certs:
        res = verify_certificate(cert)
        assert res.ok, (cert.kind, res.reason)


def test_verify_rejects_unfalsified_certificate_at_weak_sampling():
    sym = poly({(2, 0): GR_ONE, (0, 2): gr(-3), (0, 0): gr(100)})   # x^2 - 3 xi^2 + 100
    assert hypo_falsify(sym).falsified
    # sampling two small circles at 8 points each finds nothing
    weak = separate_planes_hypo_falsify(sym, (1.0, 1.5), 8)
    assert not weak.falsified
    # the certificate records the default sampling, so re-sampling finds the
    # witness; recording the weak sampling is refused before any re-sampling
    cert = unfalsified_certificate(sym, weak)
    res = verify_certificate(cert)
    assert not res.ok
    assert "witness" in res.reason
    res = verify_certificate(tampered(cert, radii=[1.0, 1.5], samples_per_circle=8))
    assert not res.ok
    assert "sampling differs" in res.reason
    # the default sampling of a genuinely unfalsified symbol still verifies,
    # and moving either knob off the default fails
    good = unfalsified_certificate(SEXTIC, hypo_falsify(SEXTIC))
    assert verify_certificate(good).ok
    assert not verify_certificate(tampered(good, radii=list(DEFAULT_RADII[:-1]))).ok
    assert not verify_certificate(tampered(good, samples_per_circle=2 * DEFAULT_SAMPLES)).ok


def _with_first_coefficient(cert: Certificate, text: str) -> Certificate:
    obj = json.loads(json.dumps(cert.to_json()))
    obj["subject"]["symbol"]["terms"][0]["re"] = text
    return Certificate.from_json(obj)


def test_verify_labels_an_unsampleable_subject_apart_from_a_malformed_one():
    for good in (unfalsified_certificate(SEXTIC, hypo_falsify(SEXTIC)),
                 injectivity_wick(HARMONIC + poly({(0, 0): gr(2)}))):
        assert verify_certificate(good).ok
        res = verify_certificate(_with_first_coefficient(good, "1" + "0" * 310))
        assert not res.ok
        assert res.reason.startswith("cannot re-sample the subject symbol: ")
        assert res.reason.endswith("term: coefficient has 311 digits, beyond the float range")
        res = verify_certificate(_with_first_coefficient(good, "1.5"))
        assert not res.ok
        assert res.reason.startswith("malformed certificate: ")


def test_verify_labels_a_refused_wick_expansion_as_malformed():
    # (x^2 + xi^2 + 1) / d with pairwise coprime d of 1500 bits: each
    # rational is within the per-rational limit, their lcm beyond the Wick
    # expansion's 4100 bits, so weyl_wick refuses the subject before any
    # sample is taken
    rng = random.Random(26)
    dens = []
    while len(dens) < 3:
        d = rng.getrandbits(1500) | 1 << 1499 | 1
        if all(gcd(d, e) == 1 for e in dens):
            dens.append(d)
    subject = poly({e: gr(Fraction(1, d)) for e, d in zip([(2, 0), (0, 2), (0, 0)], dens)})
    good = injectivity_wick(HARMONIC + poly({(0, 0): gr(2)}))
    obj = json.loads(json.dumps(good.to_json()))
    obj["subject"]["symbol"] = subject.to_json()
    forged = Certificate.from_json(obj)
    reason = ("malformed certificate: common denominator of the symbol's coefficients exceeds the "
              "limit of 4100 bits (4096 spec bits plus 4 for degree 2)")
    assert verify_certificate(forged) == VerifyResult(False, reason)
    assert fieldwise_verify_certificate(forged) == VerifyResult(False, reason)


def test_verify_cannot_re_sample_a_subject_beyond_the_float_range():
    # 10^300 x^6 stays finite on the circle of radius 16 and overflows on
    # the one of radius 32
    good = unfalsified_certificate(SEXTIC, hypo_falsify(SEXTIC))
    assert good.subject["symbol"]["terms"][0]["exp"] == [6, 0]
    res = verify_certificate(_with_first_coefficient(good, "1" + "0" * 300))
    assert (res.ok, res.reason) == (
        False, "cannot re-sample the subject symbol: sampled symbol leaves the float range")


def test_verify_rejects_wick_certificate_at_other_sampling():
    sym = HARMONIC + poly({(0, 0): gr(2)})
    good = injectivity_wick(sym)
    assert good.kind == "InjWickPositive"
    coarse = tampered(good, radius=5.0, count=41, directions=360)
    res = verify_certificate(coarse)
    assert not res.ok and "sampling differs" in res.reason
    assert (good.payload["radius"], good.payload["count"], good.payload["directions"]) == (
        WICK_RADIUS, WICK_COUNT, WICK_DIRECTIONS)
    assert verify_certificate(good).ok
    for key, value in (("radius", 2 * WICK_RADIUS), ("count", 10**9), ("directions", 10**9)):
        assert not verify_certificate(tampered(good, **{key: value})).ok


# ---------------------------------------------------------------------------
# verification rebuilds each certificate with the certifier of its kind
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_REPORTS = {p.stem.split("_", 1)[1]: json.loads(p.read_text())
                  for p in sorted(GOLDEN.glob("certify_*.out"))}


def _golden_cert(name: str, kind: str) -> dict:
    (raw,) = [c for c in GOLDEN_REPORTS[name]["verdict"]["chain"] if c["kind"] == kind]
    return raw


def _leaves(obj, path: tuple):
    if isinstance(obj, (dict, list)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _leaves(value, path + (key,))
    else:
        yield path, obj


def _forged_leaf(value):
    """A different value of the same JSON type; rationals stay canonical."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1 + abs(value)
    try:
        return str(parse_rational(value) + 1)
    except ValueError:
        return value + " forged"


def _with_leaf(raw: dict, path: tuple, value) -> Certificate:
    obj = json.loads(json.dumps(raw))
    holder = obj
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return Certificate.from_json(obj)


def test_verify_rejects_every_forged_leaf_of_the_golden_certificates():
    # a forged subject may be the true subject of the rebuilt certificate (a
    # relaxed quadratic estimate holds for any larger a2), so subjects are
    # checked against the report's symbol; payload and notes need no symbol
    certs = forged = 0
    for name, report in GOLDEN_REPORTS.items():
        symbol = MultiPoly.from_json(report["symbols"]["a"])
        for raw in report["verdict"]["chain"]:
            certs += 1
            assert verify_certificate(Certificate.from_json(raw), symbol=symbol).ok, (name, raw["kind"])
            for part in ("payload", "subject", "notes"):
                for path, value in _leaves(raw[part], (part,)):
                    forged += 1
                    res = verify_certificate(_with_leaf(raw, path, _forged_leaf(value)),
                                             symbol=symbol if part == "subject" else None)
                    assert not res.ok, (name, raw["kind"], path)
    assert len(GOLDEN_REPORTS) == 13 and certs == 19 and forged >= 800


def _drop_notes(raw: dict) -> Certificate:
    return Certificate.from_json({**raw, "notes": []})


# forgeries the field-wise checks let through, each with the field it forges
NAMED_FORGERIES = [
    ("SEXTIC", "HypoUnfalsified",
     lambda raw: _with_leaf(raw, ("payload", "trend"), [[r, 0.0] for r, _ in raw["payload"]["trend"]]),
     "certificate.payload.trend.0.1"),
    ("SEXTIC", "HypoUnfalsified", _drop_notes, "certificate.notes"),
    ("QUARTIC", "HypoNewtonPolygon",
     lambda raw: _with_leaf(raw, ("payload", "mixed_block"), not raw["payload"]["mixed_block"]),
     "certificate.payload.mixed_block"),
    ("QUARTIC", "InjSOS", lambda raw: _with_leaf(raw, ("payload", "energy_terms", 0, 2), "-5"),
     "certificate.payload.energy_terms.0.2"),
    ("FIRST_MINUS", "NotInjectiveWitness", lambda raw: _with_leaf(raw, ("payload", "im_alpha"), "7"),
     "certificate.payload.im_alpha"),
    ("FIRST_MINUS", "HypoFirstOrder", lambda raw: _with_leaf(raw, ("payload", "scale", "re"), "9"),
     "certificate.payload.scale.re"),
    ("EQ44", "InjQuadraticEstimate", lambda raw: _with_leaf(raw, ("payload", "grid_stages"), [1]),
     "certificate.payload.grid_stages"),
    ("wick6_p1o3", "InjWickPositive",
     lambda raw: _with_leaf(raw, ("payload", "near_zero_directions"), 99),
     "certificate.payload.near_zero_directions"),
]


@pytest.mark.parametrize("name, kind, forge, field", NAMED_FORGERIES,
                         ids=[f"{n}-{f.split('.', 2)[-1]}" for n, _, _, f in NAMED_FORGERIES])
def test_verify_names_the_forged_field(name, kind, forge, field):
    res = verify_certificate(forge(_golden_cert(name, kind)))
    assert not res.ok
    assert res.reason == f"{field} differs from the rebuilt certificate"


def test_verify_rejects_what_its_certifiers_never_emit():
    raw = _golden_cert("EQ44", "InjQuadraticEstimate")
    assert verify_certificate(Certificate.from_json(raw)).ok
    # a non-canonical rational of the same value
    num, den = Fraction(raw["subject"]["quadratic"]["c0"]).as_integer_ratio()
    res = verify_certificate(_with_leaf(raw, ("subject", "quadratic", "c0"), f"{2 * num}/{2 * den}"))
    assert res.reason == "certificate.subject.quadratic.c0 differs from the rebuilt certificate"
    # a split that leaves part of c0 unused
    s0_sq = Fraction(raw["payload"]["s0_sq"])
    res = verify_certificate(_with_leaf(raw, ("payload", "s0_sq"), str(s0_sq / 2)))
    assert res.reason == "certificate.payload.s0_sq differs from the rebuilt certificate"
    # a family certificate without its subject symbol
    for kind in ("HypoNewtonPolygon", "InjSOS"):
        obj = json.loads(json.dumps(_golden_cert("QUARTIC", kind)))
        del obj["subject"]["symbol"]
        res = verify_certificate(Certificate.from_json(obj))
        assert res.reason == "certificate.subject.symbol differs from the rebuilt certificate"


def test_verify_labels_a_field_its_certifier_cannot_take_malformed():
    raw = _golden_cert("FIRST_PLUS", "InjKernelEscape")
    res = verify_certificate(_with_leaf(raw, ("subject", "alpha"), "i"))
    assert res.reason == "malformed certificate: 'str' object has no attribute 'get'"
    res = verify_certificate(_with_leaf(raw, ("subject", "m"), 0))
    assert res.reason == "malformed certificate: m must be a positive integer"


def test_sampled_golden_links_rebuild_bit_for_bit_from_the_spec(monkeypatch):
    # verify_report re-samples the spec's symbol, which the report stores in
    # (j, k) order, the order certify samples it in whatever the file's order
    monkeypatch.setattr(certify_module, "_FLOAT_REL_TOL", 0.0)
    generated = json.loads((GOLDEN / "generate_positive.out").read_text())["report"]
    checked = 0
    for name, doc in [*GOLDEN_REPORTS.items(), ("generate_positive", generated)]:
        for kind, result in verify_report(doc):
            if kind in ("HypoUnfalsified", "InjWickPositive"):
                assert result.ok, (name, kind, result.reason)
                checked += 1
    assert checked == 7


@pytest.mark.parametrize("name", ["wick6_p1o3", "dense4_p1o2", "generated"])
def test_report_does_not_depend_on_the_order_of_the_coefficients(name, tmp_path):
    if name == "generated":
        target = MultiPoly.from_json(json.loads((GOLDEN / "specs" / "positive_target.json").read_text()))
        spec = generate_from_positive_symbol(target, Fraction(2, 5)).spec.to_json()
    else:
        spec = json.loads((GOLDEN / "specs" / f"{name}.json").read_text())
    coeffs = spec["coeffs"]
    written = set()
    for i, order in enumerate((coeffs, coeffs[::-1], random.Random(5).sample(coeffs, len(coeffs)))):
        report = certify_spec(parse_spec({**spec, "coeffs": order})[0])
        emit_report(report, tmp_path / f"{i}.json", timestamp="PINNED")
        written.add((tmp_path / f"{i}.json").read_bytes())
    assert len(written) == 1


def test_verify_matches_subjectless_kinds_against_the_symbol():
    symbol = {name: MultiPoly.from_json(GOLDEN_REPORTS[name]["symbols"]["a"])
              for name in ("EQ44", "QUARTIC", "FIRST_PLUS", "FIRST_MINUS")}
    for owner, kind, other in (("EQ44", "InjQuadraticEstimate", "QUARTIC"),
                               ("FIRST_MINUS", "NotInjectiveWitness", "FIRST_PLUS"),
                               ("FIRST_PLUS", "InjKernelEscape", "EQ44")):
        cert = Certificate.from_json(_golden_cert(owner, kind))
        assert verify_certificate(cert, symbol=symbol[owner]).ok
        res = verify_certificate(cert, symbol=symbol[other])
        assert not res.ok
        assert res.reason == "certificate subject does not match the supplied symbol"
    # both sides of the adjoint analysis name the operator's alpha
    adjoint = GOLDEN_REPORTS["FIRST_MINUS"]["adjoint"]
    for side in ("operator", "adjoint"):
        cert = Certificate.from_json(adjoint[side])
        assert verify_certificate(cert, symbol=symbol["FIRST_MINUS"]).ok
        assert not verify_certificate(cert, symbol=symbol["FIRST_PLUS"]).ok


def test_verify_is_no_looser_than_the_fieldwise_oracle():
    # the certificates of acceptance criterion 9: every one the pinned
    # fixtures and both generators emit, and the quadratic certificates of its
    # 100 random forms
    emitted = []
    for name in ("EQ44", "C11", "QUARTIC", "SEXTIC", "FIRST_PLUS", "FIRST_MINUS"):
        report = certify_spec(parse_spec((GOLDEN / "specs" / f"{name}.json").read_text())[0])
        emitted.extend(report.verdict.chain)
        if report.adjoint is not None:
            emitted += [Certificate.from_json(report.adjoint[side]) for side in ("operator", "adjoint")]
    target = poly({(2, 0): GR_ONE, (0, 2): GR_ONE, (0, 0): gr(2)})
    emitted.extend(generate_from_positive_symbol(target, Fraction(1, 2)).report.verdict.chain)
    emitted.extend(generate_quasi_homogeneous(1, -1, 1, 2).report.verdict.chain)
    rng = random.Random(909)
    for _ in range(100):
        qc = QuadraticCoeffs(*(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4)))
                               for _ in range(6)))
        cert = injectivity_quadratic(qc)
        if cert is not None and cert.kind == "InjQuadraticEstimate":
            emitted.append(cert)
    assert len(emitted) >= 14 + 2
    for cert in emitted:
        if verify_certificate(cert).ok:
            assert fieldwise_verify_certificate(cert).ok, cert.to_json()
