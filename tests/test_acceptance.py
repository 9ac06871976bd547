"""Acceptance suite: nine numbered criteria, each with a runtime budget.

Run ``pytest tests/test_acceptance.py -v -s`` to see one ``[criterion k]``
PASS/FAIL line per criterion as it completes.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from wigreg.certify import Certificate, injectivity_quadratic, QuadraticCoeffs, verify_certificate
from wigreg.exact import GR_ONE, GaussianRational, MultiPoly
from wigreg.hermite import Hermite
from wigreg.pipeline import certify, generate_from_positive_symbol, generate_quasi_homogeneous, parse_spec
from wigreg.spectral import DEFAULT_GRID, intertwine_residual, wick_energy_compare
from wigreg.symbols import (
    MODEL_VARS,
    LinearChange,
    OperatorSpec,
    build_b_symbol,
    t_conjugate,
    verify_degeneracy,
    weyl_wick,
    weyl_wick_inverse,
)
from wigreg.wigner import wig_forward, wig_inverse

from oracles import composed_b_symbol, quadratic_split_exists


@contextmanager
def criterion(k: int, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {k}] FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        print(f"[criterion {k}] FAIL (took {elapsed:.2f} s, budget {budget:g} s)", flush=True)
        raise AssertionError(f"criterion {k} exceeded its {budget:g} s budget: {elapsed:.2f} s")
    print(f"[criterion {k}] PASS ({elapsed:.2f} s, budget {budget:g} s)", flush=True)


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


EQ44_JSON = {"p": "1/2", "coeffs": [{"j": 2, "k": 0, "re": "4"},
                                    {"j": 0, "k": 2, "re": "1/4"}]}
C11_JSON = {"p": "1/2", "coeffs": [{"j": 1, "k": 1, "re": "1"}]}
QUARTIC_JSON = {"p": "1/2", "coeffs": [
    {"j": 4, "k": 0, "re": "1"}, {"j": 2, "k": 2, "re": "2"},
    {"j": 1, "k": 1, "im": "-4"}, {"j": 0, "k": 4, "re": "1"},
]}
SEXTIC_JSON = {"p": "1/2", "coeffs": [
    {"j": 6, "k": 0, "re": "1"}, {"j": 2, "k": 2, "re": "2"},
    {"j": 1, "k": 1, "im": "-4"}, {"j": 0, "k": 6, "re": "1"},
]}
FIRST_PLUS_JSON = {"p": "1/2", "coeffs": [{"j": 0, "k": 1, "re": "1"},
                                          {"j": 1, "k": 0, "im": "1"}]}
FIRST_MINUS_JSON = {"p": "1/2", "coeffs": [{"j": 0, "k": 1, "re": "1"},
                                           {"j": 1, "k": 0, "im": "-1"}]}


def random_scalar(rng, span=9):
    return GaussianRational(
        Fraction(rng.randint(-span, span), rng.choice((1, 2, 3, 4))),
        Fraction(rng.randint(-span, span), rng.choice((1, 2, 3, 4))),
    )


def test_criterion_1_exact_transform_inversion():
    rng = random.Random(101)
    with criterion(1, 5.0):
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                j = rng.randint(0, 8)
                k = rng.randint(0, 8 - j)
                terms[(j, k)] = random_scalar(rng)
            a = MultiPoly(MODEL_VARS, terms)
            assert weyl_wick_inverse(weyl_wick(a)) == a
            assert weyl_wick(weyl_wick_inverse(a)) == a


def test_criterion_2_exact_degeneracy_identity():
    rng = random.Random(202)
    with criterion(2, 10.0):
        for _ in range(200):
            coeffs = {}
            for _ in range(rng.randint(1, 4)):
                j = rng.randint(0, 4)
                k = rng.randint(0, 4 - j)
                coeffs[(j, k)] = random_scalar(rng, span=6)
            if all(c.is_zero() for c in coeffs.values()):
                coeffs[(1, 1)] = GR_ONE
            p = Fraction(rng.randint(-8, 8), 4)        # rational p in [-2, 2]
            spec = OperatorSpec(coeffs, p)
            check = verify_degeneracy(spec)
            assert check.holds and check.residual.is_zero(), spec
            assert build_b_symbol(spec) == composed_b_symbol(spec), spec


def test_criterion_3_twisted_laplacian_chain():
    with criterion(3, 1.0):
        spec, _ = parse_spec(EQ44_JSON)
        conj = t_conjugate(build_b_symbol(spec),
                           LinearChange(((Fraction(1, 4), 0), (0, 1))))
        x = MultiPoly.variable("x").promote(("x", "y", "xi", "eta"))
        y = MultiPoly.variable("y").promote(("x", "y", "xi", "eta"))
        xi = MultiPoly.variable("xi").promote(("x", "y", "xi", "eta"))
        eta = MultiPoly.variable("eta").promote(("x", "y", "xi", "eta"))
        half = Fraction(1, 2)
        expected = (eta - x.scale(half)) ** 2 + (xi + y.scale(half)) ** 2
        assert conj == expected
        report = certify(spec)
        assert report.verdict.status == "Regular"
        assert report.verdict.grade == "exact"


def test_criterion_4_intertwining_sweep():
    specs = [parse_spec(s)[0] for s in (EQ44_JSON, C11_JSON, QUARTIC_JSON,
                                        FIRST_PLUS_JSON)]
    windows = [(Hermite(0), Hermite(0)), (Hermite(0), Hermite(1)),
               (Hermite(2), Hermite(1))]
    with criterion(4, 60.0):
        worst = 0.0
        for spec in specs:
            for u, v in windows:
                for p in (Fraction(0), Fraction(1, 2), Fraction(1)):
                    residuals = intertwine_residual(spec, u, v, p,
                                                    grid=DEFAULT_GRID)
                    value = residuals[0][1]
                    worst = max(worst, value)
                    assert value <= 1e-6, (spec.coeffs, u.n, v.n, p, value)
        print(f"  worst intertwining residual: {worst:.3e}")


def test_criterion_5_closed_form_transforms():
    with criterion(5, 5.0):
        h0 = Hermite(0)
        gx, gy = np.meshgrid(DEFAULT_GRID.x_nodes,
                             DEFAULT_GRID.dual_nodes, indexing="ij")
        half = wig_forward(h0, h0, 0.5, DEFAULT_GRID)
        expected = np.sqrt(2.0 / np.pi) * np.exp(-gx ** 2 - gy ** 2)
        err_half = float(np.max(np.abs(half.samples - expected)))
        assert err_half <= 1e-8, err_half
        one = wig_forward(h0, h0, 1.0, DEFAULT_GRID)
        expected = h0(gx) * h0(gy) * np.exp(-1j * gx * gy)
        err_one = float(np.max(np.abs(one.samples - expected)))
        assert err_one <= 1e-8, err_one
        print(f"  closed-form errors: p=1/2 {err_half:.3e}, p=1 {err_one:.3e}")


def test_criterion_6_round_trip():
    h0, h1 = Hermite(0), Hermite(1)
    gs, gt = np.meshgrid(DEFAULT_GRID.x_nodes, DEFAULT_GRID.x_nodes,
                         indexing="ij")
    target = np.where(np.abs(gs - gt) < DEFAULT_GRID.L, h0(gs) * h1(gt), 0.0)
    with criterion(6, 5.0):
        for p, tol in ((0.5, 1e-6), (1.0, 1e-8)):
            back = wig_inverse(wig_forward(h0, h1, p, DEFAULT_GRID), p)
            err = float(np.max(np.abs(back.samples - target)))
            assert err <= tol, (p, err)


def test_criterion_7_coherent_energy_identity():
    h0 = Hermite(0)
    cases = [
        (MultiPoly(MODEL_VARS, {(0, 0): GR_ONE}), 1.0),
        (MultiPoly(MODEL_VARS, {(2, 0): GR_ONE}), 0.5),
        (MultiPoly(MODEL_VARS, {(2, 0): GR_ONE, (0, 2): GR_ONE}), 1.0),
    ]
    with criterion(7, 10.0):
        for a, expected in cases:
            result = wick_energy_compare(a, h0)
            assert abs(result.direct - expected) <= 1e-10, (a, result)
            assert result.gap <= 1e-4, (a, result)


def test_criterion_8_verdict_fixtures():
    with criterion(8, 1.0):
        report = certify(parse_spec(FIRST_MINUS_JSON)[0])
        assert report.verdict.status == "NotRegular"
        assert report.verdict.witness == "exp((-1/2)*x^2)"

        report = certify(parse_spec(FIRST_PLUS_JSON)[0])
        assert report.verdict.status == "Regular"
        assert report.adjoint is not None
        assert report.adjoint["adjoint_kernel_nontrivial"]
        assert "index -1" in report.adjoint["remark"]

        report = certify(parse_spec(SEXTIC_JSON)[0])
        assert report.verdict.status == "Unknown"


def test_criterion_9_certificate_soundness():
    rng = random.Random(909)
    with criterion(9, 30.0):
        # every certificate emitted across the pinned fixtures re-verifies
        emitted = []
        for spec_json in (EQ44_JSON, C11_JSON, QUARTIC_JSON, SEXTIC_JSON,
                          FIRST_PLUS_JSON, FIRST_MINUS_JSON):
            report = certify(parse_spec(spec_json)[0])
            emitted.extend(report.verdict.chain)
            if report.adjoint is not None:
                emitted.append(Certificate.from_json(report.adjoint["operator"]))
                emitted.append(Certificate.from_json(report.adjoint["adjoint"]))
        target = MultiPoly(MODEL_VARS, {(2, 0): GR_ONE, (0, 2): GR_ONE,
                                        (0, 0): gr(2)})
        emitted.extend(generate_from_positive_symbol(target, Fraction(1, 2))
                       .report.verdict.chain)
        emitted.extend(generate_quasi_homogeneous(1, -1, 1, 2)
                       .report.verdict.chain)
        assert len(emitted) >= 14
        for cert in emitted:
            result = verify_certificate(cert)
            assert result.ok, (cert.kind, result.reason)

        # the rational split search agrees with the brute-force grid oracle
        agreements = 0
        for _ in range(100):
            qc = QuadraticCoeffs(
                a2=Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))),
                a1=Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))),
                a0=Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))),
                b1=Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))),
                b0=Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))),
                c0=Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))),
            )
            cert = injectivity_quadratic(qc)
            found = cert is not None and cert.kind == "InjQuadraticEstimate"
            assert found == quadratic_split_exists(qc), qc
            if found:
                assert verify_certificate(cert).ok, qc
            agreements += 1
        assert agreements == 100
