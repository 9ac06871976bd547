"""Certificates for hypo-ellipticity and model-operator injectivity.

The regularity question for the planar operator B reduces to two questions
about the one-variable model symbol a(x, xi):

* is a hypo-elliptic (derivative-to-symbol ratios decay at infinity, zeros
  confined to a compact set), and
* is the model operator A injective on Schwartz functions?

Each positive answer is packaged as a Certificate.  The certifiers run from
one table, ``_CHAIN``: exact before evidence, cheap before expensive, and
each stage stops at its first decisive step.  A certificate is valid when
the row that issues its kind, run again on the certificate's subject and on
the choices its payload records (never a search), rebuilds the same
certificate: equal JSON, floats equal to a relative 1e-9.  Exact
certificates rest on closed rational arithmetic; evidence certificates
record deterministic sampling.  A RegularityVerdict combines one
certificate of each kind (or a non-injectivity witness) into Regular /
NotRegular / Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, perm
from typing import Callable, Mapping, NamedTuple, Optional, Union

import numpy as np

from .exact import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    MultiPoly,
    NonFiniteSampleError,
    SamplingError,
    format_rational,
    parse_int,
    parse_rational,
)
from .symbols import MODEL_VARS

EXACT = "exact"
EVIDENCE = "evidence"

# HYPO_KINDS, INJ_KINDS and ALL_KINDS are read off the rows of _CHAIN


@dataclass
class Certificate:
    """A machine-checkable claim with the data needed to re-derive it."""

    kind: str
    grade: str
    payload: dict
    subject: dict
    notes: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        if self.grade not in (EXACT, EVIDENCE, "none"):
            raise ValueError(f"unknown certificate grade {self.grade!r}")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "grade": self.grade,
            "payload": self.payload,
            "subject": self.subject,
            "notes": list(self.notes),
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "Certificate":
        return cls(
            kind=obj["kind"],
            grade=obj["grade"],
            payload=dict(obj.get("payload", {})),
            subject=dict(obj.get("subject", {})),
            notes=list(obj.get("notes", [])),
        )


@dataclass(frozen=True)
class NewtonPolygonData:
    """Exponent polygon of the recognized symbol family (with the origin)."""

    vertices: tuple[tuple[int, int], ...]
    complete: bool


@dataclass(frozen=True)
class NewtonFamilyParams:
    """Weights and exponents of the two-block family

    a = lam*x^(2h) + mu*sigma(M^m D^(2n) M^m) + nu*sigma(D^n M^(2m) D^n)
        + sig*xi^(2k).
    """

    lam: Fraction
    mu: Fraction
    nu: Fraction
    sig: Fraction
    h: int
    k: int
    m: int
    n: int

    def __post_init__(self) -> None:
        for name in ("h", "k", "m", "n"):
            parse_int(getattr(self, name), name, least=1)
        # the family symbol's degree, held to MAX_ORDER as a spec's order is
        parse_int(2 * max(self.h, self.k, self.m + self.n), "family order")

    def to_json(self) -> dict:
        return {
            "lam": format_rational(self.lam),
            "mu": format_rational(self.mu),
            "nu": format_rational(self.nu),
            "sig": format_rational(self.sig),
            "h": self.h, "k": self.k, "m": self.m, "n": self.n,
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "NewtonFamilyParams":
        return cls(**{name: parse_rational(obj[name], name) for name in ("lam", "mu", "nu", "sig")},
                   **{name: obj[name] for name in "hkmn"})


@dataclass
class RegularityVerdict:
    status: str                      # Regular | NotRegular | Unknown
    chain: list[Certificate]
    witness: Optional[str] = None
    grade: str = EXACT

    def __post_init__(self) -> None:
        kinds = [c.kind for c in self.chain]
        if self.status == "Regular":
            if not any(k in HYPO_KINDS for k in kinds) or not any(k in INJ_KINDS for k in kinds):
                raise ValueError("Regular verdict needs a hypo-ellipticity and an injectivity certificate")
        elif self.status == "NotRegular":
            if not any(k in HYPO_KINDS for k in kinds) or "NotInjectiveWitness" not in kinds:
                raise ValueError("NotRegular verdict needs a hypo-ellipticity certificate and a kernel witness")
        elif self.status != "Unknown":
            raise ValueError(f"unknown verdict status {self.status!r}")

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "grade": self.grade,
            "witness": self.witness,
            "chain": [c.to_json() for c in self.chain],
        }


# ---------------------------------------------------------------------------
# hypo-ellipticity falsifier (heuristic, evidence only)
# ---------------------------------------------------------------------------

DEFAULT_RADII = (4.0, 8.0, 16.0, 32.0, 64.0)
DEFAULT_SAMPLES = 2048
_ZERO_REL_TOL = 1e-12


@dataclass(frozen=True)
class FalsifyResult:
    falsified: bool
    witness: Optional[dict]
    trend: tuple[tuple[float, float], ...]   # (radius, max gradient ratio)


def _model_symbol(a: MultiPoly) -> MultiPoly:
    if not set(a.vars) <= set(MODEL_VARS):
        raise ValueError(f"expected a one-variable model symbol in {MODEL_VARS}, got {a.vars}")
    return a.promote(MODEL_VARS)


def _refine_circle_zero(sym: MultiPoly, radius: float, theta0: float,
                        spread: float) -> tuple[float, float]:
    """Minimize |sym| on the circle arc theta0 +- spread by nested grids."""
    lo, hi = theta0 - spread, theta0 + spread
    for _ in range(10):
        grid = np.linspace(lo, hi, 65)
        vals = np.abs(sym.eval_numpy({"x": radius * np.cos(grid), "xi": radius * np.sin(grid)}))
        best = float(grid[int(np.argmin(vals))])
        width = (hi - lo) / 16.0
        lo, hi = best - width, best + width
    return best, float(np.abs(sym.eval_numpy({"x": radius * np.cos(best),
                                              "xi": radius * np.sin(best)})))


def hypo_falsify(a: MultiPoly) -> FalsifyResult:
    """Sample DEFAULT_SAMPLES points on each circle of DEFAULT_RADII for zeros
    at large radius or non-decaying gradient ratios.

    Falsified when the symbol vanishes on the outermost circle (at a sample, or
    after refining a sample whose Newton step |a|/|grad a| fits inside the
    sample spacing), or when the per-circle maximum of (|d_x a| + |d_xi a|)/|a|
    fails to decrease (last > first and last > 1e-1).  A pass is evidence,
    never a proof.

    All circles are sampled at once, a row per radius, so the symbol and its
    two derivatives are each evaluated once, on one shared power cache; every
    row holds the floats a separate evaluation of its circle would give, and
    the derivatives' floats come from the symbol's exact terms.  A sample
    beyond the float range raises eval_numpy's NonFiniteSampleError.
    """
    sym = _model_symbol(a)
    if sym.is_zero():
        raise ValueError("zero symbol cannot be tested for hypo-ellipticity")

    theta = 2.0 * np.pi * np.arange(DEFAULT_SAMPLES) / DEFAULT_SAMPLES
    radii = np.array(DEFAULT_RADII)[:, None]
    xs_all, xis_all = radii * np.cos(theta), radii * np.sin(theta)
    point, planes = {"x": xs_all, "xi": xis_all}, {}
    terms = sym._float_terms(point)
    vals_all = np.abs(sym._sum_terms(point, terms, planes))
    magnitudes = [(abs(c), sum(e)) for e, c in terms]
    grads_all = (np.abs(sym._sum_terms(point, sym._float_terms(point, "x"), planes))
                 + np.abs(sym._sum_terms(point, sym._float_terms(point, "xi"), planes)))

    trend = []
    witness = None
    falsified = False
    for row, radius in enumerate(DEFAULT_RADII):
        xs, xis, vals, grads = xs_all[row], xis_all[row], vals_all[row], grads_all[row]
        scale = sum(size * radius ** degree for size, degree in magnitudes)
        zero_mask = vals <= _ZERO_REL_TOL * max(scale, 1.0)
        if radius == DEFAULT_RADII[-1] and zero_mask.any():
            idx = int(np.argmax(zero_mask))
            witness = {"x": float(xs[idx]), "xi": float(xis[idx]), "abs_value": float(vals[idx]),
                       "reason": "symbol vanishes on the outermost circle"}
            falsified = True
        if radius == DEFAULT_RADII[-1] and not falsified:
            # a zero may hide between samples: flag points whose Newton step
            # along the circle is shorter than the sample spacing, then refine
            spacing = 2.0 * np.pi / DEFAULT_SAMPLES
            candidates = vals <= grads * (radius * spacing)
            if candidates.any():
                idx = int(np.argmin(np.where(candidates, vals, np.inf)))
                best_theta, best_val = _refine_circle_zero(sym, radius, theta[idx], spacing)
                if best_val <= 1e-8 * max(scale, 1.0):
                    witness = {"x": float(radius * np.cos(best_theta)),
                               "xi": float(radius * np.sin(best_theta)),
                               "abs_value": best_val,
                               "reason": "symbol vanishes on the outermost circle"}
                    falsified = True
        live = ~zero_mask
        max_ratio = float(np.max(grads[live] / vals[live])) if live.any() else float("inf")
        trend.append((radius, max_ratio))

    if not falsified:
        first, last = trend[0][1], trend[-1][1]
        if last > first and last > 1e-1:
            # xs, xis, vals and grads still hold the outermost circle
            safe = np.where(vals > 0, vals, np.inf)
            idx = int(np.argmax(grads / safe))
            witness = {"x": float(xs[idx]), "xi": float(xis[idx]), "ratio": float(grads[idx] / vals[idx]),
                       "reason": "gradient-to-symbol ratio grows with the radius"}
            falsified = True

    return FalsifyResult(falsified, witness, tuple(trend))


def unfalsified_certificate(a: MultiPoly, result: FalsifyResult) -> Certificate:
    """Evidence-grade record that the falsifier found nothing at its default
    radii and samples, the only sampling verify_certificate accepts."""
    if result.falsified:
        raise ValueError("cannot certify an unfalsified symbol from a falsified result")
    return Certificate(
        kind="HypoUnfalsified",
        grade=EVIDENCE,
        payload={
            "radii": list(DEFAULT_RADII),
            "samples_per_circle": DEFAULT_SAMPLES,
            "trend": [[r, ratio] for r, ratio in result.trend],
        },
        subject={"symbol": _model_symbol(a).to_json()},
        notes=["heuristic sampling only; not a proof of hypo-ellipticity"],
    )


def _falsify_or_certify(a: MultiPoly) -> Union[FalsifyResult, Certificate]:
    """hypo_falsify(a) when it finds a witness, else the unfalsified certificate."""
    result = hypo_falsify(a)
    return result if result.falsified else unfalsified_certificate(a, result)


# ---------------------------------------------------------------------------
# exact hypo-ellipticity certificates
# ---------------------------------------------------------------------------


def _not_applicable(reason: str, witness: Optional[dict] = None) -> Certificate:
    """A method that does not apply; certify reads only the reason, so no subject."""
    payload = {"reason": reason} if witness is None else {"reason": reason, "witness": witness}
    return Certificate(kind="NotApplicable", grade="none", payload=payload, subject={})


def _quadratic_shape(a: MultiPoly) -> Optional[tuple[QuadraticCoeffs, Fraction]]:
    """Read a = a2 x^2 + 2 b1 x xi + c0 xi^2 + a1 x + 2 b0 xi + a0 + i t as
    (QuadraticCoeffs, t): the one reader of this layout.

    Returns None when a has total degree above 2 or some non-constant
    coefficient is not real.
    """
    sym = _model_symbol(a)
    if sym.total_degree() > 2 or not all(c.is_real() for e, c in sym.terms.items() if e != (0, 0)):
        return None
    real = lambda exp: sym.terms.get(exp, GR_ZERO).re
    qc = QuadraticCoeffs(a2=real((2, 0)), a1=real((1, 0)), a0=real((0, 0)),
                         b1=real((1, 1)) / 2, b0=real((0, 1)) / 2, c0=real((0, 2)))
    return qc, sym.constant_term().im


def hypo_certify_quadratic(a: MultiPoly) -> Optional[Certificate]:
    """Certificate when the leading quadratic form a2 x^2 + 2 b1 x xi + c0 xi^2
    is positive-definite; the linear and constant parts never matter."""
    shape = _quadratic_shape(a)
    if shape is None or a.total_degree() != 2:
        return _not_applicable("needs total degree 2 with real non-constant coefficients")
    a2, b1, c0 = shape[0].a2, shape[0].b1, shape[0].c0
    det = a2 * c0 - b1 * b1
    if a2 > 0 and det > 0:
        return Certificate(
            kind="HypoQuadraticForm",
            grade=EXACT,
            payload={
                "a2": format_rational(a2),
                "b1": format_rational(b1),
                "c0": format_rational(c0),
                "det": format_rational(det),
            },
            subject={"symbol": _model_symbol(a).to_json()},
        )
    return None


_MINUS_I_POWERS = (GR_ONE, -GR_I, -GR_ONE, GR_I)  # (-i)^k for k mod 4


def _mixed_block_terms(m: int, n: int, mu: Fraction, nu: Fraction) -> dict:
    """Terms of mu*sigma(M^m D^(2n) M^m) + nu*sigma(D^n M^(2m) D^n), by Leibniz:

        sum_k (-i)^k (mu C(2n, k) m!/(m-k)! + nu C(n, k) (2m)!/(2m-k)!) x^(2m-k) xi^(2n-k)

    over k = 0..2 min(m, n), in ascending k (zero weights included)."""
    return {(2 * m - k, 2 * n - k): _MINUS_I_POWERS[k % 4]
            * (mu * comb(2 * n, k) * perm(m, k) + nu * comb(n, k) * perm(2 * m, k))
            for k in range(2 * min(m, n) + 1)}


def family_left_symbol(params: NewtonFamilyParams) -> MultiPoly:
    terms = _mixed_block_terms(params.m, params.n, params.mu, params.nu)
    # a certificate's params may put lam or sig on a mixed monomial
    for exp, weight in (((2 * params.h, 0), params.lam), ((0, 2 * params.k), params.sig)):
        terms[exp] = terms.get(exp, GR_ZERO) + weight
    return MultiPoly(MODEL_VARS, terms)


def recognize_newton_family(a: MultiPoly) -> Optional[NewtonFamilyParams]:
    """Match a against the two-block family with m < h and n < k, exactly.

    Both blocks weigh x^(2m) xi^(2n) by 1, so that coefficient of the mixed
    part is mu + nu; at x^(2m-2) xi^(2n-2) the first block's coefficient
    exceeds the second's by n m (n - m), which gives mu.  For m = n the blocks are one
    symbol and the weight is split evenly.  The mixed part these real weights
    give must then be the whole residual."""
    sym = _model_symbol(a)
    if sym.is_zero():
        return None
    dx, dxi = sym.degree_in("x"), sym.degree_in("xi")
    if dx < 2 or dxi < 2 or dx % 2 or dxi % 2:
        return None
    h, k = dx // 2, dxi // 2
    lam_c = sym.coefficient({"x": 2 * h})
    sig_c = sym.coefficient({"xi": 2 * k})
    if not lam_c.is_real() or not sig_c.is_real() or lam_c.is_zero() or sig_c.is_zero():
        return None
    lam, sig = lam_c.re, sig_c.re
    resid = sym - MultiPoly(MODEL_VARS, {(2 * h, 0): lam_c, (0, 2 * k): sig_c})
    if resid.is_zero():
        return NewtonFamilyParams(lam, Fraction(0), Fraction(0), sig, h, k, 1, 1)
    rx, rxi = resid.degree_in("x"), resid.degree_in("xi")
    if rx < 2 or rxi < 2 or rx % 2 or rxi % 2:
        return None
    m, n = rx // 2, rxi // 2
    if not (m < h and n < k):
        return None
    total = resid.coefficient({"x": 2 * m, "xi": 2 * n}).re
    second = resid.coefficient({"x": 2 * m - 2, "xi": 2 * n - 2}).re
    mu = total / 2 if m == n else (second + total * comb(n, 2) * perm(2 * m, 2)) / (n * m * (n - m))
    nu = total - mu
    if MultiPoly(MODEL_VARS, _mixed_block_terms(m, n, mu, nu)) != resid:
        return None
    return NewtonFamilyParams(lam, mu, nu, sig, h, k, m, n)


def _weight_fault(params: NewtonFamilyParams) -> Optional[str]:
    """Why the family weights fail lam, sig > 0 and mu, nu >= 0 (the weights of
    an energy identity), or None when they pass."""
    if params.lam <= 0 or params.sig <= 0:
        return "family weights lam and sig must be positive"
    if params.mu < 0 or params.nu < 0:
        return "mixed-block weights mu and nu must be non-negative"
    return None


def newton_polygon(params: NewtonFamilyParams) -> NewtonPolygonData:
    mixed = params.mu + params.nu > 0
    vertices: list[tuple[int, int]] = [(0, 0), (2 * params.h, 0)]
    if mixed:
        vertices.append((2 * params.m, 2 * params.n))
    vertices.append((0, 2 * params.k))
    complete = params.lam > 0 and params.sig > 0 and (
        not mixed
        or (params.m < params.h and params.n < params.k
            and params.n * params.h + params.m * params.k >= params.h * params.k)
    )
    return NewtonPolygonData(tuple(vertices), complete)


def hypo_certify_newton(params: NewtonFamilyParams) -> Optional[Certificate]:
    """Multi-quasi-elliptic certificate for the two-block family.

    Needs lam, sig > 0 and mu, nu >= 0; a nonzero mixed block additionally
    needs m < h, n < k and n*h + m*k >= h*k so the mixed vertex stays on or
    outside the segment joining the axis vertices.
    """
    fault = _weight_fault(params)
    if fault is not None:
        return _not_applicable(fault)
    polygon = newton_polygon(params)
    mixed = params.mu + params.nu > 0
    if mixed and not polygon.complete:
        return None
    return Certificate(
        kind="HypoNewtonPolygon",
        grade=EXACT,
        payload={
            "params": params.to_json(),
            "vertices": [list(v) for v in polygon.vertices],
            "complete": polygon.complete,
            "mixed_block": mixed,
        },
        subject={"family": params.to_json(), "symbol": family_left_symbol(params).to_json()},
    )


@dataclass(frozen=True)
class FirstOrderShape:
    alpha: GaussianRational
    m: int
    scale: GaussianRational


def recognize_first_order(a: MultiPoly) -> Optional[FirstOrderShape]:
    """Match a = scale * (xi + alpha x^m), m >= 1, exactly two monomials."""
    sym = _model_symbol(a)
    if len(sym.terms) != 2:
        return None
    beta = sym.coefficient({"xi": 1})
    if beta.is_zero():
        return None
    monos = [e for e in sym.terms if e != (0, 1)]
    (mx, mxi), = monos
    if mxi != 0 or mx < 1:
        return None
    gamma = sym.terms[(mx, mxi)]
    return FirstOrderShape(alpha=gamma / beta, m=mx, scale=beta)


def hypo_certify_first_order(a: MultiPoly,
                             shape: Optional[FirstOrderShape] = None) -> Optional[Certificate]:
    """For a = scale*(xi + alpha x^m): hypo-elliptic whenever Im(alpha) != 0,
    because |xi + alpha x^m| >= |Im alpha| |x|^m keeps zeros compact and tames
    derivative ratios.  ``shape`` is recognize_first_order(a) when the caller
    already has it."""
    if shape is None:
        shape = recognize_first_order(a)
    if shape is None or shape.alpha.im == 0:
        return None
    return Certificate(
        kind="HypoFirstOrder",
        grade=EXACT,
        payload={
            "alpha": shape.alpha.to_json(),
            "m": shape.m,
            "scale": shape.scale.to_json(),
        },
        subject={"symbol": _model_symbol(a).to_json()},
    )


# ---------------------------------------------------------------------------
# injectivity certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticCoeffs:
    """Real data of a quadratic model symbol (_quadratic_shape); the symmetric
    model has t = -b1: a = a2 x^2 + a1 x + a0 - i b1 + 2(b1 x + b0) xi + c0 xi^2."""

    a2: Fraction
    a1: Fraction
    a0: Fraction
    b1: Fraction
    b0: Fraction
    c0: Fraction

    def to_json(self) -> dict:
        return {k: format_rational(getattr(self, k)) for k in ("a2", "a1", "a0", "b1", "b0", "c0")}

    @classmethod
    def from_json(cls, obj: Mapping) -> "QuadraticCoeffs":
        return cls(**{k: parse_rational(obj[k], k) for k in ("a2", "a1", "a0", "b1", "b0", "c0")})


def extract_quadratic_coeffs(a: MultiPoly) -> Optional[QuadraticCoeffs]:
    """Match the symmetric quadratic shape, requiring the constant imaginary
    part to equal -b1 (the symmetry lock)."""
    shape = _quadratic_shape(a)
    if shape is None or a.total_degree() != 2:
        return None
    qc, t = shape
    return qc if t == -qc.b1 else None


@dataclass(frozen=True)
class _QuadCandidate:
    margin: Fraction
    u: Fraction
    s1_sq: Fraction
    s0_sq: Fraction
    r1_sq: Fraction
    r0_sq: Fraction


def _cross_square(b: Fraction, s_sq: Fraction) -> Optional[Fraction]:
    """b^2 / s^2, or 0 when b = 0; None when b != 0 but s^2 = 0."""
    if b == 0:
        return Fraction(0)
    return None if s_sq == 0 else b * b / s_sq


def _quad_margin_at(qc: QuadraticCoeffs, u: Fraction) -> Optional[_QuadCandidate]:
    """Margin 4(a2-r1^2)(a0-r0^2) - a1^2 at the split s1^2 = u c0, s0^2 = (1-u) c0.

    Works entirely in squares: r1^2 = b1^2/s1^2 (r = 0 when b = 0), so no
    irrational square roots ever appear.  None when the split is infeasible.
    """
    s1_sq = u * qc.c0
    s0_sq = (1 - u) * qc.c0
    if s1_sq < 0 or s0_sq < 0:
        return None
    r1_sq, r0_sq = _cross_square(qc.b1, s1_sq), _cross_square(qc.b0, s0_sq)
    if r1_sq is None or r0_sq is None:
        return None
    lead = qc.a2 - r1_sq
    if lead <= 0:
        return None
    margin = 4 * lead * (qc.a0 - r0_sq) - qc.a1 * qc.a1
    return _QuadCandidate(margin, u, s1_sq, s0_sq, r1_sq, r0_sq)


QUAD_GRID_STAGES = (64, 512)


def _quad_best_split(qc: QuadraticCoeffs) -> Optional[_QuadCandidate]:
    """Best split on the grid u = i/S, S in QUAD_GRID_STAGES, for c0 >= 0.

    The stages are scanned in order and i ascending; a later point wins only
    on a strictly greater margin.  Each margin is held as an unreduced integer
    ratio num/den with den > 0, built from the numerators and denominators of
    the coefficients:

        lead = a2 - r1^2 = (P1 i - Q1 S) / (R1 i)          (a2 when b1 = 0)
        rest = a0 - r0^2 = (P0 j - Q0 S) / (R0 j), j = S - i (a0 when b0 = 0)
        margin = 4 lead rest - a1^2

    and two margins are compared by cross-multiplying, so the scan needs no
    Fraction and no gcd.  Only the winner is rebuilt exactly by
    _quad_margin_at.  None when no split is feasible.
    """
    b1, b0 = qc.b1, qc.b0
    cn, cd = qc.c0.numerator, qc.c0.denominator
    if (b1 or b0) and cn == 0:
        return None  # s1^2 = s0^2 = 0 leaves a cross term unmatched
    a1n_sq, a1d_sq = qc.a1.numerator ** 2, qc.a1.denominator ** 2
    a2n, a2d = qc.a2.numerator, qc.a2.denominator
    a0n, a0d = qc.a0.numerator, qc.a0.denominator
    b1n_sq, b1d_sq = b1.numerator ** 2, b1.denominator ** 2
    b0n_sq, b0d_sq = b0.numerator ** 2, b0.denominator ** 2
    p1, q1, r1 = a2n * b1d_sq * cn, a2d * b1n_sq * cd, a2d * b1d_sq * cn
    p0, q0, r0 = a0n * b0d_sq * cn, a0d * b0n_sq * cd, a0d * b0d_sq * cn
    best_num = best_den = 0
    best_at: Optional[tuple[int, int]] = None
    for stage in QUAD_GRID_STAGES:
        q1s, q0s = q1 * stage, q0 * stage
        for i in range(1 if b1 else 0, stage if b0 else stage + 1):
            if b1:
                lead_num = p1 * i - q1s
                if lead_num <= 0:
                    continue
                lead_den = r1 * i
            else:
                lead_num, lead_den = a2n, a2d
            if b0:
                j = stage - i
                rest_num, rest_den = p0 * j - q0s, r0 * j
            else:
                rest_num, rest_den = a0n, a0d
            den = lead_den * rest_den
            num = 4 * a1d_sq * lead_num * rest_num - a1n_sq * den
            den *= a1d_sq
            if best_at is None or num * best_den > best_num * den:
                best_num, best_den, best_at = num, den, (i, stage)
    return None if best_at is None else _quad_margin_at(qc, Fraction(*best_at))


def injectivity_quadratic(qc: QuadraticCoeffs) -> Optional[Certificate]:
    """Search rational splits of c0 into s1^2 + s0^2 that make the shifted
    quadratic (a2 - r1^2) x^2 + a1 x + (a0 - r0^2) non-negative with positive
    leading coefficient; that lower-bounds the energy form of A and forces
    injectivity.  Margin zero is accepted and flagged as the relaxed branch.

    The splits s1^2 = u c0 are scanned on the grid u = i/S for each stage S of
    QUAD_GRID_STAGES in turn, i ascending, with integer margins compared by
    cross-multiplication (_quad_best_split); a later point replaces the best
    one only on a strictly greater margin."""
    if qc.c0 < 0:
        return _not_applicable("c0 must be non-negative")
    if qc.a2 <= 0:
        return _not_applicable("a2 must be positive")
    return _quadratic_certificate(qc, _quad_best_split(qc))


def _quadratic_certificate(qc: QuadraticCoeffs,
                           best: Optional[_QuadCandidate]) -> Optional[Certificate]:
    """The certificate of the split ``best``; None without a split or when its
    margin is negative."""
    if best is None or best.margin < 0:
        return None
    lead = qc.a2 - best.r1_sq
    relaxed = best.margin == 0
    notes = []
    if relaxed:
        notes.append(
            "relaxed branch: margin is exactly zero; the shifted quadratic is "
            "non-negative with positive leading coefficient, hence not identically zero"
        )
    return Certificate(
        kind="InjQuadraticEstimate",
        grade=EXACT,
        payload={
            "s1_sq": format_rational(best.s1_sq),
            "s0_sq": format_rational(best.s0_sq),
            "r1_sq": format_rational(best.r1_sq),
            "r0_sq": format_rational(best.r0_sq),
            "margin": format_rational(best.margin),
            "bound": format_rational(best.margin / lead),
            "relaxed": relaxed,
            "grid_stages": list(QUAD_GRID_STAGES),
        },
        subject={"quadratic": qc.to_json()},
        notes=notes,
    )


def injectivity_sos(params: NewtonFamilyParams) -> Optional[Certificate]:
    """Sum-of-squares energy identity for the two-block family: when lam, sig
    are positive and mu, nu non-negative,

        (A u | u) = lam |x^h u|^2 + mu |D^n x^m u|^2 + nu |x^m D^n u|^2
                    + sig |D^k u|^2

    so A u = 0 forces x^h u = 0, hence u = 0."""
    if _weight_fault(params) is not None:
        return None
    return Certificate(
        kind="InjSOS",
        grade=EXACT,
        payload={
            "params": params.to_json(),
            "energy_terms": [
                ["lam", "x^h u", format_rational(params.lam)],
                ["mu", "D^n x^m u", format_rational(params.mu)],
                ["nu", "x^m D^n u", format_rational(params.nu)],
                ["sig", "D^k u", format_rational(params.sig)],
            ],
        },
        subject={"family": params.to_json(), "symbol": family_left_symbol(params).to_json()},
    )


WICK_RADIUS = 20.0
WICK_COUNT = 401
WICK_DIRECTIONS = 3600


def injectivity_wick(a: MultiPoly, wick: Optional[MultiPoly] = None) -> Certificate:
    """Evidence for injectivity through positivity of the coherent-state
    average symbol W[a]: sampled positivity on a square grid plus positivity
    of the leading form on a circle of directions (near-zero directions are
    re-checked pointwise at larger radii).  The sampling is WICK_RADIUS,
    WICK_COUNT and WICK_DIRECTIONS, the only one verify_certificate accepts.
    The grid is sampled a block of rows at a time (MultiPoly.grid_blocks),
    keeping the minimum and its first row-major index (i, j), whose witness
    is (line[i], line[j]).  A sample beyond the float range, on the grid or
    on the circles, raises eval_numpy's NonFiniteSampleError.

    ``wick`` is W[a] when the caller has it already; it is computed from
    ``a`` otherwise."""
    from .symbols import weyl_wick

    sym = _model_symbol(a)
    if wick is None:
        wick = weyl_wick(sym)
    if not wick.is_real():
        return _not_applicable("coherent-state average symbol has complex coefficients")

    line = np.linspace(-WICK_RADIUS, WICK_RADIUS, WICK_COUNT)
    low, at = np.inf, None
    for rows, block in wick.grid_blocks(line, line):
        vals = block.real
        i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
        if vals[i, j] < low:
            low, at = vals[i, j], (rows.start + i, j)
    if low <= 0:
        i, j = at
        return _not_applicable(
            "sampled non-positive value of the coherent-state average symbol",
            {"x": float(line[i]), "xi": float(line[j]), "value": float(low)})

    lead = wick.leading_form()
    theta = 2.0 * np.pi * np.arange(WICK_DIRECTIONS) / WICK_DIRECTIONS
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    lead_vals = np.real(lead.eval_numpy({"x": cos_t, "xi": sin_t}))
    lead_scale = max(sum(abs(c.to_complex()) for c in lead.terms.values()), 1.0)
    tol = 1e-12 * lead_scale
    if lead_vals.min() < -tol:
        idx = int(np.argmin(lead_vals))
        return _not_applicable(
            "leading form of the coherent-state average symbol goes negative",
            {"x": float(cos_t[idx]), "xi": float(sin_t[idx]), "value": float(lead_vals[idx])})
    near_zero = np.abs(lead_vals) <= tol
    if near_zero.any():
        for factor in (2.0, 4.0):
            far = np.real(wick.eval_numpy({"x": factor * WICK_RADIUS * cos_t[near_zero],
                                           "xi": factor * WICK_RADIUS * sin_t[near_zero]}))
            if far.min() <= 0:
                idx = int(np.argmin(far))
                where = np.flatnonzero(near_zero)[idx]
                return _not_applicable(
                    "lower-order terms fail to dominate along a leading-form zero direction",
                    {"x": float(factor * WICK_RADIUS * cos_t[where]),
                     "xi": float(factor * WICK_RADIUS * sin_t[where]),
                     "value": float(far.min())})
    return Certificate(
        kind="InjWickPositive",
        grade=EVIDENCE,
        payload={
            "radius": WICK_RADIUS,
            "count": WICK_COUNT,
            "directions": WICK_DIRECTIONS,
            "min_sample": float(low),
            "min_leading": float(lead_vals.min()),
            "near_zero_directions": int(near_zero.sum()),
        },
        subject={"symbol": sym.to_json(), "wick": wick.to_json()},
        notes=["sampled positivity only; not a proof of injectivity"],
    )


def first_order_certify(alpha: GaussianRational, m: int, side: str = "operator") -> Certificate:
    """Kernel analysis for A = D + alpha x^m (or its adjoint, alpha conjugated).

    The one-dimensional kernel is spanned by u = exp(-i alpha x^(m+1)/(m+1)),
    with |u| = exp(Im(alpha) x^(m+1)/(m+1)).  For odd m the kernel is Schwartz
    exactly when Im(alpha) < 0 (a non-injectivity witness); in every other
    case with Im(alpha) != 0 the kernel escapes every Schwartz seminorm."""
    parse_int(m, "m", least=1)
    if side not in ("operator", "adjoint"):
        raise ValueError("side must be 'operator' or 'adjoint'")
    eff = alpha.conjugate() if side == "adjoint" else alpha
    if eff.im == 0:
        return _not_applicable("Im(alpha) = 0: kernel analysis needs a complex coefficient")
    subject = {"alpha": alpha.to_json(), "m": m, "side": side}
    exponent_coeff = (-GR_I * eff) * Fraction(1, m + 1)
    kernel = {
        "exponent_coeff": exponent_coeff.to_json(),
        "power": m + 1,
        "decay_rate": format_rational(eff.im / (m + 1)),
        "rendered": f"exp(({exponent_coeff})*x^{m + 1})",
    }
    if m % 2 == 1 and eff.im < 0:
        return Certificate(
            kind="NotInjectiveWitness",
            grade=EXACT,
            payload={"kernel": kernel, "schwartz": True, "im_alpha": format_rational(eff.im)},
            subject=subject,
        )
    return Certificate(
        kind="InjKernelEscape",
        grade=EXACT,
        payload={
            "kernel": kernel,
            "schwartz": False,
            "im_alpha": format_rational(eff.im),
            "reason": ("even power grows on one side" if m % 2 == 0
                       else "positive Im(alpha) makes the kernel grow"),
        },
        subject=subject,
    )


# ---------------------------------------------------------------------------
# the certifier chain: one table issues every certificate and rebuilds it
# ---------------------------------------------------------------------------


@dataclass
class _Subject:
    """The model symbol a and W[a], with a's recognized shapes, each matched at
    most once and only when a step first asks for it."""

    a: MultiPoly
    wick: MultiPoly

    @cached_property
    def newton(self) -> Optional[NewtonFamilyParams]:
        return recognize_newton_family(self.a)

    @cached_property
    def first_order(self) -> Optional[FirstOrderShape]:
        return recognize_first_order(self.a)

    @property
    def complex_first_order(self) -> Optional[FirstOrderShape]:
        shape = self.first_order
        return shape if shape is not None and shape.alpha.im != 0 else None


def _one(value) -> Optional[tuple]:
    return None if value is None else (value,)


def _symbol_args(cert: Certificate, symbol: Optional[MultiPoly]) -> Optional[tuple]:
    """The subject symbol read off the certificate, or the supplied symbol
    when it equals that one: a sampling certifier then re-samples the
    caller's symbol in its own term order, not in the JSON's descending one."""
    sym = MultiPoly.from_json(cert.subject["symbol"])
    if symbol is None:
        return (sym,)
    return (symbol,) if sym == symbol else None


def _params_args(cert: Certificate, symbol: Optional[MultiPoly]) -> Optional[tuple]:
    params = NewtonFamilyParams.from_json(cert.payload["params"])
    return (params,) if symbol is None or family_left_symbol(params) == symbol else None


def _quadratic_args(cert: Certificate, symbol: Optional[MultiPoly]) -> Optional[tuple]:
    """The subject quadratic and the split u = s1^2 / c0 that the payload records."""
    qc = QuadraticCoeffs.from_json(cert.subject["quadratic"])
    if symbol is not None and extract_quadratic_coeffs(symbol) != qc:
        return None
    u = parse_rational(cert.payload["s1_sq"], "s1_sq") / qc.c0 if qc.c0 else Fraction(0)
    return qc, _quad_margin_at(qc, u)


def _kernel_args(cert: Certificate, symbol: Optional[MultiPoly]) -> Optional[tuple]:
    alpha = GaussianRational.from_json(cert.subject["alpha"])
    m = cert.subject["m"]
    shape = None if symbol is None else recognize_first_order(symbol)
    if symbol is not None and (shape is None or (shape.alpha, shape.m) != (alpha, m)):
        return None
    return alpha, m, cert.subject["side"]


def _quadratic_estimate(qc: QuadraticCoeffs, *recorded: Optional[_QuadCandidate]):
    """injectivity_quadratic(qc); given the split a certificate records, the
    certificate of that split, with no search."""
    return _quadratic_certificate(qc, *recorded) if recorded else injectivity_quadratic(qc)


class _Step(NamedTuple):
    """One certifier of the chain and the certificate ``kinds`` it issues.

    ``recognize`` reads the certifier's arguments off the subject (None:
    outcome not_applicable, detail ``unrecognized``); ``read`` reads them off
    a certificate of one of its kinds (None: the subject is not the supplied
    symbol's).  ``certify`` answers either (None: no_certificate, detail
    ``uncertified``); it looks its certifier up by module name when it runs,
    so a rebound name (a tracer, a test) takes effect.  ``sampling`` is the
    one sampling an evidence certifier runs."""

    stage: str
    method: str
    kinds: tuple[str, ...]
    recognize: Callable[[_Subject], Optional[tuple]]
    read: Callable[[Certificate, Optional[MultiPoly]], Optional[tuple]]
    certify: Callable[..., object]
    unrecognized: Optional[str] = None
    uncertified: Optional[str] = None
    sampling: Mapping = {}


_CHAIN = (
    _Step("hypo", "quadratic_form", ("HypoQuadraticForm",), lambda s: (s.a,), _symbol_args,
          lambda a: hypo_certify_quadratic(a),
          uncertified="leading quadratic form is not positive definite"),
    _Step("hypo", "newton_polygon", ("HypoNewtonPolygon",), lambda s: _one(s.newton), _params_args,
          lambda params: hypo_certify_newton(params),
          "symbol is not in the two-block family",
          "mixed vertex lies inside the exponent polygon"),
    _Step("hypo", "first_order", ("HypoFirstOrder",),
          lambda s: None if s.complex_first_order is None else (s.a, s.complex_first_order),
          _symbol_args, lambda a, shape=None: hypo_certify_first_order(a, shape),
          "symbol is not scale*(xi + alpha x^m) with Im(alpha) != 0"),
    _Step("hypo", "falsifier", ("HypoUnfalsified",), lambda s: (s.a,), _symbol_args,
          _falsify_or_certify,
          sampling={"radii": list(DEFAULT_RADII), "samples_per_circle": DEFAULT_SAMPLES}),
    _Step("injectivity", "quadratic_estimate", ("InjQuadraticEstimate",),
          lambda s: _one(extract_quadratic_coeffs(s.a)), _quadratic_args, _quadratic_estimate,
          "symbol is not a symmetric quadratic",
          "no rational split yields a non-negative margin"),
    _Step("injectivity", "sum_of_squares", ("InjSOS",), lambda s: _one(s.newton), _params_args,
          lambda params: injectivity_sos(params),
          "symbol is not in the two-block family",
          "family weights fail the positivity requirements"),
    _Step("injectivity", "wick_positivity", ("InjWickPositive",), lambda s: (s.a, s.wick),
          _symbol_args, lambda a, wick=None: injectivity_wick(a, wick),
          sampling={"radius": WICK_RADIUS, "count": WICK_COUNT, "directions": WICK_DIRECTIONS}),
    _Step("injectivity", "first_order_kernel", ("InjKernelEscape", "NotInjectiveWitness"),
          lambda s: (None if s.first_order is None
                     else (s.first_order.alpha, s.first_order.m, "operator")),
          _kernel_args, lambda alpha, m, side: first_order_certify(alpha, m, side),
          "symbol is not scale*(xi + alpha x^m)"),
)

_ISSUER = {kind: step for step in _CHAIN for kind in step.kinds}
HYPO_KINDS = tuple(kind for step in _CHAIN if step.stage == "hypo" for kind in step.kinds)
# a kernel witness decides injectivity against, never for, the model operator
INJ_KINDS = tuple(kind for step in _CHAIN if step.stage == "injectivity"
                  for kind in step.kinds if kind != "NotInjectiveWitness")
ALL_KINDS = tuple(_ISSUER) + ("NotApplicable",)


def _attempt(stage: str, method: str, outcome: str, detail: str) -> dict:
    return {"stage": stage, "method": method, "outcome": outcome, "detail": detail}


def _outcome(answer, uncertified: Optional[str]) -> tuple[str, str]:
    """(outcome, detail) of a certifier's answer."""
    if answer is None:
        return "no_certificate", uncertified
    if isinstance(answer, FalsifyResult):
        return "falsified", answer.witness["reason"]
    if answer.kind == "NotApplicable":
        return "not_applicable", answer.payload["reason"]
    if answer.kind == "NotInjectiveWitness":
        return "witness", "kernel element stays in the Schwartz class"
    return "certified", answer.kind + (" (evidence only)" if answer.grade == EVIDENCE else "")


def _run_chain(subject: _Subject, attempts: list[dict]) -> dict[str, Optional[Certificate]]:
    """Run the steps in order; maps each decided stage to its certificate or
    kernel witness (None after a falsification).  A step whose samples leave
    the float range (NonFiniteSampleError) is not applicable."""
    decided: dict[str, Optional[Certificate]] = {}
    for step in _CHAIN:
        if step.stage in decided:
            continue
        found = step.recognize(subject)
        if found is None:
            attempts.append(_attempt(step.stage, step.method, "not_applicable", step.unrecognized))
            continue
        try:
            answer = step.certify(*found)
        except NonFiniteSampleError as exc:
            answer = _not_applicable(str(exc))
        outcome, detail = _outcome(answer, step.uncertified)
        attempts.append(_attempt(step.stage, step.method, outcome, detail))
        if outcome in ("certified", "witness", "falsified"):
            decided[step.stage] = None if outcome == "falsified" else answer
    return decided


def _compose_verdict(hypo: Optional[Certificate], inj: Optional[Certificate],
                     attempts: list[dict]) -> RegularityVerdict:
    """Regular or NotRegular needs an exact hypo-ellipticity certificate and a
    decided injectivity link (a certificate or a kernel witness); anything else
    is Unknown.  The grade is that of the weakest link in the chain."""
    chain = [c for c in (hypo, inj) if c is not None]
    grade = EXACT if all(c.grade == EXACT for c in chain) else EVIDENCE
    certified = hypo is not None and hypo.grade == EXACT
    if certified and inj is not None:
        if inj.kind == "NotInjectiveWitness":
            return RegularityVerdict(status="NotRegular", chain=chain,
                                     witness=inj.payload["kernel"]["rendered"], grade=grade)
        return RegularityVerdict(status="Regular", chain=chain, grade=grade)
    detail = ("hypo-ellipticity certified but injectivity undecided" if certified else
              "hypo-ellipticity is uncertified, so the reduction to the model operator "
              "gives no verdict about the planar operator")
    attempts.append(_attempt("verdict", "compose", "unknown", detail))
    return RegularityVerdict(status="Unknown", chain=chain, grade=grade)


def _adjoint_analysis(subject: _Subject, operator: Optional[Certificate]) -> Optional[dict]:
    """Kernel analysis of the adjoint model for first-order shapes.

    The adjoint of scale*(D + alpha x^m) conjugates alpha; a Schwartz kernel
    element on the adjoint side means the operator misses a one-dimensional
    subspace (index -1) even when it is injective.  The operator side is the
    injectivity link the chain decided: no step before first_order_kernel
    decides a complex first-order symbol, and that step always does.
    """
    shape = subject.complex_first_order
    if shape is None:
        return None
    adjoint = first_order_certify(shape.alpha, shape.m, side="adjoint")
    adj_nontrivial = adjoint.kind == "NotInjectiveWitness"
    # at most one side has a Schwartz kernel: m odd and Im alpha < 0 for A, > 0 for A*
    if adj_nontrivial:
        remark = ("N(A*) != 0: the adjoint kernel contains "
                  f"{adjoint.payload['kernel']['rendered']}, so the operator is "
                  "injective but not surjective (index -1)")
    elif operator.kind == "NotInjectiveWitness":
        remark = ("N(A) != 0 while N(A*) = 0: the operator has a one-dimensional "
                  "kernel and dense range (index +1)")
    else:
        remark = "both N(A) and N(A*) are trivial"
    return {
        "operator": operator.to_json(),
        "adjoint": adjoint.to_json(),
        "adjoint_kernel_nontrivial": adj_nontrivial,
        "remark": remark,
    }


def _decide(a: MultiPoly, wick: MultiPoly) -> tuple[RegularityVerdict, list[dict], Optional[dict]]:
    """Run the chain on the model symbol a, with W[a] given as ``wick``: the
    verdict, every attempt in order, and the adjoint analysis."""
    attempts: list[dict] = []
    subject = _Subject(a, wick)
    decided = _run_chain(subject, attempts)
    verdict = _compose_verdict(decided.get("hypo"), decided.get("injectivity"), attempts)
    return verdict, attempts, _adjoint_analysis(subject, decided.get("injectivity"))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str


_FLOAT_REL_TOL = 1e-9
_ABSENT = object()


def _first_difference(claimed, rebuilt, path: str) -> Optional[str]:
    """Path of the first value of ``claimed`` that differs from ``rebuilt``
    (floats may differ by _FLOAT_REL_TOL relative to the claimed value), or None."""
    if claimed == rebuilt:
        return None
    if isinstance(claimed, float) and isinstance(rebuilt, float):
        return None if abs(rebuilt - claimed) <= _FLOAT_REL_TOL * (1 + abs(claimed)) else path
    if isinstance(claimed, dict) and isinstance(rebuilt, dict):
        pairs = [(k, claimed.get(k, _ABSENT), rebuilt.get(k, _ABSENT)) for k in {**rebuilt, **claimed}]
    elif isinstance(claimed, list) and isinstance(rebuilt, list) and len(claimed) == len(rebuilt):
        pairs = list(zip(range(len(claimed)), claimed, rebuilt))
    else:
        return path
    found = (_first_difference(c, r, f"{path}.{key}") for key, c, r in pairs)
    return next((f for f in found if f is not None), None)


def verify_certificate(cert: Certificate, symbol: Optional[MultiPoly] = None) -> VerifyResult:
    """Valid when the chain step that issues the certificate's kind, run on
    its subject and on the choices its payload records, rebuilds it: equal
    JSON, floats equal to a relative 1e-9, and a failure names the first
    field that differs.

    An evidence kind that records other sampling than its certifier's fails
    before any re-sampling; a subject that parses but that the sampler
    cannot sample (SamplingError: a coefficient or a sample beyond the float
    range) fails as such; a certificate that does not parse, or whose
    arguments its certifier refuses in any other way, fails as malformed.
    With ``symbol``, the subject must be the one that symbol gives."""
    step = _ISSUER.get(cert.kind)
    if step is None:
        return VerifyResult(True, "no claim to verify")
    try:
        if any(cert.payload[key] != value for key, value in step.sampling.items()):
            return VerifyResult(False, "sampling differs from the certifier's default sampling")
        args = step.read(cert, None if symbol is None else symbol.promote(MODEL_VARS))
        if args is None:
            return VerifyResult(False, "certificate subject does not match the supplied symbol")
        try:
            rebuilt = step.certify(*args)
        except SamplingError as exc:
            return VerifyResult(False, f"cannot re-sample the subject symbol: {exc}")
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        return VerifyResult(False, f"malformed certificate: {exc}")
    if isinstance(rebuilt, FalsifyResult):
        return VerifyResult(False, f"falsifier now finds a witness: {rebuilt.witness['reason']}")
    if rebuilt is None:
        return VerifyResult(False, f"its certifier issues no {cert.kind} for this subject")
    field = _first_difference(cert.to_json(), rebuilt.to_json(), "certificate")
    if field is not None:
        return VerifyResult(False, f"{field} differs from the rebuilt certificate")
    return VerifyResult(True, "rebuilt by its certifier")
