"""Independent reference implementations used only by the tests.

The inverse-transform oracle evaluates every reconstructed point by its own
direct trigonometric sum, one row at a time in O(N^3), where the library
shifts whole columns with FFTs.

The forward-transform oracle evaluates both windows on full planes of
shifted arguments over z in ascending order, then centres the spectrum with
fftshift and the (-1)^k phase after the FFT, where the library takes z in FFT
order with the sign folded into the product and evaluates a z-free window on
one column.

The Weyl-Wick oracles run the exponential series one derivative pass at a
time on whole MultiPoly objects, where the library runs the same stages on
integer (re, im) pairs over one common denominator.

The falsifier oracle evaluates the symbol and both partial derivatives
(MultiPoly.diff) with the complex term loop below and their own power
tables, and re-samples the outermost circle for a growing trend, where the
library shares one power table per circle among the three, takes the
derivatives' float coefficients straight from the symbol's exact terms and
reuses the outermost samples.

The complex term loop samples a polynomial as eval_numpy did before it
summed real and imaginary parts apart: each term is its complex coefficient
times its real power planes, in complex products, summed in term order into
one complex array, plus 0j, where the library sums each part's real
products into a float plane of its own and skips a zero part.

The transport oracle accumulates both first-order residuals of b in full,
as (re, im) Fraction pairs per exponent, where the library tests each
residual coefficient from its two contributions in integers.

The planar-symbol oracle composes the left symbols of the two first-order
factors one factor at a time with the general composition formula, where the
library expands the closed form b = a~(x - q eta, y + p xi).

The Fraction-chain oracles for a~ and b expand the same closed forms as the
library, term by term in the same order, but take each weight as a chain of
GaussianRational and Fraction products with a Fraction power per term, where
the library builds each part of a term as one Fraction from integer powers,
computed once per call, and the coefficient's numerator and denominator.

The planar-operator oracle applies B one first-order factor at a time, an
FFT pair per factor application, where the library applies each factor as a
multiplication in the frame that diagonalizes it.

The quadratic-injectivity oracle scans the full two-dimensional grid of
square splits (s1^2, s0^2) = (i/D * c0, j/D * c0) with i + j <= D, in exact
integer arithmetic, and reports whether ANY admissible split produces a
non-negative margin.  The library's search walks only the boundary
i + j = D; the two must agree in decision because enlarging s0^2 never
shrinks the margin once it is non-negative.

The split-search oracle walks the library's own grid u = i/S, evaluating
every margin as a Fraction and keeping the first strictly greatest, where
the library compares unreduced integer ratios by cross-multiplication.

The mixed-block oracles compose the two factors of each sandwich with the
general composition formula, where the library writes out their Leibniz sums.

The intertwining oracle runs one independent forward transform per window
pair, each evaluating v for itself, and applies the planar operator
to a transform it keeps, on whole planes of symbol values with a fresh
plane for every product, where the library shares v's values among the
pairs, evaluates the symbols a block of rows at a time into the plane they
scale, and lets the operator overwrite the transform it no longer needs.

The Hermite and envelope oracles allocate a fresh plane for every operation,
where the library runs the same operations in a few reused buffers.

The sampled-positivity oracles evaluate W[a] and the generator's target on
full 401 x 401 meshgrid planes, with a fresh plane for every power, product
and partial sum, and read the witness back from the planes, where the
library takes each power on one axis line, broadcasts only the products to
the grid and sums the terms into one plane.

The scalar evaluation oracle evaluates a polynomial at one point at a time
in Python float and complex arithmetic, with the library's term order and
its power definition x^k = fl(x^(k-1) * x), where the library evaluates
whole arrays and shares each power table among the terms.

The quasi-homogeneous target oracle raises the two binomials with MultiPoly
powers, where the library writes out their terms from binomial coefficients.

The conjugation oracle substitutes the images of x, y, xi and eta into the
symbol as a general ring substitution, with MultiPoly powers and products,
where the library expands each monomial by binomial weights of the integer
rows of T' and T^-1.

The certifier-chain oracle runs the two stages as hand-unrolled ladders, one
branch per step and outcome, and composes the verdict in its own branch per
status, where the library runs one table of steps through one loop and
composes every verdict with one grading rule.

The field-wise verifier checks each certificate kind in its own branch, by
the payload fields that branch picks, where the library runs the certifier of
the kind again and requires the whole certificate back.

The plane-transform byte oracles keep the earlier whole-plane forms of the
three grid stages, where the library works in a fixed number of planes: the
forward builds its argument planes, v's plane and each window's plane for
all x rows at once, where the library fills its output one block of rows at
a time; the inverse divides into a fresh spectrum, shifts it with
ifftshift, builds the whole phase plane and gathers with index planes, where
the library works in one plane in place; the CSV reader parses every block
into one (N^2, 4) table and checks its nodes as a whole, where the library
checks each block and copies its value columns straight into the samples.
All three must give the library's bytes.
"""

from __future__ import annotations

import os
import warnings
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Callable, Optional, Sequence

import numpy as np

from wigreg.certify import (
    _ZERO_REL_TOL,
    DEFAULT_RADII,
    DEFAULT_SAMPLES,
    EVIDENCE,
    EXACT,
    QUAD_GRID_STAGES,
    WICK_COUNT,
    WICK_DIRECTIONS,
    WICK_RADIUS,
    Certificate,
    FalsifyResult,
    NewtonFamilyParams,
    QuadraticCoeffs,
    RegularityVerdict,
    VerifyResult,
    _model_symbol,
    _not_applicable,
    _quad_margin_at,
    _quadratic_shape,
    _refine_circle_zero,
    _weight_fault,
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
)
from wigreg.exact import (GR_I, GR_ONE, GaussianRational, MultiPoly, NonFiniteSampleError, SamplingError,
                          _digit_count, parse_rational)
from wigreg.hermite import PI_QUARTER_INV, apply_model_operator, to_polygauss
from wigreg.pipeline import POSITIVITY_COUNT, POSITIVITY_RADIUS, PositivityError, _psd_minors
from wigreg.symbols import MODEL_VARS, PHASE_VARS, LinearChange, OperatorSpec, symbol_compose, weyl_wick
from wigreg.wigner import (
    TWO_PI_SQRT,
    BoundaryDecayError,
    Grid2D,
    GridFunction2D,
    _alternating_phase,
    _csv_parse_error,
    _one_line_per_row,
    _reject_blank_or_comment,
    _split_rows,
    read_manifest,
    wig_forward,
)

ORACLE_DEPTH = 512


def factor_symbols(spec) -> tuple[MultiPoly, MultiPoly]:
    """Left symbols of the two first-order factors (x - q*eta, y + p*xi)."""
    x = MultiPoly.variable("x")
    y = MultiPoly.variable("y")
    xi = MultiPoly.variable("xi")
    eta = MultiPoly.variable("eta")
    return x - eta.scale(spec.q), y + xi.scale(spec.p)


def composed_b_symbol(spec) -> MultiPoly:
    """Left symbol of B, composing factor symbols in operator order."""
    xf, yf = factor_symbols(spec)
    total = MultiPoly.zero(PHASE_VARS)
    for (j, k), c in sorted(spec.coeffs.items()):
        term = MultiPoly.constant(GR_ONE, PHASE_VARS)
        for _ in range(k):
            term = symbol_compose(yf, term)
        for _ in range(j):
            term = symbol_compose(xf, term)
        total = total + term.scale(c)
    return total


def fraction_chain_a_tilde(spec) -> MultiPoly:
    """a~ = sum c[j,k] sum_n (i q)^n n! C(j,n) C(k,n) x^(j-n) xi^(k-n), with
    (i q)^n as a chain of GaussianRational products."""
    iq = GR_I * spec.q
    iq_powers = [GR_ONE]
    for _ in range(max(min(j, k) for j, k in spec.coeffs)):
        iq_powers.append(iq_powers[-1] * iq)
    terms: dict[tuple[int, int], GaussianRational] = {}
    for (j, k), c in spec.coeffs.items():
        for n in range(min(j, k) + 1):
            coef = c * iq_powers[n] * (factorial(n) * comb(j, n) * comb(k, n))
            key = (j - n, k - n)
            acc = terms.get(key)
            terms[key] = coef if acc is None else acc + coef
    return MultiPoly(MODEL_VARS, {e: c for e, c in terms.items() if not c.is_zero()})


def fraction_chain_b_symbol(spec, atilde: Optional[MultiPoly] = None) -> MultiPoly:
    """b = a~(x - q eta, y + p xi) term by term, each weight
    C(m,a) (-q)^(m-a) C(n,b) p^(n-b) as Fraction powers and products."""
    if atilde is None:
        atilde = fraction_chain_a_tilde(spec)
    minus_q, p = -spec.q, spec.p
    terms: dict[tuple[int, int, int, int], GaussianRational] = {}
    for (m, n), c in atilde.terms.items():
        for a in range(m + 1):
            x_part = comb(m, a) * minus_q ** (m - a)
            if x_part == 0:
                continue
            for b in range(n + 1):
                f = x_part * comb(n, b) * p ** (n - b)
                if f != 0:
                    terms[(a, b, n - b, m - a)] = GaussianRational(c.re * f, c.im * f)
    return MultiPoly(PHASE_VARS, terms)


def accumulated_transport_residuals_vanish(b: MultiPoly, p: Fraction, q: Fraction) -> bool:
    """True when q*d_x b + d_eta b and d_xi b - p*d_y b are identically zero."""
    eta_flow: dict[tuple, tuple] = {}
    xi_flow: dict[tuple, tuple] = {}
    for (i, j, s, t), c in b.promote(PHASE_VARS).terms.items():
        for acc, key, f in ((eta_flow, (i - 1, j, s, t), q * i),
                            (eta_flow, (i, j, s, t - 1), t),
                            (xi_flow, (i, j, s - 1, t), s),
                            (xi_flow, (i, j - 1, s, t), -p * j)):
            if f:
                re, im = acc.get(key, (0, 0))
                acc[key] = (re + f * c.re, im + f * c.im)
    return not any(re or im for acc in (eta_flow, xi_flow) for re, im in acc.values())


def _mixed_series(a: MultiPoly, unit: GaussianRational) -> MultiPoly:
    """sum_l (unit^l / l!) (d_x d_xi)^l a, a finite sum for polynomials."""
    out = a
    cur = a
    scale = GR_ONE
    l = 0
    while True:
        cur = cur.diff("x", 1).diff("xi", 1)
        if cur.is_zero():
            return out
        l += 1
        scale = scale * unit * Fraction(1, l)
        out = out + cur.scale(scale)


def _laplace_series(a: MultiPoly, unit: Fraction) -> MultiPoly:
    """sum_n (unit^n / n!) Lap^n a with Lap = d_x^2 + d_xi^2."""
    out = a
    cur = a
    scale = Fraction(1)
    n = 0
    while True:
        cur = cur.diff("x", 2) + cur.diff("xi", 2)
        if cur.is_zero():
            return out
        n += 1
        scale = scale * unit / n
        out = out + cur.scale(scale)


def series_weyl_wick(a: MultiPoly) -> MultiPoly:
    """W[a] = exp(-Lap/4) exp(-(i/2) d_x d_xi) a by the two series."""
    mixed = _mixed_series(a.promote(MODEL_VARS), -GR_I * Fraction(1, 2))
    return _laplace_series(mixed, Fraction(-1, 4))


def series_weyl_wick_inverse(a: MultiPoly) -> MultiPoly:
    """W^-1[a] = exp((i/2) d_x d_xi) exp(Lap/4) a by the two series."""
    lap = _laplace_series(a.promote(MODEL_VARS), Fraction(1, 4))
    return _mixed_series(lap, GR_I * Fraction(1, 2))


def complex_terms(poly: MultiPoly) -> list[tuple[tuple, complex]]:
    """(exponent, float(re) + 1j * float(im)) for each term, in term order;
    a coefficient beyond the float range raises the sampler's SamplingError."""
    terms = []
    for exp, coef in poly.terms.items():
        try:
            terms.append((exp, float(coef.re) + 1j * float(coef.im)))
        except OverflowError:
            big = max(abs(coef.re), abs(coef.im))
            name = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(poly.vars, exp) if k)
            raise SamplingError(f"{name or 'constant'} term: coefficient has "
                                f"{_digit_count(big.numerator // big.denominator)} digits, "
                                f"beyond the float range") from None
    return terms


def complex_term_eval(poly: MultiPoly, values: dict, powers: Optional[dict] = None):
    """MultiPoly.eval_numpy by the complex term loop: the same power planes,
    errors and messages, from complex products and sums."""
    for v in poly.vars:
        if v not in values:
            raise ValueError(f"no value supplied for variable {v!r}")
    terms = complex_terms(poly)
    power_cache = {} if powers is None else powers
    wanted = {(v, k) for exp, _ in terms for v, k in zip(poly.vars, exp) if k}
    shape = np.broadcast_shapes(*[np.shape(values[v]) for v in poly.vars])
    total = None
    with np.errstate(over="ignore", invalid="ignore"):
        for v, k in sorted(wanted - power_cache.keys()):
            base = np.asarray(values[v])
            j = max((i for w, i in power_cache if w == v and i < k), default=1)
            plane = base if j == 1 else power_cache[v, j]
            if j < k:
                plane = plane * base
                for _ in range(k - j - 1):
                    plane *= base
            power_cache[v, k] = plane
        for exp, coef in terms:
            piece = np.asarray(coef, dtype=complex)
            for v, k in zip(poly.vars, exp):
                if k:
                    piece = piece * power_cache[v, k]
            if total is None:
                total = piece
            elif total.shape == shape:
                total += piece
            else:
                total = total + piece
    if total is None:
        total = np.zeros(shape, dtype=complex)
    elif total.shape != shape:
        total = np.broadcast_to(total + 0j, shape).copy()
    elif not total.ndim:
        total = total + 0j
    else:
        total += 0j
    if not np.isfinite(total).all():
        raise NonFiniteSampleError("sampled symbol leaves the float range")
    return total


def separate_planes_hypo_falsify(a: MultiPoly, radii: Sequence[float] = DEFAULT_RADII,
                                 samples_per_circle: int = DEFAULT_SAMPLES) -> FalsifyResult:
    """wigreg.certify.hypo_falsify one circle at a time, with a power table
    per evaluation of each circle."""
    sym = _model_symbol(a)
    if sym.is_zero():
        raise ValueError("zero symbol cannot be tested for hypo-ellipticity")
    radii = tuple(float(r) for r in radii)
    if len(radii) < 2 or any(r <= 0 for r in radii) or list(radii) != sorted(set(radii)):
        raise ValueError("radii must be at least two strictly increasing positive values")
    if samples_per_circle < 8:
        raise ValueError("need at least 8 samples per circle")

    dx = sym.diff("x", 1)
    dxi = sym.diff("xi", 1)
    theta = 2.0 * np.pi * np.arange(samples_per_circle) / samples_per_circle
    cos_t, sin_t = np.cos(theta), np.sin(theta)

    trend = []
    witness = None
    falsified = False
    for radius in radii:
        xs, xis = radius * cos_t, radius * sin_t
        vals = np.abs(complex_term_eval(sym, {"x": xs, "xi": xis}))
        grads = (np.abs(complex_term_eval(dx, {"x": xs, "xi": xis}))
                 + np.abs(complex_term_eval(dxi, {"x": xs, "xi": xis})))
        scale = sum(abs(c.to_complex()) * radius ** sum(e) for e, c in sym.terms.items())
        zero_mask = vals <= _ZERO_REL_TOL * max(scale, 1.0)
        if radius == radii[-1] and zero_mask.any():
            idx = int(np.argmax(zero_mask))
            witness = {"x": float(xs[idx]), "xi": float(xis[idx]), "abs_value": float(vals[idx]),
                       "reason": "symbol vanishes on the outermost circle"}
            falsified = True
        if radius == radii[-1] and not falsified:
            # a zero may hide between samples: flag points whose Newton step
            # along the circle is shorter than the sample spacing, then refine
            spacing = 2.0 * np.pi / samples_per_circle
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
            xs, xis = radii[-1] * cos_t, radii[-1] * sin_t
            vals = np.abs(complex_term_eval(sym, {"x": xs, "xi": xis}))
            grads = (np.abs(complex_term_eval(dx, {"x": xs, "xi": xis}))
                     + np.abs(complex_term_eval(dxi, {"x": xs, "xi": xis})))
            safe = np.where(vals > 0, vals, np.inf)
            idx = int(np.argmax(grads / safe))
            witness = {"x": float(xs[idx]), "xi": float(xis[idx]), "ratio": float(grads[idx] / vals[idx]),
                       "reason": "gradient-to-symbol ratio grows with the radius"}
            falsified = True

    return FalsifyResult(falsified, witness, tuple(trend))


def _spectral_d(samples: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """Apply D = -i d/dx along the axis: multiply FFT modes by the wavenumber."""
    n = samples.shape[axis]
    omega = 2.0 * np.pi * np.fft.fftfreq(n, d=spacing)
    shape = [1] * samples.ndim
    shape[axis] = n
    return np.fft.ifft(omega.reshape(shape) * np.fft.fft(samples, axis=axis), axis=axis)


def factorwise_apply_operator_2d(spec, transform) -> GridFunction2D:
    """Apply B = sum c[j,k] (x - q D_y)^j (y + p D_x)^k factor by factor."""
    grid = transform.grid
    p = float(spec.p)
    q = float(spec.q)
    x_col = grid.x_nodes[:, None]
    y_row = grid.dual_nodes[None, :]
    total = np.zeros_like(transform.samples)
    for (j, k), coef in sorted(spec.coeffs.items()):
        work = transform.samples
        for _ in range(k):
            work = y_row * work + p * _spectral_d(work, axis=0, spacing=grid.dx)
        for _ in range(j):
            work = x_col * work - q * _spectral_d(work, axis=1, spacing=grid.dy_dual)
        total = total + coef.to_complex() * work
    return GridFunction2D(grid, total, dual_y=True)


def _integerize(qc) -> tuple[int, int, int, int, int, int]:
    parts = (qc.a2, qc.a1, qc.a0, qc.b1, qc.b0, qc.c0)
    den = lcm(*(p.denominator for p in parts))
    return tuple(int(p * den) for p in parts)


def quadratic_split_exists(qc, depth: int = ORACLE_DEPTH) -> bool:
    """Brute-force decision: does some grid split certify injectivity?

    Mirrors the library's admissibility gates exactly: c0 >= 0, a2 > 0, the
    shifted leading coefficient strictly positive, margin >= 0.  All
    arithmetic is integer (margins are cleared of denominators by positive
    factors only, so signs are preserved).
    """
    if qc.c0 < 0 or qc.a2 <= 0:
        return False
    a2, a1, a0, b1, b0, c0 = _integerize(qc)
    d = depth

    if c0 == 0:
        # only the trivial split exists, and it needs both cross terms gone
        if b1 != 0 or b0 != 0:
            return False
        return 4 * a2 * a0 - a1 * a1 >= 0

    # i = j = 0
    if b1 == 0 and b0 == 0 and 4 * a2 * a0 - a1 * a1 >= 0:
        return True

    j = np.arange(1, d + 1, dtype=np.int64)

    # i = 0 row: feasible only when b1 == 0; lead = a2 > 0 already holds
    if b1 == 0:
        p0 = a0 * j * c0 - b0 * b0 * d
        margin = 4 * a2 * p0 - a1 * a1 * j * c0
        if (margin >= 0).any():
            return True

    for i in range(1, d + 1):
        p1 = a2 * i * c0 - b1 * b1 * d
        if p1 <= 0:
            continue
        # j = 0 column: feasible only when b0 == 0
        if b0 == 0 and 4 * p1 * a0 - a1 * a1 * i * c0 >= 0:
            return True
        jj = j[: d - i]
        if jj.size:
            p0 = a0 * jj * c0 - b0 * b0 * d
            margin = 4 * p1 * p0 - a1 * a1 * i * jj * c0 * c0
            if (margin >= 0).any():
                return True
    return False


def fraction_quad_best_split(qc):
    """Best split on the grid u = i/S, S in QUAD_GRID_STAGES, every margin a
    Fraction; a later point wins only on a strictly greater margin."""
    best = None
    for stage in QUAD_GRID_STAGES:
        for i in range(stage + 1):
            cand = _quad_margin_at(qc, Fraction(i, stage))
            if cand is None:
                continue
            if best is None or cand.margin > best.margin:
                best = cand
    return best


def _model_composition(outer: MultiPoly, inner: MultiPoly) -> MultiPoly:
    """symbol_compose(outer, inner) over MODEL_VARS: y and eta are dropped,
    and no term may carry them."""
    x, xi = (PHASE_VARS.index(v) for v in MODEL_VARS)
    composed = symbol_compose(outer, inner)
    assert composed.vars == PHASE_VARS
    assert all(sum(exp) == exp[x] + exp[xi] for exp in composed.terms)
    return MultiPoly(MODEL_VARS, {(exp[x], exp[xi]): c for exp, c in composed.terms.items()})


def composed_mixed_block_mdm(m: int, n: int) -> MultiPoly:
    """Left symbol of M^m D^(2n) M^m by the general composition formula."""
    outer = MultiPoly(MODEL_VARS, {(m, 2 * n): GR_ONE})
    inner = MultiPoly(MODEL_VARS, {(m, 0): GR_ONE})
    return _model_composition(outer, inner)


def composed_mixed_block_dmd(m: int, n: int) -> MultiPoly:
    """Left symbol of D^n M^(2m) D^n by the general composition formula."""
    outer = MultiPoly(MODEL_VARS, {(0, n): GR_ONE})
    inner = MultiPoly(MODEL_VARS, {(2 * m, n): GR_ONE})
    return _model_composition(outer, inner)


def hermite_quadrature_values(n: int, t: np.ndarray) -> np.ndarray:
    """Hermite functions by direct (unstable but short) monomial expansion.

    Good enough below n = 10 in float64; used to cross-check the library's
    stable recurrence where both are trustworthy.
    """
    from math import factorial, pi, sqrt

    t = np.asarray(t, dtype=float)
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    poly = np.polynomial.hermite.Hermite(coeffs)
    norm = 1.0 / sqrt(float(2 ** n) * factorial(n) * sqrt(pi))
    return norm * poly(t) * np.exp(-0.5 * t * t)


def fresh_planes_hermite_values(n: int, t: np.ndarray) -> np.ndarray:
    """The Hermite recurrence with a fresh array for every operation."""
    t = np.asarray(t, dtype=float)
    prev = np.zeros_like(t)
    cur = PI_QUARTER_INV * np.exp(-0.5 * t * t)
    for k in range(n):
        prev, cur = cur, np.sqrt(2.0 / (k + 1)) * t * cur - np.sqrt(k / (k + 1.0)) * prev
    return cur


def fresh_planes_envelope(a: float, x0: float, t: np.ndarray) -> np.ndarray:
    """The real PolyGauss envelope exp(-a (t - x0)^2) as one expression."""
    return np.exp(-a * (np.asarray(t, dtype=float) - x0) ** 2)


def _fresh_horner(coeffs, plane):
    top = max(coeffs)
    value = coeffs[top]
    for k in range(top - 1, -1, -1):
        value = value * plane
        if k in coeffs:
            value = value + coeffs[k]
    return value


def fresh_planes_apply_operator_2d(spec, transform) -> np.ndarray:
    """B = sum c[j,k] X^j Y^k in the Fourier-diagonal frames, rows folded by
    Horner in X and the terms without a derivative added last."""
    grid = transform.grid
    samples = transform.samples
    p, q = float(spec.p), float(spec.q)
    y_sym = grid.dual_nodes[None, :]
    if p:
        y_sym = y_sym + p * (2.0 * np.pi * np.fft.fftfreq(grid.N, d=grid.dx))[:, None]
    x_sym = grid.x_nodes[:, None]
    if q:
        x_sym = x_sym - q * (2.0 * np.pi * np.fft.fftfreq(grid.N, d=grid.dy_dual))[None, :]
    rows, plain = {}, {}
    for (j, k), c in spec.complex_coeffs().items():
        if k:
            rows.setdefault(j, {})[k] = c
        else:
            plain[j] = c
    total = None
    if rows:
        in_y = np.fft.fft(samples, axis=0) if p else samples
        for j in range(max(rows), -1, -1):
            if total is not None:
                total = total * x_sym
            if j in rows:
                row = _fresh_horner(rows[j], y_sym) * in_y
                if p:
                    row = np.fft.ifft(row, axis=0)
                if q:
                    row = np.fft.fft(row, axis=1)
                total = row if total is None else total + row
    if plain:
        term = _fresh_horner(plain, x_sym) * (np.fft.fft(samples, axis=1) if q else samples)
        total = term if total is None else total + term
    return np.fft.ifft(total, axis=1) if q else total


def separate_intertwine_residual(spec, u, v, p, grid, mode: str = "full",
                                 boundary_tol: float = 1e-8) -> list[tuple[str, float]]:
    """Residuals of the intertwining identity with one wig_forward per pair."""
    p = Fraction(p)
    spec = spec.with_p(p)
    pf = float(p)
    w = wig_forward(u, v, pf, grid, boundary_tol=boundary_tol)

    def relative(lhs: np.ndarray, rhs: np.ndarray) -> float:
        scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), 1e-300)
        return float(np.max(np.abs(lhs - rhs))) / scale

    if mode == "full":
        lhs = fresh_planes_apply_operator_2d(spec, w)
        au = apply_model_operator(spec.complex_coeffs(), u)
        rhs = wig_forward(au, v, pf, grid, boundary_tol=boundary_tol).samples
        return [("intertwining", relative(lhs, rhs))]
    base = to_polygauss(u)
    lhs_d = wig_forward(base.apply_d(), v, pf, grid, boundary_tol=boundary_tol).samples
    rhs_d = fresh_planes_apply_operator_2d(OperatorSpec({(0, 1): GR_ONE}, p), w)
    lhs_m = wig_forward(base.mul_t(), v, pf, grid, boundary_tol=boundary_tol).samples
    rhs_m = fresh_planes_apply_operator_2d(OperatorSpec({(1, 0): GR_ONE}, p), w)
    return [("derivative_factor", relative(lhs_d, rhs_d)),
            ("position_factor", relative(lhs_m, rhs_m))]


def shifted_wig_forward(u, v, p: float, grid) -> np.ndarray:
    """Forward-transform samples on full planes, centred after the FFT."""
    p = float(p)
    q = 1.0 - p
    x = grid.x_nodes
    z = grid.x_nodes
    args_u = x[:, None] + q * z[None, :]
    args_v = x[:, None] - p * z[None, :]
    g = np.asarray(u(args_u)) * np.asarray(v(args_v))
    spectrum = np.fft.fftshift(np.fft.fft(g, axis=1), axes=1)
    return (grid.dx / TWO_PI_SQRT) * _alternating_phase(grid.N)[None, :] * spectrum


def direct_wig_inverse(transform, p: float) -> np.ndarray:
    """Pair-function samples f(x_a, x_b) from a dual-axis transform.

    Undoes the forward DFT along y, then evaluates G(p x_a + q x_b, z_l) at
    every in-window point by summing the trigonometric interpolant of
    column l = a - b + N/2 term by term, with the frequencies of fftfreq.
    Points whose difference leaves the z window are zero.
    """
    grid = transform.grid
    n, L, dx = grid.N, grid.L, grid.dx
    q = 1.0 - p
    k = np.arange(-n // 2, n // 2)
    spectrum = transform.samples * (np.sqrt(2.0 * np.pi) / dx) * np.where(k % 2 == 0, 1.0, -1.0)
    g = np.fft.ifft(np.fft.ifftshift(spectrum, axes=1), axis=1)
    spectrum_x = np.fft.fft(g, axis=0)
    omega = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    x = -L + dx * np.arange(n)
    values = np.zeros((n, n), dtype=complex)
    for a in range(n):
        cols = a - np.arange(n) + n // 2
        valid = (cols >= 0) & (cols < n)
        xstar = p * x[a] + q * x[valid]
        waves = np.exp(1j * np.outer(xstar + L, omega)) / n
        values[a, valid] = np.einsum("bm,mb->b", waves, spectrum_x[:, cols[valid]])
    return values


def fresh_planes_eval(poly: MultiPoly, planes: dict) -> np.ndarray:
    """poly on full planes, a fresh plane for every power, product and sum.

    Each power x^k is multiplied up from x on its own, x^k = fl(x^(k-1) * x).
    """
    shape = np.shape(planes["x"])
    total = np.zeros(shape, dtype=complex)
    for n, (exp, coef) in enumerate(poly.terms.items()):
        piece = np.asarray(coef.to_complex(), dtype=complex)
        for v, k in zip(poly.vars, exp):
            if k:
                power = planes[v]
                for _ in range(k - 1):
                    power = power * planes[v]
                piece = piece * power
        total = piece if n == 0 else total + piece
    return np.broadcast_to(total + 0j, shape).copy()


def python_eval(poly: MultiPoly, point: dict) -> complex:
    """poly at one point of Python floats, term by term in term order."""
    total = None
    for exp, coef in poly.terms.items():
        piece = coef.to_complex()
        for v, k in zip(poly.vars, exp):
            if k:
                power = point[v]
                for _ in range(k - 1):
                    power = power * point[v]
                # a float operand promotes to complex, as a numpy float array does
                piece = piece * complex(power, 0.0)
        total = piece if total is None else total + piece
    return (0j if total is None else total) + 0j


def meshgrid_injectivity_wick(a: MultiPoly, wick=None) -> Certificate:
    """injectivity_wick with the grid sampled on meshgrid planes."""
    sym = _model_symbol(a)
    if wick is None:
        wick = weyl_wick(sym)
    if not wick.is_real():
        return _not_applicable("coherent-state average symbol has complex coefficients")

    line = np.linspace(-WICK_RADIUS, WICK_RADIUS, WICK_COUNT)
    gx, gxi = np.meshgrid(line, line, indexing="ij")
    vals = np.real(fresh_planes_eval(wick, {"x": gx, "xi": gxi}))
    if vals.min() <= 0:
        idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
        return _not_applicable(
            "sampled non-positive value of the coherent-state average symbol",
            {"x": float(gx[idx]), "xi": float(gxi[idx]), "value": float(vals[idx])})

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
            "min_sample": float(vals.min()),
            "min_leading": float(lead_vals.min()),
            "near_zero_directions": int(near_zero.sum()),
        },
        subject={"symbol": sym.to_json(), "wick": wick.to_json()},
        notes=["sampled positivity only; not a proof of injectivity"],
    )


def meshgrid_check_positivity(a: MultiPoly) -> dict:
    """check_positivity with the grid sampled on meshgrid planes."""
    minors = _psd_minors(a)
    if minors is not None and all(v >= 0 for v in minors):
        return {"method": "exact-psd", "minors": [str(v) for v in minors]}
    line = np.linspace(-POSITIVITY_RADIUS, POSITIVITY_RADIUS, POSITIVITY_COUNT)
    gx, gxi = np.meshgrid(line, line, indexing="ij")
    vals = np.real(fresh_planes_eval(a, {"x": gx, "xi": gxi}))
    if vals.min() < 0:
        neg = vals < 0
        dist = np.where(neg, gx * gx + gxi * gxi, np.inf)
        idx = np.unravel_index(int(np.argmin(dist)), dist.shape)
        witness = (float(gx[idx]), float(gxi[idx]))
        raise PositivityError(
            f"symbol is negative at (x, xi) = ({witness[0]:g}, {witness[1]:g}): "
            f"value {float(vals[idx]):g}",
            witness=witness,
            value=float(vals[idx]),
        )
    if minors is not None:
        raise ValueError("symbol is a quadratic that is negative somewhere: its homogenized form "
                         f"has the principal minor {next(v for v in minors if v < 0)} < 0")
    return {"method": "sampled", "min_sample": float(vals.min()),
            "radius": POSITIVITY_RADIUS, "count": POSITIVITY_COUNT}


def substitute_t_conjugate(symbol: MultiPoly, change: LinearChange) -> MultiPoly:
    """t_conjugate as a ring substitution of the four linear images."""
    tp = change.transpose().rows
    ti = change.inverse().rows
    x = MultiPoly.variable("x")
    y = MultiPoly.variable("y")
    xi = MultiPoly.variable("xi")
    eta = MultiPoly.variable("eta")
    images = {
        "x": x.scale(tp[0][0]) + y.scale(tp[0][1]),
        "y": x.scale(tp[1][0]) + y.scale(tp[1][1]),
        "xi": xi.scale(ti[0][0]) + eta.scale(ti[0][1]),
        "eta": xi.scale(ti[1][0]) + eta.scale(ti[1][1]),
    }
    return symbol.promote(PHASE_VARS).substitute(images)


def multipoly_quasi_homogeneous_target(rho: Fraction, tau: Fraction, h: int, k: int) -> MultiPoly:
    """(eta + rho x)^(2h) + (xi + tau y)^(2k) by MultiPoly powers."""
    x, y, xi, eta = (MultiPoly.variable(v).promote(PHASE_VARS) for v in PHASE_VARS)
    return (eta + x.scale(rho)) ** (2 * h) + (xi + y.scale(tau)) ** (2 * k)


def _attempt(stage: str, method: str, outcome: str, detail: str) -> dict:
    return {"stage": stage, "method": method, "outcome": outcome, "detail": detail}


def _ladder_hypo(a: MultiPoly, params, shape, attempts: list[dict]):
    """Returns (exact certificate or None, evidence certificate or None)."""
    cert = hypo_certify_quadratic(a)
    if cert is None:
        attempts.append(_attempt("hypo", "quadratic_form", "no_certificate",
                                 "leading quadratic form is not positive definite"))
    elif cert.kind == "NotApplicable":
        attempts.append(_attempt("hypo", "quadratic_form", "not_applicable",
                                 cert.payload["reason"]))
    else:
        attempts.append(_attempt("hypo", "quadratic_form", "certified", cert.kind))
        return cert, None

    if params is None:
        attempts.append(_attempt("hypo", "newton_polygon", "not_applicable",
                                 "symbol is not in the two-block family"))
    else:
        cert = hypo_certify_newton(params)
        if cert is None:
            attempts.append(_attempt("hypo", "newton_polygon", "no_certificate",
                                     "mixed vertex lies inside the exponent polygon"))
        elif cert.kind == "NotApplicable":
            attempts.append(_attempt("hypo", "newton_polygon", "not_applicable",
                                     cert.payload["reason"]))
        else:
            attempts.append(_attempt("hypo", "newton_polygon", "certified", cert.kind))
            return cert, None

    cert = None if shape is None else hypo_certify_first_order(a, shape)
    if cert is None:
        attempts.append(_attempt("hypo", "first_order", "not_applicable",
                                 "symbol is not scale*(xi + alpha x^m) with Im(alpha) != 0"))
    else:
        attempts.append(_attempt("hypo", "first_order", "certified", cert.kind))
        return cert, None

    result = hypo_falsify(a)
    if result.falsified:
        attempts.append(_attempt("hypo", "falsifier", "falsified", result.witness["reason"]))
        return None, None
    evidence = unfalsified_certificate(a, result)
    attempts.append(_attempt("hypo", "falsifier", "certified",
                             f"{evidence.kind} (evidence only)"))
    return None, evidence


def _ladder_injectivity(a: MultiPoly, wick: MultiPoly, params, shape, attempts: list[dict]):
    """Returns (injectivity certificate or None, kernel witness or None)."""
    qc = extract_quadratic_coeffs(a)
    if qc is None:
        attempts.append(_attempt("injectivity", "quadratic_estimate", "not_applicable",
                                 "symbol is not a symmetric quadratic"))
    else:
        cert = injectivity_quadratic(qc)
        if cert is None:
            attempts.append(_attempt("injectivity", "quadratic_estimate", "no_certificate",
                                     "no rational split yields a non-negative margin"))
        elif cert.kind == "NotApplicable":
            attempts.append(_attempt("injectivity", "quadratic_estimate", "not_applicable",
                                     cert.payload["reason"]))
        else:
            attempts.append(_attempt("injectivity", "quadratic_estimate", "certified", cert.kind))
            return cert, None

    if params is None:
        attempts.append(_attempt("injectivity", "sum_of_squares", "not_applicable",
                                 "symbol is not in the two-block family"))
    else:
        cert = injectivity_sos(params)
        if cert is None:
            attempts.append(_attempt("injectivity", "sum_of_squares", "no_certificate",
                                     "family weights fail the positivity requirements"))
        else:
            attempts.append(_attempt("injectivity", "sum_of_squares", "certified", cert.kind))
            return cert, None

    cert = injectivity_wick(a, wick=wick)
    if cert.kind == "NotApplicable":
        attempts.append(_attempt("injectivity", "wick_positivity", "not_applicable",
                                 cert.payload["reason"]))
    else:
        attempts.append(_attempt("injectivity", "wick_positivity", "certified",
                                 f"{cert.kind} (evidence only)"))
        return cert, None

    if shape is None:
        attempts.append(_attempt("injectivity", "first_order_kernel", "not_applicable",
                                 "symbol is not scale*(xi + alpha x^m)"))
        return None, None
    cert = first_order_certify(shape.alpha, shape.m, side="operator")
    if cert.kind == "NotApplicable":
        attempts.append(_attempt("injectivity", "first_order_kernel", "not_applicable",
                                 cert.payload["reason"]))
        return None, None
    if cert.kind == "NotInjectiveWitness":
        attempts.append(_attempt("injectivity", "first_order_kernel", "witness",
                                 "kernel element stays in the Schwartz class"))
        return None, cert
    attempts.append(_attempt("injectivity", "first_order_kernel", "certified", cert.kind))
    return cert, None


def ladder_verdict(a: MultiPoly, wick: MultiPoly) -> tuple[RegularityVerdict, list[dict]]:
    """The verdict and attempts of the certifier chain on the model symbol a,
    with W[a] given as ``wick``."""
    params, shape = recognize_newton_family(a), recognize_first_order(a)
    attempts: list[dict] = []
    hypo_cert, hypo_evidence = _ladder_hypo(a, params, shape, attempts)
    inj_cert, kernel_witness = _ladder_injectivity(a, wick, params, shape, attempts)
    if hypo_cert is not None:
        if kernel_witness is not None:
            verdict = RegularityVerdict(
                status="NotRegular",
                chain=[hypo_cert, kernel_witness],
                witness=kernel_witness.payload["kernel"]["rendered"],
                grade=EXACT,
            )
        elif inj_cert is not None:
            grade = EXACT if inj_cert.grade == EXACT else EVIDENCE
            verdict = RegularityVerdict(status="Regular", chain=[hypo_cert, inj_cert], grade=grade)
        else:
            attempts.append(_attempt("verdict", "compose", "unknown",
                                     "hypo-ellipticity certified but injectivity undecided"))
            verdict = RegularityVerdict(status="Unknown", chain=[hypo_cert], grade=hypo_cert.grade)
    else:
        detail = ("hypo-ellipticity is uncertified, so the reduction to the "
                  "model operator gives no verdict about the planar operator")
        attempts.append(_attempt("verdict", "compose", "unknown", detail))
        chain = [c for c in (hypo_evidence, inj_cert, kernel_witness) if c is not None]
        grade = EXACT if all(c.grade == EXACT for c in chain) else EVIDENCE
        verdict = RegularityVerdict(status="Unknown", chain=chain, grade=grade)
    return verdict, attempts


def fieldwise_verify_certificate(cert: Certificate, symbol: Optional[MultiPoly] = None) -> VerifyResult:
    """wigreg.certify.verify_certificate as one hand-written check per kind.

    Exact kinds are re-checked with rational arithmetic; evidence kinds redo
    their deterministic sampling at the certifiers' default settings, and a
    payload that records any other sampling is rejected.  A well-formed
    subject that the sampler cannot sample (SamplingError: a coefficient or
    a sample beyond the float range) fails as such; a certificate that does
    not parse, or that its certifier refuses otherwise, fails as malformed.
    When ``symbol`` is supplied it must match the embedded subject.
    """
    try:
        if symbol is not None and "symbol" in cert.subject:
            if MultiPoly.from_json(cert.subject["symbol"]) != symbol.promote(MODEL_VARS):
                return VerifyResult(False, "certificate subject does not match the supplied symbol")

        if cert.kind == "NotApplicable":
            return VerifyResult(True, "no claim to verify")

        if cert.kind == "HypoQuadraticForm":
            sym = MultiPoly.from_json(cert.subject["symbol"])
            shape = _quadratic_shape(sym)
            if shape is None or sym.total_degree() != 2:
                return VerifyResult(False, "subject symbol is not a real quadratic")
            qc = shape[0]
            for key in ("a2", "b1", "c0"):
                if parse_rational(cert.payload[key]) != getattr(qc, key):
                    return VerifyResult(False, f"payload {key} does not match the symbol")
            a2, b1, c0 = qc.a2, qc.b1, qc.c0
            det = a2 * c0 - b1 * b1
            if parse_rational(cert.payload["det"]) != det:
                return VerifyResult(False, "payload determinant mismatch")
            if not (a2 > 0 and det > 0):
                return VerifyResult(False, "leading quadratic form is not positive-definite")
            return VerifyResult(True, "leading quadratic form positive-definite")

        if cert.kind in ("HypoNewtonPolygon", "InjSOS"):
            params = NewtonFamilyParams.from_json(cert.payload["params"])
            if "symbol" in cert.subject and family_left_symbol(params) != MultiPoly.from_json(cert.subject["symbol"]):
                return VerifyResult(False, "family parameters do not rebuild the subject symbol")
            if _weight_fault(params) is not None:
                return VerifyResult(False, "weights do not give a sum-of-squares identity"
                                    if cert.kind == "InjSOS" else "family weights out of range")
            if cert.kind == "InjSOS":
                return VerifyResult(True, "energy identity weights admissible")
            polygon = newton_polygon(params)
            if [list(v) for v in polygon.vertices] != cert.payload["vertices"]:
                return VerifyResult(False, "polygon vertices mismatch")
            mixed = params.mu + params.nu > 0
            if mixed and not polygon.complete:
                return VerifyResult(False, "polygon is not complete for a nonzero mixed block")
            return VerifyResult(True, "family weights admissible and polygon complete")

        if cert.kind == "HypoFirstOrder":
            sym = MultiPoly.from_json(cert.subject["symbol"])
            shape = recognize_first_order(sym)
            if shape is None:
                return VerifyResult(False, "subject symbol is not of first-order shape")
            if shape.alpha != GaussianRational.from_json(cert.payload["alpha"]) or shape.m != cert.payload["m"]:
                return VerifyResult(False, "payload alpha or m does not match the symbol")
            if shape.alpha.im == 0:
                return VerifyResult(False, "Im(alpha) vanishes")
            return VerifyResult(True, "complex lower-order coefficient keeps zeros compact")

        if cert.kind == "HypoUnfalsified":
            if (cert.payload["radii"] != list(DEFAULT_RADII)
                    or cert.payload["samples_per_circle"] != DEFAULT_SAMPLES):
                return VerifyResult(False, "sampling differs from the falsifier's default radii and samples")
            sym = MultiPoly.from_json(cert.subject["symbol"])
            try:
                result = hypo_falsify(sym)
            except SamplingError as exc:
                return VerifyResult(False, f"cannot re-sample the subject symbol: {exc}")
            if result.falsified:
                return VerifyResult(False, "falsifier now finds a witness")
            return VerifyResult(True, "deterministic re-sampling finds no witness")

        if cert.kind == "InjQuadraticEstimate":
            qc = QuadraticCoeffs.from_json(cert.subject["quadratic"])
            s1_sq = parse_rational(cert.payload["s1_sq"])
            s0_sq = parse_rational(cert.payload["s0_sq"])
            r1_sq = parse_rational(cert.payload["r1_sq"])
            r0_sq = parse_rational(cert.payload["r0_sq"])
            if s1_sq < 0 or s0_sq < 0 or s1_sq + s0_sq > qc.c0:
                return VerifyResult(False, "split of c0 is infeasible")
            if r1_sq * s1_sq != qc.b1 * qc.b1 or (qc.b1 == 0 and r1_sq != 0):
                return VerifyResult(False, "r1^2 s1^2 != b1^2")
            if r0_sq * s0_sq != qc.b0 * qc.b0 or (qc.b0 == 0 and r0_sq != 0):
                return VerifyResult(False, "r0^2 s0^2 != b0^2")
            lead = qc.a2 - r1_sq
            if lead <= 0:
                return VerifyResult(False, "shifted leading coefficient is not positive")
            margin = 4 * lead * (qc.a0 - r0_sq) - qc.a1 * qc.a1
            if parse_rational(cert.payload["margin"]) != margin:
                return VerifyResult(False, "margin mismatch")
            if margin < 0:
                return VerifyResult(False, "margin is negative")
            if parse_rational(cert.payload["bound"]) != margin / lead:
                return VerifyResult(False, "bound mismatch")
            if bool(cert.payload["relaxed"]) != (margin == 0):
                return VerifyResult(False, "relaxed flag inconsistent with the margin")
            return VerifyResult(True, "shifted quadratic non-negative with positive leading coefficient")

        if cert.kind == "InjWickPositive":
            if ((cert.payload["radius"], cert.payload["count"], cert.payload["directions"])
                    != (WICK_RADIUS, WICK_COUNT, WICK_DIRECTIONS)):
                return VerifyResult(False, "sampling differs from the default radius, count and directions")
            sym = MultiPoly.from_json(cert.subject["symbol"])
            try:
                fresh = injectivity_wick(sym)
            except SamplingError as exc:
                return VerifyResult(False, f"cannot re-sample the subject symbol: {exc}")
            if fresh.kind != "InjWickPositive":
                return VerifyResult(False, "re-sampling no longer certifies positivity")
            for key in ("min_sample", "min_leading"):
                if abs(fresh.payload[key] - cert.payload[key]) > 1e-9 * (1 + abs(cert.payload[key])):
                    return VerifyResult(False, f"re-sampled {key} disagrees with the payload")
            return VerifyResult(True, "deterministic re-sampling confirms positivity")

        if cert.kind in ("InjKernelEscape", "NotInjectiveWitness"):
            alpha = GaussianRational.from_json(cert.subject["alpha"])
            m = int(cert.subject["m"])
            side = cert.subject["side"]
            fresh = first_order_certify(alpha, m, side)
            if fresh.kind != cert.kind:
                return VerifyResult(False, "sign analysis disagrees with the certificate kind")
            if fresh.payload.get("kernel") != cert.payload.get("kernel"):
                return VerifyResult(False, "kernel description mismatch")
            return VerifyResult(True, "kernel decay analysis re-derived")

        return VerifyResult(False, f"no verifier for kind {cert.kind!r}")
    except (KeyError, ValueError, TypeError) as exc:
        return VerifyResult(False, f"malformed certificate: {exc}")


def one_plane_forward_samples(firsts: Sequence[Callable], v: Callable, p: float, grid,
                              boundary_tol: float) -> list[np.ndarray]:
    """Forward samples of f (x) v for each f, on whole argument and window
    planes: x + q z, x - p z, v's values and each f's values for all x rows
    at once (a z-free argument is the x column)."""
    p = float(p)
    q = 1.0 - p
    x = grid.x_nodes
    v_low, v_high = np.asarray(v(x - p * grid.L)), np.asarray(v(x + p * grid.L))
    for f in firsts:
        edge = max(
            float(np.max(np.abs(np.asarray(f(x + q * grid.L)) * v_low))),
            float(np.max(np.abs(np.asarray(f(x - q * grid.L)) * v_high))),
        )
        if edge >= boundary_tol:
            raise BoundaryDecayError(
                f"inputs reach {edge:.3e} at the z window edge (need < {boundary_tol:.1e}); "
                f"enlarge L"
            )
    col = x[:, None]
    z = np.roll(x, grid.N // 2)
    second = v(col - p * z if p else col)
    first_arg = col + q * z if q else col
    out = []
    for f in firsts:
        g = np.multiply(f(first_arg), second, dtype=complex)
        np.negative(g[:, 1::2], out=g[:, 1::2])
        np.fft.fft(g, axis=1, out=g)
        g *= grid.dx / TWO_PI_SQRT
        out.append(g)
    return out


def shift_table_wig_inverse(transform, p: float) -> np.ndarray:
    """Pair-function samples from a dual-axis transform, on whole planes:
    a divided spectrum, its ifftshift, two FFT copies, the full phase plane
    and a gather by index planes."""
    q = 1.0 - float(p)
    grid = transform.grid
    n = grid.N
    spectrum = transform.samples / ((grid.dx / TWO_PI_SQRT) * _alternating_phase(n)[None, :])
    g = np.fft.ifft(np.fft.ifftshift(spectrum, axes=1), axis=1)
    omega = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.dx)
    phase = np.exp(-1j * q * np.outer(omega, grid.x_nodes))
    shifted = np.fft.ifft(np.fft.fft(g, axis=0) * phase, axis=0)
    l_idx = np.arange(n)[:, None] - np.arange(n)[None, :] + n // 2
    window = (l_idx >= 0) & (l_idx < n)
    values = np.take_along_axis(shifted, np.clip(l_idx, 0, n - 1), axis=1)
    return np.where(window, values, 0.0)


def _check_table_nodes(table: np.ndarray, grid, dual_y: bool) -> None:
    n = grid.N
    x_nodes, y_nodes = grid.x_nodes, grid.axis_nodes(dual_y)
    wrong = ((table[:, 0].reshape(n, n) != x_nodes[:, None])
             | (table[:, 1].reshape(n, n) != y_nodes[None, :])).ravel()
    if wrong.any():
        row = int(np.argmax(wrong))
        found = tuple(table[row, :2].tolist())
        expected = (x_nodes[row // n].item(), y_nodes[row % n].item())
        raise ValueError(f"grid CSV line {row + 2} holds node {found}, "
                         f"expected {expected} from the manifest grid")


def table_read_grid(path: str) -> np.ndarray:
    """Samples of a grid file; a CSV is parsed into one (N^2, 4) table, whose
    nodes are checked as a whole before its value columns become samples."""
    manifest = read_manifest(path)
    grid = Grid2D(float(manifest["L"]), manifest["N"])
    dual_y = manifest["axis_y"] == "dual"
    n = grid.N
    size = os.path.getsize(path)
    if manifest["format"] == "raw":
        if size != 16 * n * n:
            raise ValueError(f"raw grid holds {size} bytes, expected {16 * n * n}")
        return np.fromfile(path, dtype="<c16", count=n * n).reshape(n, n)
    if size < 8 * n * n:
        raise ValueError(f"grid CSV holds {size} bytes, too few for {n * n} lines")
    if not _one_line_per_row(path, 1 + n * n):
        _reject_blank_or_comment(path)
    table = np.empty((n * n, 4))

    def work(lo: int, hi: int, out) -> None:
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                warnings.filterwarnings("ignore", r"Input line \d+ contained no data")
                rows = np.loadtxt(path, delimiter=",", skiprows=1 + lo * n, ndmin=2,
                                  comments=None,
                                  max_rows=None if hi == n else (hi - lo) * n)
        except ValueError as exc:
            raise _csv_parse_error(exc, 2 + lo * n) from None
        if rows.shape[0] != (hi - lo) * n:
            raise ValueError(f"grid CSV has {lo * n + rows.shape[0]} data lines, expected {n * n}")
        if rows.shape[1] != 4:
            raise ValueError(f"grid CSV lines have {rows.shape[1]} fields, expected 4")
        if out is None:
            table[lo * n:hi * n] = rows
        else:
            out.write(rows)

    def deliver(lo: int, hi: int, src) -> None:
        view = memoryview(table[lo * n:hi * n]).cast("B")
        if src.readinto(view) != view.nbytes:
            raise ValueError(f"grid CSV row block {lo}..{hi - 1} came back short")

    try:
        _split_rows(n, work, deliver)
        _check_table_nodes(table, grid, dual_y)
    except ValueError:
        _reject_blank_or_comment(path)
        raise
    samples = np.empty(n * n, dtype=complex)
    samples.real = table[:, 2]
    samples.imag = table[:, 3]
    return samples.reshape(n, n)
