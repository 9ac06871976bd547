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
plain (re, im) Fraction pairs, with each monomial's closed-form weight.

The falsifier oracle evaluates the symbol and both partial derivatives with
their own power tables, and re-samples the outermost circle for a growing
trend, where the library shares one power table per circle among the three
and reuses the outermost samples.

The transport oracle accumulates both first-order residuals of b in full,
as (re, im) Fraction pairs per exponent, where the library tests each
residual coefficient from its two contributions in integers.

The planar-symbol oracle composes the left symbols of the two first-order
factors one factor at a time with the general composition formula, where the
library expands the closed form b = a~(x - q eta, y + p xi).

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
pair, each evaluating v on its own plane, and applies the planar operator
to a transform it keeps, on whole planes of symbol values with a fresh
plane for every product, where the library shares v's plane among the
pairs, evaluates the symbols a block of rows at a time into the plane they
scale, and lets the operator overwrite the transform it no longer needs.

The Hermite and envelope oracles allocate a fresh plane for every operation,
where the library runs the same operations in a few reused buffers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from wigreg.certify import (
    _ZERO_REL_TOL,
    DEFAULT_RADII,
    DEFAULT_SAMPLES,
    QUAD_GRID_STAGES,
    FalsifyResult,
    _model_symbol,
    _quad_margin_at,
    _refine_circle_zero,
)
from wigreg.exact import GR_I, GR_ONE, GaussianRational, MultiPoly
from wigreg.hermite import PI_QUARTER_INV, apply_model_operator, to_polygauss
from wigreg.symbols import MODEL_VARS, PHASE_VARS, OperatorSpec, symbol_compose
from wigreg.wigner import TWO_PI_SQRT, GridFunction2D, _alternating_phase, wig_forward

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


def separate_planes_hypo_falsify(a: MultiPoly, radii: Sequence[float] = DEFAULT_RADII,
                                 samples_per_circle: int = DEFAULT_SAMPLES) -> FalsifyResult:
    """wigreg.certify.hypo_falsify with a power table per evaluation."""
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
        vals = np.abs(sym.eval_numpy({"x": xs, "xi": xis}))
        grads = np.abs(dx.eval_numpy({"x": xs, "xi": xis})) + np.abs(dxi.eval_numpy({"x": xs, "xi": xis}))
        scale = sum(c.abs_float() * radius ** sum(e) for e, c in sym.terms.items())
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
            vals = np.abs(sym.eval_numpy({"x": xs, "xi": xis}))
            grads = np.abs(dx.eval_numpy({"x": xs, "xi": xis})) + np.abs(dxi.eval_numpy({"x": xs, "xi": xis}))
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


def composed_mixed_block_mdm(m: int, n: int) -> MultiPoly:
    """Left symbol of M^m D^(2n) M^m by the general composition formula."""
    outer = MultiPoly(MODEL_VARS, {(m, 2 * n): GR_ONE})
    inner = MultiPoly(MODEL_VARS, {(m, 0): GR_ONE})
    return symbol_compose(outer, inner).restrict(MODEL_VARS)


def composed_mixed_block_dmd(m: int, n: int) -> MultiPoly:
    """Left symbol of D^n M^(2m) D^n by the general composition formula."""
    outer = MultiPoly(MODEL_VARS, {(0, n): GR_ONE})
    inner = MultiPoly(MODEL_VARS, {(2 * m, n): GR_ONE})
    return symbol_compose(outer, inner).restrict(MODEL_VARS)


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
