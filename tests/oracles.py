"""Independent reference implementations used only by the tests.

The inverse-transform oracle evaluates every reconstructed point by its own
direct trigonometric sum, one row at a time in O(N^3), where the library
shifts whole columns with FFTs.

The forward-transform oracle evaluates both windows on full planes of
shifted arguments over z in ascending order, then centres the spectrum with
fftshift and the (-1)^k phase after the FFT, where the library takes z in FFT
order with the sign folded into the product and evaluates a z-free window on
one column.

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
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from wigreg.exact import GR_ONE, MultiPoly
from wigreg.symbols import PHASE_VARS, symbol_compose
from wigreg.wigner import TWO_PI_SQRT, GridFunction2D, _alternating_phase

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
