"""Grid application of the operators and the numerical cross-checks.

Derivatives are spectral: on a periodic axis with spacing d the operator
D = -i d/dx multiplies the FFT modes by their wavenumber omega = 2 pi * fftfreq.
On the plane the two factors are each diagonal in a mixed frame:

    Y = y + p D_x is multiplication by y + p omega_x once the x axis is in
      Fourier space (y is the dual coordinate, untouched by the x transform);
    X = x - q D_y is multiplication by x - q omega_y once the dual axis is in
      Fourier space.

X and Y do not commute ([X, Y] = i), so no single frame diagonalizes both and
each needs its own axis transform.  apply_operator_2d therefore evaluates
B = sum c[j,k] X^j Y^k (Y acting first) row by row: for each j it takes the
polynomial sum_{k>0} c[j,k] (y + p omega_x)^k by Horner on the x spectrum,
moves that row into the frame of X (inverse FFT along x, FFT along y), and
folds the rows together by Horner in x - q omega_y.  The terms without a
derivative, sum_j c[j,0] X^j, act on one FFT of the input along y.  With R
rows that hold a derivative the count is 2R + 3 one-axis FFTs at most (one
in each frame, two per row, one back), whatever the orders, where applying
the factors one at a time takes two per factor.  A factor whose symbol has
no wavenumber term is diagonal in sample space and needs no FFT: at p = 0,
Y is multiplication by y and the count is R + 2 at most, all along y; at
p = 1, X is multiplication by x, the result needs no way back, and the count
is R + [R > 0], all along x.

Two independent checks tie the exact layer to the transform:

* intertwine_residual compares B applied to Wig_p[u (x) v] against
  Wig_p[(A u) (x) v], with A u computed symbolically (PolyGauss closure).
  The edges of every pair are checked on lines before any plane is built.
  Then Wig_p[u (x) v] is filled a block of x rows at a time, and B runs on
  it: B takes its frame of Y by an FFT in place over that transform, which
  nothing reads again, and its last row lands in that same plane.  Since B
  evaluates its symbols and their Horner polynomials a block of rows at a
  time, straight into the plane they scale, it adds to the transform only
  the plane of the terms without a derivative, the running total and one
  row in flight: four planes at most, whatever the orders.  After B has run,
  the right side Wig_p[(A u) (x) v] is built and compared block by block
  (wigner._forward_blocks), so it never fills a plane.  Each forward reads
  a window's blocks as views of one lattice line where the grid and p put
  its arguments on one, v included, so v costs both sides two lines; off
  the lattice, a window is evaluated on each block.  All of
  this keeps the operations, and so the bits, of separate transforms.  The
  generator mode is two such checks, one per factor and each with its
  transform of u (x) v: D u against the derivative factor and x u against
  the position factor, each of which works in place over its transform, so
  each holds that plane and a few blocks of rows;
* wick_energy_compare compares the discrete energy form (A u | u), with A u
  computed symbolically as above, with the phase-space average of the
  coherent-state symbol W[a] against |V u|^2, V the coherent-state transform.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from math import isfinite
from typing import Callable, Iterator, Mapping

import numpy as np

from .exact import GR_ONE, MultiPoly, rational_float
from .hermite import PI_QUARTER_INV, _gaussian, apply_model_operator, to_polygauss
from .symbols import MODEL_VARS, OperatorSpec
from .wigner import (Grid2D, GridFunction2D, _alternating_phase, _check_edges, _forward_blocks,
                     _row_blocks, _wavenumbers)

BOUNDARY_WARN_REL = 1e-12


class BoundaryDecayWarning(UserWarning):
    """Samples do not decay at the grid boundary; wrap-around will pollute derivatives."""


@np.errstate(over="ignore", invalid="ignore")
def _check_operator_range(spec: OperatorSpec, grid: Grid2D, sup: float = 1.0) -> None:
    """Refuse a grid on which sup * sum |c[j,k]| X^j Y^k overflows, sup a bound of
    the samples B acts on, X = L (1 + |q|) and Y = pi N (1 + |p|) / (2 L) the
    bounds of |x - q omega_y| and |y + p omega_x| there."""
    big_x = np.float64(grid.L) * (1 + abs(float(spec.q)))
    big_y = np.pi * grid.N * (1 + abs(float(spec.p))) / np.float64(2 * grid.L)
    if not isfinite(sup * sum(abs(c) * big_x ** j * big_y ** k
                              for (j, k), c in spec.complex_coeffs().items())):
        raise ValueError("the operator's values overflow the float range on the grid "
                         f"with L = {grid.L:g} and N = {grid.N}")


def _check_boundary_decay(spec: OperatorSpec, transform: GridFunction2D) -> None:
    """Refuse finite samples that spec's operator would take beyond the float
    range, then warn when they have not decayed at the grid boundary."""
    samples = transform.samples
    sup = float(np.max(np.abs(samples)))
    if sup == 0.0:
        return
    if isfinite(sup):
        _check_operator_range(spec, transform.grid, sup)
    edge = float(max(
        np.max(np.abs(samples[0, :])), np.max(np.abs(samples[-1, :])),
        np.max(np.abs(samples[:, 0])), np.max(np.abs(samples[:, -1])),
    ))
    if edge > BOUNDARY_WARN_REL * sup:
        warnings.warn(
            f"apply_operator_2d: boundary magnitude {edge:.3e} exceeds {BOUNDARY_WARN_REL:.0e} "
            f"of the sup norm {sup:.3e}; expect wrap-around error of that order",
            BoundaryDecayWarning,
            stacklevel=3,
        )


def _horner(coeffs: Mapping[int, complex], plane: np.ndarray):
    """sum_k coeffs[k] * plane**k by Horner, without elementwise powers."""
    top = max(coeffs)
    value = coeffs[top]
    for k in range(top - 1, -1, -1):
        value = value * plane
        if k in coeffs:
            value += coeffs[k]
    return value


def _poly_times(coeffs: Mapping[int, complex], sym: Callable[[slice], np.ndarray],
                plane: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = P(s) * plane with P(s) = sum_k coeffs[k] s^k, where sym(rows)
    gives the symbol s on a block of rows.  It runs block by block, so
    neither s nor P(s) ever fills a plane; out may be plane itself."""
    for rows in _row_blocks(plane):
        np.multiply(_horner(coeffs, sym(rows)), plane[rows], out=out[rows])
    return out


class _CheckPlane(GridFunction2D):
    """A plane the intertwining check owns.  The check finds non-finite
    samples once, in _relative_gap, so the constructor does not scan it,
    and apply_operator_2d may overwrite it."""

    __slots__ = ()

    def __init__(self, grid: Grid2D, samples: np.ndarray):
        self.grid = grid
        self.samples = samples
        self.dual_y = True


def apply_operator_2d(spec: OperatorSpec, transform: GridFunction2D) -> GridFunction2D:
    """Apply B = sum c[j,k] (x - q D_y)^j (y + p D_x)^k on the plane grid.

    B w = sum_j X^j R_j(Y) w + P(X) w with R_j(Y) = sum_{k>0} c[j,k] Y^k and
    P(X) = sum_j c[j,0] X^j.  P(X) takes w straight into the frame of X: a
    round trip through the frame of Y would spread rounding error evenly over
    the x axis, where X^j magnifies it at the window edges.  It runs first,
    so the frame of Y may then be taken in place over a _CheckPlane, the one
    input whose samples are not left as they are; when no row follows, P(X)
    takes its frame of X in that plane instead.  The rows fold by Horner in
    X from the top j down, so only the running total and one row are alive
    at a time; the last row lands in w's frame of Y when that plane is a
    copy or the check's own.  P(X) w is added last.
    """
    if not transform.dual_y:
        raise ValueError("the planar operator acts on a transform with a dual second axis")
    _check_boundary_decay(spec, transform)
    grid = transform.grid
    samples = transform.samples
    p, q = float(spec.p), float(spec.q)
    owned = isinstance(transform, _CheckPlane)
    rows, plain = {}, {}
    for (j, k), c in spec.complex_coeffs().items():
        if k:
            rows.setdefault(j, {})[k] = c
        else:
            plain[j] = c
    # A symbol is given on a block of rows (see _poly_times).  A factor whose
    # symbol has no wavenumber term (Y at p = 0, X at q = 0) is diagonal in
    # the samples' frame: no FFT, and its symbol is a line of the grid.
    x_col = grid.x_nodes[:, None]
    x_sym = lambda rows: x_col[rows]
    if q:
        q_omega = q * _wavenumbers(grid.N, grid.dy_dual)
        x_sym = lambda rows: x_col[rows] - q_omega[None, :]
    dual_row = grid.dual_nodes[None, :]
    y_sym = lambda rows: dual_row
    if p:
        p_omega = p * _wavenumbers(grid.N, grid.dx)
        y_sym = lambda rows: dual_row + p_omega[rows, None]
    term = None
    if plain:
        # the check's own plane is free once no row is left to read it
        spent = owned and not rows
        in_x = np.fft.fft(samples, axis=1, out=samples if spent else None) if q else samples
        term = _poly_times(plain, x_sym, in_x,
                           in_x if q or spent else np.empty(samples.shape, complex))
    total = spare = None
    if rows:
        in_y = np.fft.fft(samples, axis=0, out=samples if owned else None) if p else samples
        last = min(rows) if owned or p else None
        for j in range(max(rows), -1, -1):
            if total is not None:
                for block in _row_blocks(total):
                    total[block] *= x_sym(block)
            if j in rows:
                out = in_y if j == last else np.empty(samples.shape, complex) if spare is None else spare
                row = _poly_times(rows[j], y_sym, in_y, out)
                # each row is a plane of its own, so it changes frame in place
                if p:
                    np.fft.ifft(row, axis=0, out=row)
                if q:
                    np.fft.fft(row, axis=1, out=row)
                if total is None:
                    total = row
                else:
                    total += row
                    spare = row   # added, so free for the next row
    if total is None:
        total = term
    elif term is not None:
        total += term
    if q:
        np.fft.ifft(total, axis=1, out=total)
    # the check's planes give a plane of the check, which it scans itself
    return (_CheckPlane if owned else GridFunction2D)(grid, total)


DEFAULT_GRID = Grid2D(12.0, 256)


INTERTWINE_BOUNDARY_TOL = 1e-8


def _relative_gap(lhs: np.ndarray, rhs_blocks: Iterator[tuple[slice, np.ndarray]]) -> float:
    """max|l - r| / max(max|l|, max|r|) for the plane l = lhs and the right
    side r that rhs_blocks gives a block of rows at a time; lhs is
    overwritten with the difference.  The maxima are taken block by block,
    which gives the bits of whole planes, so the right side is never a
    plane.  A non-finite sample on either side makes its max|.| non-finite,
    which raises the ValueError of GridFunction2D's scan."""
    size = gap = 0.0
    for rows, rhs in rhs_blocks:
        left = lhs[rows]
        top = (float(np.max(np.abs(left))), float(np.max(np.abs(rhs))))
        if not all(map(isfinite, top)):
            raise ValueError("samples must be finite")
        size = max(size, *top)
        left -= rhs
        gap = max(gap, float(np.max(np.abs(left))))
    return gap / max(size, 1e-300)


@np.errstate(invalid="ignore", over="ignore")
def intertwine_residual(spec: OperatorSpec, u, v, p, grid: Grid2D = DEFAULT_GRID,
                        mode: str = "full") -> list[tuple[str, float]]:
    """Relative sup-norm residuals of the intertwining identity.

    mode "full": compare B Wig_p[u (x) v] with Wig_p[(A u) (x) v], A u computed
    symbolically.  mode "generators": check the two factor relations

        Wig_p[(D u) (x) v] = (y + p D_x) Wig_p[u (x) v],
        Wig_p[(x u) (x) v] = (x - q D_y) Wig_p[u (x) v].

    Each relation is one check: its operator applied to a transform of
    u (x) v of its own, compared with the forward of its right side a block
    of rows at a time.  The edges of every pair are checked on lines before
    any plane, so a pair that has not decayed at the window edge fails
    first.  The boundary precondition, INTERTWINE_BOUNDARY_TOL, is looser
    than the standalone transform: applying the operator multiplies the
    windows by polynomials, and edge mass of 1e-8 still sits two orders
    below the 1e-6 comparison tolerance.

    A grid an operator overflows is refused first (_check_operator_range),
    and a transform it overflows before it runs; any other inf or NaN
    sample raises _relative_gap's ValueError, with no numpy warning.
    """
    from fractions import Fraction

    if mode not in ("full", "generators"):
        raise ValueError("mode must be 'full' or 'generators'")
    p = Fraction(p)
    spec = spec.with_p(p)
    pf = rational_float(p, "p")
    if mode == "full":
        checks = [("intertwining", spec, apply_model_operator(spec.complex_coeffs(), u))]
    else:
        base = to_polygauss(u)
        checks = [("derivative_factor", OperatorSpec({(0, 1): GR_ONE}, p), base.apply_d()),
                  ("position_factor", OperatorSpec({(1, 0): GR_ONE}, p), base.mul_t())]
    for _, operator, _ in checks:
        _check_operator_range(operator, grid)
    _check_edges((u, *(right for _, _, right in checks)), v, pf, grid, INTERTWINE_BOUNDARY_TOL)

    def gap(operator: OperatorSpec, right: Callable) -> float:
        w = _CheckPlane(grid, np.empty((grid.N, grid.N), dtype=complex))
        deque(_forward_blocks(u, v, pf, grid, w.samples), maxlen=0)
        # the operator may work in w's plane: nothing reads w afterwards
        lhs = apply_operator_2d(operator, w).samples
        del w
        return _relative_gap(lhs, _forward_blocks(right, v, pf, grid))

    return [(name, gap(operator, right)) for name, operator, right in checks]


# ---------------------------------------------------------------------------
# coherent-state energy comparison
# ---------------------------------------------------------------------------


def coherent_transform(u: Callable, grid: Grid2D) -> np.ndarray:
    """V u on (spatial nodes) x (dual nodes): integral of u against the
    conjugated window, one FFT per window center."""
    t = grid.x_nodes
    ut = np.asarray(u(t))
    windowed = PI_QUARTER_INV * ut[None, :] * _gaussian(grid.x_nodes[:, None], 0.5, t[None, :])
    spectrum = np.fft.fftshift(np.fft.fft(windowed, axis=1), axes=1)
    return grid.dx * _alternating_phase(grid.N)[None, :] * spectrum


@dataclass(frozen=True)
class WickEnergy:
    direct: float
    wick: float
    gap: float


def wick_energy_compare(a: MultiPoly, u, grid: Grid2D = DEFAULT_GRID) -> WickEnergy:
    """Compare (A u | u) with the phase-space average of W[a] over |V u|^2.

    Requires W[a] to have real coefficients (a ValueError otherwise) and a
    window u with to_polygauss, since A u is computed symbolically; both
    sides are plain Riemann sums on the grid, spectrally accurate for
    Schwartz-class inputs.  W[a] is sampled a block of rows at a time
    (MultiPoly.grid_blocks), so a sample beyond the float range raises a
    ValueError too.
    """
    from .symbols import weyl_wick

    sym = a.promote(MODEL_VARS) if set(a.vars) <= set(MODEL_VARS) else None
    if sym is None:
        raise ValueError(f"expected a model symbol in {MODEL_VARS}, got variables {a.vars}")
    wick_sym = weyl_wick(sym)
    if not wick_sym.is_real():
        raise ValueError("coherent-state average symbol has complex coefficients; "
                         "the energy comparison needs a real symbol")

    t = grid.x_nodes
    ut = np.asarray(u(t))
    aut = apply_model_operator({jk: c.to_complex() for jk, c in sym.terms.items()}, u)(t)
    direct = float(np.real(np.sum(aut * np.conj(ut)) * grid.dx))

    vu = coherent_transform(u, grid)
    weight = np.abs(vu) ** 2
    wick = sum(float(np.sum(block.real * weight[rows]))
               for rows, block in wick_sym.grid_blocks(grid.x_nodes, grid.dual_nodes))
    wick *= grid.dx * grid.dy_dual / (2.0 * np.pi)
    return WickEnergy(direct=direct, wick=wick, gap=abs(direct - wick))
