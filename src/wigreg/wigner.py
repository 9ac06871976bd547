"""Discretized Wigner-like transform pairing two line functions into a plane.

For a parameter p (q = 1 - p) the transform of a pure tensor u (x) v is

    Wig_p[u,v](x, y) = (2 pi)^(-1/2) * integral exp(-i z y) u(x + q z) v(x - p z) dz.

Discretization: spatial nodes x_j = -L + j*(2L/N) serve both the x axis and
the integration variable z; the dual axis carries y_k = k*pi/L for
k = -N/2 .. N/2-1.  The forward takes the z nodes in FFT order, z_l = l*dz
for l < N/2 and (l - N)*dz above (the x nodes rolled by N/2), so that
exp(-i z_l y_k) = exp(-2 pi i l k / N) for every k.  Putting the sign (-1)^l
on the product moves the output frequency k = -N/2 to index 0, so one FFT per
x row lands in ascending order and evaluates the integral exactly up to
truncation:

    Wig[j, k] = (dz / sqrt(2 pi)) * DFT_l((-1)^l u(x_j + q z_l) v(x_j - p z_l))[k + N/2].

When p = 0 the argument of v does not depend on z (and u's does not when
p = 1); that window is evaluated once per x node and broadcast along z.

Samples are stored row-major with the first index on the x axis and both axes
ascending.  The inverse undoes the same DFT exactly and reads the pair
function off the plane: G(x, z) = f(x + q z, x - p z) gives
f(s, t) = G(p s + q t, s - t).  On nodes s = x_a, t = x_b the difference is
the z node z_l with l = a - b + N/2 whenever it falls inside the window
[-L, L) (outside, the true value is below the decay floor and is set to
zero), and the first argument is x_a - q z_l: column l shifted by q z_l,
which one FFT along x, a phase factor and one inverse FFT give for every
point at once.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

TWO_PI_SQRT = float(np.sqrt(2.0 * np.pi))

DEFAULT_BOUNDARY_TOL = 1e-12


class BoundaryDecayError(ValueError):
    """Raised when inputs have not decayed enough at the integration boundary."""


@dataclass(frozen=True)
class Grid2D:
    """Square grid: N spatial nodes on [-L, L) and the matching dual axis."""

    L: float
    N: int

    def __post_init__(self) -> None:
        if not self.L > 0:
            raise ValueError("grid half-width L must be positive")
        n = self.N
        if not isinstance(n, int) or n < 4 or (n & (n - 1)) != 0:
            raise ValueError("sample count N must be a power of two, at least 4")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def dy_dual(self) -> float:
        return float(np.pi / self.L)

    @property
    def x_nodes(self) -> np.ndarray:
        return -self.L + self.dx * np.arange(self.N)

    @property
    def dual_nodes(self) -> np.ndarray:
        return self.dy_dual * np.arange(-self.N // 2, self.N // 2)

    def axis_nodes(self, dual: bool) -> np.ndarray:
        return self.dual_nodes if dual else self.x_nodes


class GridFunction2D:
    """Complex samples over a Grid2D; the second axis is dual or spatial."""

    __slots__ = ("grid", "samples", "dual_y")

    def __init__(self, grid: Grid2D, samples: np.ndarray, dual_y: bool = True):
        arr = np.asarray(samples, dtype=complex)
        if arr.shape != (grid.N, grid.N):
            raise ValueError(f"samples must be shaped ({grid.N}, {grid.N}), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("samples must be finite")
        self.grid = grid
        self.samples = arr
        self.dual_y = bool(dual_y)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def l2_norm(self) -> float:
        dy = self.grid.dy_dual if self.dual_y else self.grid.dx
        return float(np.sqrt(np.sum(np.abs(self.samples) ** 2) * self.grid.dx * dy))

    def __sub__(self, other: "GridFunction2D") -> "GridFunction2D":
        if self.grid != other.grid or self.dual_y != other.dual_y:
            raise ValueError("grid functions live on different grids")
        return GridFunction2D(self.grid, self.samples - other.samples, self.dual_y)

    def copy(self) -> "GridFunction2D":
        return GridFunction2D(self.grid, self.samples.copy(), self.dual_y)


def _alternating_phase(n: int) -> np.ndarray:
    k = np.arange(-n // 2, n // 2)
    return np.where(k % 2 == 0, 1.0, -1.0)


def wig_forward(u: Callable, v: Callable, p: float, grid: Grid2D,
                boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> GridFunction2D:
    """Transform a pure tensor u (x) v on the given grid.

    Both inputs are evaluated analytically at the shifted arguments, so no
    interpolation enters the forward direction.  The product must lie below
    ``boundary_tol`` at the z window edges; otherwise the quadrature window
    is too small and a BoundaryDecayError reports the worst offender.
    """
    p = float(p)
    q = 1.0 - p
    x = grid.x_nodes
    edge = max(
        float(np.max(np.abs(np.asarray(u(x + q * grid.L)) * np.asarray(v(x - p * grid.L))))),
        float(np.max(np.abs(np.asarray(u(x - q * grid.L)) * np.asarray(v(x + p * grid.L))))),
    )
    if edge >= boundary_tol:
        raise BoundaryDecayError(
            f"inputs reach {edge:.3e} at the z window edge (need < {boundary_tol:.1e}); "
            f"enlarge L"
        )
    # z in FFT order with the sign (-1)^l, so the FFT lands centred (see the
    # module docstring); a window whose argument does not move with z is
    # evaluated on the x column alone
    col = x[:, None]
    z = np.roll(x, grid.N // 2)
    g = np.multiply(u(col + q * z if q else col), v(col - p * z if p else col), dtype=complex)
    np.negative(g[:, 1::2], out=g[:, 1::2])
    samples = np.fft.fft(g, axis=1, out=g)
    samples *= grid.dx / TWO_PI_SQRT
    return GridFunction2D(grid, samples, dual_y=True)


def wig_inverse(transform: GridFunction2D, p: float) -> GridFunction2D:
    """Recover the pair function f(s, t) from a forward transform.

    The DFT inversion is exact; the reconstruction evaluates the pair
    function at (s, t) through G(p s + q t, s - t), zeroing points whose
    difference falls outside the z window.  Each column of G is needed at
    its x nodes shifted by a constant, so it is evaluated by its
    trigonometric interpolant: an FFT along x, the phase exp(-i w q z_l),
    and an inverse FFT.  This is exact for any p on band-limited columns.
    """
    if not transform.dual_y:
        raise ValueError("wig_inverse expects a transform with a dual second axis")
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
    return GridFunction2D(grid, np.where(window, values, 0.0), dual_y=False)


# ---------------------------------------------------------------------------
# grid file formats: CSV or raw float64 pairs, plus a JSON manifest sidecar
# ---------------------------------------------------------------------------


def manifest_path(data_path: str) -> str:
    return data_path + ".manifest.json"


def _write_csv(gf: GridFunction2D, path: str) -> None:
    """Write x,y,re,im rows, byte for byte as np.savetxt with fmt="%.17g".

    Each node coordinate is formatted once; one %-format per x row then
    fills in that row's samples, so only one row of Python floats is alive
    at a time.
    """
    cells = [("%.17g" % y) + ",%.17g,%.17g" for y in gf.grid.axis_nodes(gf.dual_y).tolist()]
    pairs = np.ascontiguousarray(gf.samples).view(np.float64)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("x,y,re,im\n")
        for x, row in zip(gf.grid.x_nodes.tolist(), pairs):
            lead = "%.17g," % x
            fh.write((lead + ("\n" + lead).join(cells) + "\n") % tuple(row.tolist()))


def write_grid(gf: GridFunction2D, path: str, fmt: str = "csv",
               extra: Optional[dict] = None) -> None:
    """Write samples plus a manifest {"L", "N", "axis_y", "format", ...}."""
    if fmt not in ("csv", "raw"):
        raise ValueError("format must be 'csv' or 'raw'")
    manifest = {
        "L": gf.grid.L,
        "N": gf.grid.N,
        "axis_y": "dual" if gf.dual_y else "spatial",
        "format": fmt,
    }
    if extra:
        manifest.update(extra)
    if fmt == "csv":
        _write_csv(gf, path)
    else:
        pairs = np.empty(gf.samples.shape + (2,), dtype="<f8")
        pairs[..., 0] = gf.samples.real
        pairs[..., 1] = gf.samples.imag
        pairs.tofile(path)
    with open(manifest_path(path), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path: str) -> dict:
    """Read the manifest sidecar of a grid file written by write_grid."""
    mpath = manifest_path(path)
    if not os.path.exists(mpath):
        raise FileNotFoundError(f"missing grid manifest {mpath}")
    with open(mpath, encoding="utf-8") as fh:
        return json.load(fh)


def _check_csv_nodes(table: np.ndarray, grid: Grid2D, dual_y: bool) -> None:
    """The x,y columns must list the manifest grid's nodes in write_grid's
    order (%.17g round-trips them exactly); name the first line that does not."""
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


def read_grid(path: str) -> GridFunction2D:
    """Read a grid file written by write_grid (manifest sidecar required)."""
    manifest = read_manifest(path)
    grid = Grid2D(float(manifest["L"]), int(manifest["N"]))
    dual_y = manifest.get("axis_y", "dual") == "dual"
    fmt = manifest.get("format", "csv")
    if fmt == "csv":
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        if table.shape != (grid.N * grid.N, 4):
            raise ValueError(f"grid CSV has shape {table.shape}, expected ({grid.N * grid.N}, 4)")
        _check_csv_nodes(table, grid, dual_y)
        samples = (table[:, 2] + 1j * table[:, 3]).reshape(grid.N, grid.N)
    elif fmt == "raw":
        flat = np.fromfile(path, dtype="<f8")
        if flat.size != 2 * grid.N * grid.N:
            raise ValueError(f"raw grid holds {flat.size} floats, expected {2 * grid.N * grid.N}")
        pairs = flat.reshape(grid.N, grid.N, 2)
        samples = pairs[..., 0] + 1j * pairs[..., 1]
    else:
        raise ValueError(f"unknown grid format {fmt!r}")
    return GridFunction2D(grid, samples, dual_y=dual_y)
