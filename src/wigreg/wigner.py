"""Discretized Wigner-like transform pairing two line functions into a plane.

For a parameter p (q = 1 - p) the transform of a pure tensor u (x) v is

    Wig_p[u,v](x, y) = (2 pi)^(-1/2) * integral exp(-i z y) u(x + q z) v(x - p z) dz.

Discretization: spatial nodes x_j = -L + j*(2L/N) serve both the x axis and
the integration variable z; the dual axis carries y_k = k*pi/L for
k = -N/2 .. N/2-1.  The forward evaluates its windows on z in node order and
writes their product in FFT order, z_l = l*dz for l < N/2 and (l - N)*dz
above (nodes N/2 .. N-1, then 0 .. N/2-1), so that exp(-i z_l y_k) =
exp(-2 pi i l k / N) for every k.  Putting the sign (-1)^l on the product
moves the output frequency k = -N/2 to index 0, so one FFT per x row lands
in ascending order and evaluates the integral exactly up to truncation:

    Wig[j, k] = (dz / sqrt(2 pi)) * DFT_l((-1)^l u(x_j + q z_l) v(x_j - p z_l))[k + N/2].

Each window's arguments form the plane x_j + s_l, with s = q z for u and
s = -p z for v, and the plane holds few distinct values.  A window whose
argument does not depend on z (s = 0: v at p = 0, u at p = 1) takes the
nodes themselves.  When L and p are dyadic, the x_j and the s_l form
exact progressions in one small unit, and every rounded sum x_j + s_l is
an exact point of one lattice line.  Where exact arithmetic on the floats
proves this and the line holds at most LATTICE_POINTS_PER_NODE points per
node, the window is evaluated once on that line and each block of rows is
one strided view of it; otherwise it is evaluated on each block's
arguments.  Either way each sample has the same bits.

Samples are stored row-major with the first index on the x axis and both axes
ascending.  The inverse undoes the same DFT exactly and reads the pair
function off the plane: G(x, z) = f(x + q z, x - p z) gives
f(s, t) = G(p s + q t, s - t).  On nodes s = x_a, t = x_b the difference is
the z node z_l with l = a - b + N/2 whenever it falls inside the window
[-L, L) (outside, the true value is below the decay floor and is set to
zero), and the first argument is x_a - q z_l: column l shifted by q z_l,
which one FFT along x, a phase factor and one inverse FFT give for every
point at once.

Memory is counted in planes, one N x N complex array each.  The forward
fills its output plane one block of x rows at a time, so it holds that
plane, a few blocks of rows and the windows' lattice lines (O(N) each); the
inverse runs in one plane besides its input; a CSV read holds the samples
and the lines this process parses (two planes divided by the number of row
blocks), and a CSV write the work space of CSV_CHUNK values (under half a
plane at N = 512).
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import shutil
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .exact import load_json

TWO_PI_SQRT = float(np.sqrt(2.0 * np.pi))

DEFAULT_BOUNDARY_TOL = 1e-12

# largest sample count per axis: an N x N complex plane takes 16 N^2 bytes,
# 256 MiB at the limit, and its CSV text about 80 N^2.  The forward holds one
# plane and the inverse one besides its input, each plus blocks of
# BLOCK_POINTS points (an eighth of a plane at N = 512, a 512th at the
# limit), and a CSV read two on two or more CPUs: transform --inverse peaks
# at 2.3 planes at N = 512 and near two, 512 MiB, at the limit
MAX_GRID_N = 4096


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
        if self.L == math.inf:
            raise ValueError("grid half-width L must be finite")
        n = self.N
        if not isinstance(n, int) or n < 4 or (n & (n - 1)) != 0:
            raise ValueError("sample count N must be a power of two, at least 4")
        if n > MAX_GRID_N:
            raise ValueError(f"grid size N exceeds the limit of {MAX_GRID_N}")
        if math.isinf(2.0 * self.L / n):
            raise ValueError(f"grid half-width L = {self.L:g} is too large: "
                             "its node spacing 2L/N overflows")

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


def _wavenumbers(n: int, spacing: float) -> np.ndarray:
    """The symbol of D = -i d/dx on the FFT modes of a periodic axis."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=spacing)


def _alternating_phase(n: int) -> np.ndarray:
    k = np.arange(-n // 2, n // 2)
    return np.where(k % 2 == 0, 1.0, -1.0)


# grid points in one block of rows: the stages that fill or read a plane a
# block at a time hold about this many points in each temporary
BLOCK_POINTS = 32768


def _row_blocks(plane: np.ndarray) -> list[slice]:
    step = max(1, BLOCK_POINTS * plane.shape[0] // plane.size)
    return [slice(lo, lo + step) for lo in range(0, plane.shape[0], step)]


def _check_edges(firsts: Sequence[Callable], v: Callable, p: float, grid: Grid2D,
                 boundary_tol: float) -> None:
    """Raise BoundaryDecayError when some f (x) v reaches boundary_tol at the
    z window edge, f one of firsts.  It runs on lines, v's two shared, so a
    pair that has not decayed fails before any N x N plane is built."""
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


# most points of a window's lattice line per x node; a window whose
# argument plane needs more is evaluated a block of rows at a time
LATTICE_POINTS_PER_NODE = 8


def _lattice(x: np.ndarray, s: np.ndarray) -> Optional[tuple[np.ndarray, int, int, int]]:
    """A line of floats t and integers k0, down, along with fl(x_j + s_l) =
    t[k0 + down j + along l] for every j and l, or None when this is not
    proved or t would hold more than LATTICE_POINTS_PER_NODE points per x
    node.  x and s hold at least two values each.

    A node -0 refuses the line, as -0 + +0 is +0; then x_j + 0 is x_j, so
    for s = 0 the line is x itself, with along = 0.  Otherwise every value
    is read as a whole number X_j or S_l of units 2^-e, e the finest
    exponent at which the largest |value| is below 2^52 units; a value that
    is not a whole number of units refuses the lattice.  X and S must be
    progressions, of steps hx and hs, and every exact sum X_j + S_l, an
    integer below 2^53 in size, then lies on lo + k h, lo the least sum and
    h = gcd(hx, hs); each such integer is a float.  Where it stays a float
    in units of 2^-e, so does every exact sum, and the rounded sum is that
    float.  A zero sum is +0 on the line and in the plane.  Each step is
    exact, and checked.
    """
    if np.signbit(x[x == 0]).any():
        return None
    if not s.any():
        return x, 0, 1, 0
    n = len(x)
    values = np.concatenate((x, s))
    top = float(np.max(np.abs(values)))
    if not top < math.inf:
        return None
    e = 52 - math.frexp(top)[1]
    with np.errstate(under="ignore"):
        units = np.ldexp(values, e)
    ints = units.astype(np.int64)
    if not (np.array_equal(ints, units) and np.array_equal(np.ldexp(units, -e), values)):
        return None
    xs, ss = ints[:n], ints[n:]
    hx, hs = int(xs[1] - xs[0]), int(ss[1] - ss[0])
    if (np.diff(xs) != hx).any() or (np.diff(ss) != hs).any():
        return None
    step = math.gcd(hx, hs) or 1
    lo = int(xs.min() + ss.min())
    points = (int(xs.max() + ss.max()) - lo) // step + 1
    if points > LATTICE_POINTS_PER_NODE * n:
        return None
    whole = (lo + step * np.arange(points)).astype(float)
    with np.errstate(over="ignore", under="ignore"):
        line = np.ldexp(whole, -e)
    if not np.array_equal(np.ldexp(line, e), whole):
        return None
    return line, (int(xs[0] + ss[0]) - lo) // step, hx // step, hs // step


def _window_rows(f: Callable, x: np.ndarray, s: np.ndarray) -> Callable[[slice], np.ndarray]:
    """f on the argument plane x_j + s_l as a function of a block of rows.

    Where the plane lies on a line (_lattice), f is evaluated once on it
    and each block is one read-only strided view of the values; any other
    plane is evaluated a block at a time.
    """
    lattice = _lattice(x, s)
    if lattice is None:
        return lambda rows: f(x[rows, None] + s)
    line, k0, down, along = lattice
    values = np.asarray(f(line))
    strides = (down * values.strides[0], along * values.strides[0])

    def view(rows: slice) -> np.ndarray:
        top, stop, _ = rows.indices(len(x))
        return as_strided(values[k0 + down * top:], (stop - top, len(s)), strides, writeable=False)

    return view


def _forward_blocks(u: Callable, v: Callable, p: float, grid: Grid2D,
                    out: Optional[np.ndarray] = None) -> Iterator[tuple[slice, np.ndarray]]:
    """Finished row blocks of Wig_p[u (x) v]: pairs (rows, block), block the
    samples on those x rows (_row_blocks), written into out[rows] when out
    is given and into a block of their own otherwise.

    Both windows run over z in node order, u's arguments x_j + s_l with
    s = q z and v's with s = -p z (_window_rows: views of a line, or a
    block at a time).  The product of the two on a block is written in FFT
    order of z, given the sign (-1)^l, transformed and scaled in place, so
    every value has the bits it would have on a whole plane, and only a few
    blocks of rows are alive at a time.  The edges are not checked here
    (_check_edges).
    """
    q = 1.0 - p
    x = grid.x_nodes
    n, half = grid.N, grid.N // 2
    # x - p z is x + (-(p z)), bit for bit
    first = _window_rows(u, x, q * x)
    second = _window_rows(v, x, -(p * x))
    for rows in _row_blocks(np.broadcast_to(x[:, None], (n, n))):
        g = np.empty((len(x[rows]), n), dtype=complex) if out is None else out[rows]
        a, b = first(rows), second(rows)
        # FFT order of z starts at z = 0, node N/2 (see the module docstring)
        np.multiply(a[:, half:], b[:, half:], out=g[:, :half], dtype=complex)
        np.multiply(a[:, :half], b[:, :half], out=g[:, half:], dtype=complex)
        # off its line a window is a block of values, freed before the caller's turn
        del a, b
        np.negative(g[:, 1::2], out=g[:, 1::2])
        np.fft.fft(g, axis=1, out=g)
        g *= grid.dx / TWO_PI_SQRT
        yield rows, g


def wig_forward(u: Callable, v: Callable, p: float, grid: Grid2D,
                boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> GridFunction2D:
    """Transform a pure tensor u (x) v on the given grid.

    Both inputs are evaluated analytically at the shifted arguments, so no
    interpolation enters the forward direction; they must be pointwise
    functions of their argument array.  The product must lie below
    ``boundary_tol`` at the z window edges; otherwise the quadrature window
    is too small and a BoundaryDecayError reports the worst offender.  Each
    window is evaluated once on its lattice line, which each block of x
    rows reads as a view, or a block at a time off the lattice
    (_forward_blocks), so besides its one output plane the forward holds
    only a few blocks of rows.
    """
    p = float(p)
    _check_edges((u,), v, p, grid, boundary_tol)
    samples = np.empty((grid.N, grid.N), dtype=complex)
    deque(_forward_blocks(u, v, p, grid, samples), maxlen=0)
    return GridFunction2D(grid, samples, dual_y=True)


def wig_inverse(transform: GridFunction2D, p: float) -> GridFunction2D:
    """Recover the pair function f(s, t) from a forward transform.

    The DFT inversion is exact; the reconstruction evaluates the pair
    function at (s, t) through G(p s + q t, s - t), zeroing points whose
    difference falls outside the z window.  Each column of G is needed at
    its x nodes shifted by a constant, so it is evaluated by its
    trigonometric interpolant: an FFT along x, the phase exp(-i w q z_l),
    and an inverse FFT.  This is exact for any p on band-limited columns.

    All of it runs in one plane besides the input: each half of the dual
    axis is divided into the opposite half of the plane (the ifftshift), the
    FFTs run in place, the phase is built one block of frequency rows at a
    time, and each row is gathered in place from one copy of itself.
    """
    if not transform.dual_y:
        raise ValueError("wig_inverse expects a transform with a dual second axis")
    q = 1.0 - float(p)
    grid = transform.grid
    n = grid.N
    half = n // 2
    samples = transform.samples
    divisor = (grid.dx / TWO_PI_SQRT) * _alternating_phase(n)
    g = np.empty((n, n), dtype=complex)
    np.divide(samples[:, half:], divisor[half:], out=g[:, :half])
    np.divide(samples[:, :half], divisor[:half], out=g[:, half:])
    np.fft.ifft(g, axis=1, out=g)

    omega = _wavenumbers(n, grid.dx)
    x = grid.x_nodes
    np.fft.fft(g, axis=0, out=g)
    for rows in _row_blocks(g):
        g[rows] *= np.exp(-1j * q * np.outer(omega[rows], x))
    np.fft.ifft(g, axis=0, out=g)

    # f(x_a, x_b) is G[a, l] with l = a - b + N/2: with r row a reversed, it
    # is r[b + s] for s = N/2 - 1 - a, and zero where b + s leaves [0, N)
    for a in range(n):
        r = g[a, ::-1].copy()
        s = half - 1 - a
        if s >= 0:
            g[a, :n - s] = r[s:]
            g[a, n - s:] = 0.0
        else:
            g[a, -s:] = r[:n + s]
            g[a, :-s] = 0.0
    return GridFunction2D(grid, g, dual_y=False)


# ---------------------------------------------------------------------------
# grid file formats: CSV or raw float64 pairs, plus a JSON manifest sidecar
# ---------------------------------------------------------------------------


def manifest_path(data_path: str) -> str:
    return data_path + ".manifest.json"


# fewest grid points worth a forked row block; see _split_rows
MIN_BLOCK_POINTS = 16384


def _block_count(n: int) -> int:
    """Row blocks for an n x n grid: one per usable CPU, each of at least
    MIN_BLOCK_POINTS points, and one where the platform cannot fork."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or not hasattr(os, "fork"):
        return 1
    return max(1, min(len(affinity(0)), n * n // MIN_BLOCK_POINTS))


def _run_block(work: Callable, lo: int, hi: int, pipe_fd: int) -> None:
    """Body of a forked child: run work on rows [lo, hi) into memory, then
    send b"+" and those bytes, or b"!" and the error message, and exit
    without returning into the parent's stack or flushing its buffers."""
    code = 1
    try:
        out = io.BytesIO()
        try:
            work(lo, hi, out)
            head = b"+"
        except Exception as exc:
            out = io.BytesIO((str(exc) or type(exc).__name__).encode("utf-8", "replace"))
            head = b"!"
        with open(pipe_fd, "wb") as pipe:
            pipe.write(head)
            pipe.write(out.getbuffer())
        code = 0
    finally:
        os._exit(code)


def _split_rows(n: int, work: Callable, deliver: Callable) -> None:
    """Run ``work`` over the x rows of an n x n grid in row blocks, one per
    usable CPU (see _block_count).

    ``work(lo, hi, out)`` handles rows [lo, hi).  Block 0 runs in this
    process with ``out`` None: work puts its result in place itself.  Every
    other block runs in a child started with os.fork, where work writes its
    bytes to the binary stream ``out``; the child sends them back through a
    pipe, and ``deliver(lo, hi, src)`` takes them in here from the readable
    pipe ``src``, block by block in row order, while the children of later
    blocks may still be running.  A child's exception reaches the caller as
    a ValueError with the child's message.  Every child is reaped, also when
    this process's own block raises.
    """
    blocks = _block_count(n)
    bounds = [k * n // blocks for k in range(blocks + 1)]
    children = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _run_block(work, lo, hi, write_fd)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb"), lo, hi))
        work(0, bounds[1], None)
        while children:
            pid, src, lo, hi = children[0]
            head = src.read(1)
            if head == b"+":
                deliver(lo, hi, src)
            elif head == b"!":
                raise ValueError(src.read().decode("utf-8", "replace"))
            src.close()
            children.pop(0)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if head != b"+" or status != 0:
                raise ChildProcessError(f"grid row block {lo}..{hi - 1} worker failed "
                                        f"with exit status {status}")
    finally:
        # closing the pipes first stops any child still writing (EPIPE)
        for _, src, _, _ in children:
            src.close()
        for pid, _, _, _ in children:
            os.waitpid(pid, 0)


# values formatted per call of g17.fields while writing a CSV: four rows at N = 512
CSV_CHUNK = 4096


def _node_fields(nodes: np.ndarray) -> np.ndarray:
    """The "%.17g," text of each node, one NUL-padded row per node."""
    texts = [b"%.17g," % x for x in nodes.tolist()]
    width = max(map(len, texts))
    joined = b"".join(text.ljust(width, b"\0") for text in texts)
    return np.frombuffer(joined, dtype=np.uint8).reshape(len(texts), width)


def _write_csv(gf: GridFunction2D, path: str) -> None:
    """Write x,y,re,im rows, byte for byte as np.savetxt with fmt="%.17g".

    The node texts are formatted once.  The samples go through g17.fields,
    CSV_CHUNK values at a time, into fixed-width lines of NUL-padded
    fields: x text, y text, re field, ",", im field and a line feed.  One
    line buffer per row block holds the y texts and separators; each chunk
    fills in its x texts and fields, and dropping the NUL bytes leaves its
    text.  Grids of at least 2 * MIN_BLOCK_POINTS points are formatted in
    forked row blocks, one per usable CPU; this process writes its own rows
    straight to the file and copies each child's text after them in
    chunks, so the bytes do not depend on the number of blocks.
    """
    from . import g17       # imported by the first CSV write only

    n = gf.grid.N
    xs = _node_fields(gf.grid.x_nodes)
    ys = _node_fields(gf.grid.axis_nodes(gf.dual_y))
    pairs = np.ascontiguousarray(gf.samples).view(np.float64).reshape(n, n, 2)
    with open(path, "wb") as fh:

        def work(lo: int, hi: int, out) -> None:
            write = (fh if out is None else out).write
            rows = min(hi - lo, max(1, CSV_CHUNK // (2 * n)))
            nodes = xs.shape[1] + ys.shape[1]
            lines = np.zeros((rows, n, nodes + 2 * (g17.WIDTH + 1)), dtype=np.uint8)
            lines[:, :, xs.shape[1]:nodes] = ys
            cells = lines[:, :, nodes:].reshape(rows, n, 2, g17.WIDTH + 1)
            cells[..., g17.WIDTH] = np.frombuffer(b",\n", dtype=np.uint8)
            source, index = g17.buffers((rows, n, 2))
            for start in range(lo, hi, rows):
                stop = min(start + rows, hi)
                block = lines[:stop - start]
                block[:, :, :xs.shape[1]] = xs[start:stop, None]
                g17.fields(pairs[start:stop], cells[:stop - start, ..., :g17.WIDTH],
                           source, index[:stop - start])
                write(block[block != 0])

        fh.write(b"x,y,re,im\n")
        _split_rows(n, work, lambda lo, hi, src: shutil.copyfileobj(src, fh))


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
        # re, im float64 pairs: the samples' own bytes on a little-endian host
        np.ascontiguousarray(gf.samples, dtype="<c16").tofile(path)
    with open(manifest_path(path), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:        # an int beyond the float range
        return False


def read_manifest(path: str) -> dict:
    """Read the manifest sidecar of a grid file written by write_grid.

    L must be a finite number, N an integer, axis_y "dual" or "spatial" and
    format "csv" or "raw"; a ValueError names the first key that is missing
    or of the wrong kind.  The file is read by exact.load_json, so an integer
    too long for any rational stays text, which its check refuses.  Other
    keys pass through unchecked."""
    mpath = manifest_path(path)
    if not os.path.exists(mpath):
        raise FileNotFoundError(f"missing grid manifest {mpath}")
    with open(mpath, encoding="utf-8") as fh:
        manifest = load_json(fh.read())
    if not isinstance(manifest, dict):
        raise ValueError(f"grid manifest {mpath} must hold a JSON object")
    checks = (
        ("L", "a finite number", _is_finite_number),
        ("N", "an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
        ("axis_y", "'dual' or 'spatial'", lambda v: v in ("dual", "spatial")),
        ("format", "'csv' or 'raw'", lambda v: v in ("csv", "raw")),
    )
    for key, kind, ok in checks:
        if key not in manifest:
            raise ValueError(f"grid manifest {mpath} has no {key!r}")
        if not ok(manifest[key]):
            raise ValueError(f"grid manifest key {key!r} must be {kind}, got {manifest[key]!r:.80}")
    return manifest


def _check_csv_nodes(lines: np.ndarray, first: int, grid: Grid2D, dual_y: bool) -> None:
    """``lines`` holds the x,y,re,im lines of the x rows from row ``first`` on,
    shaped (rows, N, 4).  Their x,y columns must list the manifest grid's
    nodes in write_grid's order (%.17g round-trips them exactly); name the
    first line that does not."""
    x_nodes, y_nodes = grid.x_nodes[first:first + len(lines)], grid.axis_nodes(dual_y)
    wrong = (lines[..., 0] != x_nodes[:, None]) | (lines[..., 1] != y_nodes)
    if wrong.any():
        row, col = divmod(int(np.argmax(wrong)), grid.N)
        found = tuple(lines[row, col, :2].tolist())
        expected = (x_nodes[row].item(), y_nodes[col].item())
        raise ValueError(f"grid CSV line {(first + row) * grid.N + col + 2} holds node {found}, "
                         f"expected {expected} from the manifest grid")


# bytes read at a time while counting the lines of a CSV grid
LINE_COUNT_CHUNK = 1 << 20


def _one_line_per_row(path: str, lines: int) -> bool:
    """Whether the file holds exactly ``lines`` lines, each ended by a line
    feed, and no carriage return.  One read in LINE_COUNT_CHUNK pieces;
    numpy counts the line feeds of each."""
    chunk = bytearray(LINE_COUNT_CHUNK)
    view = np.frombuffer(chunk, dtype=np.uint8)
    breaks = 0
    last = 0
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(chunk):
            if chunk.find(b"\r", 0, size) >= 0:
                return False
            breaks += int(np.count_nonzero(view[:size] == ord("\n")))
            last = chunk[size - 1]
    return breaks == lines and last == ord("\n")


def _reject_blank_or_comment(path: str) -> None:
    """Raise a ValueError naming the first line after the header that is
    blank or a '#' comment, read with the newline handling of np.loadtxt."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        next(fh, None)
        for number, line in enumerate(fh, start=2):
            text = line.strip()
            if not text or text.startswith("#"):
                kind = "a '#' comment" if text else "blank"
                raise ValueError(f"grid CSV line {number} is {kind}; every line "
                                 f"after the header holds x,y,re,im")


def _csv_parse_error(exc: ValueError, line: int) -> ValueError:
    """np.loadtxt's error for a call that starts on file line ``line``, its
    row named by file line.  numpy counts rows from 0, and from 1 where the
    number of columns changes; its "at row" follows any field it quotes."""
    text = str(exc)
    line -= text.startswith("the number of columns changed")
    return ValueError(re.sub(r" at row (\d+)(?!.* at row )",
                             lambda at: f" on grid CSV line {int(at[1]) + line}", text))


def read_grid(path: str, manifest: Optional[dict] = None) -> GridFunction2D:
    """Read a grid file written by write_grid (manifest sidecar required).

    The data file's size is checked against the manifest's N before the
    samples are allocated.  A CSV of at least 2 * MIN_BLOCK_POINTS lines is
    parsed in forked row blocks, one per usable CPU.  Each process reads its
    rows from one handle a block of rows (_row_blocks) at a time, by
    np.loadtxt calls that stop after their lines: the values are those of
    one call, and numpy's errors name the file line they met, whatever the
    number of blocks.  It checks each block's nodes (_check_csv_nodes) and
    keeps only their re, im columns, copied into the one plane of samples
    here, or sent through the pipe by a child and read here, in row order,
    straight into that plane.  So besides the samples the read holds one
    block of parsed lines.  Every line after the header must hold a node: a
    blank or '#' line is rejected at any size and any block count, by a
    ValueError that names it.  Both formats give back the written samples
    bit for bit, the sign of every zero included.
    ``manifest`` is read_manifest(path) when the caller already has it.
    """
    if manifest is None:
        manifest = read_manifest(path)
    grid = Grid2D(float(manifest["L"]), manifest["N"])
    dual_y = manifest["axis_y"] == "dual"
    n = grid.N
    size = os.path.getsize(path)
    if manifest["format"] == "raw":
        if size != 16 * n * n:
            raise ValueError(f"raw grid holds {size} bytes, expected {16 * n * n}")
        samples = np.fromfile(path, dtype="<c16", count=n * n).reshape(n, n)
        return GridFunction2D(grid, samples, dual_y=dual_y)

    # every line after the header holds at least "0,0,0,0\n"
    if size < 8 * n * n:
        raise ValueError(f"grid CSV holds {size} bytes, too few for {n * n} lines")
    if not _one_line_per_row(path, 1 + n * n):
        # np.loadtxt skips empty lines, which only the line count shows
        _reject_blank_or_comment(path)
    samples = np.empty((n, n), dtype=complex)
    # filled as float pairs: adding 1j * im would turn a -0.0 into +0.0
    values = samples.view(np.float64).reshape(n, n, 2)

    def work(lo: int, hi: int, out) -> None:
        target = values[lo:hi]
        with open(path) as fh, warnings.catch_warnings():
            # a block past the end of the file is reported by the line
            # count, an empty line by _reject_blank_or_comment
            warnings.filterwarnings("ignore", r"(loadtxt: input|Input line \d+) contained no data")
            for block in _row_blocks(target[..., 0]):
                first, want = lo + block.start, len(target[block]) * n
                # on from where the last call stopped; to the end from the last row
                try:
                    rows = np.loadtxt(fh, delimiter=",", skiprows=0 if block.start else 1 + lo * n,
                                      ndmin=2, comments=None,
                                      max_rows=None if first * n + want == n * n else want)
                except ValueError as exc:
                    raise _csv_parse_error(exc, 2 + first * n) from None
                if rows.shape[0] != want:
                    raise ValueError(f"grid CSV has {first * n + rows.shape[0]} data lines, expected {n * n}")
                if rows.shape[1] != 4:
                    raise ValueError(f"grid CSV lines have {rows.shape[1]} fields, expected 4")
                lines = rows.reshape(-1, n, 4)
                _check_csv_nodes(lines, first, grid, dual_y)
                target[block] = lines[..., 2:]
        if out is not None:
            out.write(target)

    def deliver(lo: int, hi: int, src) -> None:
        target = memoryview(values[lo:hi]).cast("B")
        if src.readinto(target) != target.nbytes:
            raise ValueError(f"grid CSV row block {lo}..{hi - 1} came back short")

    try:
        _split_rows(n, work, deliver)
    except ValueError:
        # a '#' or blank line fails a block's parse or shifts the blocks after it
        _reject_blank_or_comment(path)
        raise
    return GridFunction2D(grid, samples, dual_y=dual_y)
