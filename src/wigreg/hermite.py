"""Analytic Schwartz-class test functions evaluable at arbitrary real points.

Three variants share one evaluation contract (call with a float array, get a
complex array back):

* ``Hermite(n)``: the n-th L2-normalized Hermite function, evaluated through
  the stable recurrence with the Gaussian envelope kept inside each iterate,

      h_{n+1}(t) = sqrt(2/(n+1)) t h_n(t) - sqrt(n/(n+1)) h_{n-1}(t),
      h_0(t) = pi^(-1/4) exp(-t^2/2);

* ``GaussianPacket(a, b, x0, amplitude)``: amplitude * exp(-a (t-x0)^2 + i b t);
* ``PolyGauss``: a complex polynomial prefactor times that same envelope.

PolyGauss is closed under multiplication by t and under D = -i d/dt, which is
what lets the pipeline apply a polynomial model operator to a test function
symbolically instead of on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

PI_QUARTER_INV = float(np.pi ** -0.25)


def hermite_values(n: int, t: np.ndarray) -> np.ndarray:
    """Values of the n-th normalized Hermite function (stable recurrence)."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("Hermite index must be a non-negative integer")
    t = np.asarray(t, dtype=float)
    # three buffers, each step in the order of
    # cur' = sqrt(2/(k+1)) * t * cur - sqrt(k/(k+1)) * prev
    prev = np.zeros_like(t)
    cur = np.empty_like(t)
    np.multiply(-0.5, t, out=cur)
    cur *= t
    np.exp(cur, out=cur)
    np.multiply(PI_QUARTER_INV, cur, out=cur)
    spare = np.empty_like(t)
    for k in range(n):
        np.multiply(np.sqrt(2.0 / (k + 1)), t, out=spare)
        spare *= cur
        prev *= np.sqrt(k / (k + 1.0))
        spare -= prev
        prev, cur, spare = cur, spare, prev
    return cur


def hermite_poly_coeffs(n: int) -> np.ndarray:
    """Ascending coefficients of the polynomial prefactor of Hermite(n).

    Same recurrence as hermite_values but acting on coefficient arrays; the
    shared envelope exp(-t^2/2) is factored out.  Fine for the small n used
    in tests; the pointwise route above stays stable for any n.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("Hermite index must be a non-negative integer")
    prev = np.zeros(1, dtype=complex)
    cur = np.array([PI_QUARTER_INV], dtype=complex)
    for k in range(n):
        shifted = np.concatenate(([0.0 + 0.0j], cur))
        padded_prev = np.concatenate((prev, np.zeros(shifted.size - prev.size, dtype=complex)))
        padded_cur = np.concatenate((cur, np.zeros(shifted.size - cur.size, dtype=complex)))
        prev, cur = padded_cur, np.sqrt(2.0 / (k + 1)) * shifted - np.sqrt(k / (k + 1.0)) * padded_prev
    return cur


@dataclass(frozen=True)
class Hermite:
    n: int

    def __call__(self, t) -> np.ndarray:
        return hermite_values(self.n, np.asarray(t, dtype=float)) + 0j

    def to_polygauss(self) -> "PolyGauss":
        return PolyGauss(hermite_poly_coeffs(self.n), a=0.5, b=0.0, x0=0.0)


@dataclass(frozen=True)
class GaussianPacket:
    """amplitude * exp(-a (t - x0)^2 + i b t); width a must be positive."""

    a: float = 1.0
    b: float = 0.0
    x0: float = 0.0
    amplitude: complex = 1.0

    def __post_init__(self) -> None:
        if not self.a > 0:
            raise ValueError("packet width must be positive")

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.amplitude * np.exp(-self.a * (t - self.x0) ** 2 + 1j * self.b * t)

    def to_polygauss(self) -> "PolyGauss":
        return PolyGauss(np.array([self.amplitude], dtype=complex), a=self.a, b=self.b, x0=self.x0)


class PolyGauss:
    """poly(t) * exp(-a (t - x0)^2 + i b t) with complex poly coefficients."""

    __slots__ = ("coeffs", "a", "b", "x0")

    def __init__(self, coeffs, a: float, b: float = 0.0, x0: float = 0.0):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        while c.size > 1 and c[-1] == 0:
            c = c[:-1]
        self.coeffs = c
        self.a = float(a)
        self.b = float(b)
        self.x0 = float(x0)
        if not self.a > 0:
            raise ValueError("envelope width must be positive")

    def __call__(self, t) -> np.ndarray:
        """Horner on the real and imaginary parts of the polynomial, each in
        place in its half of one complex output; t is real, so this gives the
        bits of the complex polyval.  A part whose coefficients are all zero
        stays zero."""
        t = np.asarray(t, dtype=float)
        envelope = np.subtract(t, self.x0)
        np.square(envelope, out=envelope)
        envelope *= -self.a
        np.exp(envelope, out=envelope)
        values = np.zeros(t.shape, dtype=complex)
        for part, coeffs in ((values.real, self.coeffs.real), (values.imag, self.coeffs.imag)):
            if not coeffs.any():
                continue
            part += coeffs[-1]
            for c in coeffs[-2::-1]:
                part *= t
                part += c
            part *= envelope
        if self.b != 0:
            values *= np.exp(1j * self.b * t)
        return values

    def to_polygauss(self) -> "PolyGauss":
        return self

    def _same_envelope(self, other: "PolyGauss") -> bool:
        return self.a == other.a and self.b == other.b and self.x0 == other.x0

    def add(self, other: "PolyGauss") -> "PolyGauss":
        if not self._same_envelope(other):
            raise ValueError("can only add PolyGauss functions with identical envelopes")
        n = max(self.coeffs.size, other.coeffs.size)
        c = np.zeros(n, dtype=complex)
        c[: self.coeffs.size] += self.coeffs
        c[: other.coeffs.size] += other.coeffs
        return PolyGauss(c, self.a, self.b, self.x0)

    def scaled(self, factor: complex) -> "PolyGauss":
        return PolyGauss(self.coeffs * factor, self.a, self.b, self.x0)

    def mul_t(self) -> "PolyGauss":
        """Multiplication by the coordinate: t * poly(t) stays in the class."""
        return PolyGauss(np.concatenate(([0.0 + 0.0j], self.coeffs)), self.a, self.b, self.x0)

    def apply_d(self) -> "PolyGauss":
        """D = -i d/dt: with E'/E = -2a(t-x0) + i b,

        D(P E) = (-i P' + (2 i a (t - x0) + b) P) E."""
        p = self.coeffs
        dp = np.polynomial.polynomial.polyder(p) if p.size > 1 else np.zeros(1, dtype=complex)
        t_p = np.concatenate(([0.0 + 0.0j], p))
        out = np.zeros(max(dp.size, t_p.size), dtype=complex)
        out[: dp.size] += -1j * dp
        out[: t_p.size] += 2j * self.a * t_p
        out[: p.size] += (-2j * self.a * self.x0 + self.b) * p
        return PolyGauss(out, self.a, self.b, self.x0)


def to_polygauss(f) -> PolyGauss:
    """Convert any supported test function to its PolyGauss form."""
    if hasattr(f, "to_polygauss"):
        return f.to_polygauss()
    raise TypeError(f"cannot convert {type(f).__name__} to PolyGauss")


def apply_model_operator(coeffs: Mapping[tuple[int, int], complex], f) -> PolyGauss:
    """Apply A = sum c[j,k] M^j D^k to a test function, symbolically.

    D^k acts first, then j coordinate multiplications; the result shares the
    input envelope so the terms can be summed exactly.
    """
    base = to_polygauss(f)
    total = PolyGauss(np.zeros(1, dtype=complex), base.a, base.b, base.x0)
    for (j, k), c in sorted(coeffs.items()):
        g = base
        for _ in range(k):
            g = g.apply_d()
        for _ in range(j):
            g = g.mul_t()
        total = total.add(g.scaled(complex(c)))
    return total
