"""Exact arithmetic: Gaussian-rational scalars and sparse multivariate polynomials.

Every symbolic identity in the package is checked over this layer, so all
coefficients are complex numbers with rational real and imaginary parts and
every operation (arithmetic, formal derivatives, substitution) is carried out
with zero rounding.

Conventions:

* The variable universe is fixed to ``("x", "y", "xi", "eta")``.  A polynomial
  lives over an ordered subset of it and operands are auto-promoted to the
  union of their variable sets.
* Rationals serialize as decimal-free ``"num/den"`` strings (``"num"`` when
  the denominator is 1); decimals are rejected on parse.
* Every number read from outside (a spec, a polynomial, a certificate, a
  command-line argument) goes through ``parse_rational`` or ``parse_int``,
  which hold it to the limits below.
* Term maps never hold zero coefficients, and terms are ordered
  graded-lexicographically (total degree first, then exponents) so printing
  and serialization are deterministic.
"""

from __future__ import annotations

import json
import re as _regex
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_string
from math import isfinite, log10
from typing import Iterable, Iterator, Mapping, Optional, Union

import numpy as np

VARS = ("x", "y", "xi", "eta")

_RATIONAL_PATTERN = _regex.compile(r"^[+-]?\d+(?:/0*[1-9]\d*)?$")

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "GaussianRational"]

# Largest operator order, polynomial degree, exponent or family weight read
# from outside.  The planar symbol of an order-d spec has up to C(d + 4, 4)
# terms, so larger orders fail fast instead of running for hours.
MAX_ORDER = 64
# Largest size of one rational read from outside: the bits of its numerator
# plus those of its denominator.
MAX_RATIONAL_BITS = 2048
# More significant digits than this put a rational beyond MAX_RATIONAL_BITS
MAX_RATIONAL_DIGITS = int(MAX_RATIONAL_BITS * log10(2)) + 2


def rational_bits(value: Fraction) -> int:
    """Size of a rational: the bits of its numerator and of its denominator."""
    return abs(value.numerator).bit_length() + value.denominator.bit_length()


def parse_rational(value, field: str = "rational") -> Fraction:
    """The rational ``field`` read from outside: a decimal-free string such as
    "-3/4" or "7", or a finite JSON number (never a bool), no larger than
    MAX_RATIONAL_BITS.  A string is measured by its significant digits before
    it is converted, so an oversized one fails here and never reaches the
    4300-digit limit of Python's int()."""
    if isinstance(value, str):
        if len(value) > MAX_RATIONAL_DIGITS:
            digits = sum(len(part.strip().lstrip("+-0")) for part in value.split("/"))
            if digits > MAX_RATIONAL_DIGITS:
                raise ValueError(f"{field} has {digits} digits, beyond the limit of "
                                 f"{MAX_RATIONAL_BITS} bits per rational")
        if not _RATIONAL_PATTERN.match(value.strip()):
            raise ValueError(f"malformed rational {value!r:.80}: expected 'num' or 'num/den', den != 0")
        r = Fraction(value)
    elif type(value) is int or type(value) is float and isfinite(value):
        r = Fraction(value)
    else:
        raise ValueError(f"rational must be a string or a finite number, got {value!r:.80}")
    bits = rational_bits(r)
    if bits > MAX_RATIONAL_BITS:
        raise ValueError(f"{field} has {bits} bits, beyond the limit of "
                         f"{MAX_RATIONAL_BITS} bits per rational")
    return r


def parse_int(value, field: str, least: int = 0, most: Optional[int] = MAX_ORDER) -> int:
    """The index, exponent or weight ``field`` read from outside: a JSON
    integer (never a bool, a float or a string) from ``least`` to ``most``."""
    if type(value) is not int or value < least:
        raise ValueError(f"{field} must be a {'positive' if least else 'non-negative'} integer")
    if most is not None and value > most:
        raise ValueError(f"{field} = {value} exceeds the limit of {most}")
    return value


def _json_int(text: str):
    """A JSON integer literal; one too long for any rational that
    MAX_RATIONAL_BITS allows stays text, which the reader of its field refuses
    by name, before int() converts it."""
    return text if len(text.lstrip("-")) > MAX_RATIONAL_DIGITS else int(text)


# maps every digit to 9, so a run of 9s in the translated text is a digit run
_DIGITS_AS_NINES = bytes.maketrans(b"012345678", b"999999999")
_LONG_DIGIT_RUN = b"9" * (MAX_RATIONAL_DIGITS + 1)


def load_json(text: str):
    """Parse JSON from outside, keeping over-long integer literals as text.

    A text with no run of more than MAX_RATIONAL_DIGITS digits holds no such
    literal, so json's C scanner reads its integers; one C-speed pass over
    the text's bytes decides.  Any other text calls _json_int per integer."""
    runs = text.encode("utf-8", "surrogatepass").translate(_DIGITS_AS_NINES)
    if _LONG_DIGIT_RUN not in runs:
        return json.loads(text)
    return json.loads(text, parse_int=_json_int)


def format_rational(value: RationalLike) -> str:
    return str(value if isinstance(value, Fraction) else Fraction(value))


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if type(self.re) is not Fraction or type(self.im) is not Fraction:
            object.__setattr__(self, "re", _as_fraction(self.re))
            object.__setattr__(self, "im", _as_fraction(self.im))

    # -- constructors ------------------------------------------------------

    @classmethod
    def coerce(cls, value: ScalarLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(_as_fraction(value))
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.re.numerator or self.im.numerator)

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        norm = o.re * o.re + o.im * o.im
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / norm,
            (self.im * o.re - self.re * o.im) / norm,
        )

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.coerce(other) / self

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = GR_ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def to_complex(self, factor: int = 1) -> complex:
        """Nearest complex float to factor * self: one correctly rounded
        integer division per part.  A part beyond the float range raises a
        ValueError that gives its digit count."""
        re, im = self.re, self.im
        try:
            return factor * re.numerator / re.denominator + 1j * (factor * im.numerator / im.denominator)
        except OverflowError:
            digits = _digit_count(max(abs(factor * part.numerator) // part.denominator for part in (re, im)))
            raise ValueError(f"coefficient has {digits} digits, beyond the float range") from None

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"re": format_rational(self.re), "im": format_rational(self.im)}

    @classmethod
    def from_json(cls, obj: Mapping) -> "GaussianRational":
        return cls(*(parse_rational(obj.get(part, "0"), part) for part in ("re", "im")))

    def __str__(self) -> str:
        if self.im == 0:
            return format_rational(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{format_rational(self.im)}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{format_rational(mag)}i"
        return f"{format_rational(self.re)}{sign}{imag}"


GR_ZERO = GaussianRational(Fraction(0))
GR_ONE = GaussianRational(Fraction(1))
GR_I = GaussianRational(Fraction(0), Fraction(1))


def _digit_count(n: int) -> int:
    """Decimal digits of |n|, without the int-to-str conversion that Python
    limits to 4300 digits."""
    n = abs(n)
    digits = int((n.bit_length() - 1) * 0.30102999566398120) + 1 if n else 1
    return digits + (n >= 10 ** digits)


def _monomial_text(vars_: tuple[str, ...], exp: tuple) -> str:
    """x^2*xi for exp (2, 1) over (x, xi); empty for the constant monomial."""
    return "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(vars_, exp) if k)


# Rows of x per block that MultiPoly.grid_blocks evaluates: 40 rows of a
# 401-point line are about 16k samples, a tenth of the whole grid.
GRID_BLOCK_ROWS = 40


class SamplingError(ValueError):
    """A polynomial cannot be sampled in floats: a coefficient or a sampled
    value lies beyond the float range."""


class NonFiniteSampleError(SamplingError):
    """A sampled polynomial value is inf or NaN."""


def _validate_vars(vars_: Iterable[str]) -> tuple[str, ...]:
    vs = tuple(vars_)
    positions = []
    for v in vs:
        if v not in VARS:
            raise ValueError(f"unknown variable {v!r}: universe is {VARS}")
        positions.append(VARS.index(v))
    if positions != sorted(positions) or len(set(vs)) != len(vs):
        raise ValueError(f"variables must be an ordered subset of {VARS}, got {vs}")
    return vs


class MultiPoly:
    """Sparse polynomial over GaussianRational coefficients.

    ``terms`` maps exponent tuples (parallel to ``vars``) to nonzero
    coefficients.  The zero polynomial has an empty term map.
    The constructor takes the package's term maps as given (each key a tuple
    of len(vars) non-negative ints); from_json checks outside polynomials.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars_: Iterable[str], terms: Mapping[tuple, GaussianRational]):
        self.vars = _validate_vars(vars_)
        clean: dict[tuple, GaussianRational] = {}
        for exp, coef in terms.items():
            c = coef if type(coef) is GaussianRational else GaussianRational.coerce(coef)
            if not c.is_zero():
                clean[exp] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars_: Iterable[str] = ()) -> "MultiPoly":
        return cls(vars_, {})

    @classmethod
    def constant(cls, value: ScalarLike, vars_: Iterable[str] = ()) -> "MultiPoly":
        vs = tuple(vars_)
        return cls(vs, {(0,) * len(vs): value})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return cls((name,), {(1,): GR_ONE})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.terms.values())

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: str) -> int:
        if var not in self.vars:
            return 0 if self.terms else -1
        i = self.vars.index(var)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def coefficient(self, powers: Mapping[str, int]) -> GaussianRational:
        """Coefficient of the monomial with the given powers (others zero)."""
        for v in powers:
            if v not in self.vars and powers[v] != 0:
                return GR_ZERO
        exp = tuple(powers.get(v, 0) for v in self.vars)
        return self.terms.get(exp, GR_ZERO)

    def leading_form(self) -> "MultiPoly":
        """Homogeneous part of top total degree."""
        d = self.total_degree()
        return MultiPoly(self.vars, {e: c for e, c in self.terms.items() if sum(e) == d})

    def constant_term(self) -> GaussianRational:
        return self.terms.get((0,) * len(self.vars), GR_ZERO)

    # -- promotion ---------------------------------------------------------

    def promote(self, vars_: Iterable[str]) -> "MultiPoly":
        vs = tuple(vars_)
        if vs == self.vars:
            return self
        if any(v not in vs for v in self.vars):
            raise ValueError(f"cannot promote {self.vars} into {vs}")
        index = {v: vs.index(v) for v in self.vars}
        terms = {}
        for exp, coef in self.terms.items():
            e = [0] * len(vs)
            for v, k in zip(self.vars, exp):
                e[index[v]] = k
            terms[tuple(e)] = coef
        return MultiPoly(vs, terms)

    @staticmethod
    def _union_vars(a: "MultiPoly", b: "MultiPoly") -> tuple[str, ...]:
        names = set(a.vars) | set(b.vars)
        return tuple(v for v in VARS if v in names)

    # -- arithmetic --------------------------------------------------------

    def _coerce_operand(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            return other
        return MultiPoly.constant(GaussianRational.coerce(other), self.vars)

    def __add__(self, other) -> "MultiPoly":
        o = self._coerce_operand(other)
        vs = MultiPoly._union_vars(self, o)
        a, b = self.promote(vs), o.promote(vs)
        terms = dict(a.terms)
        for exp, coef in b.terms.items():
            terms[exp] = terms.get(exp, GR_ZERO) + coef
        return MultiPoly(vs, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce_operand(other))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce_operand(other) + (-self)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        o = self._coerce_operand(other)
        vs = MultiPoly._union_vars(self, o)
        a, b = self.promote(vs), o.promote(vs)
        terms: dict[tuple, GaussianRational] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(i + j for i, j in zip(e1, e2))
                prod = c1 * c2
                if e in terms:
                    s = terms[e] + prod
                    if s.is_zero():
                        del terms[e]
                    else:
                        terms[e] = s
                elif not prod.is_zero():
                    terms[e] = prod
        return MultiPoly(vs, terms)

    __rmul__ = __mul__

    def scale(self, scalar: ScalarLike) -> "MultiPoly":
        c = GaussianRational.coerce(scalar)
        return MultiPoly(self.vars, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.constant(1, self.vars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiPoly.constant(GaussianRational.coerce(other))
        if not isinstance(other, MultiPoly):
            return NotImplemented
        vs = MultiPoly._union_vars(self, other)
        return self.promote(vs).terms == other.promote(vs).terms

    def __hash__(self):
        full = self.promote(VARS)
        return hash(frozenset(full.terms.items()))

    # -- calculus ----------------------------------------------------------

    def diff(self, var: str, order: int = 1) -> "MultiPoly":
        """Formal partial derivative of the given order; no two terms merge,
        so each is built directly, in term order."""
        if var not in self.vars:
            raise ValueError(f"unknown variable {var!r}: polynomial has {self.vars}")
        if not isinstance(order, int) or order < 0:
            raise ValueError("derivative order must be a non-negative integer")
        i = self.vars.index(var)
        terms = self.terms
        for _ in range(order):
            nxt: dict[tuple, GaussianRational] = {}
            for exp, coef in terms.items():
                k = exp[i]
                if k:
                    e = exp[:i] + (k - 1,) + exp[i + 1:]
                    nxt[e] = GaussianRational(coef.re * k, coef.im * k)
            terms = nxt
        return MultiPoly(self.vars, terms)

    def substitute(self, images) -> "MultiPoly":
        """Ring substitution: every variable of self must have an image."""
        mapped: dict[str, MultiPoly] = {}
        for v in self.vars:
            if v not in images:
                raise ValueError(f"no substitution image for variable {v!r}")
            img = images[v]
            if not isinstance(img, MultiPoly):
                img = MultiPoly.constant(GaussianRational.coerce(img))
            mapped[v] = img
        power_cache: dict[tuple[str, int], MultiPoly] = {}

        def power(v: str, k: int) -> MultiPoly:
            key = (v, k)
            if key not in power_cache:
                power_cache[key] = mapped[v] ** k
            return power_cache[key]

        result = MultiPoly.zero()
        for exp, coef in self.terms.items():
            term = MultiPoly.constant(coef)
            for v, k in zip(self.vars, exp):
                if k:
                    term = term * power(v, k)
            result = result + term
        return result

    # -- evaluation --------------------------------------------------------

    def grid_blocks(self, x: np.ndarray, xi: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
        """Values on the tensor grid x × xi, GRID_BLOCK_ROWS rows of x at a
        time: pairs (rows, block), block[i, j] the value at (x[rows][i],
        xi[j]), shape (len(x[rows]), len(xi)).

        The coefficients are converted once per grid, and each block is
        evaluated as eval_numpy evaluates a column of x and the row of xi, so
        every grid point gets the float operations, in the same order, that
        meshgrid planes would give it, and only one block is held at a time.
        A polynomial over x alone or xi alone gives read-only broadcast
        views.  eval_numpy's errors come as it raises them: a coefficient
        beyond the float range before the first block, a value beyond it
        (inf or NaN) before its block is yielded.
        """
        terms = self._float_terms({"x": x, "xi": xi})
        for start in range(0, len(x), GRID_BLOCK_ROWS):
            rows = slice(start, min(start + GRID_BLOCK_ROWS, len(x)))
            vals = self._sum_terms({"x": x[rows, None], "xi": xi[None, :]}, terms, None)
            yield rows, np.broadcast_to(vals, (rows.stop - start, len(xi)))

    def eval_numpy(self, values: Mapping[str, "np.ndarray | float"],
                   powers: Optional[dict] = None) -> np.ndarray:
        """Numerically evaluate at real points (arrays broadcast); complex
        points raise a ValueError.

        A power is the left-to-right product of exactly rounded multiplies,
        x^1 = x and x^k = fl(x^(k-1) * x), never numpy's ``pow``, whose
        result depends on the SIMD code path numpy picks for the machine; so
        the sampled floats are the same wherever numpy runs.  The error of
        x^k is at most (k - 1) * 2^-53 relative.  ``powers`` caches the
        power planes under ``(v, k)``; polynomials evaluated at the same
        ``values`` may share one dict.  Term by term, the real and imaginary
        parts are summed into two float planes from +0.0: complex products
        and sums plus 0j give the same bits, as they differ only in signs of
        zeros and neither kind of sum is ever -0.0.  A coefficient beyond the
        float range raises a SamplingError naming its term; a value beyond
        it (inf or NaN) raises NonFiniteSampleError, with no numpy warning.
        """
        return self._sum_terms(values, self._float_terms(values), powers)

    def _float_terms(self, values: Mapping, along: Optional[str] = None) -> list[tuple[tuple, complex]]:
        """(exponent, coefficient as a complex float) for each term, in term
        order, of self or of its first derivative ``along`` a variable
        (to_complex of the exponent times the coefficient), once every
        variable has a real value.  A missing or complex value, then a
        coefficient beyond the float range, raises a ValueError; the latter
        is a SamplingError naming its term."""
        for v in self.vars:
            if v not in values:
                raise ValueError(f"no value supplied for variable {v!r}")
            if np.iscomplexobj(values[v]):
                raise ValueError(f"variable {v!r} takes real points only")
        at = None if along is None else self.vars.index(along)
        terms = []
        for exp, coef in self.terms.items():
            k = 1 if at is None else exp[at]
            if k:
                exp = exp if at is None else exp[:at] + (k - 1,) + exp[at + 1:]
                try:
                    terms.append((exp, coef.to_complex(k)))
                except ValueError as exc:
                    name = _monomial_text(self.vars, exp) or "constant"
                    raise SamplingError(f"{name} term: {exc}") from None
        return terms

    def _sum_terms(self, values: Mapping, terms: list[tuple[tuple, complex]],
                   powers: Optional[dict]) -> np.ndarray:
        """eval_numpy on the terms _float_terms gave."""
        power_cache: dict[tuple[str, int], np.ndarray] = {} if powers is None else powers
        wanted = {(v, k) for exp, _ in terms for v, k in zip(self.vars, exp) if k}
        shape = np.broadcast_shapes(*[np.shape(values[v]) for v in self.vars])
        # a plane of imaginary parts only for a polynomial that has them
        sums = [np.zeros(shape)] + [np.zeros(shape)] * any(c.imag for _, c in terms)
        with np.errstate(over="ignore", invalid="ignore"):
            for v, k in sorted(wanted - power_cache.keys()):
                # from the highest cached power of v below k: one new array,
                # multiplied up in place; no power between is cached, and no
                # closure holds the planes in a reference cycle
                base = np.asarray(values[v])
                j = max((i for w, i in power_cache if w == v and i < k), default=1)
                plane = base if j == 1 else power_cache[v, j]
                if j < k:
                    plane = plane * base
                    for _ in range(k - j - 1):
                        plane *= base
                power_cache[v, k] = plane

            for exp, coef in terms:
                factors = [power_cache[v, k] for v, k in zip(self.vars, exp) if k]
                for part, total in zip((coef.real, coef.imag), sums):
                    # a zero part adds zeros, or NaN where a power is inf or
                    # NaN, and there the other part gives inf or NaN as well
                    if part or not coef:
                        for factor in factors:
                            part = part * factor
                        total += part
        if not all(np.isfinite(total).all() for total in sums):
            raise NonFiniteSampleError("sampled symbol leaves the float range")
        result = sums[0].astype(complex)
        if len(sums) > 1:
            result.imag = sums[1]
        return result

    # -- ordering and serialization ----------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, GaussianRational]]:
        """Terms in descending graded-lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [
                {"exp": list(exp), **coef.to_json()}
                for exp, coef in self.sorted_terms()
            ],
        }

    def json_text(self, newline: str = "\n") -> str:
        """Exactly ``json.dumps(self.to_json(), indent=2, sort_keys=True)``
        with every line break written as ``newline``, which ends a line and
        indents the next to the depth of the polynomial.  Each term fills one
        string template from its exponents and format_rational's text, so no
        dict is built per term; a rational's text needs no JSON escape."""
        lines = [newline + "  " * depth for depth in range(1, 5)]
        vars_text = ("[" + lines[1] + ("," + lines[1]).join(map(_json_string, self.vars))
                     + lines[0] + "]") if self.vars else "[]"
        if not self.terms:
            return "{" + lines[0] + '"terms": [],' + lines[0] + '"vars": ' + vars_text + newline + "}"
        exp_text = ("[" + lines[3] + ("," + lines[3]).join(["%d"] * len(self.vars))
                    + lines[2] + "]") if self.vars else "[]"
        term = ("{" + lines[2] + '"exp": ' + exp_text + "," + lines[2] + '"im": "%s",'
                + lines[2] + '"re": "%s"' + lines[1] + "}")
        terms = [term % (*exp, format_rational(coef.im), format_rational(coef.re))
                 for exp, coef in self.sorted_terms()]
        return ("{" + lines[0] + '"terms": [' + lines[1] + ("," + lines[1]).join(terms)
                + lines[0] + "]," + lines[0] + '"vars": ' + vars_text + newline + "}")

    @classmethod
    def from_json(cls, obj) -> "MultiPoly":
        """A polynomial read from outside: ``vars`` and ``terms`` are lists,
        each term an object whose ``exp`` lists one JSON integer per variable
        (parse_int), with its degree capped and no exponent repeated, and
        whose coefficient GaussianRational.from_json reads."""
        if not isinstance(obj, Mapping) or "vars" not in obj or "terms" not in obj:
            raise ValueError("polynomial JSON needs 'vars' and 'terms'")
        if not isinstance(obj["vars"], list) or not isinstance(obj["terms"], list):
            raise ValueError("polynomial 'vars' and 'terms' must be lists")
        vs = _validate_vars(obj["vars"])
        terms: dict[tuple, GaussianRational] = {}
        for n, entry in enumerate(obj["terms"]):
            if not isinstance(entry, Mapping):
                raise ValueError(f"terms[{n}] must be an object with 'exp', 're' and 'im'")
            if not isinstance(entry.get("exp"), list) or len(entry["exp"]) != len(vs):
                raise ValueError(f"terms[{n}].exp must be a list of {len(vs)} integers")
            exp = tuple(parse_int(e, "exponent") for e in entry["exp"])
            parse_int(sum(exp), "polynomial degree")
            coef = GaussianRational.from_json(entry)
            if exp in terms:
                raise ValueError(f"duplicate exponent {exp} in polynomial JSON")
            terms[exp] = coef
        return cls(vs, terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exp, coef in self.sorted_terms():
            mono = _monomial_text(self.vars, exp)
            cs = str(coef)
            if coef.re != 0 and coef.im != 0:
                cs = f"({cs})"
            if not mono:
                pieces.append(cs)
            elif cs == "1":
                pieces.append(mono)
            elif cs == "-1":
                pieces.append(f"-{mono}")
            else:
                pieces.append(f"{cs}*{mono}")
        return " + ".join(pieces).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"MultiPoly({self})"
