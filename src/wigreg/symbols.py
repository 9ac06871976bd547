"""Symbol calculus for planar operators built from the two commuting factors.

An operator spec holds coefficients ``c[j,k]`` and a rational parameter ``p``
(``q = 1 - p``).  It denotes the planar operator

    B = sum c[j,k] (x - q D_y)^j (y + p D_x)^k        (right factor acts first)

with ``D = -i d/dx``.  Because ``[y + p D_x, x - q D_y] = -i`` matches
``[D, x]`` in one variable, B is the image of the one-variable model

    A = sum c[j,k] x^j D^k

under the algebra map ``x -> x - q D_y``, ``D -> y + p D_x``.

All symbols here are left (Kohn-Nirenberg) symbols: for P with symbol
``sigma_P(x, y, xi, eta)`` and Q acting first,

    sigma_{P o Q} = sum_beta (-i)^{|beta|}/beta! *
                    d^beta_{(xi,eta)} sigma_P * d^beta_{(x,y)} sigma_Q,

a finite sum for polynomial symbols.  The planar symbol needs no composition.
On a symbol f(sigma_X, sigma_Y) of the factor symbols sigma_X = x - q eta and
sigma_Y = y + p xi, the factors act by Y # f = sigma_Y f and
X # f = sigma_X f + i q d_{sigma_Y} f, so the left symbol of B is the
degenerate model symbol a~ evaluated at the factor symbols,

    b(x, y, xi, eta) = a~(x - q eta, y + p xi),

expanded term by term.  Degeneracy along the planes (x0 + q eta, y0 - p xi)
is checked by two first-order transport identities, q d_x b + d_eta b = 0
and d_xi b - p d_y b = 0, in time linear in the terms of b.  With
b = sum b[i,j,s,t] x^i y^j xi^s eta^t, each coefficient of the two residuals
has at most two contributions:

    q (i+1) b[i+1,j,s,t] + (t+1) b[i,j,s,t+1] = 0,
    (s+1) b[i,j,s+1,t] - p (j+1) b[i,j+1,s,t] = 0,

so each is tested on its own, by cross-multiplying the integer numerators
and denominators of p, q and the two coefficients.

The Weyl-Wick transform ``W`` and its inverse are the finite expansions of
exp(-Lap/4) exp(-(i/2) d_x d_xi) and its reciprocal, exactly invertible on
polynomials.  On a monomial, with u = -i/2, v = -1/4 for W and u = i/2,
v = 1/4 for W^-1,

    W[x^m xi^n] = sum_{l,r,s} u^l v^(r+s) m! n! / (l! r! s! (m-l-2r)! (n-l-2s)!)
                  x^(m-l-2r) xi^(n-l-2s),

where term (l, r, s) comes from stage l of the series of exp(u d_x d_xi)
and stage r + s of the series of exp(v Lap).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Mapping, Optional

from .exact import (
    GR_I,
    MAX_ORDER,
    GaussianRational,
    MultiPoly,
    format_rational,
    parse_int,
    parse_rational,
    rational_bits,
)

PHASE_VARS = ("x", "y", "xi", "eta")
MODEL_VARS = ("x", "xi")
# Largest size of a whole spec: the bits of every coefficient, plus those of
# p and of T's entries once per power up to the order, since a~ and b raise q
# and p, and the conjugated symbol T's rows, to powers up to the order.  It
# keeps every coefficient of a~, b, W[a] and the conjugated symbol within
# the 4300 digits Python converts to a string.
MAX_SPEC_BITS = 4096
# Most terms b may have: the dense order-30 spec has 46 376 of them, and
# certify --report on it writes a 9.8 MB report.
MAX_B_TERMS = 50_000


@dataclass(frozen=True)
class OperatorSpec:
    """Coefficients c[j,k] (nonzero, j,k >= 0; from_json reads each index
    with parse_int), kept in (j, k) order, plus the rational parameter p."""

    coeffs: Mapping[tuple[int, int], GaussianRational]
    p: Fraction

    def __post_init__(self) -> None:
        # in (j, k) order, so no symbol or sample depends on the file's order
        cleaned: dict[tuple[int, int], GaussianRational] = {}
        for key, value in sorted(dict(self.coeffs).items()):
            c = GaussianRational.coerce(value)
            if not c.is_zero():
                cleaned[key] = c
        if not cleaned:
            raise ValueError("empty operator: no nonzero coefficients")
        order = max(j + k for j, k in cleaned)
        if order > MAX_ORDER:
            raise ValueError(f"operator order {order} exceeds the limit of {MAX_ORDER}")
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "p", Fraction(self.p))

    @property
    def q(self) -> Fraction:
        return 1 - self.p

    @property
    def order(self) -> int:
        return max(j + k for j, k in self.coeffs)

    def with_p(self, p: Fraction) -> "OperatorSpec":
        return OperatorSpec(self.coeffs, Fraction(p))

    def a_symbol(self) -> MultiPoly:
        """Left symbol of the one-variable model: sum c[j,k] x^j xi^k."""
        terms = {(j, k): c for (j, k), c in self.coeffs.items()}
        return MultiPoly(MODEL_VARS, terms)

    def complex_coeffs(self) -> dict[tuple[int, int], complex]:
        out = {}
        for (j, k), c in self.coeffs.items():
            try:
                out[(j, k)] = c.to_complex()
            except ValueError as exc:
                raise ValueError(f"x^{j} D^{k} term: {exc}") from None
        return out

    def to_json(self) -> dict:
        entries = []
        for (j, k), c in self.coeffs.items():
            entries.append({"j": j, "k": k, **c.to_json()})
        return {"p": format_rational(self.p), "coeffs": entries}

    @classmethod
    def from_json(cls, obj: Mapping) -> "OperatorSpec":
        """Parse a spec; each number is read by parse_rational or parse_int,
        and the spec is held to MAX_SPEC_BITS (check_spec_size)."""
        if "p" not in obj:
            raise ValueError("operator spec needs a rational 'p'")
        p = parse_rational(obj["p"], "p")
        raw = obj.get("coeffs")
        if not isinstance(raw, list):
            raise ValueError("operator spec needs a 'coeffs' list")
        coeffs: dict[tuple[int, int], GaussianRational] = {}
        for n, entry in enumerate(raw):
            if not isinstance(entry, Mapping):
                raise ValueError(f"coeffs[{n}] must be an object with 'j', 'k', 're' and 'im'")
            # OperatorSpec bounds the order j + k, so neither index has its own limit
            j, k = (parse_int(entry.get(index), f"coeffs[{n}].{index}", most=None) for index in "jk")
            if (j, k) in coeffs:
                raise ValueError(f"duplicate coefficient index ({j},{k})")
            coeffs[(j, k)] = GaussianRational(*(parse_rational(entry.get(part, "0"), f"x^{j} D^{k} {part}")
                                                for part in ("re", "im")))
        spec = cls(coeffs, p)
        check_spec_size(spec)
        return spec


def check_spec_size(spec: OperatorSpec, change: Optional["LinearChange"] = None) -> None:
    """Raise a ValueError naming the largest share when the spec, with its
    change of variables, holds more than MAX_SPEC_BITS: the bits of every
    coefficient, plus those of p and of T's entries once per power up to the
    order."""
    powered = [spec.p] + ([v for row in change.rows for v in row] if change is not None else [])
    total = (sum(rational_bits(c.re) + rational_bits(c.im) for c in spec.coeffs.values())
             + spec.order * sum(map(rational_bits, powered)))
    if total > MAX_SPEC_BITS:
        shares = {f"x^{j} D^{k} {part}": rational_bits(getattr(c, part))
                  for (j, k), c in spec.coeffs.items() for part in ("re", "im")}
        shares["p"] = spec.order * rational_bits(spec.p)
        if change is not None:
            for i, row in enumerate(change.rows):
                for j, value in enumerate(row):
                    shares[f"T[{i}][{j}]"] = spec.order * rational_bits(value)
        largest = max(shares, key=shares.get)
        raise ValueError(f"spec holds {total} bits, beyond the limit of {MAX_SPEC_BITS} bits "
                         f"(p and T count once per power up to the order); "
                         f"its largest share is {largest}, {shares[largest]} bits")


def symbol_compose(p_sym: MultiPoly, q_sym: MultiPoly) -> MultiPoly:
    """Left symbol of P o Q (Q acts first) for polynomial symbols."""
    a = p_sym.promote(PHASE_VARS)
    b = q_sym.promote(PHASE_VARS)
    bx_max = min(a.degree_in("xi"), b.degree_in("x"))
    by_max = min(a.degree_in("eta"), b.degree_in("y"))
    total = MultiPoly.zero(PHASE_VARS)
    for bx in range(max(bx_max, 0) + 1):
        for by in range(max(by_max, 0) + 1):
            da = a.diff("xi", bx).diff("eta", by)
            if da.is_zero():
                continue
            db = b.diff("x", bx).diff("y", by)
            if db.is_zero():
                continue
            coef = ((-GR_I) ** (bx + by)) * Fraction(1, factorial(bx) * factorial(by))
            total = total + (da * db).scale(coef)
    return total


def _powers(base: int, top: int) -> list[int]:
    """[base^0, ..., base^top]."""
    out = [1]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def a_tilde(spec: OperatorSpec) -> MultiPoly:
    """Degenerate model symbol: the value of the full symbol along the planes.

    a~(x, xi) = sum_{j,k} c[j,k] sum_{n<=min(j,k)} (i q)^n n! C(j,n) C(k,n)
                x^{j-n} xi^{k-n}.

    With q = Q/E, each part r/s of c turned by i^n gives one Fraction
    (r Q^n n! C(j,n) C(k,n), s E^n).
    """
    q = spec.q
    top = max(min(j, k) for j, k in spec.coeffs)
    nums, dens = _powers(q.numerator, top), _powers(q.denominator, top)
    terms: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    for (j, k), c in spec.coeffs.items():
        re_num, re_den, im_num, im_den = c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator
        turns = ((re_num, re_den, im_num, im_den), (-im_num, im_den, re_num, re_den),
                 (-re_num, re_den, -im_num, im_den), (im_num, im_den, -re_num, re_den))
        for n in range(min(j, k) + 1):
            f = nums[n] * factorial(n) * comb(j, n) * comb(k, n)
            t_re, t_re_den, t_im, t_im_den = turns[n % 4]
            t_re, t_im = Fraction(t_re * f, t_re_den * dens[n]), Fraction(t_im * f, t_im_den * dens[n])
            key = (j - n, k - n)
            acc = terms.get(key)
            terms[key] = (t_re, t_im) if acc is None else (acc[0] + t_re, acc[1] + t_im)
    return MultiPoly(MODEL_VARS, {e: GaussianRational(re, im)
                                  for e, (re, im) in terms.items() if re or im})


def build_b_symbol(spec: OperatorSpec, atilde: Optional[MultiPoly] = None) -> MultiPoly:
    """Left symbol of B in closed form: b = a~(x - q*eta, y + p*xi).

    Each term c x^m xi^n of a~ spreads into the monomials
    x^a y^b xi^(n-b) eta^(m-a) with coefficient
    c C(m,a) C(n,b) (-q)^(m-a) p^(n-b); distinct (m, n, a, b) give distinct
    exponents, so no two contributions meet.  With p = P/D and -q = (P - D)/D
    each part r/s of c gives one Fraction(r C(m,a) C(n,b) (P - D)^(m-a)
    P^(n-b), s D^(m-a+n-b)).  ``atilde`` is a_tilde(spec) when the
    caller already has it.  No weight is zero but a power of q = 0 or of
    p = 0, so b has exactly the terms counted first; more than MAX_B_TERMS
    raise a ValueError.
    """
    if atilde is None:
        atilde = a_tilde(spec)
    x_spreads, xi_spreads = spec.q != 0, spec.p != 0
    count = sum((m + 1 if x_spreads else 1) * (n + 1 if xi_spreads else 1) for m, n in atilde.terms)
    if count > MAX_B_TERMS:
        raise ValueError(f"b would have {count} terms, beyond the limit of {MAX_B_TERMS} terms")
    top = atilde.total_degree()
    den = spec.p.denominator
    p_nums = _powers(spec.p.numerator, top)
    mq_nums = _powers(spec.p.numerator - den, top)
    dens = _powers(den, top)
    terms: dict[tuple[int, int, int, int], GaussianRational] = {}
    for (m, n), c in atilde.terms.items():
        re_num, re_den, im_num, im_den = c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator
        for a in range(m + 1):
            x_part = comb(m, a) * mq_nums[m - a]
            if x_part == 0:
                continue
            for b in range(n + 1):
                f = x_part * comb(n, b) * p_nums[n - b]
                if f != 0:
                    d = dens[m - a + n - b]
                    terms[(a, b, n - b, m - a)] = GaussianRational(Fraction(re_num * f, re_den * d),
                                                                   Fraction(im_num * f, im_den * d))
    return MultiPoly(PHASE_VARS, terms)


@dataclass(frozen=True)
class DegeneracyCheck:
    holds: bool
    value: MultiPoly      # symbol value along the planes, in base-point variables (x, y)
    residual: MultiPoly   # difference against the degenerate model symbol


def _pair_cancels(f1: int, c1: tuple, f2: int, c2: Optional[tuple]) -> bool:
    """f1*c1 + f2*c2 == 0 for integer weights on (re num, re den, im num,
    im den) quadruples, c2 None as zero: f1 n1 d2 + f2 n2 d1 == 0 per part."""
    if c2 is None:
        return not (f1 and (c1[0] or c1[2]))
    return not (f1 * c1[0] * c2[1] + f2 * c2[0] * c1[1] or f1 * c1[2] * c2[3] + f2 * c2[2] * c1[3])


def _transport_residuals_vanish(b: MultiPoly, p: Fraction, q: Fraction) -> bool:
    """True when q*d_x b + d_eta b and d_xi b - p*d_y b are identically zero.

    Every coefficient of a residual has two contributions (module docstring).
    A term with i > 0 (s > 0) meets its partner in the first (second)
    residual and the pair is tested in integers, scaled by the denominator of
    q (p).  A term with t > 0 (j > 0) is the partner of the term with i + 1
    (s + 1) and is tested there; when that term is missing it stands alone,
    and its residual coefficient is nonzero unless its weight (p j) is zero.
    Each coefficient's numerators and denominators are read once.
    """
    terms = {e: (c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator)
             for e, c in b.terms.items()}
    qn, qd, pn, pd = q.numerator, q.denominator, p.numerator, p.denominator
    for (i, j, s, t), c in terms.items():
        if i and not _pair_cancels(qn * i, c, qd * (t + 1), terms.get((i - 1, j, s, t + 1))):
            return False
        if t and (i + 1, j, s, t - 1) not in terms:
            return False
        if s and not _pair_cancels(pd * s, c, -pn * (j + 1), terms.get((i, j + 1, s - 1, t))):
            return False
        if j and pn and (i, j - 1, s + 1, t) not in terms:
            return False
    return True


def verify_degeneracy(spec: OperatorSpec, b: Optional[MultiPoly] = None,
                      atilde: Optional[MultiPoly] = None) -> DegeneracyCheck:
    """Check that the full symbol is constant along x -> x0 + q*eta, y -> y0 - p*xi.

    For a polynomial b, b(x0 + q*eta, y0 - p*xi, xi, eta) is independent of
    (xi, eta) exactly when the transport residuals q*d_x b + d_eta b and
    d_xi b - p*d_y b vanish identically; its value is then b(x0, y0, 0, 0).
    The base point (x0, y0) reuses the names (x, y), and the degenerate model
    symbol is compared with xi renamed to y.  Only when a transport residual
    is nonzero is b substituted in full, to report the value it takes.

    ``b`` defaults to build_b_symbol(spec) and ``atilde`` to a_tilde(spec).
    """
    if atilde is None:
        atilde = a_tilde(spec)
    if b is None:
        b = build_b_symbol(spec, atilde)
    b = b.promote(PHASE_VARS)
    model_terms = {(m, n, 0, 0): c for (m, n), c in atilde.terms.items()}
    transported = _transport_residuals_vanish(b, spec.p, spec.q)
    if transported:
        value = MultiPoly(PHASE_VARS, {e: c for e, c in b.terms.items()
                                       if e[2] == 0 and e[3] == 0})
        if value.terms == model_terms:
            return DegeneracyCheck(True, value, MultiPoly.zero(PHASE_VARS))
    else:
        x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
        xi, eta = MultiPoly.variable("xi"), MultiPoly.variable("eta")
        value = b.substitute({"x": x + eta.scale(spec.q), "y": y - xi.scale(spec.p),
                              "xi": xi, "eta": eta})
    residual = value - MultiPoly(PHASE_VARS, model_terms)
    return DegeneracyCheck(transported and residual.is_zero(), value, residual)


def _add_scaled(out: dict, cur: dict, turn: int, div: int) -> None:
    """out += (i^turn / div) * cur on (re, im) pairs, div exact.  A key
    whose sum reaches zero leaves ``out`` and comes back at the end, as
    MultiPoly addition drops and re-appends it."""
    for key, (re, im) in cur.items():
        re, im = ((re, im), (-im, re), (-re, -im), (im, -re))[turn % 4]
        re, im = re // div, im // div
        old = out.get(key)
        if old is not None:
            re, im = old[0] + re, old[1] + im
            if not (re or im):
                del out[key]
                continue
        out[key] = (re, im)


def _mixed_series(terms: dict, sign: int) -> dict:
    """sum_l ((sign i/2)^l / l!) (d_x d_xi)^l on (re, im) pairs."""
    out = dict(terms)
    cur = terms
    l, div = 0, 1
    while True:
        cur = {(m - 1, n - 1): (re * (m * n), im * (m * n))
               for (m, n), (re, im) in cur.items() if m and n}
        if not cur:
            return out
        l += 1
        div *= 2 * l
        _add_scaled(out, cur, sign * l, div)


def _laplace_series(terms: dict, sign: int) -> dict:
    """sum_n ((sign/4)^n / n!) Lap^n on (re, im) pairs, Lap = d_x^2 + d_xi^2."""
    out = dict(terms)
    cur = terms
    n, div = 0, 1
    while True:
        nxt = {(m - 2, k): (re * (m * (m - 1)), im * (m * (m - 1)))
               for (m, k), (re, im) in cur.items() if m >= 2}
        for (m, k), (re, im) in cur.items():
            if k >= 2:
                w = k * (k - 1)
                old = nxt.get((m, k - 2))
                nxt[(m, k - 2)] = ((re * w, im * w) if old is None
                                   else (old[0] + re * w, old[1] + im * w))
        cur = {e: v for e, v in nxt.items() if v[0] or v[1]}
        if not cur:
            return out
        n += 1
        div *= 4 * n
        _add_scaled(out, cur, (1 - sign) * n, div)


def _wick_denominator(a: MultiPoly) -> tuple[int, int]:
    """(L, S) for the Wick expansions of a model symbol a: L the lcm of a's
    denominators and S = 2^h h! 4^h h!, h = floor(deg/2).

    A spec's model symbol has L < 2^MAX_SPEC_BITS, and its images have
    denominators dividing L S, so an L of more bits than MAX_SPEC_BITS +
    bits(S) raises a ValueError that names the limit; the lcm stops growing
    as soon as it passes.
    """
    degree = a.total_degree()
    h = max(degree, 0) // 2
    stages = 8 ** h * factorial(h) ** 2           # S = 2^h h! 4^h h!
    limit = MAX_SPEC_BITS + stages.bit_length()
    den = 1
    for c in a.terms.values():
        den = lcm(den, c.re.denominator, c.im.denominator)
        if den.bit_length() > limit:
            raise ValueError(f"common denominator of the symbol's coefficients exceeds the limit of "
                             f"{limit} bits ({MAX_SPEC_BITS} spec bits plus {limit - MAX_SPEC_BITS} "
                             f"for degree {degree})")
    return den, stages


def _wick_expand(a: MultiPoly, sign: int) -> MultiPoly:
    """W[a] for sign = -1 and W^-1[a] for sign = +1.

    Stage l (n) of the mixed (Laplacian) series divides by 2^l l! (4^n n!),
    l, n <= h = floor(deg/2), so over one common denominator L S
    (_wick_denominator, which refuses an L beyond its bound before any stage
    runs) every stage runs on integer (re, im) pairs and divides exactly.
    The stages run in the order of the exponentials, so the terms come out
    in the order that MultiPoly passes produce; floating-point evaluation
    sums terms in that order.
    """
    if not set(a.vars) <= set(MODEL_VARS):
        raise ValueError(f"expected a symbol in {MODEL_VARS}, got variables {a.vars}")
    a = a.promote(MODEL_VARS)
    den, stages = _wick_denominator(a)
    common = den * stages
    pairs = {e: (c.re.numerator * (common // c.re.denominator),
                 c.im.numerator * (common // c.im.denominator)) for e, c in a.terms.items()}
    if sign < 0:
        pairs = _laplace_series(_mixed_series(pairs, -1), -1)
    else:
        pairs = _mixed_series(_laplace_series(pairs, 1), 1)
    return MultiPoly(MODEL_VARS, {e: GaussianRational(Fraction(re, common), Fraction(im, common))
                                  for e, (re, im) in pairs.items()})


def weyl_wick(a: MultiPoly) -> MultiPoly:
    """Transform whose positivity controls the coherent-state energy form.

    W[a] = exp(-Lap/4) exp(-(i/2) d_x d_xi) a, expanded exactly.
    """
    return _wick_expand(a, -1)


def weyl_wick_inverse(a: MultiPoly) -> MultiPoly:
    """Exact inverse of weyl_wick on polynomials (the commuting exponentials)."""
    return _wick_expand(a, 1)


@dataclass(frozen=True)
class LinearChange:
    """Invertible rational 2x2 change of variables T acting on the plane."""

    rows: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

    def __post_init__(self) -> None:
        rows = tuple(tuple(Fraction(v) for v in row) for row in self.rows)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("T must be a 2x2 matrix")
        object.__setattr__(self, "rows", rows)
        if self.det == 0:
            raise ValueError("T must be invertible (nonzero determinant)")

    @property
    def det(self) -> Fraction:
        (a, b), (c, d) = self.rows
        return a * d - b * c

    def transpose(self) -> "LinearChange":
        (a, b), (c, d) = self.rows
        return LinearChange(((a, c), (b, d)))

    def inverse(self) -> "LinearChange":
        (a, b), (c, d) = self.rows
        det = self.det
        return LinearChange(((d / det, -b / det), (-c / det, a / det)))

    def to_json(self) -> list:
        return [[format_rational(v) for v in row] for row in self.rows]

    @classmethod
    def from_json(cls, obj) -> "LinearChange":
        if not isinstance(obj, list) or len(obj) != 2:
            raise ValueError("T must be a 2x2 matrix of rationals")
        rows = []
        for i, row in enumerate(obj):
            if not isinstance(row, list) or len(row) != 2:
                raise ValueError("T must be a 2x2 matrix of rationals")
            rows.append(tuple(parse_rational(v, f"T[{i}][{j}]") for j, v in enumerate(row)))
        return cls((rows[0], rows[1]))


def _integer_rows(rows) -> tuple[int, tuple[tuple[int, int], ...]]:
    """A common denominator of a rational 2x2 matrix and its integer rows."""
    den = lcm(*(v.denominator for row in rows for v in row))
    return den, tuple((int(r0 * den), int(r1 * den)) for r0, r1 in rows)


def _pair_power_weights(r: tuple[int, int], s: tuple[int, int], a: int, b: int) -> list[int]:
    """w[m], the coefficient of u^m v^(a+b-m) in (r0 u + r1 v)^a (s0 u + s1 v)^b,
    by the binomial theorem on each factor."""
    left = [comb(a, i) * r[0] ** i * r[1] ** (a - i) for i in range(a + 1)]
    right = [comb(b, j) * s[0] ** j * s[1] ** (b - j) for j in range(b + 1)]
    out = [0] * (a + b + 1)
    for i, lw in enumerate(left):
        if lw:
            for j, rw in enumerate(right):
                out[i + j] += lw * rw
    return out


def t_conjugate(symbol: MultiPoly, change: LinearChange) -> MultiPoly:
    """Symbol of the conjugated operator: (x,y) -> T'(x,y), (xi,eta) -> T^-1(xi,eta).

    The change is linear, so x^a y^b xi^c eta^d goes to the product of two
    binomial expansions: the rows of T' weight x^m y^(a+b-m) and the rows of
    T^-1 weight xi^n eta^(c+d-n).  Both matrices are scaled to integer rows
    by a common denominator D and E, so every weight is an integer over
    D^(a+b) E^(c+d), one divisor per output monomial; each coefficient's
    (re, im) pair accumulates exactly as Fractions.  The result has the
    variables that a ring substitution gives: (x, y) when some term has a
    spatial power and (xi, eta) when some term has a frequency power.
    """
    dx, tp = _integer_rows(change.transpose().rows)
    dxi, ti = _integer_rows(change.inverse().rows)
    space: dict[tuple[int, int], list[int]] = {}
    freq: dict[tuple[int, int], list[int]] = {}
    acc: dict[tuple[int, int, int, int], list[Fraction]] = {}
    for (a, b, c, d), coef in symbol.promote(PHASE_VARS).terms.items():
        if (a, b) not in space:
            space[(a, b)] = _pair_power_weights(tp[0], tp[1], a, b)
        if (c, d) not in freq:
            freq[(c, d)] = _pair_power_weights(ti[0], ti[1], c, d)
        fw = [(n, w) for n, w in enumerate(freq[(c, d)]) if w]
        for m, u in enumerate(space[(a, b)]):
            if not u:
                continue
            for n, w in fw:
                key = (m, a + b - m, n, c + d - n)
                pair = acc.get(key)
                if pair is None:
                    acc[key] = [coef.re * (u * w), coef.im * (u * w)]
                else:
                    pair[0] += coef.re * (u * w)
                    pair[1] += coef.im * (u * w)
    vars_ = ((("x", "y") if any(a + b for a, b in space) else ())
             + (("xi", "eta") if any(c + d for c, d in freq) else ()))
    keep = [PHASE_VARS.index(v) for v in vars_]
    terms = {}
    for e, (re, im) in acc.items():
        scale = dx ** (e[0] + e[1]) * dxi ** (e[2] + e[3])
        terms[tuple(e[i] for i in keep)] = GaussianRational(re / scale, im / scale)
    return MultiPoly(vars_, terms)
