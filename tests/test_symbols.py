"""Operator specs, symbol composition, and the Weyl-Wick transform."""

import random
import re
import time
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wigreg.exact import GR_I, GR_ONE, MAX_RATIONAL_BITS, GaussianRational, MultiPoly
from wigreg.hermite import Hermite
from wigreg.pipeline import parse_spec
from wigreg.spectral import wick_energy_compare
from wigreg.symbols import (
    MAX_B_TERMS,
    MAX_SPEC_BITS,
    MODEL_VARS,
    PHASE_VARS,
    LinearChange,
    OperatorSpec,
    _transport_residuals_vanish,
    a_tilde,
    build_b_symbol,
    check_spec_size,
    rational_bits,
    symbol_compose,
    t_conjugate,
    verify_degeneracy,
    weyl_wick,
    weyl_wick_inverse,
)

from oracles import (
    accumulated_transport_residuals_vanish,
    composed_b_symbol,
    factor_symbols,
    fraction_chain_a_tilde,
    fraction_chain_b_symbol,
    series_weyl_wick,
    series_weyl_wick_inverse,
    substitute_t_conjugate,
)


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def var(name):
    return MultiPoly.variable(name).promote(PHASE_VARS)


EQ44 = OperatorSpec({(2, 0): gr(4), (0, 2): gr(1, 0) * Fraction(1, 4)}, Fraction(1, 2))


# ---------------------------------------------------------------------------
# OperatorSpec
# ---------------------------------------------------------------------------


def test_spec_basic_accessors():
    assert EQ44.q == Fraction(1, 2)
    assert EQ44.order == 2
    assert EQ44.with_p(Fraction(0)).q == 1
    assert EQ44.complex_coeffs() == {(2, 0): 4.0 + 0j, (0, 2): 0.25 + 0j}


def test_spec_drops_zero_coefficients():
    spec = OperatorSpec({(1, 1): gr(1), (3, 0): gr(0)}, Fraction(1, 2))
    assert set(spec.coeffs) == {(1, 1)}


def test_spec_json_round_trip():
    again = OperatorSpec.from_json(EQ44.to_json())
    assert again.coeffs == EQ44.coeffs
    assert again.p == EQ44.p


@pytest.mark.parametrize(
    "obj",
    [
        {"coeffs": [{"j": 1, "k": 1, "re": "1"}]},                      # no p
        {"p": "1/2", "coeffs": []},                                     # empty
        {"p": "1/2", "coeffs": [{"j": -1, "k": 0, "re": "1"}]},         # negative
        {"p": "1/2", "coeffs": [{"j": 0, "k": 0, "re": "1"},
                                {"j": 0, "k": 0, "re": "2"}]},          # duplicate
        {"p": "1/2", "coeffs": [{"k": 0, "re": "1"}]},                  # missing j
    ],
)
def test_spec_from_json_rejects_malformed(obj):
    with pytest.raises(ValueError):
        OperatorSpec.from_json(obj)


def test_a_symbol_is_the_model_polynomial():
    a = EQ44.a_symbol()
    assert a.vars == MODEL_VARS
    assert a.coefficient({"x": 2}) == gr(4)
    assert a.coefficient({"xi": 2}) == gr(1) * Fraction(1, 4)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_compose_position_then_derivative():
    # M o D: D acts first, no correction terms
    assert symbol_compose(var("x"), var("xi")) == var("x") * var("xi")


def test_compose_derivative_then_position():
    # D o M picks up the commutator: x*xi - i
    expected = var("x") * var("xi") - MultiPoly.constant(GR_I, PHASE_VARS)
    assert symbol_compose(var("xi"), var("x")) == expected


def test_compose_is_not_commutative():
    assert symbol_compose(var("x"), var("xi")) != symbol_compose(var("xi"), var("x"))


def test_compose_sandwich_dmmd():
    # D M M D -> x^2 xi^2 - 2i x xi
    x, xi = var("x"), var("xi")
    sym = symbol_compose(xi, symbol_compose(x, symbol_compose(x, xi)))
    expected = x * x * xi * xi - (x * xi).scale(GR_I * 2)
    assert sym == expected


def test_compose_factor_cross_term():
    # (x - q eta) o (y + p xi) = product + i q
    spec = OperatorSpec({(1, 1): gr(1)}, Fraction(1, 3))
    xf, yf = factor_symbols(spec)
    got = symbol_compose(xf, yf)
    expected = xf.promote(PHASE_VARS) * yf.promote(PHASE_VARS) + MultiPoly.constant(
        GR_I * spec.q, PHASE_VARS
    )
    assert got == expected


@st.composite
def phase_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        exp = tuple(draw(st.integers(0, 2)) for _ in PHASE_VARS)
        terms[exp] = GaussianRational(
            Fraction(draw(st.integers(-5, 5))), Fraction(draw(st.integers(-5, 5)))
        )
    return MultiPoly(PHASE_VARS, terms)


@given(phase_polys(), phase_polys(), phase_polys())
@settings(max_examples=25, deadline=None)
def test_compose_is_associative(a, b, c):
    lhs = symbol_compose(symbol_compose(a, b), c)
    rhs = symbol_compose(a, symbol_compose(b, c))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# full symbol, degenerate model symbol, degeneracy
# ---------------------------------------------------------------------------


def test_b_symbol_closed_form_for_sum_of_squares():
    b = build_b_symbol(EQ44)
    x, y, xi, eta = (var(v) for v in PHASE_VARS)
    half = Fraction(1, 2)
    expected = (x - eta.scale(half)) ** 2 * 4 + ((y + xi.scale(half)) ** 2).scale(
        Fraction(1, 4)
    )
    assert b == expected


def test_a_tilde_mixed_term_picks_up_iq():
    spec = OperatorSpec({(1, 1): gr(1)}, Fraction(1, 2))
    expected = MultiPoly(MODEL_VARS, {(1, 1): GR_ONE, (0, 0): GR_I * Fraction(1, 2)})
    assert a_tilde(spec) == expected


def test_a_tilde_no_mixed_terms_is_plain_substitution():
    assert a_tilde(EQ44) == EQ44.a_symbol()


specs = st.builds(
    OperatorSpec,
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.builds(
            GaussianRational,
            st.fractions(min_value=-4, max_value=4, max_denominator=4),
            st.fractions(min_value=-4, max_value=4, max_denominator=4),
        ),
        min_size=1,
        max_size=4,
    ).filter(lambda d: any(not c.is_zero() for c in d.values())),
    st.fractions(min_value=-2, max_value=2, max_denominator=6),
)


@given(specs)
@settings(max_examples=30, deadline=None)
def test_full_symbol_is_constant_along_degenerate_planes(spec):
    check = verify_degeneracy(spec)
    assert check.holds
    assert check.residual.is_zero()
    # the value along the planes is the model symbol in the base point
    assert check.value.degree_in("xi") == 0
    assert check.value.degree_in("eta") == 0


def _random_spec(rng, p):
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        j = rng.randint(0, 5)
        k = rng.randint(0, 5 - j)
        coeffs[(j, k)] = GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                                          Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    if all(c.is_zero() for c in coeffs.values()):
        coeffs[(1, 1)] = GR_ONE
    return OperatorSpec(coeffs, p)


def _oracle_ps(rng):
    ps = [Fraction(0), Fraction(1), Fraction(-1), Fraction(-7, 3), Fraction(5, 2)]
    ps += [Fraction(rng.randint(-2 * d, 2 * d), d) for d in range(2, 8) for _ in range(4)]
    return ps


def test_closed_form_b_matches_composition_oracle():
    rng = random.Random(303)
    for p in _oracle_ps(rng):
        spec = _random_spec(rng, p)
        b = build_b_symbol(spec)
        assert b == composed_b_symbol(spec), spec
        assert b.vars == PHASE_VARS


def _b_term_count(spec):
    """b's terms read off a~: x^m xi^n spreads over m + 1 powers of x unless
    q = 0, and over n + 1 powers of y unless p = 0."""
    return sum((m + 1 if spec.q else 1) * (n + 1 if spec.p else 1) for m, n in a_tilde(spec).terms)


GOLDEN_SPECS = sorted(p for p in (Path(__file__).resolve().parent / "golden" / "specs").glob("*.json")
                      if p.name != "positive_target.json")


@pytest.mark.parametrize("path", GOLDEN_SPECS, ids=lambda p: p.stem)
def test_b_has_the_terms_counted_off_a_tilde_for_golden_specs(path):
    spec, _ = parse_spec(path.read_text())
    assert len(build_b_symbol(spec).terms) == _b_term_count(spec)


def test_b_has_the_terms_counted_off_a_tilde_for_seeded_specs():
    rng = random.Random(41)
    for p in _oracle_ps(rng):
        for _ in range(3):
            spec = _random_spec(rng, p)
            assert len(build_b_symbol(spec).terms) == _b_term_count(spec), spec


def _dense_unit_spec(order):
    return OperatorSpec({(j, k): GR_ONE for j in range(order + 1) for k in range(order + 1 - j)},
                        Fraction(3, 7))


def test_b_term_limit_admits_dense_order_30_and_refuses_order_31_fast():
    assert _b_term_count(_dense_unit_spec(30)) == 46376 <= MAX_B_TERMS
    spec = _dense_unit_spec(31)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^b would have 52360 terms, beyond the limit of 50000 terms$"):
        build_b_symbol(spec)
    assert time.perf_counter() - start < 1.0


def _limit_rational(rng):
    """A rational of exactly MAX_RATIONAL_BITS bits, with a seeded sign."""
    half = MAX_RATIONAL_BITS // 2
    num = rng.getrandbits(half - 1) | (1 << (half - 1))
    den = rng.getrandbits(half - 1) | (1 << (half - 1)) | 1
    while gcd(num, den) != 1:
        den += 2
    value = Fraction(rng.choice((-1, 1)) * num, den)
    assert rational_bits(value) == MAX_RATIONAL_BITS
    return value


def _weight_oracle_specs():
    """Seeded specs of orders 1 to 12 at each p, one coefficient per spec at
    the per-rational limit."""
    rng = random.Random(1717)
    p40 = Fraction(rng.randrange(10 ** 39, 10 ** 40), 10 ** 40 - 3)
    assert len(str(p40.denominator)) == 40
    ps = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 7), Fraction(-2, 3),
          Fraction(5, 4), p40]
    specs = []
    for p in ps:
        for order in range(1, 13):
            top = rng.randint(0, order)
            keys = {(top, order - top)}
            for _ in range(rng.randint(1, 6)):
                j = rng.randint(0, order)
                keys.add((j, rng.randint(0, order - j)))
            coeffs = {jk: GaussianRational(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                                    rng.randint(1, 7)),
                                           Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
                      for jk in keys}
            big = rng.choice(sorted(keys))
            coeffs[big] = GaussianRational(_limit_rational(rng), coeffs[big].im)
            specs.append(OperatorSpec(coeffs, p))
    return specs


def test_weights_match_the_fraction_chain_oracle_term_for_term():
    specs = _weight_oracle_specs()
    assert {spec.order for spec in specs} == set(range(1, 13))
    for spec in specs:
        at, oracle_at = a_tilde(spec), fraction_chain_a_tilde(spec)
        assert list(at.terms.items()) == list(oracle_at.terms.items()), spec
        assert at.to_json() == oracle_at.to_json()
        b, oracle_b = build_b_symbol(spec, at), fraction_chain_b_symbol(spec, oracle_at)
        assert list(b.terms.items()) == list(oracle_b.terms.items()), spec
        assert b.to_json() == oracle_b.to_json()
        assert build_b_symbol(spec).terms == b.terms


def test_degeneracy_check_accepts_the_b_it_is_given():
    rng = random.Random(404)
    for p in _oracle_ps(rng)[:12]:
        spec = _random_spec(rng, p)
        at = a_tilde(spec)
        given_b = verify_degeneracy(spec, composed_b_symbol(spec), at)
        default = verify_degeneracy(spec)
        assert given_b.holds and default.holds
        assert given_b.value == default.value == at.substitute(
            {"x": MultiPoly.variable("x"), "xi": MultiPoly.variable("y")})


MIXED = OperatorSpec({(2, 1): gr(3, -1), (1, 1): gr(1), (0, 3): gr(-2), (1, 0): gr(0, 5)},
                     Fraction(1, 3))


def test_degeneracy_check_rejects_any_single_perturbed_coefficient():
    b = build_b_symbol(MIXED)
    # every monomial of b, plus ones b lacks, at the base point and off it
    targets = list(b.terms) + [(0, 0, 0, 0), (0, 0, 2, 0), (3, 0, 0, 1), (0, 2, 0, 0)]
    assert {(0, 0, 2, 0), (3, 0, 0, 1), (0, 2, 0, 0)}.isdisjoint(b.terms)
    for exp in targets:
        bumped = b + MultiPoly(PHASE_VARS, {exp: gr(1, 1)})
        check = verify_degeneracy(MIXED, bumped)
        assert not check.holds, exp
        assert not check.residual.is_zero(), exp


def test_degeneracy_check_rejects_b_built_with_q_flipped():
    # b(x, y, xi, -eta) = a~(x + q*eta, y + p*xi)
    b = build_b_symbol(MIXED)
    flipped = MultiPoly(PHASE_VARS, {e: c * (-1) ** e[3] for e, c in b.terms.items()})
    assert flipped != b
    check = verify_degeneracy(MIXED, flipped)
    assert not check.holds
    assert check.value.degree_in("eta") > 0 or check.value.degree_in("xi") > 0


def test_transport_check_agrees_with_accumulated_residuals():
    rng = random.Random(505)
    outcomes = []
    for p in [Fraction(0), Fraction(1), Fraction(3, 7)] + _oracle_ps(rng)[5:17]:
        spec = _random_spec(rng, p)
        b = build_b_symbol(spec)
        candidates = [b]
        for _ in range(12):
            exp = rng.choice(list(b.terms)) if rng.random() < 0.5 else tuple(
                rng.randint(0, 3) for _ in range(4))
            candidates.append(b + MultiPoly(PHASE_VARS, {exp: gr(rng.randint(-3, 3),
                                                                   rng.randint(-3, 3))}))
        # moving a term's weight to the partner it should cancel against
        for (i, j, s, t), c in list(b.terms.items())[:6]:
            candidates.append(b + MultiPoly(PHASE_VARS, {(i, j, s, t): c, (i + 1, j, s, t): -c}))
        for cand in candidates:
            holds = _transport_residuals_vanish(cand, spec.p, spec.q)
            assert holds == accumulated_transport_residuals_vanish(cand, spec.p, spec.q), (spec, cand)
            outcomes.append(holds)
    assert len(outcomes) > 200 and outcomes.count(True) >= 15 and outcomes.count(False) > 150


def _primes(count):
    found = []
    k = 2
    while len(found) < count:
        if all(k % d for d in found):
            found.append(k)
        k += 1
    return found


def test_degeneracy_check_cost_is_bounded_for_distinct_prime_denominators():
    # dense order 10: 66 coefficients, each over its own prime; b has 1001 terms
    keys = [(j, k) for j in range(11) for k in range(11 - j)]
    coeffs = {jk: GaussianRational(Fraction(2 * n + 1, d), Fraction(-(n + 3), d))
              for n, (jk, d) in enumerate(zip(keys, _primes(len(keys))))}
    spec = OperatorSpec(coeffs, Fraction(3, 7))
    start = time.perf_counter()
    check = verify_degeneracy(spec)
    elapsed = time.perf_counter() - start
    assert check.holds and check.residual.is_zero()
    assert elapsed < 0.5, f"verify_degeneracy took {elapsed:.3f} s"


def test_order_limit_fails_fast():
    with pytest.raises(ValueError, match="exceeds the limit of 64"):
        OperatorSpec({(1000000, 0): GR_ONE}, Fraction(1, 2))
    with pytest.raises(ValueError, match="operator order 65 exceeds the limit of 64"):
        OperatorSpec.from_json({"p": "1/2", "coeffs": [{"j": 33, "k": 32, "re": "1"}]})
    assert OperatorSpec({(32, 32): GR_ONE}, Fraction(1, 2)).order == 64


def test_rational_limit_names_the_field():
    rng = random.Random(5)
    at_limit = str(_limit_rational(rng))
    spec = OperatorSpec.from_json({"p": "1/3", "coeffs": [{"j": 3, "k": 1, "re": "1", "im": at_limit}]})
    assert rational_bits(spec.coeffs[(3, 1)].im) == MAX_RATIONAL_BITS
    over = str(2 ** (MAX_RATIONAL_BITS - 1))       # one bit too many with its denominator 1
    cases = [
        ({"p": "1/2", "coeffs": [{"j": 3, "k": 1, "re": over}]}, "x^3 D^1 re"),
        ({"p": "1/2", "coeffs": [{"j": 0, "k": 2, "re": "1", "im": f"1/{over}"}]}, "x^0 D^2 im"),
        ({"p": over, "coeffs": [{"j": 1, "k": 1, "re": "1"}]}, "p"),
        ({"p": int(over), "coeffs": [{"j": 1, "k": 1, "re": "1"}]}, "p"),
    ]
    for obj, field in cases:
        with pytest.raises(ValueError, match=rf"^{re.escape(field)} has {MAX_RATIONAL_BITS + 1} bits, "
                                             rf"beyond the limit of {MAX_RATIONAL_BITS} bits per rational$"):
            OperatorSpec.from_json(obj)
    with pytest.raises(ValueError, match=r"^T\[1\]\[0\] has 2049 bits, beyond the limit"):
        LinearChange.from_json([["1", "0"], [over, "1"]])


def test_oversized_rational_fails_on_its_digits_before_conversion():
    digits = "1" + "0" * 4399                     # beyond Python's 4300-digit int() limit
    for obj, field, count in (
            ({"p": "1/2", "coeffs": [{"j": 0, "k": 0, "re": digits}]}, "x^0 D^0 re", 4400),
            ({"p": f"-1/{digits}", "coeffs": [{"j": 1, "k": 0, "re": "1"}]}, "p", 4401)):
        with pytest.raises(ValueError, match=rf"^{re.escape(field)} has {count} digits, beyond the "
                                             rf"limit of {MAX_RATIONAL_BITS} bits per rational$"):
            OperatorSpec.from_json(obj)
    with pytest.raises(ValueError, match=r"^T\[0\]\[1\] has 4400 digits"):
        LinearChange.from_json([["1", digits], ["0", "1"]])
    # leading zeros are not significant: 700 of them still make the rational 1
    spec = OperatorSpec.from_json({"p": "1/2", "coeffs": [{"j": 1, "k": 1, "re": "0" * 700 + "1"}]})
    assert spec.coeffs[(1, 1)] == GR_ONE


def test_spec_size_limit_counts_p_and_t_once_per_power():
    # p counts once per power up to the order: 3 + 64 * 64 bits are beyond
    # the limit, 3 + 64 * 63 are not
    order64 = {"p": f"1/{2 ** 62}", "coeffs": [{"j": 32, "k": 32, "re": "1"}]}
    with pytest.raises(ValueError, match=rf"^spec holds 4099 bits, beyond the limit of {MAX_SPEC_BITS} "
                                         r"bits \(p and T count once per power up to the order\); "
                                         r"its largest share is p, 4096 bits$"):
        OperatorSpec.from_json(order64)
    OperatorSpec.from_json({**order64, "p": f"1/{2 ** 61}"})
    # and so does T: 3 + 4 * (3 + 2 + 1 + 1002 + 2) = 4043 bits at order 4
    change = LinearChange.from_json([["1", "0"], [str(2 ** 1000), "1"]])
    check_spec_size(OperatorSpec.from_json({"p": "1/2", "coeffs": [{"j": 2, "k": 2, "re": "1"}]}),
                    change)
    with pytest.raises(ValueError, match=r"its largest share is T\[1\]\[0\], 5010 bits$"):
        check_spec_size(OperatorSpec.from_json({"p": "1/2", "coeffs": [{"j": 3, "k": 2, "re": "1"}]}),
                        change)


# ---------------------------------------------------------------------------
# Weyl-Wick transform
# ---------------------------------------------------------------------------


def x2_plus_xi2():
    return MultiPoly(MODEL_VARS, {(2, 0): GR_ONE, (0, 2): GR_ONE})


def test_wick_of_harmonic_oscillator():
    expected = MultiPoly(MODEL_VARS, {(2, 0): GR_ONE, (0, 2): GR_ONE, (0, 0): gr(-1)})
    assert weyl_wick(x2_plus_xi2()) == expected


def test_wick_inverse_of_harmonic_oscillator():
    expected = MultiPoly(MODEL_VARS, {(2, 0): GR_ONE, (0, 2): GR_ONE, (0, 0): gr(1)})
    assert weyl_wick_inverse(x2_plus_xi2()) == expected


def test_wick_of_mixed_monomial():
    got = weyl_wick(MultiPoly(MODEL_VARS, {(1, 1): GR_ONE}))
    expected = MultiPoly(MODEL_VARS, {(1, 1): GR_ONE, (0, 0): GaussianRational(0, Fraction(-1, 2))})
    assert got == expected


def test_wick_of_anisotropic_oscillator():
    a = EQ44.a_symbol()
    got = weyl_wick(a)
    assert got - a == MultiPoly.constant(gr(-17, 0) * Fraction(1, 8), MODEL_VARS)


model_polys = st.builds(
    MultiPoly,
    st.just(MODEL_VARS),
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.builds(
            GaussianRational,
            st.fractions(min_value=-6, max_value=6, max_denominator=6),
            st.fractions(min_value=-6, max_value=6, max_denominator=6),
        ),
        max_size=5,
    ),
)


@given(model_polys)
@settings(max_examples=50, deadline=None)
def test_wick_round_trips_exactly(a):
    assert weyl_wick_inverse(weyl_wick(a)) == a
    assert weyl_wick(weyl_wick_inverse(a)) == a


@given(model_polys)
@settings(max_examples=50, deadline=None)
def test_wick_preserves_total_degree_and_leading_form(a):
    w = weyl_wick(a)
    assert w.total_degree() == a.total_degree()
    if not a.is_zero():
        assert w.leading_form() == a.leading_form()


def _random_model_symbol(rng, degree):
    terms = {}
    for _ in range(rng.randint(1, 12)):
        terms[(rng.randint(0, degree), rng.randint(0, degree))] = GaussianRational(
            Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 5, 7, 9, 11))),
            Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 6, 8, 13))))
    return MultiPoly(MODEL_VARS, terms)


def test_wick_matches_series_oracle_term_for_term():
    rng = random.Random(606)
    symbols = [MultiPoly(MODEL_VARS, {}), MultiPoly.constant(gr(-3, 5), MODEL_VARS),
               MultiPoly.constant(gr(2, 0), ("x",)), x2_plus_xi2(),
               # x^2 - xi^2 and x^6 - xi^6 cancel inside the Laplacian series
               MultiPoly(MODEL_VARS, {(2, 0): GR_ONE, (0, 2): gr(-1), (6, 0): GR_ONE,
                                      (0, 6): gr(-1), (3, 3): gr(0, 2)})]
    symbols += [_random_model_symbol(rng, degree) for degree in (1, 2, 3, 5, 8, 12) for _ in range(5)]
    # transforming these back cancels terms that a later stage brings back
    symbols += [series_weyl_wick(a) for a in symbols[-6:]] + [series_weyl_wick_inverse(a) for a in symbols[-6:]]
    for a in symbols:
        for fast, series in ((weyl_wick, series_weyl_wick), (weyl_wick_inverse, series_weyl_wick_inverse)):
            got, want = fast(a), series(a)
            assert got == want, a
            # floating-point evaluation sums the terms in dict order
            assert list(got.terms) == list(want.terms), a
        assert weyl_wick_inverse(weyl_wick(a)) == a
        assert weyl_wick(weyl_wick_inverse(a)) == a


def _coprime_odd_numbers(rng, bits, count):
    """``count`` pairwise coprime odd numbers of exactly ``bits`` bits."""
    found = []
    while len(found) < count:
        n = rng.getrandbits(bits - 1) | (1 << (bits - 1)) | 1
        if all(gcd(n, m) == 1 for m in found):
            found.append(n)
    return found


def _kernel_oracle_cases():
    """Specs at the sizes the order-sweep benchmark and the limits reach."""
    rng = random.Random(2525)
    # the order-sweep's dense order 10 (p = 5/6) and x^12 D^12 (p = 1/2), with its
    # denominators: 1 + (j + 2k) % 4 for re and 1 + (2j + k) % 4 for im
    def sweep_rational(den):
        return Fraction(rng.choice((-1, 1)) * rng.choice([r for r in range(16, 32) if gcd(r, den) == 1]), den)

    dense10 = OperatorSpec({(j, k): GaussianRational(sweep_rational(1 + (j + 2 * k) % 4),
                                                     sweep_rational(1 + (2 * j + k) % 4))
                            for j in range(11) for k in range(11 - j)}, Fraction(5, 6))
    # order 64, each of three coefficients over its own ~1000-bit denominator
    d1, d2, d3 = _coprime_odd_numbers(rng, 1000, 3)
    order64 = OperatorSpec({(64, 0): gr(Fraction(3, d1)), (32, 32): gr(Fraction(-5, d2)),
                            (0, 64): gr(Fraction(11, d3)), (3, 1): gr(2, -1), (0, 2): gr(-1)},
                           Fraction(3, 7))
    check_spec_size(order64)
    # dense order 12, every coefficient over its own primes, so the Laplacian
    # stage merges terms of unequal denominators
    keys = [(j, k) for j in range(13) for k in range(13 - j)]
    primes = _primes(2 * len(keys))
    distinct = OperatorSpec({jk: GaussianRational(Fraction(rng.randint(-40, 40) or 1, primes[2 * n]),
                                                  Fraction(rng.randint(-40, 40), primes[2 * n + 1]))
                             for n, jk in enumerate(keys)}, Fraction(2, 5))
    return {"dense10_p5o6": dense10,
            "x12d12_p1o2": OperatorSpec({(12, 12): GR_ONE}, Fraction(1, 2)),
            "dense30_p3o7": _dense_unit_spec(30),
            "order64_three_1000_bit_denominators": order64,
            "dense12_distinct_denominators": distinct}


@pytest.mark.parametrize("name", list(_kernel_oracle_cases()))
def test_kernels_match_their_oracles_term_for_term_at_benchmark_and_limit_sizes(name):
    spec = _kernel_oracle_cases()[name]
    at = a_tilde(spec)
    assert list(at.terms.items()) == list(fraction_chain_a_tilde(spec).terms.items())
    b = build_b_symbol(spec, at)
    assert list(b.terms.items()) == list(fraction_chain_b_symbol(spec, at).terms.items())
    check = verify_degeneracy(spec, b, at)
    assert check.holds and check.residual == MultiPoly.zero(PHASE_VARS)
    assert list(check.value.terms.items()) == [((m, n, 0, 0), c) for (m, n), c in at.terms.items()]
    assert _transport_residuals_vanish(b, spec.p, spec.q)
    assert accumulated_transport_residuals_vanish(b, spec.p, spec.q)
    # one coefficient bumped, and one term moved onto its transport partner
    (i, j, s, t), c = next((e, c) for e, c in b.terms.items() if e[3])
    for bump in ({(i, j, s, t): gr(1, 1)}, {(i, j, s, t): -c, (i + 1, j, s, t - 1): c}):
        assert not _transport_residuals_vanish(b + MultiPoly(PHASE_VARS, bump), spec.p, spec.q)
    a = spec.a_symbol()
    for fast, series in ((weyl_wick, series_weyl_wick), (weyl_wick_inverse, series_weyl_wick_inverse)):
        got = fast(a)
        assert list(got.terms.items()) == list(series(a).terms.items())
        assert list(fast(got).terms.items()) == list(series(got).terms.items())


def _bound_symbol(*dens):
    """x^2/d1 + xi^2/d2 + ...: degree 2, so the stages add S = 8, 4 bits."""
    exps = [(2, 0), (0, 2), (1, 1), (0, 0)]
    return MultiPoly(MODEL_VARS, {e: gr(Fraction(1, d)) for e, d in zip(exps, dens)})


def test_wick_denominator_bound_admits_every_spec_and_refuses_one_bit_past_it():
    rng = random.Random(4096)
    # specs near MAX_SPEC_BITS whose denominators are pairwise coprime, so their
    # lcm is their product: two near the per-rational limit at order 2, and six
    # of ~660 bits at order 10
    halves = _coprime_odd_numbers(rng, MAX_RATIONAL_BITS - 6, 2)
    sixths = _coprime_odd_numbers(rng, 660, 6)
    specs = [OperatorSpec({(2, 0): gr(Fraction(1, halves[0])), (0, 2): gr(Fraction(-1, halves[1]))},
                          Fraction(1, 2)),
             OperatorSpec({jk: gr(Fraction(n + 1, d), Fraction(0))
                           for n, (jk, d) in enumerate(zip([(10, 0), (0, 10), (5, 5), (3, 2), (1, 1), (0, 0)],
                                                           sixths))}, Fraction(1, 3))]
    for r in specs:
        check_spec_size(r)
        total = sum(rational_bits(c.re) + rational_bits(c.im) for c in r.coeffs.values())
        assert total + r.order * rational_bits(r.p) > MAX_SPEC_BITS - 100
        a = r.a_symbol()
        wick_den = lcm(*(c.re.denominator for c in weyl_wick(a).terms.values()))
        assert wick_den.bit_length() > MAX_SPEC_BITS - 150
        assert weyl_wick_inverse(weyl_wick(a)) == a
        assert weyl_wick(weyl_wick_inverse(a)) == a
    # degree 2: the limit is 4096 + 4 bits; 2^2050 times an odd number of 2050
    # bits has 4100, and of 2051 bits 4101
    at_limit = _bound_symbol(1 << 2050, (1 << 2049) | 1)
    assert weyl_wick(at_limit) == series_weyl_wick(at_limit)
    past = _bound_symbol(1 << 2050, (1 << 2050) | 1)
    message = ("common denominator of the symbol's coefficients exceeds the limit of 4100 bits "
               "(4096 spec bits plus 4 for degree 2)")
    for transform in (weyl_wick, weyl_wick_inverse):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            transform(past)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        wick_energy_compare(past, Hermite(0))


def test_wick_rejects_phase_space_symbols():
    with pytest.raises(ValueError, match="expected a symbol"):
        weyl_wick(var("y"))
    with pytest.raises(ValueError, match="expected a symbol"):
        weyl_wick_inverse(var("eta"))


# ---------------------------------------------------------------------------
# linear changes of variables
# ---------------------------------------------------------------------------


def test_linear_change_rejects_singular():
    with pytest.raises(ValueError):
        LinearChange(((1, 2), (2, 4)))


def test_linear_change_inverse_and_json():
    t = LinearChange(((2, 0), (0, 1)))
    assert t.inverse().rows == ((Fraction(1, 2), 0), (0, 1))
    assert LinearChange.from_json(t.to_json()).rows == t.rows


def test_t_conjugate_identity_fixes_symbol():
    ident = LinearChange(((1, 0), (0, 1)))
    b = build_b_symbol(EQ44)
    assert t_conjugate(b, ident) == b


def test_t_conjugate_inverts():
    t = LinearChange(((2, 1), (1, 1)))
    b = build_b_symbol(EQ44)
    assert t_conjugate(t_conjugate(b, t), t.inverse()) == b


def test_t_conjugate_scaling_example():
    # diag(2, 1) stretches x and squeezes xi
    t = LinearChange(((2, 0), (0, 1)))
    sym = MultiPoly(MODEL_VARS, {(1, 0): GR_ONE, (0, 1): GR_ONE})  # x + xi
    got = t_conjugate(sym, t)
    expected = var("x").scale(Fraction(2)) + var("xi").scale(Fraction(1, 2))
    assert got == expected


CONJUGATIONS = [
    ((Fraction(23, 2), 0), (0, Fraction(-19, 3))),     # diagonal, negative determinant
    ((0, Fraction(3, 5)), (-2, 0)),                     # anti-diagonal
    ((0, 1), (1, 0)),                                   # swap, determinant -1
    ((2, 0), (Fraction(-7, 4), 1)),                     # one zero entry
    ((Fraction(1, 3), 2), (5, Fraction(-1, 2))),        # dense, negative determinant
    ((2, 1), (1, 1)),
]


@pytest.mark.parametrize("rows", CONJUGATIONS)
def test_t_conjugate_matches_substitution_oracle(rows):
    rng = random.Random(str(rows))
    change = LinearChange(rows)
    for _ in range(12):
        vars_ = rng.choice([PHASE_VARS, MODEL_VARS, ("x", "y"), ("xi", "eta"), ("eta",), ()])
        terms = {tuple(rng.randint(0, 4) for _ in vars_):
                 gr(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
                 for _ in range(rng.randint(0, 7))}
        sym = MultiPoly(vars_, terms)
        got, want = t_conjugate(sym, change), substitute_t_conjugate(sym, change)
        assert got.to_json() == want.to_json(), (sym, rows)
    b = build_b_symbol(EQ44)
    assert t_conjugate(b, change).to_json() == substitute_t_conjugate(b, change).to_json()
