"""Exact scalar and polynomial layer."""

import gc
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wigreg import exact as exact_module
from wigreg.exact import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GRID_BLOCK_ROWS,
    MAX_ORDER,
    MAX_RATIONAL_BITS,
    MAX_RATIONAL_DIGITS,
    GaussianRational,
    MultiPoly,
    NonFiniteSampleError,
    SamplingError,
    _digit_count,
    _json_int,
    format_rational,
    load_json,
    parse_int,
    parse_rational,
)

from oracles import complex_term_eval, complex_terms, fresh_planes_eval, python_eval

GOLDEN = Path(__file__).with_name("golden")

# ---------------------------------------------------------------------------
# rationals and Gaussian rationals
# ---------------------------------------------------------------------------


def test_parse_rational_accepts_integer_and_fraction_strings():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("+4/6") == Fraction(2, 3)


@pytest.mark.parametrize("bad", ["", "1.5", "1e3", "a/b", "1/0", "2/", "/3", "1 / 2"])
def test_parse_rational_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_round_trips_parse():
    for text in ["0", "5", "-12", "7/3", "-1/9"]:
        assert format_rational(parse_rational(text)) == text


def test_parse_rational_reads_finite_json_numbers_and_nothing_else():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational(-0.25) == Fraction(-1, 4)
    assert parse_rational(0.1) == Fraction(0.1)         # the double's exact value
    for bad in (True, False, None, [], {}, float("inf"), float("nan"), Fraction(1, 2)):
        with pytest.raises(ValueError, match="^rational must be a string or a finite number, got "):
            parse_rational(bad)


def test_parse_rational_names_the_field_and_never_echoes_an_oversized_value():
    with pytest.raises(ValueError, match=f"^lam has 2049 bits, beyond the limit of {MAX_RATIONAL_BITS} "):
        parse_rational(2 ** 2047, "lam")
    with pytest.raises(ValueError, match="^rational has 5000 digits, beyond the limit"):
        parse_rational("7" * 5000)
    with pytest.raises(ValueError) as info:
        parse_rational("0" * 5000 + "1.5")
    assert len(str(info.value)) < 160


def test_parse_int_takes_only_json_integers_within_the_limit():
    assert parse_int(0, "j") == 0
    assert parse_int(MAX_ORDER, "h", least=1) == MAX_ORDER
    assert parse_int(10 ** 6, "j", most=None) == 10 ** 6
    for bad in (-1, True, 2.0, 2.7, "2", None, [2]):
        with pytest.raises(ValueError, match="^j must be a non-negative integer$"):
            parse_int(bad, "j")
    with pytest.raises(ValueError, match="^m must be a positive integer$"):
        parse_int(0, "m", least=1)
    with pytest.raises(ValueError, match=f"^h = {MAX_ORDER + 1} exceeds the limit of {MAX_ORDER}$"):
        parse_int(MAX_ORDER + 1, "h")


@pytest.mark.parametrize("digits", [0, 1000], ids=["short", "over-long"])
def test_load_json_refuses_nesting_beyond_the_recursion_limit(digits):
    # both of load_json's scanners, with and without the integer hook
    with pytest.raises(ValueError, match="^JSON nests too deeply to parse$"):
        load_json("[" * 100_000 + "1" * digits + "]" * 100_000)


def test_load_json_keeps_only_over_long_integer_literals_as_text():
    digits = "9" * MAX_RATIONAL_DIGITS
    doc = load_json(f'{{"a": {digits}, "b": -{digits}9, "c": 1.5, "d": "7"}}')
    assert doc == {"a": int(digits), "b": f"-{digits}9", "c": 1.5, "d": "7"}


@pytest.mark.parametrize("length", range(MAX_RATIONAL_DIGITS - 1, MAX_RATIONAL_DIGITS + 3))
@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("where", ["value", "string", "float"])
def test_load_json_matches_the_integer_hook_around_the_digit_limit(length, sign, where):
    digits = "1" + "0" * (length - 1)
    literal = {"value": sign + digits, "string": f'"{sign}{digits}"',
               "float": f"{sign}{digits}.5"}[where]
    text = f'{{"p": {literal}, "coeffs": [{{"j": 2, "k": 0, "re": 3}}], "q": [-7, 0]}}'
    # the hook path: every integer literal through _json_int
    got, expected = load_json(text), json.loads(text, parse_int=_json_int)
    assert got == expected
    assert [type(v) for v in got.values()] == [type(v) for v in expected.values()]

    def refusal(doc):
        try:
            return parse_rational(doc["p"], "p")
        except ValueError as exc:
            return str(exc)

    assert refusal(got) == refusal(expected)
    if where == "value":
        assert isinstance(got["p"], str) == (length > MAX_RATIONAL_DIGITS)


def test_load_json_reads_integers_on_the_c_path_when_no_digit_run_is_long(monkeypatch):
    def no_hook(text):
        raise AssertionError("an integer went through _json_int")

    monkeypatch.setattr(exact_module, "_json_int", no_hook)
    text = (GOLDEN / "certify_dense6_p3o7.out").read_text()
    assert load_json(text) == json.loads(text)
    long_run = f'{{"a": "{"7" * (MAX_RATIONAL_DIGITS + 1)}", "b": 1}}'
    with pytest.raises(AssertionError, match="_json_int"):
        load_json(long_run)


def test_polynomial_json_reads_exponents_through_the_integer_reader():
    for exp, message in (([2.0, 0], "exponent must be a non-negative integer"),
                         ([True, 0], "exponent must be a non-negative integer"),
                         ([65, 0], "exponent = 65 exceeds the limit of 64"),
                         ([33, 32], "polynomial degree = 65 exceeds the limit of 64"),
                         ([1], "terms[0].exp must be a list of 2 integers"),
                         ([1, 0, 0], "terms[0].exp must be a list of 2 integers"),
                         (5, "terms[0].exp must be a list of 2 integers")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MultiPoly.from_json({"vars": ["x", "xi"], "terms": [{"exp": exp, "re": 1}]})
    poly = MultiPoly.from_json({"vars": ["x", "xi"], "terms": [{"exp": [32, 32], "re": 1, "im": "-1/2"}]})
    assert poly.terms == {(32, 32): GaussianRational(Fraction(1), Fraction(-1, 2))}


def test_gaussian_rational_basic_identities():
    z = GaussianRational(Fraction(1, 2), Fraction(-3))
    assert z + GR_ZERO == z
    assert z * GR_ONE == z
    assert GR_I * GR_I == GaussianRational(Fraction(-1))
    assert (z * z.conjugate()).im == 0
    assert z / z == GR_ONE


def test_gaussian_rational_division_and_power():
    z = GaussianRational(Fraction(2), Fraction(1))
    w = GaussianRational(Fraction(0), Fraction(-3))
    assert (z / w) * w == z
    assert z ** 3 == z * z * z
    assert z ** 0 == GR_ONE
    with pytest.raises(ZeroDivisionError):
        z / GR_ZERO


scalars = st.builds(
    GaussianRational,
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@given(scalars, scalars, scalars)
def test_gaussian_rational_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars)
def test_gaussian_rational_json_round_trip(z):
    assert GaussianRational.from_json(z.to_json()) == z


def test_gaussian_rational_to_complex():
    z = GaussianRational(Fraction(1, 4), Fraction(-2))
    assert z.to_complex() == 0.25 - 2j


def test_to_complex_beyond_the_float_range_gives_the_digit_count():
    with pytest.raises(ValueError, match="coefficient has 311 digits, beyond the float range"):
        GaussianRational(Fraction(10 ** 310)).to_complex()
    with pytest.raises(ValueError, match="coefficient has 400 digits"):
        GaussianRational(Fraction(1), Fraction(-(10 ** 400), 3)).to_complex()
    # huge parts whose quotient fits a float still convert
    assert GaussianRational(Fraction(10 ** 400, 4 * 10 ** 399)).to_complex() == 2.5


def test_digit_count_matches_the_decimal_string():
    for k in range(0, 4000, 37):
        for n in (10 ** k - 1, 10 ** k, 10 ** k + 1, 2 ** (3 * k), -(10 ** k)):
            assert _digit_count(n) == len(str(abs(n))), n


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


@st.composite
def polys(draw, vars_=("x", "xi"), max_terms=6, max_degree=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = tuple(draw(st.integers(0, max_degree)) for _ in vars_)
        terms[exp] = draw(scalars)
    return MultiPoly(vars_, terms)


def test_constructors_and_degree():
    x = MultiPoly.variable("x")
    assert x.total_degree() == 1
    assert MultiPoly.zero(("x",)).total_degree() == -1
    five = MultiPoly.constant(GaussianRational(Fraction(5)), ("x", "xi"))
    assert five.total_degree() == 0
    assert five.constant_term() == GaussianRational(Fraction(5))


def test_monomial_arithmetic_example():
    x = MultiPoly.variable("x")
    xi = MultiPoly.variable("xi")
    p = (x + xi) * (x - xi)
    assert p == x * x - xi * xi
    assert p.coefficient({"x": 1, "xi": 1}).is_zero()


def test_unknown_variable_rejected():
    with pytest.raises(ValueError):
        MultiPoly.variable("zeta")
    x = MultiPoly.variable("x")
    with pytest.raises(ValueError):
        x.diff("nope", 1)


@given(polys(), polys(), polys())
@settings(max_examples=60)
def test_poly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys(), polys())
@settings(max_examples=60)
def test_diff_is_a_derivation(a, b):
    lhs = (a * b).diff("x", 1)
    rhs = a.diff("x", 1) * b + a * b.diff("x", 1)
    assert lhs == rhs


@given(polys())
@settings(max_examples=60)
def test_mixed_partials_commute(a):
    assert a.diff("x", 1).diff("xi", 1) == a.diff("xi", 1).diff("x", 1)


@given(polys(), polys())
@settings(max_examples=40)
def test_substitution_is_a_ring_homomorphism(a, b):
    images = {
        "x": MultiPoly.variable("x") + MultiPoly.variable("xi"),
        "xi": MultiPoly.variable("x") * MultiPoly.variable("xi"),
    }
    assert (a + b).substitute(images) == a.substitute(images) + b.substitute(images)
    assert (a * b).substitute(images) == a.substitute(images) * b.substitute(images)


def test_substitution_requires_every_variable():
    p = MultiPoly.variable("x") + MultiPoly.variable("xi")
    with pytest.raises(ValueError):
        p.substitute({"x": MultiPoly.variable("x")})


def test_identity_substitution_fixes_everything():
    p = MultiPoly.variable("x") ** 3 - MultiPoly.variable("xi")
    assert p.substitute({v: MultiPoly.variable(v) for v in p.vars}) == p


@given(polys())
@settings(max_examples=60)
def test_poly_json_round_trip(a):
    assert MultiPoly.from_json(a.to_json()) == a


def test_promote():
    up = MultiPoly.variable("x").promote(("x", "y", "xi"))
    assert up.vars == ("x", "y", "xi")
    assert list(up.terms) == [(1, 0, 0)]
    with pytest.raises(ValueError, match="cannot promote"):
        up.promote(("x", "xi"))


def test_eval_numpy_matches_horner_by_hand():
    import numpy as np

    x = MultiPoly.variable("x")
    xi = MultiPoly.variable("xi")
    p = x * x + xi.scale(GaussianRational(Fraction(0), Fraction(2)))
    xs = np.linspace(-2, 2, 7)
    vals = p.eval_numpy({"x": xs, "xi": xs})
    assert np.allclose(vals, xs ** 2 + 2j * xs)


def test_eval_numpy_shared_power_planes_are_bit_identical():
    import numpy as np

    a = MultiPoly(("x", "xi"), {(3, 1): GaussianRational(Fraction(1, 3), Fraction(-2)),
                                (0, 4): GaussianRational(Fraction(5)), (2, 0): GaussianRational(Fraction(-1, 7))})
    theta = np.linspace(0.0, 6.0, 101)
    point = {"x": 9.5 * np.cos(theta), "xi": 9.5 * np.sin(theta)}
    planes = {}
    for poly in (a, a.diff("x"), a.diff("xi")):
        shared = poly._sum_terms(point, poly._float_terms(point), planes)
        assert np.array_equal(shared, poly.eval_numpy(point))
    assert set(planes) == {("x", 1), ("x", 2), ("x", 3), ("xi", 1), ("xi", 3), ("xi", 4)}


def test_eval_numpy_names_the_term_beyond_the_float_range():
    a = MultiPoly(("x", "xi"), {(2, 1): GaussianRational(Fraction(-(10 ** 320))), (0, 0): GR_ONE})
    with pytest.raises(ValueError, match=r"x\^2\*xi term: coefficient has 321 digits"):
        a.eval_numpy({"x": np.ones(3), "xi": np.ones(3)})
    with pytest.raises(ValueError, match="constant term: coefficient has 311 digits"):
        MultiPoly.constant(10 ** 310).eval_numpy({})


def _bits(z):
    return np.ascontiguousarray(z).view(np.uint64)


def _grid(poly, x, xi):
    """The row blocks of poly.grid_blocks(x, xi), checked to tile the grid in
    order, stacked into the whole grid."""
    blocks = list(poly.grid_blocks(x, xi))
    assert [rows.start for rows, _ in blocks] == list(range(0, len(x), GRID_BLOCK_ROWS))
    assert all(block.shape == (len(x[rows]), len(xi)) for rows, block in blocks)
    return np.concatenate([block for _, block in blocks])


def test_grid_blocks_match_meshgrid_planes_bit_for_bit():
    # 93 rows: two whole blocks and a short last one
    x, xi = np.linspace(-3.0, 3.0, 93), np.linspace(-2.0, 5.0, 17)
    planes = dict(zip(("x", "xi"), np.meshgrid(x, xi, indexing="ij")))
    c = GaussianRational(Fraction(-1, 3), Fraction(2, 7))
    polys = [
        MultiPoly(("x", "xi"), {(3, 1): c, (0, 4): GaussianRational(Fraction(5)),
                                (2, 0): GaussianRational(Fraction(0), Fraction(-1, 7)),
                                (0, 0): GR_ONE}),
        MultiPoly(("x", "xi"), {(2, 0): c, (0, 0): GR_I}),     # one variable used
        MultiPoly(("x",), {(5,): c, (1,): GR_ONE}),            # one variable held
        MultiPoly(("xi",), {(2,): GR_I}),
        # at x, xi < 0 both terms carry a -0.0 imaginary part; so does the sum
        MultiPoly(("x", "xi"), {(1, 0): -GR_ONE, (0, 1): -GR_ONE}),
        MultiPoly.constant(c),
    ]
    for poly in polys:
        got = _grid(poly, x, xi)
        assert got.shape == (93, 17)
        assert np.array_equal(_bits(got), _bits(fresh_planes_eval(poly, planes)))


def test_grid_blocks_refuse_samples_beyond_the_float_range():
    # 10^300 x^10 and 10^300 x^9 overflow to inf near the edge of the grid,
    # and their sum to NaN
    big = GaussianRational(Fraction(10 ** 300))
    poly = MultiPoly(("x", "xi"), {(10, 0): big, (9, 0): -big, (0, 10): big})
    line = np.linspace(-20.0, 20.0, 401)
    with np.errstate(all="raise"):   # no warning escapes the sampler either
        blocks = poly.grid_blocks(line, line)
        with pytest.raises(NonFiniteSampleError, match="^sampled symbol leaves the float range$"):
            next(blocks)
        # eval_numpy makes the check itself, for every sampler: here on the
        # circle of radius 64, where 10^300 x^10 and 10^300 xi^10 overflow
        theta = 2.0 * np.pi * np.arange(64) / 64
        with pytest.raises(NonFiniteSampleError, match="^sampled symbol leaves the float range$"):
            poly.eval_numpy({"x": 64.0 * np.cos(theta), "xi": 64.0 * np.sin(theta)})
    assert issubclass(NonFiniteSampleError, ValueError)
    inner = np.linspace(-1.0, 1.0, 50)
    assert np.isfinite(_grid(poly, inner, inner)).all()


def test_grid_blocks_convert_each_coefficient_once_per_grid(monkeypatch):
    # three row blocks (40, 40 and 21 rows), and eval_numpy's error before
    # the first block when a coefficient is beyond the float range
    calls = []
    real = GaussianRational.to_complex
    monkeypatch.setattr(GaussianRational, "to_complex", lambda c, k=1: calls.append(c) or real(c, k))
    poly = MultiPoly(("x", "xi"), {(2, 0): GR_ONE, (1, 1): GR_I, (0, 0): GaussianRational(Fraction(1, 3))})
    line = np.linspace(-1.0, 1.0, 101)
    assert len(list(poly.grid_blocks(line, line))) == 3
    assert len(calls) == 3
    huge = poly + MultiPoly(("x", "xi"), {(0, 3): GaussianRational(Fraction(10 ** 310))})
    blocks = huge.grid_blocks(line, line)
    with pytest.raises(SamplingError, match=r"^xi\^3 term: coefficient has 311 digits, beyond the float range$"):
        next(blocks)
    with pytest.raises(SamplingError, match=r"^xi\^3 term: coefficient has 311 digits, beyond the float range$"):
        huge.eval_numpy({"x": line, "xi": line})
    assert issubclass(NonFiniteSampleError, SamplingError)


def _reference_polys():
    rng = random.Random(24)

    def coef():
        return GaussianRational(Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                                Fraction(rng.randint(-40, 40), rng.randint(1, 9)))

    dense = {(i, j): coef() for i, j in ((rng.randint(0, 24), rng.randint(0, 24)) for _ in range(30))
             if i + j <= 24}
    return [
        MultiPoly(("x", "xi"), {**dense, (24, 0): coef(), (0, 24): coef(), (13, 11): coef()}),
        MultiPoly(("x",), {(24,): coef(), (17,): GaussianRational(Fraction(4)), (1,): GR_I}),
        MultiPoly(("xi",), {(23,): coef(), (5,): GaussianRational(Fraction(0), Fraction(1, 7))}),
        MultiPoly(("x", "xi"), {(3, 0): -GR_ONE, (0, 3): -GR_ONE, (0, 0): coef()}),
    ]


def test_eval_matches_python_scalar_reference_bit_for_bit():
    x, xi = np.linspace(-1.7, 2.3, 23), np.linspace(-2.9, 1.1, 19)
    paired = list(zip(x.tolist(), x[::-1].tolist()))
    for poly in _reference_polys():
        want = np.array([python_eval(poly, {"x": a, "xi": b}) for a, b in paired])
        line = poly.eval_numpy({"x": x, "xi": x[::-1]})
        column = poly.eval_numpy({"x": x[:, None], "xi": x[::-1, None]})
        assert np.array_equal(_bits(line), _bits(want))
        assert np.array_equal(_bits(column), _bits(want[:, None]))
        grid = np.array([[python_eval(poly, {"x": a, "xi": b}) for b in xi.tolist()]
                         for a in x.tolist()])
        assert np.array_equal(_bits(_grid(poly, x, xi)), _bits(grid))


# coefficient parts: zero, ordinary, large enough that samples overflow,
# small enough to round to 0.0, and beyond the float range
SAMPLE_PARTS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=9),
    st.sampled_from([Fraction(10 ** 300), Fraction(-7 * 10 ** 300, 3), Fraction(1, 10 ** 400),
                     Fraction(-1, 10 ** 400), Fraction(10 ** 310)]))
# points: signed zeros, ordinary values, and values whose powers overflow
POINT_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.75, 3.0, 1e-200, 1e40, -1e40, 1e200])


@st.composite
def real_symbols(draw):
    """Polynomials over x and xi, x alone or xi alone, with constant terms,
    terms in one variable and zero real or imaginary parts."""
    vars_ = draw(st.sampled_from([("x", "xi"), ("x",), ("xi",)]))
    exps = st.tuples(*[st.integers(0, 9)] * len(vars_))
    terms = draw(st.dictionaries(exps, st.tuples(SAMPLE_PARTS, SAMPLE_PARTS), max_size=8))
    return MultiPoly(vars_, {e: GaussianRational(re, im) for e, (re, im) in terms.items()})


def _sampled(sample, *args):
    """The float64 view and shape of a sample, or its error's type and text."""
    try:
        vals = np.asarray(sample(*args))
        return vals.shape, np.ascontiguousarray(vals).view(np.float64).tolist()
    except SamplingError as exc:
        return type(exc).__name__, str(exc)


@given(real_symbols(), st.lists(POINT_VALUES, min_size=1, max_size=5),
       st.lists(POINT_VALUES, min_size=1, max_size=5), st.sampled_from(["line", "grid", "scalar"]))
@settings(max_examples=400, deadline=None)
def test_eval_numpy_matches_the_complex_term_loop_bit_for_bit(poly, xs, xis, layout):
    # float views are compared as lists, so a NaN would fail the test
    if layout == "line":
        n = min(len(xs), len(xis))
        point = {"x": np.array(xs[:n]), "xi": np.array(xis[:n])}
    elif layout == "grid":
        # the column-by-row shapes of grid_blocks
        point = {"x": np.array(xs)[:, None], "xi": np.array(xis)[None, :]}
    else:
        point = {"x": xs[0], "xi": xis[0]}
    want = _sampled(complex_term_eval, poly, point)
    assert _sampled(poly.eval_numpy, point) == want
    if layout == "grid":
        grid = _sampled(lambda: np.concatenate([b for _, b in poly.grid_blocks(np.array(xs), np.array(xis))]))
        wide = _sampled(lambda: np.broadcast_to(complex_term_eval(poly, point), (len(xs), len(xis))))
        assert grid == wide


@given(real_symbols(), st.sampled_from(["x", "xi"]))
@settings(max_examples=200, deadline=None)
def test_derivative_float_terms_are_the_floats_of_diff(poly, var):
    if var not in poly.vars:
        return
    point = {v: 1.0 for v in poly.vars}

    def terms(convert):
        try:
            return convert()
        except SamplingError as exc:
            return str(exc)

    ours = terms(lambda: poly._float_terms(point, var))
    want = terms(lambda: complex_terms(poly.diff(var)))
    # repr spells out every float, the sign of a zero included
    assert repr(ours) == repr(want)


def test_eval_numpy_refuses_complex_points():
    poly = MultiPoly(("x", "xi"), {(1, 1): GR_ONE})
    for point in ({"x": np.array([1j]), "xi": np.ones(1)}, {"x": 1.0, "xi": 2 + 0j}):
        with pytest.raises(ValueError, match="takes real points only"):
            poly.eval_numpy(point)
    with pytest.raises(ValueError, match="takes real points only"):
        next(poly.grid_blocks(np.ones(3), np.ones(3) + 0j))


def test_eval_numpy_leaves_no_cyclic_garbage():
    poly = _reference_polys()[0]
    x = np.linspace(-1.0, 1.0, 64)
    gc.collect()
    gc.disable()
    try:
        poly.eval_numpy({"x": x, "xi": x})
        _grid(poly, x, x)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_leading_form_and_coefficient():
    x = MultiPoly.variable("x")
    xi = MultiPoly.variable("xi")
    p = x ** 4 + x * xi + xi
    assert p.leading_form() == x ** 4
    assert p.coefficient({"x": 1, "xi": 1}) == GR_ONE
    assert p.degree_in("xi") == 1
