"""The %.17g digit kernel against Python's own formatting, byte for byte."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wigreg import g17


def texts(values):
    """g17.fields of ``values`` as one bytes object per value."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    out = np.zeros(values.shape + (g17.WIDTH,), dtype=np.uint8)
    g17.fields(values, out, *g17.buffers(values.shape))
    return [row[row != 0].tobytes() for row in out.reshape(-1, g17.WIDTH)]


def assert_python_bytes(values):
    values = np.asarray(values, dtype=np.float64)
    expected = [b"%.17g" % x for x in values.tolist()]
    got = texts(values)
    wrong = [(x, ours, theirs) for x, ours, theirs in zip(values.tolist(), got, expected)
             if ours != theirs]
    assert not wrong, wrong[:5]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
@settings(max_examples=300)
def test_matches_python_on_any_finite_float(values):
    # hypothesis draws both zeros, subnormals and the ends of the range
    assert_python_bytes(values + [0.0, -0.0, 5e-324, -2.2250738585072014e-308])


def _powers_of_ten():
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    below = np.nextafter(tens, 0.0)
    above = np.nextafter(tens, np.inf)
    return np.concatenate([tens, below, above, np.nextafter(below, 0.0), np.nextafter(above, np.inf)])


def _dyadic_ties(rng):
    # m / 4 with m odd and 16 digits: 18 significant digits ending in 25 or 75,
    # so every one is an exact tie of the 17-digit rounding at y = 2.5 m
    m = rng.integers(4 * 10 ** 15, 9 * 10 ** 15, 5000) | 1
    return np.concatenate([m / 4.0, -m / 4.0, m / 4.0 * 2.0 ** -40])


def _near_1e16_and_1e17(rng):
    steps = rng.integers(-5000, 5000, 5000)
    ints = np.concatenate([(10 ** 16 + steps).astype(float), (10 ** 17 + 16 * steps).astype(float)])
    return np.concatenate([ints, ints * 1e-30, -ints * 1e200])


def _exponent_edges(rng):
    # decimal exponents where the notation or the exponent width changes,
    # and the edges of the range the digit arithmetic takes
    mantissas = np.concatenate([[1.0, 9.999999999999999, 9.9999999999999982, 5.0],
                                1.0 + 9.0 * rng.random(200)])
    exponents = [-5, -4, 16, 17, -100, -99, 99, 100, -281, -280, 280, 281]
    # infinities and NaN never reach a grid file, but take the fallback too
    return np.concatenate([mantissas * 10.0 ** e for e in exponents]
                          + [[1e-280, 1e280, math.nextafter(1e-280, 0), math.nextafter(1e280, 0),
                              math.inf, -math.inf, math.nan]])


FAMILIES = {
    "powers_of_ten": lambda rng: _powers_of_ten(),
    "dyadic_ties": _dyadic_ties,
    "near_1e16_and_1e17": _near_1e16_and_1e17,
    "exponent_edges": _exponent_edges,
    "random_bits": lambda rng: rng.integers(0, 2 ** 64, 50000, dtype=np.uint64).view(np.float64),
    "random_magnitudes": lambda rng: (rng.random(50000) * 10.0 ** rng.integers(-300, 300, 50000)
                                      * rng.choice([-1.0, 1.0], 50000)),
    "large_integers": lambda rng: rng.integers(-2 ** 62, 2 ** 62, 50000).astype(float),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_matches_python_on_seeded_families(family):
    assert_python_bytes(FAMILIES[family](np.random.default_rng(sorted(FAMILIES).index(family))))


def _carries():
    """Doubles at or just below a power of ten 10^(k + 1) whose exact
    y = x 10^(16 - k) lies in [10^17 - 1, 10^17): their digits would carry."""
    found = []
    for e in range(-279, 280):
        for x in (float(f"1e{e}"), math.nextafter(float(f"1e{e}"), 0.0)):
            y = Fraction(x) * Fraction(10) ** (17 - e)
            if 10 ** 17 - 1 <= y < 10 ** 17:
                found.append(x)
    return found


FALLBACK_CLASSES = {
    "outside_the_range": [1e280, -1e300, 1.7976931348623157e308, 1e-281, -2.5e-310, 5e-324],
    # exact ties: y = 10000000000000002.5 and -20000000000000007.5
    "near_a_half": [(4 * 10 ** 15 + 1) / 4.0, -(8 * 10 ** 15 + 3) / 4.0],
    "carry": _carries(),
}


def test_every_fallback_class_is_reached_and_gives_python_bytes(monkeypatch):
    seen = []
    python = g17.fallback
    monkeypatch.setattr(g17, "fallback", lambda x: seen.append(x) or python(x))
    assert len(FALLBACK_CLASSES["carry"]) >= 10
    for name, values in FALLBACK_CLASSES.items():
        seen.clear()
        assert_python_bytes(values)
        assert seen == values, name
    # zeros are written directly, and ordinary samples need no fallback
    seen.clear()
    assert_python_bytes(np.concatenate([[0.0, -0.0], np.random.default_rng(5).standard_normal(4096)]))
    assert seen == []


def test_unsettled_exponents_fall_back_to_python_bytes(monkeypatch):
    # a log10 two digits too high leaves y below 10^16 after the one re-pick
    values = np.random.default_rng(6).standard_normal(512) * 10.0 ** np.arange(-256, 256)
    seen = []
    python = g17.fallback
    monkeypatch.setattr(g17, "fallback", lambda x: seen.append(x) or python(x))
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + 2.0)
    assert_python_bytes(values)
    assert len(seen) >= 500


def test_exponents_below_a_power_of_ten_settle_on_the_re_pick(monkeypatch):
    # log10 gives 156 and 23 for these doubles just below 10^156 and 10^23,
    # and y = x 10^(16 - k) falls below 10^16: k is re-picked from floor(y),
    # where the rounded digits (10^16) alone would keep the wrong exponent
    assert np.log10(1e156) == 156.0 and np.log10(1e23) == 23.0
    seen = []
    monkeypatch.setattr(g17, "fallback", seen.append)
    assert texts([1e156, -1e23]) == [b"9.9999999999999998e+155", b"-9.9999999999999992e+22"]
    assert seen == []
