"""Command-line interface: exit codes, outputs, and error paths."""

import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from wigreg import cli, wigner
from wigreg.cli import main
from wigreg.hermite import Hermite
from wigreg.spectral import BoundaryDecayWarning
from wigreg.wigner import read_grid

EQ44 = {"p": "1/2", "coeffs": [{"j": 2, "k": 0, "re": "4"},
                               {"j": 0, "k": 2, "re": "1/4"}]}
FIRST_MINUS = {"p": "1/2", "coeffs": [{"j": 0, "k": 1, "re": "1"},
                                      {"j": 1, "k": 0, "im": "-1"}]}
GOLDEN = Path(__file__).with_name("golden")
SEXTIC = {"p": "1/2", "coeffs": [
    {"j": 6, "k": 0, "re": "1"}, {"j": 2, "k": 2, "re": "2"},
    {"j": 1, "k": 1, "im": "-4"}, {"j": 0, "k": 6, "re": "1"},
]}


@pytest.fixture
def spec_file(tmp_path):
    def write(obj, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)
    return write


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_exit_codes(spec_file, capsys):
    assert main(["certify", spec_file(EQ44)]) == 0
    assert "verdict: Regular (exact)" in capsys.readouterr().out
    assert main(["certify", spec_file(FIRST_MINUS, "m.json"), "--quiet"]) == 4
    assert capsys.readouterr().out == ""
    assert main(["certify", spec_file(SEXTIC, "s.json"), "--quiet"]) == 3


def test_certify_writes_report_files(spec_file, tmp_path, capsys):
    report = tmp_path / "report.json"
    summary = tmp_path / "summary.txt"
    code = main(["certify", spec_file(EQ44), "--quiet",
                 "--report", str(report), "--summary", str(summary)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["verdict"]["status"] == "Regular"
    assert "generated_at" in doc
    assert "verdict: Regular (exact)" in summary.read_text()


def test_certify_missing_and_malformed_spec(tmp_path, capsys):
    assert main(["certify", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["certify", str(bad)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("p", [[], {}, float("inf"), float("nan")], ids=["list", "object", "inf", "nan"])
def test_certify_rejects_a_p_that_is_no_rational(spec_file, capsys, p):
    assert main(["certify", spec_file({"p": p, "coeffs": EQ44["coeffs"]})]) == 1
    assert "rational must be a string or a finite number, got" in capsys.readouterr().err
    assert main(["certify", spec_file({**EQ44, "T": [["1", p], ["0", "1"]]})]) == 1
    assert "rational must be a string or a finite number, got" in capsys.readouterr().err


def test_certify_rejects_oversized_order_fast(spec_file, capsys):
    huge = {"p": "1/2", "coeffs": [{"j": 1000000, "k": 0, "re": "1"}]}
    start = time.perf_counter()
    code = main(["certify", spec_file(huge)])
    elapsed = time.perf_counter() - start
    assert code == 1
    assert "operator order 1000000 exceeds the limit of 64" in capsys.readouterr().err
    assert elapsed < 1.0


def _dense_order_20_with_100_digit_rationals():
    rng = random.Random(20)

    def r100():
        return f"{rng.choice((-1, 1)) * rng.randrange(10 ** 99, 10 ** 100)}/{rng.randrange(10 ** 99, 10 ** 100)}"

    return {"p": "3/7", "coeffs": [{"j": j, "k": k, "re": r100(), "im": r100()}
                                   for j in range(21) for k in range(21 - j)]}


@pytest.mark.parametrize("spec,message", [
    ({"p": "1/2", "coeffs": [{"j": 1, "k": 1, "re": "1"}, {"j": 0, "k": 0, "re": "1" + "0" * 4399}]},
     "error: x^0 D^0 re has 4400 digits, beyond the limit of 2048 bits per rational"),
    (_dense_order_20_with_100_digit_rationals(),
     "error: spec holds 305599 bits, beyond the limit of 4096 bits (p and T count once per "
     "power up to the order); its largest share is x^1 D^1 im, 666 bits"),
    ({**EQ44, "T": [["1", "0"], ["1" * 700, "1"]]},
     "error: T[1][0] has 700 digits, beyond the limit of 2048 bits per rational"),
], ids=["4400-digit-coefficient", "dense-order-20", "700-digit-T"])
def test_certify_rejects_oversized_rationals_fast_naming_the_field(spec_file, capsys, spec, message):
    path = spec_file(spec)
    for argv in (["certify", path, "--quiet"], ["symbol", path, "--emit", "b"]):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        assert code == 1
        assert capsys.readouterr().err.startswith(message)
        assert elapsed < 1.0


def test_a_spec_whose_b_has_too_many_terms_exits_1_where_b_is_built(spec_file, capsys):
    path = spec_file({"p": "3/7", "coeffs": [{"j": j, "k": k, "re": "1"}
                                             for j in range(32) for k in range(32 - j)]})
    for argv in (["certify", path, "--quiet"], ["symbol", path, "--emit", "b"]):
        start = time.perf_counter()
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: b would have 52360 terms, beyond the limit of 50000 terms\n"
        assert time.perf_counter() - start < 1.0
    assert main(["symbol", path, "--emit", "a"]) == 0
    assert capsys.readouterr().out.startswith("a = x^31 + x^30*xi")


def test_certify_rejects_an_oversized_json_integer_before_converting_it(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"p": 1' + "0" * 4400 + ', "coeffs": [{"j": 1, "k": 1, "re": "1"}]}')
    assert main(["certify", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: p has 4401 digits, beyond the limit of 2048 bits per rational\n"


@pytest.mark.parametrize("text,message", [
    ('"p": -1' + "0" * 4400, "p has 4401 digits, beyond the limit of 2048 bits per rational"),
    ('"p": "1/2", "T": [["1", 1' + "0" * 700 + '], ["0", "1"]]',
     "T[0][1] has 701 digits, beyond the limit of 2048 bits per rational"),
], ids=["negative-p", "T"])
def test_an_oversized_json_integer_is_refused_by_the_field_it_fills(tmp_path, capsys, text, message):
    path = tmp_path / "spec.json"
    path.write_text("{" + text + ', "coeffs": [{"j": 1, "k": 1, "re": "1"}]}')
    assert main(["certify", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    path.write_text('{"p": "1/2", "coeffs": [{"j": 1' + "0" * 4400 + ', "k": 1, "re": "1"}]}')
    assert main(["certify", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: coeffs[0].j must be a non-negative integer\n"


@pytest.mark.parametrize("entry", [{"j": 2.7, "k": 0, "re": "1"}, {"j": True, "k": 0, "re": "1"},
                                   {"j": "2", "k": 0, "re": "1"}, {"k": 0, "re": "1"}],
                         ids=["float", "bool", "string", "missing"])
def test_certify_refuses_an_index_that_is_no_json_integer(spec_file, capsys, entry):
    # at 2.7 the index once truncated to 2, which read the spec as x^2 + xi^2
    spec = {"p": "1/2", "coeffs": [{"j": 0, "k": 2, "re": "1"}, entry]}
    assert main(["certify", spec_file(spec), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: coeffs[1].j must be a non-negative integer\n"


def test_certify_reads_rationals_given_as_json_numbers(spec_file, capsys):
    numbers = {"p": 0.5, "coeffs": [{"j": 2, "k": 0, "re": 4}, {"j": 0, "k": 2, "re": 0.25, "im": 0}]}
    outputs = []
    for spec in (EQ44, numbers):
        assert main(["symbol", spec_file(spec), "--emit", "a,b,atilde", "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    for spec in ({"p": True, "coeffs": EQ44["coeffs"]},
                 {"p": "1/2", "coeffs": [{"j": 2, "k": 0, "re": True}]}):
        assert main(["certify", spec_file(spec), "--quiet"]) == 1
        assert capsys.readouterr().err == "error: rational must be a string or a finite number, got True\n"


def _exit_1_within_a_second(argv, capsys):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    assert code == 1
    assert elapsed < 1.0, f"{argv[0]} took {elapsed:.2f} s"
    return capsys.readouterr()


def test_generate_refuses_a_target_beyond_the_degree_limit_fast(tmp_path, capsys):
    target = tmp_path / "target.json"
    for terms, message in (([[3000, 0], [0, 2]], "exponent = 3000 exceeds the limit of 64"),
                           ([[40, 40], [0, 2]], "polynomial degree = 80 exceeds the limit of 64")):
        target.write_text(json.dumps({"vars": ["x", "xi"],
                                      "terms": [{"exp": exp, "re": "1"} for exp in terms]}))
        err = _exit_1_within_a_second(["generate", "--positive-symbol", str(target), "--p", "1/2"],
                                      capsys).err
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("target,message", [
    ({"vars": ["x", "xi"], "terms": [{"re": "1"}]}, "terms[0].exp must be a list of 2 integers"),
    ({"vars": ["x", "xi"], "terms": 5}, "polynomial 'vars' and 'terms' must be lists"),
    ({"vars": ["x", "xi"], "terms": ["a"]}, "terms[0] must be an object with 'exp', 're' and 'im'"),
    ({"vars": ["x", "xi"], "terms": [{"exp": [0, 2], "re": "1"}, {"exp": 5, "re": "1"}]},
     "terms[1].exp must be a list of 2 integers"),
    ({"vars": ["x", "xi"], "terms": [{"exp": [1], "re": "1"}]}, "terms[0].exp must be a list of 2 integers"),
], ids=["no-exp", "terms-a-number", "term-a-string", "exp-a-number", "short-exp"])
def test_generate_refuses_a_malformed_target_naming_the_term(tmp_path, capsys, target, message):
    path = tmp_path / "target.json"
    path.write_text(json.dumps(target))
    err = _exit_1_within_a_second(["generate", "--positive-symbol", str(path), "--p", "1/2"], capsys).err
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("weights,message", [
    ("5/2,1,20000000,1", "h = 20000000 exceeds the limit of 64"),
    ("5/2,1,01,1", "h must be a positive integer"),
    ("5/2,1,1,0", "k must be a positive integer"),
    ("5/2,1,1.5,1", "h must be a positive integer"),
    ("5/2,1,1," + "1" * 5000, "k must be a positive integer"),
    ("5/2,1,40,1", "operator order 80 exceeds the limit of 64"),
    ("1/2" + "0" * 700 + ",1,1,1", "rho has 702 digits, beyond the limit of 2048 bits per rational"),
    (f"{3 ** 1200}/7,1,32,32", "spec holds 609078 bits, beyond the limit of 4096 bits"),
], ids=["h-beyond-the-limit", "leading-zero-h", "zero-k", "fractional-h", "5000-digit-k", "order-80",
        "702-digit-rho", "1900-bit-rho"])
def test_generate_quasi_homogeneous_refuses_oversized_weights_fast(capsys, weights, message):
    err = _exit_1_within_a_second(["generate", "--quasi-homogeneous", weights], capsys).err
    assert err.startswith(f"error: {message}")


def test_generate_positive_symbol_holds_its_spec_to_the_size_limit(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"vars": ["x", "xi"], "terms": [
        {"exp": [20, 0], "re": "1"}, {"exp": [0, 20], "re": "1"}, {"exp": [10, 10], "re": "1"}]}))
    err = _exit_1_within_a_second(["generate", "--positive-symbol", str(target),
                                   "--p", f"1/{3 ** 1200}"], capsys).err
    assert err.startswith("error: spec holds ")
    assert "its largest share is p, " in err


def _forged_certificate(tmp_path, name, kind, edit):
    doc = json.loads((GOLDEN / f"certify_{name}.out").read_text())
    cert = next(c for c in doc["verdict"]["chain"] if c["kind"] == kind)
    edit(cert)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    return str(path)


@pytest.mark.parametrize("name,kind,edit,line", [
    ("QUARTIC", "InjSOS",
     lambda c: c["payload"]["params"].update(h=40001, k=40001, m=40000, n=40000),
     "InjSOS: FAIL (malformed certificate: h = 40001 exceeds the limit of 64)"),
    ("QUARTIC", "HypoNewtonPolygon", lambda c: c["payload"]["params"].update(m=20, n=20),
     "HypoNewtonPolygon: FAIL (malformed certificate: family order = 80 exceeds the limit of 64)"),
    ("QUARTIC", "InjSOS", lambda c: c["payload"]["params"].update(h=True),
     "InjSOS: FAIL (malformed certificate: h must be a positive integer)"),
    ("SEXTIC", "HypoUnfalsified",
     lambda c: c["subject"].update(symbol={"vars": ["x", "xi"], "terms": [{"exp": [0, 2000000], "re": "1"}]}),
     "HypoUnfalsified: FAIL (malformed certificate: exponent = 2000000 exceeds the limit of 64)"),
    ("SEXTIC", "HypoUnfalsified",
     lambda c: c["subject"].update(symbol={"vars": ["x", "xi"], "terms": [{"exp": [1], "re": "1"}]}),
     "HypoUnfalsified: FAIL (malformed certificate: terms[0].exp must be a list of 2 integers)"),
    ("SEXTIC", "HypoUnfalsified",
     lambda c: c["subject"].update(symbol={"vars": ["x", "xi"], "terms": [{"re": "1"}]}),
     "HypoUnfalsified: FAIL (malformed certificate: terms[0].exp must be a list of 2 integers)"),
    ("FIRST_PLUS", "InjKernelEscape", lambda c: c["subject"].update(m=True),
     "InjKernelEscape: FAIL (malformed certificate: m must be a positive integer)"),
], ids=["sos-h-40001", "newton-order-80", "sos-bool-h", "unfalsified-xi-2000000", "unfalsified-short-exp",
        "unfalsified-no-exp", "kernel-bool-m"])
def test_verify_certificate_refuses_a_bare_certificate_beyond_the_limits_fast(tmp_path, capsys,
                                                                              name, kind, edit, line):
    out = _exit_1_within_a_second(["verify-certificate", _forged_certificate(tmp_path, name, kind, edit)],
                                  capsys).out
    assert out == line + "\n"


BEYOND_FLOAT = "1" + "0" * 310


@pytest.mark.parametrize("coeffs,term", [
    ([{"j": 1, "k": 1, "re": "1"}, {"j": 0, "k": 0, "re": BEYOND_FLOAT}], "constant term"),
    ([{"j": 3, "k": 3, "re": BEYOND_FLOAT}], "x^3*xi^3 term"),
])
def test_coefficient_beyond_the_float_range_exits_with_message(spec_file, capsys, coeffs, term):
    spec = spec_file({"p": "1/2", "coeffs": coeffs})
    start = time.perf_counter()
    code = main(["certify", spec, "--quiet"])
    elapsed = time.perf_counter() - start
    assert code == 1
    assert f"{term}: coefficient has 311 digits, beyond the float range" in capsys.readouterr().err
    assert elapsed < 1.0
    assert main(["verify-intertwine", spec, "--N", "64"]) == 1
    assert "D^" in capsys.readouterr().err


def test_quadratic_beyond_the_float_range_still_certifies(spec_file):
    # the exact quadratic certifiers never convert a coefficient to a float
    spec = spec_file({"p": "1/2", "coeffs": [{"j": 2, "k": 0, "re": BEYOND_FLOAT},
                                            {"j": 0, "k": 2, "re": "1"}]})
    assert main(["certify", spec, "--quiet"]) == 0


def test_generate_and_verify_beyond_the_float_range_exit_with_message(spec_file, tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"vars": ["x", "xi"], "terms": [
        {"exp": [4, 0], "re": "1"}, {"exp": [0, 4], "re": "1"}, {"exp": [0, 0], "re": BEYOND_FLOAT}]}))
    assert main(["generate", "--positive-symbol", str(target), "--p", "1/2"]) == 1
    assert "constant term: coefficient has 311 digits" in capsys.readouterr().err

    report = tmp_path / "report.json"
    main(["certify", spec_file(SEXTIC), "--quiet", "--report", str(report)])
    cert = json.loads(report.read_text())["verdict"]["chain"][0]
    assert cert["kind"] == "HypoUnfalsified"
    cert["subject"]["symbol"]["terms"][0]["re"] = BEYOND_FLOAT
    single = tmp_path / "cert.json"
    single.write_text(json.dumps(cert))
    assert main(["verify-certificate", str(single)]) == 1
    out = capsys.readouterr().out
    assert "FAIL (cannot re-sample the subject symbol: " in out
    assert "coefficient has 311 digits, beyond the float range" in out


# ---------------------------------------------------------------------------
# symbol
# ---------------------------------------------------------------------------


def test_symbol_default_and_multi(spec_file, capsys):
    path = spec_file(EQ44)
    assert main(["symbol", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("a = ")
    assert main(["symbol", path, "--emit", "a,wick"]) == 0
    out = capsys.readouterr().out
    assert "a = " in out and "wick = " in out


def test_symbol_json_output(spec_file, capsys):
    assert main(["symbol", spec_file(EQ44), "--emit", "atilde", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["atilde"]["vars"] == ["x", "xi"]


def test_symbol_conjugated_needs_change(spec_file, capsys):
    assert main(["symbol", spec_file(EQ44), "--emit", "conjugated"]) == 1
    assert '"T"' in capsys.readouterr().err
    with_t = {**EQ44, "T": [["1/4", "0"], ["0", "1"]]}
    assert main(["symbol", spec_file(with_t, "t.json"), "--emit", "conjugated"]) == 0


def test_symbol_unknown_name(spec_file, capsys):
    assert main(["symbol", spec_file(EQ44), "--emit", "nope"]) == 1
    assert "unknown symbol name" in capsys.readouterr().err


def test_symbol_prints_complex_coefficients(spec_file, capsys):
    # coefficients i, -i, 3/2 i, 1+2i and 1-i; the mixed ones print bracketed
    spec = {"p": "1/2", "coeffs": [
        {"j": 2, "k": 0, "im": "1"}, {"j": 0, "k": 2, "im": "-1"}, {"j": 1, "k": 1, "im": "3/2"},
        {"j": 1, "k": 0, "re": "1", "im": "2"}, {"j": 0, "k": 1, "re": "1", "im": "-1"},
    ]}
    assert main(["symbol", spec_file(spec), "--emit", "a,wick"]) == 0
    assert capsys.readouterr().out == (
        "a = i*x^2 + 3/2i*x*xi - i*xi^2 + (1+2i)*x + (1-i)*xi\n"
        "wick = i*x^2 + 3/2i*x*xi - i*xi^2 + (1+2i)*x + (1-i)*xi + 3/4\n"
    )


# ---------------------------------------------------------------------------
# verify-intertwine
# ---------------------------------------------------------------------------


def test_verify_intertwine_passes(spec_file, capsys):
    assert main(["verify-intertwine", spec_file(EQ44)]) == 0
    out = capsys.readouterr().out
    assert "intertwining:" in out
    assert "PASS" in out


def test_verify_intertwine_generators_and_overrides(spec_file, capsys):
    code = main(["verify-intertwine", spec_file(EQ44), "--p", "1/3",
                 "--w", "hermite:1,0", "--mode", "generators"])
    assert code == 0
    out = capsys.readouterr().out
    assert "derivative_factor:" in out and "position_factor:" in out


def test_verify_intertwine_fails_on_tiny_tolerance(spec_file, capsys):
    assert main(["verify-intertwine", spec_file(EQ44), "--tol", "1e-30"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_intertwine_bad_window(spec_file, capsys):
    assert main(["verify-intertwine", spec_file(EQ44), "--w", "sine:1,2"]) == 1
    assert "window family" in capsys.readouterr().err


@pytest.mark.parametrize("window,message", [
    ("hermite:100000,0", "window index m = 100000 exceeds the limit of 40"),
    ("hermite:0,41", "window index n = 41 exceeds the limit of 40"),
    ("hermite:+2,0", "window index m must be a non-negative integer"),
    ("hermite:0,1_0", "window index n must be a non-negative integer"),
    ("hermite:-1,0", "window index m must be a non-negative integer"),
], ids=["m-100000", "n-41", "plus-sign", "underscore", "negative"])
def test_verify_intertwine_reads_window_indices_as_bounded_json_integers(spec_file, capsys, window,
                                                                         message):
    err = _exit_1_within_a_second(["verify-intertwine", spec_file(EQ44), "--w", window, "--N", "64"],
                                  capsys).err
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", [
    ["verify-intertwine"],
    ["transform", "--forward"],
], ids=["intertwine", "forward"])
@pytest.mark.parametrize("n", ["5_12", "+64", "064", " 64", "64 ", "64.0", "1e2", "-64"])
def test_grid_size_is_read_as_a_json_integer(spec_file, tmp_path, capsys, command, n):
    # as the window indices are: Python's int() would take the first four
    name, *options = command
    argv = [name, spec_file(EQ44), *options, f"--N={n}"]
    if name == "transform":
        argv += ["--out", str(tmp_path / "grid.csv")]
    captured = _exit_1_within_a_second(argv, capsys)
    assert captured.err == "error: --N must be a non-negative integer\n"
    assert captured.out == ""
    assert not (tmp_path / "grid.csv").exists()


@pytest.mark.parametrize("extra, message", [
    (["--L", "3", "--N", "64"], "enlarge L"),
    (["--L", "inf"], "L must be finite"),
    (["--L", "1.7e308"], "grid half-width L = 1.7e+308 is too large: its node spacing 2L/N overflows"),
    (["--tol", "inf"], "--tol must be a finite number >= 0, got inf"),
    (["--tol", "nan"], "--tol must be a finite number >= 0, got nan"),
    (["--tol", "-1"], "--tol must be a finite number >= 0, got -1.0"),
], ids=["narrow-L", "inf-L", "huge-L", "inf-tol", "nan-tol", "negative-tol"])
def test_verify_intertwine_rejects_bad_inputs(spec_file, capsys, extra, message):
    assert main(["verify-intertwine", spec_file(EQ44)] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_verify_intertwine_fails_fast_on_the_operator_pair(spec_file, capsys, monkeypatch):
    # h0 (x) h0 decays at the edge of [-10, 10), x^8 h0 (x) h0 does not: the
    # check stops at that pair's edge, before the planar operator runs
    def no_operator(*args, **kwargs):
        raise AssertionError("the planar operator ran")

    monkeypatch.setattr("wigreg.spectral.apply_operator_2d", no_operator)
    x8 = spec_file({"p": "1/2", "coeffs": [{"j": 8, "k": 0, "re": "1"}]}, "x8.json")
    assert main(["verify-intertwine", x8, "--w", "hermite:0,0", "--L", "10", "--N", "64"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: inputs reach 5.314e-06 at the z window edge "
                            "(need < 1.0e-08); enlarge L\n")


@pytest.mark.parametrize("command", [
    ["verify-intertwine", "--N", "16"],
    ["verify-intertwine", "--N", "16", "--mode", "generators"],
    ["transform", "--forward", "--N", "16"],
    ["transform", "--inverse", "--in", "missing.csv"],
], ids=["intertwine", "generators", "forward", "inverse"])
@pytest.mark.parametrize("sign", ["", "-"])
def test_p_beyond_the_float_range_is_refused(spec_file, tmp_path, capsys, command, sign):
    # a rational the spec reader accepts (401 digits, 1333 bits), but no float
    name, *options = command
    argv = [name, spec_file(EQ44), *options, "--p", sign + "1" + "0" * 400]
    if name == "transform":
        argv += ["--out", str(tmp_path / "grid.csv")]
    captured = _exit_1_within_a_second(argv, capsys)
    assert captured.err == "error: p has 401 digits, beyond the float range\n"
    assert captured.out == ""
    assert not (tmp_path / "grid.csv").exists()


def test_verify_intertwine_refuses_a_grid_the_operator_overflows(spec_file, capsys):
    # 4 x^2 reaches 4 (1.5e200)^2 on the nodes and wavenumbers of L = 1e200:
    # refused on lines.  10^200 + x^2 stays finite on those of L = 1e150, but
    # not on the transform of h0 (x) h0, which reaches 1e149 there: refused
    # on the plane.  Both before any plane could warn of its boundary
    big = spec_file({"p": "1/2", "coeffs": [{"j": 0, "k": 0, "re": "1" + "0" * 200},
                                            {"j": 2, "k": 0, "re": "1"}]}, "big.json")
    for spec, half_width in ((spec_file(EQ44), "1e200"), (big, "1e150")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            captured = _exit_1_within_a_second(["verify-intertwine", spec, "--N", "4",
                                                "--L", half_width, "--w", "hermite:0,0"], capsys)
        assert captured.err == ("error: the operator's values overflow the float range on the grid "
                                f"with L = {float(half_width):g} and N = 4\n")
        assert captured.out == ""
    # at L = 1e100 the samples stay finite: the check runs and fails as before
    with pytest.warns(BoundaryDecayWarning):
        assert main(["verify-intertwine", spec_file(EQ44), "--N", "64", "--L", "1e100",
                     "--w", "hermite:0,0"]) == 1
    assert capsys.readouterr().out == ("intertwining: 1.000e+00\n"
                                       "FAIL (worst 1.000e+00 > tol 1.0e-06)\n")


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("mode", ["full", "generators"])
def test_verify_intertwine_exits_1_on_a_window_with_non_finite_values(spec_file, capsys,
                                                                      monkeypatch, mode, bad):
    # v is bad near t = 3/16, which the plane reaches and the edge lines miss
    def spoiled(t):
        t = np.asarray(t, dtype=float)
        return np.where(np.abs(t - 0.1875) < 0.01, bad, Hermite(0)(t))

    monkeypatch.setattr(cli, "_parse_windows", lambda text: (Hermite(1), spoiled))
    assert main(["verify-intertwine", spec_file(EQ44), "--N", "64", "--mode", mode]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: samples must be finite\n"


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def test_transform_forward_then_inverse(spec_file, tmp_path, capsys):
    spec = spec_file(EQ44)
    fwd = tmp_path / "fwd.csv"
    # N = 128 keeps the x-axis Nyquist content that the inverse's
    # trigonometric interpolation drops below 1e-10; N = 64 would cap the
    # round trip near 2e-8
    assert main(["transform", spec, "--forward", "--w", "hermite:0,1",
                 "--N", "128", "--out", str(fwd)]) == 0
    gf = read_grid(str(fwd))
    assert gf.dual_y
    inv = tmp_path / "inv.csv"
    assert main(["transform", spec, "--inverse", "--in", str(fwd),
                 "--out", str(inv)]) == 0
    pair = read_grid(str(inv))
    assert not pair.dual_y
    from wigreg.hermite import Hermite
    gs, gt = np.meshgrid(pair.grid.x_nodes, pair.grid.x_nodes, indexing="ij")
    expected = np.where(np.abs(gs - gt) < pair.grid.L,
                        Hermite(0)(gs) * Hermite(1)(gt), 0.0)
    assert np.max(np.abs(pair.samples - expected)) < 1e-10


def test_transform_raw_format(spec_file, tmp_path):
    out = tmp_path / "grid.raw"
    assert main(["transform", spec_file(EQ44), "--forward", "--N", "32",
                 "--format", "raw", "--out", str(out)]) == 0
    gf = read_grid(str(out))
    assert gf.grid.N == 32


def test_transform_round_trip_reads_back_the_same_bytes_from_csv_and_raw(spec_file, tmp_path,
                                                                          monkeypatch):
    # at N = 512 the CSV files are written and read in forked row blocks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    spec = spec_file(EQ44)
    back = {}
    for fmt in ("csv", "raw"):
        fwd, inv = tmp_path / f"fwd.{fmt}", tmp_path / f"inv.{fmt}"
        assert main(["transform", spec, "--forward", "--N", "512", "--format", fmt,
                     "--out", str(fwd)]) == 0
        assert main(["transform", spec, "--inverse", "--format", fmt, "--in", str(fwd),
                     "--out", str(inv)]) == 0
        back[fmt] = read_grid(str(inv)).samples.tobytes()
    assert back["csv"] == back["raw"]


def test_transform_inverse_stays_within_its_plane_budget(spec_file, tmp_path, monkeypatch):
    # the read's peak (the samples, half of the lines parsed in this process
    # and a block of rows), then the read transform and the inverse's one
    # plane; on whole planes the command took about 7.7
    spec = spec_file(EQ44)
    fwd, inv = tmp_path / "fwd.csv", tmp_path / "inv.csv"
    assert main(["transform", spec, "--forward", "--N", "512", "--p", "1/3",
                 "--w", "hermite:2,1", "--out", str(fwd)]) == 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    tracemalloc.start()
    try:
        code = main(["transform", spec, "--inverse", "--p", "1/3", "--in", str(fwd),
                     "--out", str(inv)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 2.75 * 16 * 512 ** 2


def test_transform_inverse_needs_input(spec_file, capsys):
    assert main(["transform", spec_file(EQ44), "--inverse", "--out", "x.csv"]) == 1
    assert "--in" in capsys.readouterr().err


def test_transform_inverse_rejects_misplaced_csv_nodes(spec_file, tmp_path, capsys):
    spec = spec_file(EQ44)
    fwd = tmp_path / "fwd.csv"
    assert main(["transform", spec, "--forward", "--N", "16", "--out", str(fwd)]) == 0
    header, *rows = fwd.read_text().splitlines()
    fwd.write_text("\n".join([header] + rows[::-1]) + "\n")
    assert main(["transform", spec, "--inverse", "--in", str(fwd),
                 "--out", str(tmp_path / "inv.csv")]) == 1
    assert "line 2 holds node" in capsys.readouterr().err


def test_transform_inverse_rejects_other_p(spec_file, tmp_path, capsys):
    spec = spec_file(EQ44)
    fwd = tmp_path / "fwd.csv"
    assert main(["transform", spec, "--forward", "--N", "16", "--p", "1/2",
                 "--out", str(fwd)]) == 0
    inv = tmp_path / "inv.csv"
    assert main(["transform", spec, "--inverse", "--in", str(fwd), "--p", "1/3",
                 "--out", str(inv)]) == 1
    err = capsys.readouterr().err
    assert "p = 1/2" in err and "p = 1/3" in err
    assert not inv.exists()
    # an equal rational in another spelling is the same p
    assert main(["transform", spec, "--inverse", "--in", str(fwd), "--p", "2/4",
                 "--out", str(inv)]) == 0


def test_transform_inverse_reads_the_grid_manifest_once(spec_file, tmp_path, monkeypatch, capsys):
    spec = spec_file(EQ44)
    fwd = tmp_path / "fwd.csv"
    assert main(["transform", spec, "--forward", "--N", "16", "--p", "1/2", "--out", str(fwd)]) == 0
    manifest = str(fwd) + ".manifest.json"
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(wigner, "open", counting_open, raising=False)
    for _ in range(2):
        opened.clear()
        assert main(["transform", spec, "--inverse", "--in", str(fwd), "--out",
                     str(tmp_path / "inv.csv")]) == 0
        assert opened.count(manifest) == 1
    # a p mismatch is still reported from that one read, before any data line
    monkeypatch.setattr(cli, "read_grid", lambda *args: pytest.fail("read_grid was called"))
    opened.clear()
    assert main(["transform", spec, "--inverse", "--in", str(fwd), "--p", "1/3",
                 "--out", str(tmp_path / "never.csv")]) == 1
    assert opened == [manifest]
    assert "was transformed with p = 1/2, but the inverse asks for p = 1/3" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["transform", "--forward", "--out", "never.csv"],
                                     ["verify-intertwine"]])
def test_oversized_grid_exits_with_message(spec_file, capsys, command):
    argv = [command[0], spec_file(EQ44)] + command[1:] + ["--N", "1048576"]
    assert main(argv) == 1
    assert "grid size N exceeds the limit of 4096" in capsys.readouterr().err


def test_transform_forward_on_a_window_beyond_the_float_square_is_silent(spec_file, tmp_path, capfd):
    # the nodes reach 1e200, whose square overflows; the windows are 0 there
    out = tmp_path / "far.csv"
    assert main(["transform", spec_file(EQ44), "--forward", "--N", "4", "--L", "1e200",
                 "--out", str(out)]) == 0
    assert capfd.readouterr().err == ""
    assert np.isfinite(read_grid(str(out)).samples).all()


def _three_field_grid(spec_file, tmp_path) -> list[str]:
    """An inverse transform of a forward grid CSV cut to x,y,re lines; its
    manifest is the forward's own."""
    fwd = tmp_path / "fwd.csv"
    assert main(["transform", spec_file(EQ44), "--forward", "--N", "4", "--out", str(fwd)]) == 0
    cut = tmp_path / "cut.csv"
    cut.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in fwd.read_text().splitlines()))
    (tmp_path / "cut.csv.manifest.json").write_text((tmp_path / "fwd.csv.manifest.json").read_text())
    return ["transform", spec_file(EQ44), "--inverse", "--in", str(cut),
            "--out", str(tmp_path / "never.csv")]


def _spec_with(**entries):
    return lambda spec_file, tmp_path: ["certify", spec_file({**EQ44, **entries}), "--quiet"]


@pytest.mark.parametrize("make_argv, message", [
    (lambda spec_file, tmp_path: ["verify-intertwine", spec_file(EQ44), "--w", "hermite:1"],
     "window spec must be hermite:m,n"),
    (lambda spec_file, tmp_path: ["symbol", spec_file(EQ44), "--emit", ","],
     "--emit needs at least one of a, b, atilde, wick, conjugated"),
    (lambda spec_file, tmp_path: ["certify", spec_file({"p": "1/2"}), "--quiet"],
     "operator spec needs a 'coeffs' list"),
    (_spec_with(coeffs=[5]), "coeffs[0] must be an object with 'j', 'k', 're' and 'im'"),
    (_spec_with(T=[[1, 0]]), "T must be a 2x2 matrix of rationals"),
    (_spec_with(T=[[1, 0], [0]]), "T must be a 2x2 matrix of rationals"),
    (lambda spec_file, tmp_path: ["generate", "--positive-symbol", spec_file({}), "--p", "1/2"],
     "polynomial JSON needs 'vars' and 'terms'"),
    (_three_field_grid, "grid CSV lines have 3 fields, expected 4"),
], ids=["window-one-index", "emit-empty", "no-coeffs", "coeff-number", "T-one-row", "T-short-row",
        "polynomial-empty", "grid-three-fields"])
def test_outside_input_is_refused_with_one_error_line(spec_file, tmp_path, capsys, make_argv,
                                                      message):
    argv = make_argv(spec_file, tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_deeply_nested_json_exits_1_with_one_error_line(spec_file, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    fwd = tmp_path / "fwd.csv"
    assert main(["transform", spec_file(EQ44), "--forward", "--N", "4", "--out", str(fwd)]) == 0
    (tmp_path / "fwd.csv.manifest.json").write_text(deep.read_text())
    capsys.readouterr()
    for argv in (["certify", str(deep), "--quiet"],
                 ["generate", "--positive-symbol", str(deep), "--p", "1/2"],
                 ["transform", spec_file(EQ44), "--inverse", "--in", str(fwd),
                  "--out", str(tmp_path / "never.csv")],
                 ["verify-certificate", str(deep)]):
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr().err == "error: JSON nests too deeply to parse\n", argv[0]


def test_transform_inverse_rejects_manifest_without_l(spec_file, tmp_path, capsys):
    spec = spec_file(EQ44)
    fwd = tmp_path / "fwd.csv"
    assert main(["transform", spec, "--forward", "--N", "16", "--out", str(fwd)]) == 0
    manifest_file = tmp_path / "fwd.csv.manifest.json"
    manifest = json.loads(manifest_file.read_text())
    del manifest["L"]
    manifest_file.write_text(json.dumps(manifest))
    assert main(["transform", spec, "--inverse", "--in", str(fwd),
                 "--out", str(tmp_path / "inv.csv")]) == 1
    assert "has no 'L'" in capsys.readouterr().err


@pytest.mark.parametrize("key, message", [("N", "grid manifest key 'N' must be an integer"),
                                          ("p", "p has 5000 digits, beyond the limit")],
                         ids=["N", "p"])
def test_transform_inverse_names_an_over_long_manifest_integer(spec_file, tmp_path, capsys,
                                                               key, message):
    spec = spec_file(EQ44)
    fwd = tmp_path / "fwd.csv"
    assert main(["transform", spec, "--forward", "--N", "16", "--out", str(fwd)]) == 0
    manifest_file = tmp_path / "fwd.csv.manifest.json"
    manifest = json.loads(manifest_file.read_text())
    manifest[key] = "long"
    # 5000 digits: beyond the 4300 that Python's int() converts
    manifest_file.write_text(json.dumps(manifest).replace('"long"', "1" + "0" * 4999))
    assert main(["transform", spec, "--inverse", "--in", str(fwd),
                 "--out", str(tmp_path / "inv.csv")]) == 1
    assert message in capsys.readouterr().err


def _non_numeric_late_field(text):
    lines = text.splitlines(keepends=True)
    lines[60000] = "abc," + lines[60000].split(",", 1)[1]
    return "".join(lines)


@pytest.mark.parametrize("edit, message", [
    (lambda text: text[:text.rindex(",")], "number of columns changed"),
    (lambda text: text + text.splitlines(keepends=True)[-1], "has 65537 data lines"),
    (_non_numeric_late_field, "could not convert string 'abc'"),
], ids=["truncated_last_line", "extra_row", "non_numeric_field"])
def test_transform_inverse_rejects_damaged_large_csv(spec_file, tmp_path, capsys, edit, message):
    # N = 256 is read in one row block per CPU
    spec = spec_file(EQ44)
    fwd = tmp_path / "fwd.csv"
    assert main(["transform", spec, "--forward", "--N", "256", "--out", str(fwd)]) == 0
    fwd.write_text(edit(fwd.read_text()))
    inv = tmp_path / "inv.csv"
    assert main(["transform", spec, "--inverse", "--in", str(fwd), "--out", str(inv)]) == 1
    assert message in capsys.readouterr().err
    assert not inv.exists()


@pytest.mark.parametrize("n_pts", ["64", "256"])
def test_transform_inverse_rejects_a_blank_line(spec_file, tmp_path, capsys, n_pts):
    spec = spec_file(EQ44)
    fwd = tmp_path / "fwd.csv"
    assert main(["transform", spec, "--forward", "--N", n_pts, "--out", str(fwd)]) == 0
    lines = fwd.read_text().splitlines(keepends=True)
    fwd.write_text("".join(lines[:-3] + ["\n"] + lines[-3:]))
    inv = tmp_path / "inv.csv"
    assert main(["transform", spec, "--inverse", "--in", str(fwd), "--out", str(inv)]) == 1
    assert capsys.readouterr().err == (f"error: grid CSV line {len(lines) - 2} is blank; "
                                       f"every line after the header holds x,y,re,im\n")
    assert not inv.exists()


def test_transform_records_p_in_manifest(spec_file, tmp_path):
    out = tmp_path / "grid.csv"
    main(["transform", spec_file(EQ44), "--forward", "--N", "16",
          "--p", "1/3", "--out", str(out)])
    manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
    assert manifest["p"] == "1/3"


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_positive_symbol(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text(json.dumps({
        "vars": ["x", "xi"],
        "terms": [{"exp": [2, 0], "re": "1"}, {"exp": [0, 2], "re": "1"},
                  {"exp": [0, 0], "re": "2"}],
    }))
    out = tmp_path / "result.json"
    code = main(["generate", "--positive-symbol", str(target), "--p", "1/2",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["roundtrip"] is True
    assert doc["report"]["verdict"]["status"] == "Regular"


def test_generate_rejects_negative_target(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text(json.dumps({
        "vars": ["x", "xi"],
        "terms": [{"exp": [2, 0], "re": "1"}, {"exp": [0, 0], "re": "-1"}],
    }))
    assert main(["generate", "--positive-symbol", str(target), "--p", "0"]) == 1
    assert "negative at (x, xi) = (0, 0)" in capsys.readouterr().err


def test_generate_quasi_homogeneous(capsys):
    assert main(["generate", "--quasi-homogeneous", "1,-1,1,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["T"] == [["1/2", "0"], ["0", "-1"]]
    assert doc["report"]["verdict"]["status"] == "Regular"


def test_generate_argument_validation(spec_file, tmp_path, capsys):
    assert main(["generate"]) == 1
    assert "exactly one" in capsys.readouterr().err
    target = tmp_path / "t.json"
    target.write_text(json.dumps({"vars": ["x", "xi"],
                                  "terms": [{"exp": [2, 0], "re": "1"}]}))
    assert main(["generate", "--positive-symbol", str(target)]) == 1
    assert "--p" in capsys.readouterr().err
    assert main(["generate", "--quasi-homogeneous", "1,2,3"]) == 1
    assert "rho,tau,h,k" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify-certificate
# ---------------------------------------------------------------------------


def test_verify_certificate_on_report_chain(spec_file, tmp_path, capsys):
    report = tmp_path / "report.json"
    main(["certify", spec_file(EQ44), "--quiet", "--report", str(report)])
    assert main(["verify-certificate", str(report)]) == 0
    out = capsys.readouterr().out
    assert "HypoQuadraticForm: ok" in out
    assert "InjQuadraticEstimate: ok" in out


def test_verify_certificate_single_and_tampered(spec_file, tmp_path, capsys):
    report = tmp_path / "report.json"
    main(["certify", spec_file(EQ44), "--quiet", "--report", str(report)])
    doc = json.loads(report.read_text())
    single = tmp_path / "cert.json"
    single.write_text(json.dumps(doc["verdict"]["chain"][0]))
    assert main(["verify-certificate", str(single)]) == 0

    forged = doc["verdict"]["chain"][0]
    forged["payload"]["det"] = "-5"
    single.write_text(json.dumps(forged))
    assert main(["verify-certificate", str(single)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_certificate_prints_one_ok_line_per_link_of_a_sound_report(capsys):
    for path in sorted(GOLDEN.glob("certify_*.out")):
        chain = json.loads(path.read_text())["verdict"]["chain"]
        assert main(["verify-certificate", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ([f"{c['kind']}: ok" for c in chain] if chain
                         else ["no certificates to verify (empty chain)"]), path


def test_verify_certificate_rejects_another_operators_verdict(tmp_path, capsys):
    doc = json.loads((GOLDEN / "certify_FIRST_MINUS.out").read_text())
    doc["verdict"] = json.loads((GOLDEN / "certify_EQ44.out").read_text())["verdict"]
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-certificate", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "HypoQuadraticForm: FAIL (certificate subject does not match the supplied symbol)",
        "InjQuadraticEstimate: FAIL (certificate subject does not match the supplied symbol)",
    ]


def test_verify_certificate_rejects_a_verdict_its_chain_does_not_compose(tmp_path, capsys):
    doc = json.loads((GOLDEN / "certify_SEXTIC.out").read_text())
    doc["verdict"]["status"] = "Regular"
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-certificate", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == \
        "verdict: FAIL (verdict differs from the one its chain composes)"
    del doc["spec"]
    path.write_text(json.dumps(doc))
    assert main(["verify-certificate", str(path)]) == 1
    assert "names no spec" in capsys.readouterr().err


def test_verify_certificate_refuses_a_chain_out_of_shape_before_rebuilding_a_link(tmp_path, capsys):
    # 5000 copies of a sampled link: rebuilding each would take minutes
    doc = json.loads((GOLDEN / "certify_dense6_p3o7.out").read_text())
    link, = doc["verdict"]["chain"]
    assert link["kind"] == "HypoUnfalsified"
    doc["verdict"]["chain"] = [link] * 5000
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["verify-certificate", str(path)]) == 1
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().out == \
        "verdict: FAIL (the chain must hold at most one link per stage, hypo-ellipticity first)\n"
    assert elapsed < 2.0, f"took {elapsed:.2f} s"


def test_verify_certificate_names_a_malformed_certificate(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"kind": "HypoQuadraticForm"}))
    assert main(["verify-certificate", str(path)]) == 1
    assert capsys.readouterr().out == "malformed certificate: FAIL ('grade')\n"


def test_verify_certificate_empty_chain(tmp_path, capsys):
    doc = {"verdict": {"chain": []}}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-certificate", str(path)]) == 0
    assert "empty chain" in capsys.readouterr().out


def test_verify_certificate_rejects_other_json(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"hello": 1}))
    assert main(["verify-certificate", str(path)]) == 1


# ---------------------------------------------------------------------------
# global behavior
# ---------------------------------------------------------------------------


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify"])           # missing positional
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


def test_reused_parser_matches_fresh_processes(spec_file, tmp_path, capsys):
    # certify, a usage error that had already parsed --p, then
    # verify-intertwine without --p: one process must answer each command
    # as a fresh process does
    spec = spec_file(EQ44)
    commands = [
        ["certify", spec, "--report", str(tmp_path / "report.json")],
        ["verify-intertwine", spec, "--p", "1/3", "--mode", "bogus"],
        ["verify-intertwine", spec, "--N", "64"],
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    fresh = []
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "wigreg.cli"] + argv,
                              capture_output=True, text=True, env=env, timeout=120)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    reused = []
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:       # the usage error
            code = exc.code
        captured = capsys.readouterr()
        reused.append((code, captured.out, captured.err))
    assert [code for code, _, _ in fresh] == [0, 1, 0]
    assert "invalid choice: 'bogus'" in fresh[1][2]
    assert reused == fresh


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "wigreg" in capsys.readouterr().out
