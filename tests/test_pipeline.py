"""End-to-end certification pipeline, generators, and report emission."""

import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wigreg import certify as certify_module
from wigreg import cli, pipeline
from wigreg import symbols as symbols_module
from wigreg.certify import verify_certificate
from wigreg.exact import GR_I, GR_ONE, GaussianRational, MultiPoly
from wigreg.pipeline import (
    EXIT_NOT_REGULAR,
    EXIT_REGULAR_EXACT,
    EXIT_UNKNOWN,
    PositivityError,
    certify,
    check_positivity,
    emit_report,
    generate_from_positive_symbol,
    generate_quasi_homogeneous,
    json_text,
    parse_spec,
    render_summary,
    verify_report,
)
from wigreg.symbols import MODEL_VARS, PHASE_VARS, OperatorSpec

from oracles import ladder_verdict, meshgrid_check_positivity, multipoly_quasi_homogeneous_target


GOLDEN = Path(__file__).with_name("golden")


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


EQ44_JSON = {"p": "1/2", "coeffs": [{"j": 2, "k": 0, "re": "4"},
                                    {"j": 0, "k": 2, "re": "1/4"}]}
FIRST_MINUS_JSON = {"p": "1/2", "coeffs": [{"j": 0, "k": 1, "re": "1"},
                                           {"j": 1, "k": 0, "im": "-1"}]}
FIRST_PLUS_JSON = {"p": "1/2", "coeffs": [{"j": 0, "k": 1, "re": "1"},
                                          {"j": 1, "k": 0, "im": "1"}]}
SEXTIC_JSON = {"p": "1/2", "coeffs": [
    {"j": 6, "k": 0, "re": "1"}, {"j": 2, "k": 2, "re": "2"},
    {"j": 1, "k": 1, "im": "-4"}, {"j": 0, "k": 6, "re": "1"},
]}
QUARTIC_JSON = {"p": "1/2", "coeffs": [
    {"j": 4, "k": 0, "re": "1"}, {"j": 2, "k": 2, "re": "2"},
    {"j": 1, "k": 1, "im": "-4"}, {"j": 0, "k": 4, "re": "1"},
]}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_package_certify_is_the_certificate_module():
    import wigreg

    assert wigreg.certify is certify_module
    assert certify_module.__name__ == "wigreg.certify"
    assert certify_module.verify_certificate is verify_certificate
    assert pipeline.certify is certify


def test_parse_spec_from_string_and_mapping():
    spec, change = parse_spec(json.dumps(EQ44_JSON))
    assert spec.p == Fraction(1, 2) and change is None
    spec2, _ = parse_spec(EQ44_JSON)
    assert spec2.coeffs == spec.coeffs


def test_parse_spec_with_change_of_variables():
    spec, change = parse_spec({**EQ44_JSON, "T": [["1/4", "0"], ["0", "1"]]})
    assert change is not None
    assert change.rows[0][0] == Fraction(1, 4)


def test_parse_spec_error_cases():
    with pytest.raises(ValueError, match="not valid JSON"):
        parse_spec("{nope")
    with pytest.raises(ValueError):
        parse_spec(json.dumps([1, 2]))
    with pytest.raises(ValueError, match="empty operator"):
        parse_spec({"p": "1/2", "coeffs": [{"j": 0, "k": 0, "re": "0"}]})


# ---------------------------------------------------------------------------
# certify on the pinned fixtures
# ---------------------------------------------------------------------------


def test_certify_definite_quadratic_is_regular_exact():
    spec, _ = parse_spec(EQ44_JSON)
    report = certify(spec)
    assert report.verdict.status == "Regular"
    assert report.verdict.grade == "exact"
    assert report.exit_code == EXIT_REGULAR_EXACT
    assert [c.kind for c in report.verdict.chain] == ["HypoQuadraticForm",
                                                      "InjQuadraticEstimate"]
    assert report.degeneracy_holds


def test_certify_decaying_kernel_is_not_regular():
    spec, _ = parse_spec(FIRST_MINUS_JSON)
    report = certify(spec)
    assert report.verdict.status == "NotRegular"
    assert report.exit_code == EXIT_NOT_REGULAR
    assert report.verdict.witness == "exp((-1/2)*x^2)"
    kinds = [c.kind for c in report.verdict.chain]
    assert kinds == ["HypoFirstOrder", "NotInjectiveWitness"]


def test_certify_growing_kernel_is_regular_with_adjoint_remark():
    spec, _ = parse_spec(FIRST_PLUS_JSON)
    report = certify(spec)
    assert report.verdict.status == "Regular"
    assert [c.kind for c in report.verdict.chain] == ["HypoFirstOrder",
                                                      "InjKernelEscape"]
    assert report.adjoint is not None
    assert report.adjoint["adjoint_kernel_nontrivial"]
    assert "index -1" in report.adjoint["remark"]


def test_certify_incomplete_polygon_is_unknown():
    spec, _ = parse_spec(SEXTIC_JSON)
    report = certify(spec)
    assert report.verdict.status == "Unknown"
    assert report.exit_code == EXIT_UNKNOWN
    kinds = [c.kind for c in report.verdict.chain]
    assert kinds == ["HypoUnfalsified", "InjSOS"]
    assert report.verdict.grade == "evidence"
    stages = {(a["stage"], a["method"]): a["outcome"] for a in report.attempts}
    assert stages[("hypo", "newton_polygon")] == "no_certificate"
    assert stages[("hypo", "falsifier")] == "certified"
    assert stages[("injectivity", "sum_of_squares")] == "certified"


def test_certify_complete_polygon_is_regular():
    spec, _ = parse_spec(QUARTIC_JSON)
    report = certify(spec)
    assert report.verdict.status == "Regular"
    assert [c.kind for c in report.verdict.chain] == ["HypoNewtonPolygon", "InjSOS"]
    assert report.exit_code == EXIT_REGULAR_EXACT


def test_certify_never_raises_on_odd_shapes():
    # real first-order: falsified, no certificates at all
    spec = OperatorSpec({(0, 1): gr(1), (1, 0): gr(2)}, Fraction(1, 2))
    report = certify(spec)
    assert report.verdict.status == "Unknown"
    assert report.verdict.chain == []
    # indefinite quadratic: hypo declined, injectivity declined
    spec = OperatorSpec({(2, 0): gr(1), (0, 2): gr(-1)}, Fraction(0))
    report = certify(spec)
    assert report.verdict.status == "Unknown"


def test_report_symbols_and_json_shape():
    spec, _ = parse_spec(EQ44_JSON)
    report = certify(spec)
    assert set(report.symbols) == {"a", "b", "atilde", "wick"}
    doc = report.to_json()
    assert doc["q"] == "1/2"
    assert doc["order"] == 2
    assert doc["exit_code"] == 0
    assert doc["degeneracy"] == {"holds": True}
    assert doc["verdict"]["status"] == "Regular"


def test_order_60_monomial_certifies_with_degeneracy():
    spec = OperatorSpec({(30, 30): GR_ONE}, Fraction(1, 3))
    report = certify(spec)
    assert report.verdict.status == "Unknown"
    assert report.degeneracy_holds
    assert len(report.symbols["b"].terms) == sum((n + 1) ** 2 for n in range(31))


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("spec_json", [EQ44_JSON, FIRST_MINUS_JSON, FIRST_PLUS_JSON,
                                       SEXTIC_JSON, QUARTIC_JSON])
def test_certify_runs_each_recognizer_and_symbol_builder_once(monkeypatch, spec_json):
    spec, _ = parse_spec(spec_json)
    expected = certify(spec).to_json()
    counts = {}
    for name in ("recognize_newton_family", "recognize_first_order", "a_tilde",
                 "build_b_symbol"):
        _count_calls(monkeypatch, pipeline, name, counts)
    _count_calls(monkeypatch, certify_module, "recognize_first_order", counts)
    assert certify(spec).to_json() == expected
    assert counts["a_tilde"] == counts["build_b_symbol"] == 1
    assert counts["recognize_first_order"] == 1
    assert counts.get("recognize_newton_family", 0) <= 1


# x^4 + D^2 + 5 is certified by coherent-state positivity; x^4 + D^4 + 1
# reaches that step and fails it
WICK_POSITIVE_JSON = {"p": "1/2", "coeffs": [{"j": 4, "k": 0, "re": "1"},
                                             {"j": 0, "k": 2, "re": "1"},
                                             {"j": 0, "k": 0, "re": "5"}]}
WICK_SAMPLED_NEGATIVE_JSON = {"p": "1/2", "coeffs": [{"j": 4, "k": 0, "re": "1"},
                                                     {"j": 0, "k": 4, "re": "1"},
                                                     {"j": 0, "k": 0, "re": "1"}]}


@pytest.mark.parametrize("spec_json", [WICK_POSITIVE_JSON, WICK_SAMPLED_NEGATIVE_JSON])
def test_certify_builds_the_wick_symbol_once(monkeypatch, spec_json):
    spec, _ = parse_spec(spec_json)
    expected = certify(spec).to_json()
    counts = {}
    _count_calls(monkeypatch, pipeline, "weyl_wick", counts)
    _count_calls(monkeypatch, symbols_module, "weyl_wick", counts)
    report = certify(spec)
    assert counts == {"weyl_wick": 1}
    assert "wick_positivity" in [a["method"] for a in report.attempts]
    assert report.to_json() == expected
    wick_certs = [c for c in report.verdict.chain if c.kind == "InjWickPositive"]
    assert len(wick_certs) == (spec_json is WICK_POSITIVE_JSON)
    for cert in wick_certs:
        # the chain's certificate equals one built from scratch, and the
        # verifier rebuilds the Wick symbol itself
        counts.clear()
        assert cert.to_json() == certify_module.injectivity_wick(report.symbols["a"]).to_json()
        assert verify_certificate(cert).ok
        assert counts == {"weyl_wick": 2}


def _c(j, k, re="0", im="0"):
    return {"j": j, "k": k, "re": re, "im": im}


GOLDEN_SPECS = sorted(p for p in (Path(__file__).resolve().parent / "golden" / "specs").glob("*.json")
                      if p.name != "positive_target.json")

# specs that reach the attempt records the golden specs never reach
CHAIN_CORPUS = [
    # hypo quadratic_form no_certificate; injectivity quadratic_estimate: c0 < 0
    {"p": "1/2", "coeffs": [_c(2, 0, "1"), _c(0, 2, "-1")]},
    # injectivity quadratic_estimate: a2 <= 0
    {"p": "-2", "coeffs": [_c(0, 2, "1")]},
    # injectivity quadratic_estimate no_certificate; verdict: injectivity undecided
    {"p": "1/2", "coeffs": [_c(2, 0, "1"), _c(0, 2, "1"), _c(0, 1, "3"), _c(0, 0, "-5")]},
    # hypo newton_polygon: lam and sig must be positive
    {"p": "1", "coeffs": [_c(0, 4, "2"), _c(4, 0, "-1")]},
    # hypo newton_polygon: mu and nu must be non-negative; sum_of_squares no_certificate
    {"p": "1/2", "coeffs": [_c(6, 0, "1"), _c(2, 2, "-2"), _c(1, 1, im="4"), _c(0, 6, "1")]},
    # hypo first_order and first_order_kernel: real alpha
    {"p": "0", "coeffs": [_c(0, 1, "1"), _c(1, 0, "1")]},
    # hypo falsifier: the gradient-to-symbol ratio grows
    {"p": "1/2", "coeffs": [_c(0, 0, "4/3"), _c(1, 1, "-1", "3/2")]},
    # wick_positivity certified
    {"p": "1/2", "coeffs": [_c(4, 0, "1"), _c(0, 2, "1"), _c(0, 0, "5")]},
    # wick_positivity: sampled non-positive value
    {"p": "1/2", "coeffs": [_c(4, 0, "1"), _c(0, 4, "1"), _c(0, 0, "1")]},
    # wick_positivity: the leading form goes negative
    {"p": "1/2", "coeffs": [_c(4, 0, "1"), _c(0, 4, "1"), _c(2, 2, "-3"), _c(1, 1, im="-6"),
                            _c(0, 0, "200000"), _c(2, 0, "100000"), _c(0, 2, "100000")]},
    # wick_positivity: lower-order terms fail along a leading-form zero
    {"p": "1/2", "coeffs": [_c(4, 0, "1"), _c(0, 2, "-1"), _c(0, 0, "1000")]},
]

UNCERTIFIED = ("hypo-ellipticity is uncertified, so the reduction to the model operator "
               "gives no verdict about the planar operator")
# every (stage, method, outcome, detail) record the certifier chain can write
ALL_ATTEMPT_RECORDS = {
    ("hypo", "quadratic_form", "certified", "HypoQuadraticForm"),
    ("hypo", "quadratic_form", "no_certificate", "leading quadratic form is not positive definite"),
    ("hypo", "quadratic_form", "not_applicable",
     "needs total degree 2 with real non-constant coefficients"),
    ("hypo", "newton_polygon", "certified", "HypoNewtonPolygon"),
    ("hypo", "newton_polygon", "no_certificate", "mixed vertex lies inside the exponent polygon"),
    ("hypo", "newton_polygon", "not_applicable", "symbol is not in the two-block family"),
    ("hypo", "newton_polygon", "not_applicable", "family weights lam and sig must be positive"),
    ("hypo", "newton_polygon", "not_applicable",
     "mixed-block weights mu and nu must be non-negative"),
    ("hypo", "first_order", "certified", "HypoFirstOrder"),
    ("hypo", "first_order", "not_applicable",
     "symbol is not scale*(xi + alpha x^m) with Im(alpha) != 0"),
    ("hypo", "falsifier", "certified", "HypoUnfalsified (evidence only)"),
    ("hypo", "falsifier", "falsified", "symbol vanishes on the outermost circle"),
    ("hypo", "falsifier", "falsified", "gradient-to-symbol ratio grows with the radius"),
    ("injectivity", "quadratic_estimate", "certified", "InjQuadraticEstimate"),
    ("injectivity", "quadratic_estimate", "no_certificate",
     "no rational split yields a non-negative margin"),
    ("injectivity", "quadratic_estimate", "not_applicable", "symbol is not a symmetric quadratic"),
    ("injectivity", "quadratic_estimate", "not_applicable", "c0 must be non-negative"),
    ("injectivity", "quadratic_estimate", "not_applicable", "a2 must be positive"),
    ("injectivity", "sum_of_squares", "certified", "InjSOS"),
    ("injectivity", "sum_of_squares", "no_certificate",
     "family weights fail the positivity requirements"),
    ("injectivity", "sum_of_squares", "not_applicable", "symbol is not in the two-block family"),
    ("injectivity", "wick_positivity", "certified", "InjWickPositive (evidence only)"),
    ("injectivity", "wick_positivity", "not_applicable",
     "coherent-state average symbol has complex coefficients"),
    ("injectivity", "wick_positivity", "not_applicable",
     "sampled non-positive value of the coherent-state average symbol"),
    ("injectivity", "wick_positivity", "not_applicable",
     "leading form of the coherent-state average symbol goes negative"),
    ("injectivity", "wick_positivity", "not_applicable",
     "lower-order terms fail to dominate along a leading-form zero direction"),
    ("injectivity", "first_order_kernel", "certified", "InjKernelEscape"),
    ("injectivity", "first_order_kernel", "witness", "kernel element stays in the Schwartz class"),
    ("injectivity", "first_order_kernel", "not_applicable", "symbol is not scale*(xi + alpha x^m)"),
    ("injectivity", "first_order_kernel", "not_applicable",
     "Im(alpha) = 0: kernel analysis needs a complex coefficient"),
    ("verdict", "compose", "unknown", "hypo-ellipticity certified but injectivity undecided"),
    ("verdict", "compose", "unknown", UNCERTIFIED),
}


def test_certifier_table_matches_the_ladder_oracle():
    seen = set()
    for source in [p.read_text() for p in GOLDEN_SPECS] + CHAIN_CORPUS:
        spec, change = parse_spec(source)
        report = certify(spec, change)
        verdict, attempts = ladder_verdict(report.symbols["a"], report.symbols["wick"])
        expected = dataclasses.replace(report, verdict=verdict, attempts=attempts)
        assert report.to_json() == expected.to_json(), source
        seen |= {(a["stage"], a["method"], a["outcome"], a["detail"]) for a in attempts}
    assert seen == ALL_ATTEMPT_RECORDS


CHAIN_NAMES = ("hypo_certify_quadratic", "hypo_certify_newton", "hypo_certify_first_order",
               "hypo_falsify", "unfalsified_certificate", "extract_quadratic_coeffs",
               "injectivity_quadratic", "injectivity_sos", "injectivity_wick",
               "first_order_certify", "recognize_newton_family", "recognize_first_order")


def test_certifier_chain_calls_the_names_bound_in_the_pipeline_module(monkeypatch):
    # a tracer rebinds these module attributes after import; the chain must
    # look each one up when it runs rather than keep the original function
    specs = [parse_spec(s)[0] for s in (EQ44_JSON, QUARTIC_JSON, FIRST_MINUS_JSON,
                                        WICK_POSITIVE_JSON)]
    expected = [certify(spec).to_json() for spec in specs]
    counts = {}
    for name in CHAIN_NAMES:
        _count_calls(monkeypatch, pipeline, name, counts)
    assert [certify(spec).to_json() for spec in specs] == expected
    assert set(counts) == set(CHAIN_NAMES)
    monkeypatch.setattr(pipeline, "hypo_certify_quadratic", lambda a: None)
    first = certify(specs[0]).attempts[0]
    assert (first["method"], first["outcome"]) == ("quadratic_form", "no_certificate")


def test_every_emitted_certificate_reverifies():
    for spec_json in [EQ44_JSON, FIRST_MINUS_JSON, FIRST_PLUS_JSON,
                      SEXTIC_JSON, QUARTIC_JSON]:
        spec, _ = parse_spec(spec_json)
        report = certify(spec)
        for cert in report.verdict.chain:
            res = verify_certificate(cert)
            assert res.ok, (spec_json, cert.kind, res.reason)


# ---------------------------------------------------------------------------
# positivity checks and the generator from a positive symbol
# ---------------------------------------------------------------------------


def test_check_positivity_exact_psd():
    a = MultiPoly(MODEL_VARS, {(2, 0): GR_ONE, (0, 2): GR_ONE, (0, 0): gr(2)})
    record = check_positivity(a)
    assert record["method"] == "exact-psd"


def test_check_positivity_sampled_quartic():
    a = MultiPoly(MODEL_VARS, {(4, 0): GR_ONE, (0, 4): GR_ONE, (0, 0): gr(1)})
    record = check_positivity(a)
    assert record["method"] == "sampled"
    assert record["min_sample"] >= 0


def test_check_positivity_witness_is_central():
    a = MultiPoly(MODEL_VARS, {(2, 0): GR_ONE, (0, 0): gr(-1)})   # x^2 - 1
    with pytest.raises(PositivityError) as err:
        check_positivity(a)
    assert err.value.witness == (0.0, 0.0)
    assert err.value.value == -1.0


POSITIVITY_TARGETS = [
    # (variables, terms, "sampled" / "exact-psd" / "negative")
    (MODEL_VARS, {(4, 0): 1, (0, 4): 1, (0, 0): 1}, "sampled"),
    (MODEL_VARS, {(2, 0): 1, (1, 1): 3, (0, 2): 1, (0, 0): 1}, "negative"),   # indefinite
    (MODEL_VARS, {(2, 0): 1, (0, 2): 1, (1, 0): 1, (0, 0): Fraction(1, 4)}, "exact-psd"),
    (MODEL_VARS, {(3, 0): 1, (0, 2): 1, (0, 0): 5}, "negative"),
    (MODEL_VARS, {(4, 0): 1, (0, 4): 2, (2, 2): -3, (1, 1): 1, (0, 0): 2}, "negative"),
    (MODEL_VARS, {(6, 0): 1, (0, 6): 1, (3, 3): Fraction(1, 2), (2, 1): 7, (0, 0): 60}, "sampled"),
    (MODEL_VARS, {(6, 0): 1, (0, 6): 1, (4, 2): -3, (0, 0): 1}, "negative"),
    (MODEL_VARS, {(4, 0): 1, (2, 0): -2, (0, 0): 1}, "sampled"),   # (x^2 - 1)^2: zero samples
    (("x",), {(4,): 1, (1,): 3, (0,): 3}, "sampled"),
    (("x",), {(2,): 1, (0,): -1}, "negative"),
    (("xi",), {(5,): 1, (0,): 1}, "negative"),
]


@pytest.mark.parametrize("vars_,terms,outcome", POSITIVITY_TARGETS)
def test_check_positivity_axis_lines_match_meshgrid_oracle(vars_, terms, outcome):
    a = MultiPoly(vars_, {e: gr(Fraction(c)) for e, c in terms.items()})

    def run(check):
        try:
            return check(a)
        except PositivityError as exc:
            return "negative", exc.witness, exc.value, str(exc)

    got = run(check_positivity)
    assert got == run(meshgrid_check_positivity)
    assert (got[0] if isinstance(got, tuple) else got["method"]) == outcome


def test_generate_from_positive_symbol_round_trips():
    a = MultiPoly(MODEL_VARS, {(2, 0): GR_ONE, (0, 2): GR_ONE, (0, 0): gr(2)})
    result = generate_from_positive_symbol(a, Fraction(1, 2))
    assert result.roundtrip_ok
    # W^-1[x^2 + xi^2 + 2] = x^2 + xi^2 + 3
    assert result.spec.coeffs == {(2, 0): gr(1), (0, 2): gr(1), (0, 0): gr(3)}
    assert result.report.verdict.status == "Regular"
    doc = result.to_json()
    assert doc["positivity"]["method"] == "exact-psd"
    assert doc["roundtrip"] is True


def test_generate_rejects_bad_targets():
    with pytest.raises(PositivityError):
        generate_from_positive_symbol(
            MultiPoly(MODEL_VARS, {(2, 0): GR_ONE, (0, 0): gr(-1)}), Fraction(1, 2))
    with pytest.raises(ValueError, match="real"):
        generate_from_positive_symbol(MultiPoly(MODEL_VARS, {(1, 1): GR_I}), 0)
    with pytest.raises(ValueError, match="nonzero"):
        generate_from_positive_symbol(MultiPoly.zero(MODEL_VARS), 0)
    with pytest.raises(ValueError, match="variables"):
        generate_from_positive_symbol(
            MultiPoly(("x", "y", "xi", "eta"), {(0, 1, 0, 0): GR_ONE}), 0)


# ---------------------------------------------------------------------------
# quasi-homogeneous generator
# ---------------------------------------------------------------------------


def test_quasi_homogeneous_integer_weights():
    result = generate_quasi_homogeneous(2, 1, 1, 1)
    assert result.spec.p == Fraction(2)
    assert result.spec.coeffs == {(2, 0): gr(1), (0, 2): gr(1)}
    assert result.change.rows == ((Fraction(2), Fraction(0)),
                                  (Fraction(0), Fraction(1)))
    # conjugated symbol is (eta + 2x)^2 + (xi + y)^2, expanded
    c = result.conjugated
    assert c.coefficient({"x": 2}) == gr(4)
    assert c.coefficient({"x": 1, "eta": 1}) == gr(4)
    assert c.coefficient({"eta": 2}) == gr(1)
    assert result.report.verdict.status == "Regular"


def test_quasi_homogeneous_reuses_the_report_symbols(monkeypatch):
    counts = {}
    _count_calls(monkeypatch, pipeline, "build_b_symbol", counts)
    _count_calls(monkeypatch, pipeline, "t_conjugate", counts)
    result = generate_quasi_homogeneous(Fraction(1, 3), Fraction(-1, 2), 1, 2)
    assert counts == {"build_b_symbol": 1, "t_conjugate": 1}
    assert result.conjugated is result.report.symbols["conjugated"]


def test_quasi_homogeneous_negative_weight():
    result = generate_quasi_homogeneous(1, -1, 1, 2)
    assert result.spec.p == Fraction(1, 2)
    assert result.spec.coeffs == {(2, 0): gr(4), (0, 4): gr(1)}
    c = result.conjugated
    # (x + eta)^2 + (xi - y)^4
    assert c.coefficient({"eta": 2}) == gr(1)
    assert c.coefficient({"y": 4}) == gr(1)
    assert c.coefficient({"xi": 3, "y": 1}) == gr(-4)
    doc = result.to_json()
    assert doc["T"] == [["1/2", "0"], ["0", "-1"]]


def test_quasi_homogeneous_target_matches_multipoly_powers():
    weights = [Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-7, 5), Fraction(23, 2)]
    for rho in weights:
        for tau in weights:
            for h in (1, 2, 3):
                for k in (1, 2, 3):
                    got = pipeline._quasi_homogeneous_target(rho, tau, h, k)
                    want = multipoly_quasi_homogeneous_target(rho, tau, h, k)
                    assert got.vars == want.vars and got.terms == want.terms


def test_quasi_homogeneous_rejects_bad_weights():
    with pytest.raises(ValueError, match="rho\\*tau"):
        generate_quasi_homogeneous(1, 0, 1, 1)
    with pytest.raises(ValueError, match="rho != tau"):
        generate_quasi_homogeneous(2, 2, 1, 1)
    with pytest.raises(ValueError, match="positive integers"):
        generate_quasi_homogeneous(2, 1, 0, 1)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def test_render_summary_mentions_the_essentials():
    spec, _ = parse_spec(FIRST_MINUS_JSON)
    text = render_summary(certify(spec))
    assert "verdict: NotRegular (exact)" in text
    assert "exit code: 4" in text
    assert "kernel witness: exp((-1/2)*x^2)" in text
    assert "[hypo]" in text


def test_emit_report_is_deterministic(tmp_path):
    spec, _ = parse_spec(EQ44_JSON)
    paths = []
    for tag in ("one", "two"):
        jpath = tmp_path / f"{tag}.json"
        spath = tmp_path / f"{tag}.txt"
        emit_report(certify(spec), json_path=str(jpath), summary_path=str(spath),
                    timestamp="2026-01-01T00:00:00+00:00")
        paths.append((jpath, spath))
    assert paths[0][0].read_text() == paths[1][0].read_text()
    assert paths[0][1].read_text() == paths[1][1].read_text()
    doc = json.loads(paths[0][0].read_text())
    assert doc["generated_at"] == "2026-01-01T00:00:00+00:00"


def test_emit_report_stamps_current_time_by_default():
    spec, _ = parse_spec(EQ44_JSON)
    doc = emit_report(certify(spec))
    assert "generated_at" in doc and doc["generated_at"]


def test_json_text_writes_every_golden_output_byte_for_byte():
    outputs = sorted(GOLDEN.glob("*.out"))
    assert len(outputs) == 17
    for path in outputs:
        text = path.read_text()
        doc = json.loads(text)
        assert json_text(doc) + "\n" == text, path.name
        assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2 ** 64, 2 ** 200).map(lambda n: -n)
    | st.integers(2 ** 64, 2 ** 200) | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308,
                       float("nan"), float("inf"), float("-inf")])
    | st.text() | st.sampled_from(["", "\x00\x1f\x7f", "\u00e9\u2603\U0001f600", '"\\/\b\f\n\r\t']),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=30,
)


@given(json_values)
@settings(max_examples=300, deadline=None)
def test_json_text_equals_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def _plain(value):
    """value with every MultiPoly replaced by its to_json() document."""
    if isinstance(value, MultiPoly):
        return value.to_json()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


rationals = (st.fractions(max_denominator=50)
             | st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 120)))


@st.composite
def polynomials(draw):
    vars_ = draw(st.sampled_from([(), ("x",), ("eta",), MODEL_VARS, PHASE_VARS]))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 12)] * len(vars_)),
                                 st.builds(GaussianRational, rationals, rationals), max_size=6))
    return MultiPoly(vars_, terms)


@st.composite
def documents_with_polynomials(draw):
    """A polynomial, or the zero one, nested 0 to 3 containers deep beside
    other JSON values and polynomials."""
    doc = draw(polynomials() | st.sampled_from([MultiPoly.zero(), MultiPoly.zero(PHASE_VARS)]))
    for _ in range(draw(st.integers(0, 3))):
        sibling = draw(polynomials() | json_values)
        doc = draw(st.sampled_from([[doc, sibling], (sibling, doc), {"poly": doc, "other": sibling},
                                    {"b": sibling, "a": {"inner": doc}}]))
    return doc


@given(documents_with_polynomials())
@settings(max_examples=300, deadline=None)
def test_json_text_writes_polynomials_at_any_depth_as_json_dumps_of_to_json(doc):
    assert json_text(doc) == json.dumps(_plain(doc), indent=2, sort_keys=True)


def _dense_spec(order: int, seed: int) -> dict:
    rng = random.Random(seed)
    return {"p": "3/7", "coeffs": [
        {"j": j, "k": k, "re": f"{rng.randint(-31, 31)}/{rng.randint(1, 9)}",
         "im": f"{rng.randint(-31, 31)}/{rng.randint(1, 9)}"}
        for j in range(order + 1) for k in range(order + 1 - j)]}


@pytest.mark.parametrize("order", [8, 10])
def test_certify_report_of_a_dense_spec_is_json_dumps_of_to_json(tmp_path, order):
    spec_json = _dense_spec(order, seed=order)
    spec_path, report_path = tmp_path / "spec.json", tmp_path / "report.json"
    spec_path.write_text(json.dumps(spec_json))
    cli.main(["certify", str(spec_path), "--quiet", "--report", str(report_path)])
    text = report_path.read_text()
    doc = certify(*parse_spec(spec_json)).to_json()
    doc["generated_at"] = json.loads(text)["generated_at"]
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_generate_output_is_json_dumps_of_to_json(tmp_path):
    out = tmp_path / "quasi.json"
    cli.main(["generate", "--quasi-homogeneous", "23/2,-19/3,2,1", "--out", str(out)])
    result = generate_quasi_homogeneous(Fraction(23, 2), Fraction(-19, 3), 2, 1)
    assert out.read_text() == json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n"
    target = {"vars": ["x", "xi"], "terms": [{"exp": [2, 0], "re": "3/2"}, {"exp": [0, 2], "re": "5"},
                                             {"exp": [0, 0], "re": "1"}]}
    (tmp_path / "target.json").write_text(json.dumps(target))
    cli.main(["generate", "--positive-symbol", str(tmp_path / "target.json"), "--p", "2/5",
              "--out", str(out)])
    result = generate_from_positive_symbol(MultiPoly.from_json(target), Fraction(2, 5))
    assert out.read_text() == json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [
    {1, 2}, Fraction(1, 2), {1: "one"}, {"a": {None: 1}}, [frozenset()], {"k": Fraction(1, 3)},
    {"terms": [{"exp": [1, 0], "re": GR_ONE}]}, {(1, 2): "tuple key"}, b"bytes", 1 + 2j,
], ids=["set", "fraction", "int-key", "none-key", "nested-frozenset", "nested-fraction",
        "gaussian", "tuple-key", "bytes", "complex"])
def test_json_text_raises_type_error_where_it_cannot_match_json_dumps(value):
    with pytest.raises(TypeError):
        json_text(value)


# ---------------------------------------------------------------------------
# report verification against the spec it names
# ---------------------------------------------------------------------------

def golden_report(name: str) -> dict:
    return json.loads((GOLDEN / f"certify_{name}.out").read_text())


def test_verify_report_passes_every_golden_report_with_one_entry_per_link():
    reports = sorted(GOLDEN.glob("certify_*.out"))
    assert len(reports) == 13
    for path in reports:
        doc = json.loads(path.read_text())
        results = verify_report(doc)
        assert [kind for kind, _ in results] == [c["kind"] for c in doc["verdict"]["chain"]], path
        assert all(result.ok for _, result in results), (path, results)


def test_verify_report_rejects_another_operators_verdict():
    # FIRST_MINUS (NotRegular) carrying EQ44's verdict: each certificate is
    # valid for EQ44, whose symbol is not FIRST_MINUS's
    doc = golden_report("FIRST_MINUS")
    doc["verdict"] = golden_report("EQ44")["verdict"]
    results = verify_report(doc)
    assert [kind for kind, _ in results] == ["HypoQuadraticForm", "InjQuadraticEstimate"]
    assert all(not result.ok and result.reason ==
               "certificate subject does not match the supplied symbol" for _, result in results)


def _forged(name, edit):
    doc = golden_report(name)
    edit(doc)
    return doc


REPORT_FORGERIES = {
    "status": ("SEXTIC", lambda d: d["verdict"].update(status="Regular"),
               "verdict differs from the one its chain composes"),
    "verdict_grade": ("SEXTIC", lambda d: d["verdict"].update(grade="exact"),
                      "verdict differs from the one its chain composes"),
    "witness": ("FIRST_MINUS", lambda d: d["verdict"].update(witness="0"),
                "verdict differs from the one its chain composes"),
    "grade": ("EQ44", lambda d: d.update(grade="evidence"), "grade differs from the verdict's"),
    "exit_code": ("EQ44", lambda d: d.update(exit_code=2), "exit_code differs from the verdict's"),
    "symbols_a": ("EQ44", lambda d: d["symbols"].update(a=d["symbols"]["b"]),
                  "symbols.a is not the model symbol of the report's spec"),
    "links_swapped": ("EQ44", lambda d: d["verdict"]["chain"].reverse(),
                      "the chain must hold at most one link per stage, hypo-ellipticity first"),
    "link_repeated": ("EQ44", lambda d: d["verdict"]["chain"].append(d["verdict"]["chain"][-1]),
                      "the chain must hold at most one link per stage, hypo-ellipticity first"),
    "link_dropped": ("EQ44", lambda d: d["verdict"]["chain"].pop(),
                     "verdict differs from the one its chain composes"),
    # a NotApplicable link claims nothing, so it verifies, but no Regular
    # verdict rests on it
    "not_applicable_link": ("EQ44", lambda d: d["verdict"]["chain"].__setitem__(
        1, {"kind": "NotApplicable", "grade": "none", "payload": {"reason": "x"},
            "subject": {}, "notes": []}),
        "the chain composes no verdict: Regular verdict needs a hypo-ellipticity "
        "and an injectivity certificate"),
}


@pytest.mark.parametrize("forgery", sorted(REPORT_FORGERIES))
def test_verify_report_requires_the_verdict_its_chain_composes(forgery):
    name, edit, reason = REPORT_FORGERIES[forgery]
    results = verify_report(_forged(name, edit))
    assert all(result.ok for _, result in results[:-1])
    assert results[-1][0] == "verdict"
    assert results[-1][1].reason == reason


def test_verify_report_names_a_malformed_link_and_composes_nothing():
    doc = golden_report("EQ44")
    del doc["verdict"]["chain"][1]["grade"]
    results = verify_report(doc)
    assert [(kind, result.ok) for kind, result in results] == [
        ("HypoQuadraticForm", True), ("malformed certificate", False)]
    assert results[1][1].reason == "'grade'"


def test_verify_report_needs_a_spec_for_a_nonempty_chain():
    doc = golden_report("EQ44")
    del doc["spec"]
    with pytest.raises(ValueError, match="names no spec"):
        verify_report(doc)
    assert verify_report({"verdict": {"chain": []}}) == []
    with pytest.raises(ValueError, match="no verdict chain"):
        verify_report({"verdict": ["HypoQuadraticForm"]})


# ---------------------------------------------------------------------------
# pipeline-level invariant: Regular verdicts obey the intertwining identity
# ---------------------------------------------------------------------------


def test_regular_verdicts_pass_numerical_intertwining():
    from wigreg.hermite import Hermite
    from wigreg.spectral import intertwine_residual

    for spec_json in [EQ44_JSON, QUARTIC_JSON, FIRST_PLUS_JSON]:
        spec, _ = parse_spec(spec_json)
        report = certify(spec)
        assert report.verdict.status == "Regular"
        residuals = intertwine_residual(spec, Hermite(1), Hermite(0), spec.p)
        assert residuals[0][1] <= 1e-6, (spec_json, residuals)
