"""End-to-end certification pipeline, generators, and report emission."""

import importlib
import json
from fractions import Fraction

import pytest

from wigreg import pipeline
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
    parse_spec,
    render_summary,
)
from wigreg.symbols import MODEL_VARS, OperatorSpec


# the package exports the pipeline's certify under the module's name
certify_module = importlib.import_module("wigreg.certify")


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
    _count_calls(monkeypatch, importlib.import_module("wigreg.symbols"), "weyl_wick", counts)
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
