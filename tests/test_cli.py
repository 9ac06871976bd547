"""Command-line interface: exit codes, outputs, and error paths."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wigreg.cli import main
from wigreg.wigner import read_grid

EQ44 = {"p": "1/2", "coeffs": [{"j": 2, "k": 0, "re": "4"},
                               {"j": 0, "k": 2, "re": "1/4"}]}
FIRST_MINUS = {"p": "1/2", "coeffs": [{"j": 0, "k": 1, "re": "1"},
                                      {"j": 1, "k": 0, "im": "-1"}]}
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


@pytest.mark.parametrize("extra, message", [
    (["--L", "3", "--N", "64"], "enlarge L"),
    (["--L", "inf"], "L must be finite"),
    (["--tol", "inf"], "--tol must be a finite number >= 0, got inf"),
    (["--tol", "nan"], "--tol must be a finite number >= 0, got nan"),
    (["--tol", "-1"], "--tol must be a finite number >= 0, got -1.0"),
], ids=["narrow-L", "inf-L", "inf-tol", "nan-tol", "negative-tol"])
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


@pytest.mark.parametrize("command", [["transform", "--forward", "--out", "never.csv"],
                                     ["verify-intertwine"]])
def test_oversized_grid_exits_with_message(spec_file, capsys, command):
    argv = [command[0], spec_file(EQ44)] + command[1:] + ["--N", "1048576"]
    assert main(argv) == 1
    assert "grid size N exceeds the limit of 4096" in capsys.readouterr().err


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


GOLDEN = Path(__file__).with_name("golden")


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
