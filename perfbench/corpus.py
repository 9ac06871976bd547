"""Seeded inputs for the four workloads, and the checks on every output.

Each workload writes its spec, target and grid files into a directory and
returns a list of steps.  A step is one ``wigreg`` command line plus a check
that runs after the command, outside the timed region.  The checks use
references computed here, independently of the package: the pinned fixture
verdicts of the acceptance tests, a closed form of the planar symbol, the
inverse Weyl-Wick transform of a quadratic, Hermite functions from their own
recurrence, and the Gaussian closed form of the p = 1/2 transform.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

# The command each workload's op_ms metric times.
PRIMARY = {"fixtures": "certify", "order-sweep": "certify",
           "transform": "transform", "intertwine": "intertwine"}

FIXTURES = {
    "EQ44": {"p": "1/2", "coeffs": [{"j": 2, "k": 0, "re": "4"},
                                    {"j": 0, "k": 2, "re": "1/4"}]},
    "C11": {"p": "1/2", "coeffs": [{"j": 1, "k": 1, "re": "1"}]},
    "QUARTIC": {"p": "1/2", "coeffs": [
        {"j": 4, "k": 0, "re": "1"}, {"j": 2, "k": 2, "re": "2"},
        {"j": 1, "k": 1, "im": "-4"}, {"j": 0, "k": 4, "re": "1"}]},
    "SEXTIC": {"p": "1/2", "coeffs": [
        {"j": 6, "k": 0, "re": "1"}, {"j": 2, "k": 2, "re": "2"},
        {"j": 1, "k": 1, "im": "-4"}, {"j": 0, "k": 6, "re": "1"}]},
    "FIRST_PLUS": {"p": "1/2", "coeffs": [{"j": 0, "k": 1, "re": "1"},
                                          {"j": 1, "k": 0, "im": "1"}]},
    "FIRST_MINUS": {"p": "1/2", "coeffs": [{"j": 0, "k": 1, "re": "1"},
                                           {"j": 1, "k": 0, "im": "-1"}]},
}

# (status, grade, exit code, chain kinds, witness) as pinned by the
# acceptance, pipeline and CLI tests.  C11 has no pinned verdict there; its
# entry is the answer of the commit this benchmark was written against.
FIXTURE_ANSWERS = {
    "EQ44": ("Regular", "exact", 0, ["HypoQuadraticForm", "InjQuadraticEstimate"], None),
    "C11": ("Unknown", "exact", 3, [], None),
    "QUARTIC": ("Regular", "exact", 0, ["HypoNewtonPolygon", "InjSOS"], None),
    "SEXTIC": ("Unknown", "evidence", 3, ["HypoUnfalsified", "InjSOS"], None),
    "FIRST_PLUS": ("Regular", "exact", 0, ["HypoFirstOrder", "InjKernelEscape"], None),
    "FIRST_MINUS": ("NotRegular", "exact", 4, ["HypoFirstOrder", "NotInjectiveWitness"],
                    "exp((-1/2)*x^2)"),
}

# Every other order, so that a run repeats each command several times.
DENSE_ORDERS = (2, 4, 6, 8, 10)
MONOMIAL_HALF_ORDERS = (2, 4, 6, 8, 12)               # x^n D^n, orders 4..24
QUASI_HOMOGENEOUS = ((1, 1), (1, 3), (2, 3), (3, 2), (6, 1), (3, 6), (6, 6))
# p by position, over several denominators; the seed does not choose it
P_VALUES = ("1/2", "1/3", "3/4", "2/5", "5/6", "3/7")
NUMERATOR_BITS = 5                         # every seeded numerator lies in [16, 32)

TRANSFORM_SIZES = (128, 256, 512)
TRANSFORM_PS = ("1/2", "1/3")
HALF_WIDTH = 12.0                          # the CLI's default --L
ROUND_TRIP_TOL = 1e-6
CLOSED_FORM_TOL = 1e-8

INTERTWINE_SPECS = ("EQ44", "C11", "QUARTIC", "FIRST_PLUS")
INTERTWINE_PS = ("0", "1/2", "1", "1/3")
INTERTWINE_PAIRS = 2                       # seeded window pairs per (spec, p, N)
INTERTWINE_TOL = 1e-6


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    tol_ratio: Optional[float] = None      # residual / its tolerance


@dataclass
class Step:
    kind: str                              # certify, verify, generate, transform, intertwine
    label: str
    argv: list
    check: Callable[[int, str], Outcome]


# ---------------------------------------------------------------------------
# independent exact arithmetic: Gaussian rationals as (re, im) Fraction pairs
# ---------------------------------------------------------------------------


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gpow(a, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = _gmul(out, a)
    return out


def _accumulate(terms: dict, key, value) -> None:
    re_, im_ = terms.get(key, (Fraction(0), Fraction(0)))
    terms[key] = (re_ + value[0], im_ + value[1])


def _nonzero(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if v[0] != 0 or v[1] != 0}


def _spec_coeffs(spec: dict) -> dict:
    return {(int(e["j"]), int(e["k"])): (Fraction(e.get("re", "0")), Fraction(e.get("im", "0")))
            for e in spec["coeffs"]}


def _poly_terms(poly: dict, order=("x", "y", "xi", "eta")) -> dict:
    """Report polynomial JSON -> {exponents over ``order``: (re, im)}."""
    names = poly["vars"]
    out = {}
    for term in poly["terms"]:
        powers = dict(zip(names, term["exp"]))
        key = tuple(powers.get(v, 0) for v in order)
        _accumulate(out, key, (Fraction(term["re"]), Fraction(term["im"])))
    return _nonzero(out)


def closed_form_b(spec: dict) -> dict:
    """Planar symbol b = a~(x - q eta, y + p xi), exponents over (x, y, xi, eta).

    a~ is the degenerate model symbol
    sum c[j,k] sum_n (i q)^n n! C(j,n) C(k,n) x^(j-n) xi^(k-n).
    """
    p = Fraction(spec["p"])
    q = 1 - p
    atilde: dict = {}
    for (j, k), c in _spec_coeffs(spec).items():
        for n in range(min(j, k) + 1):
            scale = math.factorial(n) * math.comb(j, n) * math.comb(k, n)
            coef = _gmul(c, _gpow((Fraction(0), q), n))
            _accumulate(atilde, (j - n, k - n), (coef[0] * scale, coef[1] * scale))
    b: dict = {}
    for (a, c_), coef in _nonzero(atilde).items():
        for s in range(a + 1):
            for t in range(c_ + 1):
                w = math.comb(a, s) * (-q) ** s * math.comb(c_, t) * p ** t
                _accumulate(b, (a - s, c_ - t, t, s), (coef[0] * w, coef[1] * w))
    return _nonzero(b)


def _binomial_power(terms_in: list, power: int) -> dict:
    """(sum of monomials)^power for monomials given as (exponents, (re, im))."""
    out = {(0, 0, 0, 0): (Fraction(1), Fraction(0))}
    for _ in range(power):
        nxt: dict = {}
        for e1, c1 in out.items():
            for e2, c2 in terms_in:
                _accumulate(nxt, tuple(i + j for i, j in zip(e1, e2)), _gmul(c1, c2))
        out = _nonzero(nxt)
    return out


# ---------------------------------------------------------------------------
# independent numerics
# ---------------------------------------------------------------------------


def hermite_function(n: int, t: np.ndarray) -> np.ndarray:
    """Normalized Hermite function h_n by the three-term recurrence."""
    h_prev = np.pi ** -0.25 * np.exp(-0.5 * t * t)
    if n == 0:
        return h_prev
    h = math.sqrt(2.0) * t * h_prev
    for m in range(1, n):
        h_prev, h = h, math.sqrt(2.0 / (m + 1)) * t * h - math.sqrt(m / (m + 1)) * h_prev
    return h


def read_grid_csv(path: str) -> np.ndarray:
    """Columns x, y, re, im of a grid CSV, parsed here rather than by wigreg."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[1] != 4:
        raise ValueError(f"{path}: expected 4 columns, got {table.shape[1]}")
    return table


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_fixture_report(name: str, path: str) -> Callable[[int, str], Outcome]:
    status, grade, code, kinds, witness = FIXTURE_ANSWERS[name]

    def check(rc: int, out: str) -> Outcome:
        report = _load_json(path)
        verdict = report["verdict"]
        got = (verdict["status"], report["grade"], rc, report["exit_code"],
               [c["kind"] for c in verdict["chain"]], verdict.get("witness"))
        want = (status, grade, code, code, kinds, witness)
        if got != want:
            return Outcome(False, f"{name}: got {got}, want {want}")
        if not report["degeneracy"]["holds"]:
            return Outcome(False, f"{name}: degeneracy does not hold")
        if name == "FIRST_PLUS":
            adjoint = report["adjoint"] or {}
            if not adjoint.get("adjoint_kernel_nontrivial") or "index -1" not in adjoint.get("remark", ""):
                return Outcome(False, "FIRST_PLUS: adjoint remark missing")
        return Outcome(True)

    return check


def check_sweep_report(family: str, spec: dict, path: str) -> Callable[[int, str], Outcome]:
    def check(rc: int, out: str) -> Outcome:
        report = _load_json(path)
        if rc != report["exit_code"]:
            return Outcome(False, f"exit {rc} but report says {report['exit_code']}")
        if not report["degeneracy"]["holds"]:
            return Outcome(False, "degeneracy does not hold")
        if _poly_terms(report["symbols"]["b"]) != closed_form_b(spec):
            return Outcome(False, "b differs from a~(x - q eta, y + p xi)")
        status, grade = report["verdict"]["status"], report["grade"]
        if family == "monomial":
            outcomes = {(a["stage"], a["method"]): a["outcome"] for a in report["attempts"]}
            if status != "Unknown" or outcomes.get(("hypo", "falsifier")) != "falsified":
                return Outcome(False, f"monomial ended {status} without a falsification")
        if family == "quasi-homogeneous" and (status, grade, rc) != ("Regular", "exact", 0):
            return Outcome(False, f"quasi-homogeneous ended {status} ({grade}), exit {rc}")
        return Outcome(True)

    return check


def check_verify(report_path: str) -> Callable[[int, str], Outcome]:
    def check(rc: int, out: str) -> Outcome:
        chain = _load_json(report_path)["verdict"]["chain"]
        oks = [line for line in out.splitlines() if line.endswith(": ok")]
        if rc != 0:
            return Outcome(False, f"verify-certificate exited {rc}")
        if chain and len(oks) != len(chain):
            return Outcome(False, f"{len(oks)} of {len(chain)} certificates re-verified")
        if not chain and "no certificates" not in out:
            return Outcome(False, "empty chain not reported")
        return Outcome(True)

    return check


def check_positive_generate(target: dict, p: str, path: str) -> Callable[[int, str], Outcome]:
    """The model symbol r with W[r] = a for a = A x^2 + C x xi + B xi^2 + G is
    r = a + (A + B)/2 + i C/2: exp(Lap/4) adds (A + B)/2 and the mixed series
    exp((i/2) d_x d_xi) adds i C/2."""
    a2, c1, b2, g0 = target

    def check(rc: int, out: str) -> Outcome:
        doc = _load_json(path)
        want = _nonzero({(2, 0): (a2, Fraction(0)), (1, 1): (c1, Fraction(0)),
                         (0, 2): (b2, Fraction(0)),
                         (0, 0): (g0 + (a2 + b2) / 2, c1 / 2)})
        if _spec_coeffs(doc["spec"]) != want or Fraction(doc["spec"]["p"]) != Fraction(p):
            return Outcome(False, f"generated spec {doc['spec']} is not W^-1 of the target")
        report = doc["report"]
        if not doc["roundtrip"] or doc["positivity"]["method"] != "exact-psd":
            return Outcome(False, "positivity or round trip not exact")
        if report["verdict"]["status"] != "Regular" or rc != report["exit_code"]:
            return Outcome(False, f"generated operator ended {report['verdict']['status']}, exit {rc}")
        return Outcome(True)

    return check


def check_qh_generate(rho: Fraction, tau: Fraction, h: int, k: int,
                      path: str) -> Callable[[int, str], Outcome]:
    """Spec lam x^2h + xi^2k with lam = (rho - tau)^2h and p = rho/(rho - tau);
    T = diag(p, tau); conjugated symbol (eta + rho x)^2h + (xi + tau y)^2k."""
    def check(rc: int, out: str) -> Outcome:
        doc = _load_json(path)
        p = rho / (rho - tau)
        want = {(2 * h, 0): ((rho - tau) ** (2 * h), Fraction(0)), (0, 2 * k): (Fraction(1), Fraction(0))}
        if _spec_coeffs(doc["spec"]) != want or Fraction(doc["spec"]["p"]) != p:
            return Outcome(False, f"spec {doc['spec']} is not the quasi-homogeneous operator")
        if [[Fraction(v) for v in row] for row in doc["T"]] != [[p, 0], [0, tau]]:
            return Outcome(False, f"T = {doc['T']}")
        one = (Fraction(1), Fraction(0))
        conj = dict(_binomial_power([((0, 0, 0, 1), one), ((1, 0, 0, 0), (rho, Fraction(0)))], 2 * h))
        for key, value in _binomial_power([((0, 0, 1, 0), one), ((0, 1, 0, 0), (tau, Fraction(0)))],
                                          2 * k).items():
            _accumulate(conj, key, value)
        if _poly_terms(doc["conjugated_symbol"]) != _nonzero(conj):
            return Outcome(False, "conjugated symbol differs from its closed form")
        status, grade = doc["report"]["verdict"]["status"], doc["report"]["grade"]
        if (status, grade, rc) != ("Regular", "exact", 0):
            return Outcome(False, f"ended {status} ({grade}), exit {rc}")
        return Outcome(True)

    return check


def check_forward(path: str, closed_form: bool) -> Callable[[int, str], Outcome]:
    def check(rc: int, out: str) -> Outcome:
        if rc != 0:
            return Outcome(False, f"forward exited {rc}")
        if not closed_form:
            return Outcome(True)
        table = read_grid_csv(path)
        x, y = table[:, 0], table[:, 1]
        err = float(np.max(np.abs(table[:, 2] + 1j * table[:, 3]
                                  - math.sqrt(2.0 / math.pi) * np.exp(-x * x - y * y))))
        return Outcome(err <= CLOSED_FORM_TOL, f"closed-form error {err:.3e}", err / CLOSED_FORM_TOL)

    return check


def check_round_trip(path: str, m: int, n: int) -> Callable[[int, str], Outcome]:
    def check(rc: int, out: str) -> Outcome:
        if rc != 0:
            return Outcome(False, f"inverse exited {rc}")
        table = read_grid_csv(path)
        s, t = table[:, 0], table[:, 1]
        inside = np.abs(s - t) < HALF_WIDTH
        want = hermite_function(m, s[inside]) * hermite_function(n, t[inside])
        got = table[inside, 2] + 1j * table[inside, 3]
        err = float(np.max(np.abs(got - want)))
        return Outcome(err <= ROUND_TRIP_TOL, f"round-trip error {err:.3e}", err / ROUND_TRIP_TOL)

    return check


_RESIDUAL = re.compile(r"^intertwining: (\S+)$", re.MULTILINE)


def check_intertwine(rc: int, out: str) -> Outcome:
    found = _RESIDUAL.findall(out)
    if len(found) != 1:
        return Outcome(False, "no intertwining residual printed")
    residual = float(found[0])
    ok = rc == 0 and residual <= INTERTWINE_TOL and "PASS" in out
    return Outcome(ok, f"residual {residual:.3e}", residual / INTERTWINE_TOL)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
    return path


def _seeded_rational(rng: random.Random, den: int, signed: bool = True) -> Fraction:
    """A rational in lowest terms over the denominator the caller fixes by
    position.  The seed draws the numerator among those of NUMERATOR_BITS
    bits that are prime to ``den``, and its sign, so it changes the values
    but not their size."""
    low = 1 << (NUMERATOR_BITS - 1)
    num = rng.choice([r for r in range(low, 2 * low) if math.gcd(r, den) == 1])
    return Fraction(num * (rng.choice((-1, 1)) if signed else 1), den)


def _position_p(index: int) -> str:
    return P_VALUES[index % len(P_VALUES)]


def build_fixtures(rng: random.Random, work: str) -> list:
    steps = []
    for name, spec in FIXTURES.items():
        spec_path = _write_json(os.path.join(work, f"{name}.json"), spec)
        report = os.path.join(work, f"{name}.report.json")
        steps.append(Step("certify", name, ["certify", spec_path, "--report", report],
                          check_fixture_report(name, report)))
        steps.append(Step("verify", name, ["verify-certificate", report], check_verify(report)))
    # one diagonal and one cross-term positive quadratic target
    for i, cross in enumerate((False, True)):
        a2 = _seeded_rational(rng, 2, signed=False)
        b2 = _seeded_rational(rng, 3, signed=False)
        c1 = Fraction(rng.choice((-1, 1)), 4) if cross else Fraction(0)
        g0 = _seeded_rational(rng, 4, signed=False)
        target = {"vars": ["x", "xi"], "terms": [
            {"exp": list(e), "re": str(v), "im": "0"}
            for e, v in (((2, 0), a2), ((1, 1), c1), ((0, 2), b2), ((0, 0), g0)) if v != 0]}
        t_path = _write_json(os.path.join(work, f"target{i}.json"), target)
        p = _position_p(i)
        out = os.path.join(work, f"positive{i}.result.json")
        steps.append(Step("generate", f"positive{i}",
                          ["generate", "--positive-symbol", t_path, "--p", p, "--out", out],
                          check_positive_generate((a2, c1, b2, g0), p, out)))
    for i, (h, k) in enumerate(((1, 2), (2, 1))):
        rho = _seeded_rational(rng, 2, signed=False)
        tau = -_seeded_rational(rng, 3, signed=False)
        out = os.path.join(work, f"quasi{i}.result.json")
        steps.append(Step("generate", f"quasi{i}",
                          ["generate", "--quasi-homogeneous", f"{rho},{tau},{h},{k}", "--out", out],
                          check_qh_generate(rho, tau, h, k, out)))
    return steps


def build_order_sweep(rng: random.Random, work: str) -> list:
    cases = []
    for d in DENSE_ORDERS:
        coeffs = [{"j": j, "k": k, "re": str(_seeded_rational(rng, 1 + (j + 2 * k) % 4)),
                   "im": str(_seeded_rational(rng, 1 + (2 * j + k) % 4))}
                  for j in range(d + 1) for k in range(d + 1 - j)]
        cases.append(("dense", f"dense{d}", {"p": _position_p(d), "coeffs": coeffs}))
    for n in MONOMIAL_HALF_ORDERS:
        cases.append(("monomial", f"mono{2 * n}",
                      {"p": _position_p(n), "coeffs": [{"j": n, "k": n, "re": "1"}]}))
    for i, (h, k) in enumerate(QUASI_HOMOGENEOUS):
        lam = str(_seeded_rational(rng, 3, signed=False))
        cases.append(("quasi-homogeneous", f"qh{2 * h}_{2 * k}",
                      {"p": _position_p(i), "coeffs": [{"j": 2 * h, "k": 0, "re": lam},
                                                          {"j": 0, "k": 2 * k, "re": "1"}]}))
    steps = []
    for family, label, spec in cases:
        spec_path = _write_json(os.path.join(work, f"{label}.json"), spec)
        report = os.path.join(work, f"{label}.report.json")
        steps.append(Step("certify", label, ["certify", spec_path, "--report", report],
                          check_sweep_report(family, spec, report)))
        steps.append(Step("verify", label, ["verify-certificate", report], check_verify(report)))
    return steps


def _window_pair(rng: random.Random) -> tuple[int, int]:
    return rng.randint(0, 2), rng.randint(0, 2)


def build_transform(rng: random.Random, work: str) -> list:
    spec_path = _write_json(os.path.join(work, "EQ44.json"), FIXTURES["EQ44"])
    steps = []
    for n_pts in TRANSFORM_SIZES:
        for p in TRANSFORM_PS:
            closed_form = n_pts == 256 and p == "1/2"
            m, n = (0, 0) if closed_form else _window_pair(rng)
            label = f"N{n_pts}_p{p.replace('/', 'o')}"
            fwd = os.path.join(work, f"{label}.forward.csv")
            back = os.path.join(work, f"{label}.back.csv")
            steps.append(Step("transform", label + "_forward",
                              ["transform", spec_path, "--forward", "--out", fwd, "--p", p,
                               "--w", f"hermite:{m},{n}", "--N", str(n_pts)],
                              check_forward(fwd, closed_form)))
            steps.append(Step("transform", label + "_inverse",
                              ["transform", spec_path, "--inverse", "--in", fwd, "--out", back,
                               "--p", p],
                              check_round_trip(back, m, n)))
    return steps


def build_intertwine(rng: random.Random, work: str) -> list:
    paths = {name: _write_json(os.path.join(work, f"{name}.json"), FIXTURES[name])
             for name in INTERTWINE_SPECS + ("SEXTIC",)}
    cases = [(name, n_pts) for n_pts in (256, 512) for name in INTERTWINE_SPECS]
    # SEXTIC stays at N=256: at N=512 its residual exceeds the tolerance
    cases.append(("SEXTIC", 256))
    steps = []
    for name, n_pts in cases:
        for p in INTERTWINE_PS:
            for _ in range(INTERTWINE_PAIRS):
                m, n = _window_pair(rng)
                steps.append(Step("intertwine", f"{name}_N{n_pts}_p{p}_h{m}{n}",
                                  ["verify-intertwine", paths[name], "--p", p,
                                   "--w", f"hermite:{m},{n}", "--N", str(n_pts),
                                   "--tol", str(INTERTWINE_TOL)],
                                  check_intertwine))
    return steps


WORKLOAD_INPUTS = {"fixtures": build_fixtures, "order-sweep": build_order_sweep,
            "transform": build_transform, "intertwine": build_intertwine}


def build(workload: str, seed: int, work: str) -> list:
    return WORKLOAD_INPUTS[workload](random.Random(f"{workload}:{seed}"), work)


# ---------------------------------------------------------------------------
# negative check: a corrupted output must fail its check
# ---------------------------------------------------------------------------


def corrupted_output_is_caught(workload: str, steps: list, results: list) -> bool:
    """Corrupt one real output of the last pass and confirm its check rejects it.

    ``results`` holds the (exit code, stdout) of each step.  A corrupted file
    is written over the original and restored afterwards.
    """
    if workload == "intertwine":
        rc, out = results[0]
        return not steps[0].check(rc, _RESIDUAL.sub("intertwining: 2.000e-06", out)).ok
    if workload == "transform":
        index = next(i for i, s in enumerate(steps) if s.label.endswith("_inverse"))
        path = steps[index].argv[steps[index].argv.index("--out") + 1]
    else:
        index = next(i for i, s in enumerate(steps) if s.kind == "certify")
        path = steps[index].argv[steps[index].argv.index("--report") + 1]
    with open(path, "rb") as fh:
        original = fh.read()
    try:
        if workload == "transform":
            table = read_grid_csv(path)
            inside = np.flatnonzero(np.abs(table[:, 0] - table[:, 1]) < HALF_WIDTH)
            table[inside[len(inside) // 2], 2] += 1e-4
            np.savetxt(path, table, delimiter=",", header="x,y,re,im", comments="", fmt="%.17g")
        else:
            report = _load_json(path)
            if workload == "fixtures":
                report["verdict"]["status"] = "Unknown" if report["verdict"]["status"] == "Regular" else "Regular"
            else:
                term = report["symbols"]["b"]["terms"][0]
                term["re"] = str(Fraction(term["re"]) + 1)
            _write_json(path, report)
        return not steps[index].check(*results[index]).ok
    finally:
        with open(path, "wb") as fh:
            fh.write(original)
