"""Orchestration: parse operator specs, assemble their symbols, run the
certificate chain, verify reports, generate regular operators, and emit
reports.

The verdict logic rests on the exact reduction for the planar operators
B = sum c[j,k] (x - q D_y)^j (y + p D_x)^k: once the one-variable model symbol
a is certified hypo-elliptic, regularity of B is equivalent to injectivity of
the model operator A.  Without a hypo-ellipticity certificate the equivalence
says nothing, so the pipeline reports Unknown rather than guessing; evidence
grade hypo-ellipticity (the unfalsified heuristic) is likewise never enough
for a Regular or NotRegular verdict.

The chain and the rule that composes its verdict live in ``wigreg.certify``
(``_CHAIN``, ``_compose_verdict``); ``Report.exit_code`` maps the verdict to
0 Regular (exact), 2 Regular (evidence), 3 Unknown, 4 NotRegular.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_string
from math import comb, inf
from pathlib import Path
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .certify import (
    EXACT,
    HYPO_KINDS,
    Certificate,
    RegularityVerdict,
    VerifyResult,
    _compose_verdict,
    _decide,
    _quadratic_shape,
    verify_certificate,
)
from .exact import GR_ONE, GaussianRational, MultiPoly, load_json
from .symbols import (
    MODEL_VARS,
    PHASE_VARS,
    LinearChange,
    OperatorSpec,
    _wick_denominator,
    a_tilde,
    build_b_symbol,
    check_spec_size,
    t_conjugate,
    verify_degeneracy,
    weyl_wick,
    weyl_wick_inverse,
)

EXIT_REGULAR_EXACT = 0
EXIT_REGULAR_EVIDENCE = 2
EXIT_UNKNOWN = 3
EXIT_NOT_REGULAR = 4


def parse_spec(source: Union[str, Mapping]) -> tuple[OperatorSpec, Optional[LinearChange]]:
    """Parse a JSON operator spec, with an optional change of variables "T".

    The limits on the size of its rationals (MAX_RATIONAL_BITS) and of the
    whole spec (MAX_SPEC_BITS) are checked as it is read, before any symbol
    is built."""
    if isinstance(source, str):
        try:
            obj = load_json(source)
        except json.JSONDecodeError as exc:
            raise ValueError(f"spec is not valid JSON: {exc}") from exc
    else:
        obj = source
    if not isinstance(obj, Mapping):
        raise ValueError("spec must be a JSON object")
    spec = OperatorSpec.from_json(obj)
    change = None
    if obj.get("T") is not None:
        change = LinearChange.from_json(obj["T"])
        check_spec_size(spec, change)
    return spec, change


def _exit_code(verdict: RegularityVerdict) -> int:
    if verdict.status == "Regular":
        return EXIT_REGULAR_EXACT if verdict.grade == EXACT else EXIT_REGULAR_EVIDENCE
    if verdict.status == "NotRegular":
        return EXIT_NOT_REGULAR
    return EXIT_UNKNOWN


@dataclass
class Report:
    """Everything certify derives from one spec, JSON-ready and deterministic."""

    spec: OperatorSpec
    change: Optional[LinearChange]
    verdict: RegularityVerdict
    attempts: list[dict]
    symbols: dict[str, MultiPoly]
    degeneracy_holds: bool
    adjoint: Optional[dict] = None

    @property
    def exit_code(self) -> int:
        return _exit_code(self.verdict)

    def to_json(self) -> dict:
        return self._document(MultiPoly.to_json)

    def _document(self, poly: Callable[[MultiPoly], object]) -> dict:
        """The report's JSON document with each symbol rendered by ``poly``."""
        return {
            "spec": self.spec.to_json(),
            "change": self.change.to_json() if self.change is not None else None,
            "order": self.spec.order,
            "q": str(self.spec.q),
            "symbols": {name: poly(sym) for name, sym in sorted(self.symbols.items())},
            "degeneracy": {"holds": self.degeneracy_holds},
            "verdict": self.verdict.to_json(),
            "grade": self.verdict.grade,
            "attempts": self.attempts,
            "adjoint": self.adjoint,
            "residuals": None,
            "exit_code": self.exit_code,
        }


def certify(spec: OperatorSpec, change: Optional[LinearChange] = None) -> Report:
    """Run the full certificate chain and compose the verdict.

    Never raises on a valid spec; Unknown is the failure mode, with every
    attempted method and its outcome in the report.
    """
    a = spec.a_symbol().promote(MODEL_VARS)
    atilde = a_tilde(spec)
    b = build_b_symbol(spec, atilde)
    symbols: dict[str, MultiPoly] = {"a": a, "b": b, "atilde": atilde, "wick": weyl_wick(a)}
    if change is not None:
        symbols["conjugated"] = t_conjugate(b, change)
    degeneracy = verify_degeneracy(spec, b, atilde)

    verdict, attempts, adjoint = _decide(a, symbols["wick"])
    return Report(
        spec=spec,
        change=change,
        verdict=verdict,
        attempts=attempts,
        symbols=symbols,
        degeneracy_holds=degeneracy.holds,
        adjoint=adjoint,
    )


def _report_fault(doc: Mapping, chain: list[Certificate], a: MultiPoly) -> Optional[str]:
    """Why a report whose chain is in shape and whose links all verify
    against ``a`` does not hold together, or None.  Past the composed
    verdict, every link must be one the chain issues: never NotApplicable,
    and a kernel link about the operator, not its adjoint (a bare adjoint
    certificate still verifies alone)."""
    symbols = doc.get("symbols")
    if not isinstance(symbols, Mapping) or symbols.get("a") != a.to_json():
        return "symbols.a is not the model symbol of the report's spec"
    hypo = chain[0] if chain and chain[0].kind in HYPO_KINDS else None
    inj = chain[-1] if chain and chain[-1].kind not in HYPO_KINDS else None
    try:
        verdict = _compose_verdict(hypo, inj, [])
    except ValueError as exc:
        return f"the chain composes no verdict: {exc}"
    if verdict.to_json() != doc["verdict"]:
        return "verdict differs from the one its chain composes"
    if doc.get("grade") != verdict.grade:
        return "grade differs from the verdict's"
    if doc.get("exit_code") != _exit_code(verdict):
        return "exit_code differs from the verdict's"
    for cert in chain:
        if cert.kind == "NotApplicable":
            return "the chain never holds a NotApplicable link"
        if cert.subject.get("side", "operator") != "operator":
            return f"the chain's {cert.kind} link must analyse the operator, not its adjoint"
    return None


def verify_report(doc: Mapping) -> list[tuple[str, VerifyResult]]:
    """Re-check a certify report against the spec it names.

    A chain that holds more than one link per stage, or its injectivity link
    first, is refused before any link is rebuilt: the result is the one
    entry ("verdict", failure).  Otherwise every link of the verdict chain is
    verified with the spec's model symbol a, so its subject must be a's; the
    report's ``symbols.a`` must be a too.  Once every link holds, the chain
    must compose (``_compose_verdict``) into the report's verdict, grade and
    exit code.  Returns (kind, result) for each link in chain order, then
    ("verdict", failure) when the report does not hold together; a report
    that does gets no entry beyond its links.  A report that names no spec
    may only hold an empty chain.
    Raises ValueError when there is no verdict chain or the spec does not
    parse.
    """
    verdict = doc.get("verdict")
    chain = verdict.get("chain") if isinstance(verdict, Mapping) else None
    if not isinstance(chain, list):
        raise ValueError("report has no verdict chain")
    if "spec" not in doc:
        if chain:
            raise ValueError("report names no spec to verify its chain against")
        return []
    spec, _ = parse_spec(doc["spec"])
    a = spec.a_symbol().promote(MODEL_VARS)
    links = []   # a Certificate, or the VerifyResult of a malformed link
    for raw in chain:
        try:
            links.append(Certificate.from_json(raw))
        except (KeyError, TypeError, ValueError) as exc:
            links.append(VerifyResult(False, str(exc)))
    certs = [link for link in links if isinstance(link, Certificate)]
    # the shape needs only the kinds, so it is checked before any rebuild
    if [c.kind in HYPO_KINDS for c in certs] not in ([], [True], [False], [True, False]):
        return [("verdict", VerifyResult(
            False, "the chain must hold at most one link per stage, hypo-ellipticity first"))]
    results = [(link.kind, verify_certificate(link, symbol=a)) if isinstance(link, Certificate)
               else ("malformed certificate", link) for link in links]
    if all(result.ok for _, result in results):
        fault = _report_fault(doc, certs, a)
        if fault is not None:
            results.append(("verdict", VerifyResult(False, fault)))
    return results


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


class PositivityError(ValueError):
    """A sampled non-positive value disproves the claimed positivity."""

    def __init__(self, message: str, witness: tuple[float, float], value: float):
        super().__init__(message)
        self.witness = witness
        self.value = value


POSITIVITY_RADIUS = 20.0
POSITIVITY_COUNT = 401


def _psd_minors(a: MultiPoly) -> Optional[list[Fraction]]:
    """Principal minors of the homogenized quadratic over (x, xi, 1).

    All seven non-negative proves a >= 0 on the whole plane.  None when the
    symbol is not a real quadratic.
    """
    shape = _quadratic_shape(a)
    if shape is None or shape[1] != 0:
        return None
    q = shape[0]
    m = [[q.a2, q.b1, q.a1 / 2], [q.b1, q.c0, q.b0], [q.a1 / 2, q.b0, q.a0]]
    det2 = lambda i, j: m[i][i] * m[j][j] - m[i][j] * m[j][i]
    det3 = (m[0][0] * det2(1, 2) - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return [m[0][0], m[1][1], m[2][2], det2(0, 1), det2(0, 2), det2(1, 2), det3]


def check_positivity(a: MultiPoly) -> dict:
    """Exact certificate when possible, sampling evidence otherwise.

    The samples are a POSITIVITY_COUNT² grid on [-POSITIVITY_RADIUS,
    POSITIVITY_RADIUS]², sampled a block of rows at a time
    (MultiPoly.grid_blocks); the minimum and the most central negative
    sample are kept as the blocks go by.  Raises PositivityError with that
    sample's point (line[i], line[j]), the first in row-major order among
    equally central ones, when a sample is strictly negative; zero samples
    are allowed (positive almost everywhere suffices for the generated
    operator).  A sample beyond the float range raises a ValueError: the
    sampled symbol leaves the float range.  A real quadratic is decided by
    its minors alone: one that no sample catches but has a negative minor
    raises a ValueError naming that minor.
    """
    minors = _psd_minors(a)
    if minors is not None and all(v >= 0 for v in minors):
        return {"method": "exact-psd", "minors": [str(v) for v in minors]}
    line = np.linspace(-POSITIVITY_RADIUS, POSITIVITY_RADIUS, POSITIVITY_COUNT)
    sq = line * line
    low, central, at = inf, inf, None
    for rows, block in a.grid_blocks(line, line):
        vals = block.real
        block_low = vals.min()
        low = min(low, block_low)
        if block_low < 0:
            # report the most central counterexample, not the most negative one
            dist = np.where(vals < 0, sq[rows, None] + sq[None, :], inf)
            i, j = np.unravel_index(int(np.argmin(dist)), dist.shape)
            if dist[i, j] < central:
                central, at = dist[i, j], (rows.start + i, j, vals[i, j])
    if at is not None:
        i, j, value = at
        witness = (float(line[i]), float(line[j]))
        raise PositivityError(
            f"symbol is negative at (x, xi) = ({witness[0]:g}, {witness[1]:g}): "
            f"value {float(value):g}",
            witness=witness,
            value=float(value),
        )
    if minors is not None:
        raise ValueError("symbol is a quadratic that is negative somewhere: its homogenized form "
                         f"has the principal minor {next(v for v in minors if v < 0)} < 0")
    return {"method": "sampled", "min_sample": float(low),
            "radius": POSITIVITY_RADIUS, "count": POSITIVITY_COUNT}


@dataclass
class GenerateResult:
    spec: OperatorSpec
    report: Report
    positivity: dict
    roundtrip_ok: bool

    def to_json(self) -> dict:
        return self._document(MultiPoly.to_json)

    def _document(self, poly: Callable[[MultiPoly], object]) -> dict:
        return {
            "spec": self.spec.to_json(),
            "positivity": self.positivity,
            "roundtrip": self.roundtrip_ok,
            "report": self.report._document(poly),
        }


def generate_from_positive_symbol(a: MultiPoly, p) -> GenerateResult:
    """Build a regular planar operator from a positive polynomial target.

    The model symbol is r with W[r] = a; its coefficients, read as c[j,k],
    assemble the planar operator.  The emitted report re-derives W[r] so the
    round trip back to the input is confirmed exactly.  A target whose
    common denominator is beyond the bound of the Wick expansion is refused
    before its positivity is sampled.
    """
    if not set(a.vars) <= set(MODEL_VARS):
        raise ValueError(f"target symbol must use variables {MODEL_VARS}, got {a.vars}")
    a = a.promote(MODEL_VARS)
    if not a.is_real():
        raise ValueError("target symbol must have real coefficients")
    if a.is_zero():
        raise ValueError("target symbol must be nonzero")
    # the Wick inverse's bound first: it costs one lcm, the sampled grid far more
    _wick_denominator(a)
    positivity = check_positivity(a)
    r = weyl_wick_inverse(a)
    coeffs = {(exp[0], exp[1]): coef for exp, coef in r.terms.items()}
    spec = OperatorSpec(coeffs, Fraction(p))
    # first, so an r too large for a spec is refused by size, not by weyl_wick
    check_spec_size(spec)
    roundtrip_ok = weyl_wick(r) == a
    if not roundtrip_ok:
        raise RuntimeError("transform inversion failed to round-trip; this is a bug")
    report = certify(spec)
    return GenerateResult(spec=spec, report=report, positivity=positivity,
                          roundtrip_ok=roundtrip_ok)


@dataclass
class QuasiHomogeneousResult:
    spec: OperatorSpec
    change: LinearChange
    conjugated: MultiPoly
    report: Report

    def to_json(self) -> dict:
        return self._document(MultiPoly.to_json)

    def _document(self, poly: Callable[[MultiPoly], object]) -> dict:
        return {
            "spec": self.spec.to_json(),
            "T": self.change.to_json(),
            "conjugated_symbol": poly(self.conjugated),
            "report": self.report._document(poly),
        }


def generate_quasi_homogeneous(rho, tau, h: int, k: int) -> QuasiHomogeneousResult:
    """Anisotropic-dilation family: the operator with model symbol
    lam x^(2h) + xi^(2k), lam = (rho - tau)^(2h), p = rho/(rho - tau),
    whose conjugation by T = diag(rho/(rho-tau), tau) has the symbol
    (eta + rho x)^(2h) + (xi + tau y)^(2k) exactly.
    """
    rho, tau = Fraction(rho), Fraction(tau)
    if not (isinstance(h, int) and isinstance(k, int)) or h < 1 or k < 1:
        raise ValueError("h and k must be positive integers")
    if rho * tau == 0:
        raise ValueError("need rho*tau != 0")
    if rho == tau:
        raise ValueError("need rho != tau")
    p = rho / (rho - tau)
    lam = (rho - tau) ** (2 * h)
    spec = OperatorSpec({(2 * h, 0): GaussianRational(lam), (0, 2 * k): GR_ONE}, p)
    change = LinearChange(((p, Fraction(0)), (Fraction(0), tau)))
    check_spec_size(spec, change)
    report = certify(spec, change)
    conjugated = report.symbols["conjugated"]

    if conjugated != _quasi_homogeneous_target(rho, tau, h, k):
        raise RuntimeError("conjugated symbol failed its closed-form identity; this is a bug")
    return QuasiHomogeneousResult(spec=spec, change=change, conjugated=conjugated, report=report)


def _quasi_homogeneous_target(rho: Fraction, tau: Fraction, h: int, k: int) -> MultiPoly:
    """(eta + rho x)^(2h) + (xi + tau y)^(2k) over PHASE_VARS, one term per
    binomial coefficient; the two sums share no monomial."""
    terms = {(i, 0, 0, 2 * h - i): GaussianRational(comb(2 * h, i) * rho ** i)
             for i in range(2 * h + 1)}
    terms.update({(0, j, 2 * k - j, 0): GaussianRational(comb(2 * k, j) * tau ** j)
                  for j in range(2 * k + 1)})
    return MultiPoly(PHASE_VARS, terms)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def render_summary(report: Report) -> str:
    lines = [
        f"verdict: {report.verdict.status} ({report.verdict.grade})",
        f"exit code: {report.exit_code}",
        f"p = {report.spec.p}, q = {report.spec.q}, order = {report.spec.order}",
        "chain: " + (", ".join(c.kind for c in report.verdict.chain) or "(empty)"),
    ]
    if report.verdict.witness:
        lines.append(f"kernel witness: {report.verdict.witness}")
    if report.adjoint is not None:
        lines.append(f"adjoint: {report.adjoint['remark']}")
    lines.append("attempts:")
    for att in report.attempts:
        lines.append(f"  [{att['stage']}] {att['method']}: {att['outcome']} ({att['detail']})")
    return "\n".join(lines) + "\n"


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == inf:
            return "Infinity"
        if value == -inf:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(value, newline: str) -> str:
    """The text of ``value``; ``newline`` ends a line and indents the next one
    to the depth of ``value``.  A key that is not a str fails in
    encode_basestring_ascii with a TypeError."""
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [_json_string(key) + ": " + _json_text(value[key], inner) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, MultiPoly):
        return value.json_text(newline)
    return _json_scalar(value)


def json_text(doc) -> str:
    """Exactly ``json.dumps(doc, indent=2, sort_keys=True)``, in one recursive
    pass; the json module encodes an indented document in pure Python, a
    generator per container.  Each container's text is joined from its
    items' as soon as they are written, so no list of pieces of the whole
    document is held.

    Strings go through json's C ``encode_basestring_ascii``, ints through
    ``int.__repr__`` and floats through ``float.__repr__``, with NaN and
    +-Infinity spelled as json spells them.  A MultiPoly at any depth is
    written from its terms (MultiPoly.json_text), as its to_json() document
    would be.  A value json cannot encode (a set, a Fraction) or a key that
    is not a str raises TypeError.
    """
    return _json_text(doc, "\n")


def _as_is(poly: MultiPoly) -> MultiPoly:
    """The polynomial hook of the write path: a document that keeps each
    MultiPoly, which json_text writes straight from its terms."""
    return poly


def emit_report(report: Report, json_path=None, summary_path=None,
                timestamp: Optional[str] = None) -> dict:
    """Serialize the report; identical specs give byte-identical output apart
    from the generated_at stamp.  Returns the document written, whose
    ``symbols`` hold the MultiPoly values themselves (Report.to_json gives
    them as plain JSON)."""
    doc = report._document(_as_is)
    doc["generated_at"] = timestamp or datetime.now(timezone.utc).isoformat(timespec="seconds")
    if json_path is not None:
        Path(json_path).write_text(json_text(doc) + "\n")
    if summary_path is not None:
        Path(summary_path).write_text(render_summary(report))
    return doc
