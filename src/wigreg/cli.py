"""Command-line interface.

Exit codes follow the certification verdict: 0 Regular (exact), 2 Regular
(evidence), 3 Unknown, 4 NotRegular.  Usage and input errors exit 1 so they
can never be mistaken for the evidence-grade verdict.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from functools import cache
from pathlib import Path
from typing import Optional

from . import __version__
from .certify import Certificate, VerifyResult, verify_certificate
from .exact import MultiPoly, load_json, parse_int, parse_rational, rational_float
from .hermite import MAX_WINDOW_INDEX, Hermite
from .pipeline import (
    _as_is,
    certify,
    emit_report,
    generate_from_positive_symbol,
    generate_quasi_homogeneous,
    json_text,
    parse_spec,
    render_summary,
    verify_report,
)
from .spectral import intertwine_residual
from .symbols import t_conjugate
from .wigner import Grid2D, read_grid, read_manifest, wig_forward, wig_inverse, write_grid


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default, which collides with the
    Regular-with-evidence verdict; remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _parse_int_arg(text: str, field: str, **limits) -> int:
    """An integer argument, read as a JSON integer within parse_int's limits;
    any other text ("+2", "1_0", "01", "1.5") is refused by parse_int, by name."""
    digits = re.fullmatch(r"0|[1-9][0-9]*", text)
    return parse_int(load_json(text) if digits else text, field, **limits)


def _parse_windows(text: str):
    """Window pair syntax: hermite:m,n."""
    kind, _, rest = text.partition(":")
    if kind != "hermite":
        raise ValueError(f"unknown window family {kind!r} (expected hermite:m,n)")
    parts = rest.split(",")
    if len(parts) != 2:
        raise ValueError("window spec must be hermite:m,n")
    m, n = (_parse_int_arg(text, f"window index {name}", most=MAX_WINDOW_INDEX)
            for text, name in zip(parts, "mn"))
    return Hermite(m), Hermite(n)


def _cmd_certify(args) -> int:
    spec, change = parse_spec(_read_text(args.spec))
    report = certify(spec, change)
    if args.report or args.summary:
        emit_report(report, json_path=args.report, summary_path=args.summary)
    if not args.quiet:
        sys.stdout.write(render_summary(report))
    return report.exit_code


def _cmd_symbol(args) -> int:
    spec, change = parse_spec(_read_text(args.spec))
    from .symbols import a_tilde, build_b_symbol, weyl_wick

    derive = cache(lambda name: derivations[name]())
    derivations = {
        "a": spec.a_symbol,
        "b": lambda: build_b_symbol(spec, derive("atilde")),
        "atilde": lambda: a_tilde(spec),
        "wick": lambda: weyl_wick(derive("a")),
        "conjugated": lambda: t_conjugate(derive("b"), change),
    }
    names = [s.strip() for s in args.emit.split(",") if s.strip()]
    if not names:
        return _fail(f"--emit needs at least one of {', '.join(derivations)}")
    unknown = [n for n in names if n not in derivations]
    if unknown:
        return _fail(f"unknown symbol name(s) {', '.join(unknown)}; "
                     f"choose from {', '.join(sorted(derivations))}")
    if "conjugated" in names and change is None:
        return _fail("--emit conjugated needs a \"T\" entry in the spec")
    out = {name: derive(name) for name in names}
    if args.json:
        print(json_text(out))
    else:
        for name in names:
            print(f"{name} = {out[name]}")
    return 0


def _cmd_verify_intertwine(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        return _fail(f"--tol must be a finite number >= 0, got {args.tol}")
    spec, _ = parse_spec(_read_text(args.spec))
    if args.p is not None:
        spec = spec.with_p(parse_rational(args.p, "--p"))
    u, v = _parse_windows(args.w)
    grid = Grid2D(args.L, args.N)
    residuals = intertwine_residual(spec, u, v, spec.p, grid, mode=args.mode)
    worst = 0.0
    for name, value in residuals:
        print(f"{name}: {value:.3e}")
        worst = max(worst, value)
    if worst <= args.tol:
        print(f"PASS (worst {worst:.3e} <= tol {args.tol:.1e})")
        return 0
    print(f"FAIL (worst {worst:.3e} > tol {args.tol:.1e})")
    return 1


def _cmd_transform(args) -> int:
    spec, _ = parse_spec(_read_text(args.spec))
    if args.p is not None:
        spec = spec.with_p(parse_rational(args.p, "--p"))
    p = rational_float(spec.p, "p")
    if args.forward:
        u, v = _parse_windows(args.w)
        grid = Grid2D(args.L, args.N)
        gf = wig_forward(u, v, p, grid)
        write_grid(gf, args.out, fmt=args.format, extra={"p": str(spec.p)})
    else:
        if args.infile is None:
            return _fail("--inverse needs --in <grid file>")
        manifest = read_manifest(args.infile)
        grid_p = manifest.get("p")
        if grid_p is not None and parse_rational(grid_p, "p") != spec.p:
            return _fail(f"{args.infile} was transformed with p = {grid_p}, "
                         f"but the inverse asks for p = {spec.p}")
        gf = read_grid(args.infile, manifest)
        pair = wig_inverse(gf, p)
        del gf      # the writer then holds one plane, not two
        write_grid(pair, args.out, fmt=args.format, extra={"p": str(spec.p)})
    print(f"wrote {args.out} (and manifest)")
    return 0


def _cmd_generate(args) -> int:
    if (args.positive_symbol is None) == (args.quasi_homogeneous is None):
        return _fail("choose exactly one of --positive-symbol or --quasi-homogeneous")
    if args.positive_symbol is not None:
        if args.p is None:
            return _fail("--positive-symbol needs --p")
        target = MultiPoly.from_json(load_json(_read_text(args.positive_symbol)))
        result = generate_from_positive_symbol(target, parse_rational(args.p, "--p"))
    else:
        parts = args.quasi_homogeneous.split(",")
        if len(parts) != 4:
            return _fail("--quasi-homogeneous needs rho,tau,h,k")
        rho, tau = (parse_rational(text, name) for text, name in zip(parts, ("rho", "tau")))
        h, k = (_parse_int_arg(text, name, least=1) for text, name in zip(parts[2:], "hk"))
        result = generate_quasi_homogeneous(rho, tau, h, k)
    text = json_text(result._document(_as_is))
    if args.out is not None:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return result.report.exit_code


def _verify_bare_certificate(doc: dict) -> list[tuple[str, VerifyResult]]:
    try:
        cert = Certificate.from_json(doc)
    except (KeyError, TypeError, ValueError) as exc:
        return [("malformed certificate", VerifyResult(False, str(exc)))]
    return [(cert.kind, verify_certificate(cert))]


def _cmd_verify_certificate(args) -> int:
    """A bare certificate is verified on its own, a report against the spec
    it names (verify_report)."""
    doc = load_json(_read_text(args.cert))
    if isinstance(doc, dict) and "kind" in doc:
        results = _verify_bare_certificate(doc)
    elif isinstance(doc, dict) and "verdict" in doc:
        results = verify_report(doc)
        if not doc["verdict"]["chain"]:
            print("no certificates to verify (empty chain)")
    else:
        return _fail("expected a certificate object or a report with a verdict chain")
    for label, result in results:
        print(f"{label}: ok" if result.ok else f"{label}: FAIL ({result.reason})")
    return 0 if all(result.ok for _, result in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wigreg",
                     description="certify regularity of planar operators by "
                                 "reduction to a one-variable model")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    c = sub.add_parser("certify", help="run the certificate chain on a spec")
    c.add_argument("spec")
    c.add_argument("--report", help="write the JSON report here")
    c.add_argument("--summary", help="write the text summary here")
    c.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
    c.set_defaults(func=_cmd_certify)

    s = sub.add_parser("symbol", help="print derived symbols")
    s.add_argument("spec")
    s.add_argument("--emit", default="a",
                   help="comma-separated: a, b, atilde, wick, conjugated")
    s.add_argument("--json", action="store_true", help="emit JSON instead of text")
    s.set_defaults(func=_cmd_symbol)

    vi = sub.add_parser("verify-intertwine",
                        help="check the intertwining identity numerically")
    vi.add_argument("spec")
    vi.add_argument("--p", help="override the spec's rational p")
    vi.add_argument("--w", default="hermite:0,0", help="window pair, hermite:m,n")
    vi.add_argument("--L", type=float, default=12.0, help="grid half-width")
    vi.add_argument("--N", type=int, default=256, help="grid size (power of two)")
    vi.add_argument("--mode", choices=("full", "generators"), default="full")
    vi.add_argument("--tol", type=float, default=1e-6)
    vi.set_defaults(func=_cmd_verify_intertwine)

    t = sub.add_parser("transform", help="compute a transform grid or invert one")
    t.add_argument("spec")
    direction = t.add_mutually_exclusive_group(required=True)
    direction.add_argument("--forward", action="store_true")
    direction.add_argument("--inverse", action="store_true")
    t.add_argument("--p", help="override the spec's rational p")
    t.add_argument("--w", default="hermite:0,0", help="window pair, hermite:m,n")
    t.add_argument("--L", type=float, default=12.0)
    t.add_argument("--N", type=int, default=256)
    t.add_argument("--in", dest="infile", help="input grid file (inverse only)")
    t.add_argument("--out", required=True, help="output grid file")
    t.add_argument("--format", choices=("csv", "raw"), default="csv")
    t.set_defaults(func=_cmd_transform)

    g = sub.add_parser("generate", help="construct certified-regular operators")
    g.add_argument("--positive-symbol", help="JSON file with the target polynomial")
    g.add_argument("--p", help="rational p for --positive-symbol")
    g.add_argument("--quasi-homogeneous", help="rho,tau,h,k")
    g.add_argument("--out", help="write the result JSON here")
    g.set_defaults(func=_cmd_generate)

    vc = sub.add_parser("verify-certificate",
                        help="re-check a certificate file or a report's chain")
    vc.add_argument("cert")
    vc.set_defaults(func=_cmd_verify_certificate)

    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command.  The parser is built on the first call and reused:
    parse_args keeps no state between calls.  The OSError or ValueError of
    any reader of outside data exits 1 here, with one ``error:`` line."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
