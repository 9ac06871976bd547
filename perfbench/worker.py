"""One workload run, in its own process: set up, time passes, check, report.

Started by ``run.py``, which pins the thread variables and points
``PYTHONPATH`` at the checkout's sources.  The load is a closed loop with one
client: every command goes through ``wigreg.cli.main(argv)`` in this process
and starts when the previous one returns.  Checks run after each pass,
outside the timed region.

With ``--trace 1`` untraced and traced passes alternate; the untraced ones
give the tracing overhead, the traced ones the per-layer numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import corpus
from tracing import Tracer

SETUP_REPEATS = 5
IMPORT_REPEATS = 10
IMPORT_GAP_S = 1.5        # least time between two import probes made during the passes
# Standard-library modules, some with large shared libraries, whose import in
# a fresh interpreter is timed next to each import of wigreg.cli, and the
# reference speed of the scaled set-up time: the one at which they import in
# this long.  It is about their fastest import on a 2-core Xeon VM.
REFERENCE_MODULES = ("decimal, fractions, asyncio, json, csv, ssl, sqlite3, "
                     "email.mime.multipart, http.client, xml.dom.minidom, unittest, argparse")
REFERENCE_IMPORT_S = 0.055
MIN_PASSES = 3            # untraced passes: every command is timed at least three times
# The reference speed of the scaled timings: the one at which calibrate() takes
# this long.  It is about the median on a 2-core Xeon VM, so scaled times read
# close to wall time there.
CALIBRATION_REF_S = 0.008
# Least time between two calibration samples.  A sample slows the command
# after it a little, as that command's code and data are fetched back into
# the caches, so it comes before a command only when this much time has
# passed since the previous one.
CALIBRATION_GAP_S = 0.25
HARD_LIMIT_S = 150.0      # stop starting passes after this, whatever --seconds says
TIMED_KINDS = ("certify", "verify", "generate", "transform", "intertwine")

EXACT_CERTIFIERS = {
    "certify.hypo_certify_quadratic", "certify.hypo_certify_newton",
    "certify.hypo_certify_first_order", "certify.injectivity_quadratic",
    "certify.injectivity_sos", "certify.first_order_certify",
    "certify.recognize_newton_family", "certify.recognize_first_order",
    "certify.extract_quadratic_coeffs",
}
# reference cases read from the traced run, as ROADMAP.md lists them:
# (metric name, op label, span name)
BASELINE_CASES = (
    ("certify_dense10_s", "dense10", "pipeline.certify"),
    ("wig_inverse_N512_p1o3_s", "N512_p1o3_inverse", "wigner.wig_inverse"),
    ("wig_inverse_N512_p1o2_s", "N512_p1o2_inverse", "wigner.wig_inverse"),
)


def percentile(values: list, q: float):
    """Nearest-rank percentile, or None when fewer than ten samples lie beyond it."""
    n = len(values)
    if n == 0 or n * (1.0 - q) < 10:
        return None
    return sorted(values)[max(0, math.ceil(q * n) - 1)]


def unit_of(name: str) -> str:
    if name.endswith(".n"):
        return "count"
    if "_ms" in name:
        return "ms"
    if name.endswith((".s", "_s")) or name.startswith("pass_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("wigner.bytes"):
        return "bytes"
    if name.endswith(("share", "overhead", "tol_ratio.max")):
        return "ratio"
    return "count"


_CALIBRATION_MATRIX = np.linspace(-1.0, 1.0, 128 * 128).reshape(128, 128) + 0.5j


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and numpy work that does not
    touch wigreg.  The machine's speed drifts by a third within minutes, as
    other tenants come and go; the median of these samples over a run gives
    the speed the run's commands saw."""
    start = perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    for _ in range(2):
        np.fft.fft2(_CALIBRATION_MATRIX)
        _CALIBRATION_MATRIX @ _CALIBRATION_MATRIX
    return perf_counter() - start


def import_seconds(modules: str) -> float:
    """Time to import ``modules`` in a fresh interpreter."""
    probe = (f"import time; t = time.perf_counter(); import {modules}; "
             "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout.strip())


def import_pairs(repeats: int) -> list:
    """(wigreg.cli, reference modules) import times, each pair back to back."""
    return [(import_seconds("wigreg.cli"), import_seconds(REFERENCE_MODULES))
            for _ in range(repeats)]


def run_op(cli, step) -> tuple:
    """Run one command; returns (exit code or None on an exception, stdout, seconds)."""
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(step.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        rc = None
        out.write(f"exception: {exc!r}")
    return rc, out.getvalue(), perf_counter() - start


def run_pass(cli, steps, tracer, op_labels, calibration) -> dict:
    """One pass over the corpus.  An untraced pass samples calibrate() before
    a command, outside the command's timing, when CALIBRATION_GAP_S has passed
    since the last sample; it appends (end time, seconds) to ``calibration``."""
    results, times = [], []
    gc.collect()
    start = perf_counter()
    for step in steps:
        if tracer is None:
            if not calibration or perf_counter() - calibration[-1][0] >= CALIBRATION_GAP_S:
                seconds = calibrate()
                calibration.append((perf_counter(), seconds))
        else:
            tracer.op_id = len(op_labels)
        op_labels.append(step.label)
        rc, out, seconds = run_op(cli, step)
        results.append((rc, out))
        times.append(seconds)
    elapsed = perf_counter() - start
    outcomes = []
    for step, (rc, out) in zip(steps, results):
        if rc is None:
            outcomes.append(corpus.Outcome(False, out))
            continue
        try:
            outcomes.append(step.check(rc, out))
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            outcomes.append(corpus.Outcome(False, f"check raised {exc!r}"))
    return {"seconds": sum(times), "elapsed": elapsed, "times": times,
            "outcomes": outcomes, "results": results}


def layer_metrics(tracer: Tracer, first_span: int, counts: Counter, op_labels: list) -> dict:
    """Per-layer totals of one traced pass: spans from ``first_span`` on."""
    spans = tracer.spans
    own = tracer.self_times(first_span)
    total, self_s, calls = defaultdict(float), defaultdict(float), Counter()
    exact_certifiers = 0.0
    baseline = {}
    for (name, start, end, parent, op_id), own_s in zip(spans[first_span:], own):
        total[name] += end - start
        self_s[name] += own_s
        calls[name] += 1
        if name in EXACT_CERTIFIERS and parent >= 0 and spans[parent][0] == "pipeline.certify":
            exact_certifiers += end - start
        for key, label, span_name in BASELINE_CASES:
            if name == span_name and op_labels[op_id] == label:
                baseline[key] = end - start
    metrics = {}
    for name in total:
        metrics[f"{name}.s"] = total[name]
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.calls"] = calls[name]
    for name, value in counts.items():
        counted_calls = name.startswith("exact.") or name.endswith(".fft")
        metrics[f"{name}.calls" if counted_calls else name] = value
    attempts = counts["certify.attempts"]
    metrics.update({
        "cli.self_s": self_s["cli.main"],
        "pipeline.generate.s": (total["pipeline.generate_from_positive_symbol"]
                                + total["pipeline.generate_quasi_homogeneous"]),
        "certify.exact_certifiers.s": exact_certifiers,
        "certify.attempts": attempts,
        "certify.useful_attempt_share": counts["certify.useful_attempts"] / attempts if attempts else 0.0,
    })
    metrics.update({f"baseline.{k}": v for k, v in baseline.items()})
    return metrics


def metadata(root: str, seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit, "seed": seed}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOAD_INPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    args = parser.parse_args()

    import wigreg.cli as cli

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"wigreg was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    with open(os.path.join(args.root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = os.path.join(args.root, "perfbench", "_out")
    work_root = os.path.join(args.root, "perfbench", "_work")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        return measure(args, cli, wanted, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, cli, wanted, work, out_dir) -> int:
    meta = metadata(args.root, args.seed)
    print("# " + json.dumps(meta, sort_keys=True))

    # Set-up: wigreg.cli and the reference modules are imported in fresh
    # interpreters, after one untimed pair of imports that leaves the bytecode
    # caches warm, and the inputs are generated and written, each several
    # times; the fastest of each is kept.  A shared machine only adds time, but
    # for minutes at a stretch it can slow every import, so the imports are
    # spread over the run (one pair between passes at most every IMPORT_GAP_S,
    # the rest after the passes) and scaled by the reference imports.
    import_samples = import_pairs(2)[1:]
    last_probe = perf_counter()
    input_times = []
    for i in range(SETUP_REPEATS):
        inputs = os.path.join(work, f"inputs{i}")
        os.mkdir(inputs)
        start = perf_counter()
        steps = corpus.build(args.workload, args.seed, inputs)
        input_times.append(perf_counter() - start)

    primary = corpus.PRIMARY[args.workload]
    tracer = Tracer() if args.trace else None
    op_labels: list = []
    calibration: list = []
    passes = []
    begin = perf_counter()
    deadline = begin + args.seconds
    while True:
        # with --trace 1 the passes alternate: untraced, traced, untraced, ...
        traced = bool(args.trace) and 2 * sum(p["traced"] for p in passes) < len(passes)
        if traced:
            first_span, counts_before = len(tracer.spans), Counter(tracer.counts)
            tracer.install()
            try:
                result = run_pass(cli, steps, tracer, op_labels, calibration)
            finally:
                tracer.uninstall()
            result["layers"] = layer_metrics(tracer, first_span, tracer.counts - counts_before,
                                             op_labels)
        else:
            result = run_pass(cli, steps, None, op_labels, calibration)
        result["traced"] = traced
        passes.append(result)
        if len(import_samples) < IMPORT_REPEATS and perf_counter() - last_probe > IMPORT_GAP_S:
            import_samples += import_pairs(1)
            last_probe = perf_counter()
        if len(passes) == 1:
            # the peak of set-up plus one whole pass, whatever the pass count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        n_traced = sum(p["traced"] for p in passes)
        enough = len(passes) - n_traced >= MIN_PASSES and (n_traced or not args.trace)
        next_traced = bool(args.trace) and 2 * n_traced < len(passes)
        similar = [p["elapsed"] for p in passes if p["traced"] == next_traced]
        now = perf_counter()
        if enough and (now + statistics.median(similar or [0.0]) > deadline
                       or now - begin > HARD_LIMIT_S):
            break

    import_samples += import_pairs(IMPORT_REPEATS - len(import_samples))
    import_s = min(wigreg for wigreg, _ in import_samples)
    reference_s = min(reference for _, reference in import_samples)
    setup_s = REFERENCE_IMPORT_S * import_s / reference_s + min(input_times)

    times = defaultdict(list)
    for p in passes:
        if not p["traced"]:
            for step, seconds in zip(steps, p["times"]):
                times[step.kind].append(seconds * 1e3)
    outcomes = [o for p in passes for o in p["outcomes"]]
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    ratios = [o.tol_ratio for o in outcomes if o.tol_ratio is not None]
    caught = corpus.corrupted_output_is_caught(args.workload, steps, passes[-1]["results"])
    untraced = [p for p in passes if not p["traced"]]
    # Each command's median time over the run's passes, scaled to the
    # reference speed by the run's median calibration sample.  On a shared
    # machine a command's time follows the machine's speed over the run, and
    # the calibration follows it too, so their ratio is steadier than either.
    calibration_s = statistics.median(seconds for _, seconds in calibration)
    scale = CALIBRATION_REF_S / calibration_s
    typical = [statistics.median(p["times"][i] for p in untraced) for i in range(len(steps))]

    report = {
        "pass_s": scale * sum(typical),
        "pass_s.raw": sum(typical),
        "pass_s.median": statistics.median(p["seconds"] for p in untraced),
        "calibration_ms": 1e3 * calibration_s,
        "op_ms": 1e3 * scale * statistics.fmean(t for step, t in zip(steps, typical)
                                                if step.kind == primary),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        "setup.import_s": import_s,
        "setup.reference_import_s": reference_s,
        "setup.inputs_s": min(input_times),
        "failed_share": failed / attempted,
        "passes": len(untraced),
    }
    if ratios:
        report["tol_ratio.max"] = max(ratios)
    for kind in TIMED_KINDS:
        if times[kind]:
            report[f"{kind}_ms.n"] = len(times[kind])
            for q, tag in ((0.5, "p50"), (0.9, "p90")):
                value = percentile(times[kind], q)
                if value is not None:
                    report[f"{kind}_ms.{tag}"] = value

    if args.trace:
        traced = [p["layers"] for p in passes if p["traced"]]
        for key in sorted({k for layers in traced for k in layers}):
            values = [layers.get(key, 0) for layers in traced]
            counted = all(isinstance(v, int) for v in values)
            report[key] = statistics.median_low(values) if counted else statistics.median(values)
        report["trace.overhead"] = (statistics.median(p["seconds"] for p in passes if p["traced"])
                                    / report["pass_s.median"] - 1.0)
        tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))

    for o in outcomes:
        if not o.ok:
            print(f"# FAILED: {o.detail}")
    if not caught:
        print("# negative check: a corrupted output passed its check")
    for key, value in sorted(report.items()):
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"# {key} = {shown} {unit_of(key)}")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "workload": args.workload, "attempted": attempted,
                   "failed": failed, "negative_check_caught": caught, "metrics": report},
                  fh, indent=1, sort_keys=True)

    metrics = {}
    for entry in wanted:
        value = report.get(entry["name"])
        if value is None and not args.trace:
            print(f"error: no value for {entry['name']}", file=sys.stderr)
            return 1
        metrics[entry["name"]] = {"value": value or 0, "unit": entry["unit"]}
    print(json.dumps({"correct": failed == 0 and caught, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
