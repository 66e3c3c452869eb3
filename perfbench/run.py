#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {sweep,report,serve} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Set-up runs several times and reports its median, one untimed warm-up
repetition follows, then the workload repeats its measured unit of work
for about ``--seconds``.  Correctness checks run after the timed phase and
any mismatch exits non-zero without a result line.

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs set-up once and one repetition with span wrappers on
each layer's public calls, prints the layer-share table and every
per-layer metric, and writes the spans to ``perfbench/.out/``.  The last
line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "report", "serve")
#: Traced runs must attribute at least this share of their wall time.
MIN_LEAF_COVERAGE = 0.9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size (tiny: the self-test's)")
    parser.add_argument("--corrupt", default=None, metavar="CHECK",
                        help="self-test only: give the named correctness "
                        "check a deliberately wrong reference")
    return parser.parse_args(argv)


def timed_reps(wl, seconds, first_index, rep):
    """Repeat ``rep`` for about ``seconds``; (results, wall per call)."""
    results, walls = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        began = time.perf_counter()
        results.append(rep(first_index + len(results)))
        walls.append(time.perf_counter() - began)
    return results, walls


def run_untraced(wl, args, _bench, provenance):
    from common import require, tail_latency

    setups, state = [], None
    for index in range(wl.setup_repeats):
        if state is not None:
            wl.discard(state)
        began = time.perf_counter()
        state = wl.setup(index)
        setups.append(time.perf_counter() - began)
    try:
        # Warm-up: lazy imports and caches fill here.  It is checked
        # with the rest but not timed.
        warm = wl.rep(state, 0)
        measured, walls = timed_reps(wl, args.seconds, 1, lambda i: wl.rep(state, i))
        rss = wl.peak_rss_mb(state)
        wl.check(state, [warm] + measured)
    finally:
        wl.close(state)

    ops = [sample for rep in measured for sample in rep.ops_ms]
    require(len(ops) >= wl.size.get("min_ops", 1),
            f"only {len(ops)} latency samples; the workload needs "
            f"{wl.size.get('min_ops')} for its tail percentile")
    tail_label, tail = tail_latency(ops)
    values = {
        "setup_s": statistics.median(setups),
        "op_mean_ms": statistics.fmean(ops),
        "op_tail_ms": tail,
        "throughput_per_s": sum(rep.items for rep in measured)
        / sum(rep.wall_s for rep in measured),
        "peak_rss_mb": rss,
    }
    info = provenance["workloads"][wl.name]
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "op_mean_ms": f"mean {info['op']}, n={len(ops)}",
        "op_tail_ms": f"{tail_label} {info['op']}, n={len(ops)}",
        "throughput_per_s": f"{info['item']} per second, "
        f"{sum(rep.items for rep in measured)} over {len(measured)} runs",
        "peak_rss_mb": info["rss"],
    }
    print(f"== {wl.name} seed {args.seed}: {len(measured)} timed runs "
          f"(+1 warm-up), {args.size} size {wl.size}")
    for name, text in notes.items():
        print(f"{name:18s} {values[name]:14.4f}  ({text})")
    shown = dict(values, op_p50_ms=statistics.median(ops))
    print(f"{'op_p50_ms':18s} {shown['op_p50_ms']:14.4f}  "
          f"(median {info['op']}, n={len(ops)}; not a bounded metric)")
    for alias, (metric, scale) in info["aliases"].items():
        print(f"{alias:18s} {shown[metric] * scale:14.4f}  (= {metric})")
    for name, samples in sorted(measured[0].extra_ms.items()):
        pooled = [s for rep in measured for s in rep.extra_ms[name]]
        print(f"{name + '_p50_ms':18s} {statistics.median(pooled):14.4f}  "
              f"(n={len(pooled)})")
    print(f"{'run walls s':18s} " + " ".join(f"{wall:.3f}" for wall in walls)
          + f"  (set-ups: " + " ".join(f"{s:.3f}" for s in setups) + ")")
    reps = [warm] + measured
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    print(f"{'fail_frac':18s} {failed / attempted:14.4f}  "
          f"({failed} failed or refused of {attempted} attempted)")
    return values, attempted, failed


def run_traced(wl, args, bench, provenance):
    from common import layer_metrics, no_span, require, share_table
    from tracing import Tracer

    tracer = Tracer()
    wl.span = tracer.span
    with tracer.patched(wl.patches()), tracer.span("setup"):
        state = wl.setup(0)
    wl.span = no_span
    try:
        base = wl.rep(state, 0)
        _, walls = timed_reps(wl, args.seconds, 1, lambda i: wl.trace_rep(state, i))
        wl.span = tracer.span
        with tracer.patched(wl.patches()), tracer.span("rep") as root:
            traced = wl.trace_rep(state, len(walls) + 1)
        wl.span = no_span
        wl.check(state, [base])
    finally:
        wl.close(state)

    extras = wl.layer_extras(state, base, traced, tracer)
    extras["trace.overhead_s"] = tracer.duration_s(root) - statistics.median(walls)
    names = [metric["name"] for metric in bench["per_layer"]]
    values = layer_metrics(tracer, extras, names)
    moves = {name: row["moves"] for name, row in provenance["per_layer"].items()}
    print(f"== {wl.name} seed {args.seed}: layer shares of the traced run")
    print(share_table(tracer, moves))
    print(f"leaf coverage {values['trace.leaf_coverage']:.1%}; tracing overhead "
          f"{values['trace.overhead_s']:+.4f} s against the median of "
          f"{len(walls)} untraced runs ({statistics.median(walls):.4f} s)")
    for name in names:
        if values[name]:
            print(f"{name:34s} {values[name]:14.6f}")
    out = HERE / ".out"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"spans-{wl.name}-seed{args.seed}.json")
    require(values["trace.leaf_coverage"] >= MIN_LEAF_COVERAGE,
            f"spans cover only {values['trace.leaf_coverage']:.1%} of the "
            "traced wall time")
    return values, base.attempted, base.failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from common import CheckFailed, load_provenance

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    provenance = load_provenance()
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    # Everything the program writes through tempfile lands in the work
    # dir too, so a run never writes outside the checkout.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    # Measure the program's default configuration: no runtime invariant
    # checking and no injected faults (the server inherits this too).
    for name in ("REPRO_CHECK_INVARIANTS", "REPRO_FAULT_PLAN", "REPRO_QUARANTINE_DIR"):
        os.environ.pop(name, None)
    # SIGTERM unwinds like an exception, so the server is stopped and the
    # work dir removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    module = importlib.import_module(f"wl_{args.workload}")
    wl = module.WORKLOAD(seed=args.seed, size=module.SIZES[args.size],
                         work=work, src=SRC, corrupt=args.corrupt)
    runner = run_traced if args.trace else run_untraced
    try:
        values, attempted, failed = runner(wl, args, bench, provenance)
    except CheckFailed as exc:
        print(f"CHECK FAILED ({args.workload}): {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    section = bench["per_layer" if args.trace else "end_to_end"]
    missing = [metric["name"] for metric in section if metric["name"] not in values]
    if missing:
        print(f"run.py: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in section
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
