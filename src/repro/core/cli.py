"""Command-line interface: ``repro-mss`` / ``python -m repro``.

Subcommands::

    generate   synthesize a trace file and/or a columnar store
    analyze    print Table 3 for a trace file, store dir, or cached workload
    replay     push a trace file through the MSS simulator
    policies   compare migration policies on a synthetic workload
    sweep      run the Section 6 ablation grid in parallel
    report     run the full experiment suite and print every comparison
    bench      cold-generation benchmark + per-stage profile table
    trace      columnar trace-store utilities (info / import / verify)
    scenario   declarative workloads (list / show / run / compare)
    runs       experiment registry (list / show / compare / promote /
               trajectory)
    serve      crash-recoverable HTTP replay service
    session    client for a running service (submit / feed / metrics / ...)
    verify     cross-engine differential checker + violation-bundle replay
    chaos      seeded fault-schedule soak harness (run / replay / report)

Commands that replay events accept ``--check-invariants`` (or the
``REPRO_CHECK_INVARIANTS=1`` environment variable) to enable runtime
conservation-law checking; a violation dumps a replayable quarantine
bundle (see ``repro verify replay``).

A ``--cache-dir`` (or ``--store``) points at the content-addressed
columnar trace store (:mod:`repro.engine.store`): generate once, analyze
many times off memory-mapped shards.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.util.units import DAY


def _add_invariant_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--check-invariants", action="store_true",
        help="enable runtime conservation-law checking "
        "(same as REPRO_CHECK_INVARIANTS=1; forked workers inherit it)",
    )


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.01,
                        help="fraction of the full NCAR population (default 0.01)")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--days", type=float, default=None,
                        help="trace duration in days (default: the full 731)")


def _workload_config(args: argparse.Namespace):
    from repro.workload.config import WorkloadConfig

    kwargs = {"scale": args.scale, "seed": args.seed}
    if args.days is not None:
        kwargs["duration_seconds"] = args.days * DAY
    return WorkloadConfig(**kwargs)


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.workload.generator import generate_trace

    if args.output is None and args.store is None:
        print("generate: need an output trace file and/or --store DIR",
              file=sys.stderr)
        return 2
    config = _workload_config(args)
    if args.output is not None:
        trace = generate_trace(config)
        count = trace.write(args.output)
        print(f"wrote {count} records to {args.output}")
    if args.store is not None:
        from repro.engine.store import cache_trace, open_or_generate

        if args.output is None:
            # Pure store capture: a cache hit skips generation entirely.
            store = open_or_generate(config, args.store)
        else:
            store = cache_trace(trace, args.store)
        print(
            f"stored {store.n_events} events in {store.n_shards} shards "
            f"at {store.path}"
        )
    return 0


def _is_store_dir(path: str) -> bool:
    import os

    return os.path.isdir(path) and os.path.isfile(os.path.join(path, "manifest.json"))


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import overall_statistics_from_batches

    if args.trace is None:
        if args.cache_dir is None:
            print("analyze: need a trace file, a store dir, or --cache-dir",
                  file=sys.stderr)
            return 2
        # No trace artifact named: analyze the cached (or freshly
        # generated-and-cached) store for the requested workload config.
        from repro.engine.store import open_or_generate

        store = open_or_generate(_workload_config(args), args.cache_dir)
        analysis = overall_statistics_from_batches(store.iter_batches())
    elif _is_store_dir(args.trace):
        from repro.engine.store import TraceStore

        analysis = overall_statistics_from_batches(
            TraceStore.open(args.trace).iter_batches()
        )
    else:
        from repro.analysis import overall_statistics
        from repro.trace.reader import TraceReader

        with TraceReader(args.trace) as reader:
            analysis = overall_statistics(reader)
    print(analysis.render())
    print()
    print(analysis.comparison().render())
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.mss.system import MSSConfig, replay_trace
    from repro.trace.reader import read_trace

    records = read_trace(args.trace)
    _, metrics = replay_trace(records, MSSConfig(seed=args.seed))
    for name, row in metrics.summary().items():
        print(
            f"{name:12s} n={int(row['count']):8d} startup={row['startup_mean']:8.1f}s "
            f"(queue {row['device_queue_mean']:6.1f}s, mount {row['mount_mean']:6.1f}s, "
            f"seek {row['seek_mean']:5.1f}s)"
        )
    return 0


def _cmd_policies(args: argparse.Namespace) -> int:
    from repro.engine import prepare_stream, replay_policy
    from repro.workload.generator import generate_trace

    trace = generate_trace(_workload_config(args))
    batches = prepare_stream(trace)
    n_events = sum(len(batch) for batch in batches)
    capacity = int(trace.namespace.total_bytes * args.capacity_fraction)
    print(
        f"{n_events} deduped references, cache = "
        f"{args.capacity_fraction:.1%} of {trace.namespace.total_bytes / 1e9:.1f} GB"
    )
    for name in args.policy:
        metrics = replay_policy(batches, name, capacity, namespace=trace.namespace)
        print(
            f"{name:15s} miss={metrics.read_miss_ratio:.4f} "
            f"capacity-miss={metrics.capacity_miss_ratio:.4f} "
            f"person-min/day={metrics.person_minutes_per_day():.2f}"
        )
    return 0


def _parse_capacities(value: str):
    """``--capacities``: an int point count or comma-separated fractions.

    Used as an argparse ``type``, so a ValueError here becomes a clean
    usage error rather than a traceback.
    """
    from repro.engine import log_spaced_fractions

    parts = [part for part in value.split(",") if part]
    if not parts:
        raise ValueError("need a point count or capacity fractions")
    if len(parts) == 1:
        try:
            count = int(parts[0])
        except ValueError:
            pass  # not an int point count: fall through to fractions
        else:
            return log_spaced_fractions(count)
    return tuple(float(part) for part in parts)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.engine import SweepConfig, run_sweep

    if args.resume and args.run_dir is None:
        print("sweep: --resume requires --run-dir", file=sys.stderr)
        return 2
    config = SweepConfig(
        policies=tuple(part for part in args.policies.split(",") if part),
        capacity_fractions=args.capacities,
        seeds=tuple(range(args.seed, args.seed + args.seeds)),
        scale=args.scale,
        duration_days=args.days,
        workers=args.workers,
        cache_dir=args.cache_dir,
        scenarios=tuple(
            part for part in (args.scenarios or "").split(",") if part
        ),
        engine=args.engine,
        max_retries=args.max_retries,
        task_timeout=args.task_timeout,
        run_dir=args.run_dir,
        resume=args.resume,
    )
    result = run_sweep(config)
    print(result.render())
    print(f"wall-clock: {result.elapsed_seconds:.1f}s")
    if result.run_path is not None:
        print(f"run dir: {result.run_path}")
    # A degraded grid (cells failed after retries) still prints, but the
    # exit code tells scripts the table is incomplete.
    return 1 if result.failed_cells else 0


def _registry_command(command):
    """Wrap a registry verb: RegistryError becomes a clean exit 2."""
    import functools

    @functools.wraps(command)
    def wrapped(args: argparse.Namespace) -> int:
        from repro.registry import RegistryError

        try:
            return command(args)
        except RegistryError as exc:
            print(f"runs {args.runs_command}: {exc}", file=sys.stderr)
            return 2

    return wrapped


def _scan_runs(runs_dir: str) -> list:
    """Every run entry under a runs root, warning once per damaged dir."""
    from repro.registry import scan_runs_root

    entries = scan_runs_root(runs_dir)
    for entry in entries:
        if entry["corrupt"]:
            print(
                f"warning: skipping corrupt run dir {entry['name']} "
                f"(damaged: {', '.join(entry['corrupt'])})",
                file=sys.stderr,
            )
    return entries


def _resolve_record(entries: list, ref: str):
    """The intact run record ``ref`` names (a RegistryError otherwise)."""
    from repro.registry import RegistryError, resolve_run

    entry = resolve_run(entries, ref)
    if entry["record"] is None:
        raise RegistryError(f"run dir {entry['name']} is damaged")
    return entry["record"]


@_registry_command
def _cmd_runs_list(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.render import TextTable
    from repro.registry import load_baselines

    baselines: dict = {}
    for name, baseline in sorted(load_baselines(args.runs_dir).items()):
        baselines.setdefault(baseline.get("run_hash"), []).append(name)
    entries = [
        entry for entry in _scan_runs(args.runs_dir)
        if entry["record"] is not None
        and args.kind in (None, entry["record"].kind)
        and args.status in (None, entry["status"])
    ]
    if args.json:
        runs = []
        for entry in entries:
            record = entry["record"]
            runs.append({
                "run_hash": entry["run_hash"],
                "kind": record.kind,
                "config_hash": record.config_hash,
                "schema_version": record.schema_version,
                "status": record.status,
                "created_at": record.created_at,
                "wall_seconds": record.wall_seconds,
                "path": entry["path"],
                "n_cells": len(record.cells()),
            })
        print(json.dumps(runs, indent=1, sort_keys=True))
        return 0
    if not entries:
        print(f"no matching runs under {args.runs_dir}")
        return 0
    table = TextTable(
        ["run", "kind", "status", "tasks", "rows", "failed", "retries",
         "baseline"],
        title=f"Runs in {args.runs_dir} ({len(entries)})",
    )
    for entry in entries:
        record = entry["record"]
        metrics = record.metrics
        tasks = "-"
        if "n_tasks" in metrics:
            done = metrics.get("tasks_executed", 0) + metrics.get("tasks_resumed", 0)
            tasks = f"{done}/{metrics['n_tasks']}"
        table.add_row(
            entry["name"],
            record.kind,
            record.status,
            tasks,
            str(len(record.rows)),
            str(len(metrics.get("failed_cells") or []) or "-"),
            str(metrics.get("retries", "-")),
            ",".join(baselines.get(entry["run_hash"], ["-"])),
        )
    print(table.render())
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.render import TextTable
    from repro.registry import (
        RegistryError, cell_key, resolve_run, scan_runs_root,
    )

    try:
        run = resolve_run(scan_runs_root(args.runs_dir), args.run)
    except RegistryError as exc:
        print(f"runs show: {exc} under {args.runs_dir}", file=sys.stderr)
        return 1
    record = run["record"]
    if record is None:
        print(
            f"warning: run dir {run['name']} is damaged "
            f"({', '.join(run['corrupt'])}); showing what remains",
            file=sys.stderr,
        )
    print(f"run:     {run['name']}")
    print(f"path:    {run['path']}")
    if record is not None:
        print(f"kind:    {record.kind} (schema v{record.schema_version})")
        print(f"hash:    {run['run_hash']}")
        print(f"config:  {record.config_hash}")
    print(f"status:  {run['status']}")
    if record is None:
        return 0
    metrics = record.metrics
    if "tasks_executed" in metrics:
        print(
            f"tasks:   {metrics['tasks_executed']} executed + "
            f"{metrics.get('tasks_resumed', '?')} resumed + "
            f"{metrics.get('tasks_failed', '?')} failed "
            f"(of {metrics.get('n_tasks', '?')}), "
            f"{metrics.get('retries', '?')} retries"
        )
    if args.json:
        print(json.dumps(record.to_payload(), indent=1, sort_keys=True))
        return 0
    # A sweep's failed cells have no row; list them after the recorded ones.
    cells = record.rows + [
        {
            "cell": cell_key(cell["scenario"], cell["seed"], cell["policy"],
                             cell["capacity_fraction"]),
            "meta": {"status": "failed", "attempts": cell["attempts"]},
        }
        for cell in metrics.get("failed_cells") or []
    ]
    if cells:
        table = TextTable(
            ["cell", "status", "attempts", "metrics"],
            title=f"Recorded cells ({len(cells)})",
        )
        for row in cells[:40]:
            meta = row.get("meta") or {}
            table.add_row(
                str(row.get("cell", "?")),
                str(meta.get("status", "-")),
                str(meta.get("attempts", "-")),
                str(len(row.get("values") or {})),
            )
        print(table.render())
        if len(cells) > 40:
            print(f"  ... {len(cells) - 40} more cells")
    return 0


@_registry_command
def _cmd_runs_compare(args: argparse.Namespace) -> int:
    from repro.registry import Tolerance, baseline_record, compare_runs

    entries = _scan_runs(args.runs_dir)
    if args.right is not None:
        left = _resolve_record(entries, args.left)
        right = _resolve_record(entries, args.right)
    else:
        # One run named: gate it against the promoted baseline.
        left = baseline_record(args.runs_dir, entries, args.baseline)
        right = _resolve_record(entries, args.left)
    result = compare_runs(
        left, right, Tolerance(rel=args.rel_tol, abs=args.abs_tol)
    )
    print(result.render())
    return 0 if result.ok else 1


@_registry_command
def _cmd_runs_promote(args: argparse.Namespace) -> int:
    from repro.registry import promote

    record = _resolve_record(_scan_runs(args.runs_dir), args.run)
    promoted = promote(args.runs_dir, args.name, record)
    print(f"promoted {promoted['run_hash']} as baseline {args.name!r}")
    return 0


@_registry_command
def _cmd_runs_trajectory(args: argparse.Namespace) -> int:
    from repro.registry import render_trajectory

    print(render_trajectory(
        _scan_runs(args.runs_dir), args.benchmark, metric=args.metric
    ))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import time

    from repro.core.experiments import (
        experiment_ids,
        needs_dense_study,
        run_experiment,
    )
    from repro.core.study import Study, StudyConfig

    # The recorded wall time covers the whole command, with or without
    # --profile, so report runs stay comparable in the registry.
    started = time.perf_counter()
    cache_dir = getattr(args, "cache_dir", None)
    base = Study(
        StudyConfig(workload=_workload_config(args), cache_dir=cache_dir)
    )
    # The dense study streams from its DES replay (simulate_latencies),
    # which needs the in-memory trace -- a cache_dir would be dead config.
    dense = Study(StudyConfig.dense(scale=min(args.scale * 2, 0.05), seed=args.seed))
    profile = getattr(args, "profile", False)
    stages = {}
    if profile:
        # Force each pipeline stage eagerly so the analyze loop below
        # times only the (columnar) analysis passes.  The experiments
        # touch the namespace, so the base trace is generated either
        # way; forcing it here (plus the store, whose shards feed the
        # batch streams when cached) keeps the generation cost out of
        # the analyze timer.
        start = time.perf_counter()
        if cache_dir is not None:
            _ = base.trace_store()
        _ = base.trace
        _ = dense.trace
        stages["generate"] = time.perf_counter() - start
        start = time.perf_counter()
        _ = dense.mss_metrics
        stages["replay"] = time.perf_counter() - start
    start = time.perf_counter()
    results = []
    for exp_id in experiment_ids():
        study = dense if needs_dense_study(exp_id) else base
        result = run_experiment(exp_id, study)
        results.append(result)
        print(result.render())
        print()
    if profile:
        stages["analyze"] = time.perf_counter() - start
    if getattr(args, "run_dir", None) is not None:
        from repro.registry import record_report_run

        run_dir = record_report_run(
            args.run_dir,
            results,
            config={
                "scale": args.scale, "seed": args.seed, "days": args.days,
            },
            wall_seconds=time.perf_counter() - started,
            metrics={f"{name}_seconds": sec for name, sec in stages.items()},
        )
        print(f"recorded run: {run_dir}")
    if profile:
        total = sum(stages.values())
        print("profile (wall time):")
        for stage, seconds in stages.items():
            print(f"  {stage:9s} {seconds:8.2f} s")
            if stage == "generate":
                _print_generation_stages((base.trace, dense.trace))
        print(f"  {'total':9s} {total:8.2f} s")
    return 0


def _print_generation_stages(traces) -> None:
    """Indented per-stage generation breakdown for ``report --profile``."""
    from repro.workload.profiler import StageProfiler

    merged = StageProfiler()
    for trace in traces:
        for name, seconds in trace.stage_seconds.items():
            merged.add(name, seconds)
    if merged.stages:
        print(merged.render(indent="      "))


def _cmd_bench(args: argparse.Namespace) -> int:
    """Cold-generation benchmark + stage profile, outside pytest.

    Times the vectorized pipeline (best of ``--rounds``), prints the
    stage-profile table, and re-times the placement and session-packing
    stages through the seed's per-event reference implementations so the
    vectorization speedup is reproducible from the shell.  ``--suite``
    then runs the full pytest benchmark suite.
    """
    import time

    from repro.core.study import StudyConfig
    from repro.workload.generator import (
        generate_trace,
        time_generation_stage_paths,
    )
    from repro.workload.profiler import StageProfiler

    # The dense-study workload: the config the throughput gates pin.
    config = StudyConfig.dense(
        scale=args.scale, seed=args.seed, days=args.days
    ).workload

    best_seconds = float("inf")
    prof = StageProfiler()
    trace = None
    for _ in range(max(args.rounds, 1)):
        round_prof = StageProfiler()
        start = time.perf_counter()
        trace = generate_trace(config, profiler=round_prof)
        elapsed = time.perf_counter() - start
        if elapsed < best_seconds:
            best_seconds, prof = elapsed, round_prof
    rate = trace.n_events / best_seconds if best_seconds > 0 else float("inf")
    print(
        f"cold generation: {best_seconds:.3f} s best of {args.rounds} "
        f"({trace.n_events} events, {rate:,.0f} ev/s)"
    )
    print("stage profile:")
    print(prof.render(indent="  "))

    # Scalar-vs-vectorized stage comparison on this trace's good events,
    # through the same harness the throughput benchmark gates.
    timings = time_generation_stage_paths(trace, rounds=max(args.rounds, 1))
    for label in ("placement", "sessions"):
        scalar = timings[f"scalar_{label}_seconds"]
        vector = timings[f"vector_{label}_seconds"]
        speedup = scalar / vector if vector > 0 else float("inf")
        print(
            f"{label}: scalar {scalar:.3f} s -> vectorized {vector:.3f} s "
            f"({speedup:.1f}x)"
        )
    print(f"combined stage speedup: {timings['speedup']:.1f}x")

    if args.suite is not None:
        import pytest

        print(f"\nrunning benchmark suite: {args.suite}")
        return int(pytest.main(["-q", "-s", args.suite]))
    return 0


def _scenario_spec(args: argparse.Namespace, name: Optional[str] = None):
    """The spec one scenario command addresses: a file, or a library name."""
    from repro.scenarios.library import build_scenario
    from repro.scenarios.spec import ScenarioSpec

    if getattr(args, "spec", None):
        return ScenarioSpec.from_file(args.spec)
    return build_scenario(
        name if name is not None else args.name,
        scale=args.scale,
        seed=args.seed,
        days=args.days,
    )


def _cmd_scenario_list(args: argparse.Namespace) -> int:
    from repro.analysis.render import TextTable
    from repro.scenarios.library import describe_scenarios

    table = TextTable(
        ["name", "tenants", "description"], title="Built-in scenarios"
    )
    for row in describe_scenarios():
        table.add_row(
            row["name"], ", ".join(row["tenants"]), row["description"]
        )
    print(table.render())
    return 0


def _cmd_scenario_show(args: argparse.Namespace) -> int:
    import json

    try:
        spec = _scenario_spec(args)
    except (KeyError, ValueError, OSError) as exc:
        print(f"scenario show: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(spec.to_dict(), indent=1, sort_keys=True))
        return 0
    print(f"scenario:  {spec.name}")
    print(f"hash:      {spec.scenario_hash()}")
    print(f"seed:      {spec.seed}")
    if spec.description:
        print(f"about:     {spec.description}")
    print(f"tenants:   {', '.join(spec.tenants)}")
    for component in spec.ordered_components():
        config = spec.derived_config(component.name)
        window = (
            f"day {component.start_day:g}+"
            if component.start_day
            else "full span"
        )
        envelope = component.envelope
        active = (
            "always"
            if envelope.is_constant
            else f"{envelope.hour_start:g}-{envelope.hour_end:g}h daily "
            f"(floor {envelope.floor:g})"
        )
        print(
            f"  {component.name}: share {component.share:.0%}, "
            f"scale {config.scale:g}, seed {config.seed}, "
            f"{config.duration_seconds / DAY:.1f} days, {window}, {active}"
        )
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    from repro.analysis.tenants import tenant_breakdown_from_batches
    from repro.scenarios.compositor import ScenarioCompositor

    try:
        spec = _scenario_spec(args)
    except (KeyError, ValueError, OSError) as exc:
        print(f"scenario run: {exc}", file=sys.stderr)
        return 1
    compositor = ScenarioCompositor(spec, cache_dir=args.cache_dir)
    if args.cache_dir is not None:
        # Persist the composed stream too (scenario-hash addressed):
        # repeat runs then memmap one store instead of re-merging, and
        # `repro trace info` on it shows the tenant metadata.
        from repro.scenarios.cache import compose_cached

        store = compose_cached(spec, args.cache_dir)
        batches = store.iter_batches()
        source = f"store {store.path}"
    else:
        batches = compositor.iter_batches()
        source = "streamed composition"
    breakdown = tenant_breakdown_from_batches(batches, compositor.labels)
    print(f"scenario {spec.name}: {', '.join(compositor.labels)} ({source})")
    print()
    print(
        breakdown.render(
            title=f"Per-tenant overall statistics: {spec.name}"
        )
    )
    return 0


def _cmd_scenario_compare(args: argparse.Namespace) -> int:
    from repro.analysis.tenants import (
        render_scenario_comparison,
        tenant_breakdown_from_batches,
    )
    from repro.scenarios.compositor import ScenarioCompositor

    breakdowns = {}
    for name in args.names:
        try:
            spec = _scenario_spec(args, name=name)
        except (KeyError, ValueError) as exc:
            print(f"scenario compare: {exc}", file=sys.stderr)
            return 1
        compositor = ScenarioCompositor(spec, cache_dir=args.cache_dir)
        breakdowns[name] = tenant_breakdown_from_batches(
            compositor.iter_batches(), compositor.labels
        )
    print(render_scenario_comparison(breakdowns))
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    from repro.engine.store import StoreError, TraceStore

    try:
        store = TraceStore.open(args.store)
    except StoreError as exc:
        print(f"trace info: {exc}", file=sys.stderr)
        return 1
    print(store.describe())
    return 0


def _cmd_trace_verify(args: argparse.Namespace) -> int:
    from repro.engine.store import StoreError, TraceStore

    try:
        store = TraceStore.open(args.store)
        store.verify()
    except StoreError as exc:
        print(f"trace verify: {exc}", file=sys.stderr)
        return 1
    print(
        f"ok: {store.n_shards} shards x {len(store.columns)} columns verified "
        f"({store.n_events} events)"
    )
    return 0


def _cmd_trace_import(args: argparse.Namespace) -> int:
    from repro.engine.store import StoreError
    from repro.trace.errors import TraceError
    from repro.trace.store import import_trace_file

    try:
        store = import_trace_file(args.trace, args.store, overwrite=args.overwrite)
    except (StoreError, TraceError, OSError) as exc:
        print(f"trace import: {exc}", file=sys.stderr)
        return 1
    print(
        f"imported {store.n_events} events ({store.n_shards} shards) "
        f"into {store.path}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig, serve_forever

    config = ServeConfig(
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        queue_depth=args.queue_depth,
        shed_backlog=args.shed_backlog,
        request_timeout=args.request_timeout,
        snapshot_every=args.snapshot_every,
        drain_timeout=args.drain_timeout,
    )
    print(f"repro serve: data dir {args.data_dir}", file=sys.stderr)
    summary = serve_forever(config)
    drained = len(summary.get("sessions", {}))
    print(
        f"repro serve: drained {drained} session(s), "
        f"clean={summary.get('clean')}",
        file=sys.stderr,
    )
    return 0 if summary.get("clean") else 1


def _serve_client(args: argparse.Namespace):
    """A ServeClient for the addressed server (explicit or discovered)."""
    from repro.serve.client import ServeClient, read_endpoint

    host, port = args.host, args.port
    if getattr(args, "data_dir", None) is not None:
        host, port = read_endpoint(args.data_dir)
    return ServeClient(host, port)


def _session_command(command):
    """Wrap a session command: server/client errors become exit 1."""
    import functools

    @functools.wraps(command)
    def wrapped(args: argparse.Namespace) -> int:
        from repro.serve.client import ServeClientError

        try:
            return command(args)
        except (ServeClientError, OSError) as exc:
            print(f"session: {exc}", file=sys.stderr)
            return 1

    return wrapped


def _session_labels_and_scenario(args: argparse.Namespace):
    """(tenant labels, scenario dict) for a submit, if one was named."""
    if getattr(args, "scenario", None) is None and not getattr(args, "spec", None):
        return ("all",), None
    spec = _scenario_spec(args, name=getattr(args, "scenario", None))
    return tuple(spec.tenants), spec.to_dict()


@_session_command
def _cmd_session_submit(args: argparse.Namespace) -> int:
    import json

    from repro.util.units import DAY as _DAY

    try:
        labels, scenario = _session_labels_and_scenario(args)
    except (KeyError, ValueError, OSError) as exc:
        print(f"session submit: {exc}", file=sys.stderr)
        return 1
    spec = {
        "name": args.session,
        "policy": args.policy,
        "capacity_bytes": int(args.capacity_mb * 1024 * 1024),
        "deduped": not args.no_dedupe,
        "labels": list(labels),
        "window_seconds": args.window_days * _DAY,
        "policy_seed": args.seed,
        "scenario": scenario,
    }
    created = _serve_client(args).submit(spec)
    print(json.dumps(created, indent=1, sort_keys=True))
    return 0


@_session_command
def _cmd_session_feed(args: argparse.Namespace) -> int:
    from repro.engine import rechunk
    from repro.scenarios.compositor import ScenarioCompositor

    try:
        spec = _scenario_spec(args, name=args.scenario)
    except (KeyError, ValueError, OSError) as exc:
        print(f"session feed: {exc}", file=sys.stderr)
        return 1
    compositor = ScenarioCompositor(spec, cache_dir=args.cache_dir)
    batches = rechunk(compositor.iter_batches(), args.chunk_size)

    def on_retry(reason: str, seq: int, delay: float) -> None:
        print(
            f"session feed: {reason} on chunk {seq}, retrying in {delay:g}s",
            file=sys.stderr,
        )

    client = _serve_client(args)
    chunks, events = client.feed_batches(
        args.session, batches, on_retry=on_retry
    )
    print(f"fed {events} events in {chunks} chunks to {args.session}")
    return 0


@_session_command
def _cmd_session_metrics(args: argparse.Namespace) -> int:
    import json

    print(json.dumps(
        _serve_client(args).metrics(args.session), indent=1, sort_keys=True
    ))
    return 0


@_session_command
def _cmd_session_finalize(args: argparse.Namespace) -> int:
    import json

    print(json.dumps(
        _serve_client(args).finalize(args.session), indent=1, sort_keys=True
    ))
    return 0


@_session_command
def _cmd_session_list(args: argparse.Namespace) -> int:
    from repro.analysis.render import TextTable

    sessions = _serve_client(args).list_sessions()
    if not sessions:
        print("no sessions")
        return 0
    table = TextTable(
        ["session", "policy", "chunks", "events", "backlog", "state"],
        title="Live replay sessions",
    )
    for session in sessions:
        table.add_row(
            session["name"],
            session["policy"],
            str(session["applied_chunks"]),
            str(session["events_ingested"]),
            str(session.get("backlog", 0)),
            "finalized" if session["finalized"] else "live",
        )
    print(table.render())
    return 0


@_session_command
def _cmd_session_ping(args: argparse.Namespace) -> int:
    import json

    client = _serve_client(args)
    # ping() rides out the connection-refused window of a restarting
    # server with bounded backoff; ready() runs after it succeeds, so
    # the server is known to be listening by then.
    print(json.dumps(
        {"health": client.ping(retries=args.retries), "ready": client.ready()},
        indent=1, sort_keys=True,
    ))
    return 0


def _cmd_verify_diff(args: argparse.Namespace) -> int:
    import json

    from repro.verify.diff import run_differential

    report = run_differential(cases=args.cases, seed=args.seed)
    if args.output is not None:
        from pathlib import Path

        Path(args.output).write_text(
            json.dumps(report, indent=1, sort_keys=True) + "\n"
        )
    if getattr(args, "run_dir", None) is not None:
        from repro.registry import record_verify_run

        print(f"recorded run: {record_verify_run(args.run_dir, report)}")
    ok = report["ok"]
    verdict = "all agree" if ok else f"{len(report['failures'])} mismatch(es)"
    print(
        f"verify diff: {report['cases']} case(s) across "
        f"{'/'.join(report['engines'])}: {verdict}"
    )
    for row in report["results"]:
        if row["ok"]:
            continue
        print(f"  case {row['case']} ({row['config']['policy']}):")
        for pair, fields in row["mismatches"].items():
            for name, (left, right) in fields.items():
                print(f"    {pair} {name}: {left} != {right}")
        print(f"    repro: repro verify diff --seed {report['seed']} "
              f"--cases {report['cases']}")
    return 0 if ok else 1


def _cmd_verify_replay(args: argparse.Namespace) -> int:
    import json

    from repro.verify.diff import replay_bundle

    try:
        outcome = replay_bundle(args.bundle)
    except (OSError, ValueError, KeyError) as exc:
        print(f"verify replay: unreadable bundle {args.bundle}: {exc}",
              file=sys.stderr)
        return 2
    print(json.dumps(outcome, indent=1, sort_keys=True))
    if outcome.get("error"):
        return 2
    return 0 if outcome["reproduced"] else 1


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    from repro.chaos import render_report, run_chaos, write_report

    kinds = None
    if args.kinds:
        kinds = tuple(part for part in args.kinds.split(",") if part)

    def progress(index: int, kind: str) -> None:
        print(f"chaos: episode {index} ({kind})...", file=sys.stderr)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
        workdir = Path(args.workdir) if args.workdir else Path(scratch)
        report = run_chaos(
            args.seed, args.episodes, workdir, kinds=kinds, progress=progress
        )
    path = write_report(report, Path(args.report))
    print(render_report(report))
    print(f"report: {path}")
    if getattr(args, "run_dir", None) is not None:
        from repro.registry import record_chaos_run

        print(f"recorded run: {record_chaos_run(args.run_dir, report)}")
    return 0 if report["ok"] else 1


def _cmd_chaos_replay(args: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    from repro.chaos import render_report, run_chaos

    kinds = None
    if args.kinds:
        kinds = tuple(part for part in args.kinds.split(",") if part)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
        workdir = Path(args.workdir) if args.workdir else Path(scratch)
        report = run_chaos(
            args.seed, args.episode + 1, workdir, kinds=kinds,
            only_episode=args.episode,
        )
    print(render_report(report))
    return 0 if report["ok"] else 1


def _cmd_chaos_report(args: argparse.Namespace) -> int:
    import json

    from repro.chaos import render_report

    try:
        with open(args.report, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"chaos report: unreadable {args.report}: {exc}",
              file=sys.stderr)
        return 2
    print(render_report(report))
    return 0 if report.get("ok") else 1


def _add_session_endpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1",
                        help="server host (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8023,
                        help="server port (default 8023)")
    parser.add_argument("--data-dir", default=None, metavar="DIR",
                        help="discover host/port from a running server's "
                        "data dir instead")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-mss",
        description="Reproduction of Miller & Katz 1993: NCAR MSS file migration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a trace file and/or store")
    _add_scale_args(p)
    p.add_argument("output", nargs="?", default=None,
                   help="ASCII trace file to write (optional with --store)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="also write the columnar store into this cache dir")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze", help="Table 3 for a trace file or store")
    _add_scale_args(p)
    p.add_argument("trace", nargs="?", default=None,
                   help="trace file or store directory (optional with --cache-dir)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed store cache; with no trace argument, "
                   "analyze the cached store for the scale/seed/days workload")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("replay", help="simulate a trace on the MSS")
    p.add_argument("trace", help="trace file to read")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("policies", help="compare migration policies")
    _add_scale_args(p)
    p.add_argument("--capacity-fraction", type=float, default=0.015)
    p.add_argument(
        "--policy",
        action="append",
        default=None,
        help="policy name (repeatable); default: the full set",
    )
    _add_invariant_args(p)
    p.set_defaults(func=_cmd_policies)

    p = sub.add_parser("sweep", help="parallel Section 6 ablation grid")
    _add_scale_args(p)
    p.add_argument(
        "--policies",
        default="opt,stp,lru,saac",
        help="comma-separated policy names (default: opt,stp,lru,saac)",
    )
    p.add_argument(
        "--capacities",
        type=_parse_capacities,
        default="3",
        help="point count for a log-spaced capacity sweep, or "
        "comma-separated capacity fractions (default: 3 points)",
    )
    p.add_argument("--seeds", type=int, default=1,
                   help="number of workload seeds, --seed..--seed+N-1 (default 1)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the replay grid (default 1)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persist per-seed prepared-stream stores here "
                   "(default: a per-run temporary directory)")
    p.add_argument("--scenarios", default=None,
                   help="comma-separated built-in scenario names: sweep "
                   "policies x scenarios instead of the single workload")
    p.add_argument("--engine", choices=("auto", "stack", "des"),
                   default="auto",
                   help="replay machinery: 'auto' scans all capacities of "
                   "an inclusion-preserving policy in one stack-engine "
                   "pass and uses the DES elsewhere; 'stack'/'des' force "
                   "one side (default auto)")
    p.add_argument("--run-dir", default=None, metavar="DIR",
                   help="checkpoint every completed task into a "
                   "content-addressed run directory under DIR")
    p.add_argument("--resume", action="store_true",
                   help="skip tasks already checkpointed in --run-dir "
                   "(Ctrl-C-then-rerun recovery)")
    p.add_argument("--max-retries", type=int, default=2,
                   help="retries per task after the first attempt "
                   "(default 2; 0 disables)")
    p.add_argument("--task-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-task deadline: a hung task's pool is "
                   "recycled and the task retried (default: none)")
    _add_invariant_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="run every experiment")
    _add_scale_args(p)
    p.add_argument(
        "--profile",
        action="store_true",
        help="print per-stage wall time (generate / replay / analyze)",
    )
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed store cache for the base study's "
                   "batch streams")
    p.add_argument("--run-dir", default=None, metavar="DIR",
                   help="record the paper-vs-measured comparisons as a "
                   "registry run under DIR")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "bench",
        help="cold-generation benchmark + stage profile (and, with "
        "--suite, the pytest benchmark suite)",
    )
    p.add_argument("--scale", type=float, default=0.02,
                   help="dense-workload scale (default 0.02, the gated config)")
    p.add_argument("--seed", type=int, default=42, help="random seed (default 42)")
    p.add_argument("--days", type=float, default=14.62,
                   help="dense-workload span in days (default 14.62)")
    p.add_argument("--rounds", type=int, default=3,
                   help="timing rounds, best-of (default 3)")
    p.add_argument("--suite", nargs="?", const="benchmarks", default=None,
                   metavar="DIR",
                   help="also run the pytest benchmark suite from this "
                   "directory (default: benchmarks)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "scenario",
        help="declarative workload scenarios (list / show / run / compare)",
    )
    scenario_sub = p.add_subparsers(dest="scenario_command", required=True)

    s = scenario_sub.add_parser("list", help="name every built-in archetype")
    s.set_defaults(func=_cmd_scenario_list)

    s = scenario_sub.add_parser("show", help="print one scenario's spec")
    _add_scale_args(s)
    s.add_argument("name", nargs="?", default=None,
                   help="built-in scenario name (or use --spec FILE)")
    s.add_argument("--spec", default=None, metavar="FILE",
                   help="load the spec from a JSON/YAML file instead")
    s.add_argument("--json", action="store_true",
                   help="dump the spec as JSON (loadable with --spec)")
    s.set_defaults(func=_cmd_scenario_show)

    s = scenario_sub.add_parser(
        "run", help="compose a scenario and print per-tenant statistics"
    )
    _add_scale_args(s)
    s.add_argument("name", nargs="?", default=None,
                   help="built-in scenario name (or use --spec FILE)")
    s.add_argument("--spec", default=None, metavar="FILE",
                   help="load the spec from a JSON/YAML file instead")
    s.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed store cache: per-component "
                   "streams and the composed stream persist here")
    s.set_defaults(func=_cmd_scenario_run)

    s = scenario_sub.add_parser(
        "compare",
        help="per-scenario, per-tenant metrics table for several archetypes",
    )
    _add_scale_args(s)
    s.add_argument("names", nargs="+", help="built-in scenario names")
    s.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed store cache for component streams")
    s.set_defaults(func=_cmd_scenario_compare)

    p = sub.add_parser("trace", help="columnar trace-store utilities")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)

    t = trace_sub.add_parser("info", help="print a store's manifest metadata")
    t.add_argument("store", help="store directory (contains manifest.json)")
    t.set_defaults(func=_cmd_trace_info)

    t = trace_sub.add_parser("verify", help="recompute every shard checksum")
    t.add_argument("store", help="store directory to verify")
    t.set_defaults(func=_cmd_trace_verify)

    t = trace_sub.add_parser(
        "import", help="convert an ASCII trace file into a columnar store"
    )
    t.add_argument("trace", help="trace file to read")
    t.add_argument("store", help="store directory to create")
    t.add_argument("--overwrite", action="store_true",
                   help="replace an existing store at the target")
    t.set_defaults(func=_cmd_trace_import)

    p = sub.add_parser(
        "runs",
        help="the experiment registry: recorded runs "
        "(list / show / compare / promote / trajectory)",
    )
    runs_sub = p.add_subparsers(dest="runs_command", required=True)

    r = runs_sub.add_parser(
        "list", help="table of runs under a runs root, filterable by "
        "kind/status, with promoted baselines marked"
    )
    r.add_argument("runs_dir", help="runs root (the --run-dir)")
    r.add_argument("--kind", default=None,
                   help="only runs of this kind (sweep/bench/report/...)")
    r.add_argument("--status", default=None,
                   help="only runs with this status")
    r.add_argument("--json", action="store_true",
                   help="dump matching runs as JSON")
    r.set_defaults(func=_cmd_runs_list)

    r = runs_sub.add_parser(
        "show", help="one run's record: status, task counters, and a "
        "per-cell table with attempts and status"
    )
    r.add_argument("runs_dir", help="runs root (the --run-dir)")
    r.add_argument("run", help="run directory name or run/config-hash prefix")
    r.add_argument("--json", action="store_true",
                   help="dump the run record as JSON instead of the cell "
                   "table")
    r.set_defaults(func=_cmd_runs_show)

    r = runs_sub.add_parser(
        "compare",
        help="cell-by-cell diff of two runs (or one run vs a promoted "
        "baseline); exit 1 on out-of-tolerance cells",
    )
    r.add_argument("runs_dir", help="runs root (the --run-dir)")
    r.add_argument("left", help="reference run (or the candidate, with "
                   "--baseline)")
    r.add_argument("right", nargs="?", default=None,
                   help="candidate run; omitted = compare LEFT against "
                   "the --baseline")
    r.add_argument("--baseline", default="default", metavar="NAME",
                   help="baseline name used when RIGHT is omitted "
                   "(default: 'default')")
    r.add_argument("--rel-tol", type=float, default=0.0,
                   help="relative tolerance per metric (default 0: exact)")
    r.add_argument("--abs-tol", type=float, default=0.0,
                   help="absolute tolerance per metric (default 0: exact)")
    r.set_defaults(func=_cmd_runs_compare)

    r = runs_sub.add_parser(
        "promote", help="pin one run as a named baseline "
        "(<runs_dir>/baselines.json)"
    )
    r.add_argument("runs_dir", help="runs root (the --run-dir)")
    r.add_argument("run", help="run to promote (hash prefix or dir name)")
    r.add_argument("--name", default="default",
                   help="baseline name (default: 'default')")
    r.set_defaults(func=_cmd_runs_promote)

    r = runs_sub.add_parser(
        "trajectory",
        help="perf history of one benchmark across every recorded bench run",
    )
    r.add_argument("runs_dir", help="runs root (the --run-dir)")
    r.add_argument("benchmark", help="benchmark name (e.g. stackdist_sweep)")
    r.add_argument("--metric", default=None,
                   help="metric to trend (default: speedup, else the "
                   "benchmark's first metric)")
    r.set_defaults(func=_cmd_runs_trajectory)

    p = sub.add_parser(
        "serve",
        help="run the crash-recoverable HTTP replay service until "
        "SIGTERM (graceful drain)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8023,
                   help="bind port; 0 picks a free one, recorded in the "
                   "data dir (default 8023)")
    p.add_argument("--data-dir", default="serve-data", metavar="DIR",
                   help="session journals + snapshots live here; existing "
                   "sessions are recovered on start (default serve-data)")
    p.add_argument("--queue-depth", type=int, default=8,
                   help="per-session ingest queue depth before 429s "
                   "(default 8)")
    p.add_argument("--shed-backlog", type=int, default=4,
                   help="queue backlog at which metrics polls are shed "
                   "with 503 (default 4)")
    p.add_argument("--request-timeout", type=float, default=30.0,
                   help="seconds a request waits for its session worker "
                   "(default 30)")
    p.add_argument("--snapshot-every", type=int, default=16,
                   help="state snapshot every N applied chunks (default 16)")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   help="seconds the SIGTERM drain waits per session "
                   "(default 30)")
    _add_invariant_args(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "session",
        help="talk to a running service "
        "(submit / feed / metrics / list / finalize / ping)",
    )
    session_sub = p.add_subparsers(dest="session_command", required=True)

    s = session_sub.add_parser("submit", help="create a replay session")
    _add_session_endpoint_args(s)
    _add_scale_args(s)
    s.add_argument("session", help="session name (also its directory name)")
    s.add_argument("--scenario", default=None,
                   help="built-in scenario providing tenant labels and "
                   "provenance (or use --spec FILE)")
    s.add_argument("--spec", default=None, metavar="FILE",
                   help="scenario spec file instead of a built-in name")
    s.add_argument("--policy", default="lru",
                   help="migration policy for the live HSM (default lru)")
    s.add_argument("--capacity-mb", type=float, default=512.0,
                   help="managed-disk capacity in MiB (default 512)")
    s.add_argument("--window-days", type=float, default=1.0,
                   help="rolling metrics window in stream days (default 1)")
    s.add_argument("--no-dedupe", action="store_true",
                   help="skip the eight-hour interval dedupe before replay")
    s.set_defaults(func=_cmd_session_submit)

    s = session_sub.add_parser(
        "feed", help="compose a scenario locally and stream its chunks"
    )
    _add_session_endpoint_args(s)
    _add_scale_args(s)
    s.add_argument("session", help="session to feed")
    s.add_argument("--scenario", default=None,
                   help="built-in scenario name (or use --spec FILE)")
    s.add_argument("--spec", default=None, metavar="FILE",
                   help="scenario spec file instead of a built-in name")
    s.add_argument("--chunk-size", type=int, default=8192,
                   help="events per fed chunk (default 8192)")
    s.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed store cache for component streams")
    _add_invariant_args(s)
    s.set_defaults(func=_cmd_session_feed)

    s = session_sub.add_parser("metrics", help="live Table-3/tenant metrics")
    _add_session_endpoint_args(s)
    s.add_argument("session", help="session to query")
    s.set_defaults(func=_cmd_session_metrics)

    s = session_sub.add_parser(
        "finalize", help="flush writebacks and print final metrics"
    )
    _add_session_endpoint_args(s)
    s.add_argument("session", help="session to finalize")
    s.set_defaults(func=_cmd_session_finalize)

    s = session_sub.add_parser("list", help="table of live sessions")
    _add_session_endpoint_args(s)
    s.set_defaults(func=_cmd_session_list)

    s = session_sub.add_parser("ping", help="health + readiness probes")
    _add_session_endpoint_args(s)
    s.add_argument("--retries", type=int, default=None,
                   help="connection retries while the server restarts "
                   "(default: the client's bounded-backoff default)")
    s.set_defaults(func=_cmd_session_ping)

    p = sub.add_parser(
        "verify",
        help="cross-engine differential checker and quarantine-bundle "
        "replay",
    )
    verify_sub = p.add_subparsers(dest="verify_command", required=True)

    v = verify_sub.add_parser(
        "diff",
        help="pin DES / stack / session counter-for-counter equivalence "
        "on seeded random configs",
    )
    v.add_argument("--cases", type=int, default=20,
                   help="randomized configurations to diff (default 20)")
    v.add_argument("--seed", type=int, default=0,
                   help="master seed; a mismatch is re-runnable from it "
                   "(default 0)")
    v.add_argument("--output", default=None, metavar="FILE",
                   help="also write the full JSON report here")
    v.add_argument("--run-dir", default=None, metavar="DIR",
                   help="record the differential report as a registry run "
                   "under DIR")
    v.set_defaults(func=_cmd_verify_diff)

    v = verify_sub.add_parser(
        "replay",
        help="re-run an invariant-violation quarantine bundle and report "
        "whether it reproduces",
    )
    v.add_argument("bundle", help="quarantine bundle directory "
                   "(contains violation.json)")
    v.set_defaults(func=_cmd_verify_replay)

    p = sub.add_parser(
        "chaos",
        help="seeded fault-schedule soak: inject crashes/corruption and "
        "require bit-identical recovery (run / replay / report)",
    )
    chaos_sub = p.add_subparsers(dest="chaos_command", required=True)

    c = chaos_sub.add_parser("run", help="run N seeded chaos episodes")
    c.add_argument("--episodes", type=int, default=7,
                   help="episode count (default 7, one per kind)")
    c.add_argument("--seed", type=int, default=0,
                   help="master seed: same seed, same schedule, same "
                   "verdicts (default 0)")
    c.add_argument("--kinds", default=None,
                   help="comma-separated episode kinds to draw from "
                   "(default: all)")
    c.add_argument("--workdir", default=None, metavar="DIR",
                   help="keep episode scratch state here instead of a "
                   "temporary directory")
    c.add_argument("--report", default="chaos_report.json", metavar="FILE",
                   help="report path (default chaos_report.json)")
    c.add_argument("--run-dir", default=None, metavar="DIR",
                   help="record the soak report as a registry run under DIR")
    c.set_defaults(func=_cmd_chaos_run)

    c = chaos_sub.add_parser(
        "replay", help="re-run exactly one episode of a seeded soak"
    )
    c.add_argument("--seed", type=int, required=True,
                   help="the soak's master seed")
    c.add_argument("--episode", type=int, required=True,
                   help="episode index to replay")
    c.add_argument("--kinds", default=None,
                   help="the soak's --kinds value, if it had one (the kind "
                   "schedule depends on the pool)")
    c.add_argument("--workdir", default=None, metavar="DIR",
                   help="keep the episode's scratch state here")
    c.set_defaults(func=_cmd_chaos_replay)

    c = chaos_sub.add_parser(
        "report", help="summarize an existing chaos_report.json"
    )
    c.add_argument("report", nargs="?", default="chaos_report.json",
                   help="report path (default chaos_report.json)")
    c.set_defaults(func=_cmd_chaos_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "policy", "missing") is None:
        args.policy = ["opt", "stp", "lru", "saac", "fifo", "random", "largest-first"]
    if getattr(args, "check_invariants", False):
        from repro.verify.invariants import enable_invariants

        enable_invariants()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
