#!/usr/bin/env python3
"""Benchmark of the UStore simulator: four workloads, one command.

Usage, from the repository root::

    python3 perfbench/run.py                      # every workload, timed + traced
    python3 perfbench/run.py --workload cold_read --seed 1 --seconds 10 --trace 0

A timed run (``--trace 0``) makes a *counted pass*: each of the
workload's fixed, seed-derived trials once, with the program's metrics
registry armed.  It warms the process up and yields every simulated
outcome (latencies, energy, spin-ups, event counts) plus the output
checks.  In slots spread over the counted pass it makes the *timed
samples*: the workload's first ``timed_trials`` trials again, unarmed,
for ``--seconds`` of host CPU time in all (setup and measured phase)
and at least ``MIN_REPEATS`` times each, each phase timed by process
CPU time and scaled by a reference loop timed around the slot; each
must reproduce its counted-pass outputs exactly.  A traced run
(``--trace 1``) times the trials untraced, then again under cProfile,
entry-point spans, the metrics registry and the request tracer, and
reports per-layer numbers.  See README.md in this directory for the metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List

import measure

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("cold_read", "small_object", "archive_tiering", "host_failover")

#: End-to-end metrics of a timed run: name -> unit.
END_TO_END = {
    "ops_per_host_s": "op/s",
    "events_per_op": "event/op",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_read_p50_s": "s",
    "sim_read_tail_s": "s",
    "sim_write_p50_s": "s",
    "sim_write_tail_s": "s",
    "energy_kj": "kJ",
    "spin_ups": "count",
}

#: RPC methods counted one by one in a traced run; the rest are summed
#: into ``net.rpc_calls.other``.
RPC_METHODS = (
    "coord.append_entries",
    "coord.ping_session",
    "coord.read",
    "coord.client_op",
    "coord.request_vote",
    "master.heartbeat",
    "master.lookup",
    "master.allocate",
    "controller.execute",
    "controller.reachable_hosts",
    "endpoint.expose",
    "endpoint.usb_view",
    "iscsi.io",
    "iscsi.readv",
    "iscsi.login",
)

#: Layers whose cProfile self-time share a traced run reports.
PROFILED_LAYERS = (
    "sim", "net", "coord", "cluster", "gateway", "power", "disk", "fabric",
    "usbsim", "hardware", "shardstore", "tiering", "obs", "other",
)

#: Setup is timed at least this many times per timed run.
MIN_SETUPS = 9
#: Each timed trial is timed at least this many times per timed run.
MIN_REPEATS = 2
#: Timed slots per timed run, spread over its counted pass.
TIMED_SLOTS = 4


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _trial(workload, seed: int, metrics=None, tracer=None, on_setup=None):
    """One trial: returns (result, state, setup CPU s, drive CPU s,
    drive wall s, sim events in the drive phase or None)."""
    gc.collect()
    cpu0 = time.process_time()
    state = workload.setup(seed, metrics=metrics, tracer=tracer)
    setup_s = time.process_time() - cpu0
    if on_setup is not None:
        on_setup()
    events0 = metrics.counter("sim.events").value if metrics is not None else None
    wall1 = time.perf_counter()
    cpu1 = time.process_time()
    result = workload.drive(state)
    cpu2 = time.process_time()
    wall2 = time.perf_counter()
    events = None
    if metrics is not None:
        events = int(metrics.counter("sim.events").value - events0)
    return result, state, setup_s, cpu2 - cpu1, wall2 - wall1, events


# -- timed run ----------------------------------------------------------------


def timed_run(workload, seed: int, seconds: float) -> Dict[str, Any]:
    from repro.obs import MetricsRegistry
    from workloads import trial_seeds

    calib_s = measure.calibrate()
    seeds = trial_seeds(workload, seed)
    timed_seeds = seeds[: workload.timed_trials]
    counted = []
    expected_digests: Dict[int, str] = {}
    events_of: Dict[int, int] = {}
    repeats: Counter = Counter()
    #: (setup CPU s, scale) of each setup, and (measured-phase CPU s,
    #: sim events, scale) of each timed sample.  The scale is the
    #: reference host speed over the speed the reference loop measured
    #: around the sample's slot.
    setups: List[tuple] = []
    samples: List[tuple] = []
    references: List[float] = []
    timed_cpu = drive_wall = 0.0
    mismatches: List[str] = []

    def more_samples(cpu_target: float, last: bool) -> bool:
        return timed_cpu < cpu_target or (
            last and min(repeats[s] for s in timed_seeds) < MIN_REPEATS
        )

    def timed_slot(cpu_target: float, setup_target: float, last: bool) -> None:
        """Timed samples and setup-only repeats up to the targets,
        between two timings of the reference loop."""
        nonlocal timed_cpu, drive_wall
        if not more_samples(cpu_target, last) and len(setups) >= setup_target:
            return
        before = measure.reference()
        slot_setups: List[float] = []
        slot_drives: List[tuple] = []
        while more_samples(cpu_target, last):
            trial_seed = min(timed_seeds, key=lambda s: (repeats[s], s))
            result, state, setup_s, cpu_s, wall_s, _ = _trial(workload, trial_seed)
            del state
            if measure.digest(result.outputs()) != expected_digests[trial_seed]:
                mismatches.append(f"trial {trial_seed}: timed outputs differ from counted pass")
            slot_setups.append(setup_s)
            slot_drives.append((cpu_s, events_of[trial_seed]))
            repeats[trial_seed] += 1
            timed_cpu += setup_s + cpu_s
            drive_wall += wall_s
        while len(setups) + len(slot_setups) < setup_target:
            gc.collect()
            cpu0 = time.process_time()
            workload.setup(seeds[(len(setups) + len(slot_setups)) % len(seeds)])
            slot_setups.append(time.process_time() - cpu0)
        after = measure.reference()
        references.extend((before, after))
        scale = measure.REFERENCE_SECONDS / statistics.mean((before, after))
        setups.extend((setup_s, scale) for setup_s in slot_setups)
        samples.extend((cpu_s, events, scale) for cpu_s, events in slot_drives)

    # The timed slots are spread evenly over the counted pass, so that
    # the samples span the host's slow and fast spells.  Host times are
    # scaled by the reference loop timed just before and after each
    # slot: the host's speed drifts by up to 1.6x over minutes, and the
    # scale takes that drift out of a comparison between runs.
    slots = min(TIMED_SLOTS, len(seeds))
    done = 0
    for index, trial_seed in enumerate(seeds):
        result, state, _, _, _, events = _trial(
            workload, trial_seed, metrics=MetricsRegistry()
        )
        outputs_digest = measure.digest(result.outputs())
        audit = getattr(workload, "audit", None)
        if audit is not None:
            audit(state, result)
        counted.append((trial_seed, result, events, outputs_digest))
        expected_digests[trial_seed] = outputs_digest
        events_of[trial_seed] = events
        del state
        if index + 1 < len(timed_seeds):
            continue
        slot = slots * (index + 1) // len(seeds)
        if slot > done:
            done = slot
            timed_slot(seconds * slot / slots, MIN_SETUPS * slot / slots, slot == slots)

    results = [entry[1] for entry in counted]
    reads = [x for r in results for x in r.read_latencies]
    writes = [x for r in results for x in r.write_latencies]
    recovery = [x for r in results for x in r.recovery_s]
    attempted = sum(r.attempted for r in results)
    total_events = sum(entry[2] for entry in counted)

    # Host CPU per event, the median over the timed samples, times the
    # exact events per op of all the run's trials.
    def ops_per_cpu_s(scaled: bool) -> float:
        cpu_per_event = statistics.median(
            cpu_s * (scale if scaled else 1.0) / events for cpu_s, events, scale in samples
        )
        return attempted / (cpu_per_event * total_events)

    violations = [v for r in results for v in r.violations] + mismatches
    failed = min(attempted, sum(r.failed for r in results) + len(violations))
    slo_missed = sum(r.slo_missed for r in results)
    read_tail = measure.tail(reads)
    write_tail = measure.tail(writes)
    metrics = {
        "ops_per_host_s": ops_per_cpu_s(scaled=True),
        "events_per_op": total_events / attempted,
        "setup_s": statistics.median(setup_s * scale for setup_s, scale in setups),
        "peak_rss_mb": _peak_rss_mb(),
        "sim_read_p50_s": measure.percentile(reads, 50.0),
        "sim_read_tail_s": read_tail["value"],
        "sim_write_p50_s": measure.percentile(writes, 50.0),
        "sim_write_tail_s": write_tail["value"],
        "energy_kj": sum(r.energy_j for r in results) / 1000.0,
        "spin_ups": sum(r.spin_ups for r in results),
    }
    fingerprint = measure.digest(
        [
            {"seed": s, "outputs": d, "events": e, "audit": r.violations}
            for s, r, e, d in counted
        ]
    )
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": 0,
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: _metric(metrics[name], END_TO_END[name]) for name in END_TO_END},
        "detail": {
            "sim_fingerprint": fingerprint,
            "trial_seeds": seeds,
            "sim_read_tail": read_tail,
            "sim_write_tail": write_tail,
            "slo_miss_ratio": slo_missed / attempted,
            "sim_recovery_s": statistics.median(recovery) if recovery else None,
            "error_rate": failed / attempted,
            "boot_failures": sum(r.counts.get("cluster.boot_failures", 0) for r in results),
            "bench.calib_s": calib_s,
            "reference_s": references,
            "timed_samples": samples,
            "timed_trials": {str(s): repeats[s] for s in timed_seeds},
            "unscaled_ops_per_host_s": ops_per_cpu_s(scaled=False),
            "unscaled_setup_s": statistics.median(setup_s for setup_s, _ in setups),
            "setup_samples": len(setups),
            "drive_cpu_s": timed_cpu,
            "drive_wall_s": drive_wall,
            "violations": violations,
        },
    }


# -- traced run ---------------------------------------------------------------


#: Critical-path components averaged per gateway request.
PHASES = (
    "queue_wait", "power_wait", "batch_wait", "disk_queue", "spinup",
    "seek_rotation", "transfer", "bandwidth_throttle",
)


def _phase_means(tracer):
    """Per-request critical-path phase means (sim s), and the number of
    requests whose phases do not sum to their latency."""
    from repro.obs import CriticalPathAnalyzer

    requests = [ctx for ctx in tracer.completed if ctx.kind == "request"]
    report = CriticalPathAnalyzer().aggregate(requests)
    traces = report["traces"]
    means = {
        name: (report["components"].get(name, 0.0) / traces if traces else 0.0)
        for name in PHASES
    }
    return means, report["identity_failures"]


def _snapshot(registry, instrumentation) -> Counter:
    """Every count a traced trial accumulates, under one prefixed key."""
    snap: Counter = Counter(
        {f"registry:{name}": c.value for name, c in registry.counters().items()}
    )
    for prefix, source in (
        ("calls", instrumentation.calls),
        ("rpc", instrumentation.rpc_calls),
        ("raises", instrumentation.raises),
    ):
        snap.update({f"{prefix}:{name}": value for name, value in source.items()})
    return snap


def traced_run(workload, seed: int) -> Dict[str, Any]:
    from repro.obs import MetricsRegistry, RequestTracer
    from tracing import Instrumentation, self_shares
    from workloads import trial_seeds

    calib_s = measure.calibrate()
    seeds = trial_seeds(workload, seed)[: workload.traced_trials]
    _trial(workload, seeds[0])  # untimed warm-up
    untraced_cpu = 0.0
    digests = []
    for trial_seed in seeds:
        result, _, _, cpu_s, _, _ = _trial(workload, trial_seed)
        untraced_cpu += cpu_s
        digests.append(measure.digest(result.outputs()))

    instrumentation = Instrumentation()
    profiler = cProfile.Profile()
    totals: Counter = Counter()
    phases: Counter = Counter()
    results = []
    violations: List[str] = []
    traced_cpu = 0.0
    instrumentation.install()
    try:
        for trial_seed, expected in zip(seeds, digests):
            registry = MetricsRegistry()
            tracer = RequestTracer()
            before: List[Counter] = []
            index = instrumentation.open_span("perfbench.trial")
            profiler.enable()
            result, _, _, cpu_s, _, _ = _trial(
                workload,
                trial_seed,
                metrics=registry,
                tracer=tracer,
                on_setup=lambda: before.append(_snapshot(registry, instrumentation)),
            )
            profiler.disable()
            instrumentation.close_span(index)
            traced_cpu += cpu_s
            if measure.digest(result.outputs()) != expected:
                violations.append(f"trial {trial_seed}: traced outputs differ from untraced")
            violations.extend(result.violations)
            results.append(result)
            totals.update(_snapshot(registry, instrumentation))
            totals.subtract(before[0])
            totals.update({f"result:{name}": value for name, value in result.counts.items()})
            means, identity_failures = _phase_means(tracer)
            for name, value in means.items():
                phases[name] += value / len(seeds)
            if identity_failures:
                violations.append(
                    f"trial {trial_seed}: {identity_failures} requests break the "
                    "latency-attribution identity"
                )
    finally:
        instrumentation.uninstall()

    shares = self_shares(profiler, str(SRC))
    attempted = sum(r.attempted for r in results)
    failed = min(attempted, sum(r.failed for r in results) + len(violations))
    recovery = [x for r in results for x in r.recovery_s]
    user_bytes = sum(r.user_bytes_written for r in results)
    rpc = {
        name[len("rpc:"):]: value for name, value in totals.items() if name.startswith("rpc:")
    }

    def count(label: str) -> float:
        return totals.get(label, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: Dict[str, Dict[str, Any]] = {
        "sim.events": _metric(count("registry:sim.events"), "count"),
        "sim.processes": _metric(count("calls:sim.processes"), "count"),
        "sim.timeouts": _metric(count("calls:sim.timeouts"), "count"),
        "sim.events_per_host_s": _metric(ratio(count("registry:sim.events"), untraced_cpu), "1/s"),
        "net.messages": _metric(count("calls:net.messages"), "count"),
    }
    for method in RPC_METHODS:
        metrics[f"net.rpc_calls.{method}"] = _metric(rpc.get(method, 0), "count")
    metrics["net.rpc_calls.other"] = _metric(
        sum(v for m, v in rpc.items() if m not in RPC_METHODS), "count"
    )
    metrics["net.rpc_timeouts"] = _metric(count("raises:RpcClient.call:RpcTimeout"), "count")
    metrics["net.iscsi_retry_ratio"] = _metric(
        ratio(count("registry:iscsi.session_errors"), count("registry:iscsi.ios")), "ratio"
    )
    metrics["master.heartbeats"] = _metric(count("registry:master.heartbeats"), "count")
    metrics["controller.commands"] = _metric(count("registry:controller.commands"), "count")
    metrics["controller.switch_turns"] = _metric(count("registry:controller.switch_turns"), "count")
    metrics["cluster.boot_failures"] = _metric(count("result:cluster.boot_failures"), "count")
    metrics["clientlib.remounts"] = _metric(count("result:clientlib.remounts"), "count")
    metrics["cluster.recovery_s"] = _metric(statistics.median(recovery) if recovery else 0.0, "s")
    metrics["gateway.batches"] = _metric(count("result:gateway.batches"), "count")
    metrics["gateway.disk_passes"] = _metric(count("result:gateway.disk_passes"), "count")
    metrics["gateway.ops_per_pass"] = _metric(
        ratio(count("result:gateway.completed"), count("result:gateway.disk_passes")), "ratio"
    )
    metrics["gateway.coalesced_reads"] = _metric(count("result:gateway.coalesced_reads"), "count")
    metrics["gateway.reclaim_spin_downs"] = _metric(count("result:gateway.reclaim_spin_downs"), "count")
    metrics["gateway.queue_wait_s"] = _metric(phases.get("queue_wait", 0.0), "s")
    metrics["gateway.batch_wait_s"] = _metric(phases.get("batch_wait", 0.0), "s")
    metrics["gateway.slo_miss_ratio"] = _metric(
        ratio(sum(r.slo_missed for r in results), attempted), "ratio"
    )
    metrics["power.wait_s"] = _metric(phases.get("power_wait", 0.0), "s")
    metrics["disk.ios"] = _metric(count("registry:disk.ios"), "count")
    metrics["disk.spin_ups"] = _metric(count("registry:disk.spin_ups"), "count")
    metrics["disk.queue_s"] = _metric(phases.get("disk_queue", 0.0), "s")
    metrics["disk.service_s"] = _metric(
        phases.get("spinup", 0.0) + phases.get("seek_rotation", 0.0) + phases.get("transfer", 0.0),
        "s",
    )
    metrics["disk.write_amp"] = _metric(
        ratio(count("registry:disk.bytes_written"), user_bytes), "ratio"
    )
    metrics["fabric.allocations"] = _metric(count("calls:fabric.allocations"), "count")
    metrics["fabric.throttle_s"] = _metric(phases.get("bandwidth_throttle", 0.0), "s")
    flushes = count("result:shardstore.flushes")
    retrievals = count("result:shardstore.retrievals")
    metrics["shardstore.flushes"] = _metric(flushes, "count")
    metrics["shardstore.bytes_per_flush"] = _metric(
        ratio(count("result:shardstore.flushed_bytes"), flushes), "B"
    )
    # Every read of a shardstore workload is a get, so the gateway's
    # coalesced reads are the gets that rode another get's pass.
    read_passes = retrievals - count("result:gateway.coalesced_reads") if retrievals else 0
    metrics["shardstore.reads_per_pass"] = _metric(ratio(retrievals, read_passes), "ratio")
    rounds = count("registry:tiering.migration_rounds")
    batches = count("registry:tiering.demotion_batches")
    metrics["tiering.migration_rounds"] = _metric(rounds, "count")
    metrics["tiering.demotion_batches"] = _metric(batches, "count")
    metrics["tiering.useful_round_ratio"] = _metric(ratio(batches, rounds), "ratio")
    metrics["tiering.migration_power_skips"] = _metric(
        count("registry:tiering.migration_power_skips"), "count"
    )
    metrics["tiering.migration_pauses"] = _metric(
        count("registry:tiering.migration_pauses"), "count"
    )
    for layer in PROFILED_LAYERS:
        metrics[f"{layer}.self_share"] = _metric(shares.get(layer, 0.0), "share")
    metrics["obs.trace_overhead"] = _metric(ratio(traced_cpu, untraced_cpu), "ratio")
    metrics["bench.calib_s"] = _metric(calib_s, "s")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.json"
    spans_path.write_text(json.dumps(instrumentation.spans_as_dicts()))
    unlisted = {
        name: share for name, share in shares.items() if name not in PROFILED_LAYERS
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": 1,
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "span_summary": instrumentation.span_summary(),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "rpc_calls": {name: rpc[name] for name in sorted(rpc)},
            "raises": {
                name[len("raises:"):]: value
                for name, value in sorted(totals.items())
                if name.startswith("raises:") and value
            },
            "unlisted_self_shares": unlisted,
            "untraced_drive_cpu_s": untraced_cpu,
            "traced_drive_cpu_s": traced_cpu,
            "violations": violations,
        },
    }


# -- reporting ----------------------------------------------------------------


def _print_report(report: Dict[str, Any]) -> None:
    title = "traced" if report["trace"] else "timed"
    print(f"== {report['workload']} seed={report['seed']} ({title} run)")
    for name, metric in report["metrics"].items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    detail = report["detail"]
    for name in sorted(detail):
        value = detail[name]
        if name in ("span_summary", "trial_seeds"):
            continue
        print(f"  {name:36s} {json.dumps(value, sort_keys=True)}")
    if detail.get("span_summary"):
        print("  spans (count, total host s, self host s):")
        for name, entry in detail["span_summary"].items():
            print(
                f"    {name:52s} {entry['count']:>8d} "
                f"{entry['total_s']:>10.4f} {entry['self_s']:>10.4f}"
            )
    print(f"  correct={report['correct']} attempted={report['attempted']} failed={report['failed']}")


def run_one(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        report = traced_run(workload, args.seed)
    else:
        report = timed_run(workload, args.seed, args.seconds)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True))
    _print_report(report)
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": report["metrics"],
            }
        )
    )
    return 0 if report["correct"] else 1


def run_all(args) -> int:
    """Every workload, timed then traced, each in its own process."""
    status = 0
    summary: Dict[str, Any] = {}
    traces = (args.trace,) if args.trace is not None else (0, 1)
    for name in WORKLOAD_NAMES:
        for trace in traces:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            child = subprocess.run(command, capture_output=True, text=True, check=False)
            sys.stdout.write(child.stdout)
            sys.stderr.write(child.stderr)
            lines = child.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if child.returncode in (0, 1) and lines else None
            if child.returncode != 0 or result is None or not result["correct"]:
                status = 1
            summary[f"{name}/trace{trace}"] = result
    print(json.dumps({"correct": status == 0, "runs": summary}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.trace is None:
        args.trace = 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
