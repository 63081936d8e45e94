"""Layer-ledger benchmark of the pLUTo reproduction: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload session_bulk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures one untraced window and prints the end-to-end
metrics; ``--trace 1`` measures an untraced base window and a traced
window of half the time each and prints the per-layer metrics (with the
tracing overhead against the base window).  Every metric is labelled
``host`` (wall-clock or memory measured on the host running it) or ``modelled``
(the simulated DRAM); no number mixes the two.  Host times are scaled to
the speed of a reference host by a fixed reference work timed between
slices (``hostclock.py``); each run also prints them as measured.  The
DRAM model has not been validated against reference hardware, so modelled
numbers carry no error figure.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any request that raises, is
refused or fails its output check counts as failed (``error_rate`` is
``failed / attempted``) and makes the command exit with status 1.
``--smoke`` runs every workload briefly in both modes, checks that every
metric of ``BENCHMARK.json`` is emitted with its unit, and checks that a
deliberately corrupted output fails the run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: name -> (unit, label) of every end-to-end metric (``--trace 0``).
END_TO_END = {
    "setup_s": ("s", "host"),
    "requests_per_s": ("1/s", "host"),
    "latency_p50_ms": ("ms", "host"),
    "latency_p99_ms": ("ms", "host"),
    "peak_rss_mb": ("MB", "host"),
    "modelled_latency_ns": ("ns/request", "modelled"),
    "modelled_energy_nj": ("nJ/request", "modelled"),
}

#: name -> (unit, label) of every per-layer metric (``--trace 1``).
PER_LAYER = {
    "backend.kernel_us": ("us", "host"),
    "backend.kernel_ns_per_element": ("ns/element", "host"),
    "backend.lower_ms": ("ms", "host"),
    "controller.execute_self_us": ("us", "host"),
    "controller.dispatch_self_us": ("us", "host"),
    "controller.template_build_ms": ("ms", "host"),
    "dram.schedule_us": ("us", "host"),
    "dram.activations_per_request": ("count", "modelled"),
    "dram.tfaw_stalls_per_request": ("count", "modelled"),
    "opt.optimize_ms": ("ms", "host"),
    "analyze.verify_ms": ("ms", "host"),
    "plan.plan_ms": ("ms", "host"),
    "plan.candidates_per_program": ("count", "host"),
    "opt.lut_queries_saved_ratio": ("ratio", "modelled"),
    "plan.auto_hot_us": ("us", "host"),
    "session.prepare_us": ("us", "host"),
    "service.queue_wait_us": ("us", "host"),
    "service.submit_self_us": ("us", "host"),
    "service.batch_size": ("count", "host"),
    "pool.transport_us": ("us", "host"),
    "pool.requests_per_chunk": ("count", "host"),
    "store.warm_start_s": ("s", "host"),
    **{
        f"cache.{name}.hit_ratio": ("ratio", "host")
        for name in (
            "programs",
            "optimizer",
            "verifier",
            "planner",
            "trace_templates",
            "compiled_exec",
            "scheduler_merges",
        )
    },
    "ladder.kernel_us": ("us", "host"),
    "ladder.controller_us": ("us", "host"),
    "ladder.session_us": ("us", "host"),
    "ladder.service_us": ("us", "host"),
    "ladder.pool_us": ("us", "host"),
    "trace.base_requests_per_s": ("1/s", "host"),
    "trace.traced_requests_per_s": ("1/s", "host"),
    "trace.overhead_ratio": ("ratio", "host"),
    "ledger.unattributed_ratio": ("ratio", "host"),
}

#: A run sets up at least SETUP_REPEATS times, and more while the set-ups
#: so far took under SETUP_BUDGET_S (at most SETUP_REPEATS_MAX), so a cheap
#: set-up is timed often enough to be steady; ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_REPEATS_MAX = 25
SETUP_BUDGET_S = 2.0


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's self-test")
    # Fault injection for the smoke test: flip one served output.
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child (the pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _stop_resource_tracker() -> None:
    """End the resource-tracker process the pool's spawn context started.

    It would otherwise outlive the closed pool until this interpreter exits;
    the benchmark waits for every process it started.
    """
    import gc
    from multiprocessing import resource_tracker

    gc.collect()  # release the closed pool's semaphores first
    resource_tracker._resource_tracker._stop()


def _measure(args: argparse.Namespace) -> tuple[dict, int, int]:
    """Run one workload; returns (metrics, attempted, failed)."""
    import hostclock
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; expected one of {list(workloads.WORKLOADS)}"
        )
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workload = workloads.build(args.workload, args.seed, work_dir, args.corrupt)
    try:
        setups, raw_setups = [], []
        reference = hostclock.sample_ns()
        while len(setups) < SETUP_REPEATS or (
            sum(raw_setups) < SETUP_BUDGET_S and len(setups) < SETUP_REPEATS_MAX
        ):
            if setups:
                workload.stop_serving()
            started = time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - started
            after = hostclock.sample_ns()
            raw_setups.append(elapsed)
            setups.append(elapsed / hostclock.slowdown([reference, after]))
            reference = after
        if args.trace == 0:
            window = workload.window(args.seconds)
            workload.stop_serving()
            rate, p50_ns, p99_ns = workload.summary(window)
            metrics = {
                "setup_s": statistics.median(setups),
                "requests_per_s": rate,
                "latency_p50_ms": p50_ns / 1e6,
                "latency_p99_ms": p99_ns / 1e6,
                "peak_rss_mb": _peak_rss_mb(),
                "modelled_latency_ns": _mean(window.modelled_latency_ns),
                "modelled_energy_nj": _mean(window.modelled_energy_nj),
            }
            print(
                f"# window: {window.completed} requests served in {len(window.slices)} "
                f"slices; modelled means over the first {len(window.modelled_latency_ns)} "
                f"requests; host slowdown against the reference host {window.slowdown:.3f}"
            )
            rate, p50_ns, p99_ns = workload.summary(window, scaled=False)
            print(
                f"# as measured (not scaled to reference speed): setup_s "
                f"{statistics.median(raw_setups):.6g}, requests_per_s {rate:.6g}, "
                f"latency_p50_ms {p50_ns / 1e6:.6g}, latency_p99_ms {p99_ns / 1e6:.6g}"
            )
            windows = [window]
        else:
            base = workload.window(args.seconds / 2)
            traced, ledger = workloads.traced_window(workload, args.seconds / 2)
            metrics = workload.layer_metrics(traced, ledger)
            metrics.update(workload.extra_layer_metrics())
            base_rate, traced_rate = workload.summary(base)[0], workload.summary(traced)[0]
            metrics["trace.base_requests_per_s"] = base_rate
            metrics["trace.traced_requests_per_s"] = traced_rate
            metrics["trace.overhead_ratio"] = 1.0 - traced_rate / base_rate if base_rate else 0.0
            workload.stop_serving()
            windows = [base, traced]
        oracle_failed = workload.oracle_failures(windows)
        if args.trace == 1:
            workload.finish_layer_metrics(metrics, windows[-1])
    finally:
        workload.close()
        _stop_resource_tracker()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never created
    attempted = sum(window.attempted for window in windows)
    failed = sum(window.failed for window in windows) + oracle_failed
    return metrics, attempted, failed


def _mean(values: list) -> float:
    return statistics.fmean(values) if values else 0.0


def _report(args: argparse.Namespace, metrics: dict, attempted: int, failed: int) -> dict:
    specs = END_TO_END if args.trace == 0 else PER_LAYER
    missing = set(specs) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# host = measured on the host running this; modelled = simulated DRAM (model not")
    print("# validated against reference hardware, so no error figure is given)")
    for name, (unit, label) in specs.items():
        print(f"{name:34s} {metrics[name]:>16.6g} {unit:12s} [{label}]")
    error_rate = failed / attempted if attempted else 1.0
    print(f"{'error_rate':34s} {error_rate:>16.6g} {'ratio':12s} [host] ({failed}/{attempted})")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, (unit, _) in specs.items()
        },
    }


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"cannot find the repro package under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    # The deprecated plan shims must never be exercised: their warning is
    # an error here and in the pool workers this process spawns.
    warnings.simplefilter("error", DeprecationWarning)
    os.environ["PYTHONWARNINGS"] = "error::DeprecationWarning"
    if args.smoke:
        import smoke

        return smoke.main(Path(__file__).resolve())
    # Every process of the run shares one CPU.  On a 2-vCPU shared host a
    # pool request crossing CPUs waits for the hypervisor to wake the idle
    # vCPU, and that wait, not the pool, set the tail latency.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    metrics, attempted, failed = _measure(args)
    result = _report(args, metrics, attempted, failed)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
