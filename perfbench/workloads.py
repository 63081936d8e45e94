"""The four benchmark workloads.

Each workload owns its set-up, its closed request loop, its output checks
and the per-layer metrics only it can observe.  ``run.py`` drives them:
set up several times (timing each), measure one window untraced (the
end-to-end metrics) or an untraced base window plus a traced window (the
per-layer metrics), then check what was served against the
``backend="functional"`` oracle.

A window is measured in slices: :data:`SLICES` equal time slices for the
hot workloads, one pass over a fixed set of programs for the cold one.
Between slices the benchmark times the fixed reference work of
:mod:`hostclock`; each slice's rate, median and tail latency are scaled
to reference host speed by the reference times around it, and the window
reports the median over slices.  A burst of host noise in one slice, or a
slower host for the whole run, then moves the result much less.

Output checks.  The hot workloads serve the same six programs over and
over, so the first result of each family (served during set-up) is kept
as that family's record; every request is compared with its record
(outputs, modelled latency, modelled energy), and after the window the
record itself is compared with the functional oracle run under the same
concrete plan.  A record the oracle rejects fails every request that
matched it.  The cold workload checks each request against the NumPy
evaluation of its generated chain, and runs a sample of the served
programs through the functional oracle under the plan they were served
with.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import math
import statistics
import sys
import time
import zlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostclock
from cold_programs import ELEMENTS as COLD_ELEMENTS, cold_program
from ledger import CACHE_LAYERS, Ledger, cache_counters, hit_ratios

FAMILIES = ("image", "crc", "salsa20", "vmpc", "bitcount", "vector_ops")
WORKLOADS = ("pool_hot_small", "session_bulk", "session_sharded_auto", "service_cold_structures")

SLICES = 40
#: The modelled end-to-end metrics average the first requests of a window,
#: so they repeat for a seed whatever the host speed.  Not a multiple of
#: six: the balanced family order then still depends on the seed.
MODELLED_PREFIX = 64
#: Programs per pass of the cold workload, and the passes its modelled
#: prefix spans (every window serves at least that many).
COLD_PASS = 32
COLD_PREFIX_PASSES = 8
#: Content variants of the cold stream: pass ``p`` of a window serves
#: variant ``base + p``, so no program repeats within a run.
TRACED_VARIANT_BASE = 1000
WARMUP_VARIANT = 10_000
#: Served cold programs re-run through the functional oracle.
COLD_ORACLE_SAMPLES = 6
#: Inputs longer than this are checked on a same-program prefix this long.
ORACLE_ELEMENTS = 1024
#: The ladder times batches of one-at-a-time requests per rung, interleaved.
LADDER_ROUNDS = 10
LADDER_BATCH = 10
AUTO_HOT_ROUNDS = 10
#: One request in flight, on the one CPU a run uses: more in flight made the
#: worker's batch sizes, and the rate with them, flip between runs.
POOL_IN_FLIGHT = 1
POOL_WARMUP_REQUESTS = 2000


def family_order(seed: int):
    """Endless request order: a seeded permutation of the six families per block."""
    rng = np.random.default_rng([seed, 1])
    while True:
        yield from (int(index) for index in rng.permutation(len(FAMILIES)))


def _now() -> int:
    return time.perf_counter_ns()


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(0, math.ceil(fraction * len(ordered)) - 1)
    return float(ordered[rank])


@dataclass
class Record:
    """The reference result of one program: checked once against the oracle."""

    outputs: dict
    latency_ns: float
    energy_nj: float
    plan: object
    trace: object = None
    digests: dict = field(default_factory=dict)


@dataclass
class Window:
    """Client-side measurements of one measured window."""

    prefix: int
    latencies_ns: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Time the system was working on requests: summed request latency
    #: for one-at-a-time loops, slice wall-clock for the pool.
    busy_ns: int = 0
    #: What each served request was (a family, or a cold program's index).
    keys: list = field(default_factory=list)
    #: Per slice: (requests per second, p50 ns, p99 ns) as measured, the
    #: host slowdown against the reference host around the slice, and the
    #: slice's ``(first, end)`` range of served requests.
    slices: list = field(default_factory=list)
    slowdowns: list = field(default_factory=list)
    bounds: list = field(default_factory=list)
    modelled_latency_ns: list = field(default_factory=list)
    modelled_energy_nj: list = field(default_factory=list)
    families: Counter = field(default_factory=Counter)
    prefix_families: Counter = field(default_factory=Counter)
    #: ``(hits, misses, lookups)`` per memo layer, summed over traced slices.
    caches: dict = field(default_factory=dict)
    first_error: str | None = None

    def error(self, message: str) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = message
            print(f"request failed: {message}", file=sys.stderr)

    @property
    def in_prefix(self) -> bool:
        """Whether the next request served is in the window's fixed prefix."""
        return len(self.modelled_latency_ns) < self.prefix

    def served(
        self, latency_ns: int, family, modelled_ns: float, energy_nj: float, in_prefix=None
    ) -> None:
        """Record one checked result; ``in_prefix`` overrides arrival order."""
        self.latencies_ns.append(latency_ns)
        self.keys.append(family)
        self.families[family] += 1
        if self.in_prefix if in_prefix is None else in_prefix:
            self.modelled_latency_ns.append(modelled_ns)
            self.modelled_energy_nj.append(energy_nj)
            self.prefix_families[family] += 1

    def close_slice(self, first: int, busy_before: int, slowdown: float) -> None:
        served = self.latencies_ns[first:]
        busy = self.busy_ns - busy_before
        if served and busy:
            rate = len(served) / (busy / 1e9)
            self.slices.append((rate, percentile(served, 0.50), percentile(served, 0.99)))
            self.slowdowns.append(slowdown)
            self.bounds.append((first, self.completed))

    @property
    def completed(self) -> int:
        return len(self.latencies_ns)

    def slice_medians(self, scaled: bool = True) -> tuple[float, float, float]:
        """(requests/s, p50 ns, p99 ns): medians over slices, at reference speed if ``scaled``."""
        if not self.slices:
            return 0.0, 0.0, 0.0
        factors = self.slowdowns if scaled else [1.0] * len(self.slices)
        rate, p50, p99 = zip(
            *(
                (measured[0] * factor, measured[1] / factor, measured[2] / factor)
                for measured, factor in zip(self.slices, factors)
            )
        )
        return statistics.median(rate), statistics.median(p50), statistics.median(p99)

    @property
    def slowdown(self) -> float:
        """The window's median host slowdown against the reference host."""
        return statistics.median(self.slowdowns) if self.slowdowns else 1.0


def _outputs_match(outputs: dict, expected: dict) -> bool:
    return all(
        name in expected and np.array_equal(array, expected[name])
        for name, array in outputs.items()
    )


def _same_result(a, b) -> bool:
    """Bit-identical outputs and identical modelled latency and energy."""
    return (
        a.outputs.keys() == b.outputs.keys()
        and _outputs_match(a.outputs, b.outputs)
        and a.latency_ns == b.latency_ns
        and a.energy_nj == b.energy_nj
    )


def _functional_oracle(session, inputs: dict, plan):
    """``session``'s program run by the bit-exact functional backend under ``plan``."""
    from repro.api.session import PlutoSession

    oracle = PlutoSession(calls=list(session.calls), backend="functional")
    return oracle.run(inputs, plan=plan)


def _corrupted(outputs: dict) -> dict:
    """A copy of ``outputs`` with one element flipped (the smoke fault)."""
    copy = {name: np.array(array, copy=True) for name, array in outputs.items()}
    first = next(iter(copy))
    copy[first][0] ^= np.uint64(1)
    return copy


def dram_counts(trace) -> tuple[int, int]:
    """(row activations, tFAW windows) of one command trace (modelled).

    The tFAW count is the number of four-activation windows the rank must
    wait out for that many activations (``tfaw_lower_bound_ns / t_faw``);
    the scheduler exposes no per-request stall counter.
    """
    from repro.dram.scheduler import activation_count, tfaw_lower_bound_ns

    activations = sum(activation_count(command) for command in trace.commands)
    t_faw = trace.timing.t_faw
    windows = round(tfaw_lower_bound_ns(activations, trace.timing) / t_faw) if t_faw else 0
    return activations, windows


def _queries_before(calls, report) -> tuple[int, int]:
    """(LUT queries in the original program, queries the optimizer saved)."""
    if report is not None:
        return report.before.lut_queries, report.lut_queries_saved
    from repro.opt.report import program_metrics

    return program_metrics(calls).lut_queries, 0


class _LayerSums:
    """Per-request fields of the traced window, summed for the ledger."""

    def __init__(self) -> None:
        self.queries = 0
        self.queries_saved = 0
        self.candidates: list[int] = []
        self.activations = 0
        self.tfaw_windows = 0
        self.counted = 0
        self.queue_wait_s: list[float] = []
        self.batch_sizes: list[int] = []

    def note_dram(self, counts: tuple[int, int]) -> None:
        self.activations += counts[0]
        self.tfaw_windows += counts[1]
        self.counted += 1


class Workload:
    """What ``run.py`` calls on each of the four workloads."""

    name = ""
    elements = 0
    prefix = MODELLED_PREFIX

    def __init__(self, seed: int, work_dir: Path, corrupt: bool) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.corrupt = corrupt
        self.sums = _LayerSums()

    def _fault(self, outputs: dict, window: Window) -> dict:
        """Inject the smoke fault into the third request of the first window."""
        if self.corrupt and window.attempted == 3:
            self.corrupt = False
            return _corrupted(outputs)
        return outputs

    def setup(self) -> None:
        raise NotImplementedError

    def window(self, seconds: float, *, traced: bool = False) -> Window:
        """Measure ``seconds`` in slices, timing the reference work between slices."""
        window = Window(self.prefix)
        self.sums = _LayerSums()
        deadline = _now() + int(seconds * 1e9)
        reference = hostclock.sample_ns()
        index = 0
        while self.more_slices(index, deadline):
            self.before_slice(index, traced)
            before = cache_counters() if traced else None
            lookups = self.ledger.program_lookups if traced else 0
            first, busy = window.completed, window.busy_ns
            self.run_slice(window, seconds / SLICES, index, traced)
            after = hostclock.sample_ns()
            window.close_slice(first, busy, hostclock.slowdown([reference, after]))
            reference = after
            index += 1
            if traced:
                ratios = hit_ratios(
                    before, cache_counters(), self.ledger.program_lookups - lookups
                )
                for name, (hits, misses, looked_up) in ratios.items():
                    total = window.caches.get(name, (0, 0, 0))
                    window.caches[name] = (
                        total[0] + hits,
                        total[1] + misses,
                        total[2] + looked_up,
                    )
        return window

    def more_slices(self, index: int, deadline: int) -> bool:
        """Whether the window measures another slice."""
        return index < SLICES

    def summary(self, window: Window, scaled: bool = True) -> tuple[float, float, float]:
        """The window's (requests/s, p50 ns, p99 ns), at reference speed if ``scaled``."""
        return window.slice_medians(scaled)

    def before_slice(self, index: int, traced: bool) -> None:
        """Untimed preparation of one slice."""

    def run_slice(self, window: Window, seconds: float, index: int, traced: bool) -> None:
        raise NotImplementedError

    def stop_serving(self) -> None:
        """Stop serving processes (pool workers) before peak memory is read."""

    def close(self) -> None:
        """Release everything the workload holds."""
        self.stop_serving()

    def oracle_failures(self, windows: list[Window]) -> int:
        raise NotImplementedError

    def layer_metrics(self, window: Window, ledger: Ledger) -> dict:
        return ledger_metrics(window, ledger, self.sums, self.elements)

    def extra_layer_metrics(self) -> dict:
        """Untraced per-layer measurements taken after the traced window."""
        return {}

    def finish_layer_metrics(self, metrics: dict, window: Window) -> None:
        """Per-layer metrics readable only after serving stopped and the oracle ran."""


# ---------------------------------------------------------------------- #
# Hot families: records, oracle and modelled counts shared by three workloads
# ---------------------------------------------------------------------- #
class _FamilyWorkload(Workload):
    def _programs(self):
        from repro.workloads.programs import workload_program

        return [workload_program(name, self.elements, seed=self.seed) for name in FAMILIES]

    def oracle_failures(self, windows: list[Window]) -> int:
        failed = 0
        for index, (program, record) in enumerate(zip(self.programs, self.records)):
            if not self._oracle_agrees(index, program, record):
                print(f"oracle mismatch on family {FAMILIES[index]}", file=sys.stderr)
                # Every request served from the rejected record failed.
                failed += max(1, sum(window.families[index] for window in windows))
        return failed

    def _oracle_agrees(self, index: int, program, record: Record) -> bool:
        """Check ``record`` against the functional oracle; sets ``record.trace``."""
        if self.elements <= ORACLE_ELEMENTS:
            result = _functional_oracle(program.session, program.inputs, record.plan)
            record.trace = result.trace
            return _same_result(result, record)
        # The functional backend is too slow for 65,536 elements: the same
        # program built at ORACLE_ELEMENTS runs on the prefix of the inputs.
        # The oracle must reproduce the record's prefix and the vectorized
        # result (with its modelled latency and energy) at that size; the
        # record's own modelled figures are re-derived at full size.
        from repro.workloads.programs import workload_program

        small = workload_program(FAMILIES[index], ORACLE_ELEMENTS, seed=self.seed)
        prefix = {name: array[:ORACLE_ELEMENTS] for name, array in program.inputs.items()}
        oracle = _functional_oracle(small.session, prefix, record.plan)
        served = small.session.run(prefix, plan=record.plan)
        full = program.session.run(program.inputs, plan=record.plan)
        record.trace = full.trace
        return (
            _same_result(served, oracle)
            and oracle.outputs.keys() == record.outputs.keys()
            and all(
                np.array_equal(array, record.outputs[name][:ORACLE_ELEMENTS])
                for name, array in oracle.outputs.items()
            )
            and _same_result(full, record)
        )

    def _matches_record(self, index: int, outputs: dict, latency_ns: float, energy_nj: float):
        record = self.records[index]
        return (
            outputs.keys() == record.outputs.keys()
            and _outputs_match(outputs, record.outputs)
            and latency_ns == record.latency_ns
            and energy_nj == record.energy_nj
        )

    def finish_layer_metrics(self, metrics: dict, window: Window) -> None:
        """Modelled DRAM counts over the window's fixed request prefix."""
        for index, count in window.prefix_families.items():
            counts = dram_counts(self.records[index].trace)
            for _ in range(count):
                self.sums.note_dram(counts)
        counted = max(1, self.sums.counted)
        metrics["dram.activations_per_request"] = self.sums.activations / counted
        metrics["dram.tfaw_stalls_per_request"] = self.sums.tfaw_windows / counted


# ---------------------------------------------------------------------- #
# session_bulk and session_sharded_auto: PlutoSession.run, one at a time
# ---------------------------------------------------------------------- #
class SessionWorkload(_FamilyWorkload):
    """Closed loop of ``session.run(inputs)``, one request at a time."""

    elements = 65536

    def __init__(self, name: str, plan, seed: int, work_dir: Path, corrupt: bool) -> None:
        super().__init__(seed, work_dir, corrupt)
        self.name = name
        self.plan = plan
        self.programs = []
        self.records: list[Record] = []

    def setup(self) -> None:
        from repro.api.session import clear_all_caches
        from repro.plan.planner import reset_cost_priors

        clear_all_caches()
        reset_cost_priors()
        self.programs = self._programs()
        self.records = []
        for program in self.programs:
            result = program.session.run(program.inputs, plan=self.plan)
            self.records.append(
                Record(
                    outputs={name: array.copy() for name, array in result.outputs.items()},
                    latency_ns=result.latency_ns,
                    energy_nj=result.energy_nj,
                    plan=result.execution_plan,
                )
            )
        for program in self.programs:
            program.session.run(program.inputs, plan=self.plan)

    def run_slice(self, window: Window, seconds: float, index: int, traced: bool) -> None:
        self.order = family_order(self.seed)
        plan = self.plan
        deadline = _now() + int(seconds * 1e9)
        while _now() < deadline:
            family = next(self.order)
            program = self.programs[family]
            window.attempted += 1
            started = _now()
            try:
                result = program.session.run(program.inputs, plan=plan)
            except Exception as error:  # counted, reported, and the loop goes on
                window.busy_ns += _now() - started
                window.error(f"{type(error).__name__}: {error}")
                continue
            elapsed = _now() - started
            window.busy_ns += elapsed
            outputs = self._fault(result.outputs, window)
            if not self._matches_record(family, outputs, result.latency_ns, result.energy_nj):
                window.error(f"output check failed on family {FAMILIES[family]}")
                continue
            window.served(elapsed, family, result.latency_ns, result.energy_nj)
            if traced:
                before, saved = _queries_before(program.session.calls, result.optimization)
                self.sums.queries += before
                self.sums.queries_saved += saved
                if result.planner is not None:
                    self.sums.candidates.append(len(result.planner.candidates))

    def layer_metrics(self, window: Window, ledger: Ledger) -> dict:
        metrics = ledger_metrics(window, ledger, self.sums, self.elements)
        metrics["session.prepare_us"] = (
            ledger.prepare_ns["session.run"] / 1e3 / max(1, window.completed)
        )
        return metrics

    def extra_layer_metrics(self) -> dict:
        """``plan.auto_hot_us``: hot ``plan="auto"`` minus the default plan, same inputs."""
        gaps = []
        for program in self.programs:
            auto, default = [], []
            for _ in range(AUTO_HOT_ROUNDS):
                started = _now()
                program.session.run(program.inputs, plan="auto")
                auto.append(_now() - started)
                started = _now()
                program.session.run(program.inputs)
                default.append(_now() - started)
            gaps.append(statistics.median(auto) - statistics.median(default))
        return {"plan.auto_hot_us": statistics.mean(gaps) / 1e3}


# ---------------------------------------------------------------------- #
# pool_hot_small: a one-worker PlutoWorkerPool, one request in flight
# ---------------------------------------------------------------------- #
class PoolWorkload(_FamilyWorkload):
    """One client thread keeping POOL_IN_FLIGHT requests in flight against one worker."""

    name = "pool_hot_small"
    elements = 256

    def __init__(self, seed: int, work_dir: Path, corrupt: bool) -> None:
        super().__init__(seed, work_dir, corrupt)
        self.pool = None
        self.programs = []
        self.records: list[Record] = []
        self.setups = 0
        self.worker_caches: dict = {}
        self.warm_reports: list = []
        self.transport_ns: list[int] = []
        self.chunks = 0

    def setup(self) -> None:
        from repro.api.session import clear_all_caches
        from repro.serve.pool import PlutoWorkerPool
        from repro.serve.store import SharedArtifactStore

        self.stop_serving()
        clear_all_caches()
        self.programs = self._programs()
        self.family_queries = [
            _queries_before(program.session.calls, None)[0] for program in self.programs
        ]
        self.setups += 1
        store_path = self.work_dir / f"store-{self.setups}"
        store = SharedArtifactStore(store_path)
        for program in self.programs:
            store.export(program.session.calls)
        self.pool = PlutoWorkerPool(workers=1, store_path=str(store_path), start_method="spawn")
        if not self.pool.wait_ready(timeout=120):
            raise RuntimeError("pool worker did not become ready")
        self.records = []
        for program in self.programs:
            served = self.pool.submit(program.session, program.inputs).result(timeout=60)
            self.records.append(
                Record(
                    outputs=dict(served.outputs),
                    latency_ns=served.latency_ns,
                    energy_nj=served.energy_nj,
                    plan=None,  # the pool serves the default plan
                    digests={
                        name: zlib.crc32(array.tobytes()) for name, array in served.outputs.items()
                    },
                )
            )
        # The worker serves its first thousand or so requests markedly
        # slower; set-up ends once a fixed count has been served.
        warm = Window(0)
        self.run_slice(warm, 60.0, -1, False, limit=POOL_WARMUP_REQUESTS)
        if warm.failed or warm.completed < POOL_WARMUP_REQUESTS:
            raise RuntimeError(f"pool warm-up failed: {warm.first_error}")

    def window(self, seconds: float, *, traced: bool = False) -> Window:
        self.transport_ns = []
        self.chunks = 0
        return super().window(seconds, traced=traced)

    def run_slice(
        self, window: Window, seconds: float, index: int, traced: bool, limit: int = 0
    ) -> None:
        """Keep POOL_IN_FLIGHT requests in flight for ``seconds`` (or ``limit`` requests)."""
        self.order = family_order(self.seed)
        pool = self.pool
        done_at: dict = {}

        def stamp(future) -> None:
            done_at[future] = _now()

        inflight: dict = {}
        started = _now()
        deadline = started + int(seconds * 1e9)
        while inflight or _now() < deadline:
            while (
                len(inflight) < POOL_IN_FLIGHT
                and _now() < deadline
                and not (limit and window.attempted >= limit)
            ):
                family = next(self.order)
                program = self.programs[family]
                sequence = window.attempted
                window.attempted += 1
                sent = _now()
                try:
                    future = pool.submit(program.session, program.inputs, return_outputs=False)
                except Exception as error:  # refused: counted, reported, loop goes on
                    window.error(f"{type(error).__name__}: {error}")
                    continue
                self.chunks += 1  # submit() ships its request as one IPC chunk
                future.add_done_callback(stamp)
                inflight[future] = (family, sent, sequence)
            if not inflight:
                break
            finished, _ = concurrent.futures.wait(
                inflight, timeout=60, return_when=concurrent.futures.FIRST_COMPLETED
            )
            if not finished:
                raise RuntimeError("pool requests stalled for 60 s")
            for future in finished:
                self._collect(window, future, *inflight.pop(future), done_at, traced, not limit)
        window.busy_ns += _now() - started

    def _collect(
        self, window: Window, future, family: int, sent: int, sequence: int, done_at, traced,
        measured,
    ) -> None:
        error = future.exception()
        if error is not None:
            window.error(f"{type(error).__name__}: {error}")
            return
        served = future.result()
        finished = done_at.pop(future, None)
        while finished is None:  # the done-callback runs just after waiters wake
            time.sleep(0)
            finished = done_at.pop(future, None)
        latency = finished - sent
        digests = served.digests
        if self.corrupt and measured and window.attempted >= 3:
            self.corrupt = False
            digests = {name: value ^ 1 for name, value in digests.items()}
        record = self.records[family]
        if not (
            digests == record.digests
            and served.latency_ns == record.latency_ns
            and served.energy_nj == record.energy_nj
        ):
            window.error(f"output check failed on family {FAMILIES[family]}")
            return
        # Results can arrive out of order with several in flight; the modelled
        # prefix is the first requests *submitted*, so it repeats per seed.
        window.served(
            latency, family, served.latency_ns, served.energy_nj, sequence < window.prefix
        )
        if traced:
            self.transport_ns.append(latency - int((served.queue_wait_s + served.execute_s) * 1e9))
            self.sums.queue_wait_s.append(served.queue_wait_s)
            self.sums.batch_sizes.append(served.batch_size)
            self.sums.queries += self.family_queries[family]

    def stop_serving(self) -> None:
        if self.pool is not None:
            self.pool.close()
            for report in self.pool.worker_reports.values():
                self.worker_caches = report.get("cache_stats", {})
            self.warm_reports = list(self.pool.warm_reports)
            self.pool = None

    def layer_metrics(self, window: Window, ledger: Ledger) -> dict:
        metrics = ledger_metrics(window, ledger, self.sums, self.elements)
        metrics["pool.transport_us"] = (
            percentile(self.transport_ns, 0.5) / 1e3 if self.transport_ns else 0.0
        )
        metrics["pool.requests_per_chunk"] = window.completed / self.chunks if self.chunks else 0.0
        # Client latency splits into the worker's own queue wait and
        # execute time plus transport (the rest), so nothing is left over.
        metrics["ledger.unattributed_ratio"] = 0.0
        return metrics

    def finish_layer_metrics(self, metrics: dict, window: Window) -> None:
        super().finish_layer_metrics(metrics, window)
        loads = [report["load_time_s"] for report in self.warm_reports if report]
        metrics["store.warm_start_s"] = statistics.mean(loads) if loads else 0.0
        # The worker's memo counters since it started (warm start included);
        # the ``programs`` memo reports no lookups there, so it reads 0.
        for name in CACHE_LAYERS:
            layer = self.worker_caches.get(name, {})
            hits, misses = int(layer.get("hits", 0)), int(layer.get("misses", 0))
            metrics[f"cache.{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    def extra_layer_metrics(self) -> dict:
        """The ladder: hot one-at-a-time requests per rung, same inputs, interleaved rounds."""
        return asyncio.run(self._ladder())

    async def _ladder(self) -> dict:
        from repro.api.service import PlutoService
        from repro.api.session import compile_cached_with_key
        from repro.backend.compiled import compiled_exec_cached
        from repro.controller.executor import PlutoController

        controller = PlutoController(backend="vectorized")
        rungs = ("kernel", "controller", "session", "service", "pool")
        samples: dict = {rung: [[] for _ in self.programs] for rung in rungs}
        services = []
        prepared = []
        for program in self.programs:
            service = PlutoService(program.session)
            service.start()
            services.append(service)
            compiled, key = compile_cached_with_key(program.session.calls)
            prepared.append((compiled, key, compiled_exec_cached(compiled, structure_key=key)))
        try:
            for round_index in range(LADDER_ROUNDS + 1):  # one warm-up round
                for family, program in enumerate(self.programs):
                    compiled, key, executable = prepared[family]
                    inputs = program.inputs
                    for offset in range(len(rungs)):
                        rung = rungs[(round_index + offset) % len(rungs)]
                        started = _now()
                        for _ in range(LADDER_BATCH):
                            if rung == "kernel":
                                if executable.run_serve(dict(inputs)) is None:
                                    executable.run_finals(dict(inputs))
                            elif rung == "controller":
                                controller.execute(compiled, dict(inputs), structure_key=key)
                            elif rung == "session":
                                program.session.run(inputs)
                            elif rung == "service":
                                await services[family].submit(inputs)
                            else:
                                self.pool.submit(
                                    program.session, inputs, return_outputs=False
                                ).result(timeout=60)
                        if round_index:
                            samples[rung][family].append((_now() - started) / LADDER_BATCH)
        finally:
            for service in services:
                await service.close()
        return {
            f"ladder.{rung}_us": statistics.mean(
                statistics.median(family) for family in samples[rung]
            )
            / 1e3
            for rung in rungs
        }


# ---------------------------------------------------------------------- #
# service_cold_structures: a new program per request, PlutoService(plan="auto")
# ---------------------------------------------------------------------- #
class ColdServiceWorkload(Workload):
    """Closed loop, one request at a time, each carrying a new program.

    A slice is one pass over programs ``0 .. COLD_PASS - 1`` of the stream:
    the same shapes every pass, new contents (the pass's own variant), and
    empty caches at the start of every pass, as in a fresh process.  So
    every pass prices the same mix of cold work, its memory does not grow
    with the number of passes a host manages, and the window's first
    :data:`COLD_PREFIX_PASSES` passes serve the same programs for a seed
    whatever the host speed.
    """

    name = "service_cold_structures"
    elements = COLD_ELEMENTS
    # The planner breaks its near-ties (all candidates of these one-row
    # programs) with host-measured cost priors, so modelled energy varies
    # per request; the prefix spans several passes to average that out.
    prefix = COLD_PASS * COLD_PREFIX_PASSES

    def __init__(self, seed: int, work_dir: Path, corrupt: bool) -> None:
        super().__init__(seed, work_dir, corrupt)
        self.loop = asyncio.new_event_loop()
        self.service = None
        self.samples: list = []
        self.pass_programs: list = []
        self.variant_base = 0

    def setup(self) -> None:
        from repro.api.session import PlutoSession

        self.stop_serving()
        self._empty_caches()
        self.loop.run_until_complete(self._start(PlutoSession()))
        # Warm the code paths (imports, first calls) on programs outside
        # the measured stream; the caches are emptied again per pass.
        for index in range(3):
            program = cold_program(self.seed, index, variant=WARMUP_VARIANT)
            served = self.loop.run_until_complete(
                self.service.submit(program.inputs, session=program.session)
            )
            if not _outputs_match(served.outputs, program.expected):
                raise RuntimeError("warm-up request failed its output check")

    @staticmethod
    def _empty_caches() -> None:
        from repro.api.session import clear_all_caches
        from repro.plan.planner import reset_cost_priors

        clear_all_caches()
        reset_cost_priors()

    async def _start(self, session) -> None:
        from repro.api.service import PlutoService

        self.service = PlutoService(session, plan="auto", verify=True)
        self.service.start()

    def stop_serving(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.close())
            self.service = None

    def close(self) -> None:
        self.stop_serving()
        self.loop.close()

    def window(self, seconds: float, *, traced: bool = False) -> Window:
        self.variant_base = TRACED_VARIANT_BASE if traced else 0
        return super().window(seconds, traced=traced)

    def more_slices(self, index: int, deadline: int) -> bool:
        return index < COLD_PREFIX_PASSES or _now() < deadline

    def summary(self, window: Window, scaled: bool = True) -> tuple[float, float, float]:
        """Per program of the pass, the median latency over passes; then the
        rate, p50 and p99 over those medians.

        A pass is too short for a tail of its own (its p99 is its slowest
        program), and the passes serve different contents, so each program
        is first summarised over the passes that served it.
        """
        by_program: dict = {}
        for (first, end), slowdown in zip(window.bounds, window.slowdowns):
            factor = slowdown if scaled else 1.0
            for latency, key in zip(window.latencies_ns[first:end], window.keys[first:end]):
                by_program.setdefault(key, []).append(latency / factor)
        if not by_program:
            return 0.0, 0.0, 0.0
        medians = [statistics.median(latencies) for latencies in by_program.values()]
        return (
            len(medians) / (sum(medians) / 1e9),
            percentile(medians, 0.50),
            percentile(medians, 0.99),
        )

    def before_slice(self, index: int, traced: bool) -> None:
        """Untimed: empty the caches and generate the pass's programs."""
        self._empty_caches()
        variant = self.variant_base + index
        self.pass_programs = [
            cold_program(self.seed, number, variant=variant) for number in range(COLD_PASS)
        ]

    def run_slice(self, window: Window, seconds: float, index: int, traced: bool) -> None:
        self.loop.run_until_complete(self._pass(window, index, traced))

    async def _pass(self, window: Window, index: int, traced: bool) -> None:
        service = self.service
        for program in self.pass_programs:
            window.attempted += 1
            started = _now()
            try:
                served = await service.submit(program.inputs, session=program.session)
            except Exception as error:  # counted, reported, and the loop goes on
                window.busy_ns += _now() - started
                window.error(f"{type(error).__name__}: {error}")
                continue
            elapsed = _now() - started
            window.busy_ns += elapsed
            outputs = self._fault(served.outputs, window)
            if not _outputs_match(outputs, program.expected):
                window.error(
                    f"output check failed on cold program {self.variant_base + index}/"
                    f"{program.index}"
                )
                continue
            in_prefix = window.in_prefix
            window.served(elapsed, program.index, served.latency_ns, served.energy_nj)
            if (
                not traced
                and program.index % 5 == 1
                and len(self.samples) < COLD_ORACLE_SAMPLES
            ):
                self.samples.append((program, served))
            if traced:
                self._note(program, served, in_prefix)

    def _note(self, program, served, in_prefix: bool) -> None:
        sums = self.sums
        before, saved = _queries_before(program.session.calls, served.optimization)
        sums.queries += before
        sums.queries_saved += saved
        if served.planner is not None and not served.planner.cached:
            sums.candidates.append(len(served.planner.candidates))
        sums.queue_wait_s.append(served.queue_wait_s)
        sums.batch_sizes.append(served.batch_size)
        if in_prefix:
            sums.note_dram(dram_counts(served.result.trace))

    def oracle_failures(self, windows: list[Window]) -> int:
        failed = 0
        for program, served in self.samples:
            result = _functional_oracle(program.session, program.inputs, served.execution_plan)
            if not _same_result(served, result):
                print(f"oracle mismatch on cold program {program.index}", file=sys.stderr)
                failed += 1
        return failed

    def layer_metrics(self, window: Window, ledger: Ledger) -> dict:
        metrics = ledger_metrics(window, ledger, self.sums, self.elements)
        counted = max(1, self.sums.counted)
        metrics["dram.activations_per_request"] = self.sums.activations / counted
        metrics["dram.tfaw_stalls_per_request"] = self.sums.tfaw_windows / counted
        queue_wait_ns = sum(self.sums.queue_wait_s) * 1e9
        metrics["service.submit_self_us"] = (
            (ledger.self_ns["service.submit"] - queue_wait_ns) / 1e3 / max(1, window.completed)
        )
        return metrics


# ---------------------------------------------------------------------- #
# Ledger read-out shared by the workloads
# ---------------------------------------------------------------------- #
def ledger_metrics(window: Window, ledger: Ledger, sums: _LayerSums, elements: int) -> dict:
    """Per-layer metrics from the ledger's self times and the window's fields.

    Per-request times divide by the requests served; cold costs
    (``*_ms`` of lowering, templates, optimizer, verifier, planner) divide
    by the structures that missed the layer's memo, and read 0 when none
    did.  Metrics a workload does not exercise read 0.
    """
    requests = max(1, window.completed)
    caches = window.caches

    def per_request_us(layer: str) -> float:
        return ledger.self_ns[layer] / 1e3 / requests

    def per_new_structure_ms(layer: str, cache: str) -> float:
        misses = caches.get(cache, (0, 0, 0))[1]
        return ledger.self_ns[layer] / 1e6 / misses if misses else 0.0

    client_ns = sum(window.latencies_ns)
    metrics = {
        "backend.kernel_us": per_request_us("backend.kernel"),
        "backend.kernel_ns_per_element": ledger.self_ns["backend.kernel"] / (requests * elements),
        "backend.lower_ms": per_new_structure_ms("backend.lower", "compiled_exec"),
        "controller.execute_self_us": per_request_us("controller.execute"),
        "controller.dispatch_self_us": per_request_us("controller.dispatch"),
        "controller.template_build_ms": per_new_structure_ms(
            "controller.template", "trace_templates"
        ),
        "dram.schedule_us": per_request_us("dram.schedule"),
        "dram.activations_per_request": 0.0,
        "dram.tfaw_stalls_per_request": 0.0,
        "opt.optimize_ms": per_new_structure_ms("opt", "optimizer"),
        "analyze.verify_ms": per_new_structure_ms("analyze.verify", "verifier"),
        "plan.plan_ms": per_new_structure_ms("plan", "planner"),
        "plan.candidates_per_program": (
            statistics.mean(sums.candidates) if sums.candidates else 0.0
        ),
        "opt.lut_queries_saved_ratio": sums.queries_saved / sums.queries if sums.queries else 0.0,
        "plan.auto_hot_us": 0.0,
        "session.prepare_us": 0.0,
        "service.queue_wait_us": (
            percentile(sums.queue_wait_s, 0.5) * 1e6 if sums.queue_wait_s else 0.0
        ),
        "service.submit_self_us": 0.0,
        "service.batch_size": statistics.mean(sums.batch_sizes) if sums.batch_sizes else 0.0,
        "pool.transport_us": 0.0,
        "pool.requests_per_chunk": 0.0,
        "store.warm_start_s": 0.0,
        "ledger.unattributed_ratio": (
            1.0 - ledger.total_self_ns() / client_ns if client_ns else 0.0
        ),
    }
    for name in CACHE_LAYERS:
        hits, misses, lookups = caches.get(name, (0, 0, 0))
        metrics[f"cache.{name}.hit_ratio"] = hits / lookups if lookups else 0.0
    for rung in ("kernel", "controller", "session", "service", "pool"):
        metrics[f"ladder.{rung}_us"] = 0.0
    return metrics


def traced_window(workload: Workload, seconds: float) -> tuple[Window, Ledger]:
    """Run one window with the ledger installed."""
    ledger = Ledger()
    workload.ledger = ledger
    with ledger:
        window = workload.window(seconds, traced=True)
    return window, ledger


def build(name: str, seed: int, work_dir: Path, corrupt: bool) -> Workload:
    if name == "pool_hot_small":
        return PoolWorkload(seed, work_dir, corrupt)
    if name == "session_bulk":
        return SessionWorkload(name, None, seed, work_dir, corrupt)
    if name == "session_sharded_auto":
        return SessionWorkload(name, "auto", seed, work_dir, corrupt)
    if name == "service_cold_structures":
        return ColdServiceWorkload(seed, work_dir, corrupt)
    raise KeyError(name)
