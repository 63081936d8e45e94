"""The pLUTo Library session: ``pluto_malloc`` and the ``api_pluto_*`` routines.

A :class:`PlutoSession` records the program a user expresses with library
calls (Figure 5 b).  The session builds the symbolic call list; the pLUTo
Compiler turns it into ISA instructions and the pLUTo Controller executes
those on the functional engine.

The session is also the execution front door: :meth:`PlutoSession.run`
compiles (through a process-wide compiled-program cache keyed on program
*structure*, so equal-shaped sessions compile once) and executes on the
session's selected backend — the vectorized NumPy fast path by default,
or the bit-exact subarray row-sweep path with ``backend="functional"``.
:meth:`PlutoSession.run_batch` submits many input sets against one
compiled program, and :func:`execute_batch` submits many whole programs,
deduplicating compilation across them.  Every execution exposes the same
:class:`~repro.controller.executor.ExecutionResult` with its full command
trace, whichever backend produced it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.api.handles import ApiCall, PlutoVector
from repro.api.luts import BITWISE_OPERATIONS, add_lut, bitwise_lut, multiply_lut
from repro.core.lut import LookupTable
from repro.errors import ConfigurationError, VerificationError
from repro.obs.trace import activate, deactivate, new_trace, span_of, stage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.analyze.diagnostics import VerificationReport
    from repro.api.service import PlutoService
    from repro.backend.base import ExecutionBackend
    from repro.compiler.lowering import CompiledProgram
    from repro.controller.dispatch import ShardedExecutionResult
    from repro.controller.executor import ExecutionResult
    from repro.controller.hierarchy import HierarchicalExecutionResult
    from repro.core.engine import PlutoEngine
    from repro.obs.trace import RequestTrace
    from repro.opt.pipeline import OptimizedProgram
    from repro.plan.execution_plan import ExecutionPlan
    from repro.plan.planner import PlannerReport
    from repro.plan.prepare import PreparedProgram

__all__ = [
    "PlutoSession",
    "BatchResult",
    "execute_batch",
    "program_structure_key",
    "compile_cached",
    "compile_cached_with_key",
    "seed_program_cache",
    "clear_program_cache",
    "clear_all_caches",
    "program_cache_size",
    "cache_stats",
]


#: Process-wide compiled-program cache: structure key -> CompiledProgram.
_PROGRAM_CACHE: dict[tuple, "CompiledProgram"] = {}


def program_structure_key(calls: Sequence[ApiCall]) -> tuple:
    """Hashable program-structure key (see :mod:`repro.compiler.lowering`)."""
    from repro.compiler.lowering import program_structure_key as _key

    return _key(list(calls))


#: Sentinel distinguishing "compute the key" from "known unhashable".
_KEY_UNSET: object = object()


def hashable_structure_key(calls: Sequence[ApiCall]) -> "tuple | None":
    """The program structure key, or ``None`` when it is not hashable.

    The one hashability probe of the stack:
    :func:`repro.plan.prepare.prepare` computes it once per request and
    threads it through the planner, optimizer, verifier and compile
    memos, so no layer rebuilds the key on the hot path.
    """
    from repro.compiler.lowering import program_structure_key as _key

    try:
        key = _key(calls)
        # The key tuple builds fine around unhashable parameter values
        # and only fails at hash time — probe before handing it out.
        hash(key)
        return key
    except TypeError:
        return None


def compile_cached_with_key(
    calls: Sequence[ApiCall],
    key: "tuple | None | object" = _KEY_UNSET,
) -> "tuple[CompiledProgram, tuple | None]":
    """Compile a call list and return it with its structure key.

    The key is what downstream warm-state layers (trace templates, the
    whole-program compiled closures) memoize on, so the execution front
    doors thread it through to the controller.  Falls back to an
    uncached compile — and a ``None`` key — when the structure key is
    not hashable (e.g. a call carries list-valued parameters).  Callers
    that already hold the key (``None`` meaning "known unhashable") pass
    it to skip the recomputation.  Only actual compilations open a
    ``compile`` span.
    """
    from repro.compiler.lowering import PlutoCompiler

    if key is _KEY_UNSET:
        key = hashable_structure_key(calls)
    compiled = None if key is None else _PROGRAM_CACHE.get(key)
    if compiled is None:
        with stage("compile"):
            compiled = PlutoCompiler().compile(list(calls))
        if key is not None:
            _PROGRAM_CACHE[key] = compiled
    return compiled, key


def compile_cached(calls: Sequence[ApiCall]) -> "CompiledProgram":
    """Compile a call list, reusing structurally identical past compiles."""
    return compile_cached_with_key(calls)[0]


def seed_program_cache(key: tuple, compiled: "CompiledProgram") -> None:
    """Install a compiled program under ``key`` (shared-store warm start).

    The warm-start path of :mod:`repro.serve.store` uses this to make a
    fresh process's first compile of a known structure a cache hit.
    """
    _PROGRAM_CACHE[key] = compiled


def clear_program_cache() -> None:
    """Drop every cached compiled program.

    Only the compiled-program cache is cleared; the memoized LUT builders
    (:mod:`repro.api.luts`) and the gather-array cache
    (:mod:`repro.core.lut`) keep their entries.
    """
    _PROGRAM_CACHE.clear()


def program_cache_size() -> int:
    """Number of distinct program structures currently cached."""
    return len(_PROGRAM_CACHE)


def cache_stats() -> dict[str, dict]:
    """Hit/miss statistics of every memo layer in the execution stack.

    One snapshot covering the process-wide caches that make repeated and
    sharded execution cheap: compiled programs (structure-keyed), trace
    templates (fused dispatch), the scheduler makespan memo with its
    exact-fast-merge/reference split, the hierarchical-schedule memo, the
    cached pure per-engine helpers, and the LUT gather arrays.  Also
    exposed as :meth:`PlutoSession.cache_stats` and through
    :meth:`~repro.api.service.ServiceStats.cache_stats`, so the serving
    layer can report memo effectiveness.
    """
    from repro.analyze.verifier import verifier_cache_stats
    from repro.backend.compiled import compiled_exec_stats
    from repro.controller.dispatch import engine_helper_cache_stats
    from repro.controller.executor import trace_template_stats
    from repro.controller.hierarchy import hierarchy_cache_stats
    from repro.core.lut import gather_cache_size
    from repro.dram.analytic import merge_cache_stats
    from repro.opt.compose import compose_cache_stats
    from repro.opt.pipeline import optimizer_cache_stats
    from repro.obs.metrics import record_cache_stats
    from repro.plan.planner import planner_cache_stats
    from repro.serve.store import shared_store_stats

    stats = {
        "programs": {"size": program_cache_size()},
        "shared_store": shared_store_stats(),
        "verifier": verifier_cache_stats(),
        "optimizer": optimizer_cache_stats(),
        "planner": planner_cache_stats(),
        "lut_compositions": compose_cache_stats(),
        "trace_templates": trace_template_stats(),
        "compiled_exec": compiled_exec_stats(),
        "scheduler_merges": merge_cache_stats(),
        "hierarchy_schedules": hierarchy_cache_stats(),
        "engine_helpers": engine_helper_cache_stats(),
        "lut_gather_arrays": {"size": gather_cache_size()},
    }
    # Mirror every snapshot into the unified metrics registry
    # (``pluto_cache_*`` gauges) without changing the dict shape callers
    # have always consumed.
    record_cache_stats(stats)
    return stats


def clear_all_caches() -> None:
    """Drop every process-wide memo layer of the execution stack.

    One call covering everything :func:`cache_stats` reports — compiled
    programs, the optimizer memo, composed LUTs, trace templates, the
    whole-program compiled closures, scheduler merges, hierarchical
    schedules, the pure per-engine helpers, and the LUT gather arrays —
    so tests and long-running services stop clearing layers one by one
    (and new layers are covered automatically).
    """
    from repro.analyze.verifier import clear_verifier_cache
    from repro.backend.compiled import clear_compiled_programs
    from repro.controller.dispatch import clear_engine_helper_caches
    from repro.controller.executor import clear_trace_templates
    from repro.controller.hierarchy import clear_hierarchy_cache
    from repro.core.lut import clear_gather_cache
    from repro.dram.analytic import clear_merge_cache
    from repro.opt.compose import clear_compose_cache
    from repro.opt.pipeline import clear_optimizer_cache
    from repro.plan.planner import clear_planner_cache
    from repro.serve.store import reset_shared_store_stats

    clear_program_cache()
    reset_shared_store_stats()
    clear_verifier_cache()
    clear_optimizer_cache()
    clear_planner_cache()
    clear_compose_cache()
    clear_trace_templates()
    clear_compiled_programs()
    clear_merge_cache()
    clear_hierarchy_cache()
    clear_engine_helper_caches()
    clear_gather_cache()


@dataclass
class BatchResult:
    """Results of a batched submission: one ExecutionResult per job.

    ``makespan_ns`` is set when the batch ran bank-parallel
    (``run_batch(..., parallel=True)``): the per-job command streams are
    merged through the timing-aware
    :class:`~repro.dram.scheduler.CommandScheduler`, so it reflects
    cross-bank tRRD/tFAW contention instead of a naive per-job sum.  The
    sum stays available as :attr:`serial_latency_ns`.
    """

    results: "list[ExecutionResult]"
    #: Scheduler-derived makespan of a bank-parallel batch (None when the
    #: jobs genuinely ran back to back in one bank).
    makespan_ns: float | None = None
    #: The concrete plan the batch ran under (set by ``run_batch``).
    execution_plan: "ExecutionPlan | None" = None
    #: The auto-planner's report when the plan came from ``plan="auto"``.
    planner: "PlannerReport | None" = None
    #: Span tree of the batch run (``None`` unless tracing is enabled).
    request_trace: "RequestTrace | None" = None

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> "ExecutionResult":
        return self.results[index]

    @property
    def outputs(self) -> list[dict[str, np.ndarray]]:
        """Per-job output dictionaries, in submission order."""
        return [result.outputs for result in self.results]

    @property
    def serial_latency_ns(self) -> float:
        """Modelled latency summed over every job (single-bank execution)."""
        return sum(result.latency_ns for result in self.results)

    @property
    def total_latency_ns(self) -> float:
        """Modelled latency of the whole batch.

        The scheduler-derived makespan for bank-parallel batches; for
        serial batches the jobs run back to back, so the makespan *is*
        the per-job sum.
        """
        if self.makespan_ns is not None:
            return self.makespan_ns
        return self.serial_latency_ns

    @property
    def total_energy_nj(self) -> float:
        """Modelled energy summed over every job in the batch."""
        return sum(result.energy_nj for result in self.results)

    @property
    def lut_queries(self) -> int:
        """LUT queries executed across the whole batch."""
        return sum(result.lut_queries for result in self.results)


@dataclass
class PlutoSession:
    """Builds a pLUTo API program: allocations plus recorded library calls.

    ``backend`` selects how :meth:`run` executes the program:
    ``"vectorized"`` (default, NumPy fast path) or ``"functional"``
    (bit-exact subarray row sweeps).
    """

    vectors: list[PlutoVector] = field(default_factory=list)
    calls: list[ApiCall] = field(default_factory=list)
    _counter: int = 0
    backend: "str | ExecutionBackend" = "vectorized"

    # ------------------------------------------------------------------ #
    # Memory allocation (Section 6.2, "Memory Allocation")
    # ------------------------------------------------------------------ #
    def pluto_malloc(self, size: int, bit_width: int, name: str | None = None) -> PlutoVector:
        """Allocate a pLUTo-resident vector of ``size`` ``bit_width``-bit elements."""
        if size <= 0:
            raise ConfigurationError(
                f"pluto_malloc needs a positive element count, got {size}"
            )
        if bit_width <= 0:
            raise ConfigurationError(
                f"pluto_malloc needs a positive bit width, got {bit_width}"
            )
        taken = {vector.name for vector in self.vectors}
        if name is None:
            # Skip over auto-names the user has already claimed explicitly.
            while f"v{self._counter}" in taken:
                self._counter += 1
            name = f"v{self._counter}"
            self._counter += 1
        elif name in taken:
            raise ConfigurationError(f"a vector named {name!r} already exists")
        vector = PlutoVector(name=name, size=size, bit_width=bit_width)
        self.vectors.append(vector)
        return vector

    # ------------------------------------------------------------------ #
    # Computation routines (Section 6.2, "Computation")
    # ------------------------------------------------------------------ #
    def _record(self, call: ApiCall) -> ApiCall:
        self.calls.append(call)
        return call

    def api_pluto_add(
        self, in1: PlutoVector, in2: PlutoVector, out: PlutoVector, bit_width: int
    ) -> ApiCall:
        """Element-wise addition via a concatenated-operand LUT query."""
        self._check_operand_width(in1, in2, bit_width)
        lut = add_lut(bit_width)
        self._check_output_width(out, lut)
        return self._record(
            ApiCall(
                operation="add",
                inputs=(in1, in2),
                output=out,
                lut=lut,
                parameters={"bit_width": bit_width},
            )
        )

    def api_pluto_mul(
        self, in1: PlutoVector, in2: PlutoVector, out: PlutoVector, bit_width: int
    ) -> ApiCall:
        """Element-wise multiplication via a concatenated-operand LUT query."""
        self._check_operand_width(in1, in2, bit_width)
        lut = multiply_lut(bit_width)
        self._check_output_width(out, lut)
        return self._record(
            ApiCall(
                operation="mul",
                inputs=(in1, in2),
                output=out,
                lut=lut,
                parameters={"bit_width": bit_width},
            )
        )

    def api_pluto_map(
        self, lut: LookupTable, source: PlutoVector, out: PlutoVector
    ) -> ApiCall:
        """Apply an arbitrary unary LUT to every element (the generic query)."""
        if source.bit_width < lut.index_bits:
            raise ConfigurationError(
                f"vector {source.name!r} ({source.bit_width}-bit) cannot index a "
                f"{lut.num_entries}-entry LUT"
            )
        self._check_output_width(out, lut)
        return self._record(
            ApiCall(operation="map", inputs=(source,), output=out, lut=lut)
        )

    def api_pluto_bitwise(
        self,
        operation: str,
        in1: PlutoVector,
        in2: PlutoVector | None,
        out: PlutoVector,
    ) -> ApiCall:
        """Row-level bitwise logic (lowered to Ambit-style in-DRAM operations)."""
        operation = operation.lower()
        if operation == "not":
            inputs: tuple[PlutoVector, ...] = (in1,)
        else:
            self._check_bitwise_operation(operation, unary_allowed=True)
            if in2 is None:
                raise ConfigurationError(f"bitwise {operation!r} needs two inputs")
            inputs = (in1, in2)
        return self._record(
            ApiCall(operation=operation, inputs=inputs, output=out)
        )

    def api_pluto_bitwise_lut(
        self, operation: str, in1: PlutoVector, in2: PlutoVector, out: PlutoVector
    ) -> ApiCall:
        """Bitwise logic expressed as a LUT query (the paper's 4-entry LUTs)."""
        operation = operation.lower()
        self._check_bitwise_operation(operation)
        lut = bitwise_lut(operation, 1)
        self._check_output_width(out, lut)
        return self._record(
            ApiCall(
                operation=f"{operation}_lut",
                inputs=(in1, in2),
                output=out,
                lut=lut,
                parameters={"bit_width": 1},
            )
        )

    def api_pluto_shift(
        self, target: PlutoVector, out: PlutoVector, bits: int, direction: str = "l"
    ) -> ApiCall:
        """Element-wise shift (lowered to DRISA shift commands)."""
        if direction not in ("l", "r"):
            raise ConfigurationError("shift direction must be 'l' or 'r'")
        if bits < 0:
            raise ConfigurationError("shift amount must be non-negative")
        return self._record(
            ApiCall(
                operation="shift",
                inputs=(target,),
                output=out,
                parameters={"bits": bits, "direction": direction},
            )
        )

    def api_pluto_move(self, source: PlutoVector, out: PlutoVector) -> ApiCall:
        """In-DRAM copy of a vector (RowClone / LISA)."""
        return self._record(ApiCall(operation="move", inputs=(source,), output=out))

    # ------------------------------------------------------------------ #
    # Compilation and execution (Section 6.3/6.4 through the backend layer)
    # ------------------------------------------------------------------ #
    def compile(self) -> "CompiledProgram":
        """Compile the recorded calls (cached by program structure)."""
        return compile_cached(self.calls)

    def verify(self) -> "VerificationReport":
        """Statically verify the recorded program (API + lowered ISA).

        Returns the :class:`~repro.analyze.diagnostics.VerificationReport`
        with every finding — it does **not** raise; callers that want the
        rejecting behaviour chain ``.raise_if_errors()``.  Reports are
        memoized on the program structure key, so verifying a served
        shape repeatedly costs a dict hit.
        """
        from repro.analyze.verifier import verify_cached

        return verify_cached(self.calls)

    def optimize(self) -> "OptimizedProgram":
        """Run the program optimizer over the recorded calls.

        Returns an :class:`~repro.opt.pipeline.OptimizedProgram` — the
        rewritten call list (LUT chains fused, duplicates reused, dead
        ops dropped, tables deduplicated) plus the
        :class:`~repro.opt.report.OptimizationReport` accounting for the
        saved sweeps.  Results are memoized on the program structure
        key, so the hot serving path optimizes each shape once.  The
        optimized program's outputs are bit-identical to this session's.
        """
        from repro.opt.pipeline import optimize_cached

        return optimize_cached(self.calls)

    def _prepare(
        self,
        engine: "PlutoEngine | None",
        plan: "ExecutionPlan | str | None",
        *,
        modes: tuple[str, ...],
    ) -> "PreparedProgram":
        """The shared preparation path, with this session's program and backend.

        Verification follows the engine's ``PlutoConfig(verify=...)``
        mode (off without an engine).
        """
        from repro.plan.prepare import prepare

        return prepare(self.calls, engine, plan, backend=self.backend, modes=modes)

    @staticmethod
    def _finish_trace(trace: "RequestTrace | None", result: "ExecutionResult") -> None:
        """Annotate a run's trace with its hardware attribution and attach it."""
        if trace is None:
            return
        from repro.obs.metrics import request_accounting

        command_trace = getattr(result, "trace", None)
        if command_trace is not None:
            trace.annotate(
                latency_ns=result.latency_ns,
                backend=result.backend,
                **request_accounting(command_trace),
            )
        result.request_trace = trace

    def run(
        self,
        inputs: Mapping[str, np.ndarray],
        *,
        engine: "PlutoEngine | None" = None,
        plan: "ExecutionPlan | str | None" = None,
    ) -> "ExecutionResult | ShardedExecutionResult":
        """Compile (cached) and execute this program on the session backend.

        ``engine`` selects the pLUTo configuration (design/memory); the
        default is pLUTo-BSA on DDR4.  The returned
        :class:`ExecutionResult` carries the outputs and the full command
        trace, identically for every backend.

        ``plan`` is the unified execution front door: an
        :class:`~repro.plan.ExecutionPlan` describing the shard count,
        hierarchy placement and optimizer — or the
        string ``"auto"``, which hands the choice to the cost-based
        planner (candidates priced with the analytic makespan model,
        chosen plans memoized on the program structure key; the result
        then carries a :class:`~repro.plan.PlannerReport` as
        ``result.planner``).  ``None`` defers to the engine's
        ``PlutoConfig(plan=...)`` default.  Outputs are bit-identical
        whichever plan executes.

        Sharded plans partition the element space across DRAM banks and
        execute bank-parallel — in one fused batched pass on
        batched-capable backends (the vectorized default) — and
        ``latency_ns`` becomes the scheduler-derived makespan under
        cross-bank tRRD/tFAW contention; hierarchical plans additionally
        spread shards over channels and ranks.  A plan with
        ``optimize=True`` runs the program optimizer (:mod:`repro.opt`)
        before compilation, with the
        :class:`~repro.opt.report.OptimizationReport` on
        ``result.optimization``.
        """
        from repro.plan.prepare import ALL_MODES, Executors, execute

        trace = new_trace("session.run")
        token = activate(trace)
        try:
            prepared = self._prepare(engine, plan, modes=ALL_MODES)
            with span_of(trace, "execute"):
                result = execute(prepared, inputs, Executors(engine))
        finally:
            deactivate(token)
        self._finish_trace(trace, result)
        return result

    def run_batch(
        self,
        batch: Iterable[Mapping[str, np.ndarray]],
        *,
        engine: "PlutoEngine | None" = None,
        parallel: bool = False,
        plan: "ExecutionPlan | str | None" = None,
    ) -> BatchResult:
        """Execute this program once per input set in ``batch``.

        The program is prepared once and the controller (and therefore
        the backend with its cached LUT arrays) is reused across the whole
        batch.  With ``parallel=True`` the jobs are placed round-robin
        across the module's banks and the batch's ``total_latency_ns``
        becomes the scheduler-derived makespan of the merged command
        streams (the naive sum stays available as ``serial_latency_ns``).

        ``plan`` accepts an :class:`~repro.plan.ExecutionPlan` or
        ``"auto"`` exactly as in :meth:`run`, restricted to unsharded
        plans — each job is one whole program; per-job sharding goes
        through :meth:`run`.
        """
        from repro.plan.prepare import Executors, execute

        trace = new_trace("session.run_batch")
        token = activate(trace)
        try:
            prepared = self._prepare(engine, plan, modes=("single",))
            if prepared.sharded:
                raise ConfigurationError(
                    "run_batch executes each job as one unsharded program; "
                    "sharded/hierarchical plans go through run()"
                )
            executors = Executors(engine)
            makespan = None
            if not parallel:
                with span_of(trace, "execute") as span:
                    results = [
                        execute(prepared, inputs, executors) for inputs in batch
                    ]
                    span.set(jobs=len(results))
            else:
                from repro.controller.dispatch import merged_makespan_ns

                jobs = list(batch)
                num_banks = executors.engine.geometry.banks
                if len(jobs) > num_banks:
                    # Placement clamps to the available banks: jobs beyond
                    # the bank count wrap round-robin and run back to back
                    # in their bank, which the merged makespan reflects.
                    # Warn so callers expecting one bank per job notice the
                    # serialization.
                    warnings.warn(
                        f"run_batch(parallel=True) got {len(jobs)} jobs for a "
                        f"module with {num_banks} banks; jobs wrap round-robin "
                        "and serialize within each bank",
                        stacklevel=2,
                    )
                with span_of(trace, "execute") as span:
                    results = [
                        execute(
                            prepared, inputs, executors, bank=index % num_banks
                        )
                        for index, inputs in enumerate(jobs)
                    ]
                    span.set(jobs=len(results), parallel=True)
                with span_of(trace, "schedule"):
                    makespan = merged_makespan_ns(
                        [result.trace.commands for result in results],
                        executors.engine,
                    )
        finally:
            deactivate(token)
        batch_result = BatchResult(
            results=results,
            makespan_ns=makespan,
            execution_plan=prepared.plan,
            request_trace=trace,
        )
        if prepared.planner is not None:
            batch_result.planner = prepared.planner.with_measured(
                batch_result.total_latency_ns
            )
        return batch_result

    def run_hierarchical(
        self,
        inputs: Mapping[str, np.ndarray],
        *,
        engine: "PlutoEngine | None" = None,
        plan: "ExecutionPlan | str | None" = None,
    ) -> "HierarchicalExecutionResult":
        """Execute this program spread over the full DRAM hierarchy.

        Shards are placed channel-first across the engine's channels,
        ranks, bank groups, and banks (pass an engine built from a
        ``PlutoConfig(channels=..., ranks=...)`` to model more than the
        Table 3 single-channel module).  Outputs are bit-identical to
        :meth:`run`; ``latency_ns`` is the hierarchical makespan and the
        result decomposes the speedup per level.

        ``plan`` follows :meth:`run` but is forced hierarchical:
        explicit plans may narrow the placement
        (``ExecutionPlan(hierarchical=True, channels=..., ranks=...)``)
        or pin the shard count (by default one shard per bank in the
        device), and ``"auto"`` searches hierarchical candidates only.
        """
        from dataclasses import replace

        from repro.plan.prepare import Executors, execute, request_plan

        resolved = request_plan(plan, engine)
        if not resolved.is_auto and not resolved.hierarchical:
            resolved = replace(resolved, hierarchical=True)
        trace = new_trace("session.run_hierarchical")
        token = activate(trace)
        try:
            prepared = self._prepare(engine, resolved, modes=("hierarchy",))
            if not prepared.plan.hierarchical:
                raise ConfigurationError(
                    "run_hierarchical needs a hierarchical plan; got "
                    f"{prepared.plan.label()!r}"
                )
            with span_of(trace, "execute"):
                result = execute(prepared, inputs, Executors(engine))
        finally:
            deactivate(token)
        self._finish_trace(trace, result)
        return result  # type: ignore[return-value]

    def serve(
        self,
        *,
        engine: "PlutoEngine | None" = None,
        max_queue: int = 64,
        max_batch: int = 16,
        plan: "ExecutionPlan | str | None" = None,
        verify: bool = True,
    ) -> "PlutoService":
        """An async serving frontend bound to this session's program.

        Returns a :class:`~repro.api.service.PlutoService` (use it as an
        async context manager) with a bounded request queue, structure-key
        batch coalescing, and per-request latency accounting.

        ``plan`` is the service-wide execution plan (see :meth:`run`);
        ``"auto"`` plans each distinct request structure once through the
        cost-based planner.  ``verify=True`` (the default) rejects
        malformed request programs at submission with
        :class:`~repro.errors.VerificationError` carrying the verifier's
        diagnostics.  See :mod:`repro.api.service`.
        """
        from repro.api.service import PlutoService

        return PlutoService(
            self,
            engine=engine,
            max_queue=max_queue,
            max_batch=max_batch,
            plan=plan,
            verify=verify,
        )

    @staticmethod
    def cache_stats() -> dict[str, dict]:
        """Hit/miss statistics of the process-wide execution caches.

        See :func:`cache_stats` — compiled programs, trace templates, the
        scheduler makespan memo, hierarchical schedules, per-engine
        helpers, and LUT gather arrays.
        """
        return cache_stats()

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_operand_width(in1: PlutoVector, in2: PlutoVector, bit_width: int) -> None:
        """Reject narrow operands with the verifier's own diagnostic.

        The condition is the one :func:`repro.analyze.verify_calls`
        reports as ``operand-width``; building the record through the
        shared helper keeps the record-time rejection and the verifier
        report word-for-word identical.
        """
        from repro.analyze.verifier import operand_width_diagnostic

        if bit_width <= 0:
            raise ConfigurationError("operand bit width must be positive")
        diagnostics = [
            diagnostic
            for vector in (in1, in2)
            for diagnostic in (operand_width_diagnostic(vector, bit_width),)
            if diagnostic is not None
        ]
        if diagnostics:
            raise VerificationError(diagnostics, subject="API call")

    @staticmethod
    def _check_output_width(out: PlutoVector, lut: LookupTable) -> None:
        """Reject narrow outputs with the verifier's ``narrow-output`` record."""
        from repro.analyze.verifier import narrow_output_diagnostic

        diagnostic = narrow_output_diagnostic(out, lut)
        if diagnostic is not None:
            raise VerificationError((diagnostic,), subject="API call")

    @staticmethod
    def _check_bitwise_operation(operation: str, *, unary_allowed: bool = False) -> None:
        if operation not in BITWISE_OPERATIONS:
            expected = f"one of {sorted(BITWISE_OPERATIONS)}"
            if unary_allowed:
                expected = f"'not' or {expected}"
            raise ConfigurationError(
                f"unsupported bitwise operation {operation!r}; expected {expected}"
            )


def execute_batch(
    jobs: Sequence[tuple[PlutoSession, Mapping[str, np.ndarray]]],
    *,
    engine: "PlutoEngine | None" = None,
    backend: "str | ExecutionBackend | None" = None,
) -> BatchResult:
    """Execute many (session, inputs) jobs, deduplicating compilation.

    Structurally identical programs in the batch compile once (the
    process-wide program cache is keyed on program structure), and one
    controller per backend is shared across all jobs so LUT gather arrays
    are reused.  ``backend`` overrides every session's own selection when
    given.  Every job runs unoptimized and unverified on one bank,
    whatever the engine's default plan, optimize and verify settings.
    """
    from repro.plan.execution_plan import ExecutionPlan
    from repro.plan.prepare import Executors, execute, prepare

    executors = Executors(engine)
    single_bank = ExecutionPlan(optimize=False)
    results = []
    for session, inputs in jobs:
        selection = backend if backend is not None else session.backend
        prepared = prepare(session.calls, engine, single_bank, backend=selection, verify=False)
        results.append(execute(prepared, inputs, executors))
    return BatchResult(results=results)
