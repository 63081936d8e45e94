"""One request-preparation path for every execution front door.

In the paper a program goes from library calls through the pLUTo
compiler to the controller one way (Section 6).  :func:`prepare` is that
way up to the compiler: it resolves the execution plan (through the
cost-based planner for ``"auto"``), runs the program optimizer when the
plan asks for it, compiles it (cached on the program structure) and
statically verifies the program that will execute.  :func:`execute`
then runs it on the executor the concrete plan names: the plain
controller for unsharded plans, the one sharded dispatcher
(:class:`~repro.controller.hierarchy.HierarchicalDispatcher`) for every
sharded plan — a flat ``shards=k`` plan is its 1 channel x 1 rank
placement.

``PlutoSession.run*``, ``PlutoService``, ``EvaluationHarness.execute_program``
and the shared artifact store all call these, so what the store persists
is exactly what the front doors execute.  The program structure key is
computed once per request and handed to every memo layer.

The memoized pipeline stages (``plan_program``, ``optimize_cached``,
``verify_cached``, ``compile_cached_with_key``) are looked up from their
modules at call time, so instrumentation that wraps those module
attributes sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence, TypeVar, cast

import numpy as np

import repro.analyze.verifier as verifier
import repro.api.session as session
import repro.opt.pipeline as pipeline
import repro.plan.planner as planner
from repro.backend.base import resolve_backend
from repro.errors import ReproError
from repro.obs.trace import stage
from repro.plan.execution_plan import ExecutionPlan, resolve_plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analyze.diagnostics import VerificationReport
    from repro.api.handles import ApiCall
    from repro.backend.base import ExecutionBackend
    from repro.compiler.lowering import CompiledProgram
    from repro.controller.executor import ExecutionResult, PlutoController
    from repro.controller.hierarchy import HierarchicalDispatcher
    from repro.core.engine import PlutoEngine
    from repro.opt.pipeline import OptimizedProgram
    from repro.opt.report import OptimizationReport
    from repro.plan.planner import PlannedExecution, PlannerReport

__all__ = [
    "ALL_MODES",
    "PreparedProgram",
    "Executors",
    "request_plan",
    "prepare",
    "execute",
    "execute_fused",
]

#: Every geometry family the planner may choose from.
ALL_MODES: tuple[str, ...] = ("single", "banks", "hierarchy")

_Executor = TypeVar("_Executor")


@dataclass
class PreparedProgram:
    """Everything one request needs before its inputs arrive.

    ``calls`` is the program that executes (post-optimization when the
    plan optimizes) and ``structure_key`` its structure key; ``None``
    means the structure is unhashable and every memo is bypassed.
    ``source_key`` is the key of the recorded program the request came
    with.
    """

    #: The concrete plan (auto plans resolved by the planner).
    plan: ExecutionPlan
    calls: "tuple[ApiCall, ...]"
    structure_key: "tuple[object, ...] | None"
    source_key: "tuple[object, ...] | None"
    backend: "str | ExecutionBackend"
    #: The compiled program (``None`` when the compiler rejected it).
    compiled: "CompiledProgram | None" = None
    #: The planner's decision when the request plan was ``"auto"``.
    planned: "PlannedExecution | None" = None
    #: The memoized optimization when the plan optimizes.
    optimized: "OptimizedProgram | None" = None
    #: The verifier's report when verification ran (a warm verdict
    #: skips it).
    verification: "VerificationReport | None" = None

    @property
    def planner(self) -> "PlannerReport | None":
        return self.planned.report if self.planned is not None else None

    @property
    def optimization(self) -> "OptimizationReport | None":
        return self.optimized.report if self.optimized is not None else None

    @property
    def sharded(self) -> bool:
        """Whether the plan spreads the program over several banks."""
        return self.plan.sharded


def request_plan(plan: "ExecutionPlan | str | None", engine: "PlutoEngine | None") -> ExecutionPlan:
    """A ``plan=`` argument as a plan; ``None`` defers to the engine config."""
    if plan is None and engine is not None:
        plan = engine.config.plan
    return resolve_plan(plan)


def prepare(
    calls: "Sequence[ApiCall]",
    engine: "PlutoEngine | None" = None,
    plan: "ExecutionPlan | str | None" = None,
    *,
    backend: "str | ExecutionBackend" = "vectorized",
    modes: tuple[str, ...] = ALL_MODES,
    verify: bool | None = None,
    subject: str = "program",
) -> PreparedProgram:
    """Plan, optimize and verify ``calls`` for execution on ``engine``.

    ``plan`` follows :func:`request_plan`; ``"auto"`` plans search the
    geometry families in ``modes`` for ``backend``.  A plan whose
    ``optimize`` is ``None`` optimizes iff the engine config says so.
    ``verify`` raises :class:`~repro.errors.VerificationError` on any
    error-severity finding in the program that will execute; ``None``
    follows the engine's ``PlutoConfig(verify=...)`` mode (off without
    an engine).  ``subject`` labels planner and verifier reports.

    An unsharded program is compiled here (cached on its structure key);
    a sharded one only when verifying.  A clean verdict rides the cached
    compiled program, so a warm verified request costs one attribute
    check and shows no ``verify`` span.  A compiler error does not raise
    here: :func:`execute` compiles again and raises it where execution
    errors surface (verification, when on, reports its diagnostics
    first).
    """
    chosen = request_plan(plan, engine)
    source_key = session.hashable_structure_key(calls)
    planned: PlannedExecution | None = None
    if chosen.is_auto:
        with stage("plan") as plan_span:
            planned = planner.plan_program(
                calls,
                engine,
                request=chosen,
                modes=modes,
                supports_batched=resolve_backend(backend).supports_batched,
                subject=subject,
                key=source_key,
            )
            plan_span.set(cached=planned.report.cached)
        chosen = planned.plan
    optimize = chosen.optimize
    if optimize is None:
        optimize = engine is not None and engine.config.optimize
    optimized: OptimizedProgram | None = None
    executed, key = tuple(calls), source_key
    if optimize:
        with stage("optimize"):
            optimized = pipeline.optimize_cached(calls, key=source_key)
        executed, key = optimized.calls, optimized.structure_key
    if verify is None:
        verify = engine is not None and verifier.verification_enabled(engine.config.verify)
    compiled: CompiledProgram | None = None
    # Sharded plans execute per-shard slices, so the whole program is
    # compiled only when it runs unsharded or carries the verdict.
    if verify or not chosen.sharded:
        try:
            compiled, _ = session.compile_cached_with_key(executed, key)
        except ReproError:
            pass  # execute() raises it again, where execution errors belong
    report: VerificationReport | None = None
    if verify and (compiled is None or not compiled.verification_ok):
        with stage("verify"):
            report = verifier.verify_cached(executed, subject=subject, key=key)
        report.raise_if_errors()
        if compiled is not None:
            compiled.verification_ok = True
    return PreparedProgram(
        plan=chosen,
        calls=executed,
        structure_key=key,
        source_key=source_key,
        backend=backend,
        compiled=compiled,
        planned=planned,
        optimized=optimized,
        verification=report,
    )


class Executors:
    """Warm executors for one engine, built on first use.

    Keyed on the backend selection plus the plan facet that shapes an
    executor (the dispatcher's channel/rank placement), so a caller
    that keeps one instance reuses LUT gather arrays, trace templates
    and scheduler memos across requests.  Backend names share an
    executor; distinct backend instances each get their own, up to a
    bound past which the set starts over.
    """

    #: Executors kept before the set is rebuilt from scratch.
    MAX_WARM = 64

    def __init__(self, engine: "PlutoEngine | None" = None) -> None:
        from repro.core.engine import PlutoConfig, PlutoEngine

        self.engine = engine if engine is not None else PlutoEngine(PlutoConfig())
        self._warm: dict[tuple[object, ...], object] = {}

    @classmethod
    def of(cls, engine: "PlutoEngine") -> "Executors":
        """The warm executors ``engine`` itself holds, built on first use.

        Held by the engine, so a front door that runs many requests on
        one engine reuses one controller and one dispatcher per
        placement, and nothing but the engine keeps them (or it) alive:
        engine and executors form one cycle the collector frees together.
        """
        warm = engine.__dict__.get("_executors")
        if warm is None:
            warm = engine.__dict__["_executors"] = cls(engine)
        return cast(Executors, warm)

    def _get(self, key: tuple[object, ...], build: Callable[[], _Executor]) -> _Executor:
        found = self._warm.get(key)
        if found is None:
            if len(self._warm) >= self.MAX_WARM:
                self._warm.clear()
            found = self._warm[key] = build()
        return cast(_Executor, found)

    @staticmethod
    def _backend_key(backend: "str | ExecutionBackend") -> object:
        return backend if isinstance(backend, str) else id(backend)

    def controller(self, backend: "str | ExecutionBackend") -> "PlutoController":
        """The single-bank controller."""
        from repro.controller.executor import PlutoController

        return self._get(
            ("controller", self._backend_key(backend)),
            lambda: PlutoController(self.engine, backend=backend),
        )

    def dispatcher(
        self, backend: "str | ExecutionBackend", *, channels: int, ranks: int
    ) -> "HierarchicalDispatcher":
        """The sharded dispatcher for one channel/rank placement."""
        from repro.controller.hierarchy import HierarchicalDispatcher

        return self._get(
            ("dispatcher", self._backend_key(backend), channels, ranks),
            lambda: HierarchicalDispatcher(
                self.engine, backend=backend, channels=channels, ranks=ranks
            ),
        )


def _annotate(result: "ExecutionResult", prepared: PreparedProgram) -> "ExecutionResult":
    """Attach the plan, optimizer and planner reports to one result."""
    result.execution_plan = prepared.plan
    result.optimization = prepared.optimization
    if prepared.planned is not None:
        result.planner = prepared.planned.report.with_measured(result.latency_ns)
    return result


def _compiled(prepared: PreparedProgram) -> "CompiledProgram":
    """The prepared program's compilation; raises the compiler's error if it failed."""
    if prepared.compiled is not None:
        return prepared.compiled
    return session.compile_cached_with_key(prepared.calls, prepared.structure_key)[0]


def execute(
    prepared: PreparedProgram,
    inputs: "Mapping[str, np.ndarray[Any, Any]]",
    executors: Executors,
    *,
    bank: int = 0,
) -> "ExecutionResult":
    """Run a prepared program on the executor its concrete plan names.

    Sharded plans go to the sharded dispatcher at the plan's
    :meth:`~repro.plan.ExecutionPlan.placement`; everything else
    compiles (cached) and runs on the controller in ``bank``.  Compiler
    errors surface here, not in :func:`prepare`.  The result carries the
    concrete plan, the optimizer report and the planner report with the
    measured makespan.
    """
    plan = prepared.plan
    result: ExecutionResult
    if prepared.sharded:
        channels, ranks = plan.placement(executors.engine.geometry)
        result = executors.dispatcher(
            prepared.backend, channels=channels, ranks=ranks
        ).execute(prepared.calls, inputs, shards=plan.shards)
    else:
        result = executors.controller(prepared.backend).execute(
            _compiled(prepared), dict(inputs), bank=bank, structure_key=prepared.structure_key
        )
    return _annotate(result, prepared)


def execute_fused(
    prepared: "Sequence[PreparedProgram]",
    batch: "Sequence[Mapping[str, np.ndarray[Any, Any]]]",
    executors: Executors,
) -> "list[ExecutionResult] | None":
    """Run many requests of one program structure in one fused pass.

    ``prepared[i]`` and ``batch[i]`` are request ``i``'s prepared program
    and inputs; every request shares the first one's structure (and so
    its compiled program and plan).  The input sets stack into
    ``(requests, elements)`` arrays and execute as a single controller
    pass (one gather per LUT query for the whole batch); each result
    carries its own request's reports.  Returns ``None`` when the plan
    is sharded, the backend cannot batch, or the input sets do not name
    the same vectors; the caller then runs them one by one through
    :func:`execute`.
    """
    leader = prepared[0]
    if leader.sharded:
        return None
    controller = executors.controller(leader.backend)
    names = set(batch[0])
    if not controller.backend.supports_batched or any(set(inputs) != names for inputs in batch[1:]):
        return None
    stacked = {name: np.stack([inputs[name] for inputs in batch]) for name in batch[0]}
    results = controller.execute_fused(
        _compiled(leader), stacked, banks=[0] * len(batch), structure_key=leader.structure_key
    )
    return [_annotate(result, own) for result, own in zip(results, prepared)]
