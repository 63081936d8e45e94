"""Per-layer self times, measured by wrapping each module's public entry points.

The traced run installs a :class:`Ledger`, which replaces a fixed set of
public functions and methods of the execution stack with timing wrappers
(and puts the originals back on :meth:`Ledger.uninstall`).  Every wrapped
call is a span: it records its layer, its duration and the time covered
by the wrapped calls it made.  A layer's *self* time is its duration minus
that covered time, so the self times of nested layers never overlap and
sum to the time spent inside the front-door call.

Nothing inside the program is modified; the spans live only in this
process (pool workers run unwrapped code, and their share is read from the
``WorkerResult`` fields instead).
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

#: Layers whose calls are "the controller or dispatcher call" of a
#: front door (``session.prepare_us`` is the front door minus these).
EXECUTION_LAYERS = frozenset({"controller.execute", "controller.dispatch"})


def _targets():
    """``(owner, attribute, layer)`` for every wrapped public entry point.

    Module-level functions are patched on the module their callers read
    them from at call time (the stack imports them inside functions), so a
    single patch covers every caller.
    """
    import repro.analyze.verifier as verifier
    import repro.backend.compiled as compiled
    import repro.controller.dispatch as dispatch
    import repro.opt.pipeline as pipeline
    import repro.plan.planner as planner
    from repro.api.service import PlutoService
    from repro.api.session import PlutoSession
    from repro.controller.executor import PlutoController
    from repro.controller.hierarchy import HierarchicalDispatcher

    return [
        (PlutoSession, "run", "session.run"),
        (PlutoService, "submit", "service.submit"),
        (planner, "plan_program", "plan"),
        (pipeline, "optimize_cached", "opt"),
        (verifier, "verify_cached", "analyze.verify"),
        (PlutoController, "execute", "controller.execute"),
        (PlutoController, "execute_fused", "controller.dispatch"),
        (dispatch.ParallelDispatcher, "execute", "controller.dispatch"),
        (HierarchicalDispatcher, "execute", "controller.dispatch"),
        (PlutoController, "trace_template", "controller.template"),
        (compiled.CompiledExecutable, "run_serve", "backend.kernel"),
        (compiled.CompiledExecutable, "run_finals", "backend.kernel"),
        (compiled, "compiled_exec_cached", "backend.lower"),
        (dispatch, "merged_makespan_ns", "dram.schedule"),
    ]


class _Frame:
    __slots__ = ("layer", "covered", "executed")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.covered = 0  # ns inside wrapped child calls
        self.executed = 0  # ns inside controller/dispatcher child calls


class Ledger:
    """Accumulates self time and front-door preparation time per layer."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        #: Front-door duration minus its controller/dispatcher calls.
        self.prepare_ns: dict[str, int] = defaultdict(int)
        #: Calls into the structure-keyed compile cache (the ``programs``
        #: memo reports only its size, so lookups are counted here).
        self.program_lookups = 0
        self._stack: list[_Frame] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        import repro.api.session as session_module

        for owner, name, layer in _targets():
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer))
        original_lookup = session_module.compile_cached_with_key
        self._saved.append((session_module, "compile_cached_with_key", original_lookup))

        @functools.wraps(original_lookup)
        def counted_lookup(*args, **kwargs):
            self.program_lookups += 1
            return original_lookup(*args, **kwargs)

        session_module.compile_cached_with_key = counted_lookup

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Ledger":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def _push(self, layer: str) -> _Frame:
        frame = _Frame(layer)
        self._stack.append(frame)
        return frame

    def _pop(self, frame: _Frame, duration: int) -> None:
        stack = self._stack
        stack.pop()
        layer = frame.layer
        self.self_ns[layer] += duration - frame.covered
        if stack:
            parent = stack[-1]
            parent.covered += duration
            if layer in EXECUTION_LAYERS:
                parent.executed += duration
        else:
            self.prepare_ns[layer] += duration - frame.executed

    def _wrap(self, original, layer: str):
        clock = time.perf_counter_ns
        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def timed_async(*args, **kwargs):
                frame = self._push(layer)
                started = clock()
                try:
                    return await original(*args, **kwargs)
                finally:
                    self._pop(frame, clock() - started)

            return timed_async

        @functools.wraps(original)
        def timed(*args, **kwargs):
            frame = self._push(layer)
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                self._pop(frame, clock() - started)

        return timed

    # ------------------------------------------------------------------ #
    # Read-out
    # ------------------------------------------------------------------ #
    def total_self_ns(self) -> int:
        """Time inside any wrapped call (the attributed share of latency)."""
        return sum(self.self_ns.values())


#: ``cache_stats()`` memo layers reported as ``cache.<name>.hit_ratio``.
CACHE_LAYERS = (
    "programs",
    "optimizer",
    "verifier",
    "planner",
    "trace_templates",
    "compiled_exec",
    "scheduler_merges",
)


def cache_counters() -> dict[str, tuple[int, int]]:
    """``(hits, misses)`` per memo layer of this process, from ``cache_stats()``.

    The ``programs`` memo only reports its size; its misses are its growth
    and its lookups are counted by the ledger (see :func:`hit_ratios`).
    """
    from repro.api.session import cache_stats

    stats = cache_stats()
    counters = {}
    for name in CACHE_LAYERS:
        layer = stats[name]
        counters[name] = (int(layer.get("hits", 0)), int(layer.get("misses", 0)))
    counters["programs"] = (0, int(stats["programs"]["size"]))
    return counters


def hit_ratios(
    before: dict[str, tuple[int, int]],
    after: dict[str, tuple[int, int]],
    program_lookups: int,
) -> dict[str, tuple[int, int, int]]:
    """``(hits, misses, lookups)`` per memo layer between two snapshots."""
    window = {}
    for name in CACHE_LAYERS:
        hits = after[name][0] - before[name][0]
        misses = after[name][1] - before[name][1]
        if name == "programs":
            lookups = program_lookups
            hits = max(0, lookups - misses)
        else:
            lookups = hits + misses
        window[name] = (hits, misses, lookups)
    return window
