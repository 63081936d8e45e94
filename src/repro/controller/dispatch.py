"""Rank-level building blocks of sharded pLUTo execution.

The paper's scalability results (Figure 12) and the tFAW study
(Section 8.7) rest on parallelism across subarrays and banks: every bank
can sweep its own LUT-holding subarray concurrently, with the rank-level
tRRD/tFAW activation constraints as the only coupling between them.  The
one sharded dispatcher,
:class:`~repro.controller.hierarchy.HierarchicalDispatcher`, places
shards over channels, ranks and banks (a flat ``shards=k`` plan is its
1 channel x 1 rank placement); this module holds the pieces it is built
from:

* :func:`plan_slices` partitions a program's element space into balanced
  contiguous slices and rewrites the recorded API calls so each slice is
  a complete, smaller program (equal-sized slices share one compiled
  program through the structure-keyed compile cache).
* :func:`execute_shard_plans` executes shard plans through the
  :class:`~repro.controller.executor.PlutoController` — in one *fused*
  batched pass over a ``(shards, slice)`` view of the inputs when the
  selected :class:`~repro.backend.base.ExecutionBackend` supports it
  (the vectorized default), or shard by shard on the functional oracle.
* :func:`merged_makespan_ns` merges the command streams of one rank with
  the semantics of the timing-aware
  :class:`~repro.dram.scheduler.CommandScheduler`, memoized on the
  streams' structure (:mod:`repro.dram.analytic`), so the aggregate
  latency is a *makespan* with cross-bank tRRD/tFAW contention enforced,
  not a naive per-shard sum.

Functional outputs are bit-identical to unsharded execution by
construction: every shard runs the same lowering over a disjoint slice of
the same inputs, and the dispatcher concatenates the slices in order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from repro.api.handles import ApiCall, PlutoVector
from repro.controller.executor import ExecutionResult, PlutoController
from repro.core.designs import PlutoDesign
from repro.core.engine import PlutoEngine
from repro.dram.analytic import memoized_merge_makespan_ns
from repro.dram.commands import Command
from repro.dram.scheduler import CommandScheduler
from repro.errors import ConfigurationError

__all__ = [
    "plan_slices",
    "uniform_size",
    "execute_shard_plans",
    "sweep_act_interval_ns",
    "sweep_tail_ns",
    "sweep_acts_per_row",
    "merged_makespan_ns",
    "rank_scheduler",
    "rank_scheduler_key",
    "engine_helper_cache_stats",
    "clear_engine_helper_caches",
]


@lru_cache(maxsize=None)
def _sweep_act_interval(
    design: PlutoDesign, t_rcd: float, t_rp: float, lisa_hop_ns: float
) -> float:
    if design is PlutoDesign.GSA:
        return lisa_hop_ns + t_rcd
    if design is PlutoDesign.GMC:
        return t_rcd
    return t_rcd + t_rp


def sweep_act_interval_ns(engine: PlutoEngine) -> float:
    """ACT-to-ACT spacing inside a Row Sweep for the engine's design.

    Mirrors the per-design query-latency expressions of Table 1:
    pLUTo-BSA precharges after every activation (tRCD + tRP per row),
    pLUTo-GMC opens rows back to back (tRCD per row, one trailing
    precharge), and pLUTo-GSA additionally streams the LUT row back in
    through a LISA hop before each activation (destructive reads).
    Cached on the (design, timing) values the result depends on.
    """
    return _sweep_act_interval(
        engine.config.design,
        engine.timing.t_rcd,
        engine.timing.t_rp,
        engine.cost_model.lisa_hop_latency_ns,
    )


@lru_cache(maxsize=None)
def _sweep_tail(design: PlutoDesign, t_rp: float) -> float:
    if design is PlutoDesign.BSA:
        return 0.0
    return t_rp


def sweep_tail_ns(engine: PlutoEngine) -> float:
    """Bank occupancy after a Row Sweep's final activation.

    GSA/GMC sweeps precharge once at the end (the ``+ tRP`` term of their
    Table 1 query latencies); BSA's per-row spacing already contains the
    precharge, so its sweeps carry no tail.
    """
    return _sweep_tail(engine.config.design, engine.timing.t_rp)


@lru_cache(maxsize=None)
def _sweep_acts(design: PlutoDesign) -> int:
    return 2 if design is PlutoDesign.GSA else 1


def sweep_acts_per_row(engine: PlutoEngine) -> int:
    """Row activations per swept LUT entry (2 for GSA's reload+sweep)."""
    return _sweep_acts(engine.config.design)


def engine_helper_cache_stats() -> dict[str, dict[str, int]]:
    """Hit/miss counters of the cached pure per-engine helpers."""
    from repro.controller.hierarchy import _interleaved_bank_order

    stats: dict[str, dict[str, int]] = {}
    for name, cached in (
        ("sweep_act_interval_ns", _sweep_act_interval),
        ("sweep_tail_ns", _sweep_tail),
        ("sweep_acts_per_row", _sweep_acts),
        ("interleaved_bank_order", _interleaved_bank_order),
    ):
        info = cached.cache_info()
        stats[name] = {
            "hits": info.hits,
            "misses": info.misses,
            "size": info.currsize,
        }
    return stats


def clear_engine_helper_caches() -> None:
    """Drop the cached pure per-engine helpers (and the throttled timings)."""
    from repro.controller.hierarchy import _interleaved_bank_order

    for cached in (
        _sweep_act_interval,
        _sweep_tail,
        _sweep_acts,
        _throttled_timing,
        _interleaved_bank_order,
    ):
        cached.cache_clear()


@lru_cache(maxsize=None)
def _throttled_timing(timing, tfaw_fraction: float):
    return timing.with_tfaw_fraction(tfaw_fraction)


def rank_scheduler(engine: PlutoEngine) -> CommandScheduler:
    """A fresh per-rank scheduler configured for the engine's design."""
    return CommandScheduler(
        _throttled_timing(engine.timing, engine.config.tfaw_fraction),
        num_banks=engine.geometry.banks,
        banks_per_group=engine.geometry.banks_per_group,
        sweep_act_interval_ns=sweep_act_interval_ns(engine),
        sweep_tail_ns=sweep_tail_ns(engine),
        sweep_acts_per_row=sweep_acts_per_row(engine),
        lisa_hop_ns=engine.cost_model.lisa_hop_latency_ns,
    )


def rank_scheduler_key(engine: PlutoEngine) -> tuple:
    """The :func:`rank_scheduler` configuration as a hashable cache key.

    Mirrors :func:`repro.dram.analytic.scheduler_signature` without
    constructing a scheduler, so memo lookups on warm caches cost a few
    attribute reads.
    """
    return (
        _throttled_timing(engine.timing, engine.config.tfaw_fraction),
        engine.geometry.banks,
        engine.geometry.banks_per_group,
        sweep_act_interval_ns(engine),
        sweep_tail_ns(engine),
        sweep_acts_per_row(engine),
        engine.cost_model.lisa_hop_latency_ns,
    )


def merged_makespan_ns(
    command_streams: Sequence[Sequence[Command]], engine: PlutoEngine
) -> float:
    """Makespan of concurrent per-bank command streams under rank timing.

    The streams are merged at activation granularity with the semantics
    of :meth:`CommandScheduler.merge_streams`, configured with the
    engine's bank count, its design's sweep spacing, and its
    configuration's tFAW throttle (``tfaw_fraction``, matching the
    Figure 13 convention where 0 means unthrottled).  Returns the time at
    which the last command completes.  Results are memoized on the
    streams' structural signature (:mod:`repro.dram.analytic`), so
    repeated identical shard plans merge once.
    """
    streams = [stream for stream in command_streams if len(stream)]
    if not streams:
        return 0.0
    return memoized_merge_makespan_ns(
        streams,
        lambda: rank_scheduler(engine),
        config_key=rank_scheduler_key(engine),
    )


def plan_slices(
    calls: Sequence[ApiCall], shards: int
) -> list[tuple[int, int, tuple[ApiCall, ...]]]:
    """Balanced contiguous ``(start, stop, rewritten calls)`` slices.

    Slice sizes differ by at most one element, so equal-sized slices
    lower to structurally identical programs and compile once.  Placing
    the slices in banks is the hierarchy planner's job
    (:class:`~repro.controller.hierarchy.HierarchyPlanner`).
    """
    if shards <= 0:
        raise ConfigurationError("shard count must be positive")
    size = uniform_size(calls)
    if shards > size:
        raise ConfigurationError(
            f"cannot split {size} elements into {shards} non-empty shards"
        )
    slices: list[tuple[int, int, tuple[ApiCall, ...]]] = []
    base, remainder = divmod(size, shards)
    # Balanced shards take at most two distinct sizes, and the rewritten
    # call tuples depend only on the size — share them so planning
    # allocates O(distinct sizes) replica programs instead of
    # O(shards x calls) vectors.
    resized: dict[int, tuple[ApiCall, ...]] = {}
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < remainder else 0)
        shard_size = stop - start
        shard_calls = resized.get(shard_size)
        if shard_calls is None:
            shard_calls = _resize_calls(calls, shard_size)
            resized[shard_size] = shard_calls
        slices.append((start, stop, shard_calls))
        start = stop
    return slices


def uniform_size(calls: Sequence[ApiCall]) -> int:
    """The one element count every vector of ``calls`` shares."""
    if not calls:
        raise ConfigurationError("cannot shard an empty API program")
    sizes = {
        vector.size for call in calls for vector in (*call.inputs, call.output)
    }
    if len(sizes) != 1:
        raise ConfigurationError(
            "sharded execution needs a uniform element count across every "
            f"vector, got sizes {sorted(sizes)}"
        )
    return next(iter(sizes))


def _resize_calls(calls: Sequence[ApiCall], size: int) -> tuple[ApiCall, ...]:
    """Rewrite every call over ``size``-element replicas of its vectors."""
    sample = calls[0].output if not calls[0].inputs else calls[0].inputs[0]
    if sample.size == size:
        # The slice covers the whole element space; the original calls
        # (and their vectors) are already correct.
        return tuple(calls)
    replicas: dict[str, PlutoVector] = {}

    def _replica(vector: PlutoVector) -> PlutoVector:
        replica = replicas.get(vector.name)
        if replica is None:
            replica = PlutoVector(
                name=vector.name, size=size, bit_width=vector.bit_width
            )
            replicas[vector.name] = replica
        return replica

    return tuple(
        ApiCall(
            operation=call.operation,
            inputs=tuple(_replica(vector) for vector in call.inputs),
            output=_replica(call.output),
            lut=call.lut,
            parameters=call.parameters,
        )
        for call in calls
    )


def execute_shard_plans(
    controller: PlutoController,
    plans: Sequence,
    arrays: Mapping[str, np.ndarray],
    *,
    fused: bool | None = None,
) -> tuple[list[ExecutionResult], list[dict[str, np.ndarray]] | None]:
    """Execute shard plans, fused in one batched pass when possible.

    ``plans`` is a sequence of shard plans with ``index`` / ``bank`` /
    ``start`` / ``stop`` / ``calls`` attributes (the hierarchy planner's
    :class:`~repro.controller.hierarchy.HierarchyShard`).  With a
    batched-capable backend (``fused=None`` auto-detects; ``False``
    forces the per-shard oracle loop) the equal-sized shards are
    grouped and each group executes in a single controller pass — one
    NumPy gather per LUT query instead of ``shards`` trips through the
    controller.  Outputs, traces, and per-shard results are identical to
    the per-shard loop.

    :func:`plan_slices` puts its larger slices first, so each size group
    covers one contiguous element range, and the group's inputs are fed
    as ``data[start:stop].reshape(shards, size)`` views: no input element
    is copied.  Only a hand-built plan list whose group is not contiguous
    stacks that group's slices into a new array.

    Returns the per-shard results (in ``plans`` order) and, when the
    groups ran fused and tile the element space in plan order, each
    group's stacked ``(shards, size)`` register arrays in element order —
    the blocks the merged full-length arrays are built from.  The second
    item is ``None`` otherwise.
    """
    from repro.api.session import compile_cached, compile_cached_with_key

    use_fused = controller.backend.supports_batched if fused is None else fused
    if use_fused and not controller.backend.supports_batched:
        raise ConfigurationError(
            f"backend {controller.backend.name!r} cannot run fused; "
            "pass fused=False (or None) to use the per-shard path"
        )
    if not use_fused:
        results = []
        for plan in plans:
            compiled = compile_cached(list(plan.calls))
            shard_inputs = {
                name: data[plan.start : plan.stop] for name, data in arrays.items()
            }
            results.append(
                controller.execute(compiled, shard_inputs, bank=plan.bank)
            )
        return results, None

    results: list[ExecutionResult | None] = [None] * len(plans)
    groups: dict[int, list] = {}
    for plan in plans:
        groups.setdefault(plan.stop - plan.start, []).append(plan)
    blocks: list[dict[str, np.ndarray]] | None = []
    # The blocks concatenate to the merged arrays only while each group
    # continues, in elements and in shard indices, where the last ended.
    tiled = done = 0
    for size, group in groups.items():
        compiled, structure_key = compile_cached_with_key(group[0].calls)
        first, last = group[0], group[-1]
        contiguous = all(
            later.start == earlier.stop for earlier, later in zip(group, group[1:])
        )
        if contiguous:
            stacked = {
                name: data[first.start : last.stop].reshape(len(group), size)
                for name, data in arrays.items()
            }
        else:
            stacked = {
                name: np.stack([data[plan.start : plan.stop] for plan in group])
                for name, data in arrays.items()
            }
        fused_results, registers = controller._execute_fused(
            compiled,
            stacked,
            banks=[plan.bank for plan in group],
            structure_key=structure_key,
        )
        for plan, result in zip(group, fused_results):
            results[plan.index] = result
        if (
            blocks is not None
            and registers is not None
            and contiguous
            and first.start == tiled
            and all(plan.index == done + offset for offset, plan in enumerate(group))
        ):
            blocks.append(registers)
            tiled, done = last.stop, done + len(group)
        else:
            blocks = None
    return results, blocks  # type: ignore[return-value]


from repro.controller.hierarchy import HierarchicalDispatcher  # noqa: E402

# ``perfbench/ledger.py`` wraps ``execute`` under this name as well as under
# ``HierarchicalDispatcher``; it names the one dispatcher class, not a second.
ParallelDispatcher = HierarchicalDispatcher
