"""The pLUTo Controller (Section 6.4) and the sharded dispatcher."""

from repro.controller.allocation_table import AllocationTable, RowAllocation, SubarrayAllocation
from repro.controller.dispatch import (
    engine_helper_cache_stats,
    execute_shard_plans,
    merged_makespan_ns,
    plan_slices,
    sweep_act_interval_ns,
)
from repro.controller.executor import (
    ExecutionResult,
    PlutoController,
    TraceTemplate,
    clear_trace_templates,
    trace_template_stats,
)
from repro.controller.hierarchy import (
    HierarchicalDispatcher,
    HierarchicalExecutionResult,
    HierarchyPlanner,
    HierarchyShard,
    bus_occupancy_ns,
    clear_hierarchy_cache,
    hierarchical_makespan_ns,
    hierarchy_cache_stats,
    interleaved_bank_order,
)
from repro.controller.rom import CommandRom

__all__ = [
    "AllocationTable",
    "RowAllocation",
    "SubarrayAllocation",
    "ExecutionResult",
    "PlutoController",
    "TraceTemplate",
    "trace_template_stats",
    "clear_trace_templates",
    "CommandRom",
    "plan_slices",
    "execute_shard_plans",
    "engine_helper_cache_stats",
    "merged_makespan_ns",
    "sweep_act_interval_ns",
    "HierarchicalDispatcher",
    "HierarchicalExecutionResult",
    "HierarchyPlanner",
    "HierarchyShard",
    "bus_occupancy_ns",
    "hierarchical_makespan_ns",
    "hierarchy_cache_stats",
    "clear_hierarchy_cache",
    "interleaved_bank_order",
]
