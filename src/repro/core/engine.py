"""The pLUTo execution engine.

:class:`PlutoEngine` combines a memory configuration (DDR4 or 3D-stacked),
one of the three pLUTo designs, a degree of subarray-level parallelism, and
the tFAW constraint into a single object that can

* report the cost (latency, energy) of executing a workload recipe over a
  given number of elements — this drives Figures 7-14, and
* instantiate functional pLUTo-enabled subarrays for bit-exact execution of
  LUT queries — this drives the correctness tests and the example programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.analytical import PlutoCostModel
from repro.core.designs import PlutoDesign
from repro.core.lut import LookupTable
from repro.core.recipe import WorkloadRecipe
from repro.core.subarray import PlutoSubarray
from repro.dram.energy import DDR4_ENERGY, HMC_ENERGY, EnergyParameters
from repro.dram.geometry import DDR4_8GB, HMC_3DS_GEOMETRY, DRAMGeometry
from repro.dram.timing import DDR4_2400, HMC_3DS, TimingParameters
from repro.errors import ConfigurationError, VerificationError
from repro.inmem.salp import salp_speedup

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.plan.execution_plan import ExecutionPlan

__all__ = ["MemoryKind", "PlutoConfig", "CostReport", "PlutoEngine"]


#: Memory technology identifiers used throughout the evaluation.
MemoryKind = str
DDR4: MemoryKind = "DDR4"
THREE_DS: MemoryKind = "3DS"

_MEMORY_PRESETS: dict[str, tuple[DRAMGeometry, TimingParameters, EnergyParameters, int]] = {
    # (geometry, timing, energy, default subarray-level parallelism)
    DDR4: (DDR4_8GB, DDR4_2400, DDR4_ENERGY, 16),
    THREE_DS: (HMC_3DS_GEOMETRY, HMC_3DS, HMC_ENERGY, 512),
}

#: Device power (W) of a pLUTo-capable module while executing, used for
#: static-energy accounting.  The pLUTo-BSA value matches Table 6 (11 W);
#: GSA is slightly lower (fewer added structures switching) and GMC
#: slightly higher (per-cell gates), and the 3D-stacked parts run cooler.
_DEVICE_POWER_W: dict[tuple[PlutoDesign, str], float] = {
    (PlutoDesign.BSA, DDR4): 11.0,
    (PlutoDesign.GSA, DDR4): 10.0,
    (PlutoDesign.GMC, DDR4): 13.0,
    (PlutoDesign.BSA, THREE_DS): 9.0,
    (PlutoDesign.GSA, THREE_DS): 8.0,
    (PlutoDesign.GMC, THREE_DS): 10.0,
}


@dataclass(frozen=True)
class PlutoConfig:
    """One evaluated pLUTo configuration (design x memory x parallelism).

    ``channels`` / ``ranks`` override the memory preset's interface-level
    hierarchy (Table 3 evaluates one channel with one rank); the
    hierarchical dispatcher uses them to model channel- and rank-level
    parallelism above the per-rank bank scheduling.

    ``optimize`` makes every execution routed through an engine built
    from this configuration run the program optimizer
    (:mod:`repro.opt`) before compilation whenever the execution plan
    leaves ``optimize`` unset; a plan that sets
    ``ExecutionPlan(optimize=...)`` overrides it either way.

    ``verify`` runs the static verifier (:mod:`repro.analyze`) over the
    program — post-optimization, i.e. what actually executes — before
    every execution routed through an engine built from this
    configuration: ``"always"`` unconditionally, ``"debug"`` only under
    ``__debug__`` (not with ``python -O``), ``"off"`` (the default)
    never.  Reports are memoized on the program structure key, so a
    served shape is verified once; errors raise
    :class:`~repro.errors.VerificationError` with the diagnostics.

    ``plan`` sets the default :class:`~repro.plan.ExecutionPlan` for
    every execution routed through an engine built from this
    configuration — ``"auto"`` turns on the cost-based auto-planner by
    default; a per-call ``plan=`` still overrides it.  Plans that
    contradict the configured geometry are rejected at construction.
    """

    design: PlutoDesign = PlutoDesign.BSA
    memory: MemoryKind = DDR4
    subarrays: int | None = None
    tfaw_fraction: float = 0.0
    channels: int | None = None
    ranks: int | None = None
    optimize: bool = False
    verify: str = "off"
    plan: "ExecutionPlan | str | None" = None

    def __post_init__(self) -> None:
        if self.verify not in ("always", "debug", "off"):
            raise ConfigurationError(
                f"unknown verify mode {self.verify!r}; expected one of "
                "['always', 'debug', 'off']"
            )
        if self.memory not in _MEMORY_PRESETS:
            raise ConfigurationError(
                f"unknown memory kind {self.memory!r}; expected one of "
                f"{sorted(_MEMORY_PRESETS)}"
            )
        if self.subarrays is not None and self.subarrays <= 0:
            raise ConfigurationError("subarray parallelism must be positive")
        if self.tfaw_fraction < 0:
            raise ConfigurationError("tFAW fraction must be >= 0")
        if self.channels is not None and self.channels <= 0:
            raise ConfigurationError("channel count must be positive")
        if self.ranks is not None and self.ranks <= 0:
            raise ConfigurationError("rank count must be positive")
        if self.plan is not None:
            self._check_plan()

    def _check_plan(self) -> None:
        """Reject a default plan that contradicts this configuration.

        A plan contradicting its geometry (``shards`` beyond the
        addressable banks, channel/rank placement wider than the device)
        fails here with the shared :class:`Diagnostic` records instead
        of deep inside dispatch; ``"auto"`` with explicit geometry
        pinned is rejected by :class:`ExecutionPlan` itself.
        """
        from repro.plan.execution_plan import (
            ExecutionPlan,
            plan_conflict_diagnostics,
            resolve_plan,
        )

        if not isinstance(self.plan, (str, ExecutionPlan)):
            raise ConfigurationError(
                "PlutoConfig(plan=) takes an ExecutionPlan, 'auto', or "
                f"None, got {type(self.plan).__name__}"
            )
        plan = resolve_plan(self.plan)
        if plan.is_auto:
            return
        geometry = _MEMORY_PRESETS[self.memory][0]
        if self.channels is not None or self.ranks is not None:
            geometry = replace(
                geometry,
                channels=self.channels or geometry.channels,
                ranks=self.ranks or geometry.ranks,
            )
        diagnostics = plan_conflict_diagnostics(plan, geometry)
        errors = [d for d in diagnostics if d.is_error]
        if errors:
            raise VerificationError(errors, subject="PlutoConfig plan")

    @property
    def label(self) -> str:
        """Label used in the paper's figures (e.g. ``pLUTo-BSA-3DS``)."""
        suffix = "-3DS" if self.memory == THREE_DS else ""
        return f"{self.design.display_name}{suffix}"

    @property
    def effective_subarrays(self) -> int:
        """Subarray-level parallelism (defaults per memory kind, Table 3)."""
        if self.subarrays is not None:
            return self.subarrays
        return _MEMORY_PRESETS[self.memory][3]


@dataclass
class CostReport:
    """Latency/energy of one workload execution on one configuration."""

    label: str
    workload: str
    elements: int
    rows: int
    latency_ns: float
    energy_nj: float
    lut_load_latency_ns: float = 0.0
    lut_load_energy_nj: float = 0.0
    static_energy_nj: float = 0.0
    breakdown: dict[str, float] = field(default_factory=dict)

    @property
    def total_latency_ns(self) -> float:
        """Query latency plus one-time LUT loading latency."""
        return self.latency_ns + self.lut_load_latency_ns

    @property
    def total_energy_nj(self) -> float:
        """DRAM dynamic energy plus LUT loading plus device static energy."""
        return self.energy_nj + self.lut_load_energy_nj + self.static_energy_nj

    @property
    def throughput_elements_per_s(self) -> float:
        """Processed elements per second (excluding LUT loading)."""
        if self.latency_ns <= 0:
            return float("inf")
        return self.elements / (self.latency_ns * 1e-9)


class PlutoEngine:
    """Cost and functional engine for one pLUTo configuration."""

    def __init__(self, config: PlutoConfig = PlutoConfig()) -> None:
        self.config = config
        geometry, timing, energy, _ = _MEMORY_PRESETS[config.memory]
        if config.channels is not None or config.ranks is not None:
            geometry = replace(
                geometry,
                channels=config.channels or geometry.channels,
                ranks=config.ranks or geometry.ranks,
            )
        self.geometry = geometry
        self.timing = timing
        self.energy = energy
        self.cost_model = PlutoCostModel(
            timing,
            energy,
            geometry.row_size_bytes,
            rows_per_subarray=geometry.rows_per_subarray,
        )
        self.device_power_w = _DEVICE_POWER_W[(config.design, config.memory)]

    # ------------------------------------------------------------------ #
    # Functional execution
    # ------------------------------------------------------------------ #
    def create_subarray(self, lut: LookupTable | None = None) -> PlutoSubarray:
        """Create a pLUTo-enabled subarray (optionally pre-loaded with a LUT)."""
        subarray = PlutoSubarray(self.geometry, self.config.design)
        if lut is not None:
            subarray.load_lut(lut)
        return subarray

    # ------------------------------------------------------------------ #
    # Parallelism
    # ------------------------------------------------------------------ #
    def parallel_speedup(self, act_interval_ns: float | None = None) -> float:
        """Effective speedup from subarray-level parallelism under tFAW."""
        return salp_speedup(
            self.config.effective_subarrays,
            self.timing,
            act_interval_ns=act_interval_ns,
            tfaw_fraction=self.config.tfaw_fraction,
        )

    # ------------------------------------------------------------------ #
    # Recipe cost evaluation
    # ------------------------------------------------------------------ #
    def rows_for(self, recipe: WorkloadRecipe, elements: int) -> int:
        """Number of source rows needed to hold ``elements`` input elements."""
        if elements <= 0:
            raise ConfigurationError("element count must be positive")
        per_row = self.cost_model.elements_per_row(recipe.element_bits)
        return -(-elements // per_row)  # ceiling division

    def per_row_latency_ns(self, recipe: WorkloadRecipe) -> float:
        """In-memory latency of processing one source row of the recipe."""
        model = self.cost_model
        design = self.config.design
        latency = sum(model.query_latency_ns(design, n) for n in recipe.sweeps_per_row)
        if recipe.bitwise_aaps_per_row:
            latency += model.bitwise_latency_ns(recipe.bitwise_aaps_per_row)
        latency += model.shift_latency_ns(recipe.shift_commands_per_row)
        if recipe.moves_per_row:
            latency += model.move_latency_ns(recipe.moves_per_row)
        return latency

    def per_row_energy_nj(self, recipe: WorkloadRecipe) -> float:
        """In-memory energy of processing one source row of the recipe."""
        model = self.cost_model
        design = self.config.design
        energy = sum(model.query_energy_nj(design, n) for n in recipe.sweeps_per_row)
        if recipe.bitwise_aaps_per_row:
            energy += model.bitwise_energy_nj(recipe.bitwise_aaps_per_row)
        energy += model.shift_energy_nj(recipe.shift_commands_per_row)
        if recipe.moves_per_row:
            energy += model.move_energy_nj(recipe.moves_per_row)
        return energy

    def lut_load_cost(self, recipe: WorkloadRecipe) -> tuple[float, float]:
        """One-time (latency, energy) of loading the recipe's LUTs.

        pLUTo-GSA pays the reload on *every* query; that per-query cost is
        already part of :meth:`PlutoCostModel.query_latency_ns`, so here we
        only account for the initial load that every design performs once.
        """
        latency = sum(self.cost_model.lut_load_latency_ns(n) for n in recipe.luts_loaded)
        energy = sum(self.cost_model.lut_load_energy_nj(n) for n in recipe.luts_loaded)
        return latency, energy

    def execute(self, recipe: WorkloadRecipe, elements: int) -> CostReport:
        """Compute the cost of running ``recipe`` over ``elements`` inputs.

        Latency is divided by the effective subarray-level parallelism
        (Section 5.5); energy is not (Section 8.3): the same number of DRAM
        operations happens regardless of how they are spread over subarrays.
        """
        rows = self.rows_for(recipe, elements)
        per_row_latency = self.per_row_latency_ns(recipe)
        per_row_energy = self.per_row_energy_nj(recipe)
        speedup = self.parallel_speedup()
        load_latency, load_energy = self.lut_load_cost(recipe)
        latency = rows * per_row_latency / speedup
        energy = rows * per_row_energy
        static_energy = self.device_power_w * latency  # W * ns = nJ
        return CostReport(
            label=self.config.label,
            workload=recipe.name,
            elements=elements,
            rows=rows,
            latency_ns=latency,
            energy_nj=energy,
            lut_load_latency_ns=load_latency,
            lut_load_energy_nj=load_energy,
            static_energy_nj=static_energy,
            breakdown={
                "per_row_latency_ns": per_row_latency,
                "per_row_energy_nj": per_row_energy,
                "parallel_speedup": speedup,
            },
        )
