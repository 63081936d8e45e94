"""Tests for the cost-based auto-planner and the ExecutionPlan front door."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.session import PlutoSession
from repro.core.designs import PlutoDesign
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.dram.analytic import merge_cache_stats
from repro.controller.hierarchy import hierarchy_cache_stats
from repro.errors import ConfigurationError, VerificationError
from repro.plan import (
    ExecutionPlan,
    clear_planner_cache,
    plan_program,
    planner_cache_stats,
    resolve_plan,
)
from repro.workloads.programs import optimizer_workload_programs, workload_program

ELEMENTS = 1024
#: The registry families every front door must agree on.
FAMILIES = ("image", "crc", "salsa20", "vmpc", "bitcount", "vector_ops")


def _add_program(elements: int = ELEMENTS) -> tuple[PlutoSession, dict]:
    session = PlutoSession()
    a = session.pluto_malloc(elements, 4, "a")
    b = session.pluto_malloc(elements, 4, "b")
    out = session.pluto_malloc(elements, 8, "out")
    session.api_pluto_add(a, b, out, bit_width=4)
    rng = np.random.default_rng(11)
    inputs = {
        "a": rng.integers(0, 16, elements),
        "b": rng.integers(0, 16, elements),
    }
    return session, inputs


class TestExecutionPlanValidation:
    def test_default_plan_is_explicit_single_shard(self):
        plan = ExecutionPlan()
        assert not plan.is_auto
        assert plan.effective_shards == 1
        assert not plan.hierarchical

    def test_resolve_plan_accepts_auto_string_and_none(self):
        assert resolve_plan(None) == ExecutionPlan()
        assert resolve_plan("auto").is_auto
        assert resolve_plan(ExecutionPlan(shards=4)).shards == 4
        with pytest.raises(ConfigurationError):
            resolve_plan("fastest")
        with pytest.raises(ConfigurationError):
            resolve_plan(42)

    def test_plans_are_hashable_and_frozen(self):
        plan = ExecutionPlan(shards=4, optimize=True)
        assert hash(plan) == hash(ExecutionPlan(shards=4, optimize=True))
        with pytest.raises(AttributeError):
            plan.shards = 8

    def test_auto_with_pinned_geometry_is_contradictory(self):
        with pytest.raises(VerificationError):
            ExecutionPlan(mode="auto", shards=4)
        with pytest.raises(VerificationError):
            ExecutionPlan(mode="auto", hierarchical=True)

    def test_placement_requires_hierarchical(self):
        with pytest.raises(VerificationError):
            ExecutionPlan(channels=2)
        with pytest.raises(VerificationError):
            ExecutionPlan(ranks=2)
        plan = ExecutionPlan(hierarchical=True, channels=2, ranks=2)
        assert plan.channels == 2

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutionPlan(shards=0)
        with pytest.raises(ConfigurationError):
            ExecutionPlan(mode="fastest")
        with pytest.raises(ConfigurationError):
            ExecutionPlan(hierarchical=True, channels=0)


class TestPlutoConfigPlanValidation:
    def test_config_accepts_auto_and_plan_objects(self):
        assert PlutoConfig(plan="auto").plan == "auto"
        config = PlutoConfig(plan=ExecutionPlan(shards=8))
        assert config.plan.shards == 8

    def test_config_rejects_overcommitted_shards(self):
        # Default DDR4 module: 1 channel x 1 rank x 16 banks.
        with pytest.raises(VerificationError):
            PlutoConfig(plan=ExecutionPlan(shards=64))

    def test_config_rejects_placement_wider_than_device(self):
        with pytest.raises(VerificationError):
            PlutoConfig(plan=ExecutionPlan(hierarchical=True, channels=2))
        # Widening the device makes the same plan legal.
        config = PlutoConfig(
            channels=2, plan=ExecutionPlan(hierarchical=True, channels=2)
        )
        assert config.channels == 2

    def test_config_rejects_non_plan_types(self):
        with pytest.raises(ConfigurationError):
            PlutoConfig(plan=4)

    def test_engine_config_plan_is_run_default(self):
        session, inputs = _add_program(256)
        engine = PlutoEngine(PlutoConfig(plan=ExecutionPlan(shards=4)))
        result = session.run(inputs, engine=engine)
        assert result.execution_plan.shards == 4
        assert result.num_shards == 4


class TestPlannerMemoization:
    def test_second_plan_is_cache_hit_with_zero_analytic_calls(self):
        clear_planner_cache()
        session, _ = _add_program()
        engine = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))
        first = plan_program(session.calls, engine)
        assert not first.report.cached
        stats = planner_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 0

        merges_before = dict(merge_cache_stats())
        hierarchy_before = dict(hierarchy_cache_stats())
        second = plan_program(session.calls, engine)
        assert second.report.cached
        assert second.plan == first.plan
        stats = planner_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        # The cache hit prices nothing: the analytic scheduler memos are
        # untouched (no hits, no misses — zero model calls).
        assert dict(merge_cache_stats()) == merges_before
        assert dict(hierarchy_cache_stats()) == hierarchy_before

    def test_structurally_identical_programs_share_a_plan(self):
        clear_planner_cache()
        engine = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))
        first_session, _ = _add_program()
        second_session, _ = _add_program()
        plan_program(first_session.calls, engine)
        planned = plan_program(second_session.calls, engine)
        assert planned.report.cached

    def test_different_engines_plan_separately(self):
        clear_planner_cache()
        session, _ = _add_program()
        ddr4 = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))
        three_ds = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA, memory="3DS"))
        plan_program(session.calls, ddr4)
        planned = plan_program(session.calls, three_ds)
        assert not planned.report.cached

    def test_planner_stats_surface_in_session_cache_stats(self):
        stats = PlutoSession.cache_stats()
        assert {"hits", "misses", "size"} <= set(stats["planner"])


class TestPredictionExactness:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_predicted_equals_measured_on_every_family(self, family):
        workload = workload_program(family, elements=512, seed=3)
        engine = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))
        result = workload.session.run(workload.inputs, engine=engine, plan="auto")
        report = result.planner
        assert report is not None
        assert report.measured_makespan_ns == pytest.approx(result.latency_ns)
        # The planner prices candidates from the same trace templates the
        # execution charges, so prediction is exact — not approximate.
        assert report.prediction_error == 0.0
        assert report.chosen == result.execution_plan

    def test_report_carries_ranked_candidates(self):
        session, inputs = _add_program()
        result = session.run(inputs, plan="auto")
        report = result.planner
        assert len(report.candidates) > 1
        predicted = [c.predicted_makespan_ns for c in report.candidates]
        assert report.predicted_makespan_ns == min(predicted)
        assert report.predicted_gain >= 1.0


class TestAutoMatchesStatic:
    @pytest.mark.parametrize("backend", ["functional", "vectorized"])
    def test_outputs_bit_identical_to_static_plans(self, backend):
        elements = 128 if backend == "functional" else ELEMENTS
        session, inputs = _add_program(elements)
        session.backend = backend
        reference = session.run(inputs, plan=ExecutionPlan())
        auto = session.run(inputs, plan="auto")
        for shards in (1, 2, 4):
            static = session.run(inputs, plan=ExecutionPlan(shards=shards))
            for name in reference.outputs:
                assert np.array_equal(static.outputs[name], reference.outputs[name])
        for name in reference.outputs:
            assert np.array_equal(auto.outputs[name], reference.outputs[name])

    @pytest.mark.parametrize(
        "plan",
        [None, "auto", ExecutionPlan(shards=8), ExecutionPlan(hierarchical=True)],
        ids=["default", "auto", "shards8", "hierarchical"],
    )
    @pytest.mark.parametrize("family", FAMILIES)
    def test_front_doors_agree(self, family, plan):
        """session.run, the service, the harness and a warm start from the
        artifact store prepare and execute one program identically."""
        import asyncio

        from repro.api.service import PlutoService
        from repro.api.session import clear_all_caches
        from repro.evaluation.harness import EvaluationHarness
        from repro.serve.store import collect_artifacts, install_artifacts

        program = workload_program(family, elements=256, seed=5)
        session, inputs = program.session, program.inputs
        reference = session.run(inputs, plan=plan)

        async def serve():
            async with PlutoService(session, plan=plan) as service:
                return await service.submit(inputs)

        served = asyncio.run(serve())
        harness = EvaluationHarness(configs={"default": PlutoConfig()})
        harnessed = harness.execute_program(session, inputs, plan=plan)["default"]
        artifacts = collect_artifacts(session.calls, plan=plan)
        clear_all_caches()
        assert install_artifacts(artifacts)
        warm = session.run(inputs, plan=plan)
        for door, result in (
            ("service", served),
            ("harness", harnessed),
            ("warm start", warm),
        ):
            assert result.execution_plan == reference.execution_plan, door
            assert result.latency_ns == reference.latency_ns, door
            assert result.energy_nj == reference.energy_nj, door
            assert sorted(result.outputs) == sorted(reference.outputs), door
            for name, array in reference.outputs.items():
                assert np.array_equal(result.outputs[name], array), (door, name)

    def test_auto_never_worse_than_static_grid(self):
        session, inputs = _add_program()
        engine = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))
        auto = session.run(inputs, engine=engine, plan="auto")
        static = [
            session.run(
                inputs,
                engine=engine,
                plan=ExecutionPlan(shards=shards, optimize=optimize),
            ).latency_ns
            for shards in (1, 2, 4, 8, 16)
            for optimize in (False, True)
        ]
        assert auto.latency_ns <= min(static) * 1.005


class TestEntryPointPlans:
    def test_run_hierarchical_coerces_plain_plans(self):
        session, inputs = _add_program()
        result = session.run_hierarchical(inputs, plan=ExecutionPlan(shards=4))
        assert result.execution_plan.hierarchical
        assert result.num_shards == 4

    def test_run_batch_rejects_sharded_plans(self):
        session, inputs = _add_program(256)
        with pytest.raises(ConfigurationError):
            session.run_batch([inputs], plan=ExecutionPlan(shards=4))

    @pytest.mark.parametrize(
        "config",
        [
            PlutoConfig(),
            PlutoConfig(plan=ExecutionPlan(shards=4), optimize=True),
            PlutoConfig(plan="auto", optimize=True),
        ],
        ids=["default", "sharded", "auto"],
    )
    def test_execute_batch_runs_single_bank(self, config):
        """execute_batch ignores the engine's plan and optimize settings."""
        from repro.api.session import compile_cached_with_key, execute_batch
        from repro.controller.executor import PlutoController

        session, inputs = _add_program(256)
        engine = PlutoEngine(config)
        batch = execute_batch([(session, inputs), (session, inputs)], engine=engine)
        compiled, key = compile_cached_with_key(session.calls)
        reference = PlutoController(engine, backend="vectorized").execute(
            compiled, dict(inputs), structure_key=key
        )
        for result in batch.results:
            assert result.execution_plan.effective_shards == 1
            assert result.optimization is None
            assert result.latency_ns == reference.latency_ns
            assert np.array_equal(result.outputs["out"], reference.outputs["out"])


class TestAutoOnEntryPoints:
    def test_run_hierarchical_auto_stays_hierarchical(self):
        session, inputs = _add_program()
        engine = PlutoEngine(PlutoConfig(channels=2, ranks=2))
        result = session.run_hierarchical(inputs, engine=engine, plan="auto")
        assert result.execution_plan.hierarchical
        assert result.planner is not None

    def test_run_batch_auto_plans_single_mode(self):
        session, inputs = _add_program(256)
        batch = session.run_batch([inputs, inputs], plan="auto")
        plan = batch.execution_plan
        assert not plan.hierarchical and plan.effective_shards == 1
        assert batch.planner is not None

    def test_service_auto_plans_per_coalesced_batch(self):
        import asyncio

        async def main():
            clear_planner_cache()
            session, inputs = _add_program(256)
            async with session.serve(
                max_queue=8, max_batch=4, plan="auto"
            ) as service:
                first = await service.submit(inputs)
                second = await service.submit(inputs)
            assert first.execution_plan == second.execution_plan
            assert not first.planner.cached
            assert second.planner.cached
            stats = planner_cache_stats()
            assert stats["misses"] == 1 and stats["hits"] >= 1

        asyncio.run(main())

    def test_coalesced_requests_keep_their_own_planner_reports(self):
        import asyncio

        async def main():
            clear_planner_cache()
            session, inputs = _add_program(256)
            async with session.serve(
                max_queue=8, max_batch=4, plan="auto"
            ) as service:
                results = await asyncio.gather(
                    *[service.submit(inputs) for _ in range(3)]
                )
            assert [result.batch_size for result in results] == [3, 3, 3]
            assert [result.planner.cached for result in results] == [
                False,
                True,
                True,
            ]

        asyncio.run(main())

    def test_every_family_auto_plans_through_run(self):
        engine = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))
        for program in optimizer_workload_programs(elements=256, seed=0):
            reference = program.session.run(program.inputs, engine=engine)
            auto = program.session.run(program.inputs, engine=engine, plan="auto")
            for name in reference.outputs:
                assert np.array_equal(auto.outputs[name], reference.outputs[name])


class TestStructureKeyOnce:
    @pytest.mark.parametrize("plan", [None, "auto"], ids=["default", "auto"])
    def test_hot_requests_build_the_key_once(self, plan, monkeypatch):
        """One structure-key computation per hot request, whichever front
        door serves it: planner, optimizer, verifier and compile cache
        all reuse the key prepare() computed."""
        import asyncio

        import repro.compiler.lowering as lowering
        from repro.api.service import PlutoService

        built = []
        original = lowering.program_structure_key

        def counted(calls):
            # A sharded plan (auto may pick one, by host-measured cost
            # priors) also keys its smaller shard-slice programs once per
            # request; only whole-program keys count here.
            if calls and calls[0].output.size == 256:
                built.append(len(calls))
            return original(calls)

        monkeypatch.setattr(lowering, "program_structure_key", counted)
        program = workload_program("image", elements=256, seed=0)
        session, inputs = program.session, program.inputs
        for _ in range(2):
            session.run(inputs, plan=plan)
        built.clear()
        session.run(inputs, plan=plan)
        assert len(built) <= 1

        async def serve():
            async with PlutoService(session, plan=plan) as service:
                for _ in range(2):
                    await service.submit(inputs)
                built.clear()
                await service.submit(inputs)
                return len(built)

        assert asyncio.run(serve()) <= 1

    def test_unhashable_programs_bypass_the_memos(self):
        from repro.api.session import cache_stats, clear_all_caches

        session, inputs = _add_program(256)
        # A list-valued parameter makes the structure key unhashable.
        session.calls[0].parameters["taps"] = [1, 2, 3]
        reference = session.run(inputs)
        clear_all_caches()
        engine = PlutoEngine(PlutoConfig(verify="always"))
        result = session.run(
            inputs, engine=engine, plan=ExecutionPlan.auto(optimize=True)
        )
        assert np.array_equal(result.outputs["out"], reference.outputs["out"])
        stats = cache_stats()
        for layer in ("planner", "optimizer", "verifier"):
            assert stats[layer]["uncached"] >= 1, layer
            assert stats[layer]["size"] == 0, layer
        assert stats["programs"]["size"] == 0
