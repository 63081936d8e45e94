"""Tests for the persistent warm-artifact store (serve/store.py)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import PlutoSession
from repro.api.session import cache_stats, clear_all_caches
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.plan import ExecutionPlan
from repro.serve.store import (
    ARTIFACT_SCHEMA_VERSION,
    SharedArtifactStore,
    collect_artifacts,
    install_artifacts,
)
from repro.workloads.programs import workload_program

ELEMENTS = 256

#: The pipeline stages warm start must fully pre-pay: a warm-started
#: process serving a stored structure takes zero cold misses on any of
#: them (``scheduler_merges`` is exempt — the analytic merge is
#: recomputed per realized stream and costs microseconds).
WARM_LAYERS = (
    "optimizer",
    "planner",
    "verifier",
    "trace_templates",
    "compiled_exec",
)


def _program() -> PlutoSession:
    session = PlutoSession()
    a = session.pluto_malloc(ELEMENTS, 4, "a")
    b = session.pluto_malloc(ELEMENTS, 4, "b")
    out = session.pluto_malloc(ELEMENTS, 8, "out")
    session.api_pluto_add(a, b, out, bit_width=4)
    return session


class TestStoreRoundtrip:
    def test_export_load_roundtrip(self, tmp_path):
        session = _program()
        store = SharedArtifactStore(tmp_path / "store")
        artifacts = store.export(session.calls)
        assert len(store) == 1
        loaded = SharedArtifactStore(tmp_path / "store").load(
            artifacts.identity
        )
        assert loaded is not None
        assert loaded.identity == artifacts.identity
        assert loaded.structure_key == artifacts.structure_key
        assert loaded.compiled is not None

    def test_missing_entry_counts_a_miss(self, tmp_path):
        session = _program()
        store = SharedArtifactStore(tmp_path / "store")
        artifacts = collect_artifacts(session.calls)
        before = cache_stats()["shared_store"]["misses"]
        assert store.load(artifacts.identity) is None
        assert cache_stats()["shared_store"]["misses"] == before + 1

    def test_export_overwrites_same_key(self, tmp_path):
        session = _program()
        store = SharedArtifactStore(tmp_path / "store")
        store.export(session.calls)
        store.export(session.calls)
        assert len(store) == 1


class TestVersionedInvalidation:
    def test_schema_mismatch_is_stale_and_removed(self, tmp_path):
        session = _program()
        store = SharedArtifactStore(tmp_path / "store")
        artifacts = store.export(session.calls)
        stale = dataclasses.replace(
            artifacts, schema=ARTIFACT_SCHEMA_VERSION + 1
        )
        path = store.save(stale)
        store._entry_path(artifacts.identity).unlink()  # keep only stale
        before = cache_stats()["shared_store"]["stale"]
        report = store.warm_start()
        assert report.installed == 0
        assert cache_stats()["shared_store"]["stale"] == before + 1
        assert not path.exists()  # invalid entries are evicted on read

    def test_corrupt_entry_is_stale_and_removed(self, tmp_path):
        session = _program()
        store = SharedArtifactStore(tmp_path / "store")
        artifacts = store.export(session.calls)
        path = store._entry_path(artifacts.identity)
        path.write_bytes(b"not a pickle")
        report = store.warm_start()
        assert report.installed == 0
        assert not path.exists()

    def test_config_mismatch_never_installs(self, tmp_path):
        session = _program()
        store = SharedArtifactStore(tmp_path / "store")
        store.export(session.calls)  # under the default configuration
        other = PlutoEngine(PlutoConfig(channels=2, ranks=2))
        report = store.warm_start(other)
        assert report.entries == 1
        assert report.installed == 0
        assert report.stale == 1

    def test_install_rejects_foreign_config(self, tmp_path):
        session = _program()
        artifacts = collect_artifacts(session.calls)
        other = PlutoEngine(PlutoConfig(channels=2, ranks=2))
        assert install_artifacts(artifacts, other) is False


class TestWarmStart:
    def test_cleared_caches_serve_with_zero_cold_misses(self, tmp_path):
        """The headline property: a warm-started process runs the fully
        warm path on its first request — zero optimizer / planner /
        verifier / template / compile misses, bit-identical outputs."""
        program = workload_program("crc", elements=ELEMENTS, seed=1)
        store = SharedArtifactStore(tmp_path / "store")
        store.export(
            program.session.calls,
            supports_batched=True,
        )
        cold = program.session.run(program.inputs)

        clear_all_caches()
        report = store.warm_start()
        assert report.installed == 1
        before = cache_stats()

        warm = program.session.run(program.inputs)
        after = cache_stats()

        for layer in WARM_LAYERS:
            misses = after[layer]["misses"] - before[layer]["misses"]
            assert misses == 0, f"{layer} took {misses} cold miss(es)"
        # No program was compiled after warm start either.
        assert after["programs"]["size"] == before["programs"]["size"]
        for name, array in cold.outputs.items():
            assert np.array_equal(array, warm.outputs[name])

    def test_narrowed_hierarchical_plan_warm_starts_its_own_slices(
        self, tmp_path
    ):
        """The stored slices are the dispatched ones: on a 2 x 2 device a
        plan narrowed to one channel and one rank runs 16 slices of 256
        elements, and a warm-started process compiles none of them."""
        program = workload_program("crc", elements=4096, seed=1)
        engine = PlutoEngine(PlutoConfig(channels=2, ranks=2))
        plan = ExecutionPlan(hierarchical=True, channels=1, ranks=1)
        store = SharedArtifactStore(tmp_path / "store")
        artifacts = store.export(program.session.calls, engine, plan=plan)
        assert len(artifacts.shards) == 1
        cold = program.session.run(program.inputs, engine=engine, plan=plan)
        assert {shard.size for shard in cold.shards} == {256}

        clear_all_caches()
        assert store.warm_start(engine).installed == 1
        before = cache_stats()
        warm = program.session.run(program.inputs, engine=engine, plan=plan)
        after = cache_stats()
        for layer in WARM_LAYERS:
            misses = after[layer]["misses"] - before[layer]["misses"]
            assert misses == 0, f"{layer} took {misses} cold miss(es)"
        assert after["programs"]["size"] == before["programs"]["size"]
        for name, array in cold.outputs.items():
            assert np.array_equal(array, warm.outputs[name])

    def test_small_hierarchical_program_collects_like_it_runs(self):
        """A device-wide plan over fewer elements than banks caps its
        shard count at the element count, in dispatch and in the store."""
        program = workload_program("crc", elements=8, seed=1)
        plan = ExecutionPlan(hierarchical=True)
        result = program.session.run(program.inputs, plan=plan)
        assert result.num_shards == 8
        artifacts = collect_artifacts(program.session.calls, plan=plan)
        assert len(artifacts.shards) == 1

    def test_warm_start_installs_every_family(self, tmp_path):
        store = SharedArtifactStore(tmp_path / "store")
        for name in ("crc", "image", "bitcount"):
            program = workload_program(name, elements=ELEMENTS, seed=2)
            store.export(program.session.calls)
        clear_all_caches()
        report = store.warm_start()
        assert report.entries == 3
        assert report.installed == 3
        assert report.load_time_s > 0.0
        stats = cache_stats()["shared_store"]
        assert stats["installed"] >= 3

    def test_clear_empties_the_store(self, tmp_path):
        session = _program()
        store = SharedArtifactStore(tmp_path / "store")
        store.export(session.calls)
        store.clear()
        assert len(store) == 0
        assert store.warm_start().entries == 0

    def test_cache_stats_exposes_the_shared_store_layer(self):
        stats = cache_stats()["shared_store"]
        for key in (
            "hits", "misses", "stale", "saved", "installed", "load_time_s"
        ):
            assert key in stats


class TestFreshProcessWarmStart:
    def test_spawned_pool_serves_store_programs_without_compiling(
        self, tmp_path
    ):
        """A genuinely cold process (spawn start method) warm-starts from
        the store and serves bit-identical outputs, with every warm layer
        hitting instead of missing."""
        from repro.serve import PlutoWorkerPool

        program = workload_program("crc", elements=ELEMENTS, seed=3)
        store = SharedArtifactStore(tmp_path / "store")
        store.export(program.session.calls)
        reference = program.session.run(program.inputs)

        import zlib

        expected = {
            name: zlib.crc32(np.asarray(array).tobytes())
            for name, array in reference.outputs.items()
        }
        with PlutoWorkerPool(
            workers=1,
            store_path=str(tmp_path / "store"),
            start_method="spawn",
        ) as pool:
            assert pool.wait_ready(120.0)
            assert pool.warm_reports[0]["installed"] == 1
            result = pool.submit(
                program.session, program.inputs, return_outputs=False
            ).result(120.0)
        assert result.digests == expected
        caches = pool.worker_reports[0]["cache_stats"]
        for layer in WARM_LAYERS:
            stats = caches[layer]
            assert stats["misses"] == 0, (
                f"fresh process took {stats['misses']} cold "
                f"{layer} miss(es)"
            )
