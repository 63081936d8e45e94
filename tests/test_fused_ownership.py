"""Result ownership on the zero-copy fused shard path.

The fused dispatcher feeds each size group's inputs as reshaped views of
the caller's arrays and hands out per-shard results as row views of the
pass's stacked finals.  These tests pin what that may never change:

* no result aliases the caller's inputs (mutating either side leaves the
  other intact), input-vector registers included;
* dtype-converted (``uint32``) and strided (``big[::2]``) inputs give
  the unsharded run's outputs, and the per-shard oracle loop's;
* shard *i*'s outputs are the merged outputs' ``[start:stop]`` slice.

Each contract runs on an even split (4,096 elements over 8 shards) and an
uneven one (29 elements over 6: two size groups), through the
dispatcher, ``session.run`` and a coalesced ``PlutoService`` batch.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.api.luts import color_grade_lut
from repro.api.session import PlutoSession
from repro.controller.hierarchy import HierarchicalDispatcher
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.plan import ExecutionPlan

#: (elements, shards): one size group, and two.
SPLITS = [(4096, 8), (29, 6)]


def _program(elements: int) -> PlutoSession:
    """Mul + add + map + bitwise + shift over three external inputs."""
    session = PlutoSession()
    a = session.pluto_malloc(elements, 2, "a")
    b = session.pluto_malloc(elements, 2, "b")
    c = session.pluto_malloc(elements, 4, "c")
    tmp = session.pluto_malloc(elements, 4, "tmp")
    summed = session.pluto_malloc(elements, 8, "summed")
    graded = session.pluto_malloc(elements, 8, "graded")
    mixed = session.pluto_malloc(elements, 8, "mixed")
    shifted = session.pluto_malloc(elements, 8, "shifted")
    session.api_pluto_mul(a, b, tmp, bit_width=2)
    session.api_pluto_add(c, tmp, summed, bit_width=4)
    session.api_pluto_map(color_grade_lut(), summed, graded)
    session.api_pluto_bitwise("xor", graded, summed, mixed)
    session.api_pluto_shift(mixed, shifted, 2, "r")
    return session


def _inputs(elements: int, seed: int = 11, dtype=np.uint64) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "a": rng.integers(0, 4, elements).astype(dtype),
        "b": rng.integers(0, 4, elements).astype(dtype),
        "c": rng.integers(0, 16, elements).astype(dtype),
    }


def _snapshot(arrays) -> dict[str, np.ndarray]:
    return {name: np.array(data, copy=True) for name, data in arrays.items()}


def _assert_equal(actual, expected) -> None:
    assert actual.keys() == expected.keys()
    for name, data in expected.items():
        assert np.array_equal(actual[name], data), name


def _scribble(arrays) -> None:
    """Overwrite every array in place."""
    for data in arrays.values():
        data[...] = 3


def _dispatch(engine, session, inputs, shards, *, fused=None):
    return HierarchicalDispatcher(engine, fused=fused).execute(
        session.calls, inputs, shards=shards
    )


def _session_run(engine, session, inputs, shards, *, fused=None):
    return session.run(inputs, engine=engine, plan=ExecutionPlan(shards=shards))


FRONT_DOORS = {"dispatcher": _dispatch, "session": _session_run}


@pytest.mark.parametrize("elements,shards", SPLITS)
@pytest.mark.parametrize("front_door", sorted(FRONT_DOORS))
class TestShardedOwnership:
    def test_mutating_results_leaves_inputs_intact(self, elements, shards, front_door):
        session = _program(elements)
        engine = PlutoEngine(PlutoConfig())
        inputs = _inputs(elements)
        before = _snapshot(inputs)
        result = FRONT_DOORS[front_door](engine, session, inputs, shards)
        assert result.num_shards == shards
        # The input vectors' registers are part of the snapshot.
        assert {"a", "b", "c"} <= set(result.registers)
        _scribble(result.outputs)
        _scribble(result.registers)
        for shard in result.shard_results:
            _scribble(shard.outputs)
            _scribble(shard.registers)
        _assert_equal(inputs, before)

    def test_mutating_inputs_leaves_results_intact(self, elements, shards, front_door):
        session = _program(elements)
        engine = PlutoEngine(PlutoConfig())
        inputs = _inputs(elements)
        result = FRONT_DOORS[front_door](engine, session, inputs, shards)
        outputs = _snapshot(result.outputs)
        registers = _snapshot(result.registers)
        shard_registers = [_snapshot(shard.registers) for shard in result.shard_results]
        _scribble(inputs)
        _assert_equal(result.outputs, outputs)
        _assert_equal(result.registers, registers)
        for shard, expected in zip(result.shard_results, shard_registers):
            _assert_equal(shard.registers, expected)

    def test_shard_outputs_are_merged_slices(self, elements, shards, front_door):
        session = _program(elements)
        engine = PlutoEngine(PlutoConfig())
        result = FRONT_DOORS[front_door](engine, session, _inputs(elements), shards)
        for plan, shard in zip(result.shards, result.shard_results):
            for name, data in shard.outputs.items():
                assert np.array_equal(
                    data, result.outputs[name][plan.start : plan.stop]
                ), name
            for name, data in shard.registers.items():
                assert np.array_equal(
                    data, result.registers[name][plan.start : plan.stop]
                ), name

    @pytest.mark.parametrize("layout", ["uint32", "strided"])
    def test_converted_and_strided_inputs_match_references(
        self, elements, shards, front_door, layout
    ):
        session = _program(elements)
        engine = PlutoEngine(PlutoConfig())
        plain = _inputs(elements)
        if layout == "uint32":
            inputs = {name: data.astype(np.uint32) for name, data in plain.items()}
        else:
            inputs = {}
            for name, data in plain.items():
                big = np.zeros(2 * elements, dtype=np.uint64)
                big[::2] = data
                inputs[name] = big[::2]
                assert not inputs[name].flags.c_contiguous
        before = _snapshot(inputs)
        result = FRONT_DOORS[front_door](engine, session, inputs, shards)
        unsharded = session.run(plain, engine=engine)
        oracle = _dispatch(engine, session, plain, shards, fused=False)
        _assert_equal(result.outputs, unsharded.outputs)
        _assert_equal(result.outputs, oracle.outputs)
        _assert_equal(result.registers, oracle.registers)
        _scribble(result.registers)
        _assert_equal(inputs, before)


@pytest.mark.parametrize("elements,shards", SPLITS)
def test_coalesced_service_batch_ownership(elements, shards):
    """Coalesced requests get row views of one pass; none aliases another."""
    session = _program(elements)
    requests = [_inputs(elements, seed=seed) for seed in range(6)]
    before = [_snapshot(inputs) for inputs in requests]
    expected = [session.run(inputs).outputs for inputs in requests]

    async def main():
        async with session.serve(max_queue=16, max_batch=8) as service:
            return await asyncio.gather(
                *(service.submit(inputs) for inputs in requests)
            )

    served = asyncio.run(main())
    assert any(item.batch_size > 1 for item in served)
    kept = [_snapshot(item.result.registers) for item in served]
    # Mutating the inputs after the run leaves every result intact...
    for inputs in requests:
        _scribble(inputs)
    for item, outputs, registers in zip(served, expected, kept):
        _assert_equal(item.outputs, outputs)
        _assert_equal(item.result.registers, registers)
    for inputs, original in zip(requests, before):
        inputs.update(_snapshot(original))
    # ...and mutating one request's results leaves the inputs and the
    # other requests' results intact.
    _scribble(served[0].outputs)
    _scribble(served[0].result.registers)
    for inputs, original in zip(requests, before):
        _assert_equal(inputs, original)
    for item, outputs in zip(served[1:], expected[1:]):
        _assert_equal(item.outputs, outputs)


@pytest.mark.parametrize("elements,shards", SPLITS)
def test_sharded_service_ownership(elements, shards):
    """A sharded service plan runs through the dispatcher: same contract."""
    session = _program(elements)
    inputs = _inputs(elements)
    before = _snapshot(inputs)
    expected = session.run(inputs).outputs

    async def main():
        async with session.serve(plan=ExecutionPlan(shards=shards)) as service:
            return await service.submit(inputs)

    served = asyncio.run(main())
    assert served.result.num_shards == shards
    _assert_equal(served.outputs, expected)
    _scribble(served.result.registers)
    _assert_equal(inputs, before)
