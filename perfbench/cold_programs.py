"""Seeded stream of freshly generated pLUTo programs, plus their expected outputs.

Program ``index`` of the stream for ``seed`` is a random chain of 2-6
operations (map, add, bitwise, shift) over one ``width``-bit vector,
``width`` drawn from 4-8.  Every chain starts with a map through a random
permutation table, so no two programs of a stream share a program
structure: every structure-keyed cache of the stack misses on them.

The chain's *shape* (width, length, operation kinds, table builders) is
drawn from a fixed stream, the same for every seed; the seed draws its
*contents* (table values, bitwise operators, shift amounts, inputs).  Host
cost depends mostly on the shape (planning a 256-row sweep costs far more
than a 16-row one), so runs with different seeds measure the same mix of
host work on different data, while the modelled DRAM cost still moves
with the seed (shift amounts and bitwise operators change command counts).

:func:`cold_program` also evaluates the same chain directly with NumPy
(table gathers, masked bitwise logic and shifts) into
:attr:`ColdProgram.expected`.  That is the per-request check; the
benchmark also runs a sample of the served programs through the
``backend="functional"`` oracle, which anchors this evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.luts import add_lut, binarize_lut, color_grade_lut, permutation_lut
from repro.api.session import PlutoSession

ELEMENTS = 256
_SHAPE_SEED = 0x5EED
_BITWISE = ("and", "or", "xor")


@dataclass
class ColdProgram:
    """One generated request: its session, inputs and expected outputs."""

    index: int
    session: PlutoSession
    inputs: dict[str, np.ndarray]
    expected: dict[str, np.ndarray]


def _random_map_table(rng: np.random.Generator, width: int, kind: int):
    """A ``width``-bit table of registry builder ``kind`` with random contents."""
    if kind == 0:
        return permutation_lut(rng.permutation(1 << width).tolist(), width, name=f"perm{width}")
    if kind == 1:
        gamma = float(rng.uniform(0.3, 3.0))
        return color_grade_lut(lambda x, g=gamma: x**g, width)
    return binarize_lut(int(rng.integers(1, 1 << width)), width)


def cold_program(
    seed: int, index: int, *, variant: int = 0, elements: int = ELEMENTS
) -> ColdProgram:
    """Program ``index`` of content ``variant`` of the stream for ``seed``."""
    shape = np.random.default_rng([_SHAPE_SEED, index])
    rng = np.random.default_rng([seed, variant, index])
    width = int(shape.integers(4, 9))
    operations = int(shape.integers(2, 7))
    mask = np.uint64((1 << width) - 1)
    session = PlutoSession()
    current = session.pluto_malloc(elements, width, "x")
    inputs = {"x": rng.integers(0, 1 << width, elements, dtype=np.uint64)}
    values = {"x": inputs["x"]}
    other = None
    addends = None
    for step in range(operations):
        choices = ("map", "bitwise", "shift", "add")
        kind = "map" if step == 0 else choices[int(shape.integers(0, len(choices)))]
        out = session.pluto_malloc(elements, width, f"t{step}")
        value = values[current.name]
        if kind == "map":
            table_kind = 0 if step == 0 else int(shape.integers(0, 3))
            table = _random_map_table(rng, width, table_kind)
            session.api_pluto_map(table, current, out)
            result = np.asarray(table.values, dtype=np.uint64)[value]
        elif kind == "shift":
            bits = int(rng.integers(1, width))
            direction = "l" if rng.integers(0, 2) else "r"
            session.api_pluto_shift(current, out, bits, direction)
            if direction == "l":
                result = (value << np.uint64(bits)) & mask
            else:
                result = value >> np.uint64(bits)
        else:
            if kind == "add":
                # a + b over two 4-bit inputs, folded into the chain with xor.
                if addends is None:
                    addends = (
                        session.pluto_malloc(elements, 4, "a"),
                        session.pluto_malloc(elements, 4, "b"),
                    )
                    for vector in addends:
                        inputs[vector.name] = rng.integers(0, 16, elements, dtype=np.uint64)
                        values[vector.name] = inputs[vector.name]
                operand = session.pluto_malloc(elements, 8, f"s{step}")
                session.api_pluto_add(*addends, operand, bit_width=4)
                index_bits = (values["a"] << np.uint64(4)) | values["b"]
                values[operand.name] = np.asarray(add_lut(4).values, dtype=np.uint64)[index_bits]
                operation = "xor"
            else:
                if other is None:
                    other = session.pluto_malloc(elements, width, "y")
                    inputs["y"] = rng.integers(0, 1 << width, elements, dtype=np.uint64)
                    values["y"] = inputs["y"]
                operand = other
                operation = _BITWISE[int(rng.integers(0, len(_BITWISE)))]
            session.api_pluto_bitwise(operation, current, operand, out)
            left, right = value, values[operand.name]
            if operation == "and":
                result = left & right
            elif operation == "or":
                result = left | right
            else:
                result = left ^ right
            result = result & mask
        values[out.name] = result
        current = out
    return ColdProgram(index=index, session=session, inputs=inputs, expected=values)
