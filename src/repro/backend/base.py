"""The execution-backend protocol.

A compiled pLUTo program has two separable aspects: *what* it computes
(the functional effect of every instruction on the row-register values)
and *how* that computation is accounted for (the DRAM command trace the
controller derives from the command ROM and the cost model).  The
controller owns the accounting; an :class:`ExecutionBackend` owns the
functional effects, so the same program can be simulated bit-exactly at
very different speeds:

* :class:`~repro.backend.functional.FunctionalBackend` routes every LUT
  query through a real :class:`~repro.core.subarray.PlutoSubarray`
  (match logic + row sweep + FF buffer) — the hardware data path.
* :class:`~repro.backend.vectorized.VectorizedBackend` executes a LUT
  query as a single NumPy gather (``table.values[indices]``).

Because the trace is produced by the controller independently of the
backend, latency/energy traces are identical across backends by
construction; the differential test in ``tests/test_backend_differential``
asserts it.

Bitwise logic, shifts, and moves are already plain vector arithmetic in
both cases, so the base class provides them as shared implementations;
only the LUT-query path differs between backends.
"""

from __future__ import annotations

import abc
from typing import ClassVar

import numpy as np

from repro.core.designs import PlutoDesign
from repro.core.lut import LookupTable
from repro.dram.geometry import DRAMGeometry
from repro.errors import ConfigurationError, ExecutionError
from repro.isa.instructions import BitwiseKind, ShiftDirection
from repro.utils.bitops import mask_of

__all__ = ["ExecutionBackend", "backend_names", "resolve_backend"]


class ExecutionBackend(abc.ABC):
    """Performs the functional effects of pLUTo ISA instructions.

    One backend instance can execute many programs in sequence (the
    session layer reuses it for batched submission); the controller calls
    :meth:`begin_program` before each execution so per-program LUT
    bindings never leak between runs.
    """

    #: Registry name ("functional", "vectorized", ...).
    name: ClassVar[str] = "abstract"

    #: Whether the backend's effects are plain NumPy array operations, so
    #: the whole-program compiled closure (:mod:`repro.backend.compiled`)
    #: can replace them — including over stacked ``(shards, elements)``
    #: arrays, where a set of equal-sized shards runs in one pass
    #: (``PlutoController.execute_fused``).  The functional oracle opts
    #: out and keeps its row sweep.
    supports_batched: ClassVar[bool] = False

    def __init__(self) -> None:
        self._geometry: DRAMGeometry | None = None
        self._design: PlutoDesign | None = None

    # ------------------------------------------------------------------ #
    # Program lifecycle
    # ------------------------------------------------------------------ #
    def begin_program(self, geometry: DRAMGeometry, design: PlutoDesign) -> None:
        """Reset per-program state and bind the engine's geometry/design."""
        self._geometry = geometry
        self._design = design
        self._reset_luts()

    @abc.abstractmethod
    def _reset_luts(self) -> None:
        """Drop all per-program LUT bindings."""

    # ------------------------------------------------------------------ #
    # LUT queries (the backend-specific part)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def load_lut(
        self, register_index: int, lut: LookupTable, *, subarray_index: int = 0
    ) -> None:
        """Bind ``lut`` to a subarray register (``pluto_subarray_alloc``)."""

    @abc.abstractmethod
    def lut_query(self, register_index: int, indices: np.ndarray) -> np.ndarray:
        """Evaluate the bound LUT for a vector of indices (``pluto_op``).

        Raises :class:`ExecutionError` if no LUT is bound to the register.
        """

    # ------------------------------------------------------------------ #
    # Shared functional effects (identical in every backend)
    # ------------------------------------------------------------------ #
    @staticmethod
    def bitwise(
        kind: BitwiseKind,
        a: np.ndarray,
        b: np.ndarray | None,
        width: int,
    ) -> np.ndarray:
        """Element-wise bitwise logic masked to ``width`` bits."""
        mask = np.uint64(mask_of(min(64, width)))
        if kind is BitwiseKind.NOT:
            return (~a) & mask
        if b is None:
            raise ExecutionError(f"bitwise {kind.value} needs two source rows")
        if kind is BitwiseKind.AND:
            result = a & b
        elif kind is BitwiseKind.OR:
            result = a | b
        elif kind is BitwiseKind.XOR:
            result = a ^ b
        elif kind is BitwiseKind.XNOR:
            result = (~(a ^ b)) & mask
        elif kind is BitwiseKind.NAND:
            result = (~(a & b)) & mask
        elif kind is BitwiseKind.NOR:
            result = (~(a | b)) & mask
        else:
            raise ExecutionError(f"unsupported bitwise kind {kind}")
        return result & mask

    @staticmethod
    def shift(
        data: np.ndarray, amount: int, direction: ShiftDirection, width: int
    ) -> np.ndarray:
        """Element-wise shift masked to ``width`` bits."""
        mask = np.uint64(mask_of(min(64, width)))
        if direction is ShiftDirection.LEFT:
            return (data << np.uint64(amount)) & mask
        return data >> np.uint64(amount)

    @staticmethod
    def move(
        source: np.ndarray, destination: np.ndarray | None
    ) -> np.ndarray:
        """Row copy: write ``source`` into ``destination`` (or clone it)."""
        if destination is not None and destination.size >= source.size:
            destination[: source.size] = source
            return destination
        return source.copy()

    # ------------------------------------------------------------------ #
    # Helpers for subclasses
    # ------------------------------------------------------------------ #
    @property
    def geometry(self) -> DRAMGeometry:
        if self._geometry is None:
            raise ExecutionError("backend used before begin_program()")
        return self._geometry

    @property
    def design(self) -> PlutoDesign:
        if self._design is None:
            raise ExecutionError("backend used before begin_program()")
        return self._design


def _registry() -> dict[str, type[ExecutionBackend]]:
    # Imported lazily so base.py stays import-cycle free.
    from repro.backend.functional import FunctionalBackend
    from repro.backend.vectorized import VectorizedBackend

    return {
        FunctionalBackend.name: FunctionalBackend,
        VectorizedBackend.name: VectorizedBackend,
    }


def backend_names() -> tuple[str, ...]:
    """The registry names accepted wherever a backend can be selected."""
    return tuple(_registry())


def resolve_backend(backend: str | ExecutionBackend) -> ExecutionBackend:
    """Return a backend instance from a name or pass an instance through."""
    if isinstance(backend, ExecutionBackend):
        return backend
    registry = _registry()
    try:
        factory = registry[backend]
    except KeyError:
        raise ConfigurationError(
            f"unknown execution backend {backend!r}; expected one of "
            f"{sorted(registry)} or an ExecutionBackend instance"
        ) from None
    return factory()
