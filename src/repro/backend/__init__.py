"""Pluggable execution backends for compiled pLUTo programs.

The controller delegates every functional effect to an
:class:`ExecutionBackend`; the cost accounting (command ROM + cost model)
is backend-independent, so the two shipped backends produce identical
latency/energy traces while differing by orders of magnitude in wall-clock
speed:

* ``"functional"`` — the bit-exact :class:`PlutoSubarray` row-sweep path.
* ``"vectorized"`` — whole-program NumPy gather/bitwise execution.

On the vectorized backend, :mod:`repro.backend.compiled` lowers a whole
compiled program into a single cached NumPy closure (zero
per-instruction Python dispatch); the controller runs every keyed
vectorized execution through it — there is no interpreted fallback, and
a lowering error raises like any execution error.  Keyless executions
walk the program instruction by instruction, as the functional oracle
does.
"""

from repro.backend.base import ExecutionBackend, backend_names, resolve_backend
from repro.backend.compiled import (
    CompiledExecutable,
    clear_compiled_programs,
    compile_program,
    compiled_exec_stats,
)
from repro.backend.functional import FunctionalBackend
from repro.backend.vectorized import VectorizedBackend

__all__ = [
    "backend_names",
    "clear_compiled_programs",
    "compile_program",
    "compiled_exec_stats",
    "CompiledExecutable",
    "ExecutionBackend",
    "FunctionalBackend",
    "VectorizedBackend",
    "resolve_backend",
]
