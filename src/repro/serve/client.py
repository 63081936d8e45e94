"""Bulk client helpers for the serving layers.

Benchmarks and examples kept hand-rolling the same submit/gather loop
around :class:`~repro.serve.pool.PlutoWorkerPool` futures; this module
is the one copy.  :func:`map_parallel` is the synchronous fan-out: ship
every input set, wait for every result, preserve submission order, and
surface the first failure — the ``ThreadPoolExecutor.map`` idiom shaped
for the pool's affinity routing (all requests of one program land on one
worker, in chunks).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.api.session import PlutoSession
    from repro.serve.pool import PlutoWorkerPool, WorkerResult

__all__ = ["map_parallel", "fan_out"]


def map_parallel(
    pool: "PlutoWorkerPool",
    session: "PlutoSession",
    inputs_list: "Sequence[Mapping[str, np.ndarray]]",
    *,
    return_outputs: bool = True,
) -> "list[WorkerResult]":
    """Serve every input set of one program and return results in order.

    Blocking: applies the pool's per-worker backpressure on submission
    and waits for every result.  The first failed request re-raises its
    error (after every submission has settled, so no work is abandoned
    mid-flight).
    """
    futures = pool.submit_many(
        session, list(inputs_list), return_outputs=return_outputs
    )
    results = []
    error: BaseException | None = None
    for future in futures:
        try:
            results.append(future.result())
        except BaseException as failure:  # re-raise after the gather
            if error is None:
                error = failure
    if error is not None:
        raise error
    return results


def fan_out(
    pool: "PlutoWorkerPool",
    jobs: "Iterable[tuple[PlutoSession, Mapping[str, np.ndarray]]]",
    *,
    return_outputs: bool = True,
) -> "list[WorkerResult]":
    """Serve mixed-program (session, inputs) jobs and gather in order.

    The mixed-structure analogue of :func:`map_parallel`: each job routes
    to its program's affine worker, so a stream of interleaved program
    families spreads across the pool while every family stays on its
    warm worker.
    """
    futures = [
        pool.submit(session, inputs, return_outputs=return_outputs)
        for session, inputs in jobs
    ]
    results = []
    error: BaseException | None = None
    for future in futures:
        try:
            results.append(future.result())
        except BaseException as failure:
            if error is None:
                error = failure
    if error is not None:
        raise error
    return results
