"""Benchmark: measured gains of the program optimizer.

Runs every registry-family pipeline unoptimized and optimized
(:func:`repro.evaluation.figures.figure_optimizer_gains`) and asserts the
PR's acceptance criteria on the LUT-chain-heavy workloads:

* executed ``ROW_SWEEP`` commands drop by at least
  ``MIN_SWEEP_REDUCTION`` (30 %) on the image and Salsa20 pipelines —
  the static report and the executed trace must agree;
* the bank-parallel scheduler makespan drops measurably
  (``MIN_MAKESPAN_REDUCTION``) on those same workloads;
* outputs are bit-identical (the figure itself raises otherwise), and a
  functional-backend spot check reproduces the optimized outputs on the
  row-sweep oracle path.

The numbers are emitted as JSON (stdout + ``benchmarks/optimizer_gain.json``,
overridable via ``OPTIMIZER_GAIN_JSON``); CI's perf-track job folds them
into ``BENCH_pr5.json`` and gates on the floors.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.evaluation.figures import figure_optimizer_gains
from repro.plan import ExecutionPlan

#: Row-sweep reduction floor on the LUT-chain-heavy pipelines.
MIN_SWEEP_REDUCTION = 0.30
#: Scheduler-makespan reduction floor on the same pipelines.
MIN_MAKESPAN_REDUCTION = 0.20
#: The workloads the floors are asserted on (chain-heavy by design).
GATED_WORKLOADS = ("image", "salsa20")


def _functional_spot_check() -> dict:
    """The optimized image pipeline on the functional (oracle) backend."""
    from repro.workloads.programs import workload_program

    program = workload_program("image", elements=256)
    session = program.session
    session.backend = "functional"
    plain = session.run(program.inputs)
    optimized = session.run(program.inputs, plan=ExecutionPlan(optimize=True))
    identical = all(
        np.array_equal(plain.outputs[name], optimized.outputs[name])
        for name in plain.outputs
    )
    assert identical, "functional-backend optimized outputs diverged"
    return {
        "backend": "functional",
        "elements": 256,
        "bit_identical": identical,
        "lut_queries": [plain.lut_queries, optimized.lut_queries],
    }


def test_optimizer_gains_hold():
    start = time.perf_counter()
    figure = figure_optimizer_gains()
    wall_s = time.perf_counter() - start
    by_name = {row["workload"]: row for row in figure.rows}

    for name in GATED_WORKLOADS:
        row = by_name[name]
        assert row["sweep_reduction"] >= MIN_SWEEP_REDUCTION, (
            f"{name}: row sweeps only fell {100 * row['sweep_reduction']:.0f}% "
            f"(floor {100 * MIN_SWEEP_REDUCTION:.0f}%)"
        )
        assert row["makespan_reduction"] >= MIN_MAKESPAN_REDUCTION, (
            f"{name}: makespan only fell {100 * row['makespan_reduction']:.0f}% "
            f"(floor {100 * MIN_MAKESPAN_REDUCTION:.0f}%)"
        )
    for row in figure.rows:
        # Optimization never makes any family worse.
        assert row["row_sweeps_after"] <= row["row_sweeps_before"]
        assert row["makespan_after_ns"] <= row["makespan_before_ns"] * (1 + 1e-9)

    oracle = _functional_spot_check()
    gated = {name: by_name[name]["sweep_reduction"] for name in GATED_WORKLOADS}
    payload = {
        "workload": "optimizer-gain (registry pipelines, shards=8, pLUTo-BSA)",
        "min_sweep_reduction": MIN_SWEEP_REDUCTION,
        "min_makespan_reduction": MIN_MAKESPAN_REDUCTION,
        "gated_workloads": list(GATED_WORKLOADS),
        "sweep_reduction": min(gated.values()),
        "makespan_reduction": min(
            by_name[name]["makespan_reduction"] for name in GATED_WORKLOADS
        ),
        "wall_clock_s": wall_s,
        "functional_spot_check": oracle,
        "rows": figure.rows,
    }
    print("OPTIMIZER_GAIN_JSON " + json.dumps(payload))
    output = Path(
        os.environ.get(
            "OPTIMIZER_GAIN_JSON",
            Path(__file__).resolve().parent / "optimizer_gain.json",
        )
    )
    output.write_text(json.dumps(payload, indent=2) + "\n")
