"""``python -m repro.analyze`` — lint registry workload programs.

Runs the static verifier over the recorded API pipelines of the
workload registry (:mod:`repro.workloads.programs`), both as recorded
and after the optimizer pipeline rewrites them, and prints one line per
program (plus every diagnostic, if any).  Exit status is non-zero when
any verified program carries an error-severity finding, so CI can gate
on a clean registry with::

    python -m repro.analyze --all-workloads
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro.analyze.verifier import verify_program
from repro.errors import ReproError

__all__ = ["main"]


def _registry_names() -> list[str]:
    from repro.workloads.programs import _BUILDERS

    return sorted(_BUILDERS)


def _lint_one(
    name: str, elements: int, seed: int, *, optimize: bool, verbose: bool
) -> int:
    """Verify one workload program; return the number of errors found."""
    from repro.workloads.programs import workload_program

    program = workload_program(name, elements=elements, seed=seed)
    calls = list(program.session.calls)
    stage = "recorded"
    if optimize:
        calls = list(program.session.optimize().calls)
        stage = "optimized"
    report = verify_program(calls, subject=f"{name} ({stage})")
    status = "clean" if report.clean else (
        "OK with warnings" if report.ok else "FAILED"
    )
    print(
        f"{name:>12} [{stage}]: {status} "
        f"({len(calls)} calls, {len(report.errors)} errors, "
        f"{len(report.warnings)} warnings)"
    )
    if report.diagnostics and (verbose or not report.ok):
        for diagnostic in report.diagnostics:
            print(f"    {diagnostic.render()}")
    return len(report.errors)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="Statically verify pLUTo registry workload programs.",
    )
    parser.add_argument(
        "workloads",
        nargs="*",
        metavar="WORKLOAD",
        help=f"registry program names to lint (available: {', '.join(_registry_names())})",
    )
    parser.add_argument(
        "--all-workloads",
        action="store_true",
        help="lint every registry workload family",
    )
    parser.add_argument(
        "--elements",
        type=int,
        default=256,
        help="element count for the recorded programs (default: 256)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="input RNG seed (default: 0)"
    )
    parser.add_argument(
        "--no-optimized",
        action="store_true",
        help="lint only the recorded programs, not the optimizer's rewrites",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print warnings even when a program verifies without errors",
    )
    args = parser.parse_args(argv)

    names = list(args.workloads)
    if args.all_workloads or not names:
        names = _registry_names()
    available = set(_registry_names())
    unknown = [name for name in names if name not in available]
    if unknown:
        parser.error(
            f"unknown workloads {unknown}; available: {sorted(available)}"
        )

    errors = 0
    for name in names:
        stages = [False] if args.no_optimized else [False, True]
        for optimize in stages:
            try:
                errors += _lint_one(
                    name,
                    args.elements,
                    args.seed,
                    optimize=optimize,
                    verbose=args.verbose,
                )
            except ReproError as error:
                print(f"{name:>12}: FAILED to build/verify: {error}")
                errors += 1
    if errors:
        print(f"\n{errors} error(s) across {len(names)} workload(s)")
        return 1
    print(f"\nall {len(names)} workload(s) verify clean")
    return 0
