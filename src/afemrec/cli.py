"""Command-line entry point for adaptive runs.

Example::

    afemrec --problem kellogg --method conforming --recovery rt \\
            --theta 0.5 --max-dof 100000 --out ./out

writes ``history.csv``, ``mesh_final.svg`` and ``mesh_final.txt`` into the
output directory.  Unless ``--quiet`` is given it then prints one final
summary line (iterations, dofs, estimator, and the true error and
effectivity when the problem has an exact solution), the trailing slope of
log(error) against log(dofs) when it is defined, and the output directory.
Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .driver import FAMILY_CHOICES, AfemConfig, run_afem
from .io import write_history_csv, write_mesh_svg
from .mesh import MeshError, write_mesh_text
from .problems import PROBLEM_IDS, ProblemError, get_problem
from .recovery import RecoveryError
from .solvers import SolverError

__all__ = ["RunConfig", "parse_cli", "main"]

_VALID_TABLE = "\n".join(
    f"  --method {m:<14s} --recovery {{{', '.join(f)}}}"
    for m, f in FAMILY_CHOICES.items()
)


@dataclass
class RunConfig:
    """Parsed command line: the AFEM configuration plus output options."""

    afem: AfemConfig
    out_dir: Path
    quiet: bool = False


def parse_cli(argv=None) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="afemrec",
        description="Adaptive FEM with recovery-based error estimators.",
        epilog="valid method/recovery combinations:\n" + _VALID_TABLE,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--problem", choices=PROBLEM_IDS, default="kellogg")
    parser.add_argument(
        "--method",
        choices=tuple(FAMILY_CHOICES),
        default="conforming",
    )
    parser.add_argument(
        "--recovery",
        choices=tuple(dict.fromkeys(f for fams in FAMILY_CHOICES.values() for f in fams)),
        default="rt",
        help="recovery family driving the estimator",
    )
    parser.add_argument("--theta", type=float, default=0.5, help="bulk marking parameter")
    parser.add_argument("--max-dof", type=int, default=100_000)
    parser.add_argument("--c1", type=float, default=0.5, help="flux weight of the nonconforming estimator")
    parser.add_argument("--initial-n", type=int, default=8, help="initial mesh subdivisions per side")
    parser.add_argument("--out", type=Path, default=Path("./out"))
    parser.add_argument(
        "--uniform", action="store_true", help="refine uniformly instead of marking"
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        afem = AfemConfig(
            problem=args.problem,
            method=args.method,
            family=args.recovery,
            theta=args.theta,
            max_dof=args.max_dof,
            c1=args.c1,
            initial_n=args.initial_n,
            uniform=args.uniform,
        )
    except ValueError as exc:
        parser.error(str(exc))
    return RunConfig(afem=afem, out_dir=args.out, quiet=args.quiet)


def main(argv=None) -> int:
    config = parse_cli(argv)
    try:
        problem = get_problem(config.afem.problem)
        # a bad --initial-n is a usage error before anything is written
        problem.mesh_factory(config.afem.initial_n)
    except MeshError as exc:
        print(f"afemrec: error: --initial-n {config.afem.initial_n}: {exc}", file=sys.stderr)
        return 2
    except ProblemError as exc:
        print(f"afemrec: numerical failure: {exc}", file=sys.stderr)
        return 3
    # so is an output directory that cannot be made, before the run
    try:
        config.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"afemrec: error: --out {config.out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    try:
        history = run_afem(dataclasses.replace(config.afem, problem=problem))
    except (SolverError, RecoveryError, ProblemError, MeshError, np.linalg.LinAlgError) as exc:
        print(f"afemrec: numerical failure: {exc}", file=sys.stderr)
        return 3

    write_history_csv(history, config.out_dir / "history.csv")
    write_mesh_svg(
        history.final_mesh,
        config.out_dir / "mesh_final.svg",
        indicators=history.final_indicators,
    )
    write_mesh_text(history.final_mesh, config.out_dir / "mesh_final.txt")

    if not config.quiet:
        last = history.records[-1]
        msg = (
            f"{len(history.records)} iterations, {last.dofs} dofs, "
            f"estimator {last.eta:.6g}"
        )
        if last.true_error is not None:
            msg += f", true error {last.true_error:.6g}"
        if last.effectivity is not None:
            msg += f", effectivity {last.effectivity:.3f}"
        print(msg)
        slope = history.slope("true_error")
        if np.isfinite(slope):
            print(f"trailing slope of log(error) vs log(dofs): {slope:.3f}")
        print(f"results written to {config.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
