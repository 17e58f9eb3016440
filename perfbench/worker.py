"""One benchmark process: set up afemrec, run one workload repeatedly, check
every run's outputs and print the raw measurements as one JSON line.

``perfbench/run.py`` starts this file in a fresh interpreter, so the
process's set-up and peak memory belong to the workload alone.  With
``--setup-only`` it stops after set-up and prints when set-up finished.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer, layer_metrics, layer_wrappers, patched

ROOT = Path(__file__).resolve().parent.parent

# Seed 0 is the paper's gamma = 0.1; other seeds draw the coefficient ratio R
# log-uniformly from [(1 - R_BAND) R_paper, R_paper].  Just above the paper's
# ratio the adaptive meshes gain one more refinement level at the singularity,
# which costs about 25 % more; a band on one side keeps the seeds comparable.
KELLOGG_R = 161.4476387975881
R_BAND = 0.01
THETA = 0.5
SLOPE_RANGE = (-0.6, -0.4)  # trailing-10 slope of log(error) vs log(dofs)
REL_TOL = 1e-6  # final eta and true error against the stored reference


@dataclass(frozen=True)
class Workload:
    runs: tuple  # (method, recovery) of each adaptive or uniform run
    budget: int  # dof budget, or the number of uniform iterations
    smoke_budget: int
    via_cli: bool = False
    uniform: bool = False


# Budgets fit three or four runs of each workload (the determinism check
# compares two) into one invocation of 60 s on a 2-core machine.
WORKLOADS = {
    # The paper's benchmark through the CLI's default path; the singular-point
    # quadrature of the true error dominates it.
    "kellogg-conforming-rt": Workload(
        runs=(("conforming", "rt"),), budget=25_000, smoke_budget=1_000, via_cli=True
    ),
    # Every method on an ungraded mesh, ten uniform iterations ending at 65,536
    # triangles: the solvers at scale.
    "uniform-sweep": Workload(
        runs=(("conforming", "rt"), ("nonconforming", "bdm-nd"), ("mixed", "nd")),
        budget=10,
        smoke_budget=5,
        uniform=True,
    ),
}

# Final-iteration values at seed 0 (R = KELLOGG_R); uniform-sweep ignores the
# seed, so its values hold for every seed.
REFERENCES = {
    ("kellogg-conforming-rt", False): [
        dict(iterations=92, dofs=25116, eta=0.0249240968184, true_error=0.0294268687352),
    ],
    ("kellogg-conforming-rt", True): [
        dict(iterations=48, dofs=1002, eta=0.112978451608, true_error=0.134026558464),
    ],
    ("uniform-sweep", False): [
        dict(iterations=10, dofs=32513, eta=0.245973682943, true_error=0.462225124998),
        dict(iterations=10, dofs=98048, eta=0.0958834369926, true_error=0.312711541898),
        dict(iterations=10, dofs=164096, eta=0.135599657002, true_error=0.312711541898),
    ],
    ("uniform-sweep", True): [
        dict(iterations=5, dofs=961, eta=0.351676285536, true_error=0.613350839227),
        dict(iterations=5, dofs=3008, eta=0.104281121683, true_error=0.34809037369),
        dict(iterations=5, dofs=5184, eta=0.147475776584, true_error=0.34809037369),
    ],
}


class CheckFailed(Exception):
    """A run finished but its outputs are wrong."""


def ratio_for_seed(seed: int):
    if seed == 0:
        return None
    return KELLOGG_R * math.exp(random.Random(seed).uniform(math.log1p(-R_BAND), 0.0))


def summarize(rows, triangles: int) -> dict:
    """Final-iteration figures and trailing slope of one history CSV."""
    from afemrec.driver import ConvergenceHistory

    last = rows[-1]
    records = [SimpleNamespace(dofs=r["dofs"], true_error=r["true_error"]) for r in rows]
    return dict(
        iterations=len(rows),
        dofs=last["dofs"],
        eta=last["eta"],
        true_error=last["true_error"],
        triangles=triangles,
        slope=ConvergenceHistory(config=None, records=records).slope("true_error"),
    )


def check(wl: Workload, budget: int, summaries, references) -> list[str]:
    """Structural checks for every seed, reference checks where one exists."""
    problems = []
    for (method, family), got, ref in zip(wl.runs, summaries, references or [None] * len(wl.runs)):
        tag = f"{method}-{family}"
        if wl.uniform:
            if got["iterations"] != budget:
                problems.append(f"{tag}: {got['iterations']} iterations, expected {budget}")
        else:
            if got["dofs"] < budget:
                problems.append(f"{tag}: stopped at {got['dofs']} dofs, budget {budget}")
            lo, hi = SLOPE_RANGE
            if not lo <= got["slope"] <= hi:
                problems.append(f"{tag}: trailing slope {got['slope']:.3f} outside [{lo}, {hi}]")
        if ref is None:
            continue
        for key in ("iterations", "dofs"):
            if got[key] != ref[key]:
                problems.append(f"{tag}: {key} {got[key]} != reference {ref[key]}")
        for key in ("eta", "true_error"):
            if not math.isclose(got[key], ref[key], rel_tol=REL_TOL):
                problems.append(f"{tag}: {key} {got[key]!r} != reference {ref[key]!r}")
    return problems


class Runner:
    """Runs one workload in this process and records iteration times."""

    def __init__(self, name: str, seed: int, smoke: bool):
        import afemrec.driver
        from afemrec import kellogg_problem

        self.wl = WORKLOADS[name]
        self.budget = self.wl.smoke_budget if smoke else self.wl.budget
        t = time.perf_counter()
        self.problem = kellogg_problem(R=None if self.wl.uniform else ratio_for_seed(seed))
        self.problem.mesh_factory()
        self.problems_setup_s = time.perf_counter() - t
        # a solve starts every iteration; stamp it through the solver table,
        # the one non-public hook (see tracing.py)
        self.stamps: list[float] = []
        self.solvers = afemrec.driver._SOLVERS
        for method, solve in list(self.solvers.items()):
            self.solvers[method] = self._stamped(solve)

    def _stamped(self, solve):
        def stamped(*args, **kwargs):
            self.stamps.append(time.perf_counter())
            return solve(*args, **kwargs)

        return stamped

    def _iterations(self) -> list[float]:
        """Seconds of each solve-to-solve iteration since the last call."""
        stamps, self.stamps = self.stamps, []
        return [b - a for a, b in zip(stamps, stamps[1:])]

    def run_once(self, out: Path):
        """One workload run: (run seconds, iteration seconds, summaries, CSV bytes)."""
        import afemrec.cli
        import afemrec.driver
        from afemrec.io import read_history_csv, write_history_csv
        from afemrec.mesh import read_mesh_text

        out.mkdir(parents=True)
        run_s, iters, summaries, csv = 0.0, [], [], b""
        if self.wl.via_cli:
            (method, family), = self.wl.runs
            argv = ["--problem", "kellogg", "--method", method, "--recovery", family,
                    "--theta", str(THETA), "--max-dof", str(self.budget), "--out", str(out)]
            problem = self.problem

            def get_problem(name, **kwargs):
                if name != "kellogg" or kwargs:
                    raise ValueError(f"unexpected problem request {name!r}")
                return problem

            with patched([(afemrec.cli, "get_problem", get_problem)]), \
                    contextlib.redirect_stdout(io.StringIO()):
                t = time.perf_counter()
                code = afemrec.cli.main(argv)
                run_s = time.perf_counter() - t
            iters = self._iterations()
            if code != 0:
                raise CheckFailed(f"CLI exited with {code}")
            rows = read_history_csv(out / "history.csv")
            mesh = read_mesh_text(out / "mesh_final.txt")
            if afemrec.driver.count_dofs(mesh, method) != rows[-1]["dofs"]:
                raise CheckFailed("mesh_final.txt does not hold the final mesh")
            summaries.append(summarize(rows, mesh.n_triangles))
            csv = (out / "history.csv").read_bytes()
            return run_s, iters, summaries, csv

        for method, family in self.wl.runs:
            cfg = afemrec.driver.AfemConfig(
                problem=self.problem, method=method, family=family, theta=THETA,
                max_dof=10**9 if self.wl.uniform else self.budget,
                max_iter=self.budget if self.wl.uniform else 200,
                uniform=self.wl.uniform,
            )
            t = time.perf_counter()
            history = afemrec.driver.run_afem(cfg)
            run_s += time.perf_counter() - t
            iters += self._iterations()
            path = out / f"history-{method}-{family}.csv"
            write_history_csv(history, path)
            summaries.append(summarize(read_history_csv(path), history.final_mesh.n_triangles))
            csv += path.read_bytes()
        return run_s, iters, summaries, csv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny budgets")
    parser.add_argument("--tamper", action="store_true",
                        help="perturb one reference value; the runs must fail")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work", type=Path, help="directory for run outputs")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import afemrec
    import afemrec.cli  # noqa: F401  (the CLI workload's import cost is set-up)

    if not Path(afemrec.__file__).resolve().is_relative_to(src.resolve()):
        print(f"afemrec imported from {afemrec.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        from afemrec import kellogg_problem

        kellogg_problem(R=ratio_for_seed(args.seed)).mesh_factory()
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    import numpy
    import scipy

    runner = Runner(args.workload, args.seed, args.smoke)
    references = None
    if args.seed == 0 or runner.wl.uniform:
        references = [dict(r) for r in REFERENCES[(args.workload, args.smoke)]]
        if args.tamper:
            references[0]["iterations"] += 1

    tracer = Tracer()
    deadline = time.monotonic() + args.seconds
    reps, first_csv = [], None
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = dict(traced=traced, run_s=None, iter_s=[], ok=False, error=None, layers=None)
        reps.append(rep)
        tracer.run = len(reps)
        wrappers = layer_wrappers(tracer, runner.solvers) if traced else []
        begun = time.monotonic()
        try:
            with patched(wrappers):
                run_s, iters, summaries, csv = runner.run_once(args.work / f"run{len(reps)}")
            rep.update(run_s=run_s, iter_s=iters)
            problems = check(runner.wl, runner.budget, summaries, references)
            if first_csv is None:
                first_csv = csv
            elif csv != first_csv:
                problems.append("history.csv differs from the first run of this process")
            if problems:
                raise CheckFailed("; ".join(problems))
            rep["ok"] = True
        except Exception as exc:  # every failure counts against the run, then we go on
            rep["error"] = f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, CheckFailed):
                traceback.print_exc(file=sys.stderr)
        if traced:
            rep["layers"] = layer_metrics([s for s in tracer.spans if s.run == tracer.run])
            tracer.spans.clear()
        took = time.monotonic() - begun
        if len(reps) >= 2 and time.monotonic() + took > deadline:
            break

    print(json.dumps(dict(
        afemrec=afemrec.__file__,
        R=runner.problem.params["R"],
        versions=dict(python=sys.version.split()[0], numpy=numpy.__version__,
                      scipy=scipy.__version__),
        problems_setup_s=runner.problems_setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        reps=reps,
    )))
    return 0


if __name__ == "__main__":
    sys.exit(main())
