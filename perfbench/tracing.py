"""Span tracing of afemrec's layers from outside the library.

The benchmark wraps the public functions the adaptive loop calls, in the
module namespaces it calls them from, so nothing under ``src/`` changes.
Every wrapped call records a :class:`Span` (name, start, end, parent span,
run id and a work count).  Spans stay in memory; :func:`layer_metrics`
summarises one run's spans into the per-layer metrics.

The solvers are reached through the private table ``afemrec.driver._SOLVERS``;
it is the only non-public hook and is wrapped entry by entry.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the root
    run: int
    work: int = 0  # edges, triangles, dofs or bytes handled by the call

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``run`` tags the spans of one workload run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, work=None):
        """Return ``fn`` recording a span per call; ``work(args, result)``
        gives the call's work count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, 0.0, parent, self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span.work = int(work(args, result))
            return result

        return traced


@contextlib.contextmanager
def patched(pairs):
    """Temporarily replace ``(namespace, attribute, replacement)`` entries;
    a namespace is a module or a dict."""
    saved = []
    try:
        for ns, attr, new in pairs:
            if isinstance(ns, dict):
                saved.append((ns, attr, ns[attr]))
                ns[attr] = new
            else:
                saved.append((ns, attr, getattr(ns, attr)))
                setattr(ns, attr, new)
        yield
    finally:
        for ns, attr, old in reversed(saved):
            if isinstance(ns, dict):
                ns[attr] = old
            else:
                setattr(ns, attr, old)


def _file_bytes(args, result):
    return os.path.getsize(args[1])


def layer_wrappers(tracer: Tracer, solvers: dict):
    """The ``(namespace, attribute, wrapper)`` list that traces every layer.

    ``solvers`` is the current solver table (already holding the iteration
    stamps), whose entries the solve spans wrap.
    """
    import afemrec.cli
    import afemrec.driver
    import afemrec.recovery

    drv, cli, rec = afemrec.driver, afemrec.cli, afemrec.recovery

    def n_edges(args, result):
        return args[0].n_edges

    def out_triangles(args, result):
        return result.n_triangles

    pairs = [
        (drv, "refine", tracer.wrap("mesh.refine", drv.refine, out_triangles)),
        (drv, "edge_traces", tracer.wrap("solvers.edge_traces", drv.edge_traces)),
        (drv, "recover", tracer.wrap("recovery.recover", drv.recover, n_edges)),
        (drv, "indicators", tracer.wrap("estimators.indicators", drv.indicators)),
        (
            drv,
            "true_energy_error",
            tracer.wrap("estimators.true_energy_error", drv.true_energy_error),
        ),
        (drv, "oscillation", tracer.wrap("estimators.oscillation", drv.oscillation)),
        (drv, "dorfler_mark", tracer.wrap("driver.dorfler_mark", drv.dorfler_mark)),
        (drv, "run_afem", tracer.wrap("driver.run_afem", drv.run_afem)),
        # the CLI imported run_afem into its own namespace
        (cli, "run_afem", tracer.wrap("driver.run_afem", cli.run_afem)),
        (rec, "local_oracle", tracer.wrap("recovery.local_oracle", rec.local_oracle)),
        (cli, "main", tracer.wrap("cli.main", cli.main)),
    ]
    for writer in ("write_history_csv", "write_mesh_svg", "write_mesh_text"):
        pairs.append(
            (cli, writer, tracer.wrap(f"io.{writer}", getattr(cli, writer), _file_bytes))
        )
    for method, solve in solvers.items():

        def dofs(args, result, method=method):
            return drv.count_dofs(args[0], method)

        pairs.append((solvers, method, tracer.wrap(f"solvers.solve_{method}", solve, dofs)))
    return pairs


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer seconds, counts and rates of one run's spans."""
    secs: dict[str, float] = {}
    work: dict[str, int] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.seconds
    for i, span in enumerate(spans):
        secs[span.name] = secs.get(span.name, 0.0) + span.seconds
        self_s[span.name] = self_s.get(span.name, 0.0) + span.seconds - child[i]
        work[span.name] = work.get(span.name, 0) + span.work
        calls[span.name] = calls.get(span.name, 0) + 1

    def s(name):
        return secs.get(name, 0.0)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    solve_names = [n for n in secs if n.startswith("solvers.solve_")]
    solve_s = sum(secs[n] for n in solve_names)
    solve_dofs = sum(work[n] for n in solve_names)
    writers = ("io.write_history_csv", "io.write_mesh_svg", "io.write_mesh_text")
    edges = work.get("recovery.recover", 0)
    oracle_calls = calls.get("recovery.local_oracle", 0)
    return {
        "estimators.true_energy_error.s": s("estimators.true_energy_error"),
        "recovery.local_oracle.s": s("recovery.local_oracle"),
        "recovery.local_oracle.calls": oracle_calls,
        "recovery.recover.self_s": self_s.get("recovery.recover", 0.0),
        "recovery.edges": edges,
        "recovery.oracle_coverage": oracle_calls / edges if edges else 0.0,
        "solvers.solve_conforming.s": s("solvers.solve_conforming"),
        "solvers.solve_mixed.s": s("solvers.solve_mixed"),
        "solvers.solve_nonconforming.s": s("solvers.solve_nonconforming"),
        "solvers.solve.dofs_per_s": rate(solve_dofs, solve_s),
        "solvers.edge_traces.s": s("solvers.edge_traces"),
        "mesh.refine.s": s("mesh.refine"),
        "mesh.refine.calls": calls.get("mesh.refine", 0),
        "mesh.refine.tri_per_s": rate(work.get("mesh.refine", 0), s("mesh.refine")),
        "estimators.indicators.s": s("estimators.indicators"),
        "estimators.oscillation.s": s("estimators.oscillation"),
        "driver.dorfler_mark.s": s("driver.dorfler_mark"),
        "driver.self_s": self_s.get("driver.run_afem", 0.0),
        "io.write.s": sum(s(n) for n in writers),
        "io.bytes": sum(work.get(n, 0) for n in writers),
    }
