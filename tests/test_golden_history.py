"""Regression pin of the adaptive Kellogg runs across refactors.

``data/golden_history.json`` holds, for each of the five method/recovery
pairings run to 1000 dofs, every iteration's ``[dofs, eta, true_error]``
as produced before the basis, jump and Gram kernels were merged.  Dofs
must match exactly (so the iteration count does too) and the estimator and
true error to 12 significant digits.
"""

import json
from pathlib import Path

import pytest

from afemrec.driver import AfemConfig, run_afem

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_history.json").read_text())

CONFIGS = [
    ("conforming", "rt"),
    ("conforming", "bdm"),
    ("mixed", "nd"),
    ("nonconforming", "rt-ne"),
    ("nonconforming", "bdm-nd"),
]


@pytest.mark.parametrize("method,family", CONFIGS)
def test_golden_history(kellogg, method, family):
    cfg = AfemConfig(problem=kellogg, method=method, family=family, theta=0.5, max_dof=1000)
    records = run_afem(cfg).records
    golden = GOLDEN[f"{method}-{family}"]
    assert [r.dofs for r in records] == [row[0] for row in golden]
    for r, (_, eta, err) in zip(records, golden):
        assert r.eta == pytest.approx(eta, rel=1e-12, abs=0.0), r.iteration
        assert r.true_error == pytest.approx(err, rel=1e-12, abs=0.0), r.iteration
