"""Self-test of the benchmark: ``python3 -m pytest perfbench``."""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_passes_and_catches_a_wrong_reference():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        cwd=RUN.parent.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke wrong reference: caught" in proc.stdout
