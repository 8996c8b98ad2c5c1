"""The benchmark's self-test runs green against the library.

``bench/selftest.py`` runs one small round of each workload and checks that
every output checker accepts the real outputs and rejects perturbed ones.
It reads the library the way the benchmark does: ``taylor_jet(...).coeffs``,
``partial_jet(...).table`` and ``dataclasses.replace`` on jets, reports and
certificates.  A library change that breaks any of that fails here.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST_PY = Path(__file__).resolve().parents[1] / "bench" / "selftest.py"


def test_bench_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(SELFTEST_PY)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "selftest: ok"
