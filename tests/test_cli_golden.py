"""Byte pins of the CLI's certificate output.

``cli_golden.json`` holds, per command, the arguments after
``--format json``, the exit code and the exact stdout.  All commands run with
``--samples 0`` so each takes well under a second.  A change that moves a
single residual bit, a ladder entry or a verdict fails here.  If the move is
intended, rewrite the file from the current code with
``PYTHONPATH=src python tests/test_cli_golden.py`` and say why in the
change log.  ``PYTHONPATH=src python tests/test_cli_golden.py --check``
compares every case without pytest, so any installed Python can run it; it
exits 1 on a mismatch and never rewrites the file.  The suite runs that
check under every pyenv Python 3.10 to 3.13 it finds, since the binary64
code paths must print the same bytes on each.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from levicivita.cli import main

GOLDEN_PATH = Path(__file__).parent / "cli_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _run(case) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one case's command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", "json"] + case["argv"])
    return code, out.getvalue(), err.getvalue()


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        failed = [
            case for case in GOLDEN
            if _run(case) != (case["exit"], case["stdout"], "")
        ]
        for case in failed:
            print("mismatch:", " ".join(case["argv"]))
        print(f"{len(GOLDEN) - len(failed)} of {len(GOLDEN)} cases match")
        sys.exit(1 if failed else 0)
    for case in GOLDEN:
        case["exit"], case["stdout"], _ = _run(case)
    GOLDEN_PATH.write_text(json.dumps(GOLDEN, indent=1) + "\n")
    sys.exit(0)

import pytest  # noqa: E402  (the script above runs without pytest)


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_json_output_is_byte_stable(capsys, case):
    code = main(["--format", "json"] + case["argv"])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert code == case["exit"]
    assert captured.out == case["stdout"]


#: The pyenv interpreters the byte check runs under, one per installed version.
OTHER_PYTHONS = sorted(Path.home().glob(".pyenv/versions/3.1[0-3]*/bin/python3"))


@pytest.mark.parametrize(
    "python",
    OTHER_PYTHONS
    or [pytest.param(None, marks=pytest.mark.skip(reason="no pyenv Python 3.10-3.13"))],
    ids=lambda python: python.parent.parent.name if python else "none",
)
def test_check_passes_under_each_pyenv_python(python):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    done = subprocess.run(
        [str(python), __file__, "--check"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
