"""Byte pins of the CLI's certificate output.

``cli_golden.json`` holds, per command, the arguments after
``--format json``, the exit code and the exact stdout.  All commands run with
``--samples 0`` so each takes well under a second.  A change that moves a
single residual bit, a ladder entry or a verdict fails here.  If the move is
intended, rewrite the file from the current code with
``PYTHONPATH=src python tests/test_cli_golden.py`` and say why in the
change log.  ``PYTHONPATH=src python tests/test_cli_golden.py --check``
compares every case without pytest, so any installed Python can run it; it
exits 1 on a mismatch and never rewrites the file.
"""

import contextlib
import io
import json
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
