"""Byte pins of the CLI's certificate output.

``cli_golden.json`` holds, per command, the arguments after
``--format json``, the exit code and the exact stdout.  All commands run with
``--samples 0`` so each takes well under a second.  A change that moves a
single residual bit, a ladder entry or a verdict fails here.  If the move is
intended, rewrite the file from the current code with
``PYTHONPATH=src python tests/test_cli_golden.py`` and say why in the
change log.
"""

import json
from pathlib import Path

import pytest

from levicivita.cli import main

GOLDEN_PATH = Path(__file__).parent / "cli_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_json_output_is_byte_stable(capsys, case):
    code = main(["--format", "json"] + case["argv"])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert code == case["exit"]
    assert captured.out == case["stdout"]


if __name__ == "__main__":
    import contextlib
    import io

    for case in GOLDEN:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            case["exit"] = main(["--format", "json"] + case["argv"])
        case["stdout"] = out.getvalue()
    GOLDEN_PATH.write_text(json.dumps(GOLDEN, indent=1) + "\n")
