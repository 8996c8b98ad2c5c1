import re
from pathlib import Path

import levicivita

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_package_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    text = PYPROJECT.read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    declared = re.search(r'^version\s*=\s*"([^"]+)"\s*$', project, re.M).group(1)
    assert levicivita.__version__ == declared
