"""Digests of the library's verdicts, to show that a change moves no bit.

Prints three lines:

- the verdict counts of C210, the 210 certificates of ``tests/_corpus.py``
  (jmax 16, kmax 4, the default plan), with a raise counted by its type;
- a SHA-256 over each C210 certificate's ``repr``, or over the raise's type
  and message;
- the same digest over the outputs of full ``certify`` and ``derive``
  rounds of ``bench/`` at seeds 1 to 5.

A ``repr`` spells out every term, horizon and ``Fraction``, so the digest
depends on the values alone, not on which objects are shared.  Run it at two
commits and compare the output:

    PYTHONPATH=src python tests/c210_digest.py

It takes well over half a minute, so it is a script, not a test module.
"""

import hashlib
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).parent
sys.path[:0] = [str(HERE), str(HERE.parent / "bench")]

import certify  # noqa: E402  (the bench's workload modules)
import derive  # noqa: E402
from _corpus import C210_CENTRES, C210_EXPRESSIONS  # noqa: E402
from levicivita import analyticity_certificate_1d, parse_expr, parse_lc  # noqa: E402


def _outcome(fn) -> tuple[str, str]:
    """(verdict or raise type, the text the digest reads) of one call."""
    try:
        result = fn()
    except Exception as exc:
        return type(exc).__name__, f"{type(exc).__name__}: {exc}"
    return getattr(result, "verdict", "ok"), repr(result)


def c210() -> tuple[Counter, str]:
    counts, digest = Counter(), hashlib.sha256()
    for text in C210_EXPRESSIONS:
        f = parse_expr(text)
        for centre in C210_CENTRES:
            x0 = parse_lc(centre)
            kind, body = _outcome(lambda: analyticity_certificate_1d(f, "x", x0, 16, 4))
            counts[kind] += 1
            digest.update(body.encode() + b"\n")
    return counts, digest.hexdigest()


def bench_rounds(seeds=range(1, 6)) -> str:
    digest = hashlib.sha256()
    for workload in (certify, derive):
        for seed in seeds:
            inputs = workload.build(seed, probe=False)
            for _, operations in workload.phases(inputs):
                for operation in operations:
                    digest.update(_outcome(operation)[1].encode() + b"\n")
    return digest.hexdigest()


if __name__ == "__main__":
    counts, digest = c210()
    print("C210:", ", ".join(f"{n} {kind}" for kind, n in counts.most_common()))
    print("C210 digest:", digest)
    print("certify and derive rounds, seeds 1-5:", bench_rounds())
