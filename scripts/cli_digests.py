#!/usr/bin/env python3
"""Byte-identity check of the CLI.

Runs every subcommand in process on each fixture in ``trees/`` with
``--deterministic`` and fixed small arguments, writing no output files, and
prints one line per run:

    subcommand fixture exit-code sha256

where the digest covers everything the run printed (stdout, then stderr).
BLAS runs on one thread, so the digests are reproducible.  Two checkouts
print the same lines exactly when every report keeps its bytes:

    python3 scripts/cli_digests.py > a.txt   # in each checkout
    diff a.txt b.txt

Name fixtures (``star``, ``dumbbell``, ...) to run only those.
"""

import contextlib
import hashlib
import io
import os
import sys

os.environ["LTS_THREADS"] = "1"   # read when lgtree loads, before numpy does
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))   # this checkout's library, not an installed one

from lgtree import cli  # noqa: E402

RATES = ["--ry", "0.6", "--rb", "0.4", "--blocklen", "3"]
# the Monte Carlo commands draw more than one 8,192-sample batch, so the
# digests also cover the batch and chunk boundaries of the mixture draw
ARGS = {
    "validate": [],
    "covariance": [],
    "enumerate-signs": [],
    "sign-report": [],
    "mi": [],
    "mi-conditional": ["--samples", "20000"],
    "optimize-pi": ["--grid", "0.25", "--samples", "10000"],
    "rate-check": RATES + ["--samples", "10000"],
    "synthesize": RATES + ["--samples", "500"],
    "verify-constraints": RATES + ["--samples", "500"],
    "report-all": ["--blocklen", "3", "--samples", "10000"],
}
FIXTURES = ("star", "dumbbell", "lowcorr", "two_layer")


def digest(command: str, fixture: str) -> str:
    """One run's ``subcommand fixture exit-code sha256`` line."""
    argv = [command, f"trees/{fixture}.tree", "--deterministic"] + ARGS[command]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        code = cli.main(argv)
    return f"{command} {fixture} {code} {hashlib.sha256(printed.getvalue().encode()).hexdigest()}"


def main() -> int:
    # reports echo the tree path, so it is given relative to the checkout
    os.chdir(ROOT)
    for fixture in sys.argv[1:] or FIXTURES:
        for command in ARGS:
            print(digest(command, fixture))
    return 0


if __name__ == "__main__":
    sys.exit(main())
