"""Print the ``verify`` verdict of every family over a sweep of target angles.

    python tools/verify_sweep.py > new.txt
    python tools/verify_sweep.py --src ../parent/src > old.txt
    diff old.txt new.txt

The sweep is every family at theta = k pi/64 (k = 1..127) and phi in {0,
0.3}, each through ``verify`` with all three rays. Each line is tab-separated:
the family, k, phi, the exit code, and then each check that ``verify``
marks ``BAD``, a ray with its slope (``f=4.510``) or the off-resonance
residual (``residual=...``), or for an exit code other than 0 and 3 the
error line. A closing ``# exit <code>: <runs>`` line counts the runs
per exit code, so a diff of two sweeps lists every verdict that moved. Every
run goes through ``pulsesmith.cli.main`` in this process, imported from
``--src`` (default: the ``src`` directory next to this script); the families
are that package's ``pulsesmith.sequences.FAMILIES``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import re
import sys
from pathlib import Path

K_VALUES = range(1, 128)
PHIS = ("0", "0.3")
_BAD = re.compile(r"^(?:ray (\w+): slope=|ore (residual): )(\S+) .*\[BAD\]$", re.MULTILINE)


def run(main, family: str, k: int, phi: str) -> tuple[int, list[str]]:
    # the exit code of one verify run, and its BAD checks or error line
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = ["verify", "--family", family, "--theta", f"{k}pi/64", "--phi", phi]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    if code in (0, 3):
        return code, [f"{ray or residual}={value}" for ray, residual, value in _BAD.findall(stdout.getvalue())]
    return code, [stderr.getvalue().strip()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the pulsesmith package to run")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from pulsesmith import cli
    from pulsesmith.sequences import FAMILIES

    codes = collections.Counter()
    for family in FAMILIES:
        for k in K_VALUES:
            for phi in PHIS:
                code, detail = run(cli.main, family, k, phi)
                codes[code] += 1
                print(family, k, phi, code, *detail, sep="\t")
    for code in sorted(codes):
        print(f"# exit {code}: {codes[code]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
