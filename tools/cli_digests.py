"""Print one digest per CLI invocation over a fixed matrix of invocations.

    python tools/cli_digests.py > new.txt
    python tools/cli_digests.py --src ../parent/src > old.txt
    diff old.txt new.txt

The matrix is 249 invocations, 59 for each of the four families and
thirteen more: every family at seven target angles (pi, pi/2, 1.0, 0.3,
0.05, 3.9, 6.2) and two phases (0, 1.3), each through ``verify --out``,
``synth --dump-matrix`` and ``trajectory --samples 16`` (at eps = 0.1,
f = -0.1), plus the default grid and a ``-1:1:41`` x ``-3:3:33`` grid of
every family and angle at phase 1.3. Angles outside a family's domain are
part of the matrix: their exit code and error line are digested like any
other output. Four grids close the matrix, run back to back so that the
CSV's row-template memo (the last axis pair's) both misses and hits: f axes
``-1:-0.0:3`` and ``-1:0.0:3``, equal as axes but printed with ``-0`` and
``0``, then one default grid twice. After them come the outputs that the
rest leaves out: ``timecompare`` with its defaults, on ``0.1:6.2:9`` (which
holds domain failures), on ``0:pi:3`` (whose angle 0 is outside every
compared family's domain) and as JSON, then for each family at angle 1.0
and phase 1.3 a 5x5 ``grid --format json``, a ``trajectory --format json
--samples 4`` and a ``verify --ray f --out``. On an f axis with
``start == -stop``, ``fidelity_grid`` fills row n-1-k of a sequence S from
row k of its reverse, F_S(eps, -f) = F_{rev S}(eps, f): a copy where S
equals its reverse, a fold of the same pulse pairs in reverse order where
it does not. Two SCORBUTUS grids at angle pi/2 follow, on f axes whose rows
are copies: the descending ``0.25:-0.25:10``, with no middle row, and
``-0.25:0.25:2``, the shortest. Three ``--sequence-file`` grids close the
matrix. A fixed three-pulse sequence that is not its own reverse has its
default (symmetric) grid, with half the rows from the reversed fold, and
one on the f axis ``-0.2:0.25:19``, where every row is evaluated. A fixed
four-pulse sequence equal to its reverse has its default grid, whose rows
are copies: an even length, which only the grid's own reverse test
accepts. The tool writes both files into its temporary directory.

Each line is the arguments, a tab, and the SHA-256 of the exit code, stdout,
stderr and the file written by ``--out``, in that order. Every invocation
runs in this process through ``pulsesmith.cli.main``, imported from
``--src`` (default: the ``src`` directory next to this script), inside a
temporary directory, so output file names are the same in every run. The
families are the imported package's ``pulsesmith.sequences.FAMILIES``, so
a family added to its table joins the matrix.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

THETAS = ("pi", "pi/2", "1.0", "0.3", "0.05", "3.9", "6.2")
PHIS = ("0", "1.3")
OUT = "out.dat"
SEQUENCE = "sequence.json"
SEQUENCE_DATA = {
    "family": "custom",
    "target": {"theta": 1.0, "phi": 0.3},
    "pulses": [{"theta": 0.7, "phi": 1.1}, {"theta": 3.1, "phi": 2.5}, {"theta": 1.9, "phi": 0.3}],
}
REVERSE_EQUAL = "reverse-equal.json"
REVERSE_EQUAL_DATA = {
    "family": "custom",
    "target": {"theta": 1.0, "phi": 0.3},
    "pulses": [
        {"theta": 0.7, "phi": 1.1}, {"theta": 3.1, "phi": 2.5}, {"theta": 3.1, "phi": 2.5}, {"theta": 0.7, "phi": 1.1}
    ],
}


def invocations(families) -> list[list[str]]:
    calls = []
    for family in families:
        for theta in THETAS:
            target = ["--family", family, "--theta", theta]
            for phi in PHIS:
                calls.append(["verify", *target, "--phi", phi, "--out", OUT])
                calls.append(["synth", *target, "--phi", phi, "--dump-matrix"])
                calls.append(
                    ["trajectory", *target, "--phi", phi, "--eps", "0.1", "--f", "-0.1", "--samples", "16"]
                )
            calls.append(["grid", *target, "--phi", "1.3"])
            calls.append(["grid", *target, "--phi", "1.3", "--eps", "-1:1:41", "--f", "-3:3:33"])
    target = ["--family", "skinsc", "--theta", "pi/2"]
    calls.append(["grid", *target, "--f=-1:-0.0:3"])
    calls.append(["grid", *target, "--f=-1:0.0:3"])
    calls += [["grid", *target]] * 2
    calls += [["timecompare"], ["timecompare", "--thetas", "0.1:6.2:9"], ["timecompare", "--thetas", "0:pi:3"]]
    calls.append(["timecompare", "--format", "json"])
    for family in families:
        target = ["--family", family, "--theta", "1.0", "--phi", "1.3"]
        calls.append(["grid", *target, "--eps", "-0.2:0.2:5", "--f", "-0.2:0.2:5", "--format", "json"])
        calls.append(["trajectory", *target, "--eps", "0.1", "--f", "-0.1", "--samples", "4", "--format", "json"])
        calls.append(["verify", *target, "--ray", "f", "--out", OUT])
    target = ["--family", "scorbutus", "--theta", "pi/2"]
    calls += [["grid", *target, "--f=0.25:-0.25:10"], ["grid", *target, "--f=-0.25:0.25:2"]]
    calls += [["grid", "--sequence-file", SEQUENCE], ["grid", "--sequence-file", SEQUENCE, "--f=-0.2:0.25:19"]]
    calls.append(["grid", "--sequence-file", REVERSE_EQUAL])
    return calls


def digest(main, argv: list[str]) -> str:
    with contextlib.suppress(FileNotFoundError):
        os.remove(OUT)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    written = Path(OUT).read_bytes() if os.path.exists(OUT) else None
    h = hashlib.sha256(json.dumps([code, stdout.getvalue(), stderr.getvalue(), written is not None]).encode())
    h.update(written or b"")
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the pulsesmith package to run")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from pulsesmith import cli
    from pulsesmith.sequences import FAMILIES

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for name, data in ((SEQUENCE, SEQUENCE_DATA), (REVERSE_EQUAL, REVERSE_EQUAL_DATA)):
            Path(name).write_text(json.dumps(data), encoding="utf-8")
        try:
            for argv in invocations(FAMILIES):
                print(" ".join(argv), digest(cli.main, argv), sep="\t")
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
