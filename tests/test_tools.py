import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from pulsesmith.sequences import FAMILIES

ROOT = Path(__file__).resolve().parents[1]

# the sweep's FAIL verdicts (exit 3); the nearest passing ray is 0.024 inside
# the slope tolerance, so no platform's rounding adds a run to them
KNOWN_FAILS = {
    (family, str(k), phi)
    for family, ks in (("elementary", [127]), ("scorbutus", range(1, 7)), ("skinsc", [*range(1, 9), 126, 127]))
    for k in ks
    for phi in ("0", "0.3")
}


def test_verify_sweep_prints_one_line_per_run_and_counts_that_add_up():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "verify_sweep.py"), "--src", str(ROOT / "src")],
        capture_output=True, text=True, check=True,
    )
    lines = run.stdout.splitlines()
    runs = [line.split("\t") for line in lines if not line.startswith("#")]
    counts = {int(m[1]): int(m[2]) for m in map(re.compile(r"^# exit (\d+): (\d+)$").match, lines) if m}
    # every family at 127 angles and two phases, in order
    assert [tuple(r[:3]) for r in runs] == [
        (family, str(k), phi) for family in FAMILIES for k in range(1, 128) for phi in ("0", "0.3")
    ]
    assert lines[len(runs):] == [f"# exit {code}: {n}" for code, n in sorted(counts.items())]
    assert counts == Counter(int(r[3]) for r in runs)
    # a change may clear a known FAIL, never add one
    fails = {tuple(r[:3]) for r in runs if r[3] == "3"}
    assert fails <= KNOWN_FAILS, sorted(fails - KNOWN_FAILS)
    for family, k, phi, code, *detail in runs:
        if code == "0":
            assert detail == [], (family, k, phi)
        elif code == "3":
            # a FAIL names each BAD check: a ray and its slope, or the residual
            assert detail and all(re.fullmatch(r"(eps|f|mixed)=-?\d+\.\d{3}|residual=\S+", d) for d in detail)
        else:
            assert len(detail) == 1 and detail[0].startswith("error: "), (family, k, phi)
