"""Judge a paired result file written by ``perfbench/suite.py --base``.

    python3 perfbench/compare.py pair.json

The file holds, for each workload and seed, one run of the base checkout and
one of the new, made back to back with the order alternating. Each metric is
judged on the per-seed changes (new - base) / base, so a drift of the
machine's speed between runs of the same pair cancels out. For each
workload and end-to-end metric it prints each side's median, the median and
quartiles of the paired change, how many pairs the new side won, and a status
against the metric's bound from BENCHMARK.json:

* ``worse``      - the median paired change is worse than the bound;
* ``unresolved`` - the paired changes spread (q3 - q1) wider than the bound,
  and not every new run reads better than every base run;
* ``better``     - the new side won at least nine pairs in ten, and the
  medians differ by more than the base runs' own quartile spread;
* ``ok``         - otherwise.

Per-layer metrics of traced pairs (``--trace 1``) are listed with both
medians and the median paired change; they have no bound. Exits 1 if any
metric is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from suite import spread


def pairs(runs: list[dict], workload: str, trace: int) -> dict[str, list[tuple[float, float]]]:
    """Metric name -> [(base value, new value)] over the seeds run on both sides."""
    by_seed: dict[int, dict[str, dict]] = {}
    for r in runs:
        if r["workload"] == workload and r["trace"] == trace:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
    out: dict[str, list[tuple[float, float]]] = {}
    for seed in sorted(by_seed):
        sides = by_seed[seed]
        if "base" in sides and "new" in sides:
            for name, m in sides["new"].items():
                if name in sides["base"]:
                    out.setdefault(name, []).append((sides["base"][name]["value"], m["value"]))
    return out


def status(values: list[tuple[float, float]], metric: dict) -> tuple[str, str]:
    """(status, details) of one end-to-end metric's pairs."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = [sign * (new - base) / base for base, new in values]  # > 0: new is worse
    q1, median, q3 = statistics.quantiles(worse, n=4)
    wins = sum(w < 0 for w in worse)
    base = [b for b, _ in values]
    new = [n for _, n in values]
    base_median, base_spread = spread(base)
    gap = abs(statistics.median(new) - base_median) / base_median
    all_better = max(new) < min(base) if sign > 0 else min(new) > max(base)
    bound = metric["bound"]
    if median > bound:
        verdict = "worse"
    elif q3 - q1 > bound and not all_better:
        verdict = "unresolved"
    elif wins >= 0.9 * len(worse) and gap > base_spread:
        verdict = "better"
    else:
        verdict = "ok"
    details = (f"worse by {median:+.2%} [q1 {q1:+.2%}, q3 {q3:+.2%}]  "
               f"new won {wins}/{len(worse)}  base spread {base_spread:.3f}  bound {bound}")
    return verdict, details


def describe_env(runs: list[dict], side: str) -> str:
    envs = [r["env"] for r in runs if r["side"] == side]
    commits = sorted({e["commit"][:12] for e in envs})
    return (f"{side}: commit {', '.join(commits)}; {envs[0]['cpu_model']}, nproc {envs[0]['nproc']}, "
            f"python {envs[0]['python']}, numpy {envs[0]['numpy']}; {len(envs)} runs, "
            f"load at start {min(e['loadavg_start'][0] for e in envs):.2f}"
            f"-{max(e['loadavg_start'][0] for e in envs):.2f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pairs", help="result file of perfbench/suite.py --base")
    args = parser.parse_args(argv)
    data = json.loads(Path(args.pairs).read_text())
    runs = data["runs"]
    if not {"base", "new"} <= {r["side"] for r in runs}:
        print("compare: the file has no base/new pairs; make it with suite.py --base", file=sys.stderr)
        return 2
    metrics = {m["name"]: m for m in data["benchmark"]["end_to_end"]}
    print(describe_env(runs, "base"))
    print(describe_env(runs, "new"))

    worse = 0
    for workload in dict.fromkeys(r["workload"] for r in runs):
        for trace in (0, 1):
            table = pairs(runs, workload, trace)
            if not table:
                continue
            print(f"\n{workload} ({'per-layer, traced' if trace else 'end-to-end'}), "
                  f"{len(next(iter(table.values())))} pairs")
            for name, values in table.items():
                mb = statistics.median(b for b, _ in values)
                mn = statistics.median(n for _, n in values)
                line = f"  {name:40s} {mb:12.6g} -> {mn:12.6g}"
                if trace == 0 and name in metrics and len(values) > 1:
                    verdict, details = status(values, metrics[name])
                    worse += verdict == "worse"
                    line += f"  {details}  {verdict}"
                else:
                    changes = [(n - b) / b for b, n in values if b]
                    if changes:
                        line += f"  {statistics.median(changes):+8.2%}"
                print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
