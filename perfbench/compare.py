"""Compare two result sets of the benchmark.

Usage::

    python3 perfbench/run.py --workload exact_deep --seed 1 --seconds 20 \\
        --save base.jsonl          # repeat over seeds, on the parent commit
    python3 perfbench/run.py ... --save new.jsonl  # same runs on the change
    python3 perfbench/compare.py base.jsonl new.jsonl

For every workload and metric it prints the median and quartiles of each
set. End-to-end metrics get a verdict against the bound in BENCHMARK.json:

* ``REGRESSION``: the new median is worse by more than the bound;
* ``unresolved``: a set's spread (quartile distance over median) is wider
  than the bound, unless every new run is better than every base run;
* ``better``: every new run beats every base run, or the medians differ by
  more than the base spread in the good direction;
* ``same``: none of the above.

Per-layer metrics have no bound; only their relative change is shown.
The exit status is 1 when any end-to-end metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> tuple[dict, list]:
    """{(workload, metric): [values]} and the provenance records of a file."""
    values, provs = defaultdict(list), []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            prov = record["provenance"]
            provs.append(prov)
            for name, metric in record["result"]["metrics"].items():
                values[(prov["workload"], name)].append(metric["value"])
    return values, provs


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list, new: list, better: str, bound: float) -> tuple[str, float]:
    """(verdict, relative change toward worse) for one end-to-end metric."""
    sign = 1.0 if better == "lower" else -1.0
    med_b, med_n = quartiles(base)[1], quartiles(new)[1]
    worse = sign * (med_n - med_b) / abs(med_b)
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved", worse
    if worse > bound:
        return "REGRESSION", worse
    if all_better or -worse > spread(base):
        return "better", worse
    return "same", worse


def summary(provs: list) -> str:
    keys = ("git_sha", "src_sha256", "python", "numpy", "nproc")
    seen = {k: sorted({str(p.get(k)) for p in provs}) for k in keys}
    seen["src_sha256"] = [v[:12] for v in seen["src_sha256"]]
    return ", ".join(f"{k}={'/'.join(v)}" for k, v in seen.items()) + (
        f", runs={len(provs)}"
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    p.add_argument("base", help="JSON-lines file written by run.py --save")
    p.add_argument("new", help="JSON-lines file written by run.py --save")
    args = p.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base, base_provs = load(args.base)
    new, new_provs = load(args.new)
    print(f"base: {summary(base_provs)}")
    print(f"new:  {summary(new_provs)}")
    regressed = False
    header = (f"{'workload':14} {'metric':44} {'base q1/med/q3':>32} "
              f"{'new q1/med/q3':>32} {'worse':>8}  verdict")
    print(header)
    for key in sorted(set(base) & set(new)):
        workload, name = key
        b, n = base[key], new[key]
        qb, qn = quartiles(b), quartiles(n)
        if name in e2e:
            m = e2e[name]
            word, worse = verdict(b, n, m["better"], m["bound"])
            word += f" (bound {m['bound']:g})"
            regressed |= word.startswith("REGRESSION")
        else:
            worse = (qn[1] - qb[1]) / abs(qb[1]) if qb[1] else float("nan")
            word = "per-layer, no bound"
        print(f"{workload:14} {name:44} "
              f"{'/'.join(f'{v:.4g}' for v in qb):>32} "
              f"{'/'.join(f'{v:.4g}' for v in qn):>32} {worse:>+8.3f}  {word}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
