"""Compare two sets of benchmark runs, such as a parent commit and a change.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py`` (copies of
``.perfbench/results``).  Untraced runs are paired by workload and seed.
Two runs of one workload and seed must have the same input digest; if any
pair differs, the inputs changed and the comparison is refused.

For every workload and metric it prints each side's median and quartiles,
the change of the median, and the share of pairs the new side wins.  The
verdict uses the metric's bound from BENCHMARK.json: "worse" when the new
median is worse by more than the bound, "unresolved" when either side's
quartile spread exceeds the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict:
    runs = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.json")):
        res = json.loads(path.read_text(encoding="utf-8"))
        m = res["meta"]
        if not m["trace"]:
            runs[m["workload"]][m["seed"]] = res
    return runs


def values(res: dict) -> dict:
    out = dict(res["end_to_end"])
    for kind, v in res["summary"]["kinds"].items():
        out[f"{kind}_p50_ms"] = v["p50_ms"]
        out[f"{kind}_tail_ms"] = v["tail_ms"]
    out["fail_share"] = res["summary"]["fail_share"]
    return out


def quartiles(v: list) -> tuple:
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    base_dir, new_dir = argv or sys.argv[1:]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = {m["name"]: m for m in bench["end_to_end"]}
    base, new = load(base_dir), load(new_dir)
    mismatched = [(w, s) for w in base for s in base[w]
                  if s in new.get(w, {})
                  and base[w][s]["meta"]["input_digest"] != new[w][s]["meta"]["input_digest"]]
    if mismatched:
        print(f"refusing to compare: input digests differ for {mismatched}", file=sys.stderr)
        return 2
    for w in sorted(base):
        seeds = sorted(set(base[w]) & set(new.get(w, {})))
        if not seeds:
            continue
        print(f"{w}: {len(seeds)} paired seeds")
        for name in values(base[w][seeds[0]]):
            b = [values(base[w][s])[name] for s in seeds]
            n = [values(new[w][s])[name] for s in seeds]
            higher = spec.get(name, {}).get("better") == "higher"
            wins = sum((y > x) if higher else (y < x) for x, y in zip(b, n))
            (b1, bm, b3), (n1, nm, n3) = quartiles(b), quartiles(n)
            change = (nm - bm) / bm if bm else 0.0
            verdict = ""
            if name in spec:
                bound = spec[name]["bound"]
                worse = -change if higher else change
                if max((b3 - b1) / bm if bm else 0, (n3 - n1) / nm if nm else 0) > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "worse"
            print(f"  {name:<22} base {bm:10.4g} [{b1:.4g}, {b3:.4g}]  "
                  f"new {nm:10.4g} [{n1:.4g}, {n3:.4g}]  {100 * change:+6.1f}%  "
                  f"new wins {wins}/{len(seeds)} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
