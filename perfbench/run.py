"""omqlab benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload eval-mix --seed 2024 --seconds 30 --trace 0

Run from the repository root.  Set-up times fresh imports of ``omqlab.cli``
and writes the workload's input stream (``workloads.py``) in a process of its
own.  Then a fresh worker process (``worker.py``) runs the ops in a closed
loop with a single client for ``--seconds`` seconds, and a separate process
(``check.py``) checks every op's output.  ``--trace 1`` wraps every layer's
public functions (``layers.py``) and then replays the same ops untraced, to
compare outputs and report the tracing overhead.

The report goes to stdout, and to ``.perfbench/results/`` as JSON for
``compare.py``.  The last stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from layers import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("eval-mix", "treelike-decide", "chase-unravel")
DEFAULT_SEEDS = {"eval-mix": 2024, "treelike-decide": 606, "chase-unravel": 707}
# digest of each stream's first ops at its default seed; a change to
# tests/gen.py that alters a stream shows here, and the run refuses to
# produce numbers that would be compared with runs on other inputs
REFERENCE_DIGESTS = {
    "eval-mix": "e473942de5a699f4f87572a6661da6c1993a7487f7725741e726c80f57fbd639",
    "treelike-decide": "79bf3bfd6e78d8899ba62acaa2acd20079e5d7b1731591e2259650b0686eb2c3",
    "chase-unravel": "8ea589eeb857c70a662c69f8234584ffc45e2de9ecdc42c9543c7565922bb42d",
}
KINDS = {"eval-mix": ("naive", "fpt", "pebble"),
         "treelike-decide": ("tw_equiv", "dlf_equiv1"),
         "chase-unravel": ("unravel_chase",)}
# ops generated per measured second: 2 to 5 times today's rate on a 2-core
# x86 container, so the stream outlasts the run; a run that exhausts it
# says so in its report
STREAM_RATE = {"eval-mix": 160, "treelike-decide": 60, "chase-unravel": 16}
# layers that must record calls in a traced run of each workload; together
# they cover every layer, so no layer goes unmeasured
EXPECTED_LAYERS = {
    "eval-mix": ("cli", "surface", "entailment", "chase", "homtools", "graphalg",
                 "evaluation", "pebble"),
    "treelike-decide": ("cli", "surface", "entailment", "chase", "homtools",
                        "graphalg", "treelike", "dllitef"),
    "chase-unravel": ("chase", "homtools", "graphalg"),
}
# fresh imports timed at each of three points of a run, so that one slow
# stretch of a shared machine does not set the median
SETUP_IMPORTS = 5
RUN_LIMIT_S = 175  # the whole run, set-up and checks included
CHECK_RESERVE_S = 10
# the metrics BENCHMARK.json bounds; they are the ones that stay steady
# across seeds on this machine class.  The report prints the rest too.
END_TO_END = {"p50_ms": "ms", "setup_s": "s"}
# layers idle on one of the bounded workloads: their self time there is
# exactly 0.0 on every run, so the result line leaves it out; the report
# and the result file keep it
IDLE_SELF_TIMES = ("pebble.self_s", "treelike.self_s", "dllitef.self_s")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    env["PYTHONHASHSEED"] = "0"  # search order follows set iteration
    env.pop("OMQLAB_BUDGET", None)
    return env


def run_child(args: list, deadline: float, what: str, work: Path) -> tuple[float, bool]:
    """Run a Python child in the checkout until it exits or ``deadline``
    passes; returns its peak resident memory in MB and whether it was
    killed.  A child that fails on its own aborts the run."""
    work.mkdir(parents=True, exist_ok=True)
    err_path = work / f"{what}.stderr"
    with err_path.open("w", encoding="utf-8") as err:
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
    killed = False
    try:
        while True:
            # reaped here rather than by Popen.wait, to get the child's rusage
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if not killed and time.monotonic() > deadline:
                proc.kill()
                killed = True
            time.sleep(0.01)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 and not killed:
        raise BenchError(f"{what} failed with exit code {proc.returncode}:\n"
                         f"{err_path.read_text(errors='replace')[-2000:]}")
    return usage.ru_maxrss / 1024, killed


def measure_setup(first: bool = False) -> list[float]:
    """Seconds a fresh interpreter takes to import omqlab.cli.  On the
    ``first`` call an extra, untimed import compiles the bytecode."""
    probe = ("import time; t = time.perf_counter(); import omqlab.cli; "
             "print(time.perf_counter() - t)")
    out = []
    for n in range(SETUP_IMPORTS + first):
        res = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=child_env(),
                             capture_output=True, text=True, timeout=60)
        if res.returncode != 0:
            raise BenchError(f"importing omqlab.cli failed:\n{res.stderr[-2000:]}")
        if n or not first:
            out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def read_records(path: Path) -> tuple[list, dict | None]:
    lines = [json.loads(l) for l in path.read_text(encoding="utf-8").splitlines()]
    summary = lines.pop() if lines and lines[-1].get("done") else None
    return lines, summary


def run_worker(work: Path, name: str, extra: list, deadline: float):
    """A fresh worker over the manifest; an op still running at the deadline
    is killed and recorded as failed."""
    rec_path = work / f"{name}.jsonl"
    t0 = time.monotonic()
    rss_mb, killed = run_child(
        [str(BENCH / "worker.py"), str(work / "manifest.json"), str(rec_path), *extra],
        deadline, name, work)
    records, summary = read_records(rec_path)
    if summary is None:
        summary = {"wall_s": time.monotonic() - t0, "exhausted": False}
    if killed:
        ops = json.loads((work / "manifest.json").read_text())["ops"]
        i = len(records)
        records.append({"i": i, "kind": ops[i]["kind"], "ms": None, "code": None,
                        "error": f"killed at the run's {RUN_LIMIT_S} s limit"})
        with rec_path.open("a", encoding="utf-8") as f:
            f.write(json.dumps(records[-1]) + "\n")
    return records, summary, rss_mb


def tail(values: list) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value; the maximum when there are ten samples or fewer."""
    v = sorted(values)
    i = len(v) - 11 if len(v) > 10 else len(v) - 1
    return 100.0 * (i + 1) / len(v), v[i]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    res = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() or "unknown"


def summarize(workload: str, records: list, verdicts: list, wall_s: float) -> dict:
    by_kind = defaultdict(list)
    for r in records:
        by_kind[r["kind"]].append(r["ms"] if r["ms"] is not None else math.inf)
    all_ms = [ms for v in by_kind.values() for ms in v]
    failed = sum(v is not None for v in verdicts)
    over = sum("over_budget" in r for r in records)
    kinds = {}
    for kind in KINDS[workload]:
        v = by_kind.get(kind, [])
        pct, t = tail(v) if v else (0.0, math.nan)
        kinds[kind] = {"n": len(v), "p50_ms": statistics.median(v) if v else math.nan,
                       "tail_ms": t, "tail_pct": pct}
    return {"attempted": len(records), "failed": failed, "over_budget": over,
            "fail_share": failed / len(records) if records else 1.0,
            "ops_per_s": (len(records) - failed - over) / wall_s if wall_s > 0 else 0.0,
            "p50_ms": statistics.median(all_ms) if all_ms else math.nan,
            "kinds": kinds}


def print_report(res: dict) -> None:
    m, s = res["meta"], res["summary"]
    print(f"omqlab benchmark: workload {m['workload']}, seed {m['seed']}, "
          f"{m['seconds']} s, trace {m['trace']}")
    print(f"  git {m['git']}, python {m['python']}, nproc {m['nproc']}, "
          f"input digest {m['input_digest'][:16]}, "
          f"stream {m['stream_ops']} ops{' (exhausted)' if m['exhausted'] else ''}")
    print(f"  ops per kind: " + ", ".join(f"{k} {v['n']}" for k, v in s["kinds"].items())
          + f"; attempted {s['attempted']}, failed {s['failed']}, "
          f"fail_share {s['fail_share']:.4f}, over budget {s['over_budget']}")
    e = res["end_to_end"]
    print(f"  phases: " + ", ".join(f"{k} {v:.1f} s" for k, v in m["phase_s"].items()))
    print(f"  setup_s {e['setup_s']:.4f} s (median of {len(res['setup_imports_s'])} "
          f"fresh imports of omqlab.cli)")
    print(f"  ops_per_s {s['ops_per_s']:.3f} 1/s   fail_share {s['fail_share']:.4f}   "
          f"peak_rss_mb {e['peak_rss_mb']:.1f} MB   p50_ms {e['p50_ms']:.3f} ms (all ops)")
    for k, v in s["kinds"].items():
        print(f"  {k}_p50_ms {v['p50_ms']:.3f} ms   {k}_tail_ms {v['tail_ms']:.3f} ms "
              f"(p{v['tail_pct']:.1f}, {v['n']} samples)")
    for reason in res["failures"][:10]:
        print(f"  FAILED {reason}")
    for reason in res["over_budget"]:
        print(f"  OVER BUDGET {reason}")
    if res.get("layers"):
        lay = res["layers"]
        total = sum(lay[f"{l}.self_s"] for l in LAYERS) or 1.0
        print("  layer split (self time):")
        for l in sorted(LAYERS, key=lambda l: -lay[f"{l}.self_s"]):
            print(f"    {l:<11} calls {lay[f'{l}.calls']:>9}  self {lay[f'{l}.self_s']:9.3f} s"
                  f"  {100 * lay[f'{l}.self_s'] / total:5.1f}%")
        for name, v in lay.items():
            if not name.endswith((".calls", ".self_s")):
                print(f"    {name} {v:.4g}")
        for problem in res["trace_problems"]:
            print(f"  TRACE CHECK FAILED {problem}")


def bench(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    work = ROOT / ".perfbench" / f"{workload}-s{seed}-t{int(trace)}-{stamp}"
    phase = {}
    t = time.monotonic()
    try:
        setup = measure_setup(first=True)
        phase["setup"], t = time.monotonic() - t, time.monotonic()
        n_ops = STREAM_RATE[workload] * seconds
        run_child([str(BENCH / "workloads.py"), workload, str(seed), str(n_ops),
                   str(work), str(DEFAULT_SEEDS[workload])], deadline, "generate", work)
        manifest = json.loads((work / "manifest.json").read_text())
        if manifest["reference_digest"] != REFERENCE_DIGESTS[workload]:
            raise BenchError(f"the {workload} stream no longer matches the one the "
                             f"benchmark was defined on (tests/gen.py changed?)")

        setup += measure_setup()
        phase["generate"], t = time.monotonic() - t, time.monotonic()
        worker_deadline = deadline - CHECK_RESERVE_S
        records, summary, rss_mb = run_worker(
            work, "timed", ["--seconds", str(seconds)] + (["--trace"] if trace else []),
            worker_deadline)
        wall_s = summary["wall_s"]
        trace_problems, layers = [], None
        if trace:
            # the replay skips ops the traced run could not finish
            unfinished = ",".join(str(r["i"]) for r in records if "digest" not in r)
            replay, _, _ = run_worker(
                work, "replay", ["--count", str(len(records)), "--skip", unfinished],
                worker_deadline)
            # a worker killed at the run limit reports no layers: all zero
            layers = {**Tracer().metrics(), **summary.get("layers", {})}
            traced = {r["i"]: r for r in records if "digest" in r}
            plain = {r["i"]: r for r in replay if "digest" in r}
            both = traced.keys() & plain.keys()
            plain_ms = sum(plain[i]["ms"] for i in both)
            layers["trace.overhead_ratio"] = (sum(traced[i]["ms"] for i in both) / plain_ms
                                              if plain_ms else 0.0)
            differ = sorted(i for i in both if traced[i]["digest"] != plain[i]["digest"])
            if differ:
                trace_problems.append(f"traced outputs differ from untraced ones at "
                                      f"ops {differ[:10]}")
            silent = [l for l in EXPECTED_LAYERS[workload] if not layers.get(f"{l}.calls")]
            if silent:
                trace_problems.append(f"layers with zero calls: {silent}")

        phase["workers"], t = time.monotonic() - t, time.monotonic()
        run_child([str(BENCH / "check.py"), str(work / "manifest.json"),
                   str(work / "timed.jsonl"), str(work / "verdicts.json")],
                  deadline, "check", work)
        verdicts = json.loads((work / "verdicts.json").read_text())
        setup += measure_setup()
        phase["check"] = time.monotonic() - t
    finally:
        shutil.rmtree(work, ignore_errors=True)

    s = summarize(workload, records, verdicts, wall_s)
    return {
        "meta": {"workload": workload, "seed": seed, "seconds": seconds,
                 "trace": int(trace), "git": git_sha(),
                 "python": platform.python_version(), "nproc": os.cpu_count(),
                 "input_digest": manifest["input_digest"],
                 "stream_ops": len(manifest["ops"]),
                 "exhausted": summary["exhausted"], "phase_s": phase},
        "summary": s,
        "setup_imports_s": setup,
        "end_to_end": {"setup_s": statistics.median(setup), "p50_ms": s["p50_ms"],
                       "ops_per_s": s["ops_per_s"], "peak_rss_mb": rss_mb},
        "ops": [[r["kind"], r["ms"]] for r in records],
        "failures": [f"op {r['i']} ({r['kind']}): {v}"
                     for r, v in zip(records, verdicts) if v is not None],
        "over_budget": [f"op {r['i']} ({r['kind']}): {r['over_budget']}"
                        for r in records if "over_budget" in r],
        "layers": layers,
        "trace_problems": trace_problems,
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes_in"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, help="defaults to the acceptance seed")
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    for needed in ("src/omqlab/cli.py", "tests/gen.py"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} is missing; run from an omqlab checkout",
                  file=sys.stderr)
            return 2
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    try:
        res = bench(args.workload, seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    m = res["meta"]
    (results / f"{m['workload']}-s{m['seed']}-t{m['trace']}-{time.time_ns()}.json"
     ).write_text(json.dumps(res, indent=1, default=str), encoding="utf-8")
    print_report(res)

    s = res["summary"]
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in res["layers"].items() if k not in IDLE_SELF_TIMES}
    else:
        metrics = {k: {"value": res["end_to_end"][k], "unit": u}
                   for k, u in END_TO_END.items()}
    correct = s["failed"] == 0 and not res["trace_problems"]
    print(json.dumps({"correct": correct, "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
