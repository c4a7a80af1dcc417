"""One benchmark worker: runs a manifest's ops in order in this fresh
process, a closed loop with a single client, and appends one JSON record
per op to the records file.

    python3 perfbench/worker.py MANIFEST RECORDS (--seconds S | --count N)
        [--trace] [--skip I,J,...]

Only the op itself is timed.  Parsing the chase-unravel inputs, the
unraveling law 1 check and the output digests run outside the timed span
and, with ``--trace``, outside every traced span.

An op that runs past OP_SECONDS, or grows the process past OP_RSS_MB, is
interrupted and recorded as over budget: a run must end within its time
limit, and the machine it runs on is shared.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter

import omqlab.cli
from omqlab import chase, graphalg, homtools
from omqlab.model import CQ
# bound before --trace wraps the module's functions, so reading an op's
# inputs stays out of the traced counts
from omqlab.surface import parse_database, parse_ontology


OP_SECONDS = 40
OP_RSS_MB = 1024
# a backstop for allocations made in one native call, which the periodic
# check cannot interrupt; hitting it raises MemoryError, a failed op
ADDRESS_SPACE_MB = 3072
CHECK_EVERY_S = 0.5


class OverBudget(BaseException):
    """Raised into a running op; a BaseException, so that no ``except
    Exception`` in the program can turn it into a result."""


def _rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


class Budget:
    """Checks the running op's elapsed time and the process's resident
    memory every CHECK_EVERY_S seconds, and interrupts the op past either."""

    def __enter__(self):
        self.start = perf_counter()
        signal.signal(signal.SIGALRM, self._check)
        signal.setitimer(signal.ITIMER_REAL, CHECK_EVERY_S, CHECK_EVERY_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return False

    def _check(self, signum, frame) -> None:
        if perf_counter() - self.start > OP_SECONDS:
            raise OverBudget(f"ran past {OP_SECONDS} s")
        if _rss_mb() > OP_RSS_MB:
            raise OverBudget(f"resident memory past {OP_RSS_MB} MB")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(op: dict) -> tuple[float, dict]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        code = omqlab.cli.main(op["argv"])
        ms = (perf_counter() - t0) * 1e3
    stdout = out.getvalue()
    return ms, {"code": code, "stdout": stdout, "digest": _digest(stdout),
                "stderr": err.getvalue()[-400:]}


def run_unravel_chase(op: dict) -> tuple[float, dict]:
    a = op["args"]
    o = parse_ontology(Path(a["dl"]).read_text(encoding="utf-8"))
    d = parse_database(Path(a["db"]).read_text(encoding="utf-8"))
    anchors = tuple(sorted(d.dom)[:a["arity"]])

    t0 = perf_counter()
    u = graphalg.k_unravel(d, anchors, 1, a["depth"])
    pi = u.projection()
    pi.update({c: c for c in anchors})
    ch_u = chase.oblivious_chase(u.database, o, 1)
    ch_d = chase.oblivious_chase(d, o, 3)
    lifted = homtools.find_homomorphism(CQ((), ch_u.facts.facts), ch_d.facts,
                                        {c: pi[c] for c in u.database.dom})
    ms = (perf_counter() - t0) * 1e3

    law1 = all(f.rename(pi) in d.facts for f in u.database.facts)
    shown = "\n".join([
        *sorted(map(str, u.database.facts)), "--",
        *sorted(map(str, ch_u.facts.facts)), "--",
        *sorted(map(str, ch_d.facts.facts)), "--",
        repr(sorted(lifted.items()) if lifted is not None else None)])
    return ms, {"code": 0, "digest": _digest(shown), "law1": law1,
                "law2": lifted is not None,
                "sizes": [len(u.database.facts), len(ch_u.facts.facts),
                          len(ch_d.facts.facts)]}


def run_op(op: dict) -> tuple[float, dict]:
    return run_unravel_chase(op) if op["argv"] is None else run_cli(op)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("manifest")
    p.add_argument("records")
    p.add_argument("--seconds", type=float)
    p.add_argument("--count", type=int)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--skip", default="", help="comma-separated op indexes")
    args = p.parse_args(argv)
    ops = json.loads(Path(args.manifest).read_text(encoding="utf-8"))["ops"]
    skip = {int(i) for i in args.skip.split(",") if i}
    limit_bytes = ADDRESS_SPACE_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    tracer = None
    if args.trace:
        from layers import Tracer, install
        tracer = Tracer()
        install(tracer)

    with open(args.records, "w", encoding="utf-8") as rec:
        t_start = perf_counter()
        exhausted = args.count is None
        for i, op in enumerate(ops[:args.count]):
            if args.seconds is not None and perf_counter() - t_start >= args.seconds:
                exhausted = False
                break
            if i in skip:
                continue
            t0 = perf_counter()
            try:
                with Budget():
                    ms, out = run_op(op)
            except OverBudget as e:
                ms, out = (perf_counter() - t0) * 1e3, {"code": None,
                                                        "over_budget": str(e)}
            except Exception as e:  # a crashed op is a failed op; keep going
                ms, out = (perf_counter() - t0) * 1e3, {
                    "code": None, "error": f"{type(e).__name__}: {e}"}
            except SystemExit as e:
                ms, out = (perf_counter() - t0) * 1e3, {
                    "code": e.code, "error": "SystemExit"}
            rec.write(json.dumps({"i": i, "kind": op["kind"], "ms": ms, **out}) + "\n")
            rec.flush()
        wall_s = perf_counter() - t_start
        summary = {"done": True, "wall_s": wall_s, "exhausted": exhausted}
        if tracer is not None:
            summary["layers"] = tracer.metrics()
        rec.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
