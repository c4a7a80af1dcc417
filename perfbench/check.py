"""Per-op correctness checks, run in their own process after the timed
worker has exited, so they add nothing to its timings, traced counts or
caches.

    python3 perfbench/check.py MANIFEST RECORDS VERDICTS

Writes a JSON list with one entry per record: ``null`` when the op passed,
else the reason it failed.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from omqlab.evaluation import evaluate_naive
from omqlab.graphalg import cq_treewidth
from omqlab.homtools import core
from omqlab.model import FULL_SCHEMA, OMQ, Ontology
from omqlab.surface import parse_database, parse_ontology, parse_query
from omqlab.treelike import ucq_k_approximation


def _arg(argv: list, flag: str):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _omq(argv: list) -> OMQ:
    onto = _arg(argv, "--onto")
    o = parse_ontology(_read(onto)) if onto else Ontology(())
    return OMQ(o, FULL_SCHEMA, parse_query(_read(_arg(argv, "--query"))))


def _within_width(witness: str, k: int) -> bool:
    return all(cq_treewidth(c) <= k for c in parse_query(witness).disjuncts)


def check_verdict(op: dict, out: dict):
    """A tw-equiv or dlf-equiv1 verdict against its reference or certificate."""
    how, k = op["check"]["check"], op["check"]["k"]
    outcome = out.get("outcome")
    if how == "plain_tw":
        q = _omq(op["argv"]).query.disjuncts[0]
        expected = "yes" if cq_treewidth(core(q)) <= k else "no"
        return None if outcome == expected else f"{outcome}, core says {expected}"
    if outcome == "yes":
        return None if _within_width(out["witness"], k) else f"witness wider than {k}"
    if how == "width_witness" and outcome == "no":
        return None
    if how == "omq_certificate" and outcome == "no":
        if "counterexample" not in out:
            return "no without a counterexample"
        Q = _omq(op["argv"])
        d = parse_database(out["counterexample"])
        r1 = evaluate_naive(Q, d)
        r2 = evaluate_naive(ucq_k_approximation(Q, k), d)
        if r1.consistent and r1.answers - r2.answers:
            return None
        return "counterexample does not separate Q from its approximation"
    return f"outcome {outcome}"


def check(ops: list, records: list) -> list:
    verdicts = []
    for rec in records:
        op = ops[rec["i"]]
        if "over_budget" in rec:
            verdicts.append(None)  # reported apart from failures by run.py
        elif rec.get("error"):
            verdicts.append(rec["error"])
        elif rec["code"] != 0:
            verdicts.append(f"exit code {rec['code']}")
        elif op["check"]["check"] == "unravel_laws":
            bad = [law for law in ("law1", "law2") if not rec[law]]
            verdicts.append(f"violates {', '.join(bad)}" if bad else None)
        elif op["check"]["check"] == "agree":
            verdicts.append(None)
        else:
            verdicts.append(check_verdict(op, json.loads(rec["stdout"])))
    # eval-mix: the three pipelines' --json outputs must be byte-identical
    groups = defaultdict(list)
    for n, rec in enumerate(records):
        if ops[rec["i"]]["check"]["check"] == "agree" and "digest" in rec:
            groups[ops[rec["i"]]["group"]].append(n)
    for members in groups.values():
        if len({records[n]["digest"] for n in members}) > 1:
            for n in members:
                verdicts[n] = verdicts[n] or "pipelines disagree"
    return verdicts


def main(argv=None) -> int:
    manifest, records_path, out = (argv or sys.argv[1:])[:3]
    ops = json.loads(_read(manifest))["ops"]
    records = [json.loads(line) for line in _read(records_path).splitlines()]
    records = [r for r in records if "i" in r]
    Path(out).write_text(json.dumps(check(ops, records)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
