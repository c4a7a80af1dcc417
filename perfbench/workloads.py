"""Seeded input streams for the benchmark workloads.

Each workload is an endless stream drawn from ``tests/gen.py`` exactly the
way the matching acceptance criterion draws it, so at the default seed the
first instances are the criterion's own.  Nothing is filtered by time or
size: the heavy instances occur at their natural rate.

``write_stream`` runs in its own process during set-up.  It writes the input
files and a manifest of ops; the worker only reads them, so the generator's
own calls into omqlab (consistency filters, treewidth bounds) warm no cache
in the process that is timed.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from gen import rand_cq, rand_database, rand_elhdr_ontology, rand_ucq
from omqlab.entailment import is_consistent
from omqlab.graphalg import cq_treewidth
from omqlab.model import UCQ
from omqlab.surface import serialize_database, serialize_ontology, serialize_query

REFERENCE_OPS = 30

# tw-equiv budget passed on every call, so OMQLAB_BUDGET cannot change the work
TW_BUDGET = 5


def _eval_mix(seed: int):
    """Criterion 4: ELHdr ontology, 2-6 constants, CQ of width <= 2."""
    names, roles = ["A1", "A2", "A3", "B1"], ["r", "s"]
    rng = random.Random(seed)
    while True:
        o = rand_elhdr_ontology(rng, rng.randint(1, 8), names=names, roles=roles)
        d = rand_database(rng, rng.randint(2, 6), names=names, roles=roles)
        arity = rng.choice([0, 0, 1])
        q = rand_cq(rng, rng.randint(max(arity, 1), 6), arity,
                    names=names, roles=roles, max_tw=2)
        if not d.dom or not is_consistent(d, o):
            continue
        files = {"dl": serialize_ontology(o), "db": serialize_database(d),
                 "cq": serialize_query(UCQ((q,)))}
        k = str(max(1, cq_treewidth(q)))
        ops = [{"kind": algo,
                "argv": ["eval", "--onto", "{dl}", "--query", "{cq}", "--db", "{db}",
                         "--algo", algo, "-k", k, "--json"]}
               for algo in ("naive", "fpt", "pebble")]
        yield files, ops, {"check": "agree"}


def _treelike_decide(seed: int):
    """Criterion 6 plain Boolean CQs (tw-equiv at k = 1, 2 and dlf-equiv1
    under ``func r``) interleaved with criterion 5 ELHdr OMQs."""
    rng6 = random.Random(seed)
    # criterion 5 draws its OMQs from seed 505 when criterion 6 uses 606
    rng5 = random.Random(seed - 101)
    names5, roles = ["A1", "A2", "B1"], ["r", "s"]
    while True:
        q = rand_cq(rng6, rng6.randint(1, 7), 0, names=["A", "B"], roles=roles)
        plain = {"cq": serialize_query(UCQ((q,))), "func": "func r\n"}
        ops = [{"kind": "tw_equiv",
                "argv": ["tw-equiv", "--query", "{cq}", "-k", str(k),
                         "--budget", str(TW_BUDGET), "--json"],
                "check": {"check": "plain_tw", "k": k}}
               for k in (1, 2)]
        ops.append({"kind": "dlf_equiv1",
                    "argv": ["dlf-equiv1", "--onto", "{func}", "--query", "{cq}",
                             "--json"],
                    "check": {"check": "width_witness", "k": 1}})
        yield plain, ops, None

        o = rand_elhdr_ontology(rng5, rng5.randint(1, 5), names=names5, roles=roles)
        uq = rand_ucq(rng5, rng5.randint(1, 2), 5, rng5.choice([0, 1]),
                      names=names5, roles=roles)
        k = max(1, max(cq_treewidth(c) for c in uq.disjuncts) - 1)
        omq = {"dl": serialize_ontology(o), "cq": serialize_query(uq)}
        ops = [{"kind": "tw_equiv",
                "argv": ["tw-equiv", "--onto", "{dl}", "--query", "{cq}",
                         "-k", str(k), "--budget", str(TW_BUDGET), "--json"],
                "check": {"check": "omq_certificate", "k": k}}]
        yield omq, ops, None


def _chase_unravel(seed: int):
    """Criterion 7: 1-3 constants, one role, width-1 CQ of at most 3 vars."""
    names, roles = ["A1", "B1"], ["r"]
    rng = random.Random(seed)
    while True:
        o = rand_elhdr_ontology(rng, rng.randint(1, 4), names=names, roles=roles,
                                bot_prob=0.1)
        d = rand_database(rng, rng.randint(1, 3), names=names, roles=roles)
        arity = rng.choice([0, 1])
        q = rand_cq(rng, rng.randint(max(arity, 1), 3), arity,
                    names=names, roles=roles, max_tw=1)
        if not d.dom:
            continue
        files = {"dl": serialize_ontology(o), "db": serialize_database(d),
                 "cq": serialize_query(UCQ((q,)))}
        ops = [{"kind": "unravel_chase", "argv": None,
                "args": {"dl": "{dl}", "db": "{db}", "cq": "{cq}",
                         "depth": len(q.variables()) + 1, "arity": arity}}]
        yield files, ops, {"check": "unravel_laws"}


STREAMS = {"eval-mix": _eval_mix, "treelike-decide": _treelike_decide,
           "chase-unravel": _chase_unravel}


def _fill(value, paths: dict):
    if isinstance(value, str):
        return value.format(**paths) if value.startswith("{") else value
    if isinstance(value, list):
        return [_fill(v, paths) for v in value]
    if isinstance(value, dict):
        return {k: _fill(v, paths) for k, v in value.items()}
    return value


def write_stream(workload: str, seed: int, n_ops: int, out: Path, root: Path) -> dict:
    """Write the first ``n_ops`` ops of a workload's stream under ``out`` and
    return the manifest, with file paths relative to ``root``.  The digest
    covers every input text and every op's arguments."""
    out.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256(f"{workload}\n{seed}\n".encode())
    ops: list[dict] = []
    stream = STREAMS[workload](seed)
    while len(ops) < n_ops:
        files, inst_ops, check = next(stream)
        inst = len(ops)
        paths = {}
        for ext, text in files.items():
            path = out / f"{inst}.{ext}"
            path.write_text(text, encoding="utf-8")
            paths[ext] = str(path.relative_to(root))
            digest.update(f"{ext}\n{text}".encode())
        for op in inst_ops:
            digest.update(json.dumps(op, sort_keys=True).encode())
            op = _fill(op, paths)
            op.setdefault("check", check)
            op["group"] = inst
            ops.append(op)
    return {"workload": workload, "seed": seed, "ops": ops,
            "input_digest": digest.hexdigest()}


def main(argv=None) -> int:
    """``python3 perfbench/workloads.py WORKLOAD SEED N_OPS WORKDIR REF_SEED``,
    run from the repository root: writes WORKDIR/in/* and
    WORKDIR/manifest.json.  The manifest also carries the digest of the
    first ``REFERENCE_OPS`` ops at REF_SEED, which shows whether the
    generators still draw the streams the benchmark was defined on."""
    workload, seed, n_ops, work, ref_seed = (argv or sys.argv[1:])
    work = Path(work).resolve()
    manifest = write_stream(workload, int(seed), int(n_ops), work / "in", Path.cwd())
    manifest["reference_digest"] = write_stream(
        workload, int(ref_seed), REFERENCE_OPS, work / "ref", Path.cwd())["input_digest"]
    (work / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
