"""Command-line entry point.

Exit codes: 0 success, 4 an "unknown" verdict (``tw-equiv``, or
``contain`` under a schema, when containment is neither proved nor
refuted by a separating database); an input omqlab refuses raises
``OmqlabError``, whose ``exit_code`` is the exit code (2 parse error, 3
dialect, schema or query violation, or a file that cannot be read or
written, 5 internal cap exceeded).  Any other exception propagates with
its traceback.
Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import surface
from .model import EMPTY_ONTOLOGY, FULL_SCHEMA, OMQ, UCQ, OmqlabError, Schema
from .chase import canonical_model, oblivious_chase
from .entailment import is_consistent
from .evaluation import evaluate_fpt, evaluate_naive
from .graphalg import cq_treewidth, k_unravel
from .homtools import core
from .pebble import evaluate_pebble
from .treelike import (
    contained,
    decide_tw_equiv_general,
    rewriting,
    ucq_k_approximation,
)

EXIT_OK = 0
EXIT_UNKNOWN = 4


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    # the builtin open: Path.read_text adds about as much time per file as
    # parsing a small query takes
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise OmqlabError(f"cannot read {path}: {e.strerror}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise OmqlabError(f"cannot write {path}: {e.strerror}") from None


def _write_witness(args, verdict) -> None:
    """With ``--out``, write a "yes" verdict's witness OMQ and say so."""
    if verdict.outcome == "yes" and args.out:
        _write(args.out + ".cq", surface.serialize_query(verdict.witness.query))
        _write(args.out + ".dl", surface.serialize_ontology(verdict.witness.ontology))
        print(f"witness written to {args.out}.cq / {args.out}.dl", file=sys.stderr)


def _load_schema(arg: str | None) -> Schema:
    if arg is None or arg == "full":
        return FULL_SCHEMA
    return surface.parse_schema(_read(arg))


def _load_omq(args) -> OMQ:
    onto = surface.parse_ontology(_read(args.onto)) if args.onto else EMPTY_ONTOLOGY
    query = surface.parse_query(_read(args.query))
    return OMQ(onto, _load_schema(args.schema), query)


def _default_budget(args) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("OMQLAB_BUDGET") or "5"
    try:
        return int(env)
    except ValueError:
        raise OmqlabError(f"OMQLAB_BUDGET is not an integer: {env!r}") from None


def _emit_answers(args, result, arity: int) -> None:
    if args.json:
        print(surface.serialize_answers(result.consistent, sorted(result.answers)))
        return
    if not result.consistent:
        print("inconsistent: every tuple is a certain answer", file=sys.stderr)
    if result.answers and next(iter(result.answers)) == ():
        print("true")
    elif not result.answers:
        print("false" if arity == 0 else "")
    else:
        for t in sorted(result.answers):
            print(",".join(t))


def _emit_query(args, q) -> int:
    """A query result: the ``.cq`` text, or ``{"query": text}`` with
    ``--json``, the shape of ``tw-equiv``'s ``witness``."""
    text = surface.serialize_query(q)
    if args.json:
        print(json.dumps({"query": text}))
    else:
        print(text, end="")
    return EXIT_OK


def cmd_eval(args) -> int:
    Q = _load_omq(args)
    d = surface.parse_database(_read(args.db))
    if args.algo == "naive":
        res = evaluate_naive(Q, d)
    elif args.algo == "fpt":
        k = args.k if args.k is not None else max(
            cq_treewidth(cq) for cq in Q.query.disjuncts)
        res = evaluate_fpt(Q, d, k)
    else:
        k = args.k if args.k is not None else 1
        res = evaluate_pebble(Q, d, k)
    _emit_answers(args, res, Q.arity)
    return EXIT_OK


def cmd_consistent(args) -> int:
    onto = surface.parse_ontology(_read(args.onto))
    d = surface.parse_database(_read(args.db))
    ok = is_consistent(d, onto)
    print(json.dumps({"consistent": ok}) if args.json else ("true" if ok else "false"))
    return EXIT_OK


def cmd_chase(args) -> int:
    onto = surface.parse_ontology(_read(args.onto))
    d = surface.parse_database(_read(args.db))
    if args.canonical:
        ch = canonical_model(d, onto, args.steps)
    else:
        ch = oblivious_chase(d, onto, args.depth)
    prov = {c: {"kind": p.kind,
                **({"parent": p.parent} if p.parent else {}),
                **({"via": str(p.via)} if p.via else {}),
                "depth": p.depth}
            for c, p in sorted(ch.provenance.items())}
    if args.json:
        print(json.dumps({"facts": sorted(str(f) for f in ch.facts.facts),
                          "provenance": prov}, indent=None, sort_keys=True))
        return EXIT_OK
    print(surface.serialize_database(ch.facts), end="")
    if args.provenance:
        _write(args.provenance, json.dumps(prov, sort_keys=True))
        print(f"provenance written to {args.provenance}", file=sys.stderr)
    return EXIT_OK


def cmd_treewidth(args) -> int:
    q = surface.parse_query(_read(args.query))
    widths = [cq_treewidth(cq) for cq in q.disjuncts]
    if args.json:
        print(json.dumps({"disjuncts": widths, "max": max(widths)}))
        return EXIT_OK
    for i, w in enumerate(widths, start=1):
        print(f"disjunct {i}: {w}")
    print(f"max: {max(widths)}")
    return EXIT_OK


def cmd_core(args) -> int:
    q = surface.parse_query(_read(args.query))
    return _emit_query(args, UCQ(tuple(core(cq) for cq in q.disjuncts)))


def cmd_approx(args) -> int:
    Q = _load_omq(args)
    return _emit_query(args, ucq_k_approximation(Q, args.k).query)


def cmd_tw_equiv(args) -> int:
    Q = _load_omq(args)
    budget = _default_budget(args)
    verdict = decide_tw_equiv_general(Q, args.k, budget=budget)
    if args.json:
        payload = {"outcome": verdict.outcome}
        if verdict.witness is not None:
            payload["witness"] = surface.serialize_query(verdict.witness.query)
        if verdict.counterexample is not None:
            payload["counterexample"] = surface.serialize_database(verdict.counterexample)
        if verdict.note:
            payload["note"] = verdict.note
        print(json.dumps(payload, sort_keys=True))
    else:
        print(verdict.outcome.upper())
        if verdict.counterexample is not None:
            print("counterexample:", file=sys.stderr)
            print(surface.serialize_database(verdict.counterexample),
                  end="", file=sys.stderr)
    _write_witness(args, verdict)
    return EXIT_OK if verdict.outcome != "unknown" else EXIT_UNKNOWN


def cmd_contain(args) -> int:
    Q1 = _load_omq(args)
    onto2 = surface.parse_ontology(_read(args.onto2)) if args.onto2 else Q1.ontology
    query2 = surface.parse_query(_read(args.query2))
    ok = {"yes": True, "no": False}.get(contained(Q1, OMQ(onto2, Q1.schema, query2)).outcome)
    print(json.dumps({"contained": ok}) if args.json
          else "unknown" if ok is None else str(ok).lower())
    return EXIT_UNKNOWN if ok is None else EXIT_OK


def cmd_rewrite(args) -> int:
    Q = _load_omq(args)
    return _emit_query(args, rewriting(Q).query)


def cmd_unravel(args) -> int:
    d = surface.parse_database(_read(args.db))
    anchors = tuple(args.tuple.split(",")) if args.tuple else ()
    u = k_unravel(d, anchors, args.k, args.depth)
    if args.json:
        print(json.dumps({
            "facts": sorted(str(f) for f in u.database.facts),
            "projection": dict(sorted(u.projection().items())),
        }, sort_keys=True))
    else:
        print(surface.serialize_database(u.database), end="")
    return EXIT_OK


def cmd_dlf_rew(args) -> int:
    from .dllitef import rew
    return _emit_query(args, rew(_load_omq(args)))


def cmd_dlf_equiv1(args) -> int:
    from .dllitef import decide_ubcq1_equiv
    Q = _load_omq(args)
    verdict = decide_ubcq1_equiv(Q)
    if args.json:
        payload = {"outcome": verdict.outcome}
        if verdict.witness is not None:
            payload["witness"] = surface.serialize_query(verdict.witness.query)
        print(json.dumps(payload, sort_keys=True))
    else:
        print(verdict.outcome.upper())
    _write_witness(args, verdict)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser that keeps the actions ``add_argument`` returns
    and the values ``set_defaults`` is given, for ``_read_direct``:
    ``options`` maps the option strings of each store option without
    ``nargs`` and each store-true flag to its action."""

    def __init__(self, *args, **kwargs):
        self.actions: list[argparse.Action] = []
        self.options: dict[str, argparse.Action] = {}
        self.given_defaults: dict = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.actions.append(action)
        if kwargs.get("action", "store") in ("store", "store_true") and "nargs" not in kwargs:
            self.options.update(dict.fromkeys(action.option_strings, action))
        return action

    def set_defaults(self, **kwargs):
        super().set_defaults(**kwargs)
        self.given_defaults.update(kwargs)


# each subcommand's parser by name, filled by build_parser
_COMMANDS: dict[str, _Parser] = {}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one;
    argparse keeps no per-parse state on it."""
    p = _Parser(
        prog="omqlab",
        description="Ontology-mediated query evaluation and analysis")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, db=False, k=False):
        sp.add_argument("--onto", help="ontology file (.dl), or - for stdin")
        sp.add_argument("--query", required=True, help="query file (.cq)")
        if db:
            sp.add_argument("--db", required=True, help="database file (.db)")
        sp.add_argument("--schema", default="full",
                        help="'full' or a .schema file listing names")
        if k:
            sp.add_argument("-k", type=int, required=True, help="treewidth bound")
        sp.add_argument("--json", action="store_true", help="JSON output")

    sp = sub.add_parser("eval", help="evaluate an OMQ over a database")
    common(sp, db=True)
    sp.add_argument("--algo", choices=["naive", "fpt", "pebble"], default="naive")
    sp.add_argument("-k", type=int, help="treewidth bound (fpt/pebble)")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("consistent", help="database consistency with an ontology")
    sp.add_argument("--onto", required=True)
    sp.add_argument("--db", required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_consistent)

    sp = sub.add_parser("chase", help="materialize the chase of a database")
    sp.add_argument("--onto", required=True)
    sp.add_argument("--db", required=True)
    sp.add_argument("--depth", type=int, default=3,
                    help="anonymous forest depth (oblivious chase)")
    sp.add_argument("--canonical", action="store_true",
                    help="build the truncated canonical model instead")
    sp.add_argument("--steps", type=int, default=3,
                    help="successor rounds for --canonical; N rounds answer "
                         "queries of at most N + 1 variables exactly")
    sp.add_argument("--provenance", help="write the JSON provenance sidecar here")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_chase)

    sp = sub.add_parser("treewidth", help="treewidth of each disjunct")
    sp.add_argument("--query", required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_treewidth)

    sp = sub.add_parser("core", help="core of each disjunct")
    sp.add_argument("--query", required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_core)

    sp = sub.add_parser("approx", help="width-k approximation of an OMQ")
    common(sp, k=True)
    sp.set_defaults(func=cmd_approx)

    sp = sub.add_parser("tw-equiv", help="decide width-k equivalence")
    common(sp, k=True)
    sp.add_argument("--budget", type=int,
                    help="counterexample search budget (constants); "
                         "OMQLAB_BUDGET overrides the default of 5")
    sp.add_argument("--out", help="prefix for witness .cq/.dl files")
    sp.set_defaults(func=cmd_tw_equiv)

    sp = sub.add_parser("contain", help="OMQ containment Q1 <= Q2")
    common(sp)
    sp.add_argument("--onto2", help="right-hand ontology (defaults to --onto)")
    sp.add_argument("--query2", required=True, help="right-hand query")
    sp.set_defaults(func=cmd_contain)

    sp = sub.add_parser("rewrite", help="equivalence-preserving rewriting")
    common(sp)
    sp.set_defaults(func=cmd_rewrite)

    sp = sub.add_parser("unravel", help="width-k unraveling of a database")
    sp.add_argument("--db", required=True)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--tuple", help="comma-separated anchor constants")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_unravel)

    sp = sub.add_parser("dlf-rew", help="functionality-eliminating rewriting")
    common(sp)
    sp.set_defaults(func=cmd_dlf_rew)

    sp = sub.add_parser("dlf-equiv1", help="width-1 equivalence for DL-LiteF")
    common(sp)
    sp.add_argument("--out", help="prefix for witness .cq/.dl files")
    sp.set_defaults(func=cmd_dlf_equiv1)

    _COMMANDS.update(sub.choices)
    return p


def _read_direct(command: _Parser, argv: list) -> argparse.Namespace | None:
    """What ``command.parse_known_args(argv)`` returns, with nothing left
    over, when ``argv`` holds only option strings of ``command.options``,
    each once, each store option followed by a value that does not start
    with ``-`` (``-`` itself aside), each value passing its action's
    ``type`` and ``choices``, and every required option given; None for
    any other argv, which argparse then reads.  As in argparse, an option
    not given takes its action's default, then the parser's defaults fill
    in."""
    given = {}
    i = 0
    while i < len(argv):
        action = command.options.get(argv[i])
        if action is None or action.dest in given:
            return None
        if action.nargs == 0:
            given[action.dest] = action.const
            i += 1
            continue
        value = argv[i + 1] if i + 1 < len(argv) else None
        if value is None or (value.startswith("-") and value != "-"):
            return None
        try:
            value = action.type(value) if action.type else value
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
        i += 2
    ns = argparse.Namespace(**given)
    for action in command.actions:
        if action.dest in given or action.default is argparse.SUPPRESS:
            continue
        if action.required:
            return None
        setattr(ns, action.dest, action.default)
    for dest, value in command.given_defaults.items():
        if not hasattr(ns, dest):
            setattr(ns, dest, value)
    return ns


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    command = _COMMANDS.get(argv[0]) if argv else None
    args = _read_direct(command, argv[1:]) if command is not None else None
    if args is None:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OmqlabError as e:
        print(f"{e.prefix}: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
