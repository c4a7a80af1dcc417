"""The certain-answers driver of all three pipelines, and the two that run
over the truncated canonical model: naive (homomorphism search) and
width-k (a bottom-up join over a tree decomposition of each disjunct, in
which every variable is bound by an atom or a child's table, never by
ranging over the domain).  How much of the canonical model a query needs
is decided by ``chase.canonical_model_of``, not here.  The pebble game
lives in ``pebble``.  A disjunct that names something outside the
saturation's names (``Saturation.names``) has no match and is evaluated
by no pipeline; the canonical model is sized by the others.

An inconsistent database has every tuple as a certain answer; results
carry an explicit ``consistent`` flag so the caller can surface this.
"""

from __future__ import annotations

import itertools

from .model import (
    CQ,
    Database,
    OMQ,
    OmqlabError,
    UCQ,
    record,
)
from .chase import canonical_model_of
from .entailment import Saturation, consistent_saturation
from .graphalg import cq_decomposition, cq_treewidth
from .homtools import find_homomorphism, iter_homomorphisms


@record
class EvalResult:
    consistent: bool
    answers: frozenset

    def boolean(self) -> bool:
        return bool(self.answers)


def _check_schema(Q: OMQ, d: Database) -> None:
    if not d.uses_only(Q.schema):
        extra = sorted(n for n in d.names() if not Q.schema.admits(n))
        raise OmqlabError(f"database uses names outside the schema: {extra}")


def certain_answers(Q: OMQ, d: Database, prepare) -> EvalResult:
    """The one certain-answers loop of the three pipelines.  Once ``d`` is
    known consistent with the ontology, the live disjuncts are those whose
    names all lie in ``Saturation.names()``; the others have no match in
    the universal model, so none is evaluated.  ``prepare(sat, live)``
    runs on the saturation of ``d`` and the UCQ of the live disjuncts, when
    there is one, and returns the per-disjunct preparation, which runs
    once per live disjunct and returns the test for one candidate tuple.

    Skipping a dead disjunct gives each pipeline's own answer on it, the
    pebble game's at every k included.  A window of the game that holds a
    dead atom has no labeling: with both terms at constants the atom needs
    its fact; ``EXIST`` needs a tree witness that holds somewhere; and an
    anchored label comes from a system whose dtree holds the atom, and so
    holds at no anchor.  So the table of the atom's variables is empty,
    and Duplicator loses."""
    _check_schema(Q, d)
    candidates = list(itertools.product(sorted(d.dom), repeat=Q.arity))
    sat = consistent_saturation(d, Q.ontology)
    if sat is None:
        return EvalResult(False, frozenset(candidates))
    names = sat.names()
    live = [cq for cq in Q.query.disjuncts if cq.names() <= names]
    if not live:
        return EvalResult(True, frozenset())
    per_disjunct = prepare(sat, UCQ(live))
    answers: set = set()
    for cq in live:
        holds = per_disjunct(cq)
        for a in candidates:
            if a not in answers and holds(a):
                answers.add(a)
    return EvalResult(True, frozenset(answers))


def _over_canonical_model(Q: OMQ, d: Database, per_disjunct) -> EvalResult:
    """The naive and fpt pipelines: the truncated canonical model is built
    once, from the saturation of ``d`` and as far as the live disjuncts
    need (``chase.canonical_model_of``), and ``per_disjunct(cq, target)``
    prepares each live disjunct against it."""
    def prepare(sat: Saturation, live: UCQ):
        target = canonical_model_of(sat, live).facts
        return lambda cq: per_disjunct(cq, target)
    return certain_answers(Q, d, prepare)


def evaluate_naive(Q: OMQ, d: Database) -> EvalResult:
    """Certain answers via the truncated canonical model and plain
    homomorphism search."""
    def per_disjunct(cq: CQ, target: Database):
        return lambda a: find_homomorphism(
            cq, target, dict(zip(cq.answer_vars, a))) is not None
    return _over_canonical_model(Q, d, per_disjunct)


def evaluate_fpt(Q: OMQ, d: Database, k: int) -> EvalResult:
    """Same canonical model, then one width-``k`` join per disjunct, which
    gives every answer; a candidate tuple is tested by membership."""
    if k < 1:
        raise OmqlabError(f"width-k evaluation needs k >= 1, got {k}")
    plans = {cq: _WidthPlan(cq, k) for cq in Q.query.disjuncts}

    def per_disjunct(cq: CQ, target: Database):
        plan = plans[cq]
        answers = plan.answers(target)
        return lambda a: tuple(a[i] for i in plan.answer_pos) in answers
    return _over_canonical_model(Q, d, per_disjunct)


class _WidthPlan:
    """The width-``k`` join of one disjunct over a tree decomposition of its
    quantified part (Flum, Frick and Grohe, JACM 2002; the join is
    Yannakakis', VLDB 1981).  Each atom is charged to the first bag that
    holds its quantified terms, so an atom over answer variables only goes
    to bag 0.  Bag i keeps the variables of its charged atoms plus those
    its children send up, and sends up its kept answer variables and the
    kept variables its parent's bag holds.  ``answers`` runs the join once:
    bags come children first, so one pass in index order is bottom-up, and
    the root's table holds every answer of the disjunct.

    The join is exact.  A variable's kept bags are the paths from the bags
    charged with its atoms up to the top of its own bags (the root, for an
    answer variable), so they are connected, and it is dropped only at
    that top, below which every atom over it is charged.  A kept variable
    that no atom of the bag covers is sent up by a child, so every
    variable is bound by an atom or a child's table and none ranges over
    the domain; an answer variable that no atom binds matches any constant."""

    def __init__(self, q: CQ, k: int):
        w = cq_treewidth(q)
        if w > k:
            raise OmqlabError(f"disjunct has tree width {w} > {k}")
        answer = set(q.answer_vars)
        td = cq_decomposition(q)

        charged: list[list] = [[] for _ in td.bags]
        for at in q.sorted_atoms():
            qvars = set(at.terms()) - answer
            charged[next(i for i, b in enumerate(td.bags) if qvars <= b)].append(at)
        # per bag: its atoms, the columns they bind, one (child, row key,
        # child key, child rest) per child and the columns sent up
        self.steps = []
        sent: list[tuple] = []
        for i, atoms in enumerate(charged):
            sub = CQ((), atoms)
            bound = sorted(sub.variables())
            cols = list(bound)
            joins = []
            for c in (j for j, p in enumerate(td.parent) if p == i):
                shared = [v for v in sent[c] if v in cols]
                rest = [v for v in sent[c] if v not in cols]
                joins.append((c, [cols.index(v) for v in shared],
                              [sent[c].index(v) for v in shared],
                              [sent[c].index(v) for v in rest]))
                cols += rest
            p = td.parent[i]
            sent.append(tuple(v for v in cols if v in answer
                              or p is not None and v in td.bags[p]))
            self.steps.append((sub, bound, joins, [cols.index(v) for v in sent[i]]))
        # the positions in a candidate tuple of the root's columns
        self.answer_pos = [q.answer_vars.index(v) for v in sent[-1]]

    def answers(self, d: Database) -> set:
        """The join into ``d``: per bag, the homomorphisms of its atoms,
        joined with each child's table on the variables they share and
        projected onto what the bag sends up.  An empty table ends it."""
        tables: list[set] = []
        for sub, bound, joins, send in self.steps:
            rows = [tuple(h[v] for v in bound) for h in iter_homomorphisms(sub, d)]
            for c, here, there, rest in joins:
                index: dict = {}
                for t in tables[c]:
                    index.setdefault(tuple(t[j] for j in there), []).append(
                        tuple(t[j] for j in rest))
                rows = [r + ext for r in rows
                        for ext in index.get(tuple(r[j] for j in here), ())]
            table = {tuple(r[j] for j in send) for r in rows}
            if not table:
                return table
            tables.append(table)
        return tables[-1]
