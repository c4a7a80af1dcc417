"""Semantic tree-likeness machinery: the UCQ_k-approximation, OMQ
containment (exact over the full schema; under a schema "yes" where
proved, "no" with a separating database, or "unknown"), maximum
contractions, rewritings, and the tree-likeness decision.

Everything here runs at desk scale and in a fixed order, so verdicts and
witnesses are deterministic.  Contractions are found by walking the
partition lattice of a query's variables from the identity, one merge of
two blocks at a time: to the finest ones of width at most k, and to the
maximum ones that preserve equivalence.  Isomorphic queries and
databases are recognised by ``homtools.canonical_form``.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Optional

from .model import (
    Atomic,
    CQ,
    CapExceeded,
    Concept,
    ConceptFact,
    Database,
    Dialect,
    Exists,
    ELHI_FAMILY,
    FreshVars,
    Functionality,
    OMQ,
    OmqlabError,
    Ontology,
    QueryError,
    Role,
    RoleDisjointness,
    RoleFact,
    Schema,
    TOP,
    Top,
    UCQ,
    UndirectedGraph,
    concept_as_cq,
    cq_as_database,
    conj,
    record,
)
from .chase import canonical_model_of
from .entailment import (
    clash_free_saturation,
    consistent_saturation,
    is_consistent,
    normalize,
    role_closure,
    saturate,
    subsumes,
)
from .evaluation import evaluate_naive
from .graphalg import cq_treewidth, treewidth
from .homtools import (
    canonical_form,
    contraction,
    contractions,
    distinct_up_to_isomorphism,
    find_homomorphism,
    functional_quotient,
)


CONTRACTION_WALK_CAP = 200000


@record
class Verdict:
    outcome: str                       # "yes" | "no" | "unknown"
    witness: Optional[OMQ] = None      # width-k "yes": an equivalent UCQ_k OMQ
    counterexample: Optional[Database] = None   # "no": a separating database
    note: str = ""

    def is_yes(self) -> bool:
        return self.outcome == "yes"


# ---------------------------------------------------------------------------
# The UCQ_k-approximation


def ucq_k_approximation(Q: OMQ, k: int) -> OMQ:
    """Same ontology and schema; the query becomes the finest contractions
    of each disjunct whose tree width is at most ``k`` (deduplicated).
    Every other contraction of width at most ``k`` coarsens one of them,
    so it is their homomorphic image and the union is equivalent to the
    union of all such contractions (Barcelo, Libkin and Romero, SICOMP
    2014).  Widths below 1 are refused: every CQ has width at least 1.

    A disjunct of width at most ``k`` is taken as it is: it is its own
    only finest contraction, since the walk in ``_finest_contractions``
    keeps the identity partition at its first step and skips every other
    partition, which coarsens it.  Only wider disjuncts are walked."""
    return _approximation(Q, k)[0]


def _approximation(Q: OMQ, k: int) -> tuple[OMQ, list[CQ]]:
    """``ucq_k_approximation(Q, k)``, and the disjuncts of ``Q`` wider than
    ``k``, each width measured once.

    Each wide disjunct has a finest contraction, so the union is never
    empty.  The partition that merges every quantified variable into one
    block, leaving each answer variable apart, has width 1 <= k: its
    quantified-variable restriction has a single vertex.  The walk in
    ``_finest_contractions`` expands every partition it does not keep, so
    unless it keeps another one first, it reaches that partition by merges
    and keeps it."""
    if k < 1:
        raise OmqlabError(f"the width-k approximation needs k >= 1, got {k}")
    wide = [cq for cq in Q.query.disjuncts if cq_treewidth(cq) > k]
    out = distinct_up_to_isomorphism(
        [qc for cq in Q.query.disjuncts
         for qc in ([qc for qc, _ in _finest_contractions(cq, k)] if cq in wide else [cq])])
    return OMQ(Q.ontology, Q.schema, UCQ(out)), wide


def _finest_contractions(q: CQ, k: int) -> list[tuple]:
    """The contractions of ``q`` of tree width at most ``k`` that refine
    no other such contraction, each as ``(contracted CQ, restricted growth
    string)``, in restricted-growth-string order.

    The partition lattice is walked down from the identity, one level of
    merged blocks at a time, visiting each partition once.  A partition
    that coarsens a kept one is skipped; otherwise it is kept if its
    contraction fits ``k`` and expanded if not.  Every finer partition
    lies on an earlier level, so each finest fitting partition is reached
    and kept, and every coarsening of it is skipped.  Widths are measured
    on the quotient graph (``_quotient_width``); only the kept partitions
    are contracted.  Past ``CONTRACTION_WALK_CAP`` visited partitions the
    walk raises ``CapExceeded``."""
    var = sorted(q.variables())
    index = {x: i for i, x in enumerate(var)}
    answer_at = [x in q.answer_vars for x in var]
    pairs = {(index[at.a], index[at.b]) for at in q.atoms
             if isinstance(at, RoleFact) and at.a != at.b}
    kept: list[tuple] = []
    level = {tuple(range(len(var)))}
    visited = 0
    while level:
        visited = _walked(visited, level)
        below: set = set()
        for rgs in level:
            if any(_coarsens(rgs, done) for done in kept):
                continue
            if _quotient_width(var, answer_at, pairs, rgs) <= k:
                kept.append(rgs)
                continue
            below.update(_merges(rgs, answer_at))
        level = below
    return [(contraction(q, var, rgs)[0], rgs) for rgs in sorted(kept)]


def _quotient_width(var: list, answer_at: list, pairs: set, rgs: tuple) -> int:
    """``cq_treewidth(contraction(q, var, rgs)[0])`` without building the
    contraction.  ``var`` is ``q``'s sorted variables, ``answer_at`` marks
    its answer variables, and ``pairs`` holds the index pairs (i, j) of its
    role atoms with two different terms.

    The contraction renames each variable to its block's representative:
    the block's answer variable, if it has one, otherwise its least
    variable, which is the first in ``var``.  So its quantified variables
    are the representatives of the blocks without an answer variable, and
    its atoms over two distinct quantified variables are exactly the
    renamed pairs whose ends lie in two different such blocks: a concept
    atom or a self-loop keeps a single term, and a pair inside one block
    becomes a self-loop.  The graph built here has these edges over the
    same vertex names, so ``treewidth`` sees the key ``cq_treewidth``
    would give it."""
    rep: dict[int, str] = {}
    held: set = set()
    for i, b in enumerate(rgs):
        rep.setdefault(b, var[i])
        if answer_at[i]:
            held.add(b)
    g = UndirectedGraph()
    for i, j in pairs:
        bi, bj = rgs[i], rgs[j]
        if bi != bj and bi not in held and bj not in held:
            g.add_edge(rep[bi], rep[bj])
    return max(1, treewidth(g)[0])


def _walked(visited: int, level: set) -> int:
    """``visited`` plus the partitions of the next ``level`` of a
    contraction walk; past ``CONTRACTION_WALK_CAP`` the walk stops."""
    visited += len(level)
    if visited > CONTRACTION_WALK_CAP:
        raise CapExceeded(f"contraction walk limited to {CONTRACTION_WALK_CAP} partitions")
    return visited


def _merges(rgs: tuple, answer_at: list):
    """The restricted growth strings that merge two blocks of ``rgs``,
    never two blocks that both hold an answer variable."""
    held = {b for b, a in zip(rgs, answer_at) if a}
    for j in range(1, max(rgs, default=0) + 1):
        for i in range(j):
            if i in held and j in held:
                continue
            yield tuple(i if b == j else b - (b > j) for b in rgs)


def _coarsens(coarse: tuple, fine: tuple) -> bool:
    """Every block of the partition that the restricted growth string
    ``fine`` encodes lies inside one block of ``coarse``'s: the distinct
    pairs ``(fine[i], coarse[i])`` are as many as ``fine``'s blocks."""
    return len(set(zip(fine, coarse))) == max(fine, default=-1) + 1


# ---------------------------------------------------------------------------
# Containment


def contained(Q1: OMQ, Q2: OMQ, budget: Optional[int] = None) -> Verdict:
    """Q1 <= Q2 over Q1's schema S: "yes", "no" with a separating database
    (where Q1 has a certain answer Q2 lacks) of at most ``budget``
    constants (None: any number), or "unknown".  Different arities: "no".

    Full schema: exactly ``_uncontained_disjunct``, exact when O2 is O1 or
    entails it (other pairs are refused); its database separates.

    Otherwise let D_S be one constant a with each name of S as a concept
    and as a loop at a.  Every S-database D maps onto D_S, and the map
    extends to one of C, D's chase under O1 without bot and functionality,
    into C_S, D_S's (what ``saturate`` and ``canonical_model_of`` build: a
    bot inclusion adds no rule, only a clash name).  So each type of C lies
    in a type reachable from a.  A disjunct is live if it matches C_S with
    its answer variables at a; only a live one answers on a D consistent
    with O1, whose universal model C then is.  D clashes with O1 only by a
    bot inclusion or role disjointness, either carried into C_S, or by two
    successors along a functional role among D's own facts
    (``satisfies_functionality``), so a role of S.  Let O1' be O1 without
    its concept inclusions whose left side holds in no type reachable from
    a.  D's chase under O1' maps into C, so into C_S, and no such left side
    holds in it: it is C, and D clashes with O1 exactly when with O1'.
    "yes" comes from two rules.

    1. O2 is O1 or entails O1', and ``_uncontained_disjunct`` clears each
       live disjunct.  Let t be a certain answer of Q1 on an S-database D.
       If D is inconsistent with O1 it is with O1' and so with O2, whose
       models are models of O1', and t answers Q2.  Otherwise a live q1
       matches C at t, which maps into every model M of O2 containing D, M
       being a model of O1'; so q1's database maps there, merged along the
       functional roles M satisfies, and with it its chase under O2,
       holding a match of Q2 at t.  If a clash skipped q1, no such M
       exists, and t answers Q2 as well.
    2. No disjunct is live, D_S is consistent with O1, and no functional
       role of O1 is in S: every S-database is consistent with O1, and Q1
       answers nothing on it.

    "no" comes from one stream, ``_candidate_databases``, and one check:
    Q1's certain answers minus Q2's (``evaluate_naive``; an inconsistent
    database gives every tuple).  Anything else is "unknown"."""
    o1, o2 = Q1.ontology, Q2.ontology
    if Q1.schema.full and not (
            o2 == o1 or _entails(o2, o1.concept_inclusions(), o1)):
        raise OmqlabError("containment under two ontologies needs the right-hand "
                          "ontology to entail the left-hand one")
    if Q1.arity != Q2.arity:
        return Verdict("no")
    if Q1.schema.full:
        cex = _uncontained_disjunct(Q1.query.disjuncts, Q2)
        return Verdict("yes") if cex is None else Verdict("no", counterexample=cex)
    onorm = normalize(o1)
    sat = saturate(Database(f for n in Q1.schema.names
                            for f in (ConceptFact(n, "a"), RoleFact(n, "a", "a"))), onorm)
    cm = canonical_model_of(sat, Q1.query)
    live = [q for q in Q1.query.disjuncts
            if find_homomorphism(q, cm.facts, dict.fromkeys(q.answer_vars, "a")) is not None]
    if not (live or sat.clashes(o1) or o1.functional_roles() & Q1.schema.names):
        return Verdict("yes")
    reach = {t for seed in sat.types.values() for t in onorm.reachable_types(seed)}
    fires = [ci for ci in o1.concept_inclusions()
             if any(onorm.defname.get(ci.lhs) in t for t in reach)]
    if ((o2 == o1 or _entails(o2, fires, o1))
            and _uncontained_disjunct(live, Q2) is None):
        return Verdict("yes")
    roles = {at.name for q in (*Q1.query, *Q2.query) for at in q.atoms
             if isinstance(at, RoleFact)}
    for o in (o1, o2):
        roles |= {r.name for r in role_closure(normalize(o).source)} | o.functional_roles() | {
            r for dis in o.role_disjointness() for r in dis.roles}
    for d in _candidate_databases(Q1, onorm, roles):
        if (budget is None or len(d.dom) <= budget) and (
                evaluate_naive(Q1, d).answers - evaluate_naive(Q2, d).answers):
            return Verdict("no", counterexample=d)
    bound = "" if budget is None else f" within {budget} constants"
    return Verdict("unknown", note=f"no separating database{bound}")


def _entails(o: Ontology, inclusions: Iterable, other: Ontology) -> bool:
    """Does ``o`` entail the concept inclusions ``inclusions`` and every
    other axiom of ``other``?  Concept inclusions are decided by
    ``subsumes``, role inclusions by ``o``'s role closure; functionality
    and disjointness axioms must occur in ``o``."""
    sup = role_closure(o)
    return (all(subsumes(o, ci.lhs, ci.rhs) for ci in inclusions)
            and all(ri.rhs in sup.get(ri.lhs, frozenset({ri.lhs}))
                    for ri in other.role_inclusions())
            and all(ax in o.axioms for ax in other.axioms
                    if isinstance(ax, (Functionality, RoleDisjointness))))


def _uncontained_disjunct(disjuncts: Iterable[CQ], Q2: OMQ) -> Optional[Database]:
    """The first database of the ``disjuncts`` (of Q1) into whose chase
    under Q2's ontology no disjunct of Q2 maps (fixing the answer tuple);
    None if there is none.  Each disjunct is first merged along Q2's
    functional roles, as any database consistent with Q2's ontology that it
    matches in merges them too; answer variables may merge.  A bot or role
    disjointness clash of the merged database carries over to every
    database the disjunct matches in, where every tuple is then a certain
    answer of Q2, so the disjunct is contained."""
    funcs = Q2.ontology.functional_roles()
    for q1 in disjuncts:
        merge = functional_quotient(q1, funcs)
        d1 = Database(at.rename(merge) for at in q1.atoms) if merge else cq_as_database(q1)
        sat = clash_free_saturation(d1, Q2.ontology)
        if sat is None:
            continue
        cm = canonical_model_of(sat, Q2.query)
        answers = [merge.get(x, x) for x in q1.answer_vars]
        if not any(find_homomorphism(q2, cm.facts, dict(zip(q2.answer_vars, answers)))
                   is not None for q2 in Q2.query.disjuncts):
            return d1
    return None


def _candidate_databases(Q: OMQ, onorm, roles: set):
    """Candidate S-databases separating Q from another OMQ, S its schema,
    ``onorm`` the normal form of its ontology O: first each disjunct's
    contractions without their facts outside S, one per isomorphism class;
    then ``_clash_witnesses``; then each contraction candidate without the
    facts its other facts entail under O (``_without_entailed``), when
    that is a new class.  The concepts dropped at a variable may be
    re-sourced there by a concept over S entailing them: a schema concept
    name (not in ``roles``, the role names of both OMQs), an ontology
    left-hand side (fresh successors), or ``top`` as one fact over the
    least schema name (``_fact_on``).  A dropped role atom may be
    re-sourced by a schema sub-role of its role (or of the inverse, ends
    swapped); at an end whose other end occurs nowhere else, also by such
    a concept entailing ``exists r . top``, r the atom's role from there.
    A disjunct over more than 10 variables exceeds the cap."""
    o, schema, view = Q.ontology, Q.schema, onorm.source
    sources = [Atomic(b) for b in sorted(o.concept_names() | Q.query.names())
               if schema.admits(b) and b not in roles]
    sources += sorted({ci.lhs for ci in view.concept_inclusions()
                       if not isinstance(ci.lhs, (Atomic, Top)) and not ci.lhs.contains_bot()
                       and concept_as_cq(ci.lhs).names() <= schema.names})
    sources += [TOP] if schema.names else []
    sup = role_closure(view)
    sub_roles = sorted(s for s in sup if not s.inverted and schema.admits(s.name))
    entails = functools.cache(functools.partial(subsumes, o))
    seen: set = set()
    found: list = []
    for cq in Q.query.disjuncts:
        if len(cq.variables()) > 10:
            raise CapExceeded("the separation search is capped at 10 variables")
        for qc, _ in contractions(cq):
            base = cq_as_database(qc)
            keep = [f for f in base.facts if schema.admits(f.name)]
            out = [f for f in base.facts if not schema.admits(f.name)]
            fresh = FreshVars("_w", qc.variables())

            def rooted_at(c: Concept, x: str) -> tuple:
                if isinstance(c, Top):
                    return (_fact_on(min(schema.names), x, roles, fresh),)
                tree = concept_as_cq(c, fresh=fresh)
                return tuple(at.rename({tree.answer_vars[0]: x}) for at in tree.atoms)

            options: list[list] = []
            for x in sorted({f.a for f in out if isinstance(f, ConceptFact)}):
                needed = conj(*(Atomic(f.name) for f in out
                                if isinstance(f, ConceptFact) and f.a == x))
                options.append([()] + [rooted_at(c, x) for c in sources if entails(c, needed)])
            for f in sorted(f for f in out if isinstance(f, RoleFact)):
                r = Role(f.name)
                opts = [()] + [(RoleFact(s.name, f.a, f.b),) for s in sub_roles
                               if r in sup[s]]
                opts += [(RoleFact(s.name, f.b, f.a),) for s in sub_roles
                         if r.inverse() in sup[s]]
                for x, leaf, role in ((f.a, f.b, r), (f.b, f.a, r.inverse())):
                    if leaf != x and sum(leaf in g.terms() for g in base.facts) == 1:
                        opts += [rooted_at(c, x) for c in sources
                                 if entails(c, Exists(role, TOP))]
                options.append(opts)
            for combo in itertools.product(*options):
                d = Database(keep + [f for facts in combo for f in facts])
                if d.dom and (key := canonical_form(d.facts)) not in seen:
                    seen.add(key)
                    found.append(d)
                    yield d
    yield from _clash_witnesses(o, view, schema, roles, Q.arity)
    for d in found:
        d = _without_entailed(d, onorm)
        if (key := canonical_form(d.facts)) not in seen:
            seen.add(key)
            yield d


def _without_entailed(d: Database, onorm) -> Database:
    """``d`` without the facts the rest entails: in sorted order, a fact
    is dropped when the saturation under ``onorm`` of the facts still held
    without it holds it."""
    facts = set(d.facts)
    for f in d:
        facts.discard(f)
        if f not in saturate(Database(facts), onorm).database:
            facts.add(f)
    return Database(facts)


def _fact_on(name: str, x: str, roles: set, fresh: FreshVars):
    """A fact over ``name`` at ``x``, to a fresh constant if in ``roles``."""
    return RoleFact(name, x, fresh.next()) if name in roles else ConceptFact(name, x)


def _clash_witnesses(o: Ontology, view: Ontology, schema: Schema, roles: set,
                     arity: int):
    """Small databases over ``schema`` inconsistent with ``o`` (whose
    ``elhi_view`` is ``view``), where every tuple is a certain answer: the
    tree of each bot inclusion's left side, one fact per schema name
    (``_fact_on``), a role fact per role of each role disjointness and two
    per functional role.  With ``arity`` above 0, then each of them again
    with one fresh constant carrying one fact over a schema name (one
    database per name): a tuple over that constant may be one the other
    OMQ does not answer."""
    fresh = FreshVars("_w")
    found = [cq_as_database(concept_as_cq(ax.lhs, fresh=fresh))
             for ax in view.concept_inclusions()
             if ax.rhs.contains_bot() and not ax.lhs.contains_bot()]
    found += [Database([_fact_on(n, fresh.next(), roles, fresh)])
              for n in sorted(schema.names)]
    found += [Database([RoleFact(r, "w0", "w1") for r in dis.roles])
              for dis in o.role_disjointness()]
    found += [Database([RoleFact(r, "w0", "w1"), RoleFact(r, "w0", "w2")])
              for r in sorted(o.functional_roles())]
    witnesses = []
    for d in found:
        if d.dom and d.uses_only(schema) and not is_consistent(d, o):
            witnesses.append(d)
            yield d
    for d in witnesses if arity else ():
        for n in sorted(schema.names):
            yield Database([*d.facts, _fact_on(n, fresh.next(), roles, fresh)])


# ---------------------------------------------------------------------------
# Maximum contractions and rewritings


def maximum_contractions(Q: OMQ) -> list[OMQ]:
    """All equivalence-preserving contractions admitting no further
    equivalence-preserving proper contraction, up to isomorphism, ordered
    by their number of blocks and then their partitions.

    A contraction preserves equivalence when it maps into the canonical
    model of q with the answer variables fixed.  Such partitions are closed
    under refinement: if q maps onto q', q' onto q_c, and q_c into the
    chase of q, then so does q'.  So each of them is reached from the
    identity by single merges (``_merges``) through preserving partitions,
    and the walk expands only those, level by level.  A preserving
    partition with a preserving proper coarsening has a preserving merge
    (of two blocks the coarsening joins), so it is maximal exactly when
    none of its merges preserves equivalence.  Past
    ``CONTRACTION_WALK_CAP`` tested partitions the walk raises
    ``CapExceeded``."""
    if not Q.schema.full:
        raise OmqlabError("maximum contractions require the full schema")
    if len(Q.query.disjuncts) != 1:
        raise QueryError("maximum contractions take a single-CQ query")
    q = Q.query.disjuncts[0]
    sat = consistent_saturation(cq_as_database(q), Q.ontology)
    if sat is None:
        raise QueryError("maximum contractions need a non-empty input")
    cm = canonical_model_of(sat, Q.query)
    var = sorted(q.variables())
    answer_at = [x in q.answer_vars for x in var]
    fixed = {x: x for x in q.answer_vars}
    maximal = []
    level = {tuple(range(len(var)))}
    visited = 0
    while level:
        merges = {m for rgs in level for m in _merges(rgs, answer_at)}
        visited = _walked(visited, merges)
        above = {m for m in merges if find_homomorphism(
            contraction(q, var, m)[0], cm.facts, fixed) is not None}
        maximal += [rgs for rgs in level if above.isdisjoint(_merges(rgs, answer_at))]
        level = above
    out = sorted((contraction(q, var, rgs) for rgs in maximal),
                 key=lambda qp: (len(qp[1]), qp[1]))
    return [Q.with_query(UCQ((qc,)))
            for qc in distinct_up_to_isomorphism([qc for qc, _ in out])]


def entailed_concept_trees(Q: OMQ, variables: Optional[Iterable[str]] = None):
    """(variable, rooted tree) for every axiom left side, neither top nor
    containing bot, that the chase of the query database satisfies at a
    variable (of ``variables``, by default of the query): sorted axioms,
    then sorted variables, each pair once.  The tree is a fresh copy of the
    left side whose answer variable is its root; its variables are named
    ``_e<k>``, skipping the query's variables."""
    q = Q.query.disjuncts[0]
    sat = saturate(cq_as_database(q), normalize(Q.ontology))
    xs = sorted(q.variables() if variables is None else variables)
    fresh = FreshVars("_e", q.variables())
    seen: set = set()
    for ci in sat.onorm.source.concept_inclusions():
        c = ci.lhs
        if c in seen or c.contains_bot() or isinstance(c, Top):
            continue
        seen.add(c)
        for x in xs:
            if sat.onorm.defname[c] in sat.types.get(x, ()):
                yield x, concept_as_cq(c, fresh=fresh)


def _attach_trees(q: CQ, atoms: Iterable, trees) -> CQ:
    """``q``'s answer tuple over ``atoms`` plus each tree, its root
    identified with its variable."""
    out = set(atoms)
    for x, tree in trees:
        out.update(at.rename({tree.answer_vars[0]: x}) for at in tree.atoms)
    return CQ(q.answer_vars, out)


def rewriting(Q: OMQ) -> OMQ:
    """A rewriting: pick a maximum contraction, follow a homomorphism into
    the chase of the query database, restrict the query to its range, and
    re-attach the entailed concept trees.  When that leaves no atom (the
    homomorphism may land in the anonymous part that a ``top`` left side
    builds, and ``entailed_concept_trees`` attaches no tree for those), the
    rewriting is the maximum contraction itself, equivalent to the query
    by construction."""
    if not Q.schema.full:
        raise OmqlabError("rewritings require the full schema")
    if len(Q.query.disjuncts) != 1:
        raise QueryError("rewritings take a single-CQ query")
    q = Q.query.disjuncts[0]
    maxes = maximum_contractions(Q)
    qc = maxes[0].query.disjuncts[0]
    # maximum_contractions has refused a query inconsistent with the ontology
    cm = canonical_model_of(consistent_saturation(cq_as_database(q), Q.ontology),
                            maxes[0].query)
    h = find_homomorphism(qc, cm.facts, {x: x for x in qc.answer_vars})
    if h is None:
        raise AssertionError("maximum contraction lost its witnessing homomorphism")
    rng = set(h.values())
    kept = rng & q.variables()
    below = set()
    for c in rng - q.variables():
        p = cm.provenance.get(c)
        while p is not None and p.parent is not None:
            if p.parent in q.variables():
                below.add(p.parent)
                break
            p = cm.provenance.get(p.parent)
    out = _attach_trees(q, q.restrict(kept).atoms,
                        entailed_concept_trees(Q, kept | below))
    return Q.with_query(UCQ((out if out.atoms else qc,)))


# ---------------------------------------------------------------------------
# Deciding tree-likeness

TW_EQUIV_DIALECTS = ELHI_FAMILY | {Dialect.DLLITE_R, Dialect.DLLITE_R_HORN}


def decide_tw_equiv_general(Q: OMQ, k: int, budget: int = 5) -> Verdict:
    """Is Q equivalent to an OMQ of tree width at most ``k``?  Exactly when
    it is contained in its UCQ_k-approximation (contained in Q): the
    verdict of ``contained`` within ``budget``, the approximation the
    witness of "yes".

    Only the disjuncts wider than ``k`` are checked.  A disjunct ``q`` with
    ``cq_treewidth(q) <= k`` is its own finest contraction: the walk in
    ``_finest_contractions`` keeps the identity partition at its first
    step, and every other partition coarsens it and is skipped.  So ``q``
    is a disjunct of the approximation, up to the isomorphism dedup, and
    the identity composed with the functional-quotient renaming maps it
    into its own chase: ``_uncontained_disjunct`` never returns it, and
    every answer of ``q`` on a database is an answer of the approximation.
    So on every database Q and its wide disjuncts answer the same tuples
    beyond the approximation's, and the first uncontained disjunct is the
    same with or without the narrow ones.  When no disjunct is wide the
    approximation is the query up to isomorphic duplicates, equivalent to
    it under any schema."""
    if budget < 0:
        raise OmqlabError(f"the counterexample search needs budget >= 0, got {budget}")
    if Q.ontology.dialect not in TW_EQUIV_DIALECTS:
        raise OmqlabError(
            f"width-k equivalence handles the ELHI family and DL-LiteR(-horn), "
            f"got {Q.ontology.dialect.value}; DL-LiteF width-1 equivalence is "
            f"decided by decide_ubcq1_equiv (omqlab dlf-equiv1)")
    Qa, wide = _approximation(Q, k)
    verdict = contained(Q.with_query(UCQ(wide)), Qa, budget) if wide else Verdict("yes")
    return Verdict("yes", witness=Qa) if verdict.is_yes() else verdict
