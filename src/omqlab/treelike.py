"""Semantic tree-likeness machinery: UCQ_k-approximation, full-schema
containment and emptiness, maximum contractions, rewritings, the
tree-likeness decision, and witness-bounded containment for
the DL-Lite(R,horn) family.

Everything here runs at desk scale and in a fixed order, so verdicts and
witnesses are deterministic.  Contractions are found by walking the
partition lattice of a query's variables from the identity, one merge of
two blocks at a time: to the finest ones of width at most k, and to the
maximum ones that preserve equivalence.  Isomorphic queries and
databases are recognised by one exact canonical form, built by
individualization and refinement.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from .model import (
    Atomic,
    CQ,
    ConceptFact,
    Database,
    Dialect,
    DLLITE_FAMILY,
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
    elhi_view,
    is_consistent,
    normalize,
    role_closure,
    saturate,
    subsumes,
)
from .evaluation import chase_steps, evaluate_naive
from .graphalg import cq_treewidth, treewidth
from .homtools import (
    contraction,
    contractions,
    find_homomorphism,
    functional_quotient,
)


@record
class TwEquivVerdict:
    outcome: str                       # "yes" | "no" | "unknown"
    witness: Optional[OMQ] = None      # for "yes": an equivalent UCQ_k OMQ
    counterexample: Optional[Database] = None
    note: str = ""

    def is_yes(self) -> bool:
        return self.outcome == "yes"


# ---------------------------------------------------------------------------
# Canonical forms (isomorphism dedup)


def canonical_form(atoms: Iterable, pinned: tuple = ()) -> tuple:
    """The canonical form of a set of atoms (or facts) under renamings of
    its terms that fix each term of ``pinned``, by individualization and
    refinement (McKay and Piperno, JSC 2014).  Starting from the stable
    colouring of ``_refined_colours``: while a colour class holds two or
    more terms, take the class with the least colour, and for each member
    in turn give it a colour below the rest of the class and refine again.
    At a discrete colouring the leaf is the pinned names, their colours
    and the sorted atoms as ``(name, colour, ...)``; the form is the least
    leaf.

    Two sets get equal forms exactly when a bijection of their terms that
    fixes the pinned ones maps one onto the other.  Every step reads only
    colours, the sorted positions of signatures that name no term but a
    pinned one, so such an isomorphism maps one search tree onto the
    other, leaf onto equal leaf.  Conversely, a leaf is its set's image
    under a bijection of the terms onto integers, the same on the pinned
    terms in equal leaves, and one bijection followed by the inverse of
    the other is an isomorphism.  Terms that are not pinned appear only as
    integers, so no name can collide with them."""
    atoms = frozenset(atoms)
    _, colour, edges = _refined_colours(atoms, pinned)
    return _least_leaf(colour, edges, atoms, pinned)


def _least_leaf(colour: dict, edges: dict, atoms: frozenset, pinned: tuple) -> tuple:
    """The least leaf below the stable colouring ``colour``.  A member v
    of the cell is skipped when swapping v with a member u already tried
    maps ``atoms`` onto itself: u and v share a colour and no pinned term
    is either, so the swap is an isomorphism that keeps ``colour`` and
    maps u's subtree onto v's, leaf onto equal leaf."""
    members: dict[int, list] = {}
    for x, c in colour.items():
        members.setdefault(c, []).append(x)
    cell = min((c for c, xs in members.items() if len(xs) > 1), default=None)
    if cell is None:
        return (tuple(pinned), tuple(colour[x] for x in pinned),
                tuple(sorted((at.name, *(colour[t] for t in at.terms())) for at in atoms)))
    tried: list = []
    for v in members[cell]:
        swaps = ({u: v, v: u} for u in tried)
        if not any(all(at.rename(m) in atoms for at in atoms) for m in swaps):
            tried.append(v)
    return min(_least_leaf(_refine({x: (c, x != v) for x, c in colour.items()}, edges)[0],
                           edges, atoms, pinned)
               for v in tried)


def _refined_colours(atoms: Iterable, pinned: tuple) -> tuple[tuple, dict, dict]:
    """Colour refinement over the terms of ``atoms`` and ``pinned``.  A
    term starts from its name if pinned, otherwise from ``""``, with its
    concepts and self-loop roles.  Returns an isomorphism invariant (the
    pinned terms and the signatures of every round), the stable colouring,
    and each term's edges as (role, direction, other term)."""
    terms = {t for at in atoms for t in at.terms()}.union(pinned)
    labels: dict[str, list] = {x: [] for x in terms}
    edges: dict[str, list] = {x: [] for x in terms}
    for at in atoms:
        ts = at.terms()
        if len(ts) == 1 or ts[0] == ts[1]:
            labels[ts[0]].append((len(ts), at.name))
        else:
            edges[ts[0]].append((at.name, 0, ts[1]))
            edges[ts[1]].append((at.name, 1, ts[0]))
    pins = set(pinned)
    colour, rounds = _refine(
        {x: (x if x in pins else "", tuple(sorted(ls))) for x, ls in labels.items()}, edges)
    return (tuple(pinned), rounds), colour, edges


def _refine(sig: dict, edges: dict) -> tuple[dict, tuple]:
    """Colour refinement (1-WL) from the signatures ``sig`` to the stable
    colouring, and the sorted signatures of every round.  Each round
    renumbers the signatures by their sorted position, so colours depend
    on no renaming, and gives each term its colour with the multiset of
    (role, direction, colour) over its edges."""
    rounds = []
    classes = 0
    while True:
        palette = sorted(set(sig.values()))
        rounds.append(tuple(sorted(sig.values())))
        colour = {s: c for c, s in enumerate(palette)}
        now = {x: colour[s] for x, s in sig.items()}
        if len(palette) == classes:
            return now, tuple(rounds)
        classes = len(palette)
        sig = {x: (now[x], tuple(sorted((r, d, now[y]) for r, d, y in edges[x])))
               for x in now}


def distinct_up_to_isomorphism(cqs: list[CQ]) -> list[CQ]:
    """The first CQ of each isomorphism class of ``cqs`` (renamings of
    quantified variables), in their order.  The candidates are grouped by
    the signatures of colour refinement first; the canonical form is
    computed only inside a group of two or more."""
    if len(cqs) < 2:
        return list(cqs)
    groups: dict[tuple, list[int]] = {}
    for i, q in enumerate(cqs):
        groups.setdefault(_refined_colours(q.atoms, q.answer_vars)[0], []).append(i)
    keep = []
    for members in groups.values():
        if len(members) == 1:
            keep.extend(members)
            continue
        first: dict = {}
        for i in members:
            first.setdefault(canonical_form(cqs[i].atoms, cqs[i].answer_vars), i)
        keep.extend(first.values())
    return [cqs[i] for i in sorted(keep)]


# ---------------------------------------------------------------------------
# Approximation and containment


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
    are contracted."""
    var = sorted(q.variables())
    index = {x: i for i, x in enumerate(var)}
    answer_at = [x in q.answer_vars for x in var]
    pairs = {(index[at.a], index[at.b]) for at in q.atoms
             if isinstance(at, RoleFact) and at.a != at.b}
    kept: list[tuple] = []
    level = {tuple(range(len(var)))}
    while level:
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


def contains_full_schema(Q1: OMQ, Q2: OMQ) -> bool:
    """Q1 <= Q2 over the full schema: every disjunct database of Q1 must
    admit a homomorphism from some disjunct of Q2 into its chase under Q2's
    ontology, fixing the answer tuple (``_uncontained_disjunct``).  That
    test is exact when Q2's ontology entails Q1's; other pairs are refused."""
    if not (Q1.schema.full and Q2.schema.full):
        raise OmqlabError("containment check requires the full schema")
    if Q2.ontology != Q1.ontology and not _entails(Q2.ontology, Q1.ontology):
        raise OmqlabError("containment under two ontologies needs the right-hand "
                          "ontology to entail the left-hand one")
    if Q1.arity != Q2.arity:
        return False
    return _uncontained_disjunct(Q1, Q2) is None


def _entails(o: Ontology, other: Ontology) -> bool:
    """Does ``o`` entail every axiom of ``other``?  Concept and range
    inclusions are decided by ``subsumes``, role inclusions by ``o``'s role
    closure; functionality and disjointness axioms must occur in ``o``."""
    sup = role_closure(o)
    return (all(subsumes(o, ci.lhs, ci.rhs) for ci in other.concept_inclusions())
            and all(ri.rhs in sup.get(ri.lhs, frozenset({ri.lhs}))
                    for ri in other.role_inclusions())
            and all(ax in o.axioms for ax in other.axioms
                    if isinstance(ax, (Functionality, RoleDisjointness))))


def _uncontained_disjunct(Q1: OMQ, Q2: OMQ) -> Optional[Database]:
    """The first disjunct database of Q1 into whose chase under Q2's
    ontology no disjunct of Q2 maps (fixing the answer tuple); None if
    there is none.  Each disjunct is first merged along Q2's functional
    roles, as any database consistent with Q2's ontology that it matches
    in merges them too; answer variables may merge.  A bot or role
    disjointness clash of the merged database carries over to every
    database the disjunct matches in, where every tuple is then a certain
    answer of Q2, so the disjunct is contained."""
    steps = chase_steps(Q2.query)
    funcs = Q2.ontology.functional_roles()
    for q1 in Q1.query.disjuncts:
        merge = functional_quotient(q1, funcs)
        d1 = Database(at.rename(merge) for at in q1.atoms) if merge else cq_as_database(q1)
        sat = clash_free_saturation(d1, Q2.ontology)
        if sat is None:
            continue
        cm = canonical_model_of(sat, steps)
        answers = [merge.get(x, x) for x in q1.answer_vars]
        if not any(find_homomorphism(q2, cm.facts, dict(zip(q2.answer_vars, answers)))
                   is not None for q2 in Q2.query.disjuncts):
            return d1
    return None


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
    none of its merges preserves equivalence."""
    if not Q.schema.full:
        raise OmqlabError("maximum contractions require the full schema")
    if len(Q.query.disjuncts) != 1:
        raise QueryError("maximum contractions take a single-CQ query")
    q = Q.query.disjuncts[0]
    sat = consistent_saturation(cq_as_database(q), Q.ontology)
    if sat is None:
        raise QueryError("maximum contractions need a non-empty input")
    cm = canonical_model_of(sat, chase_steps(Q.query))
    var = sorted(q.variables())
    answer_at = [x in q.answer_vars for x in var]
    fixed = {x: x for x in q.answer_vars}
    maximal = []
    level = {tuple(range(len(var)))}
    while level:
        merges = {m for rgs in level for m in _merges(rgs, answer_at)}
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
    sat = saturate(cq_as_database(q), normalize(elhi_view(Q.ontology)))
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
    re-attach the entailed concept trees."""
    if not Q.schema.full:
        raise OmqlabError("rewritings require the full schema")
    if len(Q.query.disjuncts) != 1:
        raise QueryError("rewritings take a single-CQ query")
    q = Q.query.disjuncts[0]
    maxes = maximum_contractions(Q)
    qc = maxes[0].query.disjuncts[0]
    # maximum_contractions has refused a query inconsistent with the ontology;
    # per-constant copies keep the provenance walk attributable
    cm = canonical_model_of(consistent_saturation(cq_as_database(q), Q.ontology),
                            chase_steps(UCQ((qc,))), share_copies=False)
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
    return Q.with_query(UCQ((out,)))


# ---------------------------------------------------------------------------
# Deciding tree-likeness

TW_EQUIV_DIALECTS = ELHI_FAMILY | {Dialect.DLLITE_R, Dialect.DLLITE_R_HORN}


def decide_tw_equiv_general(Q: OMQ, k: int, budget: int = 5) -> TwEquivVerdict:
    """Full schema: exact, by containment in the UCQ_k-approximation.
    Otherwise a bounded counterexample search (an honest semi-decision:
    a returned "unknown" means no separating database was found).

    Only the disjuncts wider than ``k`` are checked.  A disjunct ``q`` with
    ``cq_treewidth(q) <= k`` is its own finest contraction: the walk in
    ``_finest_contractions`` keeps the identity partition at its first
    step, and every other partition coarsens it and is skipped.  So ``q``
    is a disjunct of the approximation, up to the isomorphism dedup, and
    the identity composed with the functional-quotient renaming maps it
    into its own chase: ``_uncontained_disjunct`` never returns it, and
    every answer of ``q`` on a database is an answer of the approximation.
    The first uncontained disjunct, and so the counterexample, is the same
    with or without the narrow ones, and when no disjunct is wide the
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
    if not wide:
        return TwEquivVerdict("yes", witness=Qa)
    Qw = Q.with_query(UCQ(wide))
    if Q.schema.full:
        cex = _uncontained_disjunct(Qw, Qa)
        if cex is None:
            return TwEquivVerdict("yes", witness=Qa)
        return TwEquivVerdict("no", counterexample=cex)
    for d in _candidate_databases(Q, budget):
        if len(d.dom) > budget or not d.uses_only(Q.schema):
            continue
        r1 = evaluate_naive(Qw, d)
        r2 = evaluate_naive(Qa, d)
        if r1.consistent and r1.answers - r2.answers:
            return TwEquivVerdict("no", counterexample=d)
    return TwEquivVerdict("unknown",
                          note=f"no separating database within {budget} constants")


def _candidate_databases(Q: OMQ, budget: int):
    """Guided candidates for a separating database: schema-reducts of
    disjunct-database contractions, with dropped concept atoms optionally
    replaced by schema concepts that entail them."""
    o = Q.ontology
    schema = Q.schema
    vocab = sorted(o.concept_names() | Q.query.names())
    s_concepts = [n for n in vocab if schema.admits(n)]
    seen: set = set()
    for cq in Q.query.disjuncts:
        for qc, _ in contractions(cq):
            base = cq_as_database(qc)
            keep = [f for f in base.facts if schema.admits(f.name)]
            dropped: dict[str, list] = {}
            for f in base.facts:
                if not schema.admits(f.name) and isinstance(f, ConceptFact):
                    dropped.setdefault(f.a, []).append(Atomic(f.name))
            options: list[list] = []
            slots = sorted(dropped)
            for x in slots:
                needed = conj(*dropped[x])
                options.append([None] + [b for b in s_concepts
                                         if subsumes(o, Atomic(b), needed)])
            for combo in itertools.product(*options) if slots else [()]:
                facts = list(keep)
                for x, b in zip(slots, combo):
                    if b is not None:
                        facts.append(ConceptFact(b, x))
                d = Database(facts)
                if not d.dom or len(d.dom) > budget:
                    continue
                key = canonical_form(d.facts)
                if key in seen:
                    continue
                seen.add(key)
                yield d


# ---------------------------------------------------------------------------
# Witness-bounded containment for DL-Lite(R,horn)


def _sourcing_variants(o: Ontology, d: Database, schema: Schema, answers: tuple):
    """Per-fact weakenings of a witness database: a concept fact may be
    sourced by any schema concept that entails it, a role fact by any
    schema (sub-)role implying it; facts outside the schema must be
    re-sourced or the candidate dies."""
    sup = role_closure(elhi_view(o))
    vocab_c = sorted(o.concept_names() | set(d.index.concepts))
    vocab_c = [n for n in vocab_c if schema.admits(n)]
    per_fact: list[list] = []
    for f in sorted(d.facts, key=str):
        opts: list = []
        if isinstance(f, ConceptFact):
            if schema.admits(f.name):
                opts.append(f)
            for b in vocab_c:
                if b != f.name and subsumes(o, Atomic(b), Atomic(f.name)):
                    opts.append(ConceptFact(b, f.a))
        else:
            target = Role(f.name)
            if schema.admits(f.name):
                opts.append(f)
            for s, supers in sorted(sup.items(), key=lambda kv: str(kv[0])):
                if s.inverted or s.name == f.name or not schema.admits(s.name):
                    continue
                if target in supers:
                    opts.append(RoleFact(s.name, f.a, f.b))
                if target.inverse() in supers:
                    opts.append(RoleFact(s.name, f.b, f.a))
        if not opts:
            return
        per_fact.append(opts)
    for combo in itertools.product(*per_fact):
        yield Database(combo), answers


def contains_dllite_horn(Q1: OMQ, Q2: OMQ) -> bool:
    """Containment for DL-Lite(R/horn) OMQs over a shared schema.  Witness
    candidates are the databases of Q1's rewriting family (contraction +
    generated-tree elimination) with per-fact weakenings; their sizes stay
    within the |q|*(|vocab|+1) witness bound.  Databases inconsistent with
    the left ontology are additionally probed through clash patterns."""
    if Q1.arity != Q2.arity:
        return False
    schema = Q1.schema
    from .dllitef import rewrite_family

    cap = max(len(cq.atoms) + len(cq.variables()) for cq in Q1.query.disjuncts)
    vocab = len(Q1.query.names() | Q2.query.names()) + 1
    cap = cap * (vocab + 1)

    seen: set = set()
    for p in Q1.query.disjuncts:
        answers = tuple(p.answer_vars)
        for w in rewrite_family(Q1.ontology, p, minor_gate=False):
            base = cq_as_database(w)
            if not base.dom or len(base.dom) > cap:
                continue
            for d, a in _sourcing_variants(Q1.ontology, base, schema, answers):
                if not d.uses_only(schema):
                    continue
                key = canonical_form(d.facts, a)
                if key in seen:
                    continue
                seen.add(key)
                if _separates(Q1, Q2, d, a):
                    return False
    for d in _clash_witnesses(Q1.ontology, schema):
        r2 = evaluate_naive(OMQ(Q2.ontology, schema, Q2.query), d)
        if r2.consistent:
            tuples = set(itertools.product(sorted(d.dom), repeat=Q2.arity))
            if tuples - r2.answers:
                return False
    return True


def _separates(Q1: OMQ, Q2: OMQ, d: Database, a: tuple) -> bool:
    r1 = evaluate_naive(OMQ(Q1.ontology, Q1.schema, Q1.query), d)
    if not r1.consistent:
        r2 = evaluate_naive(OMQ(Q2.ontology, Q2.schema, Q2.query), d)
        return r2.consistent
    if a not in r1.answers:
        return False
    r2 = evaluate_naive(OMQ(Q2.ontology, Q2.schema, Q2.query), d)
    if not r2.consistent:
        return False
    return a not in r2.answers


def _clash_witnesses(o: Ontology, schema: Schema):
    """Small schema databases inconsistent with the ontology, one per
    reachable clash axiom (when its pattern survives the schema)."""
    onorm = elhi_view(o)
    fresh = FreshVars("_w")
    for ax in onorm.concept_inclusions():
        if not ax.rhs.contains_bot():
            continue
        d = cq_as_database(concept_as_cq(ax.lhs, fresh=fresh))
        if d.dom and d.uses_only(schema) and not is_consistent(d, o):
            yield d
    for dis in o.role_disjointness():
        facts = [RoleFact(r, "w0", "w1") for r in dis.roles]
        d = Database(facts)
        if d.uses_only(schema) and not is_consistent(d, o):
            yield d
    if o.dialect in DLLITE_FAMILY:
        for r in sorted(o.functional_roles()):
            if schema.admits(r):
                yield Database([RoleFact(r, "w0", "w1"), RoleFact(r, "w0", "w2")])
