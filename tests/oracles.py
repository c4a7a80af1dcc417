"""Independent oracles used to cross-check the engine.

These deliberately take the dumb route: fact lookups by scanning every
fact, bounded oblivious chase plus plain homomorphism search, with a
depth-stability re-check, and an exhaustive subquery search for
tree-likeness.
"""

import itertools

from omqlab.chase import canonical_model, oblivious_chase
from omqlab.entailment import is_consistent
from omqlab.evaluation import chase_steps
from omqlab.graphalg import cq_treewidth
from omqlab.homtools import find_homomorphism
from omqlab.model import (
    Atomic,
    Bot,
    CQ,
    Concept,
    ConceptFact,
    Conj,
    Database,
    Exists,
    OMQ,
    Ontology,
    Role,
    RoleFact,
    Top,
    UCQ,
    concept_as_cq,
    concept_extension,
    cq_as_database,
    single_cq_omq,
)
from omqlab.treelike import (
    TW_EQUIV_DIALECTS,
    SchemaPrecondition,
    TwEquivVerdict,
    extend_with_entailed_atoms,
)


# ---------------------------------------------------------------------------
# Fact lookups by scanning, the reference for ``Database.index``


def scan_concept_names_at(d: Database, a: str) -> frozenset:
    return frozenset(f.name for f in d.facts
                     if isinstance(f, ConceptFact) and f.a == a)


def scan_successors(d: Database, a: str, role: Role) -> frozenset:
    if role.inverted:
        return frozenset(f.a for f in d.facts
                         if isinstance(f, RoleFact) and f.name == role.name and f.b == a)
    return frozenset(f.b for f in d.facts
                     if isinstance(f, RoleFact) and f.name == role.name and f.a == a)


def scan_concept_extension(d: Database, c: Concept) -> frozenset:
    if isinstance(c, Top):
        return d.dom
    if isinstance(c, Bot):
        return frozenset()
    if isinstance(c, Atomic):
        return frozenset(a for a in d.dom if c.name in scan_concept_names_at(d, a))
    if isinstance(c, Conj):
        out = d.dom
        for p in c.parts:
            out = out & scan_concept_extension(d, p)
        return out
    if isinstance(c, Exists):
        filler = scan_concept_extension(d, c.filler)
        return frozenset(a for a in d.dom if scan_successors(d, a, c.role) & filler)
    raise TypeError(f"not a concept: {c!r}")


def scan_satisfies_functionality(d: Database, funcs) -> bool:
    return all(len(scan_successors(d, a, Role(r))) <= 1
               for r in funcs for a in d.dom)


# ---------------------------------------------------------------------------
# Subsumption and answers by bounded chase


def concept_depth(c: Concept) -> int:
    if isinstance(c, Exists):
        return 1 + concept_depth(c.filler)
    if isinstance(c, Conj):
        return max(concept_depth(p) for p in c.parts)
    return 0


def chase_clashes(chased, o) -> bool:
    for ci in o.concept_inclusions():
        if ci.rhs.contains_bot() and concept_extension(chased.facts, ci.lhs):
            return True
    return False


def oracle_subsumes(o, c: Concept, d: Concept, extra_depth: int = 0) -> bool:
    """Bounded chase of the concept's tree database, then match the
    subsumer at the root; stability-checked two levels deeper."""
    if c.contains_bot():
        return True
    first = _bounded_subsumes(o, c, d, extra_depth)
    second = _bounded_subsumes(o, c, d, extra_depth + 2)
    assert first == second, "chase depth instability"
    return first


def _bounded_subsumes(o, c, d, extra_depth) -> bool:
    axdepth = max([concept_depth(ci.lhs) + concept_depth(ci.rhs)
                   for ci in o.concept_inclusions()] + [1])
    depth = concept_depth(c) + concept_depth(d) + axdepth + extra_depth
    root_q = concept_as_cq(c, rooted=True)
    root = root_q.answer_vars[0]
    db = Database(root_q.atoms) if root_q.atoms else Database(
        [ConceptFact("_seed", root)])
    ch = oblivious_chase(db, o, depth)
    if chase_clashes(ch, o):
        return True
    if d.contains_bot():
        return False
    dq = concept_as_cq(d, rooted=True)
    return find_homomorphism(dq, ch.facts, {dq.answer_vars[0]: root}) is not None


def all_answers(q: UCQ | CQ, d: Database, restrict_to=None) -> set:
    """All answer tuples of ``q`` on ``d``; optionally only tuples whose
    components lie in ``restrict_to``.  One existence check per candidate
    tuple, so the search never enumerates whole homomorphism spaces."""
    disjuncts = q.disjuncts if isinstance(q, UCQ) else (q,)
    out: set = set()
    pool = sorted(restrict_to if restrict_to is not None else d.dom)
    for cq in disjuncts:
        if not cq.answer_vars:
            if () not in out and find_homomorphism(cq, d) is not None:
                out.add(())
            continue
        for combo in itertools.product(pool, repeat=len(cq.answer_vars)):
            if combo in out:
                continue
            fixed = dict(zip(cq.answer_vars, combo))
            if find_homomorphism(cq, d, fixed) is not None:
                out.add(combo)
    return out


def oracle_answers(Q, d: Database, depth: int = 6) -> frozenset:
    """Answers by generous oblivious chase, with stability re-check."""
    a1 = frozenset(all_answers(Q.query, oblivious_chase(d, Q.ontology, depth).facts,
                               restrict_to=d.dom))
    a2 = frozenset(all_answers(Q.query, oblivious_chase(d, Q.ontology, depth + 2).facts,
                               restrict_to=d.dom))
    assert a1 == a2, "chase depth instability"
    return a1


# ---------------------------------------------------------------------------
# Tree-likeness by exhaustive subquery search


def disjunct_contained(o: Ontology, q1: CQ, q2: CQ) -> bool:
    """(o, full, q1) <= (o, full, q2) via the chase-homomorphism criterion."""
    d1 = cq_as_database(q1)
    if not is_consistent(d1, o):
        return True
    cm = canonical_model(d1, o, chase_steps(UCQ((q2,))))
    fixed = dict(zip(q2.answer_vars, q1.answer_vars))
    return find_homomorphism(q2, cm.database, fixed) is not None


def _prune_disjuncts(Q: OMQ) -> list:
    """Drop inconsistent disjuncts and ones contained in another disjunct."""
    o = Q.ontology
    live = [cq for cq in Q.query.disjuncts
            if is_consistent(cq_as_database(cq), o)]
    keep = []
    for i, p in enumerate(live):
        redundant = False
        for j, other in enumerate(live):
            if i == j:
                continue
            if disjunct_contained(o, p, other):
                # keep the earlier of mutually equivalent disjuncts
                if not disjunct_contained(o, other, p) or j < i:
                    redundant = True
                    break
        if not redundant:
            keep.append(p)
    return keep


def _full_contraction(q: CQ) -> CQ:
    """Collapse all quantified variables into one (or onto an answer var)."""
    var = sorted(q.variables())
    answers = set(q.answer_vars)
    quant = [v for v in var if v not in answers]
    if not quant:
        return q
    rep = quant[0]
    m = {v: rep for v in quant}
    return q.rename(m)


def _subquery_candidates(qp: CQ, k: int):
    """Atom subsets of the extended query, smallest first, that keep all
    answer variables and have tree width at most ``k``."""
    atoms = qp.sorted_atoms()
    answers = set(qp.answer_vars)
    for size in range(1, len(atoms) + 1):
        for combo in itertools.combinations(atoms, size):
            bound = {t for at in combo for t in at.terms()}
            if answers and not answers <= bound:
                continue
            cand = CQ(qp.answer_vars, combo)
            if cq_treewidth(cand) <= k:
                yield cand


def decide_tw_equiv_full(Q: OMQ, k: int) -> TwEquivVerdict:
    """Exact tree-likeness decision over the full schema: per pruned
    disjunct, extend the query with entailed concept copies and search its
    subqueries of width at most ``k`` for an equivalent one (2^|atoms|
    candidates; a cross-check for ``decide_tw_equiv_general``)."""
    if not Q.schema.full:
        raise SchemaPrecondition("the exact decision requires the full schema")
    if Q.ontology.dialect not in TW_EQUIV_DIALECTS:
        raise ValueError(f"dialect {Q.ontology.dialect.value} not supported here")
    live = _prune_disjuncts(Q)
    if not live:
        witness = Q.with_query(UCQ((_full_contraction(Q.query.disjuncts[0]),)))
        return TwEquivVerdict("yes", witness=witness, note="empty query")
    found = []
    for p in live:
        qp = extend_with_entailed_atoms(single_cq_omq(Q.ontology, Q.schema, p))
        hit = None
        for cand in _subquery_candidates(qp, k):
            dq = cq_as_database(cand)
            if not is_consistent(dq, Q.ontology):
                continue
            cm = canonical_model(dq, Q.ontology, chase_steps(UCQ((p,))))
            fixed = {x: x for x in p.answer_vars}
            if find_homomorphism(p, cm.database, fixed) is not None:
                hit = cand
                break
        if hit is None:
            return TwEquivVerdict("no")
        found.append(hit)
    return TwEquivVerdict("yes", witness=Q.with_query(UCQ(found)))
