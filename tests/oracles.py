"""Independent oracles used to cross-check the engine.

These deliberately take the dumb route: fact lookups by scanning every
fact, bounded oblivious chase plus plain homomorphism search, with a
depth-stability re-check, isomorphism keys and automorphisms that try
every permutation, maximum contractions by a scan of every partition,
an exhaustive subquery search for tree-likeness, the UCQ_k-approximation over
every contraction, the pebble game with supports over every overlap
of two pebble sets, its tables built through pair maps, reach
systems by one search per guarded pair and per representative, and
canonical structures by whole-tree passes.  The
paper's constructions that the program itself does not run
(injective-only satisfaction, dangling-tree removal, implied types, the
per-disjunct width-1 route for unions) live here too, as references the
tests check against the program.
"""

import functools
import itertools
import json
import re

from omqlab.chase import canonical_model, oblivious_chase
from omqlab.dllitef import decide_ubcq1_equiv
from omqlab.entailment import TOP_NAME, elhi_view, is_consistent, normalize, saturate
from omqlab.evaluation import certain_answers, evaluate_naive
from omqlab.graphalg import _directed_pairs, cq_treewidth, treewidth
from omqlab.homtools import (
    HomError,
    contraction,
    contractions,
    find_homomorphism,
    iter_homomorphisms,
    restricted_growth_strings,
)
from omqlab.model import (
    BOT,
    Atomic,
    Bot,
    CQ,
    Concept,
    ConceptFact,
    ConceptInclusion,
    Conj,
    Database,
    Dialect,
    Exists,
    OMQ,
    OmqlabError,
    Ontology,
    QueryError,
    Role,
    RoleFact,
    RoleInclusion,
    Top,
    TOP,
    UCQ,
    concept_as_cq,
    concept_extension,
    conj,
    cq_as_database,
    gaifman_graph,
)
from omqlab.treelike import (
    TW_EQUIV_DIALECTS,
    Verdict,
    _attach_trees,
    _coarsens,
    contained,
    entailed_concept_trees,
    ucq_k_approximation,
)
from omqlab.model import (
    DIALECT_INFERENCE_ORDER,
    ELHI_FAMILY,
    DialectError,
    Fact,
    Functionality,
    RangeRestriction,
    RoleDisjointness,
    _check_dllite_inclusion,
    axiom_key,
    infer_ontology,
)
from omqlab.pebble import ReachSystem, _check_pebble_input, _prepare_game
from omqlab.surface import _KEYWORDS, ParseError


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
    root_q = concept_as_cq(c)
    root = root_q.answer_vars[0]
    db = Database(root_q.atoms) if root_q.atoms else Database(
        [ConceptFact("_seed", root)])
    ch = oblivious_chase(db, o, depth)
    if chase_clashes(ch, o):
        return True
    if d.contains_bot():
        return False
    dq = concept_as_cq(d)
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


def generous_steps(q: UCQ) -> int:
    """Successor rounds for the oracles' canonical models: the largest
    disjunct's variables + 1, two more than ``chase.canonical_model_of``
    derives, so together with every role they stay a deeper reference."""
    return max(len(cq.variables()) for cq in q.disjuncts) + 1


def oracle_answers(Q, d: Database, depth: int = 6) -> frozenset:
    """Answers by generous oblivious chase, with stability re-check."""
    a1 = frozenset(all_answers(Q.query, oblivious_chase(d, Q.ontology, depth).facts,
                               restrict_to=d.dom))
    a2 = frozenset(all_answers(Q.query, oblivious_chase(d, Q.ontology, depth + 2).facts,
                               restrict_to=d.dom))
    assert a1 == a2, "chase depth instability"
    return a1


# ---------------------------------------------------------------------------
# Isomorphism keys and maximum contractions by brute force


def cq_canonical(q: CQ) -> tuple:
    """The least sorted atom strings over every renaming of ``q``'s
    quantified variables to ``_q0``, ``_q1``, ...  Exact only on queries
    with no variable of their own named like that."""
    qs = sorted(q.quantified_vars())
    best = None
    for perm in itertools.permutations(range(len(qs))):
        m = {v: f"_q{perm[i]}" for i, v in enumerate(qs)}
        key = (q.answer_vars, tuple(sorted(str(at.rename(m)) for at in q.atoms)))
        if best is None or key < best:
            best = key
    return best


def db_canonical(d: Database) -> tuple:
    """The least sorted fact strings over every renaming of ``d``'s
    constants to ``_c0``, ``_c1``, ..."""
    consts = sorted(d.dom)
    best = None
    for perm in itertools.permutations(range(len(consts))):
        m = {c: f"_c{perm[i]}" for i, c in enumerate(consts)}
        key = tuple(sorted(str(f.rename(m)) for f in d.facts))
        if best is None or key < best:
            best = key
    return best


def maximum_contractions_by_scan(Q: OMQ) -> list[OMQ]:
    """``maximum_contractions`` by testing every partition of the
    variables (a Bell number of them) and keeping those that no other
    equivalence-preserving partition coarsens."""
    q = Q.query.disjuncts[0]
    cm = canonical_model(cq_as_database(q), Q.ontology, generous_steps(Q.query))
    var = sorted(q.variables())
    equiv = []
    for rgs in restricted_growth_strings(len(var)):
        c = contraction(q, var, rgs)
        if c is not None and find_homomorphism(
                c[0], cm.facts, {x: x for x in q.answer_vars}) is not None:
            equiv.append((rgs, c))
    out = sorted((c for rgs, c in equiv
                  if not any(r2 != rgs and _coarsens(r2, rgs) for r2, _ in equiv)),
                 key=lambda qp: (len(qp[1]), qp[1]))
    return [Q.with_query(UCQ((qc,)))
            for qc in distinct_by_canonical_key([qc for qc, _ in out])]


# ---------------------------------------------------------------------------
# Tree-likeness by exhaustive subquery search


def distinct_by_canonical_key(cqs: list[CQ]) -> list[CQ]:
    """The first CQ of each isomorphism class, in order, by the exact key
    of every candidate."""
    first: dict = {}
    for qc in cqs:
        first.setdefault(cq_canonical(qc), qc)
    return list(first.values())


def full_ucq_k_approximation(Q: OMQ, k: int) -> OMQ:
    """Same ontology and schema; the query becomes every contraction of a
    disjunct whose tree width is at most ``k`` (deduplicated).  For k >= 1
    that is never empty: the contraction that merges every quantified
    variable into one block has width 1."""
    out = distinct_by_canonical_key([qc for cq in Q.query.disjuncts
                                     for qc, _ in contractions(cq)
                                     if cq_treewidth(qc) <= k])
    return OMQ(Q.ontology, Q.schema, UCQ(out))


def equivalent_full_schema(Q1: OMQ, Q2: OMQ) -> bool:
    return contained(Q1, Q2).is_yes() and contained(Q2, Q1).is_yes()


def is_empty_full_schema(Q: OMQ) -> bool:
    if not Q.schema.full:
        raise OmqlabError("emptiness test requires the full schema")
    return all(not is_consistent(cq_as_database(cq), Q.ontology)
               for cq in Q.query.disjuncts)


def extend_with_entailed_atoms(Q: OMQ) -> CQ:
    """Attach, at every variable satisfying an axiom's left side in the
    chase of the query database, a fresh copy of that side (one copy per
    variable and concept)."""
    q = Q.query.disjuncts[0]
    return _attach_trees(q, q.atoms, entailed_concept_trees(Q))


def disjunct_contained(o: Ontology, q1: CQ, q2: CQ) -> bool:
    """(o, full, q1) <= (o, full, q2) via the chase-homomorphism criterion."""
    d1 = cq_as_database(q1)
    if not is_consistent(d1, o):
        return True
    cm = canonical_model(d1, o, generous_steps(UCQ((q2,))))
    fixed = dict(zip(q2.answer_vars, q1.answer_vars))
    return find_homomorphism(q2, cm.facts, fixed) is not None


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


def decide_tw_equiv_full(Q: OMQ, k: int) -> Verdict:
    """Exact tree-likeness decision over the full schema: per pruned
    disjunct, extend the query with entailed concept copies and search its
    subqueries of width at most ``k`` for an equivalent one (2^|atoms|
    candidates; a cross-check for ``decide_tw_equiv_general``)."""
    if not Q.schema.full:
        raise OmqlabError("the exact decision requires the full schema")
    if Q.ontology.dialect not in TW_EQUIV_DIALECTS:
        raise ValueError(f"dialect {Q.ontology.dialect.value} not supported here")
    live = _prune_disjuncts(Q)
    if not live:
        witness = Q.with_query(UCQ((_full_contraction(Q.query.disjuncts[0]),)))
        return Verdict("yes", witness=witness, note="empty query")
    found = []
    for p in live:
        qp = extend_with_entailed_atoms(Q.with_query(UCQ((p,))))
        hit = None
        for cand in _subquery_candidates(qp, k):
            dq = cq_as_database(cand)
            if not is_consistent(dq, Q.ontology):
                continue
            cm = canonical_model(dq, Q.ontology, generous_steps(UCQ((p,))))
            fixed = {x: x for x in p.answer_vars}
            if find_homomorphism(p, cm.facts, fixed) is not None:
                hit = cand
                break
        if hit is None:
            return Verdict("no")
        found.append(hit)
    return Verdict("yes", witness=Q.with_query(UCQ(found)))


def decide_tw_equiv_all_disjuncts(Q: OMQ, k: int, budget: int = 5) -> Verdict:
    """``decide_tw_equiv_general`` with every disjunct checked, narrow or
    wide: the containment of all of Q in its approximation."""
    Qa = ucq_k_approximation(Q, k)
    v = contained(Q, Qa, budget)
    return Verdict("yes", witness=Qa) if v.is_yes() else v


def _role_names(o: Ontology) -> set:
    """Every name ``o`` uses as a role."""
    return ({r.name for ci in o.concept_inclusions() for side in (ci.lhs, ci.rhs)
             for r in side.roles()}
            | {r.name for ri in o.role_inclusions() for r in (ri.lhs, ri.rhs)}
            | set(o.functional_roles())
            | {r for dis in o.role_disjointness() for r in dis.roles})


def separating_database_by_brute_force(Q1: OMQ, Q2: OMQ, constants: int = 2):
    """The first database over Q1's schema, on up to ``constants``
    constants, where Q1 has a certain answer that Q2 lacks; None if there
    is none.  Every set of facts over the schema's names and the constants
    is tried, smallest first, once up to renaming the constants.  A schema
    name is a role where an ontology or a query uses it as one, and a
    concept otherwise.  Answers come from ``evaluate_naive``, which gives
    every tuple on a database inconsistent with the ontology."""
    roles = _role_names(Q1.ontology) | _role_names(Q2.ontology) | {
        at.name for q in (*Q1.query, *Q2.query) for at in q.atoms
        if isinstance(at, RoleFact)}
    consts = [f"c{i}" for i in range(constants)]
    facts = [RoleFact(n, a, b) if n in roles else ConceptFact(n, a)
             for n in sorted(Q1.schema.names)
             for a in consts for b in (consts if n in roles else consts[:1])]
    seen: set = set()
    for size in range(1, len(facts) + 1):
        for combo in itertools.combinations(facts, size):
            key = min(tuple(sorted(str(f.rename(dict(zip(consts, p)))) for f in combo))
                      for p in itertools.permutations(consts))
            if key in seen:
                continue
            seen.add(key)
            d = Database(combo)
            if evaluate_naive(Q1, d).answers - evaluate_naive(Q2, d).answers:
                return d
    return None


def ubcq_equiv_via_disjuncts(Q: OMQ, k: int) -> bool:
    """A union of Boolean queries is width-``k`` equivalent iff every
    disjunct either is so on its own or is contained in another disjunct;
    the per-disjunct decision is ``decide_ubcq1_equiv``, so ``k`` is 1."""
    if not Q.query.is_boolean():
        raise QueryError("expects Boolean queries")
    if k != 1:
        raise ValueError("only the width-1 decision exists")
    for i, p in enumerate(Q.query.disjuncts):
        if decide_ubcq1_equiv(Q.with_query(UCQ((p,)))).is_yes():
            continue
        others = [other for j, other in enumerate(Q.query.disjuncts) if j != i]
        if not others:
            return False
        if not any(contained(Q.with_query(UCQ((p,))), Q.with_query(UCQ((other,)))).is_yes()
                   for other in others):
            return False
    return True


# ---------------------------------------------------------------------------
# Plain CQ homomorphisms and equivalence


def cq_homomorphism(q1: CQ, q2: CQ):
    """Homomorphism between CQs fixing the (shared) answer variables."""
    fixed = {x: x for x in q1.answer_vars}
    return find_homomorphism(q1, cq_as_database(q2), fixed)


def equivalent_cqs(q1: CQ, q2: CQ) -> bool:
    """Plain CQ equivalence (mutual homomorphisms fixing answer variables)."""
    return cq_homomorphism(q1, q2) is not None and cq_homomorphism(q2, q1) is not None


# ---------------------------------------------------------------------------
# Injective-only satisfaction and dangling-tree removal


def io_satisfies(d: Database, p: CQ) -> bool:
    """``d |=io p``: some homomorphism exists and every one is injective."""
    if not p.is_boolean():
        raise QueryError("io-satisfaction is defined for Boolean queries")
    found = False
    nvars = len(p.variables())
    for h in iter_homomorphisms(p, d):
        found = True
        if len(set(h.values())) != nvars:
            return False
    return found


def io_contraction(d: Database, p: CQ) -> CQ:
    """A contraction of ``p`` that ``d`` satisfies injectively-only, found
    by merging the collisions of an arbitrary non-injective homomorphism
    until only injective ones remain."""
    if not p.is_boolean():
        raise QueryError("io-contraction is defined for Boolean queries")
    current = p
    while True:
        witness = None
        for h in iter_homomorphisms(current, d):
            if len(set(h.values())) != len(current.variables()):
                witness = h
                break
        if witness is None:
            if find_homomorphism(current, d) is None:
                raise HomError("database does not satisfy the query")
            return current
        groups: dict[str, list] = {}
        for v in sorted(current.variables()):
            groups.setdefault(witness[v], []).append(v)
        rep = {v: vs[0] for vs in groups.values() for v in vs}
        current = current.rename(rep)


def strip_trees(p: CQ) -> CQ:
    """Largest sub-conjunction of a connected Boolean query with no
    articulation point splitting off a treewidth-1 component (pendant trees,
    including reflexive loops and multi-edges, are peeled away)."""
    if not p.is_boolean():
        raise QueryError("tree stripping is defined for Boolean queries")
    g = gaifman_graph(cq_as_database(p))
    if not g.is_connected():
        raise QueryError("tree stripping needs a connected query")
    if treewidth(g)[0] <= 1:
        raise QueryError("tree stripping needs tree width above 1")

    atoms = set(p.atoms)
    while True:
        live = set()
        for at in atoms:
            live.update(at.terms())
        g = gaifman_graph(Database(atoms))
        peel = {v for v in live if g.degree(v) <= 1}
        doomed = {at for at in atoms if set(at.terms()) & peel}
        if not doomed:
            return CQ((), atoms)
        atoms -= doomed


def is_ditree(d: Database) -> bool:
    """True iff the directed role graph is a tree (multi-edges fine,
    reflexive loops not)."""
    return not d.dom or ditree_root_by_walk(d, root_loops=False) is not None


def ditree_root_by_walk(d: Database, root_loops: bool):
    """``graphalg._ditree_root`` with its connectivity read off a walk down
    the role edges from the root, the reference for its weak-connectivity
    test."""
    pairs = _directed_pairs(d)
    loops = {a for a, b in pairs if a == b}
    pairs -= {(a, a) for a in loops}
    indeg = {v: 0 for v in d.dom}
    for _, b in pairs:
        indeg[b] += 1
    roots = [v for v, k in indeg.items() if k == 0]
    if len(roots) != 1 or any(k > 1 for k in indeg.values()):
        return None
    root = roots[0]
    if len(pairs) != len(d.dom) - 1:
        return None
    if loops and not (root_loops and loops == {root}):
        return None
    children: dict = {}
    for a, b in pairs:
        children.setdefault(a, set()).add(b)
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for w in children.get(u, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return root if seen == set(d.dom) else None


def automorphisms_by_permutation(d: Database, fixed: set) -> list[dict]:
    """Every renaming of the constants of ``d`` outside ``fixed`` that maps
    the fact set onto itself, by trying each permutation: the reference
    for the orbits of ``graphalg._bag_orbits``."""
    movable = sorted(set(d.dom) - set(fixed))
    autos = []
    for perm in itertools.permutations(movable):
        m = dict(zip(movable, perm))
        if all(f.rename(m) in d.facts for f in d.facts):
            autos.append(m)
    return autos


def is_pendant_tree_by_walk(atoms, root: str) -> bool:
    """``dllitef._is_pendant_tree`` by counting the distinct term pairs and
    walking them from the root, the reference for its graph test."""
    pairs = set()
    nodes = {root}
    for at in atoms:
        ts = at.terms()
        nodes.update(ts)
        if len(ts) == 2:
            if ts[0] == ts[1]:
                return False
            pairs.add(frozenset(ts))
    if len(pairs) != len(nodes) - 1:
        return False
    adj: dict = {}
    for e in pairs:
        a, b = tuple(e)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for w in adj.get(u, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == nodes


# ---------------------------------------------------------------------------
# Entailed facts, implied types and the normal form as axioms


def entailed_concept_fact(d: Database, o: Ontology, c: Concept, a: str) -> bool:
    onorm = normalize(elhi_view(o))
    if c not in set(onorm.sub_concepts):
        raise ValueError(f"{c} is not a sub-concept of the ontology")
    sat = saturate(d, onorm)
    return onorm.defname[c] in sat.types.get(a, frozenset())


def type_implies(o: Ontology, t1, t2) -> bool:
    """Every model realizing ``t1`` somewhere also realizes ``t2`` somewhere."""
    t1, t2 = list(t1), list(t2)
    if not t2:
        return True
    if set(t2) <= set(t1):
        return True
    marker = conj(*t2)
    o2 = Ontology(list(elhi_view(o).axioms) + [ConceptInclusion(marker, BOT)],
                  Dialect.ELHI_BOT)
    onorm = normalize(o2, t1)
    return onorm.is_unsat(frozenset(onorm.defname[c] for c in t1))


def max_successor_types(o: Ontology, t, r: Role) -> list[frozenset]:
    """Inclusion-maximal types t2 with ``o |= conj(t) <= exists r . conj(t2)``,
    read off the canonical root's ``r``-children."""
    onorm = normalize(elhi_view(o), list(t))
    seed = frozenset(onorm.defname[c] for c in t)
    if onorm.is_unsat(seed):
        return [frozenset(onorm.sub_concepts) - {TOP}]
    cands = [onorm.concepts_of(child) for role, child in onorm.children(seed)
             if r in onorm.super_roles.get(role, {role})]
    out = []
    for c in cands:
        if not any(c < other for other in cands):
            out.append(c)
    return sorted(set(out), key=lambda s: sorted(x.key() for x in s))


def normal_axioms(onorm) -> list:
    """The rule system of a ``NormalOntology`` rendered back as inclusion
    axioms."""
    out: list = [ConceptInclusion(TOP, Atomic(TOP_NAME))]
    out += [ConceptInclusion(Atomic(n), BOT) for n in sorted(onorm.bot_names)]
    for body, head in onorm.conj_rules:
        lhs = conj(*(Atomic(n) for n in sorted(body)))
        out.append(ConceptInclusion(lhs, Atomic(head)))
    for r in onorm.exists_rules:
        out.append(ConceptInclusion(Exists(r.role, Atomic(r.filler)), Atomic(r.head)))
    for r in onorm.succ_rules:
        out.append(ConceptInclusion(Atomic(r.body), Exists(r.role, Atomic(r.succ))))
    out += [RoleInclusion(r, s) for r, ss in sorted(onorm.super_roles.items(),
                                                    key=lambda kv: str(kv[0]))
            for s in sorted(ss, key=str) if s != r]
    return out


def parse_answers(text: str) -> tuple[bool, list[tuple]]:
    """Read back the JSON answer format of ``serialize_answers``."""
    data = json.loads(text)
    return bool(data["consistent"]), [tuple(t) for t in data["answers"]]


# ---------------------------------------------------------------------------
# The type engine by whole-tree passes


def reference_canonical(onorm, seed) -> tuple:
    """The canonical structure of ``seed`` by whole-tree passes: rerun the
    node update over the tree until a pass changes nothing.  A node's child
    via a successor rule is memoized per (node type, rule) and grows in
    place.  Returns the root type, the reachable types, whether one of them
    clashes, and the root's (role, child type) pairs in succ_rules order."""
    memo: dict = {}
    root = onorm.close(frozenset(seed))
    while True:
        changed = [False]
        root2 = _update_node(onorm, root, None, None, memo, set(), changed)
        if root2 == root and not changed[0]:
            break
        root = root2
    reachable: set = set()
    stack = [root]
    while stack:
        t = stack.pop()
        if t in reachable:
            continue
        reachable.add(t)
        stack += [memo[(t, rule)] for rule in onorm.succ_rules if rule.body in t]
    clash = any(t & onorm.bot_names for t in reachable)
    children = [(rule.role, memo[(root, rule)])
                for rule in onorm.succ_rules if rule.body in root]
    return root, frozenset(reachable), clash, children


def _forced(onorm, t, role) -> set:
    """Names forced on an element with a ``role`` edge to one of type ``t``."""
    sups = onorm.super_roles.get(role, frozenset({role}))
    return {r.head for r in onorm.exists_rules if r.role in sups and r.filler in t}


def _update_node(onorm, current, parent, via, memo, visited, changed):
    key = (parent, via, current)
    if key in visited:
        return current
    visited.add(key)
    base = set(current)
    if via is not None:
        base.add(via.succ)
        base |= _forced(onorm, parent, via.role.inverse())
    for rule in onorm.succ_rules:
        if rule.body not in current:
            continue
        ckey = (current, rule)
        child = memo.get(ckey)
        if child is None:
            child = onorm.close(frozenset({rule.succ})
                                | _forced(onorm, current, rule.role.inverse()))
            memo[ckey] = child
            changed[0] = True
        child2 = _update_node(onorm, child, current, rule, memo, visited, changed)
        if child2 != child:
            memo[ckey] = child2
            changed[0] = True
            child = child2
        base |= _forced(onorm, child, rule.role)
    new = onorm.close(frozenset(base))
    if new != current:
        changed[0] = True
    return new


# ---------------------------------------------------------------------------
# Surface references: the token-cursor ontology and query parsers and the
# dialect inference that checks every axiom of every dialect in sorted order


# whitespace is skipped as each token's prefix; a comment runs to the end
# of the line, and ``bad`` catches any other character
_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
        (?P<comment>\#)
      | (?P<arrow><=|:-)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_-]*)
      | (?P<punct>[().,&:])
      | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)


class Token:
    """A token of one line and its 1-based (line, column) position."""

    __slots__ = ("kind", "text", "span")

    def __init__(self, kind: str, text: str, span: tuple[int, int]):
        self.kind = kind
        self.text = text
        self.span = span


def _tokenize_line(line: str, lineno: int) -> list[Token]:
    out: list[Token] = []
    for m in _TOKEN_RE.finditer(line):
        kind = m.lastgroup
        if kind == "comment":
            break
        if kind == "bad":
            raise ParseError((lineno, m.start(kind) + 1),
                             f"unexpected character {m.group(kind)!r}")
        out.append(Token(kind, m.group(kind), (lineno, m.start(kind) + 1)))
    return out


class _Cursor:
    def __init__(self, tokens: list[Token], lineno: int, line_len: int):
        self.tokens = tokens
        self.i = 0
        self.lineno = lineno
        self.line_len = line_len

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self, *expected: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError((self.lineno, self.line_len + 1),
                             "unexpected end of line", expected)
        if expected and tok.text not in expected and tok.kind not in expected:
            raise ParseError(tok.span, f"unexpected {tok.text!r}", expected)
        self.i += 1
        return tok

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)


def _name(tok: Token) -> str:
    """Plain identifier; hyphens are reserved for keywords and dialect names."""
    if "-" in tok.text:
        raise ParseError(tok.span, f"bad identifier {tok.text!r}")
    return tok.text


def _expect_end(cur: _Cursor) -> None:
    tok = cur.peek()
    if tok is not None:
        raise ParseError(tok.span, f"trailing input {tok.text!r}")


def _parse_role(cur: _Cursor, role_idents: set[str]) -> Role:
    tok = cur.next("ident")
    if tok.kind != "ident":
        raise ParseError(tok.span, f"expected role, got {tok.text!r}", ("IDENT", "inv("))
    if tok.text == "inv":
        cur.next("(")
        name = _name(cur.next("ident"))
        cur.next(")")
        role_idents.add(name)
        return Role(name, True)
    role_idents.add(_name(tok))
    return Role(tok.text)


def _parse_concept(cur: _Cursor, role_idents: set[str], concept_idents: set[str]) -> Concept:
    parts = [_parse_unary(cur, role_idents, concept_idents)]
    while (tok := cur.peek()) is not None and tok.text == "&":
        cur.next("&")
        parts.append(_parse_unary(cur, role_idents, concept_idents))
    return conj(*parts)


def _parse_unary(cur: _Cursor, role_idents: set[str], concept_idents: set[str]) -> Concept:
    tok = cur.peek()
    if tok is None:
        raise ParseError((cur.lineno, cur.line_len + 1), "expected a concept",
                         ("top", "bot", "IDENT", "exists", "("))
    if tok.text == "(":
        cur.next("(")
        c = _parse_concept(cur, role_idents, concept_idents)
        cur.next(")")
        return c
    if tok.text == "exists":
        cur.next("exists")
        role = _parse_role(cur, role_idents)
        cur.next(".")
        filler = _parse_unary(cur, role_idents, concept_idents)
        return Exists(role, filler)
    if tok.text == "top":
        cur.next("top")
        return TOP
    if tok.text == "bot":
        cur.next("bot")
        return BOT
    if tok.kind == "ident" and tok.text not in _KEYWORDS:
        cur.next("ident")
        concept_idents.add(_name(tok))
        return Atomic(tok.text)
    raise ParseError(tok.span, f"expected a concept, got {tok.text!r}",
                     ("top", "bot", "IDENT", "exists", "("))


def parse_ontology_by_cursor(text: str) -> Ontology:
    """``parse_ontology`` by a cursor over each line's tokens."""
    declared: Dialect | None = None
    # the identifiers the other lines use as roles and as concepts decide
    # the bare ``X <= Y`` lines, which are read last
    role_idents: set[str] = set()
    concept_idents: set[str] = set()
    ambiguous: list[tuple[int, str, list]] = []
    plain: list[tuple[int, str, list]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        tokens = _tokenize_line(line, lineno)
        if (len(tokens) == 3 and tokens[0].kind == "ident" and tokens[1].text == "<="
                and tokens[2].kind == "ident"
                and tokens[0].text not in _KEYWORDS and tokens[2].text not in _KEYWORDS):
            ambiguous.append((lineno, line, tokens))
        elif tokens:
            plain.append((lineno, line, tokens))

    axioms: list = []

    for lineno, line, tokens in plain:
        cur = _Cursor(tokens, lineno, len(line))
        head = cur.peek()
        assert head is not None
        if head.text == "dialect":
            cur.next("dialect")
            cur.next(":")
            name = cur.next("ident")
            _expect_end(cur)
            try:
                declared = Dialect(name.text)
            except ValueError:
                raise ParseError(name.span, f"unknown dialect {name.text!r}",
                                 tuple(d.value for d in Dialect)) from None
            continue
        if head.text == "func":
            cur.next("func")
            role = cur.next("ident")
            _expect_end(cur)
            role_idents.add(_name(role))
            axioms.append(Functionality(role.text))
            continue
        if head.text == "range":
            cur.next("range")
            role = cur.next("ident")
            role_idents.add(_name(role))
            cur.next("<=")
            filler = _parse_concept(cur, role_idents, concept_idents)
            _expect_end(cur)
            axioms.append(RangeRestriction(role.text, filler))
            continue
        if head.text == "disjoint-roles":
            cur.next("disjoint-roles")
            roles = [_name(cur.next("ident"))]
            while not cur.at_end():
                cur.next(",")
                roles.append(_name(cur.next("ident")))
            if len(roles) < 2:
                raise ParseError(head.span, "disjoint-roles needs at least two roles")
            role_idents.update(roles)
            axioms.append(RoleDisjointness(tuple(roles)))
            continue
        texts = {t.text for t in tokens}
        # role inclusion with an explicit inv(...) on either side
        if {"<=", "inv"} <= texts and "exists" not in texts:
            lhs = _parse_role(cur, role_idents)
            cur.next("<=")
            rhs = _parse_role(cur, role_idents)
            _expect_end(cur)
            axioms.append(RoleInclusion(lhs, rhs))
            continue
        lhs = _parse_concept(cur, role_idents, concept_idents)
        cur.next("<=")
        rhs = _parse_concept(cur, role_idents, concept_idents)
        _expect_end(cur)
        axioms.append(ConceptInclusion(lhs, rhs))

    for lineno, line, tokens in ambiguous:
        a, b = _name(tokens[0]), _name(tokens[2])
        as_role = a in role_idents or b in role_idents
        as_concept = a in concept_idents or b in concept_idents
        if as_role and as_concept:
            raise ParseError(tokens[1].span, f"{a} <= {b} mixes role and concept names")
        if as_role:
            axioms.append(RoleInclusion(Role(a), Role(b)))
        else:
            axioms.append(ConceptInclusion(Atomic(a), Atomic(b)))

    if declared is None:
        return infer_ontology(axioms)
    return Ontology(axioms, declared)


def parse_query_by_cursor(text: str) -> UCQ:
    """``parse_query`` by a cursor over each line's tokens."""
    heads: list[tuple] = []
    disjuncts: list[CQ] = []
    arity: dict[str, int] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        tokens = _tokenize_line(line, lineno)
        if not tokens:
            continue
        cur = _Cursor(tokens, lineno, len(line))
        head_tok = cur.next("ident")
        _name(head_tok)
        cur.next("(")
        avs: list[str] = []
        tok = cur.peek()
        if tok is not None and tok.text != ")":
            avs.append(_name(cur.next("ident")))
            while (tok := cur.peek()) is not None and tok.text == ",":
                cur.next(",")
                avs.append(_name(cur.next("ident")))
        cur.next(")")
        cur.next(":-")
        if len(set(avs)) != len(avs):
            raise ParseError(head_tok.span, f"repeated answer variable in {tuple(avs)}")
        atoms: list[Fact] = []
        while True:
            name = cur.next("ident")
            _name(name)
            cur.next("(")
            t1 = _name(cur.next("ident"))
            t2 = None
            if (tok := cur.peek()) is not None and tok.text == ",":
                cur.next(",")
                t2 = _name(cur.next("ident"))
            cur.next(")")
            n = 1 if t2 is None else 2
            if arity.setdefault(name.text, n) != n:
                raise ParseError(name.span, f"{name.text} used with both arity 1 and 2")
            atoms.append(ConceptFact(name.text, t1) if t2 is None
                         else RoleFact(name.text, t1, t2))
            if cur.at_end():
                break
            cur.next(",")
        body_vars = {t for at in atoms for t in at.terms()}
        for x in avs:
            if x not in body_vars:
                raise ParseError(head_tok.span, f"answer variable {x} not bound in the body")
        heads.append((head_tok, tuple(avs)))
        disjuncts.append(CQ(tuple(avs), atoms))
    if not disjuncts:
        raise ParseError((1, 1), "no query rules found")
    first = heads[0][1]
    for head_tok, avs in heads[1:]:
        if avs != first:
            raise ParseError(head_tok.span,
                             f"rule heads disagree: {first} vs {avs}")
    return UCQ(disjuncts)


def _is_el(c: Concept) -> bool:
    return all(not r.inverted for r in c.roles())


def _check_inclusion_shape(ax: ConceptInclusion, allow_bot, allow_inverse):
    # bot may appear only as the full right-hand side
    if ax.lhs.contains_bot():
        return "bot on the left-hand side of"
    if ax.rhs.contains_bot() and not isinstance(ax.rhs, Bot):
        return "bot nested inside the right-hand side of"
    if not allow_bot and isinstance(ax.rhs, Bot):
        return "bot not admitted:"
    if not allow_inverse and (not _is_el(ax.lhs) or not _is_el(ax.rhs)):
        return "inverse role not admitted:"
    return None


def check_one_axiom(ax, d: Dialect):
    """The reference for ``model._check_one_axiom``: each dialect's
    conditions spelled out, each concept walked once per question."""
    if d in ELHI_FAMILY:
        allow_bot = d not in (Dialect.EL, Dialect.ELI)
        allow_inverse = d in (Dialect.ELI, Dialect.ELI_BOT, Dialect.ELHI_BOT)
        allow_role_inc = d in (Dialect.ELH_BOT, Dialect.ELHDR_BOT, Dialect.ELHI_BOT)
        if isinstance(ax, ConceptInclusion):
            return _check_inclusion_shape(ax, allow_bot, allow_inverse)
        if isinstance(ax, RoleInclusion):
            if not allow_role_inc:
                return "role inclusion not admitted:"
            if not allow_inverse and (ax.lhs.inverted or ax.rhs.inverted):
                return "inverse role not admitted:"
            return None
        if isinstance(ax, RangeRestriction):
            # expressible directly with an inverse role in ELHI_bot
            if d in (Dialect.ELHDR_BOT, Dialect.ELHI_BOT):
                if d is Dialect.ELHDR_BOT and not _is_el(ax.filler):
                    return "range filler must be an EL_bot concept:"
                return None
            return "range restriction not admitted:"
        return "axiom form not admitted:"

    if d is Dialect.DLLITE_F_EQ:
        if isinstance(ax, Functionality):
            return None
        return "only functionality assertions admitted:"

    if d in (Dialect.DLLITE_R, Dialect.DLLITE_R_HORN):
        if isinstance(ax, ConceptInclusion):
            return _check_dllite_inclusion(ax, horn=d is Dialect.DLLITE_R_HORN)
        if isinstance(ax, RoleInclusion):
            if ax.lhs.inverted:
                return "inverse role on the left of a role inclusion:"
            return None
        if isinstance(ax, RoleDisjointness):
            return None
        return "axiom form not admitted:"

    if d is Dialect.DLLITE_F:
        if isinstance(ax, ConceptInclusion):
            return _check_dllite_inclusion(ax, horn=False)
        if isinstance(ax, (RoleDisjointness, Functionality)):
            return None
        return "axiom form not admitted:"

    raise ValueError(f"unknown dialect {d!r}")


def dialect_violations(axioms, d: Dialect) -> list[str]:
    """``check_dialect_axioms`` by ``check_one_axiom``, on every axiom in
    ``axiom_key`` order."""
    return [f"{v} {ax}" for ax in sorted(axioms, key=axiom_key)
            if (v := check_one_axiom(ax, d))]


def infer_dialect_sequentially(axioms) -> Dialect:
    """``infer_dialect`` by checking every axiom, in ``axiom_key`` order,
    against each dialect of the inference order in turn."""
    for d in DIALECT_INFERENCE_ORDER:
        if not dialect_violations(axioms, d):
            return d
    raise DialectError(Dialect.ELHI_BOT, dialect_violations(axioms, Dialect.ELHI_BOT))


# ---------------------------------------------------------------------------
# The pebble game with supports over every overlap


def evaluate_pebble_all_overlaps(Q: OMQ, d: Database, k: int):
    """``evaluate_pebble`` with the reference game below in place of
    ``pebble._play``; the per-disjunct preparation is the program's."""
    _check_pebble_input(Q)

    def prepare(sat, _live):
        def per_disjunct(cq):
            game = _prepare_game(cq, Q.ontology, d, sat, k)
            if not isinstance(game, functools.partial):
                return game  # the disjunct's own database is inconsistent
            return functools.partial(play_all_overlaps, *game.args)
        return per_disjunct
    return certain_answers(Q, d, prepare)


def play_all_overlaps(ctx, quantified: list, size: int, candidates: dict,
                      a: tuple) -> bool:
    """The game for one candidate tuple, its tables built in three steps:
    each variable's labels valid on it alone, each pair's valid label
    pairs, then each maximal pebble set's labelings whose pairs are all
    valid and that pass the conditions on the set."""
    pins = dict(zip(ctx.q.answer_vars, a))
    if not ctx.is_labeling(pins, frozenset()):
        return False
    # positions over maximal pebble sets decide the game: smaller positions
    # are restrictions of surviving maximal ones
    vsets = [frozenset(c) for c in itertools.combinations(quantified, size)]

    # per-variable universe, prefiltered by singleton validity
    universe: dict[str, list] = {}
    for v in quantified:
        keep = []
        for l in candidates[v]:
            labels = dict(pins)
            labels[v] = l
            if ctx.is_labeling(labels, frozenset({v})):
                keep.append(l)
        if not keep:
            return False
        universe[v] = keep

    # pairwise compatibility per variable pair (within any position)
    pair_ok: dict = {}
    for v1, v2 in itertools.combinations(quantified, 2):
        allowed = []
        base = dict(pins)
        for l1 in universe[v1]:
            base[v1] = l1
            for l2 in universe[v2]:
                base[v2] = l2
                if ctx.is_labeling(base, frozenset({v1, v2})):
                    allowed.append((l1, l2))
            del base[v2]
        pair_ok[(v1, v2)] = set(allowed)

    def enumerate_labelings(V: frozenset) -> list:
        vlist = sorted(V)
        if len(vlist) == 1:
            return [(l,) for l in universe[vlist[0]]]
        if len(vlist) == 2:
            return sorted(pair_ok[(vlist[0], vlist[1])], key=str)
        out = []
        labels = dict(pins)

        def rec(i: int, acc: list):
            if i == len(vlist):
                labels.update(zip(vlist, acc))
                if ctx.is_labeling(labels, V):
                    out.append(tuple(acc))
                return
            v = vlist[i]
            for l in universe[v]:
                good = True
                for j in range(i):
                    w = vlist[j]
                    key = (w, v) if w < v else (v, w)
                    pr = (acc[j], l) if w < v else (l, acc[j])
                    if pr not in pair_ok[key]:
                        good = False
                        break
                if good:
                    acc.append(l)
                    rec(i + 1, acc)
                    acc.pop()

        rec(0, [])
        return out

    valid: dict[frozenset, list] = {}
    for V in vsets:
        out = enumerate_labelings(V)
        if not out:
            return False  # Spoiler moves here and wins immediately
        valid[V] = out

    return duplicator_survives_all_overlaps(vsets, valid)


def duplicator_survives_all_overlaps(vsets: list, valid: dict) -> bool:
    """Greatest fixpoint over maximal positions, by support propagation:
    a position needs, for every other pebble set, a live position agreeing
    on the overlap; when a support bucket empties, its dependants die."""
    var_index = {V: {v: i for i, v in enumerate(sorted(V))} for V in vsets}
    shared = {(V, V2): tuple(sorted(V & V2))
              for V in vsets for V2 in vsets if V != V2}

    def project(V, assignment, svars):
        idx = var_index[V]
        return tuple(assignment[idx[v]] for v in svars)

    counts: dict = {}
    watchers: dict = {}
    contributes: dict = {}
    alive: dict = {}
    for V in vsets:
        for assignment in valid[V]:
            alive[(V, assignment)] = True
            buckets = set()
            for V2 in vsets:
                if V2 == V:
                    continue
                svars = shared[(V2, V)]
                buckets.add((V, svars, project(V, assignment, svars)))
            contributes[(V, assignment)] = buckets
            for b in buckets:
                counts[b] = counts.get(b, 0) + 1

    dead: list = []
    for V in vsets:
        for assignment in valid[V]:
            for V2 in vsets:
                if V2 == V:
                    continue
                svars = shared[(V, V2)]
                need = (V2, svars, project(V, assignment, svars))
                if counts.get(need, 0) == 0:
                    dead.append((V, assignment))
                    break
                watchers.setdefault(need, []).append((V, assignment))

    remaining = {V: len(valid[V]) for V in vsets}
    while dead:
        pos = dead.pop()
        if not alive.get(pos, False):
            continue
        alive[pos] = False
        V, _ = pos
        remaining[V] -= 1
        if remaining[V] == 0:
            return False
        for b in contributes[pos]:
            counts[b] -= 1
            if counts[b] == 0:
                for dep in watchers.get(b, ()):
                    if alive.get(dep, False):
                        dead.append(dep)
    return all(remaining[V] > 0 for V in vsets)


# ---------------------------------------------------------------------------
# Reach systems by one search per pair


def reach_by_search(q: CQ, pair: tuple, links: tuple) -> dict:
    """Leveled reach set of a guarded pair (x, y), y quantified, by a
    breadth-first search from x at level 0 and y at level 1: variable ->
    set of levels.  ``links`` is (successors, predecessors) along the role
    atoms.  A start x = y keeps level 1 only, as a dict literal does."""
    x, y = pair
    cap = len(q.variables()) + 1  # deeper levels are unrealizable in a ditree
    succ, pred = links
    levels: dict[str, set] = {x: {0}, y: {1}}
    work = [(x, 0), (y, 1)]
    while work:
        v, i = work.pop()
        # forward: a variable at level i >= 1 pushes its successors deeper;
        # upward: a variable at level i+1 pulls its predecessors to i
        steps = [(w, i + 1) for w in succ.get(v, ()) if 0 < i < cap]
        steps += [(w, i - 1) for w in pred.get(v, ()) if i >= 1]
        for w, j in steps:
            ls = levels.setdefault(w, set())
            if j not in ls:
                ls.add(j)
                work.append((w, j))
    return levels


def guarded_pairs_by_graph(q: CQ) -> list[tuple]:
    """Both orders of each Gaifman-graph edge, edges in sorted order, that
    have a quantified second component."""
    g = gaifman_graph(cq_as_database(q))
    out = []
    answers = set(q.answer_vars)
    for e in sorted(g.edges(), key=lambda e: sorted(e, key=str)):
        a, b = sorted(e)
        for x, y in ((a, b), (b, a)):
            if y not in answers:
                out.append((x, y))
    return out


def reach_systems_by_search(q: CQ, anchors_of) -> dict:
    """``pebble.reach_systems`` by one search per guarded pair, each
    system's representative found by searching from every candidate
    (x0, y0) with x0 != y0 until one regenerates the system."""
    succ: dict = {}
    pred: dict = {}
    for at in q.atoms:
        if isinstance(at, RoleFact):
            succ.setdefault(at.a, []).append(at.b)
            pred.setdefault(at.b, []).append(at.a)
    levels_of = functools.cache(lambda pair: reach_by_search(q, pair, (succ, pred)))
    anchors_of = functools.cache(anchors_of)
    answers = set(q.answer_vars)
    systems: dict = {}
    for pair in guarded_pairs_by_graph(q):
        if pair in systems:
            continue
        levels = levels_of(pair)
        level0 = sorted(v for v, ls in levels.items() if 0 in ls)
        level1 = sorted(v for v, ls in levels.items() if 1 in ls)
        rep = next(cand for cand in ((x0, y0) for x0 in level0
                                     for y0 in level1 if y0 not in answers and y0 != x0)
                   if cand == pair or levels_of(cand) == levels)
        if rep not in systems:
            systems[rep] = ReachSystem(rep, levels, anchors_of(frozenset(levels)))
        systems[pair] = systems[rep]
    return systems
