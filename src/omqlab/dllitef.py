"""Functional-role handling: the inclusion/functionality split, forced
merges under functionality, single-atom generation, the Boolean-query
rewriting that eliminates ontology reasoning on functionality-respecting
databases, and the width-1 equivalence decision.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable

from .model import (
    CQ,
    CapExceeded,
    ConceptFact,
    Database,
    Dialect,
    FULL_SCHEMA,
    FreshVars,
    Functionality,
    OMQ,
    OmqlabError,
    Ontology,
    QueryError,
    RoleFact,
    UCQ,
    cq_as_database,
    cq_components,
    gaifman_graph,
    record,
)
from .entailment import elhi_view
from .evaluation import evaluate_naive
from .graphalg import is_minor
from .homtools import canonical_form, contractions, functional_quotient
from .treelike import Verdict, decide_tw_equiv_general

REW_VARIABLE_CAP = 10


@record
class FunctionalSplit:
    inclusions: Ontology          # everything except functionality
    functionalities: frozenset    # functional role names


def split_ontology(o: Ontology) -> FunctionalSplit:
    if o.dialect not in (Dialect.DLLITE_F, Dialect.DLLITE_F_EQ):
        raise OmqlabError(f"functional split expects DL-LiteF, got {o.dialect.value}")
    rest = [ax for ax in o.sorted_axioms() if not isinstance(ax, Functionality)]
    return FunctionalSplit(Ontology(rest, Dialect.DLLITE_F),
                           frozenset(o.functional_roles()))


def id_functional(q: UCQ, funcs: Iterable[str]) -> UCQ:
    """Minimal contraction of each disjunct respecting the functionality
    assertions: merge y1, y2 whenever r(x,y1), r(x,y2) for functional r."""
    if not q.is_boolean():
        raise QueryError("functional identification expects Boolean queries")
    return UCQ(tuple(cq.rename(functional_quotient(cq, funcs)) for cq in q.disjuncts))


# ---------------------------------------------------------------------------
# Single-atom generation


def generates(o: Ontology, atom, p: CQ, rooted: bool = True) -> bool:
    """Certain-answer check of ``p`` over the single-atom database
    ``{atom}`` (whose variables act as constants).  In rooted mode the
    query's answer variable must be answered by its own name in the atom;
    detached mode asks for a Boolean match anywhere."""
    d = Database([atom])
    res = evaluate_naive(OMQ(elhi_view(o), FULL_SCHEMA, UCQ((p,))), d)
    if not rooted:
        return bool(res.answers)
    if not p.answer_vars:
        raise QueryError("rooted generation needs a unary query")
    root = p.answer_vars[0]
    if root not in d.dom:
        return False
    return (root,) in res.answers


# ---------------------------------------------------------------------------
# Trees hanging off a query, and the rewriting construction


def _trees_in(q: CQ, protected: frozenset = frozenset()) -> list[tuple[str, frozenset]]:
    """Pendant trees: pairs (root x, atoms) where x is an articulation
    point and the atoms form a tree hanging below x (edge directions are
    free; the chase can generate edges pointing either way).  Trees never
    contain protected (answer) variables except possibly as the root."""
    g = gaifman_graph(cq_as_database(q))
    out = []
    for x in sorted(q.variables()):
        rest = set(q.variables()) - {x}
        sub = g.subgraph(rest)
        for comp in sub.connected_components():
            if comp & protected:
                continue
            atoms = frozenset(at for at in q.atoms
                              if set(at.terms()) <= comp | {x}
                              and set(at.terms()) & comp)
            if not atoms:
                continue
            if not _is_pendant_tree(atoms, x):
                continue
            out.append((x, atoms))
    return out


def _is_pendant_tree(atoms: frozenset, root: str) -> bool:
    if any(isinstance(at, RoleFact) and at.a == at.b for at in atoms):
        return False
    g = gaifman_graph(Database(atoms))
    g.add_vertex(root)
    return len(g.edges()) == len(g.vertices) - 1 and g.is_connected()


def _generator_atoms(o: Ontology, q_names: Iterable[str], x: str, fresh: FreshVars):
    """Candidate generating atoms anchored at ``x``: A(x), S(x,z), S(z,x)."""
    onames = elhi_view(o)
    concepts = sorted(o.concept_names() | set(q_names))
    roles = sorted({r.name for ax in onames.concept_inclusions()
                    for side in (ax.lhs, ax.rhs) for r in side.roles()}
                   | {ri.lhs.name for ri in onames.role_inclusions()}
                   | {ri.rhs.name for ri in onames.role_inclusions()})
    for name in concepts:
        yield ConceptFact(name, x)
    for name in roles:
        yield RoleFact(name, x, fresh.next())
        yield RoleFact(name, fresh.next(), x)


def rewrite_family(o: Ontology, p: CQ) -> list[CQ]:
    """All queries producible by: contracting ``p``, removing a set of
    ontology-generatable pendant trees where the result stays a minor of
    the original, re-attaching a generating atom per removed tree, and
    replacing detachedly generatable components by their generating atoms.
    Deduplicated up to isomorphism.  Answer variables never vanish into
    removed trees or replaced components."""
    if len(p.variables()) > REW_VARIABLE_CAP:
        raise CapExceeded(
            f"rewriting enumeration capped at {REW_VARIABLE_CAP} variables")
    protected = frozenset(p.answer_vars)
    results: dict = {}
    g_p = gaifman_graph(cq_as_database(p))
    onames = elhi_view(o)
    q_names = p.names()

    @functools.cache
    def tree_generators(atoms: frozenset, root: str) -> list:
        sub = CQ((root,), atoms)
        fresh = FreshVars("_g", p.variables())
        return [at for at in _generator_atoms(o, q_names, root, fresh)
                if generates(onames, at, sub, rooted=True)]

    @functools.cache
    def detached_generators(atoms: frozenset) -> list:
        sub = CQ((), atoms)
        fresh = FreshVars("_g", p.variables())
        return [at for at in _generator_atoms(o, q_names, "_d0", fresh)
                if generates(onames, at, sub, rooted=False)]

    for pc, _ in contractions(p):
        trees = _trees_in(pc, protected)
        # sets of pairwise variable-disjoint trees (roots may coincide)
        for tset in _tree_subsets(trees):
            removed = frozenset().union(*(a for _, a in tset)) if tset else frozenset()
            remaining = frozenset(pc.atoms) - removed
            kept_vars = {t for at in remaining for t in at.terms()} | {
                x for x, _ in tset}
            g_body = gaifman_graph(Database(remaining))
            for x in kept_vars - {t for at in remaining for t in at.terms()}:
                g_body.add_vertex(x)
            if not is_minor(g_body, g_p):
                continue
            gen_options = []
            ok = True
            for x, atoms in tset:
                gens = tree_generators(atoms, x)
                if not gens:
                    ok = False
                    break
                gen_options.append([(x, g) for g in gens])
            if not ok:
                continue
            for combo in itertools.product(*gen_options) if gen_options else [()]:
                atoms2 = set(remaining)
                fresh = FreshVars("_f", p.variables())
                for x, g in combo:
                    atoms2.add(_instantiate_generator(g, x, fresh))
                base = CQ(p.answer_vars, atoms2)
                for variant in _detached_variants(base, detached_generators,
                                                  protected):
                    key = canonical_form(variant.atoms, variant.answer_vars)
                    if key not in results:
                        results[key] = variant
    return [results[k] for k in sorted(results)]


def _instantiate_generator(g, x: str | None, fresh: FreshVars):
    """A copy of a generator atom anchored at ``x`` whose other term, if
    any, is fresh; with ``x`` None, every term is fresh."""
    return g.rename({t: fresh.next() for t in g.terms() if t != x})


def _tree_subsets(trees: list):
    """Subsets of pendant trees that are variable-disjoint except possibly
    at their roots."""
    yield ()
    for size in range(1, len(trees) + 1):
        for combo in itertools.combinations(trees, size):
            ok = True
            for (x1, a1), (x2, a2) in itertools.combinations(combo, 2):
                v1 = {t for at in a1 for t in at.terms()} - {x1}
                v2 = {t for at in a2 for t in at.terms()} - {x2}
                if v1 & v2 or x1 in v2 or x2 in v1:
                    ok = False
                    break
            if ok:
                yield combo


def _detached_variants(base: CQ, detached_generators,
                       protected: frozenset = frozenset()) -> Iterable[CQ]:
    """Replace any set of fully detachable components by generating atoms;
    components holding protected variables stay."""
    det: list[tuple[frozenset, list]] = []
    for comp_atoms in cq_components(base):
        if {t for at in comp_atoms for t in at.terms()} & protected:
            continue
        gens = detached_generators(comp_atoms)
        if gens:
            det.append((comp_atoms, gens))
    yield base
    if not det:
        return
    fresh = FreshVars("_h", base.variables())
    for size in range(1, len(det) + 1):
        for combo in itertools.combinations(det, size):
            for choice in itertools.product(*(gens for _, gens in combo)):
                atoms = set(base.atoms)
                for (comp_atoms, _), g in zip(combo, choice):
                    atoms -= comp_atoms
                    atoms.add(_instantiate_generator(g, None, fresh))
                yield CQ(base.answer_vars, atoms)


def rew(Q: OMQ) -> UCQ:
    """The rewriting of a Boolean OMQ: on databases satisfying the
    functionality assertions, it evaluates exactly like the input."""
    if not Q.schema.full:
        raise QueryError("the rewriting is defined over the full schema")
    if Q.ontology.dialect not in (Dialect.DLLITE_F, Dialect.DLLITE_F_EQ):
        raise OmqlabError("rew expects a DL-LiteF ontology")
    split = split_ontology(Q.ontology)
    disjuncts: dict = {}
    for p in Q.query.disjuncts:
        for w in rewrite_family(split.inclusions, p):
            disjuncts.setdefault(canonical_form(w.atoms, w.answer_vars), w)
    return UCQ(tuple(disjuncts[k] for k in sorted(disjuncts)))


# ---------------------------------------------------------------------------
# Width-1 equivalence for DL-LiteF


def decide_ubcq1_equiv(Q: OMQ) -> Verdict:
    """Width-1 equivalence of a Boolean DL-LiteF OMQ over the full schema,
    via the functionality-respecting contraction and the exact full-schema
    decision for the inclusion part; a "yes" witness is the width-1
    approximation."""
    if not Q.schema.full:
        raise QueryError("the width-1 decision is defined over the full schema")
    if not Q.query.is_boolean():
        raise QueryError("the width-1 decision expects Boolean queries")
    split = split_ontology(Q.ontology)
    q2 = id_functional(Q.query, split.functionalities)
    Q2 = OMQ(elhi_view(split.inclusions), FULL_SCHEMA, q2)
    verdict = decide_tw_equiv_general(Q2, 1)
    if verdict.is_yes():
        witness = OMQ(Q.ontology, FULL_SCHEMA, verdict.witness.query)
        return Verdict("yes", witness=witness)
    return Verdict("no", counterexample=verdict.counterexample)
