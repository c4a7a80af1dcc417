"""The oblivious chase with provenance and a depth bound, and the truncated
canonical model (saturation, shared type copies, then bounded successor
rounds).  ``canonical_model_of`` alone decides how much of the model a
query needs: its rounds and its roles come from the query itself, and
every pipeline and decision procedure builds the model through it.
``canonical_model`` takes explicit rounds and keeps every role.  The
model is a function of the saturation, the rounds and the roles, so the
saturation keeps the last one built from it (``Saturation.model``):
naive and fpt on the same data and query build it once, and it goes
when ``saturate``'s memo drops the saturation.  A result is read-only:
``provenance`` is a read-only mapping.

Fresh constants are numbered deterministically (`_n<k>` for chase nodes,
`_t<k>` for type copies), skipping the names the input uses, so identical
inputs produce identical output.  The oblivious chase lays each fired
right-hand side through ``model.concept_tree``, so a tree's nodes are
numbered depth first.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Optional

from .model import (
    Axiom,
    CapExceeded,
    Concept,
    ConceptFact,
    Database,
    Fact,
    FreshVars,
    OmqlabError,
    Ontology,
    Role,
    RoleFact,
    UCQ,
    concept_tree,
    concept_extension,
    record,
    restrict_database,
)
from .entailment import (
    TOP_NAME,
    Saturation,
    consistent_saturation,
    elhi_view,
    saturate,
)


CHASE_NODE_CAP = 500000


@record
class Provenance:
    """Where a constant of a chase result comes from."""

    kind: str                     # "original" | "anonymous" | "type_copy"
    parent: Optional[str] = None  # generating constant (anonymous nodes)
    via: Optional[Axiom] = None   # generating axiom, when one exists
    depth: int = 0


@record
class ChaseDb:
    """A chase result, from ``oblivious_chase`` or ``canonical_model``: its
    facts and each constant's provenance."""

    facts: Database
    provenance: MappingProxyType

    def original_constants(self) -> frozenset:
        return frozenset(a for a, p in self.provenance.items() if p.kind == "original")

    def restriction(self) -> Database:
        return restrict_database(self.facts, self.original_constants())


# ---------------------------------------------------------------------------
# Oblivious chase


def oblivious_chase(d: Database, o: Ontology, depth: int) -> ChaseDb:
    """The two-rule chase, applied fairly in rounds; a concept-inclusion
    firing attaches a fresh tree even when the conclusion already holds.
    Fresh trees are only attached at constants whose forest depth is below
    ``depth``; at the others a firing adds the conclusion's concept names
    at the constant itself and no fresh constant.  Each (constant, axiom)
    pair fires at most once."""
    if depth < 0:
        raise OmqlabError(f"the chase needs depth >= 0, got {depth}")
    o = elhi_view(o)
    inclusions = o.concept_inclusions()  # range restrictions fold in here
    role_incs = o.role_inclusions()
    facts: set[Fact] = set(d.facts)
    prov: dict[str, Provenance] = {a: Provenance("original") for a in sorted(d.dom)}
    fired: set = set()
    fresh = FreshVars("_n", d.dom)

    changed = True
    while changed:
        changed = False
        # rule 2: role inclusions, over the role facts as the round starts
        role_facts = [f for f in facts if isinstance(f, RoleFact)]
        for ri in role_incs:
            for f in role_facts:
                if f.name != ri.lhs.name:
                    continue
                a, b = (f.b, f.a) if ri.lhs.inverted else (f.a, f.b)
                g = (RoleFact(ri.rhs.name, b, a) if ri.rhs.inverted
                     else RoleFact(ri.rhs.name, a, b))
                if g not in facts:
                    facts.add(g)
                    changed = True
        current = Database(facts)
        # rule 1: concept inclusions
        for ax in inclusions:
            if ax.rhs.contains_bot():
                continue
            ext = concept_extension(current, ax.lhs)
            for a in sorted(ext):
                if (a, ax) in fired:
                    continue
                fired.add((a, ax))
                changed = True
                if prov[a].depth >= depth:
                    tree = concept_tree(ax.rhs, a, FreshVars(avoid=frozenset({a})))
                    facts.update(at for at in tree if at.terms() == (a,))
                    continue
                _attach_concept(ax.rhs, a, ax, facts, prov, fresh)
                if len(prov) > CHASE_NODE_CAP:
                    raise CapExceeded("chase grew past the node cap")
    return ChaseDb(Database(facts), MappingProxyType(prov))


def _attach_concept(c: Concept, root: str, ax, facts: set, prov: dict,
                    fresh: FreshVars) -> None:
    """Attach the tree of ``c`` with its root glued to ``root``; a node's
    depth is its parent's plus one."""
    for at in concept_tree(c, root, fresh):
        facts.add(at)
        if isinstance(at, RoleFact):
            up, node = (at.a, at.b) if at.b not in prov else (at.b, at.a)
            prov[node] = Provenance("anonymous", parent=root, via=ax,
                                    depth=prov[up].depth + 1)


# ---------------------------------------------------------------------------
# Truncated canonical model


def canonical_model(d: Database, o: Ontology, steps: int) -> ChaseDb:
    """Saturate ``d``, add one copy per maximal implied type, then run the
    witnessed-successor rule for ``steps`` rounds along every role.  It
    answers queries of at most ``steps + 1`` variables exactly: their
    matches over the original constants agree with the full universal
    model's (see ``canonical_model_of``).  On data inconsistent with
    ``o``, functionality included, the result is the saturation alone."""
    if steps < 0:
        raise OmqlabError(f"the canonical model needs steps >= 0, got {steps}")
    sat = consistent_saturation(d, o)
    if sat is None:
        return ChaseDb(saturate(d, o).database,
                       MappingProxyType({a: Provenance("original") for a in d.dom}))
    return _truncated_model(sat, steps, None)


def canonical_model_of(sat: Saturation, query: UCQ) -> ChaseDb:
    """The part of the canonical model of ``sat`` (which must be clash-free)
    that ``query`` needs: its disjuncts, matched into the result with their
    answer variables at original constants, match exactly when they match
    the full universal model.  The rounds are max |vars(cq)| - 1 over the
    disjuncts, and successors are built only along roles with a super-role
    that a role atom of ``query`` names.

    The result maps into the universal model fixing the original
    constants, so only the converse needs proof.  An anonymous element of
    the universal model has edges only to its parent and its children.
    Fix a match into it and a connected component C of a disjunct.

    (a) C's image meets an original constant.  The image is connected,
    so with an anonymous element at depth d it holds the d elements above
    it and the edges between them: d + 1 images of distinct variables of
    C, and d <= |C| - 1.
    (b) C's image is all anonymous.  Its topmost element e has a type
    below some maximal reachable type t.  Child types grow with the
    parent's type, so the copy of t demands, round by round, children
    whose types contain those of e's children: C maps below the copy,
    with e at it, within |C| - 1 rounds.

    The bound is tight: under ``B <= exists r . B`` with data ``B(c0)``,
    the r-path of n variables starting at c0 needs n - 1 rounds.  An edge
    built for role R carries exactly the names of R's super-roles, so no
    atom maps onto it when none of them is named.  In (a) every edge above
    an image element, and in (b) every edge of C's image below the copy, is
    an atom's image, so no match needs a skipped successor, nor anything
    below one.  Skipping one never changes which other demands are
    witnessed: only edges of the demanded role's sub-roles witness it,
    and a sub-role of a kept role is kept.  Type copies are built for
    every maximal type, since they serve one-variable components, and
    shared: any fully anonymous match works below any copy of its type."""
    roles = frozenset(at.name for cq in query.disjuncts for at in cq.atoms
                      if isinstance(at, RoleFact))
    steps = max(max(len(cq.variables()) for cq in query.disjuncts) - 1, 0)
    return sat.model((steps, roles), lambda: _truncated_model(sat, steps, roles))


def _truncated_model(sat: Saturation, steps: int, roles) -> ChaseDb:
    """Type copies and ``steps`` successor rounds over the clash-free
    ``sat``, the rounds only along roles with a super-role named in
    ``roles`` (None: every role)."""
    onorm = sat.onorm
    facts: set[Fact] = set(sat.database.facts)
    types: dict[str, frozenset] = dict(sat.types)
    prov: dict[str, Provenance] = {a: Provenance("original") for a in sorted(types)}
    tnames = FreshVars("_t", frozenset(types))
    nnames = FreshVars("_n", frozenset(types))

    # type copies: one fresh constant per maximal implied type (projected to
    # the ontology's sub-concepts; names outside sub(O) cannot hold at
    # anonymous elements anyway), shared across constants
    copied: dict[frozenset, str] = {}
    for a in sorted(sat.types):
        reach = onorm.reachable_types(sat.types[a])
        projected = {frozenset(n for n in t
                               if n in onorm.name_concept and n != TOP_NAME)
                     for t in reach}
        projected.discard(frozenset())
        maximal = [t for t in projected if not any(t < u for u in projected)]
        for t in sorted(maximal, key=sorted):
            if t in copied:
                continue
            c = tnames.next()
            copied[t] = c
            types[c] = onorm.close(t)
            prov[c] = Provenance("type_copy", parent=a)
            facts.update(ConceptFact(n, c) for n in onorm.fact_names(t))

    # not the Database index: this map grows while the rounds below read it
    succ_index: dict[tuple, set] = {}

    def successors(a: str, role: Role) -> set:
        return succ_index.get((a, role), set())

    def index_fact(f: RoleFact) -> None:
        succ_index.setdefault((f.a, Role(f.name)), set()).add(f.b)
        succ_index.setdefault((f.b, Role(f.name, True)), set()).add(f.a)

    for f in facts:
        if isinstance(f, RoleFact):
            index_fact(f)

    def supers(role: Role) -> frozenset:
        return onorm.super_roles.get(role, frozenset({role}))

    def kept(role: Role) -> bool:
        return roles is None or any(sup.name in roles for sup in supers(role))

    # each round visits the elements the previous one added: an element
    # visited once has every demanded successor witnessed after its round,
    # and stays so, since its type is fixed and its successors only grow
    frontier = sorted(types)
    for round_no in range(steps):
        additions: list[tuple[str, Role, frozenset]] = []
        for a in frontier:
            by_role: dict[Role, list] = {}
            for role, child in onorm.children(types[a]):
                if kept(role):
                    by_role.setdefault(role, []).append(child)
            for role in sorted(by_role, key=str):
                # only inclusion-maximal successor types are demanded
                cands = by_role[role]
                maximal = sorted({c for c in cands
                                  if not any(c < other for other in cands)},
                                 key=sorted)
                for child in maximal:
                    witnessed = any(child <= types.get(b, frozenset())
                                    for b in successors(a, role))
                    if not witnessed:
                        additions.append((a, role, child))
        if not additions:
            break
        frontier = []
        for a, role, child in additions:
            # re-check: an earlier addition this round may witness it now
            if any(child <= types.get(b, frozenset()) for b in successors(a, role)):
                continue
            b = nnames.next()
            frontier.append(b)
            types[b] = child
            prov[b] = Provenance("anonymous", parent=a, depth=prov[a].depth + 1)
            for sup in sorted(supers(role), key=str):
                f = (RoleFact(sup.name, b, a) if sup.inverted
                     else RoleFact(sup.name, a, b))
                facts.add(f)
                index_fact(f)
            facts.update(ConceptFact(n, b) for n in onorm.fact_names(child))
            if len(types) > CHASE_NODE_CAP:
                raise CapExceeded("canonical model grew past the node cap")
        frontier.sort()

    return ChaseDb(Database(facts), MappingProxyType(prov))
