"""Ontology normal form, subsumption, type computation, database
saturation, and consistency.

The engine works on a normalized rule set over concept *names*:

    top <= A        A <= bot        A1 & ... & An <= A
    exists r . A <= B               A <= exists r . B

plus role inclusions.  Every subconcept of the ontology (and any extra
concepts a caller supplies) receives a definitional name wired in both
directions, so membership of a complex concept at an element is always
readable off the element's name type.  Definitional names (``_n.<k>``)
and the name of top (``_top.``) hold a dot, which no name in an
ontology, database or query file can, so they never meet a user's name.

Subsumption and friends are answered from the canonical structure of a
seed: a tree where a node of type t has one child per successor rule
``A <= exists r . B`` with A in t, seeded with B and the names t forces
downward on it.  Types are the least solution of

    X(s) = close(s | the names each child of X(s) forces upward),

where ``_flow`` gives the forced names either way.  A child's seed
depends only on its parent's type, so the seeds reached from a seed form
a finite system closed under child seeds, one unknown per seed.  Its
least solution is the fixpoint of whole-tree passes (rerun a node update
until a pass changes nothing): both grow types from ``close(seed)`` by
derivable names only, so they stay below it, and both stop only where
every type meets its equation.  And X(X(s)) = X(s): X(s) holds s, and
with the same children it meets the equation of the seed X(s).  So each
solved type is also kept under itself, and the children and reachable
types of a type met before are lookups.  Every map lives on the
``NormalOntology``, which ``normalize`` caches per process, and stops
growing at 100,000 entries.  The names an edge of each role forces
(``_flow``'s pairs) and the inverse of each successor rule's role are
kept there too.

``saturate`` closes a database's types over its role facts grouped by
role and direction, so each existential premise reads only its own
role's pairs.  ``Saturation.names`` bounds from above the names that
facts of the universal model carry, which lets evaluation skip
disjuncts that cannot match.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from .model import (
    Atomic,
    BOT,
    Bot,
    Concept,
    ConceptFact,
    ConceptInclusion,
    Conj,
    Database,
    Dialect,
    ELHI_FAMILY,
    DLLITE_FAMILY,
    Exists,
    Fact,
    OmqlabError,
    Ontology,
    Role,
    RoleFact,
    TOP,
    Top,
    record,
)

TOP_NAME = "_top."


@record
class ExistsRule:
    """``exists role . filler_name <= head`` (detection direction)."""

    role: Role
    filler: str
    head: str


@record
class SuccRule:
    """``body <= exists role . succ`` (generation direction)."""

    body: str
    role: Role
    succ: str


class NormalOntology:
    """Normalized rule system plus the fresh-name map for sub-concepts, and
    the least-fixpoint evaluation of canonical structures over name types."""

    def __init__(self, source: Ontology, extra_concepts: Iterable[Concept] = ()):
        if source.dialect not in ELHI_FAMILY:
            raise OmqlabError(
                f"the reasoning engine handles the ELHI_bot family, got "
                f"{source.dialect.value}")
        self.source = source
        self.top_rules: set[str] = {TOP_NAME}
        self.bot_names: set[str] = set()
        self.conj_rules: list[tuple[frozenset, str]] = []
        self.exists_rules: list[ExistsRule] = []
        self.succ_rules: list[SuccRule] = []
        self.defname: dict[Concept, str] = {TOP: TOP_NAME}
        self.name_concept: dict[str, Concept] = {TOP_NAME: TOP}
        self._fresh = itertools.count()

        inclusions = source.concept_inclusions()
        subs: set[Concept] = {TOP}
        for ci in inclusions:
            for side in (ci.lhs, ci.rhs):
                subs.update(side.subconcepts())
        for c in extra_concepts:
            subs.update(c.subconcepts())
        subs.discard(BOT)
        self.sub_concepts: tuple = tuple(sorted(subs, key=lambda c: c.key()))
        for c in self.sub_concepts:
            self._define(c)

        for ci in inclusions:
            if isinstance(ci.rhs, Bot):
                self.bot_names.add(self.defname[ci.lhs])
            else:
                self.conj_rules.append(
                    (frozenset({self.defname[ci.lhs]}), self.defname[ci.rhs]))

        self.super_roles = role_closure(source)
        self._dedupe()
        self._inverse = {r.role: r.role.inverse() for r in self.succ_rules}
        self._flows: dict[Role, tuple] = {}             # role -> (filler, head)s
        self._types: dict[frozenset, frozenset] = {}    # seed -> X(seed)
        self._children: dict[frozenset, list] = {}      # type -> children
        self._reachable: dict[frozenset, frozenset] = {}

    # -- construction ------------------------------------------------------

    def _define(self, c: Concept) -> str:
        """Definitional name for ``c``, detection and generation wired."""
        if c in self.defname:
            return self.defname[c]
        if isinstance(c, Atomic):
            self.defname[c] = c.name
            self.name_concept.setdefault(c.name, c)
            return c.name
        name = f"_n.{next(self._fresh)}"
        self.defname[c] = name
        self.name_concept[name] = c
        if isinstance(c, Conj):
            parts = [self._define(p) for p in c.parts]
            self.conj_rules.append((frozenset(parts), name))
            for p in parts:
                self.conj_rules.append((frozenset({name}), p))
        elif isinstance(c, Exists):
            filler = self._define(c.filler)
            self.exists_rules.append(ExistsRule(c.role, filler, name))
            self.succ_rules.append(SuccRule(name, c.role, filler))
        else:
            raise ValueError(f"cannot normalize {c!r}")
        return name

    def _dedupe(self) -> None:
        self.conj_rules = sorted(set(self.conj_rules), key=lambda r: (sorted(r[0]), r[1]))
        self.exists_rules = sorted(set(self.exists_rules),
                                   key=lambda r: (str(r.role), r.filler, r.head))
        self.succ_rules = sorted(set(self.succ_rules),
                                 key=lambda r: (r.body, str(r.role), r.succ))

    # -- views ---------------------------------------------------------------

    def concepts_of(self, names: Iterable[str]) -> frozenset:
        """Project a name type onto sub-concepts (inert names drop out)."""
        out = set()
        for n in names:
            c = self.name_concept.get(n)
            if c is not None and c in self.defname:
                out.add(c)
        out.discard(TOP)
        return frozenset(out)

    def fact_names(self, t: Iterable[str]) -> list:
        """The names of the type ``t`` that its element carries as concept
        facts, sorted: concept names, including a database's names outside
        sub(O); definitional names and top stay out."""
        return [n for n in sorted(t)
                if (c := self.name_concept.get(n)) is None or isinstance(c, Atomic)]

    # -- the type engine -----------------------------------------------------

    def close(self, names: frozenset) -> frozenset:
        t = set(names) | self.top_rules
        changed = True
        while changed:
            changed = False
            for body, head in self.conj_rules:
                if head not in t and body <= t:
                    t.add(head)
                    changed = True
        return frozenset(t)

    def _flow(self, t: frozenset, role: Role) -> frozenset:
        """Names forced on an element with a ``role`` edge to an element of
        type ``t``: upward from a child reached by ``role``, and downward,
        as ``_flow(parent, role.inverse())``, onto that child."""
        pairs = self._flows.get(role)
        if pairs is None:
            sups = self.super_roles.get(role, frozenset({role}))
            pairs = tuple((r.filler, r.head) for r in self.exists_rules
                          if r.role in sups)
            _keep(self._flows, role, pairs)
        return frozenset(head for filler, head in pairs if filler in t)

    def _child_seed(self, t: frozenset, rule: SuccRule) -> frozenset:
        return self._flow(t, self._inverse[rule.role]) | {rule.succ}

    def root_type(self, seed: Iterable[str]) -> frozenset:
        """X(seed): the type of the canonical root of ``seed``."""
        seed = frozenset(seed)
        return self._types.get(seed) or self._solve(seed)

    def children(self, seed: Iterable[str]) -> list:
        """The (role, child type) pairs of the canonical root of ``seed``,
        one per successor rule whose body the root's type holds, in
        succ_rules order."""
        t = self.root_type(seed)
        kids = self._children.get(t)
        if kids is None:
            kids = [(rule.role, self.root_type(self._child_seed(t, rule)))
                    for rule in self.succ_rules if rule.body in t]
            _keep(self._children, t, kids)
        return kids

    def reachable_types(self, seed: Iterable[str]) -> frozenset:
        """The types of the canonical structure of ``seed``."""
        t = self.root_type(seed)
        reach = self._reachable.get(t)
        if reach is None:
            seen, stack = {t}, [t]
            while stack:
                new = {child for _, child in self.children(stack.pop())} - seen
                seen |= new
                stack += new
            reach = frozenset(seen)
            _keep(self._reachable, t, reach)
        return reach

    def is_unsat(self, seed: Iterable[str]) -> bool:
        return any(t & self.bot_names for t in self.reachable_types(seed))

    def _solve(self, seed: frozenset) -> frozenset:
        """Solve ``seed`` and every seed it reaches by a worklist, and keep
        them all: a seed is solved again when its type grows (its child
        seeds change) or a child type it reads grows."""
        val = {seed: self.close(seed)}
        readers: dict[frozenset, set] = {}
        work = [seed]
        while work:
            s = work.pop()
            t = val[s]
            names = set(t)
            for rule in self.succ_rules:
                if rule.body not in t:
                    continue
                cs = self._child_seed(t, rule)
                child = val.get(cs) or self._types.get(cs)
                if child is None:
                    child = val[cs] = self.close(cs)
                    work.append(cs)
                readers.setdefault(cs, set()).add(s)
                names |= self._flow(child, rule.role)
            if not names <= t:
                val[s] = self.close(frozenset(names))
                work.extend(readers.get(s, ()))
                work.append(s)
        for s, t in val.items():
            _keep(self._types, s, t)
            _keep(self._types, t, t)
        return val[seed]


def _keep(cache: dict, key, value) -> None:
    """Store in a process-scope engine map, up to its cap."""
    if len(cache) < 100000:
        cache[key] = value


def role_closure(o: Ontology) -> dict:
    """Reflexive-transitive super-role map, closed under inversion."""
    roles: set[Role] = set()
    for ci in o.concept_inclusions():
        for side in (ci.lhs, ci.rhs):
            roles.update(side.roles())
    edges: set[tuple[Role, Role]] = set()
    for ri in o.role_inclusions():
        roles.add(ri.lhs)
        roles.add(ri.rhs)
        edges.add((ri.lhs, ri.rhs))
        edges.add((ri.lhs.inverse(), ri.rhs.inverse()))
    roles |= {r.inverse() for r in roles}
    sup = {r: {r} for r in roles}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            for src, targets in sup.items():
                if a in targets and b not in targets:
                    targets.add(b)
                    changed = True
    return {r: frozenset(ss) for r, ss in sup.items()}


# ---------------------------------------------------------------------------
# Public operations


_NORMAL_CACHE: dict = {}


def normalize(o: Ontology, extra_concepts: Iterable[Concept] = ()) -> NormalOntology:
    """Normal form of the ``elhi_view`` of an ontology, cached per input
    and per view: the view is built only on a miss, and a DL-Lite ontology
    shares the form of an ELHI_bot one with the same view."""
    extra = tuple(sorted(extra_concepts, key=lambda c: c.key()))
    hit = _NORMAL_CACHE.get((o.axioms, o.dialect, extra))
    if hit is None:
        view = elhi_view(o)
        hit = _NORMAL_CACHE.get((view.axioms, view.dialect, extra))
        if hit is None:
            hit = NormalOntology(view, extra_concepts)
        if len(_NORMAL_CACHE) < 10000:
            _NORMAL_CACHE[o.axioms, o.dialect, extra] = hit
            _NORMAL_CACHE[view.axioms, view.dialect, extra] = hit
    return hit


def subsumes(o: Ontology, c: Concept, d: Concept) -> bool:
    """``o |= c <= d``, decided on the canonical structure of ``c``."""
    if isinstance(d, Top):
        return True
    if isinstance(c, Bot):
        return True
    extra = [x for x in (c, d) if not x.contains_bot()]
    onorm = normalize(o, extra)
    if c.contains_bot():
        return True
    seed = frozenset({onorm.defname[c]})
    if onorm.is_unsat(seed):
        return True
    if d.contains_bot():
        return False
    return onorm.defname[d] in onorm.root_type(seed)


@record
class Saturation:
    """Result of saturating a database: closed facts and per-constant types."""

    database: Database                 # role facts + concept-name facts, closed
    types: dict                        # constant -> frozenset of names
    onorm: NormalOntology

    def clashes(self, o: Ontology) -> bool:
        """A bot clash, or the roles of a disjointness axiom of ``o`` on one
        pair of the closed role facts."""
        disjoint = o.role_disjointness()
        if disjoint:
            pairs: dict[tuple, set] = {}
            for f in self.database.role_facts():
                pairs.setdefault((f.a, f.b), set()).add(f.name)
            if any(set(dis.roles) <= names for dis in disjoint for names in pairs.values()):
                return True
        return any(self.onorm.is_unsat(t) for t in self.types.values())

    def names(self) -> frozenset:
        """Every name that a fact of the universal model of the saturated
        data can carry: the names of the saturated facts, the
        ``fact_names`` of every type reachable from a constant's type, and
        the names of the super-roles of those types' child roles.

        It is a superset.  An anonymous element hangs below a constant, and
        its type lies inside a reachable type of that constant's type:
        child types grow with the parent's type, so by induction on depth
        an element below one of type u has the role and a type inside that
        of a child of u, and u's children are reachable.  An edge to it
        carries exactly the super-roles of its child role.  So a disjunct
        naming anything else has no match in the universal model."""
        onorm = self.onorm
        reach: set = set()
        for t in self.types.values():
            reach |= onorm.reachable_types(t)
        out = set(self.database.names())
        for t in reach:
            out.update(onorm.fact_names(t))
            for role, _ in onorm.children(t):
                out.update(s.name for s in onorm.super_roles.get(role, (role,)))
        return frozenset(out)


def saturate(d: Database, o: Ontology | NormalOntology) -> Saturation:
    """Close a database under consequence: concept facts entailed by each
    constant's conjunction, existential premises along explicit role
    facts, and the role hierarchy."""
    onorm = o if isinstance(o, NormalOntology) else normalize(o)

    role_facts: set[RoleFact] = set()
    types: dict[str, set] = {a: set() for a in d.dom}
    for f in d.facts:
        if isinstance(f, ConceptFact):
            types.setdefault(f.a, set()).add(f.name)
        else:
            role_facts.add(f)

    # role hierarchy closure
    closed: set[RoleFact] = set()
    frontier = list(role_facts)
    while frontier:
        f = frontier.pop()
        if f in closed:
            continue
        closed.add(f)
        for s in onorm.super_roles.get(Role(f.name), frozenset({Role(f.name)})):
            g = RoleFact(s.name, f.b, f.a) if s.inverted else RoleFact(s.name, f.a, f.b)
            if g not in closed:
                frontier.append(g)
    # the closed role facts as (source, target) pairs per role name and
    # direction, so that each exists rule visits only its own role's pairs
    along: dict[tuple, list] = {}
    for f in closed:
        along.setdefault((f.name, False), []).append((f.a, f.b))
        along.setdefault((f.name, True), []).append((f.b, f.a))
    rules = [(rule.filler, rule.head, pairs) for rule in onorm.exists_rules
             if (pairs := along.get((rule.role.name, rule.role.inverted)))]

    changed = True
    while changed:
        changed = False
        for a in sorted(types):
            t = onorm.root_type(frozenset(types[a]))
            if not t <= types[a]:
                types[a] |= t
                changed = True
        for filler, head, pairs in rules:
            for a, b in pairs:
                if filler in types[b] and head not in types[a]:
                    types[a].add(head)
                    changed = True

    db_facts: set[Fact] = set(closed)
    for a, t in types.items():
        db_facts.update(ConceptFact(n, a) for n in onorm.fact_names(t))
    return Saturation(Database(db_facts),
                      {a: frozenset(t) for a, t in types.items()}, onorm)


def elhi_view(o: Ontology) -> Ontology:
    """The ELHI_bot part of an ontology: DL-Lite inclusions translate
    directly, except the vacuous ones with ``bot`` on the left, which
    ELHI_bot does not admit; role disjointness folds into unsatisfiable
    existentials; functionality is handled by the callers that own it."""
    if o.dialect in ELHI_FAMILY:
        return o
    if o.dialect not in DLLITE_FAMILY:
        raise OmqlabError(o.dialect.value)
    axioms: list = [ci for ci in o.concept_inclusions() if not ci.lhs.contains_bot()]
    axioms += o.role_inclusions()
    sup = role_closure(Ontology(axioms, Dialect.ELHI_BOT))
    for dis in o.role_disjointness():
        targets = set(dis.roles)
        for r in sorted({x for x in sup} | {Role(n) for n in targets}, key=str):
            if r.inverted:
                continue
            covered = {s.name for s in sup.get(r, frozenset({r})) if not s.inverted}
            if targets <= covered:
                axioms.append(ConceptInclusion(Exists(r, TOP), BOT))
                axioms.append(ConceptInclusion(Exists(r.inverse(), TOP), BOT))
    return Ontology(axioms, Dialect.ELHI_BOT)


def satisfies_functionality(d: Database, funcs: Iterable[str]) -> bool:
    """No constant of ``d`` has two successors along a role in ``funcs``."""
    funcs = frozenset(funcs)
    return all(len(bs) < 2 for (name, _), bs in d.index.succ.items()
               if name in funcs)


def consistent_saturation(d: Database, o: Ontology) -> Optional[Saturation]:
    """The saturation of ``d`` under ``o`` (ELHI_bot or DL-Lite), or None
    when ``d`` is inconsistent with ``o``."""
    if (o.dialect in DLLITE_FAMILY
            and not satisfies_functionality(d, o.functional_roles())):
        return None
    return clash_free_saturation(d, o)


def clash_free_saturation(d: Database, o: Ontology) -> Optional[Saturation]:
    """The saturation of ``d`` under ``o``, or None on a bot or role
    disjointness clash.  Such a clash carries over to every database that
    ``d`` maps into; a functionality violation, not checked here, need not,
    as the map may merge the two successors."""
    sat = saturate(d, normalize(o))
    return None if sat.clashes(o) else sat


def is_consistent(d: Database, o: Ontology) -> bool:
    """Consistency of a database with an ontology (ELHI_bot or DL-Lite)."""
    return consistent_saturation(d, o) is not None
