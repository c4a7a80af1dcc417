"""Certain-answer evaluation through labelings and the modified existential
pebble game (inverse-free dialects, full schema).

A labeling assigns each variable a label, a plain value: a database
constant (its name, a ``str``), the marker ``EXIST`` ("maps somewhere
anonymous") for fully anonymous components, or an anchored label, the
tuple (representative guarded pair, anchor constant) naming a reach
system and the database constant below which the variable's image
hangs.  Local conditions make labelings certify homomorphisms into the
chase; the game decides their existence with k+1 pebbles.

Three ambiguities in the source material are resolved here (the
agreement suite exercises all of them):

* the third reach rule closes upward from every reached variable, not
  just the pair's second component (the narrow reading loses certified
  answers on four-variable queries);
* the root-versus-deeper tests in the label-propagation conditions
  compare against level-1 membership (the tree root), and boundary
  dtrees tolerate self-loops at their root class, which stand for
  database facts at the anchor constant;
* anchored-label systems are those of the whole query (labels must glue
  across game positions), and the anonymous marker is admitted only on
  variables of full-query components whose tree witness the database
  satisfies - checking that per restriction window is provably too weak.
"""

from __future__ import annotations

import functools
import itertools
from operator import itemgetter

from .model import (
    CQ,
    ConceptFact,
    Database,
    Dialect,
    OMQ,
    OmqlabError,
    Ontology,
    QueryError,
    Role,
    RoleFact,
    cq_as_database,
    cq_components,
    record,
)
from .entailment import Saturation, consistent_saturation
from .evaluation import EvalResult, certain_answers
from .graphalg import dtree

PEBBLE_DIALECTS = {Dialect.EL, Dialect.EL_BOT, Dialect.ELH_BOT, Dialect.ELHDR_BOT}


# ---------------------------------------------------------------------------
# Labels


# the anonymous marker: neither a str nor a tuple, so no constant name or
# anchored label equals it
EXIST = object()


def is_const(l) -> bool:
    return isinstance(l, str)


# ---------------------------------------------------------------------------
# Tree queries


class _TreeEvaluator:
    """Certain answers of downward-tree queries, decided directly over the
    saturation and the type engine (no materialized canonical model).

    A variable's subtree is matched through its shape: the concept names
    at the variable and its child edges, each a sorted tuple of role names
    and the child's shape.  Shapes are interned as small integers across
    every tree query the evaluator serves, and the memo is keyed on (shape,
    constant or type), so equal subtrees of different queries, such as the
    suffixes of one path, are decided once."""

    def __init__(self, sat: Saturation):
        self.onorm = sat.onorm
        self.sat = sat
        self._shape_ids: dict = {}  # (concept names, child edges) -> shape
        self._shapes: list = []     # shape -> (concept names, child edges)
        self._memo: dict = {}

    def _parse_tree(self, q: CQ):
        """The shape of a tree query's root, and its root loops."""
        root = q.answer_vars[0]
        concept_at: dict = {}
        down: dict = {}
        loops: list = []
        for at in q.sorted_atoms():
            if isinstance(at, ConceptFact):
                concept_at.setdefault(at.a, []).append(at.name)
            elif at.a == at.b:
                if at.a != root:
                    raise QueryError("tree queries admit loops at the root only")
                loops.append(at.name)
            else:
                down.setdefault(at.a, {}).setdefault(at.b, []).append(at.name)

        def shape(v: str) -> int:
            node = (tuple(sorted(concept_at.get(v, ()))),
                    tuple(sorted({(tuple(sorted(names)), shape(w))
                                  for w, names in down.get(v, {}).items()})))
            if node not in self._shape_ids:
                self._shape_ids[node] = len(self._shapes)
                self._shapes.append(node)
            return self._shape_ids[node]
        return shape(root), loops

    def answers(self, q: CQ) -> frozenset:
        """Real constants at which the rooted tree query certainly holds."""
        root, loops = self._parse_tree(q)
        return frozenset(e for e in sorted(self.sat.types)
                         if all(RoleFact(n, e, e) in self.sat.database.facts for n in loops)
                         and self._match_real(root, e))

    def holds_somewhere(self, q: CQ) -> bool:
        """Does the rooted tree query match anywhere in the canonical model?"""
        root, loops = self._parse_tree(q)
        return (not loops and any(self._match_anon(root, t) for a in sorted(self.sat.types)
                                  for t in self.onorm.reachable_types(self.sat.types[a]))
                or bool(self.answers(q)))

    def _match_real(self, s: int, e: str) -> bool:
        """Does a subtree of shape ``s`` match at the real constant ``e``?
        Memoized next to ``_match_anon`` (a constant never equals a type),
        so each (shape, constant) pair is decided once, and a tree query of
        n edges takes at most |dom| + n * |facts| calls."""
        key = (s, e)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        concepts, kids = self._shapes[s]
        names = self.sat.types.get(e, frozenset())
        ok = all(n in names for n in concepts)
        for role_names, w in kids:
            if not ok:
                break
            succs = frozenset.intersection(
                *(self.sat.database.successors(e, Role(rn)) for rn in role_names))
            ok = (any(self._match_real(w, b) for b in sorted(succs))
                  or self._match_child(w, names, role_names))
        self._memo[key] = ok
        return ok

    def _match_anon(self, s: int, t: frozenset) -> bool:
        """Does a subtree of shape ``s`` match at an anonymous term of type
        ``t``?  Calls descend to child shapes, so none recurs on its key."""
        key = (s, t)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        concepts, kids = self._shapes[s]
        ok = (all(n in t for n in concepts)
              and all(self._match_child(w, t, role_names) for role_names, w in kids))
        self._memo[key] = ok
        return ok

    def _match_child(self, w: int, t: frozenset, role_names: tuple) -> bool:
        """Does a subtree of shape ``w`` match at an anonymous successor of
        a term of type ``t``, along a role below every role of ``role_names``?"""
        for role, child in self.onorm.children(t):
            sups = self.onorm.super_roles.get(role, {role})
            if all(Role(rn) in sups for rn in role_names) \
                    and self._match_anon(w, child):
                return True
        return False


# ---------------------------------------------------------------------------
# Reach systems


def guarded_pairs(q: CQ) -> list[tuple]:
    """Both orders of each edge of the Gaifman graph, edges in sorted
    order, that have a quantified second component."""
    answers = set(q.answer_vars)
    edges = sorted({tuple(sorted((at.a, at.b))) for at in q.atoms
                    if isinstance(at, RoleFact) and at.a != at.b})
    return [(x, y) for a, b in edges for x, y in ((a, b), (b, a)) if y not in answers]


@record
class ReachSystem:
    rep: tuple                   # canonical representative pair
    levels: dict
    anchors: tuple               # sorted constants where its dtree holds; () if none


def reach_systems(q: CQ, anchors_of) -> dict:
    """The reach system of every guarded pair (x, y) of ``q``, keyed by the
    pair and by its representative; ``anchors_of(members)`` gives the
    anchors of a system over the variable set ``members``.  Levels map a
    variable to its set of levels: level 0 sits at the anchor constant,
    level i >= 1 at depth i of the anonymous tree below it, up to
    cap = |vars| + 1 (deeper levels are unrealizable in a ditree).

    The reach set of (x, y) starts from x@0 and y@1 and closes under two
    steps along each role atom r(u, w): forward from u@i to w@(i+1) for
    1 <= i < cap, and upward from w@(i+1) to u@i.  Level 0 takes no step,
    and between levels >= 1 the two steps undo each other.  So the nodes
    at levels >= 1 that the pair reaches are C, the component of y@1 in
    the undirected graph of those steps, which one union-find pass finds
    for every pair at once.  The rest are x@0 and up0(C), the sources u@0
    of the atoms r(u, w) with w@1 in C: reach((x, y)) = {x@0} + C + up0(C).

    A system's representative is the first candidate (x0, y0) in sorted
    order, x0 != y0, x0 at level 0 and y0 quantified at level 1, whose own
    reach set is the pair's, so that a label names one system.  As y0@1
    lies in C, that set is {x0@0} + C + up0(C), and the sets agree iff x
    and x0 are both in up0(C), or x0 = x (guarded pairs have x != y).
    The pair (x, y) is a candidate itself, so one exists."""
    cap = len(q.variables()) + 1
    links = [(at.a, at.b) for at in q.atoms if isinstance(at, RoleFact)]
    # node -> its component's node set; each step merges the smaller set
    # into the larger
    comp = {(v, i): {(v, i)} for v in q.variables() for i in range(1, cap + 1)}
    for u, w in links:
        for i in range(1, cap):
            a, b = sorted((comp[u, i], comp[w, i + 1]), key=len, reverse=True)
            if a is not b:
                a |= b
                comp.update(dict.fromkeys(b, a))

    answers = set(q.answer_vars)
    systems: dict = {}
    anchors: dict = {}  # member set -> its anchors, shared by its systems
    for x, y in guarded_pairs(q):
        if (x, y) in systems:
            continue  # the representative of an earlier pair
        c = comp[y, 1]
        ups = {u for u, w in links if (w, 1) in c}
        level1 = sorted(v for v, i in c if i == 1 and v not in answers)
        rep = (min((x0, y0) for x0 in ups for y0 in level1 if x0 != y0) if x in ups
               else (x, next(y0 for y0 in level1 if y0 != x)))
        if rep not in systems:
            levels: dict = {}
            for v, i in [*c, *((u, 0) for u in ups | {x})]:
                levels.setdefault(v, set()).add(i)
            members = frozenset(levels)
            if members not in anchors:
                anchors[members] = anchors_of(members)
            systems[rep] = ReachSystem(rep, levels, anchors[members])
        systems[x, y] = systems[rep]
    return systems


def exists_mccs(q: CQ) -> list[frozenset]:
    """Atom sets of the maximal connected components containing only
    quantified variables."""
    answers = set(q.answer_vars)
    return sorted((atoms for atoms in cq_components(q)
                   if not any(t in answers for at in atoms for t in at.terms())),
                  key=lambda s: sorted(map(str, s)))


# ---------------------------------------------------------------------------
# D-labelings


class LabelContext:
    """Memoized machinery for checking labelings of the CQ ``q`` against
    a database, over ``sat``, its clash-free saturation."""

    def __init__(self, q: CQ, sat: Saturation, const_requirements=None):
        # var -> definitional names that the saturated type of the
        # variable's constant must hold (stands in for attaching entailed
        # concept copies)
        self.const_requirements = const_requirements or {}
        self.q = q
        self.types = sat.types
        self.chminus = sat.database
        self.trees = _TreeEvaluator(sat)
        self._windows: dict = {}
        # every guarded pair's reach system, always over the full query
        self.systems = reach_systems(q, self._anchors)
        # variables allowed to carry the anonymous marker: members of
        # full-query components whose tree witness the database satisfies
        self.exist_ok: frozenset = self._exist_ok()

    def _anchors(self, members: frozenset) -> tuple:
        """Where the dtree of a system's members holds (self-loops at the
        root class stand for database facts at the anchor); none when
        they have no dtree."""
        dt = dtree(CQ((), self.q.restrict(members).atoms), root_loops=True)
        return () if dt is None else tuple(sorted(self.trees.answers(dt)))

    def _exist_ok(self) -> frozenset:
        ok = set()
        for atoms in exists_mccs(self.q):
            dt = dtree(CQ((), atoms))
            if dt is not None and self.trees.holds_somewhere(dt):
                ok.update(t for at in atoms for t in at.terms())
        return frozenset(ok)

    def window(self, on_vars: frozenset) -> tuple:
        """The restriction of the query to ``on_vars`` and the answer
        variables, as its answer variables, variables, atoms and role atoms."""
        hit = self._windows.get(on_vars)
        if hit is None:
            sub = self.q.restrict(set(on_vars) | set(self.q.answer_vars))
            hit = (sub.answer_vars, sub.variables(), tuple(sub.atoms),
                   tuple(at for at in sub.atoms if isinstance(at, RoleFact)))
            self._windows[on_vars] = hit
        return hit

    # -- the conditions ------------------------------------------------------

    def is_labeling(self, labels: dict, on_vars: frozenset) -> bool:
        """Do the labeling conditions hold on the restriction of the query
        to ``on_vars`` (plus the answer variables)?  Label values:
        constant names, ``EXIST``, or anchored labels ``(pair, constant)``."""
        answer_vars, variables, atoms, role_atoms = self.window(on_vars)
        for x in answer_vars:
            if not is_const(labels.get(x)):
                return False
        const_vars = {v for v in variables if is_const(labels.get(v))}
        for v in const_vars:
            if not self.const_requirements.get(v, frozenset()) <= self.types[labels[v]]:
                return False
        for at in atoms:
            terms = at.terms()
            if all(t in const_vars for t in terms):
                fact = at.rename({t: labels[t] for t in terms})
                if fact not in self.chminus.facts:
                    return False
        for v in variables:
            lv = labels.get(v)
            if lv is EXIST and v not in self.exist_ok:
                return False
            if isinstance(lv, tuple):
                (px, py), anchor = lv
                if v not in self.systems[px, py].levels:
                    return False
                # grounding: the representative pair pins its own variables
                lx = labels.get(px)
                if lx is not None and lx != anchor:
                    return False
                ly = labels.get(py)
                if ly is not None and ly != lv:
                    return False
        return all(self._role_atom_ok(at, labels) for at in role_atoms)

    def _role_atom_ok(self, at: RoleFact, labels: dict) -> bool:
        lx, ly = labels.get(at.a), labels.get(at.b)
        # nothing anonymous points back into the database part
        if is_const(ly) and not is_const(lx):
            return False
        # anchored sources push their anchor onto targets
        if isinstance(lx, tuple) and ly != lx:
            return False
        # anchored targets constrain their sources by tree level.  A constant
        # source needs no level-0 case: the boundary check below makes it
        # the anchor and puts the label's pair (px, py) at levels 0 and 1 of
        # reach((source, target)).  There py's 1 derives from the target's 1
        # by single steps through levels >= 1 (level 0 derives nothing), and
        # such steps reverse, forward into upward and back; so the target
        # is at level 1 of reach((px, py)), its own system
        if isinstance(ly, tuple):
            pair, anchor = ly
            ls = self.systems[pair].levels[at.b]  # a member: checked above
            if not (1 in ls and lx == anchor or (ls - {0, 1}) and lx == ly):
                return False
        # a constant-to-anonymous edge needs an eligible, satisfied,
        # well-anchored boundary pair
        for x, y in ((at.a, at.b), (at.b, at.a)):
            lxx, lyy = labels.get(x), labels.get(y)
            if not (is_const(lxx) and lyy is not None and not is_const(lyy)):
                continue
            if y in self.q.answer_vars:
                return False
            sysm = self.systems[x, y]
            if lxx not in sysm.anchors or not isinstance(lyy, tuple) or lyy[1] != lxx:
                return False
            (px, py), _ = lyy
            if 0 not in sysm.levels.get(px, ()) or 1 not in sysm.levels.get(py, ()):
                return False
        return True


# ---------------------------------------------------------------------------
# The modified existential pebble game


def _check_pebble_input(Q: OMQ) -> None:
    if Q.ontology.dialect not in PEBBLE_DIALECTS:
        raise OmqlabError(
            f"labelings are defined for the inverse-free dialects, got "
            f"{Q.ontology.dialect.value}")
    if not Q.schema.full:
        raise OmqlabError("labelings require the full schema")


def evaluate_pebble(Q: OMQ, d: Database, k: int) -> EvalResult:
    """Certain answers through the (k+1)-pebble labeling game, one game
    per disjunct and candidate tuple.  Exact on width-k-equivalent inputs;
    otherwise a sound over-approximation of the certain answers."""
    _check_pebble_input(Q)
    if k < 1:
        raise OmqlabError(f"the game needs k >= 1, got {k}")

    def prepare(sat: Saturation, _live):
        return lambda cq: _prepare_game(cq, Q.ontology, d, sat, k)
    return certain_answers(Q, d, prepare)


def _prepare_game(q: CQ, o: Ontology, d: Database, sat: Saturation, k: int):
    """The game's work that does not depend on the candidate tuple, for
    the CQ ``q`` under ``o`` over ``d`` with its clash-free saturation
    ``sat``: the consistency of the query database, the labeling context
    and each variable's candidate labels.  Returns the test for one
    candidate tuple."""
    qsat = consistent_saturation(cq_as_database(q), o)
    if qsat is None:
        return lambda a: False
    # Entailed concept copies are folded into per-variable requirements
    # instead of fresh atoms, so the game runs on the original variable
    # set: a variable's constant must hold the left-hand sides (the names
    # of ``NormalOntology.left_sides``) that the query database entails at
    # the variable, read off its saturated type.  Over these dialects the
    # one left-hand side with an edge into its root is a range
    # restriction's exists inv(r) . top, which a type holds only at
    # constants with an r-predecessor.  It is entailed at x only through a
    # role atom of the query into x, which demands that predecessor too.
    lhs = frozenset(qsat.onorm.left_sides.values())
    ctx = LabelContext(q, sat, {x: lhs & t for x, t in qsat.types.items()})

    quantified = sorted(q.quantified_vars())
    consts = sorted(d.dom)
    candidates: dict[str, list] = {v: consts + [EXIST] for v in quantified}
    for sysm in {s.rep: s for s in ctx.systems.values()}.values():
        # a pair and its representative share one system: the labels are
        # the representative's.  Anchors whose tree witness fails at c can
        # never occur in a valid full labeling.
        labels = [(sysm.rep, c) for c in sysm.anchors]
        for v in sysm.levels:
            if v in candidates:
                candidates[v].extend(labels)
    size = min(k + 1, len(quantified))
    return functools.partial(_play, ctx, quantified, size, candidates)


def _play(ctx: LabelContext, quantified: list, size: int, candidates: dict,
          a: tuple) -> bool:
    """The game for one candidate tuple: pin the answer variables, build
    the table of valid labelings of every pebble set of at most ``size``
    variables, smallest first, then let Duplicator answer on the maximal
    sets (a smaller position is a restriction of a maximal one).

    Besides the pinned answers, each condition is unary (constant
    requirements, ``EXIST`` eligibility, system membership) or binary (an
    atom's facts, ``_role_atom_ok``, the grounding of an anchored label's
    pair), so it holds on V when it holds on V's sets of one or two
    variables.  A labeling of such a set enters its table when it passes
    the conditions and its restrictions one variable smaller are in their
    tables; a larger set's labeling enters when those restrictions are, as
    in k-consistency (Dalmau, Kolaitis and Vardi, CP 2002).  So the tables
    hold exactly the labelings that pass the conditions on their sets.  An
    empty table is a position where Spoiler wins at once."""
    pins = dict(zip(ctx.q.answer_vars, a))
    if not ctx.is_labeling(pins, frozenset()):
        return False
    # a set's labelings are tuples aligned with its sorted variables; each
    # set extends the table of its first m-1 variables by its last one
    tables: dict[tuple, set] = {(): {()}}
    for m in range(1, size + 1):
        for V in itertools.combinations(quantified, m):
            on_vars = frozenset(V)
            smaller = [(i, tables[V[:i] + V[i + 1:]]) for i in range(m - 1)]
            table = set()
            for t in tables[V[:-1]]:
                for l in candidates[V[-1]]:
                    f = t + (l,)
                    for i, sub in smaller:
                        if f[:i] + f[i + 1:] not in sub:
                            break
                    else:
                        if m > 2 or ctx.is_labeling(pins | dict(zip(V, f)), on_vars):
                            table.add(f)
            if not table:
                return False
            tables[V] = table
    return _duplicator_survives(list(itertools.combinations(quantified, size)),
                                tables)


def _duplicator_survives(vsets: list, live: dict) -> bool:
    """Greatest fixpoint of the game over the maximal pebble sets ``vsets``
    (sorted tuples of equal size) and their tables ``live``, which it
    shrinks in place: a labeling of V dies when some set W that shares all
    but one of V's variables has no live labeling agreeing with it on
    V & W.  Duplicator survives when no table empties.

    Supports over sets that share fewer variables follow, as in Dalmau,
    Kolaitis and Vardi (CP 2002).  V reaches W through sets that each
    share all but one variable with the one before, swapping a variable of
    V - W for one of W - V at a time.  At each step the fixpoint has a live
    labeling that agrees with the one before on the shared variables,
    which hold V & W, so the last agrees with the first on V & W.  The
    fixpoint is therefore the one with supports over every pair of sets."""
    # (V, W) -> the projections of V's and W's labelings onto V & W, and
    # W -> the sets V whose labelings W supports
    keys: dict = {}
    around: dict = {V: [] for V in vsets}
    for V, W in itertools.permutations(vsets, 2):
        at = [(i, W.index(v)) for i, v in enumerate(V) if v in W]
        if len(at) == len(V) - 1:
            keys[V, W] = (itemgetter(*(i for i, _ in at)),
                          itemgetter(*(j for _, j in at)))
            around[W].append(V)
    work = dict.fromkeys(keys)  # an ordered set of the semijoins V by W to run
    while work:
        V, W = work.popitem()[0]
        on_v, on_w = keys[V, W]
        agree = set(map(on_w, live[W]))
        kept = {f for f in live[V] if on_v(f) in agree}
        if len(kept) < len(live[V]):
            if not kept:
                return False
            live[V] = kept
            work.update(((U, V), None) for U in around[V])
    return True
