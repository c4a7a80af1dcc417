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
from typing import Optional

from .model import (
    CQ,
    Database,
    Dialect,
    OMQ,
    OmqlabError,
    Ontology,
    QueryError,
    RoleFact,
    Top,
    cq_as_database,
    cq_components,
    gaifman_graph,
    record,
)
from .entailment import Saturation, consistent_saturation
from .evaluation import EvalResult, _TreeEvaluator, _certain_answers
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
# Reach systems


def role_links(q: CQ) -> tuple[dict, dict]:
    """Each variable's successors and predecessors along the role atoms."""
    succ: dict[str, list] = {}
    pred: dict[str, list] = {}
    for at in q.atoms:
        if isinstance(at, RoleFact):
            succ.setdefault(at.a, []).append(at.b)
            pred.setdefault(at.b, []).append(at.a)
    return succ, pred


def reach(q: CQ, pair: tuple, links: Optional[tuple] = None) -> dict:
    """Leveled reach sets of a guarded pair (x, y) with y quantified:
    variable -> set of levels.  Level 0 sits at the anchor constant,
    level i >= 1 at depth i of the anonymous tree below it.  ``links`` is
    ``role_links(q)``, computed here when not given."""
    x, y = pair
    if y in q.answer_vars:
        raise QueryError("the second pair component must be quantified")
    cap = len(q.variables()) + 1  # deeper levels are unrealizable in a ditree
    succ, pred = links or role_links(q)
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


def guarded_pairs(q: CQ) -> list[tuple]:
    g = gaifman_graph(cq_as_database(q))
    out = []
    answers = set(q.answer_vars)
    for e in sorted(g.edges(), key=lambda e: sorted(e, key=str)):
        a, b = sorted(e)
        for x, y in ((a, b), (b, a)):
            if y not in answers:
                out.append((x, y))
    return out


@record
class ReachSystem:
    rep: tuple                   # canonical representative pair
    levels: dict
    anchors: tuple               # sorted constants where its dtree holds; () if none


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
        self.systems = self._reach_systems()
        # variables allowed to carry the anonymous marker: members of
        # full-query components whose tree witness the database satisfies
        self.exist_ok: frozenset = self._exist_ok()

    def _reach_systems(self) -> dict:
        """The reach system of every guarded pair, always over the full
        query, keyed by the pair and by its representative."""
        links = role_links(self.q)
        levels_of = functools.cache(lambda pair: reach(self.q, pair, links))

        # a member set's anchors, computed once while the systems are built:
        # where its dtree holds (self-loops at the root class stand for
        # database facts at the anchor), none when it has no dtree
        @functools.cache
        def anchors_of(members: frozenset) -> tuple:
            dt = dtree(CQ((), self.q.restrict(members).atoms), root_loops=True)
            return () if dt is None else tuple(sorted(self.trees.answers(dt)))

        answers = set(self.q.answer_vars)
        systems: dict = {}
        for pair in guarded_pairs(self.q):
            if pair in systems:
                continue  # the representative of an earlier pair
            levels = levels_of(pair)
            level0 = sorted(v for v, ls in levels.items() if 0 in ls)
            level1 = sorted(v for v, ls in levels.items() if 1 in ls)
            # the canonical representative must regenerate this very
            # system, else labels naming it would be ambiguous between
            # systems
            rep = next(cand for cand in ((x0, y0) for x0 in level0
                                         for y0 in level1 if y0 not in answers)
                       if cand == pair or levels_of(cand) == levels)
            if rep not in systems:
                systems[rep] = ReachSystem(rep, levels, anchors_of(frozenset(levels)))
            systems[pair] = systems[rep]
        return systems

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

    def prepare(sat: Saturation):
        return lambda cq: _prepare_game(cq, Q.ontology, d, sat, k)
    return _certain_answers(Q, d, prepare)


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
    # set: a variable's constant must hold the left-hand sides that the
    # query database entails at the variable, read off its saturated type.
    # Over these dialects the one left-hand side with an edge into its root
    # is a range restriction's exists inv(r) . top, which a type holds only
    # at constants with an r-predecessor.  It is entailed at x only through
    # a role atom of the query into x, which demands that predecessor too.
    lhs = {qsat.onorm.defname[ci.lhs] for ci in qsat.onorm.source.concept_inclusions()
           if not isinstance(ci.lhs, Top)}
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
