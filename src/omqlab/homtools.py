"""Homomorphisms between queries and databases, contraction enumeration,
cores, and isomorphism.

Homomorphism search is plain backtracking with forward pruning; branching
order is descending Gaifman degree with lexicographic tie-break, candidate
order is lexicographic, so the first solution is deterministic.  The
canonical form, by individualization and refinement, is the package's
one isomorphism test.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .model import (
    CQ,
    ConceptFact,
    Database,
    RoleFact,
    cq_as_database,
    gaifman_graph,
)


class HomError(ValueError):
    pass


def _var_order(q: CQ, fixed: Iterable[str] = ()) -> list[str]:
    g = gaifman_graph(cq_as_database(q))
    deg = {v: g.degree(v) for v in q.variables()}
    free = [v for v in q.variables() if v not in set(fixed)]
    return sorted(free, key=lambda v: (-deg.get(v, 0), v))


def _candidates(q: CQ, target: Database):
    """Per-variable candidate constants from unary atoms."""
    concepts = target.index.concepts
    cand = {v: set(target.dom) for v in q.variables()}
    for at in q.atoms:
        if isinstance(at, ConceptFact):
            cand[at.a] &= concepts.get(at.name, set())
    return cand


def iter_homomorphisms(
    q: CQ,
    target: Database,
    fixed: Optional[dict] = None,
) -> Iterator[dict]:
    """All homomorphisms from ``q`` into ``target`` extending ``fixed``,
    in deterministic (lexicographic) order."""
    fixed = dict(fixed or {})
    qvars = q.variables()
    for v, c in fixed.items():
        if v not in qvars:
            raise HomError(f"fixed variable {v} does not occur in the query")
        if c not in target.dom and q.atoms:
            return
    concepts, succ, pred = target.index
    cand = _candidates(q, target)
    for v, c in fixed.items():
        if q.atoms and c not in cand[v]:
            return
        cand[v] = {c}

    order = _var_order(q, fixed)
    # atoms indexed by the variable that completes them under `order`
    rank = {v: i for i, v in enumerate(order)}
    for v in fixed:
        rank[v] = -1
    check_at: dict[str, list] = {v: [] for v in order}
    narrow_at: dict[str, list] = {v: [] for v in order}
    upfront = []
    for at in q.atoms:
        ts = at.terms()
        last = max(ts, key=lambda t: rank[t])
        if rank[last] < 0:
            upfront.append(at)
        else:
            check_at[last].append(at)
            if isinstance(at, RoleFact) and at.a != at.b:
                narrow_at[last].append(at)

    h0 = dict(fixed)
    for at in upfront:
        if not _atom_holds(at, h0, concepts, succ):
            return

    def candidates(v: str, h: dict):
        # narrow by role atoms linking v to already assigned variables
        out = cand[v]
        for at in narrow_at[v]:
            if at.b == v and at.a in h:
                out = out & succ.get((at.name, h[at.a]), frozenset())
            elif at.a == v and at.b in h:
                out = out & pred.get((at.name, h[at.b]), frozenset())
            if not out:
                break
        return out

    # iterative backtracking (queries can have very many variables)
    h = dict(h0)
    if not order:
        yield dict(h)
        return
    iters: list = [iter(sorted(candidates(order[0], h)))]
    while iters:
        i = len(iters) - 1
        v = order[i]
        advanced = False
        for c in iters[-1]:
            h[v] = c
            if all(_atom_holds(at, h, concepts, succ) for at in check_at[v]):
                advanced = True
                break
        if not advanced:
            h.pop(v, None)
            iters.pop()
            continue
        if i + 1 == len(order):
            yield dict(h)
            continue
        iters.append(iter(sorted(candidates(order[i + 1], h))))


def _atom_holds(at, h, concepts, succ) -> bool:
    if isinstance(at, ConceptFact):
        return h[at.a] in concepts.get(at.name, ())
    return h[at.b] in succ.get((at.name, h[at.a]), ())


def find_homomorphism(q: CQ, target: Database, fixed: Optional[dict] = None) -> Optional[dict]:
    """First homomorphism extending ``fixed`` under the deterministic order,
    or ``None``."""
    for h in iter_homomorphisms(q, target, fixed):
        return h
    return None


# ---------------------------------------------------------------------------
# Contractions


def restricted_growth_strings(n: int) -> Iterator[tuple]:
    """All set partitions of range(n), encoded canonically."""
    if n == 0:
        yield ()
        return
    s = [0] * n

    def rec(i: int, m: int):
        if i == n:
            yield tuple(s)
            return
        for v in range(m + 2):
            s[i] = v
            yield from rec(i + 1, max(m, v))

    yield from rec(1, 0)


def contractions(q: CQ) -> Iterator[tuple]:
    """All contractions of ``q``, ``q`` itself included, each as
    ``(contracted CQ, partition)``, in restricted-growth-string order.
    A partition block may contain at most one answer variable."""
    var = sorted(q.variables())
    for rgs in restricted_growth_strings(len(var)):
        c = contraction(q, var, rgs)
        if c is not None:
            yield c


def contraction(q: CQ, var: list, rgs: tuple) -> Optional[tuple]:
    """The contraction of ``q`` by the partition of ``var`` (its sorted
    variables) that the restricted growth string ``rgs`` encodes, as
    ``(contracted CQ, partition)``; None if a block holds two answer
    variables.  A block is represented by its answer variable, if any,
    otherwise by its least variable."""
    answers = set(q.answer_vars)
    blocks: dict[int, list] = {}
    for i, b in enumerate(rgs):
        blocks.setdefault(b, []).append(var[i])
    rep: dict[str, str] = {}
    partition = []
    for block in blocks.values():
        avs = [x for x in block if x in answers]
        if len(avs) > 1:
            return None
        r = avs[0] if avs else block[0]
        for x in block:
            rep[x] = r
        partition.append(tuple(block))
    return q.rename(rep), tuple(sorted(partition))


def functional_quotient(q: CQ, funcs: Iterable[str]) -> dict:
    """The renaming that merges, until none is left, the successors of a
    variable along one role of ``funcs``: it maps each merged variable of
    ``q`` to its representative, the least variable of its class, so that
    ``q.rename`` of it is the least contraction of ``q`` that respects
    those functionality assertions."""
    funcs = frozenset(funcs)
    if not funcs:
        return {}

    def successors(find):
        succ: dict = {}
        for at in q.atoms:
            if isinstance(at, RoleFact) and at.name in funcs:
                succ.setdefault((find(at.a), at.name), set()).add(at.b)
        return succ.values()

    return {v: r for v, r in merge_to_fixpoint(q.variables(), successors).items()
            if r != v}


def merge_to_fixpoint(variables: Iterable[str], groups) -> dict:
    """The finest partition of ``variables`` in which every set that
    ``groups(find)`` lists lies in one class, where ``find`` maps a variable
    to its current class; ``groups`` is asked again after each round that
    merged something.  Each variable is mapped to the least variable of its
    class, so the result does not depend on the order of the sets."""
    parent = {v: v for v in variables}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    changed = True
    while changed:
        changed = False
        for group in groups(find):
            roots = sorted({find(v) for v in group})
            for other in roots[1:]:
                parent[other] = roots[0]
                changed = True
    return {v: find(v) for v in parent}


# ---------------------------------------------------------------------------
# Cores


def core(q: CQ) -> CQ:
    """A maximum retract of ``q``: repeatedly fold the query onto a proper
    homomorphic image (fixing answer variables) until none exists.

    Worst case exponential; intended for desk-scale queries.
    """
    current = q
    while True:
        folded = _proper_retraction(current)
        if folded is None:
            return current
        current = folded


def _proper_retraction(q: CQ) -> Optional[CQ]:
    var = q.variables()
    fixed = {x: x for x in q.answer_vars}
    for h in iter_homomorphisms(q, cq_as_database(q), fixed):
        image = set(h.values())
        if len(image) < len(var):
            atoms = {at.rename(h) for at in q.atoms}
            return CQ(q.answer_vars, atoms)
    return None


# ---------------------------------------------------------------------------
# Canonical forms (isomorphism dedup)


def canonical_form(atoms: Iterable, pinned: tuple = ()) -> tuple:
    """The canonical form of a set of atoms (or facts) under renamings of
    its terms that fix each term of ``pinned``, by individualization and
    refinement (McKay and Piperno, JSC 2014).  Starting from the stable
    colouring of ``refined_colours``: while a colour class holds two or
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
    _, colour, edges = refined_colours(atoms, pinned)
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


def refined_colours(atoms: Iterable, pinned: tuple) -> tuple[tuple, dict, dict]:
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
        groups.setdefault(refined_colours(q.atoms, q.answer_vars)[0], []).append(i)
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
