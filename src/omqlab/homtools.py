"""Homomorphisms between queries and databases, contraction enumeration
and cores.

Homomorphism search is plain backtracking with forward pruning; branching
order is descending Gaifman degree with lexicographic tie-break, candidate
order is lexicographic, so the first solution is deterministic.
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
