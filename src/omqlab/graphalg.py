"""Tree decompositions, exact treewidth, ditree tests, dtree construction,
unravelings into bounded-treewidth databases, and minor tests.

Treewidth is exact (elimination-order dynamic programming over vertex
subsets with degree-1/simplicial preprocessing); there are no heuristic
shortcuts on decision paths.  Inputs are desk scale; a hard vertex cap
guards against accidental blowups.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional

from .model import (
    CQ,
    CapExceeded,
    ConceptFact,
    Database,
    Fact,
    FreshVars,
    QueryError,
    RoleFact,
    UndirectedGraph,
    cq_as_database,
    gaifman_graph,
    record,
)
from .homtools import canonical_form, merge_to_fixpoint, refined_colours

TREEWIDTH_VERTEX_CAP = 25
UNRAVEL_NODE_CAP = 500000
MINOR_VERTEX_CAP = 12


@record
class TreeDecomposition:
    """Bags indexed by id, and each bag's parent: a later bag, or ``None``
    for the last bag, the root.  Children come before their parent, so a
    walk in index order is bottom-up."""

    bags: tuple  # tuple of frozensets, index = bag id
    parent: tuple  # parent[i] > i, and parent[-1] is None

    @property
    def width(self) -> int:
        if not self.bags:
            return -1
        return max(len(b) for b in self.bags) - 1

    def validate(self, g: UndirectedGraph) -> list[str]:
        """The defining conditions: every vertex and edge in a bag, a tree
        whose parents are later bags, and for each vertex one top, a bag
        holding it that is the root or whose parent lacks it.  Over a tree,
        one top means the vertex's bags are connected."""
        out = []
        covered = set().union(*self.bags) if self.bags else set()
        if set(g.vertices) - covered:
            out.append(f"uncovered vertices: {sorted(set(g.vertices) - covered, key=str)}")
        for e in g.edges():
            if not any(e <= b for b in self.bags):
                out.append(f"edge {sorted(e, key=str)} in no bag")
        n = len(self.bags)
        for i, p in enumerate(self.parent):
            if (p is None) != (i == n - 1) or p is not None and not i < p < n:
                out.append(f"bag {i} has parent {p}, not a later bag")
        if out:
            return out
        for v in sorted(g.vertices, key=str):
            tops = [i for i, (b, p) in enumerate(zip(self.bags, self.parent))
                    if v in b and (p is None or v not in self.bags[p])]
            if len(tops) > 1:
                out.append(f"bags of {v} have {len(tops)} tops: {tops}")
        return out


# ---------------------------------------------------------------------------
# Exact treewidth


_TW_CACHE: dict = {}


def treewidth(g: UndirectedGraph) -> tuple[int, TreeDecomposition]:
    """Exact treewidth with a witness decomposition.

    Edgeless graphs (including the empty graph) report width 0.
    """
    key = (g.vertices, frozenset(g.edges()))
    hit = _TW_CACHE.get(key)
    if hit is not None:
        return hit
    out = _treewidth_uncached(g)
    if len(_TW_CACHE) < 200000:
        _TW_CACHE[key] = out
    return out


def _treewidth_uncached(g: UndirectedGraph) -> tuple[int, TreeDecomposition]:
    if len(g.vertices) > TREEWIDTH_VERTEX_CAP:
        raise CapExceeded(f"treewidth limited to {TREEWIDTH_VERTEX_CAP} vertices, "
                          f"got {len(g.vertices)}")
    vertices = sorted(g.vertices, key=str)
    if not vertices:
        return 0, TreeDecomposition((frozenset(),), (None,))

    # preprocessing: peel degree-<=1 and simplicial vertices, remember order
    work = {v: set(g.neighbours(v)) for v in vertices}
    peeled: list[tuple] = []  # (vertex, neighbour clique at removal)
    lower = 0
    changed = True
    while changed and len(work) > 1:
        changed = False
        for v in sorted(work, key=str):
            nbrs = work[v]
            if len(nbrs) <= 1 or _is_clique(nbrs, work):
                lower = max(lower, len(nbrs))
                peeled.append((v, frozenset(nbrs)))
                for w in nbrs:
                    work[w].discard(v)
                del work[v]
                changed = True
                break

    if work:
        core_order, core_width = _elimination_dp(work)
    else:
        core_order, core_width = [], 0
    width = max(lower, core_width)

    # full elimination order: peeled first, then the core order
    order = [v for v, _ in peeled] + core_order
    return width, _decomposition_from_order(g, order)


def _is_clique(vs: set, adj: dict) -> bool:
    vs = list(vs)
    return all(b in adj[a] for a, b in itertools.combinations(vs, 2))


def _elimination_dp(adj: dict) -> tuple[list, int]:
    """Exact minimum over elimination orders via subset DP."""
    vertices = sorted(adj, key=str)
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    bits = {v: 1 << index[v] for v in vertices}
    nbr_bits = {v: sum(bits[w] for w in adj[v]) for v in vertices}
    full = (1 << n) - 1

    @functools.cache
    def reach_degree(eliminated: int, v: str) -> int:
        # vertices outside `eliminated` reachable from v through eliminated ones
        seen = bits[v]
        frontier = [v]
        out = 0
        while frontier:
            u = frontier.pop()
            cand = nbr_bits[u] & ~seen
            seen |= cand
            m = cand
            while m:
                low = m & -m
                w = vertices[low.bit_length() - 1]
                m ^= low
                if bits[w] & eliminated:
                    frontier.append(w)
                else:
                    out += 1
        return out

    best: dict[int, tuple] = {0: (0, None)}  # eliminated-set -> (width, last vertex)
    layer = {0: (0, None)}
    for _ in range(n):
        nxt: dict[int, tuple] = {}
        for s, (w, _) in layer.items():
            rest = full & ~s
            m = rest
            while m:
                low = m & -m
                v = vertices[low.bit_length() - 1]
                m ^= low
                cost = max(w, reach_degree(s, v))
                s2 = s | bits[v]
                if s2 not in nxt or cost < nxt[s2][0]:
                    nxt[s2] = (cost, v)
        best.update(nxt)
        layer = nxt

    # reconstruct the order backwards
    order = []
    s = full
    while s:
        _, v = best[s]
        order.append(v)
        s &= ~bits[v]
    order.reverse()
    return order, best[full][0]


def _decomposition_from_order(g: UndirectedGraph, order: list) -> TreeDecomposition:
    """Bags from an elimination order (fill-in simulation): bag i holds the
    i-th vertex and its later neighbours, and its parent is the bag of the
    first of them, or bag i + 1 when there is none."""
    pos = {v: i for i, v in enumerate(order)}
    adj = {v: set(g.neighbours(v)) for v in g.vertices}
    bags: list[frozenset] = []
    parent: list = []
    for i, v in enumerate(order):
        nbrs = {w for w in adj[v] if pos[w] > pos[v]}
        bags.append(frozenset({v} | nbrs))
        parent.append(min((pos[w] for w in nbrs), default=i + 1))
        for a in nbrs:
            adj[a].discard(v)
            for b in nbrs:
                if a != b:
                    adj[a].add(b)
    parent[-1] = None
    return TreeDecomposition(tuple(bags), tuple(parent))


def _quantified_graph(q: CQ) -> UndirectedGraph:
    """The graph of the quantified-variable restriction: its edges are the
    atoms over two distinct quantified variables.  Variables without such
    an edge add no width, so they stay out of the exact search and its
    vertex cap."""
    answers = q.answer_vars
    return UndirectedGraph(edges=[
        at.terms() for at in q.atoms if isinstance(at, RoleFact)
        and at.a not in answers and at.b not in answers])


def cq_treewidth(q: CQ) -> int:
    """Treewidth of the quantified-variable restriction, at least 1."""
    return max(1, treewidth(_quantified_graph(q))[0])


def cq_decomposition(q: CQ) -> TreeDecomposition:
    """A decomposition of every quantified variable of ``q`` of width
    ``cq_treewidth(q)``: the witness of that width, with a leaf bag under
    the root for each quantified variable outside its graph."""
    g = _quantified_graph(q)
    td = treewidth(g)[1]
    lone = [frozenset({v}) for v in sorted(q.quantified_vars() - g.vertices)]
    n, root = len(lone), len(lone) + len(td.bags) - 1
    return TreeDecomposition(tuple(lone) + td.bags, (root,) * n + tuple(
        None if p is None else p + n for p in td.parent))


# ---------------------------------------------------------------------------
# Ditrees and initial ditree quotients


def _directed_pairs(d: Database) -> set:
    return {(f.a, f.b) for f in d.facts if isinstance(f, RoleFact)}


def _ditree_root(d: Database, root_loops: bool) -> Optional[str]:
    """The root of the directed role graph if it is a tree, else None;
    reflexive loops are allowed only at the root, and only if
    ``root_loops``."""
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
    # Every other vertex has one parent, and the walk up its parents ends at
    # the root unless it runs into a cycle.  With one edge fewer than
    # vertices the graph has no cycle once it is weakly connected (two
    # opposite pairs count as one undirected edge), so then every vertex
    # is reached from the root.
    return root if gaifman_graph(d).is_connected() else None


def dtree_merge(q: CQ) -> CQ:
    """Exhaustively identify x1, x2 whenever atoms r(x1,y), s(x2,y) share
    the target y; the quotient query is returned (answer tuple preserved)."""

    def sources(find):
        by_target: dict = {}
        for at in q.atoms:
            if isinstance(at, RoleFact):
                by_target.setdefault(find(at.b), set()).add(at.a)
        return by_target.values()

    return q.rename(merge_to_fixpoint(q.variables(), sources))


def dtree(q: CQ, root_loops: bool = False) -> Optional[CQ]:
    """Initial ditree the connected Boolean query maps into, as a CQ whose
    root is the single answer variable; ``None`` if no ditree preimage.
    With ``root_loops``, self-loops at the root are tolerated."""
    if not q.is_boolean():
        raise QueryError("dtree is defined for Boolean queries")
    if q.atoms and not gaifman_graph(cq_as_database(q)).is_connected():
        raise QueryError("dtree needs a connected query")
    merged = dtree_merge(q)
    root = _ditree_root(cq_as_database(merged), root_loops)
    return None if root is None else CQ((root,), merged.atoms)


# ---------------------------------------------------------------------------
# Unravelings


@record
class UnravelNode:
    constant: str
    projection: str  # the original constant this one copies


@record
class Unraveling:
    database: Database
    nodes: tuple  # UnravelNode per fresh or reused constant of the bag tree

    def projection(self) -> dict:
        return {n.constant: n.projection for n in self.nodes}


def _bag_orbits(d: Database):
    """``orbit(pinned, bag)``, memoized, for sorted tuples of constants of
    ``d``: two bags get one key exactly when an automorphism of ``d``
    fixing each pinned constant maps one onto the other.  The key is the
    canonical form of ``d`` with the bag marked and the pinned constants
    pinned, as an isomorphism between two such sets maps facts onto facts
    and marks onto marks.  When the stable colouring is discrete the only
    such automorphism is the identity, and the bag is its own key."""

    @functools.cache
    def rigid(pinned: tuple) -> bool:
        colour = refined_colours(d.facts, pinned)[1]
        return len(set(colour.values())) == len(colour)

    @functools.cache
    def orbit(pinned: tuple, comb: tuple) -> tuple:
        if rigid(pinned):
            return comb
        # the mark holds a dot, which no user's name can
        return canonical_form(d.facts.union(ConceptFact("_bag.", c) for c in comb), pinned)

    return orbit


def _grow_bags(d: Database, fixed: set, k: int, rounds: int,
               root: dict) -> tuple[set, list]:
    """The bag loop shared by the unravelings: for ``rounds`` generations
    from the root bag, whose constants ``root`` maps to themselves or to
    nothing, one child bag per orbit of at most ``k + 1`` constants of
    ``d`` outside ``fixed``, not all in the parent's image, under the
    automorphisms fixing ``fixed`` and that image.  The orbit key, a
    canonical form (``_bag_orbits``), is exact at every size of ``d``, so
    automorphic siblings are generated once.  A child gets fresh ``_u``
    copies of its new constants and the facts of ``d`` over them.  Returns
    the copied facts and the nodes."""
    dom = sorted(d.dom - fixed)
    # the facts a bag can hold, each with its constants
    src = [(ts, f) for f in d.facts if not (ts := set(f.terms())) & fixed]
    fresh = FreshVars("_u", d.dom)
    orbit = _bag_orbits(d)
    facts: set[Fact] = set()
    nodes: list[UnravelNode] = []
    # frontier entries: {original constant -> copy} of one bag
    frontier: list[dict] = [root]
    for _ in range(rounds):
        next_frontier: list[dict] = []
        for proj in frontier:
            pinned = tuple(sorted(fixed.union(proj)))
            seen_children: set = set()
            for size in range(1, k + 2):
                for comb in itertools.combinations(dom, size):
                    cset = set(comb)
                    if cset <= proj.keys():
                        continue  # nothing fresh; the parent bag covers it
                    key = orbit(pinned, comb)
                    if key in seen_children:
                        continue
                    seen_children.add(key)
                    mapping: dict = {}
                    for c in comb:
                        if c in proj:
                            mapping[c] = proj[c]
                        else:
                            copy = fresh.next()
                            mapping[c] = copy
                            nodes.append(UnravelNode(copy, c))
                    if len(nodes) > UNRAVEL_NODE_CAP:
                        raise CapExceeded(f"unraveling limited to {UNRAVEL_NODE_CAP} nodes")
                    facts.update(f.rename(mapping) for ts, f in src if ts <= cset)
                    next_frontier.append(mapping)
        frontier = next_frontier
    return facts, nodes


def _check_anchors(d: Database, anchors: tuple) -> None:
    outside = sorted(set(anchors) - d.dom)
    if outside:
        raise QueryError(f"anchors are not constants of the database: {outside}")


def k_unravel(d: Database, a: tuple, k: int, depth: int) -> Unraveling:
    """Truncated width-``k`` unraveling of ``d`` up to the tuple ``a``:
    the tuple's facts stay verbatim, the rest unravels into bags of at
    most ``k + 1`` constants, and crossing facts are re-attached along the
    projection.  ``depth`` counts bag generations below the synthetic root.

    Child bags that are automorphic images of a sibling (over the tuple and
    the parent overlap) are generated once, at every size of ``d``; the
    duplicates are homomorphically redundant.  Constants adjacent only to
    tuple constants still receive (fact-free) bag copies; dropping them
    would lose certain answers.
    """
    if k < 1:
        raise QueryError(f"the unraveling needs k >= 1, got {k}")
    if depth < 0:
        raise QueryError(f"the unraveling needs depth >= 0, got {depth}")
    _check_anchors(d, a)
    anchors = set(a)
    facts, nodes = _grow_bags(d, anchors, k, depth + 1, {})
    facts |= {f for f in d.facts if set(f.terms()) <= anchors}

    # re-attach crossing facts along the projection
    proj_all: dict[str, list] = {}
    for n in nodes:
        proj_all.setdefault(n.projection, []).append(n.constant)
    for f in d.facts:
        ts = set(f.terms())
        if ts & anchors and not ts <= anchors:  # a role fact with one anchor
            other = f.b if f.a in anchors else f.a
            facts.update(f.rename({other: c}) for c in proj_all.get(other, ()))
    return Unraveling(Database(facts), tuple(nodes))


def unravel1_at(d: Database, a: str, depth: int) -> Unraveling:
    """Treewidth-1 unraveling started at ``a`` (the root constant is ``a``
    itself), truncated after ``depth`` extra bag generations."""
    _check_anchors(d, (a,))
    facts, nodes = _grow_bags(d, set(), 1, depth, {a: a})
    facts |= {f for f in d.facts if set(f.terms()) <= {a}}
    return Unraveling(Database(facts), (UnravelNode(a, a), *nodes))


# ---------------------------------------------------------------------------
# Minors


def is_minor(h: UndirectedGraph, g: UndirectedGraph) -> bool:
    """Exact test: is ``h`` obtainable from a subgraph of ``g`` by edge
    contractions (branch-set model)?"""
    if len(g.vertices) > MINOR_VERTEX_CAP:
        raise CapExceeded(f"minor test limited to {MINOR_VERTEX_CAP} vertices, "
                          f"got {len(g.vertices)}")
    hv = sorted(h.vertices, key=str)
    if not hv:
        return True
    if len(hv) > len(g.vertices):
        return False
    gv = sorted(g.vertices, key=str)
    order = sorted(hv, key=lambda v: (-h.degree(v), str(v)))

    def connected_subsets(avail: frozenset):
        # nonempty connected subsets of available vertices, small first
        singles = [frozenset({v}) for v in sorted(avail, key=str)]
        seen = set(singles)
        frontier = singles
        while frontier:
            yield from frontier
            nxt = []
            for s in frontier:
                border = set()
                for v in s:
                    border |= g.neighbours(v)
                for w in sorted(border & avail - s, key=str):
                    s2 = s | {w}
                    if s2 not in seen:
                        seen.add(s2)
                        nxt.append(s2)
            frontier = nxt

    def linked(s1: frozenset, s2: frozenset) -> bool:
        return any(w in g.neighbours(v) for v in s1 for w in s2)

    def assign(i: int, used: frozenset, branch: dict) -> bool:
        if i == len(order):
            return True
        v = order[i]
        needed = [u for u in order[:i] if u in h.neighbours(v)]
        for s in connected_subsets(frozenset(g.vertices) - used):
            if all(linked(s, branch[u]) for u in needed):
                branch[v] = s
                if assign(i + 1, used | s, branch):
                    return True
                del branch[v]
        return False

    return assign(0, frozenset(), {})
