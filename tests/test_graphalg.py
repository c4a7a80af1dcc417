import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from omqlab import graphalg
from omqlab.graphalg import (
    CapExceeded,
    TreeDecomposition,
    _bag_orbits,
    _ditree_root,
    cq_treewidth,
    dtree,
    is_minor,
    k_unravel,
    treewidth,
    unravel1_at,
)
from omqlab.homtools import find_homomorphism
from omqlab.model import (
    CQ,
    ConceptFact,
    Database,
    QueryError,
    RoleFact,
    UndirectedGraph,
    gaifman_graph,
)
from omqlab.surface import parse_database, parse_query
from fixtures import D1, fig2_cq
from gen import rand_database
from oracles import automorphisms_by_permutation, ditree_root_by_walk, is_ditree


def _cycle(n=4):
    vs = [f"v{i}" for i in range(n)]
    return UndirectedGraph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def _complete(n):
    vs = [f"v{i}" for i in range(n)]
    return UndirectedGraph(vs, [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]])


def test_treewidth_basics():
    w, td = treewidth(_cycle(4))
    assert w == 2 and td.validate(_cycle(4)) == []
    assert treewidth(UndirectedGraph("ab", [("a", "b")]))[0] == 1
    assert treewidth(_complete(4))[0] == 3
    assert treewidth(UndirectedGraph())[0] == 0
    assert treewidth(UndirectedGraph("abc"))[0] == 0


def test_treewidth_witness_always_validates():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 8)
        vs = [f"v{i}" for i in range(n)]
        edges = [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, 12))]
        g = UndirectedGraph(vs, [e for e in edges if e[0] != e[1]])
        w, td = treewidth(g)
        assert td.validate(g) == []
        assert td.width >= w


def test_validate_reports_each_broken_condition():
    path = UndirectedGraph("abc", [("a", "b"), ("b", "c")])
    ab, bc, ac = frozenset("ab"), frozenset("bc"), frozenset("ac")
    assert TreeDecomposition((ab, bc), (1, None)).validate(path) == []
    cases = [
        (TreeDecomposition((ab, bc, frozenset("c")), (2, 0, None)),
         "bag 1 has parent 0, not a later bag"),
        (TreeDecomposition((ab, bc), (None, None)), "bag 0 has parent None, not a later bag"),
        (TreeDecomposition((ab, bc), (1, 0)), "bag 1 has parent 0, not a later bag"),
        (TreeDecomposition((ab, bc, ac), (1, 2, None)), "bags of a have 2 tops: [0, 2]"),
        (TreeDecomposition((ab,), (None,)), "uncovered vertices: ['c']"),
        (TreeDecomposition((ab, frozenset("c")), (1, None)), "edge ['b', 'c'] in no bag"),
    ]
    for td, problem in cases:
        assert problem in td.validate(path), (td, td.validate(path))


def test_treewidth_cap():
    vs = [f"v{i}" for i in range(30)]
    with pytest.raises(CapExceeded):
        treewidth(UndirectedGraph(vs))


def test_cq_treewidth_fig2():
    assert cq_treewidth(fig2_cq) == 2
    assert cq_treewidth(fig2_cq.restrict({"x1", "x2", "x3"})) == 1
    all_answered = CQ(("x1", "x2", "x3", "x4"), fig2_cq.atoms)
    assert cq_treewidth(all_answered) == 1
    for text in ("q() :- A(x)", "q() :- r(x,x), A(x)", "q(x) :- r(x,y), r(y,y)"):
        assert cq_treewidth(parse_query(text).disjuncts[0]) == 1
    loops = ", ".join(f"r(x{i},x{i}), A(x{i})" for i in range(30))
    assert cq_treewidth(parse_query(f"q() :- {loops}").disjuncts[0]) == 1


def test_is_ditree():
    assert is_ditree(parse_database("r(a,b)\ns(a,b)\nr(b,c)"))
    assert not is_ditree(parse_database("r(a,a)"))
    assert not is_ditree(parse_database("r(a,b)\nr(c,b)"))


@st.composite
def _near_ditrees(draw):
    """Role facts over up to six constants: a random tree with each edge
    pointing either way, then a few facts added, dropped or made loops, so
    that trees, forests, cycles and two-parent vertices all occur."""
    n = draw(st.integers(1, 6))
    cs = [f"c{i}" for i in range(n)]
    facts = {ConceptFact("A", c) for c in cs}
    for i in range(1, n):
        p = cs[draw(st.integers(0, i - 1))]
        a, b = (p, cs[i]) if draw(st.booleans()) else (cs[i], p)
        facts.add(RoleFact(draw(st.sampled_from("rs")), a, b))
    extra = st.builds(RoleFact, st.sampled_from("rs"), st.sampled_from(cs),
                      st.sampled_from(cs))
    facts |= set(draw(st.lists(extra, max_size=2)))
    drop = draw(st.sets(st.sampled_from(sorted(facts, key=str)), max_size=2))
    return Database(facts - drop)


@settings(max_examples=600, deadline=None)
@given(d=_near_ditrees(), root_loops=st.booleans())
# in-degrees and edge count fit, but a cycle sits apart from the root
@example(d=parse_database("A(a)\nr(b,c)\nr(c,b)"), root_loops=False)
@example(d=parse_database("A(a)\nr(b,c)\nr(c,d)\nr(d,b)"), root_loops=False)
def test_ditree_root_matches_the_walk_from_the_root(d, root_loops):
    # the weak-connectivity test against the walk down the role edges
    assert _ditree_root(d, root_loops) == ditree_root_by_walk(d, root_loops)


def test_dtree():
    merged = dtree(parse_query("q() :- r(x,y), s(z,y)").disjuncts[0])
    assert merged is not None and merged.arity == 1
    assert len(merged.variables()) == 2
    assert dtree(parse_query("q() :- r(x,y), r(y,x)").disjuncts[0]) is None
    fork = parse_query("q() :- r(x,y), r(x,z)").disjuncts[0]
    out = dtree(fork)
    assert out is not None and set(out.atoms) == set(fork.atoms)


def test_dtree_is_initial():
    # the merged query must map into any ditree the original maps into
    q = parse_query("q() :- r(x,y), s(z,y), r(y,u)").disjuncts[0]
    merged = dtree(q)
    assert merged is not None
    target = parse_database("r(a,b)\ns(a,b)\nr(b,c)")
    if find_homomorphism(CQ((), q.atoms), target) is not None:
        assert find_homomorphism(CQ((), merged.atoms), target) is not None


def test_k_unravel_full_tuple_is_identity():
    d = parse_database("A(a)\nr(a,b)")
    u = k_unravel(d, ("a", "b"), 1, 3)
    assert u.database == d


def test_k_unravel_cycle():
    cyc = parse_database("r(a,b)\nr(b,c)\nr(c,d)\nr(d,a)")
    u = k_unravel(cyc, (), 1, 3)
    g = gaifman_graph(u.database)
    for comp in g.connected_components():
        edges = sum(g.degree(v) for v in comp) // 2
        assert edges < len(comp)  # acyclic: treewidth 1
    pi = u.projection()
    for f in u.database.role_facts():
        assert RoleFact(f.name, pi.get(f.a, f.a), pi.get(f.b, f.b)) in cyc.facts


def test_k_unravel_singleton():
    u = k_unravel(parse_database("A(a)"), (), 1, 0)
    facts = list(u.database.facts)
    assert len(facts) == 1 and facts[0].name == "A"
    assert u.projection()[facts[0].a] == "a"


def test_k_unravel_keeps_anchor_adjacent_constants():
    u = k_unravel(parse_database("r(a,b)"), ("a",), 1, 1)
    assert any(f.name == "r" and f.a == "a" for f in u.database.role_facts())


def test_unravel1_at():
    d = parse_database("A(a)")
    assert unravel1_at(d, "a", 2).database == d
    d2 = parse_database("r(a,b)\nr(b,a)")
    u = unravel1_at(d2, "a", 2)
    out = {(f.a, f.b) for f in u.database.role_facts()}
    # a path a -> b' -> a* with both projections correct exists
    pi = u.projection()
    succ_b = [b for (x, b) in out if x == "a" and pi.get(b) == "b"]
    assert succ_b
    assert any(x in succ_b and pi.get(y, y) == "a" for (x, y) in out)
    with pytest.raises(ValueError):
        unravel1_at(d2, "zz", 1)


def test_k_unravel_rejects_anchors_outside_the_data():
    d = parse_database("r(a,b)")
    with pytest.raises(QueryError, match="zz"):
        k_unravel(d, ("a", "zz"), 1, 1)
    with pytest.raises(QueryError, match="zz"):
        unravel1_at(d, "zz", 1)


def test_unravel1_prop4_neighborhood():
    u = unravel1_at(D1, "b1", 1)
    names = {f.name for f in u.database.concept_facts() if f.a == "b1"}
    assert "B1" in names
    # one level of role neighbours is present
    assert any("b1" in f.terms() for f in u.database.role_facts())


def _symmetric_databases():
    """Databases of at most six constants with many automorphisms: a few
    fixed ones, and random ones over one concept and one role made of a
    piece, its renamed twin and a little noise."""
    out = [Database([RoleFact("r", f"c{i}", f"c{(i + 1) % 6}") for i in range(6)]),
           Database([ConceptFact("A", f"c{i}") for i in range(6)]),
           parse_database("r(a,b)\nr(b,c)\nr(c,a)\nr(d,e)\nr(e,f)\nr(f,d)"),
           parse_database("r(a,b)\nr(a,c)\nr(a,d)\nA(b)\nA(c)\nr(e,f)")]
    rng = random.Random(30)
    for _ in range(12):
        n = rng.randint(3, 6)
        piece = rand_database(rng, n // 2, names=["A"], roles=["r"], n_facts=rng.randint(1, n))
        twin = {c: c.replace("c", "e") for c in piece.dom}
        noise = rand_database(rng, n, names=["A"], roles=["r"], n_facts=rng.randint(0, 2))
        out.append(Database(piece.facts | {f.rename(twin) for f in piece.facts} | noise.facts))
    return out


def test_bag_orbits_match_the_permutation_automorphisms():
    # for every pinned set, two bags of at most three constants share an
    # orbit key exactly when an automorphism fixing the pinned constants
    # maps one onto the other
    for d in _symmetric_databases():
        dom = sorted(d.dom)
        autos = automorphisms_by_permutation(d, set())
        orbit = _bag_orbits(d)
        combs = [c for size in (1, 2, 3) for c in itertools.combinations(dom, size)]
        for n in range(len(dom) + 1):
            for pinned in itertools.combinations(dom, n):
                stable = [m for m in autos if all(m[p] == p for p in pinned)]
                pairs = {(orbit(pinned, c), min(tuple(sorted(m[x] for x in c))
                                                for m in stable)) for c in combs}
                keys, refs = zip(*pairs)
                assert len(pairs) == len(set(keys)) == len(set(refs)), (d, pinned)


def test_k_unravel_dedups_siblings_past_seven_constants():
    cycle = Database([RoleFact("r", f"c{i}", f"c{(i + 1) % 8}") for i in range(8)])
    assert len(k_unravel(cycle, (), 1, 2).nodes) == 8521
    lone = Database([ConceptFact("A", f"c{i}") for i in range(8)])
    assert len(k_unravel(lone, (), 1, 2).nodes) == 45


def test_unravel_node_cap(monkeypatch):
    monkeypatch.setattr(graphalg, "UNRAVEL_NODE_CAP", 100)
    triangle = parse_database("r(a,b)\nr(b,c)\nr(c,a)")
    assert len(k_unravel(triangle, (), 1, 2).nodes) <= 100
    with pytest.raises(CapExceeded, match="unraveling limited to 100 nodes"):
        k_unravel(triangle, (), 1, 4)
    with pytest.raises(CapExceeded):
        unravel1_at(triangle, "a", 5)


def test_is_minor():
    edge = UndirectedGraph("uv", [("u", "v")])
    assert is_minor(edge, _cycle(4))
    assert not is_minor(_complete(4), _cycle(4))
    assert is_minor(_cycle(4), _cycle(4))
    assert is_minor(UndirectedGraph(), _cycle(4))
    with pytest.raises(CapExceeded):
        is_minor(edge, UndirectedGraph([f"v{i}" for i in range(20)]))
