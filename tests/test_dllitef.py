import random

import pytest
from hypothesis import given, settings, strategies as st

from omqlab.dllitef import (
    _is_pendant_tree,
    decide_ubcq1_equiv,
    generates,
    id_functional,
    rew,
    rewrite_family,
    split_ontology,
)
from omqlab.entailment import elhi_view, is_consistent, satisfies_functionality
from omqlab.evaluation import evaluate_naive
from omqlab.graphalg import cq_treewidth
from omqlab.model import (
    CQ,
    ConceptFact,
    Database,
    Dialect,
    EMPTY_ONTOLOGY,
    FULL_SCHEMA,
    OMQ,
    Ontology,
    RoleFact,
    UCQ,
)
from omqlab.surface import parse_database, parse_ontology, parse_query

import sys, os
sys.path.insert(0, os.path.dirname(__file__))
from gen import rand_database
from oracles import is_pendant_tree_by_walk, ubcq_equiv_via_disjuncts


_TERMS = ["x", "y", "z", "u", "v"]
_atoms = st.lists(st.one_of(
    st.builds(RoleFact, st.sampled_from("rs"), st.sampled_from(_TERMS),
              st.sampled_from(_TERMS)),
    st.builds(ConceptFact, st.sampled_from("AB"), st.sampled_from(_TERMS))),
    min_size=1, max_size=6)


@settings(max_examples=600, deadline=None)
@given(atoms=_atoms, root=st.sampled_from(_TERMS))
def test_pendant_tree_test_matches_the_walk_from_the_root(atoms, root):
    # the Gaifman-graph test against counting term pairs and walking them
    atoms = frozenset(atoms)
    assert _is_pendant_tree(atoms, root) == is_pendant_tree_by_walk(atoms, root)


def test_split_ontology():
    o = parse_ontology("dialect: DL-LiteF\nA <= B\nfunc r")
    s = split_ontology(o)
    assert s.functionalities == frozenset({"r"})
    assert len(s.inclusions.axioms) == 1
    o2 = parse_ontology("func r\nfunc s")
    s2 = split_ontology(o2)
    assert s2.functionalities == frozenset({"r", "s"}) and not s2.inclusions.axioms
    s3 = split_ontology(Ontology((), Dialect.DLLITE_F))
    assert not s3.functionalities and not s3.inclusions.axioms


def test_satisfies_functionality():
    assert not satisfies_functionality(parse_database("r(a,b)\nr(a,c)"), {"r"})
    assert satisfies_functionality(parse_database("r(a,b)"), {"r"})
    assert satisfies_functionality(parse_database("r(a,b)\nr(a,c)"), set())


def test_id_functional_merges():
    q = parse_query("q() :- r(x,y1), r(x,y2), A(y1), B(y2)")
    out = id_functional(q, {"r"})
    (cq,) = out.disjuncts
    assert len(cq.variables()) == 2
    names = {at.name for at in cq.atoms}
    assert names == {"r", "A", "B"}


def test_id_functional_identity_and_cascade():
    q = parse_query("q() :- r(x,y1), r(x,y2), A(y1), B(y2)")
    assert id_functional(q, set()) == q
    chain = parse_query("q() :- r(x,y1), r(x,y2), s(y1,z1), s(y2,z2), A(z1), B(z2)")
    out = id_functional(chain, {"r", "s"})
    (cq,) = out.disjuncts
    assert len(cq.variables()) == 3  # y's merge, then z's merge


def test_id_functional_preserves_width1():
    rng = random.Random(83)
    from gen import rand_cq
    for _ in range(40):
        q = rand_cq(rng, rng.randint(1, 5), 0, names=["A", "B"],
                    roles=["r", "s"], max_tw=1)
        out = id_functional(UCQ((q,)), {"r"})
        assert cq_treewidth(out.disjuncts[0]) <= 1


def test_id_functional_idempotent():
    q = parse_query("q() :- r(x,y1), r(x,y2), s(y1,z1), s(y2,z2)")
    once = id_functional(q, {"r", "s"})
    twice = id_functional(once, {"r", "s"})
    assert once == twice


def test_generates():
    o = parse_ontology("dialect: DL-LiteF\nA <= exists r . top\nexists inv(r) . top <= B")
    p = parse_query("q(x) :- r(x,y), B(y)").disjuncts[0]
    assert generates(o, ConceptFact("A", "x"), p)
    assert generates(EMPTY_ONTOLOGY, ConceptFact("A", "x"),
                     parse_query("q(x) :- A(x)").disjuncts[0])
    assert not generates(EMPTY_ONTOLOGY, ConceptFact("A", "x"),
                         parse_query("q(x) :- r(x,y)").disjuncts[0])


def test_rew_tree_elimination():
    o = parse_ontology("dialect: DL-LiteF\nA <= exists r . top\nexists inv(r) . top <= B")
    q = parse_query("q() :- r(x,y), B(y)")
    out = rew(OMQ(o, FULL_SCHEMA, q))
    shapes = {tuple(sorted(str(at) for at in d.atoms)) for d in out.disjuncts}
    assert any(len(d.atoms) == 1 and next(iter(d.atoms)).name == "A"
               for d in out.disjuncts), shapes


def test_rew_empty_ontology_contains_self():
    q = parse_query("q() :- r(x,y), r(y,z)")
    o = Ontology((), Dialect.DLLITE_F)
    out = rew(OMQ(o, FULL_SCHEMA, q))
    from omqlab.homtools import canonical_form
    assert canonical_form(q.disjuncts[0].atoms) in {canonical_form(d.atoms)
                                                    for d in out.disjuncts}


def test_rew_preserves_width():
    o = parse_ontology("dialect: DL-LiteF\nA <= exists r . top\nfunc s")
    q = parse_query("q() :- r(x,y), s(y,z)")
    out = rew(OMQ(o, FULL_SCHEMA, q))
    assert all(cq_treewidth(d) <= 1 for d in out.disjuncts)


def test_rew_equivalence_random():
    rng = random.Random(97)
    o = parse_ontology("""dialect: DL-LiteF
A <= exists r . top
exists inv(r) . top <= B
B <= C
func r
""")
    Q = OMQ(o, FULL_SCHEMA, parse_query("q() :- r(x,y), C(y)"))
    rewritten = rew(Q)
    checked = 0
    for _ in range(60):
        d = rand_database(rng, rng.randint(1, 4), names=["A", "B", "C"], roles=["r"])
        if not d.dom or not satisfies_functionality(d, {"r"}):
            continue
        lhs = evaluate_naive(Q, d).boolean() if is_consistent(d, Q.ontology) else True
        rhs = evaluate_naive(OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, rewritten), d).boolean()
        assert lhs == rhs, str(d)
        checked += 1
    assert checked >= 20


def test_decide_ubcq1_functional_merge():
    o = parse_ontology("func r")
    q = parse_query("q() :- r(x,y1), r(x,y2), A(y1), B(y2)")
    v = decide_ubcq1_equiv(OMQ(o, FULL_SCHEMA, q))
    assert v.is_yes()
    assert all(cq_treewidth(d) <= 1 for d in v.witness.query.disjuncts)


def test_decide_ubcq1_two_role_cycle():
    # alternating roles: no two equal-role edges share a source, so the
    # functional contraction is the identity and the core keeps width 2
    o = parse_ontology("func r")
    q = parse_query("q() :- r(x2,x1), s(x2,x3), r(x4,x3), s(x4,x1)")
    v = decide_ubcq1_equiv(OMQ(o, FULL_SCHEMA, q))
    assert v.outcome == "no"


def test_decide_ubcq1_plain_cycle_no():
    q = parse_query(
        "q() :- r(x2,x1), r(x4,x1), r(x2,x3), r(x4,x3), A1(x1), A2(x2), A3(x3), A4(x4)")
    v = decide_ubcq1_equiv(OMQ(Ontology((), Dialect.DLLITE_F), FULL_SCHEMA, q))
    assert v.outcome == "no"


def test_ubcq_equiv_via_disjuncts():
    o = Ontology((), Dialect.DLLITE_F)
    p_tree = parse_query("q() :- r(x,y)").disjuncts[0]
    assert ubcq_equiv_via_disjuncts(OMQ(o, FULL_SCHEMA, UCQ((p_tree,))), 1)
    # a wide disjunct contained in a tree-like one
    p_wide = parse_query("q() :- r(x,y), r(x,z)").disjuncts[0]
    Q = OMQ(o, FULL_SCHEMA, UCQ((p_wide, p_tree)))
    assert ubcq_equiv_via_disjuncts(Q, 1)
    # two incomparable width-2 cores over distinct roles
    c1 = parse_query("q() :- r(x,y), r(y,z), r(z,x)").disjuncts[0]
    c2 = parse_query("q() :- s(x,y), s(y,z), s(z,x)").disjuncts[0]
    Q2 = OMQ(o, FULL_SCHEMA, UCQ((c1, c2)))
    assert not ubcq_equiv_via_disjuncts(Q2, 1)


def test_dllitef_independence_lemma():
    # on functionality-respecting databases all four variants agree
    rng = random.Random(101)
    o = parse_ontology("""dialect: DL-LiteF
A <= exists r . top
exists inv(r) . top <= B
func r
""")
    split = split_ontology(o)
    q = parse_query("q() :- r(x,y1), r(x,y2), B(y1)")
    qid = id_functional(q, split.functionalities)
    variants = [
        OMQ(o, FULL_SCHEMA, q),
        OMQ(split.inclusions, FULL_SCHEMA, q),
        OMQ(o, FULL_SCHEMA, qid),
        OMQ(split.inclusions, FULL_SCHEMA, qid),
    ]
    checked = 0
    for _ in range(60):
        d = rand_database(rng, rng.randint(1, 4), names=["A", "B"], roles=["r"])
        if not d.dom or not satisfies_functionality(d, {"r"}):
            continue
        results = {evaluate_naive(Q, d).boolean() for Q in variants}
        assert len(results) == 1, str(d)
        checked += 1
    assert checked >= 20


def test_rew_empty_ontology_property():
    # evaluating the rewriting with no ontology equals evaluating it with
    # the inclusion part, on arbitrary databases
    rng = random.Random(103)
    o = parse_ontology("""dialect: DL-LiteF
A <= exists r . top
exists inv(r) . top <= B
""")
    Q = OMQ(o, FULL_SCHEMA, parse_query("q() :- r(x,y), B(y)"))
    rq = rew(Q)
    for _ in range(40):
        d = rand_database(rng, rng.randint(1, 4), names=["A", "B"], roles=["r"])
        if not d.dom:
            continue
        plain = evaluate_naive(OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, rq), d).boolean()
        with_onto = evaluate_naive(OMQ(elhi_view(o), FULL_SCHEMA, rq), d).boolean()
        assert plain == with_onto, str(d)
