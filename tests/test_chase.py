import random

from omqlab.chase import (
    canonical_model,
    canonical_model_of,
    oblivious_chase,
)
from omqlab.entailment import consistent_saturation, is_consistent, saturate
from omqlab.graphalg import treewidth
from omqlab.homtools import find_homomorphism
from omqlab.model import (
    CQ,
    ConceptFact,
    Database,
    Dialect,
    EMPTY_ONTOLOGY,
    Ontology,
    Role,
    RoleFact,
    RoleInclusion,
    cq_as_database,
    gaifman_graph,
)
from omqlab.surface import parse_database, parse_ontology, parse_query
from fixtures import branching_family, d_example1, omega1, omega2

import sys, os
sys.path.insert(0, os.path.dirname(__file__))
from gen import (
    rand_database,
    rand_dllite_ontology,
    rand_elhi_ontology,
    rand_eli_ontology,
)


def test_chase_single_firing():
    ch = oblivious_chase(parse_database("A(a)"), parse_ontology("A <= exists r . B"), 1)
    facts = sorted(map(str, ch.facts.facts))
    assert facts == ["A(a)", "B(_n0)", "r(a,_n0)"]
    assert ch.provenance["_n0"].kind == "anonymous"
    assert ch.provenance["_n0"].depth == 1


def test_chase_names_a_tree_depth_first():
    # eleven nodes: _n10 follows _n9, where a sort by name would put it
    # second, after _n1
    rhs = "exists r . " * 11 + "B"
    ch = oblivious_chase(parse_database("A(a)"), parse_ontology(f"A <= {rhs}"), 1)
    nodes = ["a"] + [f"_n{k}" for k in range(11)]
    assert ch.facts == Database([ConceptFact("A", "a"), ConceptFact("B", "_n10")]
                                + [RoleFact("r", x, y) for x, y in zip(nodes, nodes[1:])])
    assert {c: p.depth for c, p in ch.provenance.items()} == {
        "a": 0, **{f"_n{k}": k + 1 for k in range(11)}}


def test_chase_depth_is_tree_distance_through_an_inverse_edge():
    ch = oblivious_chase(parse_database("A(a)"),
                         parse_ontology("A <= exists inv(r) . (B & exists s . C)"), 1)
    assert {RoleFact("r", "_n0", "a"), RoleFact("s", "_n0", "_n1")} <= ch.facts.facts
    assert [(p.depth, p.parent) for p in map(ch.provenance.get, ("_n0", "_n1"))] == [
        (1, "a"), (2, "a")]


def test_chase_role_inclusion():
    o = Ontology([RoleInclusion(Role("r"), Role("s"))], Dialect.ELH_BOT)
    ch = oblivious_chase(parse_database("r(a,b)"), o, 2)
    assert RoleFact("s", "a", "b") in ch.facts.facts


def test_chase_depth_bound():
    ch = oblivious_chase(parse_database("A(a)"), parse_ontology("A <= exists r . A"), 3)
    anon = [p for p in ch.provenance.values() if p.kind == "anonymous"]
    assert len(anon) == 3
    assert sorted(p.depth for p in anon) == [1, 2, 3]


def test_chase_adds_the_conclusions_names_at_the_depth_bound():
    # at the bound no fresh tree is attached, but the concept names of the
    # conclusion still land on the deepest constants
    o = parse_ontology("A <= exists r . A\nA <= C\nA <= exists s . (B & D)")
    ch = oblivious_chase(parse_database("A(c0)"), o, 1)
    assert sorted(map(str, ch.facts.facts)) == [
        "A(_n0)", "A(c0)", "B(_n1)", "C(_n0)", "C(c0)", "D(_n1)",
        "r(c0,_n0)", "s(c0,_n1)"]
    assert sorted(ch.provenance) == ["_n0", "_n1", "c0"]
    ch = oblivious_chase(parse_database("A(c0)"), o, 0)
    assert sorted(map(str, ch.facts.facts)) == ["A(c0)", "C(c0)"]


def test_chase_restriction():
    ch = oblivious_chase(parse_database("A(a)"), parse_ontology("A <= exists r . B"), 1)
    assert ch.restriction() == parse_database("A(a)")
    o = Ontology([RoleInclusion(Role("r"), Role("s"))], Dialect.ELH_BOT)
    ch2 = oblivious_chase(parse_database("r(a,b)"), o, 2)
    assert ch2.restriction() == parse_database("r(a,b)\ns(a,b)")
    ch3 = oblivious_chase(d_example1, omega1, 2)
    assert ConceptFact("A4", "b") in ch3.restriction().facts


def test_chase_of_cq_matches_database_chase():
    q = parse_query("q() :- A(x), r(x,y)").disjuncts[0]
    o = parse_ontology("A <= exists r . B")
    assert oblivious_chase(cq_as_database(q), o, 2).facts == \
        oblivious_chase(parse_database("A(x)\nr(x,y)"), o, 2).facts


def test_chase_deterministic():
    o = parse_ontology("A <= exists r . B\nB <= exists s . A")
    d = parse_database("A(a)\nA(b)")
    c1 = oblivious_chase(d, o, 3)
    c2 = oblivious_chase(d, o, 3)
    assert c1.facts == c2.facts
    assert {k: (p.kind, p.parent, p.depth) for k, p in c1.provenance.items()} == \
           {k: (p.kind, p.parent, p.depth) for k, p in c2.provenance.items()}


def test_chase_preserves_treewidth():
    rng = random.Random(31)
    for _ in range(25):
        o = rand_eli_ontology(rng, rng.randint(1, 4), names=["A", "B"],
                              roles=["r"], bot_prob=0.0)
        d = rand_database(rng, rng.randint(2, 4), names=["A", "B"], roles=["r"])
        if not d.dom:
            continue
        w0 = treewidth(gaifman_graph(d))[0]
        ch = oblivious_chase(d, o, 2)
        w1 = treewidth(gaifman_graph(ch.facts))[0]
        assert w1 == max(w0, 1) or w1 == w0


def test_homomorphism_transport():
    # a hom between databases lifts to their chases
    rng = random.Random(13)
    for _ in range(25):
        o = rand_eli_ontology(rng, rng.randint(1, 4), names=["A", "B"],
                              roles=["r"], bot_prob=0.0)
        d1 = rand_database(rng, 2, names=["A", "B"], roles=["r"])
        d2 = rand_database(rng, 3, names=["A", "B"], roles=["r"])
        if not d1.dom or not d2.dom:
            continue
        h = find_homomorphism(CQ((), d1.facts), d2)
        if h is None:
            continue
        ch1 = oblivious_chase(d1, o, 2)
        ch2 = oblivious_chase(d2, o, 4)
        lifted = find_homomorphism(CQ((), ch1.facts.facts), ch2.facts,
                                   {a: h[a] for a in d1.dom})
        assert lifted is not None


def test_canonical_model_simple():
    cm = canonical_model(parse_database("A(a)"), parse_ontology("A <= exists r . B"), 1)
    roles = list(cm.facts.role_facts())
    assert any(f.a == "a" for f in roles)
    assert any(f.name == "B" for f in cm.facts.concept_facts())


def test_canonical_model_empty_ontology():
    d = parse_database("A(a)\nB(b)\nr(a,b)")
    cm = canonical_model(d, EMPTY_ONTOLOGY, 3)
    assert cm.facts == d


def test_canonical_model_saturates():
    # a missing concept is derived at the right constant before matching
    d = parse_database("B1(h1)\nA2(x2)\nr(x2,h1)")
    cm = canonical_model(d, omega2, 2)
    assert ConceptFact("A1", "h1") in cm.facts.facts
    assert ConceptFact("A4", "x2") in cm.facts.facts


def test_canonical_model_of_inconsistent_data_is_its_saturation():
    # chase --canonical prints the saturation of data the ontology rejects
    d = parse_database("A(a)\nr(a,b)")
    o = parse_ontology("A <= B\nB <= bot")
    cm = canonical_model(d, o, 2)
    assert set(cm.provenance) == d.dom
    assert cm.facts == saturate(d, o).database
    assert ConceptFact("B", "a") in cm.facts.facts


def test_canonical_model_rounds_are_tight():
    # under B <= exists r . B with B(c0), the r-path of n variables pinned
    # at c0 matches with the derived n - 1 rounds and not with n - 2
    d, o = parse_database("B(c0)"), parse_ontology("B <= exists r . B")
    sat = consistent_saturation(d, o)
    for n in range(2, 6):
        path = ", ".join(f"r(x{i},x{i + 1})" for i in range(n - 1))
        q = parse_query(f"q(x0) :- {path}")
        cq = q.disjuncts[0]
        assert len(cq.variables()) == n
        assert find_homomorphism(cq, canonical_model_of(sat, q).facts,
                                 {"x0": "c0"}) is not None
        assert find_homomorphism(cq, canonical_model(d, o, n - 2).facts,
                                 {"x0": "c0"}) is None


def test_canonical_model_builds_only_the_query_roles():
    # the branching family at n = 10: an r-chain of 10 below each of the
    # four constants and the one shared type copy, no s-successor (12
    # rounds along both roles would build 40,955 constants)
    Q, d = branching_family(10)
    cm = canonical_model_of(consistent_saturation(d, Q.ontology), Q.query)
    assert len(cm.provenance) <= 60
    assert {f.name for f in cm.facts.role_facts()} == {"r"}
    assert [a for a, p in cm.provenance.items() if p.kind == "type_copy"] == ["_t0"]


def test_canonical_agrees_with_deep_chase():
    from oracles import oracle_answers
    from omqlab.evaluation import evaluate_naive
    from omqlab.model import FULL_SCHEMA, OMQ
    from gen import rand_cq

    rng = random.Random(19)
    checked = 0
    for _ in range(40):
        o = rand_eli_ontology(rng, rng.randint(1, 5), names=["A", "B"], roles=["r", "s"])
        d = rand_database(rng, rng.randint(1, 3), names=["A", "B"], roles=["r", "s"])
        if not d.dom or not is_consistent(d, o):
            continue
        from omqlab.model import UCQ
        q = UCQ((rand_cq(rng, rng.randint(1, 4), 0, names=["A", "B"], roles=["r", "s"]),))
        Q = OMQ(o, FULL_SCHEMA, q)
        assert evaluate_naive(Q, d).answers == oracle_answers(Q, d)
        checked += 1
    assert checked >= 15


def test_saturation_names_hold_every_name_of_the_universal_model():
    # canonical models and oblivious chases only approximate the universal
    # model from below, so every name they put on a fact must be one that
    # Saturation.names() admits.  ELHI_bot draws carry role inclusions and
    # inverse roles, DL-Lite draws role disjointness, and the third family
    # names s only as a super-role of r; the data's names are few, so that
    # most names come from the ontology
    drawn = 0
    for n in range(300):
        rng = random.Random(n)
        if n % 3 == 0:
            o = rand_dllite_ontology(rng, rng.randint(1, 6), names=("A", "B", "C"))
        elif n % 3 == 1:
            o = rand_elhi_ontology(rng, rng.randint(1, 6))
        else:
            o = Ontology([*rand_eli_ontology(rng, rng.randint(1, 4), roles=["r"]).axioms,
                          RoleInclusion(Role("r", rng.random() < 0.5),
                                        Role("s", rng.random() < 0.5))], Dialect.ELHI_BOT)
        d = rand_database(rng, rng.randint(1, 4), names=["A", "D"], roles=["r", "t"])
        sat = consistent_saturation(d, o)
        if sat is None:
            continue
        drawn += 1
        names = sat.names()
        for steps in range(4):
            assert canonical_model(d, o, steps).facts.names() <= names, (n, steps)
        for depth in range(1, 4):
            assert oblivious_chase(d, o, depth).facts.names() <= names, (n, depth)
    assert drawn >= 200


def test_shared_saturations_and_models_are_read_only():
    # saturate shares its results between callers, so neither a saturation's
    # types nor a model's provenance can be written
    import pytest
    o = parse_ontology("A <= exists r . B\n")
    d = parse_database("A(a)\n")
    sat = consistent_saturation(d, o)
    model = canonical_model_of(sat, parse_query("q(x) :- r(x,y), B(y)"))
    assert saturate(d, o) is sat
    assert canonical_model_of(sat, parse_query("q(y) :- r(y,z), B(z)")) is model
    with pytest.raises(TypeError):
        sat.types["a"] = frozenset()
    with pytest.raises(TypeError):
        model.provenance["a"] = None
    with pytest.raises(TypeError):
        oblivious_chase(d, o, 1).provenance["a"] = None
    assert model.provenance["a"].kind == "original" and "_n0" in model.provenance
