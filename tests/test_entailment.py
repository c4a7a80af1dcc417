import random

import pytest
from hypothesis import given, settings, strategies as st

from omqlab.entailment import (
    NormalOntology,
    is_consistent,
    normalize,
    saturate,
    subsumes,
)
from omqlab.model import (
    Atomic,
    BOT,
    ConceptFact,
    ConceptInclusion,
    Conj,
    Database,
    Dialect,
    EMPTY_ONTOLOGY,
    Exists,
    OmqlabError,
    Ontology,
    Role,
    RoleInclusion,
    TOP,
    conj,
)
from omqlab.surface import parse_database, parse_ontology
from fixtures import omega1

import sys, os
sys.path.insert(0, os.path.dirname(__file__))
from gen import elhi_ontologies, rand_concept, rand_elhi_ontology, rand_eli_ontology
from oracles import (
    entailed_concept_fact,
    max_successor_types,
    normal_axioms,
    reference_canonical,
    type_implies,
)

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")
r = Role("r")


def test_normalize_shapes():
    o = parse_ontology("A <= exists r . (B & C)")
    onorm = normalize(o)
    for ax in normal_axioms(onorm):
        assert isinstance(ax, (ConceptInclusion, RoleInclusion))
    # the fresh-name map names every complex sub-concept
    complexes = [c for c in onorm.sub_concepts if not isinstance(c, Atomic)]
    assert all(c in onorm.defname for c in complexes)


def test_normalize_plain_inclusion_kept():
    onorm = normalize(parse_ontology("A <= B"))
    assert any(str(ax) == "A <= B" for ax in normal_axioms(onorm))


def test_normalize_range_restriction():
    onorm = normalize(parse_ontology("dialect: ELHdr_bot\nrange r <= C"))
    assert any("inv(r)" in str(ax) for ax in normal_axioms(onorm))


def test_normalize_rejects_dllite_directly():
    with pytest.raises(OmqlabError, match="ELHI_bot family, got DL-LiteF"):
        NormalOntology(Ontology([], Dialect.DLLITE_F))


def test_subsumes_examples():
    o = parse_ontology("A <= exists r . B\nexists r . B <= C")
    assert subsumes(o, A, C)
    assert subsumes(EMPTY_ONTOLOGY, A, A)
    assert subsumes(omega1, Atomic("A2"), conj(Atomic("A4"), Atomic("A2")))
    assert not subsumes(EMPTY_ONTOLOGY, A, B)
    assert subsumes(EMPTY_ONTOLOGY, A, TOP)
    assert subsumes(EMPTY_ONTOLOGY, BOT, A)


def test_subsumes_inverse_interaction():
    o = parse_ontology("A <= exists r . B\nexists inv(r) . A <= C")
    assert subsumes(o, A, Exists(r, conj(B, C)))


def test_saturate_examples():
    sat = saturate(parse_database("A2(a)"), omega1)
    assert ConceptFact("A4", "a") in sat.database.facts
    sat2 = saturate(parse_database("r(a,b)\nB(b)"),
                    parse_ontology("exists r . B <= A"))
    assert ConceptFact("A", "a") in sat2.database.facts
    d = parse_database("A(a)\nr(a,b)")
    assert saturate(d, EMPTY_ONTOLOGY).database == d


def test_saturate_fixpoint_and_monotone():
    o = parse_ontology("exists r . B <= A\nA <= C")
    d = parse_database("r(a,b)\nB(b)")
    sat = saturate(d, o)
    again = saturate(sat.database, o)
    assert again.database == sat.database
    bigger = Database(list(d.facts) + [ConceptFact("B", "a")])
    sat2 = saturate(bigger, o)
    assert sat.database.facts - sat2.database.facts == frozenset()


def test_entailed_concept_fact():
    assert entailed_concept_fact(parse_database("A2(a)"), omega1, Atomic("A4"), "a")
    assert not entailed_concept_fact(parse_database("A3(a)"), omega1, Atomic("A4"), "a")
    with pytest.raises(ValueError):
        entailed_concept_fact(parse_database("A2(a)"), omega1, Atomic("Zq"), "a")


def test_type_implies():
    assert type_implies(omega1, [Atomic("A2"), Atomic("A4")], [Atomic("A4")])
    assert type_implies(omega1, [Atomic("A2")], [Atomic("A4")])
    assert not type_implies(EMPTY_ONTOLOGY, [A], [B])
    assert type_implies(EMPTY_ONTOLOGY, [A], [])


def test_type_implies_reflexive_transitive():
    o = parse_ontology("A <= B\nB <= C")
    t = [Atomic("A")]
    assert type_implies(o, t, t)
    assert type_implies(o, t, [Atomic("B")])
    assert type_implies(o, t, [Atomic("C")])


def test_max_successor_types():
    o = parse_ontology("A <= exists r . B")
    (t,) = max_successor_types(o, [A], r)
    assert Atomic("B") in t
    assert max_successor_types(EMPTY_ONTOLOGY, [A], r) == []
    o2 = parse_ontology("A <= exists r . B\nB <= C")
    (t2,) = max_successor_types(o2, [A], r)
    assert {Atomic("B"), Atomic("C")} <= set(t2)


def test_is_consistent():
    assert not is_consistent(parse_database("A(a)"), parse_ontology("A <= bot"))
    assert is_consistent(parse_database("A(a)\nr(a,b)"), EMPTY_ONTOLOGY)
    assert not is_consistent(parse_database("r(a,b)\nr(a,c)"),
                             parse_ontology("func r"))
    assert is_consistent(parse_database("r(a,b)"), parse_ontology("func r"))


def test_consistency_in_anonymous_part():
    o = parse_ontology("A <= exists r . B\nB <= bot")
    assert not is_consistent(parse_database("A(a)"), o)


def test_dllite_role_disjointness():
    o = parse_ontology("dialect: DL-LiteR-horn\ndisjoint-roles r, s\nA <= exists r . top")
    assert not is_consistent(parse_database("r(a,b)\ns(a,b)"), o)
    assert is_consistent(parse_database("r(a,b)\ns(b,a)"), o)


def test_subsumes_oracle_agreement_sample():
    # a compressed version of the acceptance-scale cross-check
    from oracles import oracle_subsumes

    rng = random.Random(77)
    for _ in range(80):
        o = rand_eli_ontology(rng, rng.randint(1, 6))
        c = rand_concept(rng, ["A", "B", "C", "D"], ["r", "s"],
                         rng.randint(0, 3), True, allow_top=False)
        d = rand_concept(rng, ["A", "B", "C", "D"], ["r", "s"],
                         rng.randint(0, 3), True)
        assert subsumes(o, c, d) == oracle_subsumes(o, c, d)


def _engine_matches_reference(onorm, seed) -> None:
    root, reachable, clash, children = reference_canonical(onorm, seed)
    assert onorm.root_type(seed) == root
    assert onorm.reachable_types(seed) == reachable
    assert onorm.is_unsat(seed) == clash
    assert onorm.children(seed) == children


@settings(max_examples=300, deadline=None)
@given(o=elhi_ontologies(),
       picks=st.lists(st.lists(st.integers(0, 63), max_size=3), min_size=1, max_size=4))
def test_type_engine_matches_whole_tree_passes(o, picks):
    # the least fixpoint over seeds against the reference that reruns the
    # node update over the whole tree; seeds may hold a name outside the
    # ontology, as saturated types do
    onorm = NormalOntology(o)
    names = sorted(onorm.name_concept) + ["Z"]
    for pick in picks:
        _engine_matches_reference(onorm, frozenset(names[i % len(names)] for i in pick))


def test_type_engine_matches_whole_tree_passes_on_a_fixed_sweep():
    for n in range(3000):
        rng = random.Random(n)
        onorm = NormalOntology(rand_elhi_ontology(rng, rng.randint(1, 6)))
        names = sorted(onorm.name_concept)
        for _ in range(6):
            _engine_matches_reference(
                onorm, frozenset(rng.sample(names, rng.randint(0, min(3, len(names))))))


def test_a_solved_seed_answers_for_its_whole_structure_without_solving(monkeypatch):
    # after root_type(s), every question about s and about the types of its
    # canonical structure is a lookup: no further close call
    calls = []
    close = NormalOntology.close

    def counted(self, names):
        calls.append(names)
        return close(self, names)

    monkeypatch.setattr(NormalOntology, "close", counted)
    for n in range(500):
        rng = random.Random(n)
        onorm = NormalOntology(rand_elhi_ontology(rng, rng.randint(1, 6)))
        names = sorted(onorm.name_concept)
        seed = frozenset(rng.sample(names, rng.randint(0, min(3, len(names)))))
        onorm.root_type(seed)
        calls.clear()
        for t in [seed, *sorted(onorm.reachable_types(seed), key=sorted)]:
            onorm.root_type(t)
            onorm.children(t)
            onorm.reachable_types(t)
            onorm.is_unsat(t)
        assert not calls, n


def test_saturate_keeps_the_most_recently_used_saturations(monkeypatch):
    # a saturation is computed once per (normal form, database) while it is
    # among the SATURATION_MEMO_CAP most recently used; the oldest goes first
    import omqlab.entailment as entailment
    from omqlab.entailment import SATURATION_MEMO_CAP, saturate
    computed = []
    saturated = entailment._saturated

    def counted(d, onorm):
        computed.append(d)
        return saturated(d, onorm)

    monkeypatch.setattr(entailment, "_saturated", counted)
    monkeypatch.setattr(entailment, "_SATURATIONS", {})
    o = parse_ontology("A <= exists r . B\nexists r . B <= C\n")
    dbs = [parse_database(f"A(c{i})\n") for i in range(SATURATION_MEMO_CAP + 1)]
    first = saturate(dbs[0], o)
    for d in dbs[1:-1]:
        saturate(d, o)
    assert saturate(parse_database("A(c0)\n"), o) is first   # a hit, now the newest
    saturate(dbs[-1], o)                                      # evicts dbs[1]
    assert computed == dbs
    assert len(entailment._SATURATIONS) == SATURATION_MEMO_CAP
    assert saturate(dbs[0], o) is first
    saturate(dbs[1], o)
    assert computed == dbs + [dbs[1]]
    assert len(entailment._SATURATIONS) == SATURATION_MEMO_CAP
