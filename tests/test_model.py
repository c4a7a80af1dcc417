import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from omqlab.entailment import satisfies_functionality
from omqlab.model import (
    Atomic,
    BOT,
    Bot,
    CQ,
    ConceptFact,
    ConceptInclusion,
    Conj,
    Database,
    Dialect,
    DialectError,
    Exists,
    Functionality,
    Ontology,
    QueryError,
    RangeRestriction,
    Role,
    RoleFact,
    TOP,
    Top,
    check_dialect_axioms,
    concept_as_cq,
    concept_extension,
    conj,
    cq_as_database,
    gaifman_graph,
    infer_dialect,
    infer_ontology,
    record,
    restrict_database,
)
from fixtures import fig2_cq
from gen import rand_axioms, rand_concept, rand_database
from oracles import (
    dialect_violations,
    infer_dialect_sequentially,
    scan_concept_extension,
    scan_satisfies_functionality,
    scan_successors,
)


def test_role_inverse_normalizes():
    r = Role("r")
    assert r.inverse().inverse() == r
    assert r.inverse().inverted


def test_conjunction_flattens_and_sorts():
    a, b, c = Atomic("A"), Atomic("B"), Atomic("C")
    assert conj(conj(a, b), c) == conj(c, b, a)
    assert conj(a) == a
    assert conj() == TOP


def test_cq_as_database_fig2():
    d = cq_as_database(fig2_cq)
    assert len(d.dom) == 4
    assert len(d.facts) == 8


def test_cq_as_database_single_atom():
    q = CQ((), [ConceptFact("A", "x")])
    assert cq_as_database(q) == Database([ConceptFact("A", "x")])


def test_cq_as_database_two_roles():
    q = CQ(("x",), [RoleFact("r", "x", "y"), RoleFact("r", "y", "x")])
    assert cq_as_database(q).facts == frozenset(
        {RoleFact("r", "x", "y"), RoleFact("r", "y", "x")})


def test_gaifman_graph():
    g = gaifman_graph(Database([ConceptFact("A", "a")]))
    assert g.vertices == frozenset({"a"}) and not g.edges()
    g = gaifman_graph(cq_as_database(fig2_cq))
    assert len(g.edges()) == 4  # the 4-cycle
    g = gaifman_graph(Database([RoleFact("r", "a", "a")]))
    assert g.vertices == frozenset({"a"}) and not g.edges()


def test_restrict_database():
    d = Database([ConceptFact("A", "a"), RoleFact("r", "a", "b")])
    assert restrict_database(d, {"a"}) == Database([ConceptFact("A", "a")])
    assert restrict_database(d, d.dom) == d
    sub = restrict_database(cq_as_database(fig2_cq), {"x1", "x2", "x3"})
    assert len([f for f in sub.facts if isinstance(f, RoleFact)]) == 2
    assert len([f for f in sub.facts if isinstance(f, ConceptFact)]) == 3


def test_check_dialect():
    inv_ax = ConceptInclusion(Exists(Role("r", True), Atomic("B")), Atomic("A"))
    assert check_dialect_axioms([inv_ax], Dialect.EL)
    assert not check_dialect_axioms([inv_ax], Dialect.ELI)
    rr = RangeRestriction("r", Atomic("C"))
    assert not check_dialect_axioms([rr], Dialect.ELHDR_BOT)
    assert not check_dialect_axioms([Functionality("r")], Dialect.DLLITE_F_EQ)
    assert check_dialect_axioms(
        [ConceptInclusion(Atomic("A"), Atomic("B")), Functionality("r")],
        Dialect.DLLITE_F_EQ)


def test_dialect_monotone_up_the_el_family():
    ax = [ConceptInclusion(Atomic("A"), Exists(Role("r"), Atomic("B")))]
    for d in (Dialect.EL, Dialect.EL_BOT, Dialect.ELH_BOT, Dialect.ELHDR_BOT,
              Dialect.ELI, Dialect.ELI_BOT, Dialect.ELHI_BOT):
        assert not check_dialect_axioms(ax, d)


def test_infer_dialect():
    assert infer_dialect([ConceptInclusion(Atomic("A"), Atomic("B"))]) == Dialect.EL
    assert infer_dialect([Functionality("r")]) == Dialect.DLLITE_F_EQ


def test_infer_dialect_matches_the_sequential_check():
    # every dialect of the inference order wins on some draws, and so does
    # the error when none admits them all
    rng = random.Random(1313)
    seen = set()
    for _ in range(1500):
        axioms = rand_axioms(rng, rng.randint(1, 4))
        outcomes = []
        for infer in (infer_dialect, infer_dialect_sequentially):
            try:
                outcomes.append(infer(axioms))
            except DialectError as e:
                outcomes.append(f"error: {e}")
        assert outcomes[0] == outcomes[1], [str(a) for a in axioms]
        seen.add(outcomes[0] if isinstance(outcomes[0], Dialect) else "error")
    assert seen == set(Dialect) | {"error"}


@settings(max_examples=600, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(1, 4))
def test_dialect_checks_match_the_reference(rng, n):
    # the one-walk checks against the reference's spelled-out conditions:
    # the same violations for every dialect, the same inferred dialect, and
    # an inferred ontology equal to the one checked against that dialect
    axioms = rand_axioms(rng, n)
    for d in Dialect:
        assert check_dialect_axioms(axioms, d) == dialect_violations(axioms, d), d
    outcomes = []
    for infer in (infer_dialect, infer_dialect_sequentially,
                  lambda axs: infer_ontology(axs).dialect):
        try:
            outcomes.append(infer(axioms))
        except DialectError as e:
            outcomes.append(f"error: {e}")
    assert outcomes[0] == outcomes[1] == outcomes[2]
    if isinstance(outcomes[0], Dialect):
        assert infer_ontology(axioms) == Ontology(axioms, outcomes[0])


def test_dialect_error_lists_violations_in_axiom_order():
    axioms = [Functionality("r"), ConceptInclusion(Atomic("B"), BOT),
              ConceptInclusion(Atomic("A"), Exists(Role("r", True), Atomic("B"))),
              ConceptInclusion(Atomic("A"), Atomic("B"))]
    for order in (axioms, axioms[::-1]):
        with pytest.raises(DialectError) as e:
            Ontology(order, Dialect.EL)
        assert str(e.value) == (
            "dialect EL: inverse role not admitted: A <= exists inv(r) . B; "
            "bot not admitted: B <= bot; axiom form not admitted: func r")


def test_ontology_rejects_bad_dialect():
    inv_ax = ConceptInclusion(Exists(Role("r", True), Atomic("B")), Atomic("A"))
    with pytest.raises(DialectError):
        Ontology([inv_ax], Dialect.EL)


def test_concept_as_cq():
    c = conj(Atomic("A"), Exists(Role("r"), conj(Atomic("B"),
                                                 Exists(Role("s"), TOP))))
    q = concept_as_cq(c)
    assert q.arity == 1
    names = sorted(at.name for at in q.atoms)
    assert names == ["A", "B", "r", "s"]
    top_q = concept_as_cq(TOP)
    assert top_q.arity == 1 and not top_q.atoms
    atomic = concept_as_cq(Atomic("A"))
    assert len(atomic.atoms) == 1
    with pytest.raises(QueryError):
        concept_as_cq(BOT)


def test_concept_extension():
    d = Database([ConceptFact("A", "a"), RoleFact("r", "a", "b"),
                  ConceptFact("B", "b")])
    assert concept_extension(d, Exists(Role("r"), Atomic("B"))) == {"a"}
    assert concept_extension(d, Exists(Role("r", True), Atomic("A"))) == {"b"}
    assert concept_extension(d, TOP) == d.dom


def test_index_agrees_with_scan_reference():
    rng = random.Random(303)
    names, roles = ["A", "B", "C"], ["r", "s"]
    dbs = [Database(), rand_database(rng, 3, n_facts=0),
           Database([RoleFact("r", "a", "a"), ConceptFact("A", "a")])]
    dbs += [rand_database(rng, rng.randint(1, 5), names=names, roles=roles)
            for _ in range(200)]
    assert sum(any(f.terms() == (f.a, f.a) for f in d.role_facts()) for d in dbs) > 20
    all_roles = [Role(n, inv) for n in roles + ["t"] for inv in (False, True)]
    for d in dbs:
        for a in sorted(d.dom) + ["zz"]:
            for role in all_roles:
                assert d.successors(a, role) == scan_successors(d, a, role)
        for _ in range(8):
            c = rand_concept(rng, names + ["Z"], roles, 3, allow_inverse=True)
            assert concept_extension(d, c) == scan_concept_extension(d, c)
        assert concept_extension(d, BOT) == scan_concept_extension(d, BOT)
        for funcs in ([], ["r"], ["s"], ["r", "s", "t"]):
            assert (satisfies_functionality(d, funcs)
                    == scan_satisfies_functionality(d, funcs))


def test_repeated_answer_variable_rejected():
    with pytest.raises(QueryError):
        CQ(("x", "x"), [RoleFact("r", "x", "y")])


def test_cq_roundtrip_through_database():
    q = fig2_cq
    back = CQ(q.answer_vars, cq_as_database(q).facts)
    assert back == q


# ---------------------------------------------------------------------------
# Records against their dataclass twins


def _pair(decorate):
    class Pair:
        name: str
        n: int = 0
        tag: frozenset = frozenset()
    return decorate(Pair)


def _single(decorate):
    class Single:
        roles: tuple
    return decorate(Single)


RECORDS = [_pair(record(order=True)), _single(record(order=True))]
TWINS = [_pair(dataclasses.dataclass(frozen=True, order=True)),
         _single(dataclasses.dataclass(frozen=True, order=True))]


def _fields(r) -> tuple:
    return tuple(getattr(r, n) for n in type(r).__annotations__)


def test_record_matches_its_dataclass_twin():
    rng = random.Random(5)
    Pair, Single = RECORDS
    TwinPair, TwinSingle = TWINS
    args = [(rng.choice("abc"), rng.randint(0, 2)) for _ in range(30)]
    recs = [Pair(*a) for a in args] + [Single(tuple(a[0] * a[1])) for a in args]
    twins = [TwinPair(*a) for a in args] + [TwinSingle(tuple(a[0] * a[1])) for a in args]
    for r, t in zip(recs, twins):
        assert repr(r) == repr(t)
        assert hash(r) == hash(t) == hash(_fields(t))
        assert r != t and r != _fields(t)
    for i, j in itertools.product(range(30), repeat=2):
        for xs in (recs, twins):
            a, b = xs[i], xs[j]  # one class
            c, d = xs[30 + i], xs[30 + j]  # the one-field class
            assert (a == b, a < b, a <= b, a > b, a >= b) == (
                args[i] == args[j], args[i] < args[j], args[i] <= args[j],
                args[i] > args[j], args[i] >= args[j])
            x, y = c.roles, d.roles
            assert (c == d, c < d, c <= d, c > d, c >= d) == (
                x == y, x < y, x <= y, x > y, x >= y)
    assert [_fields(r) for r in sorted(recs[:30])] == [_fields(t) for t in sorted(twins[:30])]
    with pytest.raises(TypeError):
        recs[0] < twins[0]
    with pytest.raises(TypeError):
        recs[0] < recs[30]


def test_record_defaults_keywords_and_frozen_fields():
    for Pair in (RECORDS[0], TWINS[0]):
        assert Pair("a") == Pair(name="a", n=0, tag=frozenset())
        assert Pair(n=2, name="b") == Pair("b", 2)
        assert Pair("a").tag is Pair("b").tag
        with pytest.raises(TypeError):
            Pair()
        with pytest.raises(TypeError):
            Pair("a", 1, frozenset(), 3)
        r = Pair("a", 1)
        with pytest.raises(AttributeError):
            r.n = 2
        with pytest.raises(AttributeError):
            del r.n
        with pytest.raises(AttributeError):
            r.other = 2
        assert r == Pair("a", 1)


def test_record_keeps_methods_the_class_defines():
    @record
    class Named:
        name: str

        def __repr__(self):
            return f"<{self.name}>"

    assert repr(Named("a")) == "<a>"
    assert Named("a") == Named("a") and hash(Named("a")) == hash(("a",))
    # records of different classes differ even when both have no fields
    assert TOP == Top() and BOT == Bot() and TOP != BOT
    assert hash(TOP) == hash(BOT) == hash(())
    assert Ontology([]).dialect == Dialect.ELHI_BOT
