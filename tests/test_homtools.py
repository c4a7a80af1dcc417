import random

import pytest

from omqlab.homtools import (
    HomError,
    contractions,
    core,
    find_homomorphism,
    iter_homomorphisms,
)
from omqlab.model import CQ, ConceptFact, Database, QueryError, RoleFact, UCQ, cq_as_database
from omqlab.surface import parse_database, parse_query
from fixtures import D1, fig2, fig2_cq, qprime
from oracles import (
    all_answers,
    cq_homomorphism,
    equivalent_cqs,
    io_contraction,
    io_satisfies,
    strip_trees,
)


def _bell(n):
    # number of set partitions, by direct enumeration over growth strings
    import itertools as it
    count = 0
    for rgs in it.product(range(n), repeat=max(n - 1, 0)):
        prefix_max = 0
        ok = True
        for v in rgs:
            if v > prefix_max + 1:
                ok = False
                break
            prefix_max = max(prefix_max, v)
        count += ok
    return count if n else 1


def test_find_homomorphism_lexicographic_first():
    q = parse_query("q() :- A(x)").disjuncts[0]
    h = find_homomorphism(q, parse_database("A(a)\nA(b)"))
    assert h == {"x": "a"}


def test_identity_hom_on_fig2():
    h = find_homomorphism(fig2_cq, cq_as_database(fig2_cq))
    assert h is not None


def test_no_hom_into_qprime_without_ontology():
    # the three-edge variant misses one cycle edge
    assert find_homomorphism(fig2_cq, cq_as_database(qprime.disjuncts[0])) is None


def test_fixed_outside_query_rejected():
    q = parse_query("q() :- A(x)").disjuncts[0]
    with pytest.raises(HomError):
        find_homomorphism(q, parse_database("A(a)"), {"z": "a"})


def test_all_answers():
    q = parse_query("q(x) :- A(x)")
    assert all_answers(q, parse_database("A(a)\nB(b)")) == {("a",)}
    assert all_answers(q, Database()) == set()
    renamed = CQ(fig2_cq.answer_vars,
                 [at.rename({}) for at in fig2_cq.atoms])
    d1_as_a = parse_database(
        "r(b2,b1)\nr(b2,b3)\nr(b4,b3)\nr(b4,b1)\nA1(b1)\nA2(b2)\nA3(b3)\nA4(b4)")
    assert all_answers(UCQ((renamed,)), d1_as_a) == {()}


def test_hom_agrees_with_bruteforce():
    rng = random.Random(9)
    for _ in range(120):
        nvars = rng.randint(1, 4)
        var = [f"x{i}" for i in range(nvars)]
        atoms = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.4:
                atoms.append(ConceptFact(f"A{rng.randint(1,2)}", rng.choice(var)))
            else:
                atoms.append(RoleFact("r", rng.choice(var), rng.choice(var)))
        q = CQ((), atoms)
        consts = [f"c{i}" for i in range(rng.randint(1, 4))]
        dfacts = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.4:
                dfacts.append(ConceptFact(f"A{rng.randint(1,2)}", rng.choice(consts)))
            else:
                dfacts.append(RoleFact("r", rng.choice(consts), rng.choice(consts)))
        d = Database(dfacts)
        got = {tuple(sorted(h.items())) for h in iter_homomorphisms(q, d)}
        brute = set()
        import itertools as it
        qv = sorted(q.variables())
        for combo in it.product(sorted(d.dom), repeat=len(qv)):
            h = dict(zip(qv, combo))
            if all((at.rename(h) in d.facts) for at in q.atoms):
                brute.add(tuple(sorted(h.items())))
        assert got == brute


def test_contractions_counts():
    q2 = parse_query("q() :- r(x,y)").disjuncts[0]
    got = list(contractions(q2))
    assert len(got) == 2  # Bell(2)
    q3 = parse_query("q() :- r(x,y), r(y,z)").disjuncts[0]
    assert len(list(contractions(q3))) == _bell(3)
    qa = parse_query("q(x,y) :- r(x,y)").disjuncts[0]
    assert [c for c, _ in contractions(qa)] == [qa]


def test_contraction_keeps_answer_name():
    qa = parse_query("q(x) :- r(x,y)").disjuncts[0]
    merged = [c for c, p in contractions(qa) if len(p) == 1]
    assert merged == [CQ(("x",), [RoleFact("r", "x", "x")])]


def test_core_fig2_is_itself():
    assert core(fig2_cq) == fig2_cq


def test_core_folds_duplicates():
    q = parse_query("q() :- A(x), A(y)").disjuncts[0]
    assert len(core(q).variables()) == 1


def test_core_triangle_plus_edge():
    q = parse_query("q() :- r(x,y), r(y,z), r(x,z), r(u,v)").disjuncts[0]
    c = core(q)
    assert len(c.variables()) == 3
    assert core(c) == c
    assert equivalent_cqs(c, q)


def test_io_satisfies():
    assert io_satisfies(parse_database("r(a,b)"),
                        parse_query("q() :- r(x,y)").disjuncts[0])
    assert not io_satisfies(parse_database("r(a,a)"),
                            parse_query("q() :- r(x,y)").disjuncts[0])
    assert not io_satisfies(parse_database("r(a,b)\nr(c,b)"),
                            parse_query("q() :- r(x,y), r(z,y)").disjuncts[0])


def test_io_contraction():
    q = parse_query("q() :- r(x,y)").disjuncts[0]
    out = io_contraction(parse_database("r(a,a)"), q)
    assert out == CQ((), [RoleFact("r", "x", "x")])
    assert io_contraction(parse_database("r(a,b)"), q) == q
    # the plain four-cycle only admits injective matches of the cycle query
    plain = CQ((), fig2_cq.atoms)
    assert io_contraction(D1, _rename_to_b(plain)) == _rename_to_b(plain)
    with pytest.raises(HomError):
        io_contraction(parse_database("A(a)"), q)


def _rename_to_b(q):
    m = {"A1": "B1", "A2": "B2", "A3": "B3", "A4": "B4"}
    atoms = [ConceptFact(m[a.name], a.a) if isinstance(a, ConceptFact) else a
             for a in q.atoms]
    return CQ((), atoms)


def test_io_contraction_passes_io_satisfies():
    rng = random.Random(17)
    for _ in range(60):
        consts = [f"c{i}" for i in range(rng.randint(1, 3))]
        dfacts = [RoleFact("r", rng.choice(consts), rng.choice(consts))
                  for _ in range(rng.randint(1, 4))]
        d = Database(dfacts)
        var = [f"x{i}" for i in range(rng.randint(1, 3))]
        atoms = [RoleFact("r", rng.choice(var), rng.choice(var))
                 for _ in range(rng.randint(1, 3))]
        q = CQ((), atoms)
        if find_homomorphism(q, d) is None:
            continue
        out = io_contraction(d, q)
        assert io_satisfies(d, out)


def test_strip_trees():
    pendant = parse_query(
        "q() :- r(x2,x1), r(x4,x1), r(x2,x3), r(x4,x3), r(x1,z1), r(z1,z2)"
    ).disjuncts[0]
    cycle = parse_query(
        "q() :- r(x2,x1), r(x4,x1), r(x2,x3), r(x4,x3)").disjuncts[0]
    assert strip_trees(pendant).atoms == cycle.atoms
    assert strip_trees(cycle).atoms == cycle.atoms
    loop = parse_query(
        "q() :- r(x2,x1), r(x4,x1), r(x2,x3), r(x4,x3), r(x1,w), r(w,w)"
    ).disjuncts[0]
    assert strip_trees(loop).atoms == cycle.atoms
    with pytest.raises(QueryError):
        strip_trees(parse_query("q() :- r(x,y)").disjuncts[0])
