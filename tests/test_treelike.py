import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from omqlab.entailment import elhi_view
from omqlab.evaluation import evaluate_naive
from omqlab.graphalg import cq_treewidth
from omqlab.homtools import (
    canonical_form,
    contraction,
    contractions,
    core,
    distinct_up_to_isomorphism,
    refined_colours,
    restricted_growth_strings,
)
from omqlab.entailment import is_consistent
from omqlab.model import (
    BOT,
    CQ,
    CapExceeded,
    TOP,
    Atomic,
    ConceptFact,
    ConceptInclusion,
    Database,
    Dialect,
    EMPTY_ONTOLOGY,
    Exists,
    FULL_SCHEMA,
    FreshVars,
    OMQ,
    Ontology,
    QueryError,
    Role,
    RoleDisjointness,
    RoleFact,
    RoleInclusion,
    Schema,
    Top,
    UCQ,
    concept_tree,
    conj,
    cq_as_database,
)
from omqlab.surface import (
    parse_database,
    parse_ontology,
    parse_query,
    serialize_database,
    serialize_query,
)
from omqlab.treelike import (
    _coarsens,
    _finest_contractions,
    _quotient_width,
    contained,
    decide_tw_equiv_general,
    entailed_concept_trees,
    maximum_contractions,
    rewriting,
    ucq_k_approximation,
)
from fixtures import (
    Q1,
    Q2,
    Q2_SCHEMA_NAMES,
    Q_mc,
    fig2,
    fig2_cq,
    omega1,
    omega_mc,
)

import sys, os
sys.path.insert(0, os.path.dirname(__file__))
from gen import (
    elhi_ontologies,
    rand_containment_pair,
    rand_cq,
    rand_database,
    rand_eli_ontology,
    rand_elhdr_ontology,
    rand_ucq,
)
from oracles import (
    cq_canonical,
    db_canonical,
    decide_tw_equiv_all_disjuncts,
    decide_tw_equiv_full,
    distinct_by_canonical_key,
    entailed_concept_fact,
    equivalent_full_schema,
    full_ucq_k_approximation,
    is_empty_full_schema,
    maximum_contractions_by_scan,
    separating_database_by_brute_force,
)


def test_approximation_example1():
    Qa = ucq_k_approximation(Q1, 1)
    assert contained(Qa, Q1).is_yes()
    x24 = fig2_cq.rename({"x4": "x2"})
    assert any(set(d.atoms) == set(x24.atoms) for d in Qa.query.disjuncts)
    assert all(cq_treewidth(d) <= 1 for d in Qa.query.disjuncts)
    # the identity contraction has width 2 and is excluded
    assert all(set(d.atoms) != set(fig2_cq.atoms) for d in Qa.query.disjuncts)


def test_coarsens_reads_restricted_growth_strings():
    # every pair of partitions of up to 5 elements, against block inclusion
    for n in range(6):
        strings = list(restricted_growth_strings(n))
        blocks = {s: [{i for i in range(n) if s[i] == b} for b in set(s)]
                  for s in strings}
        for coarse in strings:
            for fine in strings:
                expected = all(any(b <= c for c in blocks[coarse])
                               for b in blocks[fine])
                assert _coarsens(coarse, fine) == expected, (coarse, fine)


def _approximation_cases():
    """Criterion 5's OMQs (seed 505), the first of criterion 6's plain CQs
    (seed 606), and plain CQs of arity 1 and 2."""
    names, roles = ["A1", "A2", "B1"], ["r", "s"]
    rng = random.Random(505)
    cases = []
    for _ in range(25):
        o = rand_elhdr_ontology(rng, rng.randint(1, 5), names=names, roles=roles)
        q = rand_ucq(rng, rng.randint(1, 2), 5, rng.choice([0, 1]),
                     names=names, roles=roles)
        cases.append(OMQ(o, FULL_SCHEMA, q))
    rng = random.Random(606)
    for _ in range(25):
        q = rand_cq(rng, rng.randint(1, 7), 0, names=["A", "B"], roles=roles)
        cases.append(OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, UCQ((q,))))
    rng = random.Random(607)
    for arity in (1, 2) * 10:
        q = rand_cq(rng, rng.randint(arity, 6), arity, names=["A", "B"], roles=roles)
        cases.append(OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, UCQ((q,))))
    return cases


def test_finest_contractions_match_the_full_approximation():
    shapes = set()
    for Q in _approximation_cases():
        for k in (1, 2):
            Qa = ucq_k_approximation(Q, k)
            assert equivalent_full_schema(Qa, full_ucq_k_approximation(Q, k)), (Q, k)
            assert all(cq_treewidth(c) <= k for c in Qa.query.disjuncts)
            for q in Q.query.disjuncts:
                finest = _finest_contractions(q, k)
                rgss = [rgs for _, rgs in finest]
                assert not any(r1 != r2 and _coarsens(r1, r2)
                               for r1 in rgss for r2 in rgss), (q, k)
                if cq_treewidth(q) <= k:
                    assert [qc for qc, _ in finest] == [q]
            fits = cq_treewidth(Q.query.disjuncts[0]) <= k
            if len(Q.query.disjuncts) == 1 and fits:
                assert Qa.query.disjuncts == Q.query.disjuncts
            shapes.add((Q.arity, fits, len(Qa.query.disjuncts) > 1))
    assert {(a, False, True) for a in (0, 1, 2)} <= shapes
    assert {(a, True, False) for a in (0, 1, 2)} <= shapes


def test_colour_refinement_dedup_matches_the_exact_key():
    # the finest contractions of the approximation's walk, and every
    # contraction of width at most k, which repeats many isomorphism classes
    dropped = 0
    for Q in _approximation_cases():
        for k in (1, 2):
            for candidates in (
                    [qc for cq in Q.query.disjuncts
                     for qc, _ in _finest_contractions(cq, k)],
                    [qc for cq in Q.query.disjuncts for qc, _ in contractions(cq)
                     if cq_treewidth(qc) <= k]):
                want = distinct_by_canonical_key(candidates)
                got = distinct_up_to_isomorphism(candidates)
                assert [str(c) for c in got] == [str(c) for c in want], (Q, k)
                dropped += len(candidates) - len(got)
    assert dropped > 0


def test_colour_refinement_dedup_falls_back_to_the_exact_key():
    # a directed 6-cycle and two directed triangles: every variable has one
    # r-successor and one r-predecessor, so colour refinement cannot split
    # them, and only the exact key tells them apart
    def cycles(*lengths, prefix="x"):
        atoms, n = [], 0
        for m in lengths:
            atoms += [RoleFact("r", f"{prefix}{n + i}", f"{prefix}{n + (i + 1) % m}")
                      for i in range(m)]
            n += m
        return CQ((), atoms)

    hexagon, triangles = cycles(6), cycles(3, 3)
    assert refined_colours(hexagon.atoms, ())[0] == refined_colours(triangles.atoms, ())[0]
    assert distinct_up_to_isomorphism([hexagon, triangles]) == [hexagon, triangles]
    renamed = [cycles(6, prefix="y"), cycles(3, 3, prefix="z")]
    assert distinct_up_to_isomorphism([hexagon, triangles, *renamed]) == [hexagon, triangles]
    assert distinct_up_to_isomorphism(renamed[::-1] + [hexagon]) == renamed[::-1]


_VARS5 = [f"x{i}" for i in range(5)]
_ATOMS5 = st.lists(st.tuples(st.sampled_from(["A", "B", "r", "s"]),
                             st.sampled_from(_VARS5), st.sampled_from(_VARS5)),
                   min_size=1, max_size=8)
_NAMES = st.permutations(_VARS5 + ["y0", "y1", "y2"])


def _atoms(drawn):
    return [ConceptFact(n, a) if n in ("A", "B") else RoleFact(n, a, b)
            for n, a, b in drawn]


def _cq(drawn, arity):
    atoms = _atoms(drawn)
    return CQ(sorted({t for at in atoms for t in at.terms()})[:arity], atoms)


def _cq_form(q):
    return canonical_form(q.atoms, q.answer_vars)


@settings(max_examples=300, deadline=None)
@given(drawn=_ATOMS5, other=_ATOMS5, arity=st.sampled_from([0, 1, 2]), names=_NAMES)
def test_canonical_form_of_cqs_matches_the_permutation_key(drawn, other, arity, names):
    # a CQ against an independent one, a renamed copy, and a renamed copy
    # with one more atom; no variable is named like the key's placeholders
    q = _cq(drawn, arity)
    targets = [n for n in names if n not in q.answer_vars]
    renamed = q.rename(dict(zip(sorted(q.quantified_vars()), targets)))
    grown = CQ(renamed.answer_vars, renamed.atoms | {_atoms(other)[0]})
    assert _cq_form(renamed) == _cq_form(q)
    for q2 in (_cq(other, arity), renamed, grown):
        assert (_cq_form(q) == _cq_form(q2)) == (cq_canonical(q) == cq_canonical(q2)), \
            (q, q2)


@settings(max_examples=300, deadline=None)
@given(drawn=_ATOMS5, other=_ATOMS5, names=_NAMES)
def test_canonical_form_of_databases_matches_the_permutation_key(drawn, other, names):
    d = Database(_atoms(drawn))
    m = dict(zip(sorted(d.dom), names))
    renamed = Database(f.rename(m) for f in d.facts)
    grown = Database(renamed.facts | {_atoms(other)[0]})
    assert canonical_form(renamed.facts) == canonical_form(d.facts)
    for d2 in (Database(_atoms(other)), renamed, grown):
        assert ((canonical_form(d.facts) == canonical_form(d2.facts))
                == (db_canonical(d) == db_canonical(d2))), (d, d2)


def test_canonical_form_individualizes_every_member_of_a_cell():
    # unions of directed r-cycles: every term has one r-successor and one
    # r-predecessor, so refinement leaves a single class that mixes terms of
    # different cycles, and the form must not depend on which comes first
    rng = random.Random(1414)
    pool = [f"v{i}" for i in range(12)]

    def cycles(lengths):
        names, n, facts = rng.sample(pool, sum(lengths)), 0, []
        for m in lengths:
            facts += [RoleFact("r", names[n + i], names[n + (i + 1) % m]) for i in range(m)]
            n += m
        rng.shuffle(facts)
        return facts

    forms = {}
    for lengths in [(5,), (2, 3), (2, 2, 2), (3, 3), (6,), (2, 2, 3), (3, 3, 6)]:
        drawn = {canonical_form(cycles(lengths)) for _ in range(30)}
        assert len(drawn) == 1, lengths
        forms[lengths] = drawn.pop()
    assert len(set(forms.values())) == len(forms)


def test_canonical_form_keeps_apart_names_like_the_old_placeholders():
    # the permutation key renames y to _q0 in both and cannot tell them apart
    a, b = (parse_query(t).disjuncts[0]
            for t in ("q(_q0) :- r(_q0,y)", "q(_q0) :- r(y,_q0)"))
    assert cq_canonical(a) == cq_canonical(b)
    assert _cq_form(a) != _cq_form(b)


def test_canonical_form_skips_swaps_that_fix_the_atoms(monkeypatch):
    # nine interchangeable variables: one refinement to start, then one per
    # individualized variable, instead of one per node of a 9!-leaf tree
    import omqlab.homtools as homtools
    calls = []
    refine = homtools._refine
    monkeypatch.setattr(homtools, "_refine", lambda *a: calls.append(1) or refine(*a))
    atoms = [ConceptFact("A", f"x{i}") for i in range(9)]
    form = canonical_form(atoms)
    assert len(calls) == 9
    assert canonical_form([ConceptFact("A", f"y{i}") for i in range(9)]) == form


# pieces for disjoint unions: refinement cannot split the cells of a union
# of directed cycles of different lengths, whose members no swap exchanges
_PIECES = {"A": [("A", 0, 0)], "edge": [("r", 0, 1)], "star": [("r", 0, 1), ("r", 0, 2)],
           "2-cycle": [("r", 0, 1), ("r", 1, 0)],
           "3-cycle": [("r", 0, 1), ("r", 1, 2), ("r", 2, 0)]}


def test_canonical_form_of_symmetric_cqs_matches_the_permutation_key():
    # every union of up to three pieces on at most six variables, Boolean
    # and with one answer variable, under random renamings
    rng = random.Random(1515)
    pool = [f"y{i}" for i in range(8)]
    keys = {}
    for n_pieces in (1, 2, 3):
        for pieces in itertools.combinations_with_replacement(sorted(_PIECES), n_pieces):
            drawn, n = [], 0
            for piece in pieces:
                drawn += [(name, f"v{n + a}", f"v{n + b}") for name, a, b in _PIECES[piece]]
                n += 1 + max(max(a, b) for _, a, b in _PIECES[piece])
            if n > 6:
                continue
            for arity in (0, 1):
                q = _cq(drawn, arity)
                form = _cq_form(q)
                for _ in range(3):
                    renamed = q.rename(dict(zip(sorted(q.quantified_vars()),
                                                rng.sample(pool, len(pool)))))
                    assert _cq_form(renamed) == form, pieces
                keys.setdefault(form, set()).add(cq_canonical(q))
    assert all(len(ks) == 1 for ks in keys.values())
    assert len(set.union(*keys.values())) == len(keys)


def test_witness_keys_fix_the_answer_tuple():
    # isomorphic only by swapping x0 and x1, which moves the answer x0, so
    # a form that pins the answer variables keeps them apart, as
    # distinct_up_to_isomorphism does for CQs
    d1 = parse_database("s(x0,x1)\ns(x1,x0)\ns(x1,x1)")
    d2 = parse_database("s(x0,x0)\ns(x0,x1)\ns(x1,x0)")
    assert canonical_form(d1.facts) == canonical_form(d2.facts)
    assert canonical_form(d1.facts, ("x0",)) != canonical_form(d2.facts, ("x0",))


def _quotient_inputs(q):
    var = sorted(q.variables())
    pairs = {(var.index(at.a), var.index(at.b)) for at in q.atoms
             if isinstance(at, RoleFact) and at.a != at.b}
    return var, [x in q.answer_vars for x in var], pairs


def test_quotient_width_is_the_width_of_the_contraction():
    rng = random.Random(1212)
    seen = set()
    for arity in (0, 1, 2) * 12:
        q = rand_cq(rng, rng.randint(max(arity, 1), 6), arity,
                    names=["A", "B"], roles=["r", "s"])
        var, answer_at, pairs = _quotient_inputs(q)
        for rgs in restricted_growth_strings(len(var)):
            c = contraction(q, var, rgs)
            if c is None:
                continue
            width = cq_treewidth(c[0])
            assert _quotient_width(var, answer_at, pairs, rgs) == width, (q, rgs)
            seen.add((q.arity, width))
    assert {(a, w) for a in (0, 1, 2) for w in (1, 2)} <= seen


_VARS6 = [f"x{i}" for i in range(6)]


@settings(max_examples=200, deadline=None)
@given(atoms=st.lists(st.tuples(st.sampled_from(["A", "r", "s"]),
                                st.sampled_from(_VARS6), st.sampled_from(_VARS6)),
                      min_size=1, max_size=9),
       arity=st.sampled_from([0, 1, 2]),
       blocks=st.lists(st.integers(0, 5), min_size=6, max_size=6))
def test_quotient_width_is_the_width_of_the_contraction_shrinking(atoms, arity, blocks):
    q_atoms = [ConceptFact(n, a) if n == "A" else RoleFact(n, a, b) for n, a, b in atoms]
    bound = sorted({t for at in q_atoms for t in at.terms()})
    q = CQ(bound[:arity], q_atoms)
    var, answer_at, pairs = _quotient_inputs(q)
    # the partition of var that ``blocks`` draws, as a restricted growth string
    first: dict = {}
    rgs = tuple(first.setdefault(b, len(first)) for b in blocks[:len(var)])
    c = contraction(q, var, rgs)
    assume(c is not None)
    assert _quotient_width(var, answer_at, pairs, rgs) == cq_treewidth(c[0])


def test_a_disjunct_of_width_at_most_k_is_its_own_finest_contraction():
    rng = random.Random(1010)
    seen = set()
    for k in (1, 2):
        for _ in range(60):
            arity = rng.choice([0, 1, 2])
            q = rand_cq(rng, rng.randint(max(arity, 1), 6), arity,
                        names=["A", "B"], roles=["r", "s"], max_tw=k)
            identity = tuple(range(len(q.variables())))
            assert _finest_contractions(q, k) == [(q, identity)], (q, k)
            seen.add((k, cq_treewidth(q)))
    assert {(1, 1), (2, 1), (2, 2)} <= seen


def _verdict_bytes(v):
    return (v.outcome,
            None if v.witness is None else serialize_query(v.witness.query),
            None if v.counterexample is None else serialize_database(v.counterexample),
            v.note)


def _check_against_all_disjuncts(Q, k, budget=5):
    """``decide_tw_equiv_general`` against the check of every disjunct:
    the same bytes, "yes" with the approximation as witness where no
    disjunct is wider than k.  Over the full schema the outcome also
    matches the subset-search oracle on queries of at most 6 atoms, where
    its 2^|atoms| search stays fast."""
    v = decide_tw_equiv_general(Q, k, budget=budget)
    ref = decide_tw_equiv_all_disjuncts(Q, k, budget=budget)
    wide = any(cq_treewidth(c) > k for c in Q.query.disjuncts)
    assert _verdict_bytes(v) == _verdict_bytes(ref), (Q, k)
    if not wide:
        assert v.outcome == "yes" and v.witness == ucq_k_approximation(Q, k)
    if Q.schema.full and sum(len(c.atoms) for c in Q.query.disjuncts) <= 6:
        assert decide_tw_equiv_full(Q, k).outcome == v.outcome, (Q, k)
    return v.outcome, wide


def test_narrow_disjuncts_skip_containment_with_the_same_verdicts():
    # criterion 5's OMQs (seed 505) and criterion 6's plain CQs (seed 606),
    # each at k = 1 and 2; the first 60 OMQs again without the name A2
    names, roles = ["A1", "A2", "B1"], ["r", "s"]
    rng = random.Random(505)
    omqs = []
    for _ in range(150):
        o = rand_elhdr_ontology(rng, rng.randint(1, 5), names=names, roles=roles)
        q = rand_ucq(rng, rng.randint(1, 2), 5, rng.choice([0, 1]),
                     names=names, roles=roles)
        omqs.append(OMQ(o, FULL_SCHEMA, q))
    rng = random.Random(606)
    for _ in range(150):
        q = rand_cq(rng, rng.randint(1, 7), 0, names=["A", "B"], roles=roles)
        omqs.append(OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, UCQ((q,))))
    schema = Schema.of(["A1", "B1", "r", "s"])
    restricted = [OMQ(Q.ontology, schema, Q.query) for Q in omqs[:60]]
    shapes = set()
    for Q in omqs + restricted:
        for k in (1, 2):
            outcome, wide = _check_against_all_disjuncts(Q, k)
            mixed = len({cq_treewidth(c) <= k for c in Q.query.disjuncts}) > 1
            shapes.add((Q.schema.full, outcome, wide, mixed))
    assert {(True, "yes", False, False), (True, "yes", True, False),
            (True, "no", True, False), (True, "no", True, True),
            (True, "yes", True, True), (False, "yes", False, False),
            (False, "no", True, False), (False, "no", True, True),
            (False, "yes", True, False)} <= shapes


_VARS = ["x0", "x1", "x2", "x3"]
_ATOMS = st.one_of(
    st.tuples(st.sampled_from(["A1", "B1"]), st.sampled_from(_VARS)).map(
        lambda t: ConceptFact(*t)),
    st.tuples(st.sampled_from(["r", "s"]), st.sampled_from(_VARS),
              st.sampled_from(_VARS)).map(lambda t: RoleFact(*t)))


# a role cycle over three or four variables makes a disjunct of width 2
# likely, so that the wide branches are reached about as often as the
# narrow one
_CYCLE = st.one_of(
    st.just([]),
    st.sampled_from([_VARS[1:], _VARS]).flatmap(lambda vs: st.lists(
        st.tuples(st.sampled_from(["r", "s"]), st.booleans()),
        min_size=len(vs), max_size=len(vs)).map(lambda edges: [
            RoleFact(r, *((a, b) if fwd else (b, a)))
            for (r, fwd), a, b in zip(edges, vs, vs[1:] + vs[:1])])))
_DISJUNCT = st.tuples(_CYCLE, st.lists(_ATOMS, min_size=1, max_size=5)).map(
    lambda t: t[0] + t[1])


def _ucq_of(disjuncts, arity):
    avs = tuple(_VARS[:arity])
    assume(all(set(avs) <= {t for at in atoms for t in at.terms()}
               for atoms in disjuncts))
    return UCQ(CQ(avs, atoms) for atoms in disjuncts)


@settings(max_examples=120, deadline=None)
@given(disjuncts=st.lists(_DISJUNCT, min_size=1, max_size=2),
       arity=st.sampled_from([0, 1]),
       n_axioms=st.integers(0, 4), onto_seed=st.integers(0, 2**16),
       schema=st.sampled_from([None, ("A1", "r"), ("A1", "B1", "r", "s")]),
       k=st.sampled_from([1, 2]))
def test_narrow_disjuncts_skip_containment_shrinking(disjuncts, arity, n_axioms,
                                                     onto_seed, schema, k):
    o = rand_elhdr_ontology(random.Random(onto_seed), n_axioms,
                            names=["A1", "B1"], roles=["r", "s"])
    Q = OMQ(o, FULL_SCHEMA if schema is None else Schema.of(schema),
            _ucq_of(disjuncts, arity))
    _check_against_all_disjuncts(Q, k, budget=4)


def _witness_forms(v):
    """The witness's disjuncts up to isomorphism, the answer variables
    named by their positions."""
    if v.witness is None:
        return None
    out = set()
    for q in v.witness.query.disjuncts:
        by_position = {x: f"_a{i}" for i, x in enumerate(q.answer_vars)}
        out.add(canonical_form(q.rename(by_position).atoms, tuple(by_position.values())))
    return out


@settings(max_examples=80, deadline=None)
@given(disjuncts=st.lists(_DISJUNCT, min_size=1, max_size=3),
       arity=st.sampled_from([0, 1]),
       n_axioms=st.integers(0, 3), onto_seed=st.integers(0, 2**16),
       schema=st.sampled_from([None, ("A1", "r"), ("A1", "B1", "r", "s")]),
       k=st.sampled_from([1, 2]), data=st.data())
def test_tw_equiv_ignores_disjunct_order_and_variable_names(
        disjuncts, arity, n_axioms, onto_seed, schema, k, data):
    # the approximation is the finest contractions of every disjunct, up to
    # isomorphism; neither the order of the disjuncts nor the names of the
    # variables may change it, or the outcome
    o = rand_elhdr_ontology(random.Random(onto_seed), n_axioms,
                            names=["A1", "B1"], roles=["r", "s"])
    S = FULL_SCHEMA if schema is None else Schema.of(schema)
    q = _ucq_of(disjuncts, arity)
    names = data.draw(st.permutations(["y0", "y1", "y2", "x3", "x0", "z"]))
    renaming = dict(zip(_VARS, names))
    variants = [q, UCQ(data.draw(st.permutations(q.disjuncts))),
                UCQ(cq.rename(renaming) for cq in q.disjuncts)]
    seen = []
    for u in variants:
        v = decide_tw_equiv_general(OMQ(o, S, u), k, budget=4)
        seen.append((v.outcome, _witness_forms(v)))
    assert seen[0] == seen[1] == seen[2], [str(u) for u in variants]


@settings(max_examples=300, deadline=None)
@given(atoms=_DISJUNCT, arity=st.sampled_from([0, 1, 2]), k=st.sampled_from([1, 2]))
def test_a_narrow_disjunct_is_its_own_finest_contraction(atoms, arity, k):
    (q,) = _ucq_of([atoms], arity).disjuncts
    finest = _finest_contractions(q, k)
    if cq_treewidth(q) <= k:
        assert finest == [(q, tuple(range(len(q.variables()))))]
    else:
        assert q not in [qc for qc, _ in finest]


def test_containment_basics():
    assert contained(Q1, Q1).is_yes()
    qa = OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, parse_query("q(x) :- A(x)"))
    qb = OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, parse_query("q(x) :- B(x)"))
    assert contained(qa, qb).outcome == "no"


def test_example1_subquery_equivalence():
    sub = OMQ(omega1, FULL_SCHEMA,
              UCQ((fig2_cq.restrict({"x1", "x2", "x3"}),)))
    assert equivalent_full_schema(sub, Q1)


def test_emptiness():
    assert is_empty_full_schema(
        OMQ(parse_ontology("A <= bot"), FULL_SCHEMA, parse_query("q(x) :- A(x)")))
    assert not is_empty_full_schema(
        OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, parse_query("q(x) :- A(x)")))
    assert is_empty_full_schema(
        OMQ(parse_ontology("A & B <= bot"), FULL_SCHEMA,
            parse_query("q() :- A(x), B(x)")))


def test_maximum_contractions_trivial():
    q = OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, parse_query("q() :- A(x), A(y)"))
    (m,) = maximum_contractions(q)
    assert len(m.query.disjuncts[0].variables()) == 1
    core_q = OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, fig2)
    (m2,) = maximum_contractions(core_q)
    assert m2.query.disjuncts[0] == fig2_cq


def test_maximum_contractions_inverse_ontology():
    # the two-axiom inverse ontology lets the cycle collapse all the way to
    # a single edge; both single-pair merges stay equivalent but are not
    # maximal (machine-checked; the worked example's claim stops early)
    ms = maximum_contractions(Q_mc)
    assert len(ms) == 1
    (m,) = ms
    assert sorted(m.query.disjuncts[0].variables()) == ["x1", "x2"]
    q24 = OMQ(omega_mc, FULL_SCHEMA, UCQ((fig2_cq.rename({"x4": "x2"}),)))
    q13 = OMQ(omega_mc, FULL_SCHEMA, UCQ((fig2_cq.rename({"x3": "x1"}),)))
    assert equivalent_full_schema(q24, Q_mc)
    assert equivalent_full_schema(q13, Q_mc)
    assert equivalent_full_schema(m, Q_mc)


def test_maximum_contractions_walk_matches_the_scan():
    # the fixtures, and random ELHdr and ELI OMQs of arity 0 and 1
    cases = [Q1, Q2, Q_mc, OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, fig2)]
    rng = random.Random(1313)
    for draw in (rand_elhdr_ontology, rand_eli_ontology):
        for _ in range(60):
            o = draw(rng, rng.randint(1, 4), names=["A", "B"], roles=["r", "s"], depth=1)
            arity = rng.choice([0, 1])
            q = rand_cq(rng, rng.randint(max(arity, 1), 5), arity,
                        names=["A", "B"], roles=["r", "s"])
            cases.append(OMQ(o, FULL_SCHEMA, UCQ((q,))))
    shapes = set()
    for Q in cases:
        q = Q.query.disjuncts[0]
        if not is_consistent(cq_as_database(q), Q.ontology):
            with pytest.raises(QueryError):
                maximum_contractions(Q)
            continue
        got = maximum_contractions(Q)
        assert ([serialize_query(m.query) for m in got]
                == [serialize_query(m.query) for m in maximum_contractions_by_scan(Q)]), Q
        merged = any(len(m.query.disjuncts[0].variables()) < len(q.variables()) for m in got)
        shapes.add((Q.arity, merged, len(got) > 1))
    assert {(0, False, False), (0, True, False), (1, False, False), (1, True, False),
            (0, True, True)} <= shapes


def test_maximum_contractions_test_only_the_merges_they_reach(monkeypatch):
    # a directed 9-cycle under A <= exists r . A: no merge preserves
    # equivalence, so the walk tests the 36 merges of the identity and
    # stops, where a scan tests every one of the 21,147 partitions
    import omqlab.treelike as treelike
    calls = []

    def counted(*args):
        calls.append(args)
        return find_homomorphism(*args)

    find_homomorphism = treelike.find_homomorphism
    monkeypatch.setattr(treelike, "find_homomorphism", counted)
    ring = ", ".join(f"r(x{i},x{(i + 1) % 9})" for i in range(9))
    Q = OMQ(parse_ontology("A <= exists r . A"), FULL_SCHEMA,
            parse_query(f"q() :- A(x0), {ring}"))
    (m,) = maximum_contractions(Q)
    assert m.query == Q.query and len(calls) == 36


def test_contraction_walks_stop_at_the_cap(monkeypatch):
    # both partition-lattice walks raise CapExceeded past the cap, which
    # sits above Bell(10) = 115,975, so every walk over at most 10
    # variables finishes; the Boolean 2 x 3 grid has tree width 2
    import omqlab.treelike as treelike
    assert treelike.CONTRACTION_WALK_CAP > 115975
    q = parse_query("q() :- r(x0,x1), r(x1,x2), r(y0,y1), r(y1,y2), "
                    "s(x0,y0), s(x1,y1), s(x2,y2)").disjuncts[0]
    Q = OMQ(parse_ontology("A <= exists r . A"), FULL_SCHEMA, UCQ((q,)))
    assert _finest_contractions(q, 1) and maximum_contractions(Q)
    monkeypatch.setattr(treelike, "CONTRACTION_WALK_CAP", 10)
    for walk in (lambda: _finest_contractions(q, 1), lambda: maximum_contractions(Q)):
        with pytest.raises(CapExceeded, match="contraction walk limited to 10 partitions"):
            walk()


def test_rewriting_empty_ontology_is_core_like():
    q = OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, parse_query("q() :- A(x), A(y)"))
    rw = rewriting(q)
    assert len(rw.query.disjuncts[0].variables()) == 1


def test_rewriting_without_atoms_falls_back_to_the_maximum_contraction():
    # the homomorphism lands in the anonymous part that top <= exists r . top
    # builds, and no tree is attached for a top left side
    Q = OMQ(parse_ontology("top <= exists r . top"), FULL_SCHEMA, parse_query("q() :- r(x,y)"))
    rw = rewriting(Q)
    assert rw.query == Q.query
    assert equivalent_full_schema(rw, Q)


def test_rewriting_example1():
    rw = rewriting(Q1)
    assert cq_treewidth(rw.query.disjuncts[0]) <= 1
    assert equivalent_full_schema(rw, Q1)


def test_rewriting_inverse_example():
    rw = rewriting(Q_mc)
    assert cq_treewidth(rw.query.disjuncts[0]) <= 1
    assert equivalent_full_schema(rw, Q_mc)


def test_decide_full_example1():
    v = decide_tw_equiv_general(Q1, 1)
    assert v.is_yes()
    assert all(cq_treewidth(c) <= 1 for c in v.witness.query.disjuncts)
    assert equivalent_full_schema(v.witness, Q1)
    assert decide_tw_equiv_general(OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, fig2), 1).outcome == "no"
    assert decide_tw_equiv_general(OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, fig2), 2).is_yes()


def test_decide_full_empty_query():
    Q = OMQ(parse_ontology("A <= bot"), FULL_SCHEMA, parse_query("q() :- A(x), r(x,y)"))
    v = decide_tw_equiv_general(Q, 1)
    assert v.is_yes()


def test_decide_full_agrees_with_core_on_empty_ontology():
    rng = random.Random(61)
    for _ in range(40):
        q = rand_cq(rng, rng.randint(1, 5), 0, names=["A", "B"], roles=["r", "s"])
        Q = OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, UCQ((q,)))
        for k in (1, 2):
            want = cq_treewidth(core(q)) <= k
            assert decide_tw_equiv_general(Q, k).is_yes() == want


def test_decide_general_full_schema_delegates():
    v = decide_tw_equiv_general(OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, fig2), 1)
    assert v.outcome == "no" and v.counterexample is not None
    assert evaluate_naive(OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, fig2),
                          v.counterexample).boolean()


def test_decide_general_q2():
    v = decide_tw_equiv_general(Q2, 1, budget=6)
    assert v.outcome == "no" and v.counterexample is not None
    # restricting the schema hides the separating concept
    s = Schema.of(Q2_SCHEMA_NAMES)
    v2 = decide_tw_equiv_general(OMQ(Q2.ontology, s, Q2.query), 1, budget=6)
    assert v2.outcome == "unknown"


def test_ucq_pruning_keeps_semantics():
    q = parse_query("q() :- A(x)\nq() :- A(x), B(y)")
    Q = OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, q)
    v = decide_tw_equiv_general(Q, 1)
    assert v.is_yes()
    assert equivalent_full_schema(v.witness, Q)


def test_contains_dllite_horn_identity():
    o = parse_ontology("dialect: DL-LiteR-horn\nA <= B")
    Q = OMQ(o, FULL_SCHEMA, parse_query("q(x) :- B(x)"))
    assert contained(Q, Q).is_yes()


def test_contains_dllite_horn_separation():
    s = Schema.of(["A", "B"])
    qa = OMQ(Ontology_dllite(), s, parse_query("q(x) :- A(x)"))
    qb = OMQ(Ontology_dllite(), s, parse_query("q(x) :- B(x)"))
    v = contained(qa, qb)
    assert v.outcome == "no" and v.counterexample == parse_database("A(x)")


def Ontology_dllite():
    from omqlab.model import Dialect, Ontology
    return Ontology((), Dialect.DLLITE_R_HORN)


def test_contains_dllite_horn_via_ontology():
    o = parse_ontology("dialect: DL-LiteR-horn\nA <= B")
    s = Schema.of(["A", "B"])
    qa = OMQ(o, s, parse_query("q(x) :- A(x)"))
    qb = OMQ(o, s, parse_query("q(x) :- B(x)"))
    assert contained(qa, qb).is_yes()
    assert contained(qb, qa).outcome == "no"


def test_contains_dllite_horn_existential():
    o = parse_ontology("dialect: DL-LiteR-horn\nA <= exists r . top")
    s = Schema.of(["A", "r"])
    q_edge = OMQ(o, s, parse_query("q(x) :- r(x,y)"))
    q_a = OMQ(o, s, parse_query("q(x) :- A(x)"))
    # A(x) forces an r-successor, so the edge query subsumes the A query
    assert contained(q_a, q_edge).is_yes()
    # but an edge never forces A
    assert contained(q_edge, q_a).outcome == "no"
    assert contained(q_edge, q_edge).is_yes()


@pytest.mark.parametrize("onto, schema, query, outcome, cex", [
    # the chase of the one-point schema database A(a) matches neither
    # query, and nothing clashes there: the left OMQ is empty under the
    # schema
    ("A <= C", ["A"], "q(x) :- B(x)", "yes", None),
    ("A <= C", ["A"], "q(x) :- r(x,y)", "yes", None),
    # A(a) clashes with A <= bot, and on A(x) every tuple is an answer
    ("A <= bot", ["A"], "q(x) :- B(x)", "no", "A(x)"),
    # A(a) puts a in B, so the disjunct is live
    ("A <= B", ["A"], "q(x) :- B(x)", "no", "A(x)"),
])
def test_contained_with_an_unrelated_right_ontology(onto, schema, query, outcome, cex):
    Q1 = OMQ(parse_ontology(onto), Schema.of(schema), parse_query(query))
    Q2 = OMQ(EMPTY_ONTOLOGY, Schema.of(schema), parse_query("q(x) :- E(x)"))
    v = contained(Q1, Q2)
    assert (v.outcome, v.counterexample) == (
        outcome, None if cex is None else parse_database(cex))


@pytest.mark.parametrize("onto, same, schema, query, query2, outcome, cex", [
    # the loop r(a,a) satisfies func r, but r is a schema name, so two
    # r-successors of one constant clash
    ("func r", False, ["r"], "q(x) :- B(x)", "q(x) :- E(x)", "no", "r(w0,w1)\nr(w0,w2)"),
    # r is outside the schema: no schema database clashes with func r, and
    # B holds in no chase of one
    ("func r\nA <= exists r . top", False, ["A"], "q(x) :- r(x,y), B(y)", "q(x) :- E(x)",
     "yes", None),
    ("func r\nA <= exists r . top", True, ["A"], "q(x) :- r(x,y), B(y)", "q(x) :- E(x)",
     "yes", None),
    # the left disjunct's own chase puts its answer in B
    ("func r\nexists inv(r) . top <= B", True, ["A", "r"], "q(x) :- r(y,x)", "q(x) :- B(x)",
     "yes", None),
])
def test_contained_with_a_functional_role_under_a_schema(onto, same, schema, query, query2,
                                                         outcome, cex):
    o = parse_ontology(onto)
    Q1 = OMQ(o, Schema.of(schema), parse_query(query))
    Q2 = OMQ(o if same else EMPTY_ONTOLOGY, Schema.of(schema), parse_query(query2))
    v = contained(Q1, Q2)
    assert (v.outcome, v.counterexample) == (
        outcome, None if cex is None else parse_database(cex))
    _check_containment_verdict(Q1, Q2)


def _check_containment_verdict(Q1, Q2):
    """``contained(Q1, Q2)``'s "no" database is over the schema and
    separates, and no database on two constants separates a "yes"."""
    v = contained(Q1, Q2)
    if v.outcome == "no":
        d = v.counterexample
        assert d.uses_only(Q1.schema)
        assert evaluate_naive(Q1, d).answers - evaluate_naive(Q2, d).answers
    elif v.outcome == "yes":
        assert separating_database_by_brute_force(Q1, Q2) is None, (Q1, Q2)
    return v.outcome


_BASIC = st.sampled_from([Atomic("A"), Atomic("B"), TOP]
                         + [Exists(Role(r, inv), TOP) for r in ("r", "s")
                            for inv in (False, True)])


@st.composite
def _dllite_ontologies(draw):
    """DL-LiteR(-horn) ontologies over A, B, r and s: up to three concept
    inclusions, a role inclusion and a role disjointness."""
    horn = draw(st.booleans())
    axioms = []
    for lhs, rhs in draw(st.lists(st.tuples(st.lists(_BASIC, min_size=1, max_size=2),
                                            st.one_of(_BASIC, st.just(BOT))),
                                  max_size=3)):
        axioms.append(ConceptInclusion(conj(*lhs), rhs if horn or len(lhs) == 1 else BOT))
    role = st.sampled_from(["r", "s"])
    axioms += draw(st.lists(st.builds(RoleInclusion, st.builds(Role, role),
                                      st.builds(Role, role, st.booleans())), max_size=1))
    if draw(st.booleans()):
        axioms.append(RoleDisjointness(("r", "s")))
    return Ontology(axioms, Dialect.DLLITE_R_HORN if horn else Dialect.DLLITE_R)


_CONTAIN_ATOMS = st.one_of(
    st.tuples(st.sampled_from(["A", "B", "E"]), st.sampled_from(_VARS[:3])).map(
        lambda t: ConceptFact(*t)),
    st.tuples(st.sampled_from(["r", "s"]), st.sampled_from(_VARS[:3]),
              st.sampled_from(_VARS[:3])).map(lambda t: RoleFact(*t)))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["dllite", "elhi"]), right=st.sampled_from(
           ["same", "more", "other", "empty"]),
       schema=st.sets(st.sampled_from(["A", "B", "E", "r", "s"]), min_size=1, max_size=3),
       atoms=st.tuples(*[st.lists(_CONTAIN_ATOMS, min_size=1, max_size=3)] * 2),
       arity=st.sampled_from([0, 1]), data=st.data())
def test_contained_agrees_with_the_brute_force(kind, right, schema, atoms, arity, data):
    # the right ontology is the left one, the left one with more axioms
    # (so it entails the left one), another one, or empty
    ontologies = (_dllite_ontologies() if kind == "dllite"
                  else elhi_ontologies(names=("A", "B"), leaves=3, max_axioms=3))
    o1 = data.draw(ontologies)
    o2 = {"same": o1, "empty": Ontology((), o1.dialect)}.get(right) or data.draw(ontologies)
    if right == "more":
        o2 = Ontology(o1.axioms | o2.axioms,
                      Dialect.DLLITE_R_HORN if kind == "dllite" else Dialect.ELHI_BOT)
    q1, q2 = _ucq_of([atoms[0]], arity), _ucq_of([atoms[1]], arity)
    S = Schema.of(schema)
    _check_containment_verdict(OMQ(o1, S, q1), OMQ(o2, S, q2))


def test_contained_agrees_with_the_brute_force_on_a_fixed_sweep():
    # 400 pairs, DL-LiteR(-horn) and ELHI_bot alternately (seed 2525): 291
    # "yes", 103 "no" and 6 "unknown", none of them with a separating
    # database on two constants
    rng = random.Random(2525)
    outcomes = [_check_containment_verdict(*rand_containment_pair(
        rng, "dllite" if i % 2 else "elhi")) for i in range(400)]
    assert outcomes.count("unknown") <= 6
    assert {"yes", "no", "unknown"} <= set(outcomes)


def test_contained_adds_a_constant_to_a_clash_witness():
    # pair 270 of rand_containment_pair at seed 2525: B <= bot makes B(c)
    # a clash, where the left OMQ answers c and so does the right one,
    # q(x0) :- B(x0); one more constant with a schema fact is answered by
    # the left OMQ only
    rng = random.Random(2525)
    for i in range(271):
        Q1, Q2 = rand_containment_pair(rng, "dllite" if i % 2 else "elhi")
    assert Q2.query == parse_query("q(x0) :- B(x0)") and not Q2.ontology.axioms
    v = contained(Q1, Q2)
    assert (v.outcome, v.counterexample) == ("no", parse_database("A(_w4)\nB(_w0)"))
    _check_containment_verdict(Q1, Q2)


def test_contained_drops_the_facts_a_candidate_entails():
    # pair 226 of rand_containment_pair at seed 77: the candidate of the
    # identity contraction keeps s(x0,x0), which r(x0,x0) entails under
    # r <= s and the right query matches; without it, r(x0,x0) separates
    S = Schema.of(["B", "r", "s"])
    Q1 = OMQ(Ontology([RoleInclusion(Role("r"), Role("s"))], Dialect.ELHI_BOT), S,
             parse_query("q() :- r(x1,x2), r(x2,x1), s(x0,x0), s(x1,x0)"))
    Q2 = OMQ(parse_ontology("B <= bot\nB <= exists inv(s) . B"), S,
             parse_query("q() :- s(x1,x0), s(x2,x0)"))
    v = contained(Q1, Q2)
    assert (v.outcome, v.counterexample) == ("no", parse_database("r(x0,x0)"))
    _check_containment_verdict(Q1, Q2)


def test_tw_equiv_under_a_schema_skips_a_disjunct_no_schema_database_matches():
    # draw 155 of the criterion-5 OMQs at seed 505, schema {r}: no chase of
    # an r-database has two r-linked elements with a common s-successor, so
    # the wide disjunct is dead and the approximation is equivalent
    o = parse_ontology("A1 <= exists s . A1\nA2 <= top\nB1 <= A1\n"
                       "exists s . B1 <= top\nrange r <= exists r . B1")
    Q = OMQ(o, Schema.of(["r"]), parse_query(
        "q() :- A2(x1), B1(x1), s(x0,x1)\nq() :- r(x1,x2), s(x1,x0), s(x2,x0)"))
    v = decide_tw_equiv_general(Q, 1)
    assert v.is_yes()
    assert separating_database_by_brute_force(Q, v.witness) is None


def test_approx_soundness_random_full_schema():
    rng = random.Random(71)
    for _ in range(15):
        o = rand_elhdr_ontology(rng, rng.randint(1, 4), names=["A1", "B1"], roles=["r"])
        q = UCQ((rand_cq(rng, rng.randint(1, 4), 0, names=["A1", "B1"], roles=["r"]),))
        Q = OMQ(o, FULL_SCHEMA, q)
        Qa = ucq_k_approximation(Q, 1)
        assert contained(Qa, Q).is_yes()


def test_decision_matches_maximum_contraction_widths():
    # the exact verdict coincides with "every maximum contraction fits k"
    # on the worked fixtures
    for Q in (Q1, Q_mc, OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, fig2)):
        maxes = maximum_contractions(Q)
        for k in (1, 2):
            want = all(cq_treewidth(m.query.disjuncts[0]) <= k for m in maxes)
            assert decide_tw_equiv_general(Q, k).is_yes() == want


def test_decision_agrees_with_subset_search_oracle():
    rng = random.Random(62)
    cases = []
    for _ in range(60):
        q = rand_cq(rng, rng.randint(1, 5), 0, names=["A", "B"], roles=["r", "s"])
        cases.append(OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, UCQ((q,))))
    for draw in (rand_elhdr_ontology, rand_eli_ontology):
        for _ in range(40):
            o = draw(rng, rng.randint(1, 3), names=["A", "B"], roles=["r"], depth=1)
            arity = rng.choice([0, 1])
            q = rand_cq(rng, rng.randint(max(arity, 1), 3), arity,
                        names=["A", "B"], roles=["r"])
            cases.append(OMQ(o, FULL_SCHEMA, UCQ((q,))))
    outcomes = set()
    for Q in cases:
        for k in (1, 2):
            yes = decide_tw_equiv_general(Q, k).is_yes()
            assert yes == decide_tw_equiv_full(Q, k).is_yes(), (Q, k)
            outcomes.add(yes)
    assert outcomes == {True, False}


def test_entailed_concept_trees_match_per_pair_entailment():
    rng = random.Random(2024)
    names, roles = ["A1", "A2", "A3", "B1"], ["r", "s"]
    pairs_seen = 0
    for _ in range(60):
        o = rand_elhdr_ontology(rng, rng.randint(1, 8), names=names, roles=roles)
        arity = rng.choice([0, 0, 1])
        q = rand_cq(rng, rng.randint(max(arity, 1), 6), arity,
                    names=names, roles=roles, max_tw=2)
        Q = OMQ(o, FULL_SCHEMA, UCQ((q,)))
        dq = cq_as_database(q)
        fresh = FreshVars("_e")
        want = []
        lhss = []
        for ci in elhi_view(o).concept_inclusions():
            c = ci.lhs
            if c not in lhss and not c.contains_bot() and not isinstance(c, Top):
                lhss.append(c)
        for c in lhss:
            for x in sorted(q.variables()):
                if entailed_concept_fact(dq, o, c, x):
                    want.append((x, concept_tree(c, x, fresh)))
        assert list(entailed_concept_trees(Q)) == want
        pairs_seen += len(want)
    assert pairs_seen > 0


def test_contained_under_one_ontology_saturates_each_candidate_once(monkeypatch):
    # with O2 = O1, Q1 and Q2 evaluated on a candidate database share its
    # saturation
    import omqlab.entailment
    import omqlab.treelike
    computed, evaluated = [], []
    saturated, naive = omqlab.entailment._saturated, omqlab.treelike.evaluate_naive

    def counted_saturation(d, onorm):
        computed.append(d)
        return saturated(d, onorm)

    def counted_naive(Q, d):
        evaluated.append(d)
        return naive(Q, d)

    monkeypatch.setattr(omqlab.entailment, "_saturated", counted_saturation)
    monkeypatch.setattr(omqlab.entailment, "_SATURATIONS", {})
    monkeypatch.setattr(omqlab.treelike, "evaluate_naive", counted_naive)
    o = parse_ontology("A <= exists r . B\n")
    schema = Schema(False, frozenset({"A", "r", "B"}))
    Q1 = OMQ(o, schema, parse_query("q(x) :- A(x)\nq(x) :- r(x,y), B(y)"))
    Q2 = OMQ(o, schema, parse_query("q(x) :- A(x)"))
    assert contained(Q1, Q2).outcome == "no"
    candidates = set(evaluated)
    assert len(evaluated) == 2 * len(candidates) >= 4
    assert all(computed.count(d) == 1 for d in candidates)
