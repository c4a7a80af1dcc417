import itertools
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from omqlab.evaluation import (
    EvalResult,
    _WidthPlan,
    evaluate_fpt,
    evaluate_naive,
)
from omqlab.entailment import is_consistent
from omqlab.graphalg import cq_decomposition, cq_treewidth
from omqlab.pebble import evaluate_pebble
from omqlab.model import (
    CQ,
    Atomic,
    ConceptFact,
    ConceptInclusion,
    Database,
    Dialect,
    Exists,
    FULL_SCHEMA,
    OMQ,
    OmqlabError,
    Ontology,
    Role,
    RoleFact,
    Schema,
    UCQ,
    cq_as_database,
)
from omqlab.surface import parse_database, parse_ontology, parse_query
from fixtures import (
    D1,
    D2,
    Q1,
    Q16,
    branching_family,
    d_example1,
    fig2,
    fig2_cq,
    omega16,
    phi1,
    phi2,
)

import sys, os
sys.path.insert(0, os.path.dirname(__file__))
from gen import (
    elhi_ontologies,
    rand_cq,
    rand_database,
    rand_elhdr_ontology,
    rand_eli_ontology,
    rand_ucq,
)
from omqlab.model import EMPTY_ONTOLOGY


def test_example1_contraction_fires():
    res = evaluate_naive(Q1, d_example1)
    assert res.consistent and res.boolean()


def test_no_answers_on_mismatched_names():
    Q = OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, parse_query("q(x) :- A(x)"))
    assert evaluate_naive(Q, parse_database("B(a)")).answers == frozenset()


def test_sixteen_axiom_cycles():
    assert evaluate_naive(Q16, D1).boolean()
    assert evaluate_naive(Q16, D2).boolean()
    assert evaluate_naive(OMQ(omega16, FULL_SCHEMA, phi1), D2).boolean()
    assert evaluate_naive(OMQ(omega16, FULL_SCHEMA, phi2), D1).boolean()
    assert not evaluate_naive(OMQ(omega16, FULL_SCHEMA, phi1), D1).boolean()
    assert not evaluate_naive(OMQ(omega16, FULL_SCHEMA, phi2), D2).boolean()


def test_schema_check():
    s = Schema.of(["A"])
    Q = OMQ(EMPTY_ONTOLOGY, s, parse_query("q(x) :- A(x)"))
    with pytest.raises(OmqlabError, match="names outside the schema"):
        evaluate_naive(Q, parse_database("B(a)"))


def test_inconsistent_database_yields_all_tuples():
    from omqlab.surface import parse_ontology
    Q = OMQ(parse_ontology("A <= bot"), FULL_SCHEMA, parse_query("q(x) :- B(x)"))
    d = parse_database("A(a)\nB(b)")
    for res in (evaluate_naive(Q, d), evaluate_fpt(Q, d, 1), evaluate_pebble(Q, d, 1)):
        assert not res.consistent
        assert res.answers == frozenset({("a",), ("b",)})


def test_fpt_matches_naive_on_example1():
    assert evaluate_fpt(Q1, d_example1, 2).answers == \
        evaluate_naive(Q1, d_example1).answers


def test_fpt_precondition():
    with pytest.raises(OmqlabError, match="tree width 2 > 1"):
        evaluate_fpt(OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, fig2), d_example1, 1)


def _matching(q: UCQ) -> OMQ:
    # under the empty ontology the canonical model is the database itself,
    # so fpt evaluation is the width-k join into the data
    return OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, q)


def test_tw_dp_path():
    path5 = parse_query("q() :- r(x1,x2), r(x2,x3), r(x3,x4), r(x4,x5), r(x5,x6)")
    d = parse_database("r(a,b)\nr(b,c)\nr(c,d)\nr(d,e)\nr(e,f)\nr(f,g)")
    assert evaluate_fpt(_matching(path5), d, 1).boolean()
    assert evaluate_fpt(_matching(fig2), cq_as_database(fig2_cq), 2).boolean()


def test_tw_dp_agrees_with_bruteforce():
    rng = random.Random(8)
    for _ in range(80):
        q = rand_cq(rng, rng.randint(1, 6), rng.choice([0, 1]),
                    names=["A", "B"], roles=["r", "s"], max_tw=2)
        d = rand_database(rng, rng.randint(1, 4), names=["A", "B"], roles=["r", "s"])
        if not d.dom:
            continue
        k = max(1, cq_treewidth(q))
        brute = {a for a in itertools.product(sorted(d.dom), repeat=q.arity)
                 if _brute_match(q, d, a)}
        assert evaluate_fpt(_matching(UCQ((q,))), d, k).answers == brute


def _brute_match(q, d, a):
    pin = dict(zip(q.answer_vars, a))
    qv = sorted(q.quantified_vars())
    for combo in itertools.product(sorted(d.dom), repeat=len(qv)):
        h = dict(pin)
        h.update(zip(qv, combo))
        if all(at.rename(h) in d.facts for at in q.atoms):
            return True
    return False


def test_monotone_under_fact_addition():
    rng = random.Random(21)
    for _ in range(25):
        o = rand_eli_ontology(rng, rng.randint(1, 4), names=["A", "B"],
                              roles=["r"], bot_prob=0.0)
        d = rand_database(rng, 3, names=["A", "B"], roles=["r"])
        if not d.dom:
            continue
        q = UCQ((rand_cq(rng, rng.randint(1, 3), 0, names=["A", "B"], roles=["r"]),))
        Q = OMQ(o, FULL_SCHEMA, q)
        base = evaluate_naive(Q, d).answers
        extra = Database(list(d.facts) + [RoleFact("r", "c0", "c0")])
        assert base <= evaluate_naive(Q, extra).answers


def test_empty_ontology_degenerates_to_matching():
    from oracles import all_answers
    rng = random.Random(22)
    for _ in range(25):
        q = UCQ((rand_cq(rng, rng.randint(1, 4), rng.choice([0, 1]),
                         names=["A", "B"], roles=["r"]),))
        d = rand_database(rng, 3, names=["A", "B"], roles=["r"])
        if not d.dom:
            continue
        Q = OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, q)
        assert evaluate_naive(Q, d).answers == frozenset(all_answers(q, d))


def test_pipelines_agree_on_multi_disjunct_ucqs():
    # the union over disjuncts: the three pipelines against each other, and
    # naive against the chase oracle, which shares no code with the driver
    from oracles import oracle_answers
    names, roles = ["A1", "A2", "B1"], ["r", "s"]
    rng = random.Random(4)
    n = nonempty = wider_than_each = 0
    while n < 120:
        o = rand_elhdr_ontology(rng, rng.randint(1, 5), names=names, roles=roles)
        d = rand_database(rng, rng.randint(2, 4), names=names, roles=roles)
        q = rand_ucq(rng, rng.randint(2, 3), 4, rng.choice([1, 2]), names=names,
                     roles=roles, max_tw=2)
        if not d.dom or not is_consistent(d, o):
            continue
        n += 1
        Q = OMQ(o, FULL_SCHEMA, q)
        k = max(1, max(cq_treewidth(cq) for cq in q.disjuncts))
        answers = evaluate_naive(Q, d).answers
        assert evaluate_fpt(Q, d, k).answers == answers
        assert evaluate_pebble(Q, d, k).answers == answers
        assert oracle_answers(Q, d) == answers
        per_disjunct = [evaluate_naive(OMQ(o, FULL_SCHEMA, UCQ((cq,))), d).answers
                        for cq in q.disjuncts]
        nonempty += bool(answers)
        wider_than_each += all(answers != a for a in per_disjunct)
    assert nonempty >= 40
    assert wider_than_each >= 3


def test_pipelines_agree_beyond_the_signature():
    # the queries draw from a concept and a role that neither the ontology
    # nor the data use, so disjuncts die; all three pipelines against the
    # chase oracle on UCQs whose disjuncts are all dead, all live or mixed
    from oracles import oracle_answers
    from omqlab.entailment import consistent_saturation
    names, roles = ["A1", "A2", "B1"], ["r", "s"]
    rng = random.Random(33)
    seen = {"dead": 0, "live": 0, "mixed": 0}
    answered = {"dead": 0, "live": 0, "mixed": 0}
    while min(seen.values()) < 25:
        o = rand_elhdr_ontology(rng, rng.randint(1, 5), names=names, roles=roles)
        d = rand_database(rng, rng.randint(2, 4), names=names, roles=roles)
        q = rand_ucq(rng, rng.randint(1, 3), 4, rng.choice([0, 1]),
                     names=names + ["Z"], roles=roles + ["t"], max_tw=2)
        sat = consistent_saturation(d, o)
        if not d.dom or sat is None:
            continue
        live = sum(cq.names() <= sat.names() for cq in q.disjuncts)
        kind = "dead" if not live else "live" if live == len(q) else "mixed"
        if seen[kind] >= 25:
            continue
        seen[kind] += 1
        Q = OMQ(o, FULL_SCHEMA, q)
        k = max(1, max(cq_treewidth(cq) for cq in q.disjuncts))
        answers = oracle_answers(Q, d)
        answered[kind] += bool(answers)
        for name, evaluate in _pipelines(k):
            assert evaluate(Q, d) == EvalResult(True, answers), (name, kind)
    assert answered["dead"] == 0
    assert min(answered["live"], answered["mixed"]) >= 10


def test_each_evaluation_saturates_its_data_once(monkeypatch):
    # the data once per call; pebble adds the query database once per disjunct
    import omqlab.chase
    import omqlab.entailment
    import omqlab.treelike
    from omqlab.surface import parse_ontology
    calls = []
    saturate = omqlab.entailment.saturate

    def counted(d, o):
        calls.append(d)
        return saturate(d, o)

    for mod in (omqlab.entailment, omqlab.chase, omqlab.treelike):
        monkeypatch.setattr(mod, "saturate", counted)
    o = parse_ontology("A <= exists r . B\nexists r . B <= C\n")
    d = parse_database("A(a)\nr(a,b)\nB(c)\n")
    single = OMQ(o, FULL_SCHEMA, parse_query("q(x) :- C(x)"))
    union = OMQ(o, FULL_SCHEMA, parse_query("q(x) :- C(x)\nq(x) :- r(x,y), B(y)"))
    cases = [(lambda Q: evaluate_naive(Q, d), single, 1),
             (lambda Q: evaluate_fpt(Q, d, 1), single, 1),
             (lambda Q: evaluate_pebble(Q, d, 1), single, 2),
             (lambda Q: evaluate_naive(Q, d), union, 1),
             (lambda Q: evaluate_fpt(Q, d, 1), union, 1),
             (lambda Q: evaluate_pebble(Q, d, 1), union, 3)]
    for evaluate, Q, expected in cases:
        calls.clear()
        assert evaluate(Q).answers == frozenset({("a",)})
        assert len(calls) == expected, (Q, expected)
        assert calls[0] == d


def test_dead_disjuncts_do_no_evaluation_work(monkeypatch):
    # a disjunct naming something no fact of the universal model carries
    # is skipped: no canonical model, no game, and the model is sized by
    # the live disjuncts alone
    import omqlab.evaluation
    import omqlab.pebble
    from omqlab.entailment import consistent_saturation
    models, games = [], []
    model_of, prepare_game = omqlab.evaluation.canonical_model_of, omqlab.pebble._prepare_game

    def counted_model(sat, query):
        models.append(model_of(sat, query))
        return models[-1]

    def counted_game(q, *rest):
        games.append(q)
        return prepare_game(q, *rest)

    monkeypatch.setattr(omqlab.evaluation, "canonical_model_of", counted_model)
    monkeypatch.setattr(omqlab.pebble, "_prepare_game", counted_game)
    o = parse_ontology("A <= exists r . A\nA <= B\n")
    d = parse_database("A(a)\n")
    dead = parse_query("q(x) :- r(x,y1), r(y1,y2), r(y2,y3), D(y3)\n"
                       "q(x) :- s(x,y), A(y)\n")
    for name, evaluate in _pipelines(1):
        assert evaluate(OMQ(o, FULL_SCHEMA, dead), d) == \
            EvalResult(True, frozenset()), name
    assert models == games == []

    live = parse_query("q(x) :- r(x,y), B(y)").disjuncts[0]
    mixed = OMQ(o, FULL_SCHEMA, UCQ((dead.disjuncts[0], live)))
    sat = consistent_saturation(d, o)
    for name, evaluate in _pipelines(3):
        assert evaluate(mixed, d).answers == {("a",)}, name
    assert games == [live]
    assert len(models) == 2
    sized = model_of(sat, UCQ((live,))).facts
    assert all(m.facts == sized for m in models)
    assert len(sized.dom) < len(model_of(sat, mixed.query).facts.dom)


_QVARS = [f"x{i}" for i in range(5)]
_CONSTS = [f"c{i}" for i in range(5)]
_NAMES = ["A1", "A2", "B1"]


def _facts(terms, roles=("r", "s")):
    return st.lists(st.one_of(
        st.tuples(st.sampled_from(_NAMES), st.sampled_from(terms)).map(
            lambda t: ConceptFact(*t)),
        st.tuples(st.sampled_from(roles), st.sampled_from(terms),
                  st.sampled_from(terms)).map(lambda t: RoleFact(*t))),
        min_size=1, max_size=7)


@settings(max_examples=200, deadline=None)
@given(n_axioms=st.integers(0, 5), onto_seed=st.integers(0, 2**16),
       facts=_facts(_CONSTS), disjuncts=st.lists(_facts(_QVARS), min_size=1, max_size=2),
       arity=st.integers(0, 2))
def test_fpt_and_pebble_match_naive_shrinking(n_axioms, onto_seed, facts, disjuncts,
                                              arity):
    # the width-k join and the (k+1)-pebble game at the largest disjunct
    # width against plain homomorphism search; the ELHdr draws are
    # inverse-free over the full schema, so the game is exact here and
    # shares no label or game code with the check
    o = rand_elhdr_ontology(random.Random(onto_seed), n_axioms, names=_NAMES,
                            roles=["r", "s"])
    avs = tuple(_QVARS[:arity])
    assume(all(set(avs) <= {t for at in atoms for t in at.terms()}
               for atoms in disjuncts))
    q = UCQ(CQ(avs, atoms) for atoms in disjuncts)
    k = max(cq_treewidth(cq) for cq in q.disjuncts)
    assume(k <= 2)
    Q, d = OMQ(o, FULL_SCHEMA, q), Database(facts)
    expected = evaluate_naive(Q, d)
    assert evaluate_fpt(Q, d, k) == expected
    assert evaluate_pebble(Q, d, k) == expected


@settings(max_examples=300, deadline=None)
@given(o=elhi_ontologies(names=_NAMES, leaves=2, max_axioms=4),
       facts=_facts(_CONSTS[:4]), disjuncts=st.lists(_facts(_QVARS), min_size=1, max_size=2),
       arity=st.integers(0, 2))
def test_naive_fpt_and_the_chase_oracle_agree_on_elhi(o, facts, disjuncts, arity):
    # ELHI_bot with inverse roles and inverse role inclusions, which pebble
    # refuses: the width-k join at the largest disjunct width and the
    # oblivious chase, at least as deep as the canonical model's rounds,
    # against plain homomorphism search into the canonical model
    from oracles import generous_steps, oracle_answers
    shared = sorted(set.intersection(*({t for at in atoms for t in at.terms()}
                                       for atoms in disjuncts)))
    assume(len(shared) >= arity)
    q = UCQ(CQ(tuple(shared[:arity]), atoms) for atoms in disjuncts)
    k = max(1, *(cq_treewidth(cq) for cq in q.disjuncts))
    assume(k <= 2)
    Q, d = OMQ(o, FULL_SCHEMA, q), Database(facts)
    assume(is_consistent(d, o))
    expected = evaluate_naive(Q, d)
    assert evaluate_fpt(Q, d, k) == expected
    assert oracle_answers(Q, d, depth=generous_steps(q)) == expected.answers


@settings(max_examples=200, deadline=None)
@given(o=elhi_ontologies(names=_NAMES, leaves=2, max_axioms=4),
       lhs=st.sampled_from(_NAMES), inverted=st.booleans(), filler=st.sampled_from(_NAMES),
       facts=_facts(_CONSTS[:4]),
       disjuncts=st.lists(_facts(_QVARS, roles=["r"]), min_size=1, max_size=2),
       arity=st.integers(0, 2))
def test_successors_along_roles_the_query_does_not_name_are_skipped_soundly(
        o, lhs, inverted, filler, facts, disjuncts, arity):
    # the query names r alone and the ontology also generates s-successors,
    # inverse ones included; they are built only when a role inclusion
    # makes r a super-role.  The oracle chases every role, two levels
    # deeper than the canonical model's rounds.
    from oracles import generous_steps, oracle_answers
    o = Ontology([*o.axioms, ConceptInclusion(
        Atomic(lhs), Exists(Role("s", inverted), Atomic(filler)))], Dialect.ELHI_BOT)
    shared = sorted(set.intersection(*({t for at in atoms for t in at.terms()}
                                       for atoms in disjuncts)))
    assume(len(shared) >= arity)
    q = UCQ(CQ(tuple(shared[:arity]), atoms) for atoms in disjuncts)
    k = max(1, *(cq_treewidth(cq) for cq in q.disjuncts))
    assume(k <= 2)
    Q, d = OMQ(o, FULL_SCHEMA, q), Database(facts)
    assume(is_consistent(d, o))
    expected = evaluate_naive(Q, d)
    assert evaluate_fpt(Q, d, k) == expected
    assert oracle_answers(Q, d, depth=generous_steps(q)) == expected.answers


def test_pipelines_agree_on_the_branching_family():
    # without C the query names a concept no fact carries, so nothing is
    # built and nothing answers; with A <= C naive and fpt build an r-chain
    # per constant, no s-successor, and every constant answers (the chase
    # oracle is checked on that variant while it stays small)
    from oracles import generous_steps, oracle_answers
    everyone = frozenset((f"c{i}",) for i in range(4))
    for n in range(4, 11):
        Q, d = branching_family(n)
        assert evaluate_naive(Q, d).answers == evaluate_fpt(Q, d, 1).answers \
            == oracle_answers(Q, d) == frozenset()
        Q, d = branching_family(n, "A <= C")
        assert evaluate_naive(Q, d).answers == evaluate_fpt(Q, d, 1).answers == everyone
        if n <= 6:
            assert oracle_answers(Q, d, depth=generous_steps(Q.query) - 1) == everyone


def _elhdr_omq(n_axioms, onto_seed, disjuncts, arity):
    """An ELHdr OMQ over the full schema and its largest disjunct width,
    at least 1; None when an answer variable occurs in no atom."""
    o = rand_elhdr_ontology(random.Random(onto_seed), n_axioms, names=_NAMES,
                            roles=["r", "s"])
    avs = tuple(_QVARS[:arity])
    if not all(set(avs) <= {t for at in atoms for t in at.terms()}
               for atoms in disjuncts):
        return None
    q = UCQ(CQ(avs, atoms) for atoms in disjuncts)
    return OMQ(o, FULL_SCHEMA, q), max(1, *(cq_treewidth(cq) for cq in q.disjuncts))


def _pipelines(k):
    return [("naive", evaluate_naive),
            ("fpt", lambda Q, d: evaluate_fpt(Q, d, k)),
            ("pebble", lambda Q, d: evaluate_pebble(Q, d, k))]


@settings(max_examples=200, deadline=None)
@given(n_axioms=st.integers(0, 5), onto_seed=st.integers(0, 2**16),
       facts=_facts(_CONSTS), disjuncts=st.lists(_facts(_QVARS), min_size=1, max_size=2),
       arity=st.integers(0, 2), order=st.permutations(range(len(_CONSTS))))
def test_renaming_constants_renames_the_answers(n_axioms, onto_seed, facts, disjuncts,
                                                arity, order):
    # a bijection onto fresh names, in a shuffled order, so no pipeline may
    # lean on the constants' names or their sort order
    drawn = _elhdr_omq(n_axioms, onto_seed, disjuncts, arity)
    assume(drawn is not None and drawn[1] <= 2)
    Q, k = drawn
    d = Database(facts)
    m = {c: f"e{order[i]}" for i, c in enumerate(sorted(d.dom))}
    renamed = Database(f.rename(m) for f in facts)
    for name, evaluate in _pipelines(k):
        before, after = evaluate(Q, d), evaluate(Q, renamed)
        assert after.consistent == before.consistent, name
        assert after.answers == {tuple(m[c] for c in a) for a in before.answers}, name


@settings(max_examples=200, deadline=None)
@given(n_axioms=st.integers(0, 5), onto_seed=st.integers(0, 2**16),
       facts=_facts(_CONSTS), more=_facts(_CONSTS + ["c5"]),
       disjuncts=st.lists(_facts(_QVARS), min_size=1, max_size=2),
       arity=st.integers(0, 2))
def test_adding_consistent_facts_removes_no_answer(n_axioms, onto_seed, facts, more,
                                                   disjuncts, arity):
    # certain answers are monotone in the data while it stays consistent;
    # the added facts may bring a new constant
    drawn = _elhdr_omq(n_axioms, onto_seed, disjuncts, arity)
    assume(drawn is not None and drawn[1] <= 2)
    Q, k = drawn
    d, bigger = Database(facts), Database(facts + more)
    assume(is_consistent(bigger, Q.ontology))
    for name, evaluate in _pipelines(k):
        assert evaluate(Q, d).answers <= evaluate(Q, bigger).answers, name


def _kept_bags(plan: _WidthPlan) -> list:
    """The variables each bag of ``plan`` keeps, read back from its steps:
    the columns its atoms bind, then what each child sends that they miss."""
    kept, sent = [], []
    for _, bound, joins, send in plan.steps:
        cols = list(bound)
        for c, _, _, rest in joins:
            cols += [sent[c][j] for j in rest]
        kept.append(cols)
        sent.append([cols[j] for j in send])
    return kept


def test_kept_bags_are_connected_and_atoms_charged_inside_their_bag():
    rng = random.Random(17)
    for _ in range(150):
        q = rand_cq(rng, rng.randint(1, 8), rng.randint(0, 2), names=["A", "B"],
                    roles=["r", "s"], max_tw=3)
        plan = _WidthPlan(q, 3)
        quantified = q.quantified_vars()
        td = cq_decomposition(q)
        assert len(plan.steps) == len(td.bags)
        kept = _kept_bags(plan)
        charged = []
        for i, (sub, bound, joins, _) in enumerate(plan.steps):
            # answer columns are kept on their way up to the root
            assert set(kept[i]) - set(q.answer_vars) <= td.bags[i]
            assert [c for c, *_ in joins] == [c for c, p in enumerate(td.parent) if p == i]
            for at in sub.atoms:
                assert set(at.terms()) - set(q.answer_vars) <= td.bags[i]
                charged.append(at)
        assert sorted(charged, key=str) == sorted(q.atoms, key=str)
        for v in quantified:
            tops = [i for i, p in enumerate(td.parent)
                    if v in kept[i] and (p is None or v not in kept[p])]
            assert len(tops) == 1, (q, v, kept, td)
        bound = {t for at in q.atoms for t in at.terms()}
        assert bound & set(q.answer_vars) <= set(kept[-1])  # the root, last in order


def test_fpt_answer_variable_without_atoms_matches_any_constant():
    # the parser rejects such a query, CQ admits it: x is bound by no atom,
    # so the join's root has no column for it and any constant matches
    q = CQ(("x", "y"), [ConceptFact("A", "y"), RoleFact("r", "y", "z")])
    Q = OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, UCQ((q,)))
    d = parse_database("A(a)\nr(a,b)\nA(b)")
    expected = {(c, "a") for c in ("a", "b")}
    assert evaluate_naive(Q, d).answers == expected
    assert evaluate_fpt(Q, d, 1).answers == expected


# the criterion-4 instances 470 and 1,641 (seed 2024): a bag variable that
# no atom of its bag covers once ranged over all of the canonical model
_SLOW_FOR_THE_DOMAIN_JOIN = [
    ("""A2 <= exists s . top
A2 <= top
B1 <= top
exists s . B1 <= A1
top & top <= A2 & (exists r . B1) & (exists s . B1)
""", "q() :- A2(x3), A2(x4), A3(x4), B1(x5), r(x1,x5), r(x5,x1), r(x5,x4), "
     "s(x0,x2), s(x1,x0), s(x3,x0), s(x4,x0)",
     "A2(c0)\nA3(c4)\nB1(c3)\nB1(c4)\nB1(c5)\nr(c2,c0)\nr(c2,c5)\nr(c4,c1)\n",
     False),
    ("""A1 <= A1
A3 <= A1
A3 <= A2
B1 <= top & A1 & A2 & (exists s . top)
top & top & A3 <= A3 & A3 & (exists r . B1)
s <= r
range s <= B1
""", "q() :- A2(x2), r(x0,x0), r(x1,x3), r(x2,x0), r(x4,x3), r(x5,x2), s(x0,x1), "
     "s(x1,x3), s(x1,x4), s(x2,x5), s(x4,x5)",
     "A1(c2)\nA1(c5)\nA2(c4)\nA3(c3)\nB1(c2)\nB1(c3)\nB1(c4)\nr(c3,c0)\nr(c3,c5)\n"
     "r(c5,c0)\nr(c5,c1)\ns(c1,c5)\ns(c2,c5)\ns(c3,c2)\ns(c3,c3)\n",
     True),
]


@pytest.mark.parametrize("onto, query, db, holds", _SLOW_FOR_THE_DOMAIN_JOIN,
                         ids=["instance-470", "instance-1641"])
def test_fpt_binds_uncovered_bag_variables_through_children(onto, query, db, holds):
    Q = OMQ(parse_ontology("dialect: ELHdr_bot\n" + onto), FULL_SCHEMA,
            parse_query(query))
    d = parse_database(db)
    t0 = time.perf_counter()
    res = evaluate_fpt(Q, d, 2)
    assert time.perf_counter() - t0 < 2.0
    assert res == evaluate_naive(Q, d)
    assert res.boolean() == holds
