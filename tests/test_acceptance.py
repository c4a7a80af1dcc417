"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance and
budget is pinned here; the randomized parts use fixed seeds.
"""

import itertools
import random
import time

import pytest

from omqlab.dllitef import (
    decide_ubcq1_equiv,
    id_functional,
    rew,
    split_ontology,
)
from omqlab.entailment import is_consistent, satisfies_functionality, subsumes
from omqlab.evaluation import evaluate_fpt, evaluate_naive
from omqlab.graphalg import cq_treewidth, k_unravel, treewidth
from omqlab.homtools import core, find_homomorphism
from omqlab.model import (
    CQ,
    EMPTY_ONTOLOGY,
    FULL_SCHEMA,
    OMQ,
    RoleFact,
    Schema,
    UCQ,
    gaifman_graph,
)
from omqlab.pebble import evaluate_pebble
from omqlab.surface import parse_database, parse_ontology, parse_query
from omqlab.treelike import (
    contained,
    decide_tw_equiv_general,
    ucq_k_approximation,
)
from omqlab.chase import oblivious_chase

import sys, os
sys.path.insert(0, os.path.dirname(__file__))
from fixtures import (
    D1,
    D2,
    Q1,
    Q16,
    Q2,
    Q2_SCHEMA_NAMES,
    fig2,
    fig2_cq,
    phi1,
    phi2,
    omega16,
)
from gen import (
    criterion4_instances,
    rand_cq,
    rand_database,
    rand_elhdr_ontology,
    rand_eli_ontology,
    rand_concept,
    rand_tw_bounded_database,
    rand_ucq,
)
from oracles import equivalent_full_schema, oracle_subsumes


def report(n: int, ok: bool, detail: str):
    print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_example1_suite():
    t0 = time.time()
    ok_tw = cq_treewidth(fig2_cq) == 2
    ok_core = core(fig2_cq) == fig2_cq
    v = decide_tw_equiv_general(Q1, 1)
    ok_yes = (v.is_yes()
              and all(cq_treewidth(c) <= 1 for c in v.witness.query.disjuncts)
              and equivalent_full_schema(v.witness, Q1))
    v2 = decide_tw_equiv_general(OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, fig2), 1)
    ok_no = v2.outcome == "no"
    elapsed = time.time() - t0
    report(1, ok_tw and ok_core and ok_yes and ok_no and elapsed < 10,
           f"treewidth=2:{ok_tw} core-fixed:{ok_core} yes-with-witness:{ok_yes} "
           f"plain-no:{ok_no} in {elapsed:.1f}s (< 10 s)")


def test_criterion_2_schema_sensitivity():
    t0 = time.time()
    v_full = decide_tw_equiv_general(Q2, 1, budget=6)
    ok_full = (v_full.outcome == "no" and v_full.counterexample is not None
               and len(v_full.counterexample.dom) <= 6)
    if ok_full:
        d = v_full.counterexample
        qa = ucq_k_approximation(Q2, 1)
        r_q = evaluate_naive(Q2, d)
        r_a = evaluate_naive(qa, d)
        ok_full = bool(r_q.answers - r_a.answers)
    restricted = OMQ(Q2.ontology, Schema.of(Q2_SCHEMA_NAMES), Q2.query)
    v_res = decide_tw_equiv_general(restricted, 1, budget=6)
    ok_res = v_res.outcome == "unknown"
    elapsed = time.time() - t0
    report(2, ok_full and ok_res and elapsed < 300,
           f"full-schema-no-with-counterexample:{ok_full} "
           f"restricted-unknown:{ok_res} in {elapsed:.1f}s (< 5 min)")


def test_criterion_3_sixteen_axiom_fixtures():
    t0 = time.time()
    ok = (evaluate_naive(Q16, D1).boolean()
          and evaluate_naive(Q16, D2).boolean()
          and evaluate_naive(OMQ(omega16, FULL_SCHEMA, phi1), D2).boolean()
          and evaluate_naive(OMQ(omega16, FULL_SCHEMA, phi2), D1).boolean())
    elapsed = time.time() - t0
    report(3, ok and elapsed < 30,
           f"both cycle databases and their width-1 witnesses hold "
           f"in {elapsed:.1f}s (< 30 s)")


def test_criterion_4_tri_agreement():
    t0 = time.time()
    disagreements = 0
    n = 0
    for Q, d, k in itertools.islice(criterion4_instances(2024), 500):
        n += 1
        a1 = evaluate_naive(Q, d).answers
        a2 = evaluate_fpt(Q, d, k).answers
        a3 = evaluate_pebble(Q, d, k).answers
        if not (a1 == a2 == a3):
            disagreements += 1
    elapsed = time.time() - t0
    report(4, disagreements == 0 and elapsed < 600,
           f"{n} triples, {disagreements} disagreements in {elapsed:.0f}s (< 10 min)")


def test_criterion_5_approximation():
    t0 = time.time()
    rng = random.Random(505)
    soundness_bad = 0
    point1_bad = 0
    omqs = []
    for _ in range(25):
        o = rand_elhdr_ontology(rng, rng.randint(1, 5),
                                names=["A1", "A2", "B1"], roles=["r", "s"])
        q = rand_ucq(rng, rng.randint(1, 2), 5, rng.choice([0, 1]),
                     names=["A1", "A2", "B1"], roles=["r", "s"])
        omqs.append(OMQ(o, FULL_SCHEMA, q))
    for Q in omqs:
        k = max(1, max(cq_treewidth(c) for c in Q.query.disjuncts) - 1)
        Qa = ucq_k_approximation(Q, k)
        if not contained(Qa, Q).is_yes():
            soundness_bad += 1
    checked = 0
    while checked < 200:
        Q = omqs[rng.randrange(len(omqs))]
        k = rng.choice([1, 2])
        Qa = ucq_k_approximation(Q, k)
        d = rand_tw_bounded_database(rng, k, rng.randint(1, 3),
                                     names=["A1", "A2", "B1"], roles=["r", "s"])
        if not d.dom or not is_consistent(d, Q.ontology):
            continue
        assert treewidth(gaifman_graph(d))[0] <= k
        checked += 1
        if evaluate_naive(Q, d).answers != evaluate_naive(Qa, d).answers:
            point1_bad += 1
    elapsed = time.time() - t0
    report(5, soundness_bad == 0 and point1_bad == 0 and elapsed < 600,
           f"containment violations: {soundness_bad}, width-bounded database "
           f"mismatches: {point1_bad}/{checked} in {elapsed:.0f}s (< 10 min)")


def test_criterion_6_plain_core_characterization():
    t0 = time.time()
    rng = random.Random(606)
    bad = 0
    for _ in range(100):
        q = rand_cq(rng, rng.randint(1, 7), 0, names=["A", "B"], roles=["r", "s"])
        Q = OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, UCQ((q,)))
        w_core = cq_treewidth(core(q))
        for k in (1, 2):
            if decide_tw_equiv_general(Q, k).is_yes() != (w_core <= k):
                bad += 1
    elapsed = time.time() - t0
    report(6, bad == 0,
           f"100 plain queries, {bad} disagreements with the core "
           f"characterization in {elapsed:.0f}s")


def test_criterion_7_unraveling_laws():
    t0 = time.time()
    rng = random.Random(707)
    bad = []
    n = 0
    while n < 100:
        o = rand_elhdr_ontology(rng, rng.randint(1, 4), names=["A1", "B1"],
                                roles=["r"], bot_prob=0.1)
        d = rand_database(rng, rng.randint(1, 3), names=["A1", "B1"], roles=["r"])
        arity = rng.choice([0, 1])
        q = rand_cq(rng, rng.randint(max(arity, 1), 3), arity,
                    names=["A1", "B1"], roles=["r"], max_tw=1)
        if not d.dom:
            continue
        n += 1
        k = 1
        depth = len(q.variables()) + 1
        anchors = tuple(sorted(d.dom)[:arity])
        u = k_unravel(d, anchors, k, depth)
        # point 1: the projection is a homomorphism, identity on anchors
        pi = u.projection()
        pi.update({a: a for a in anchors})
        hom_ok = all(f.rename(pi) in d.facts for f in u.database.facts)
        # point 4: consistency transfers both ways
        cons_ok = is_consistent(d, o) == is_consistent(u.database, o)
        # point 3: answers agree for width-k queries
        Q = OMQ(o, FULL_SCHEMA, UCQ((q,)))
        if is_consistent(d, o):
            left = anchors in evaluate_naive(Q, d).answers if arity else \
                evaluate_naive(Q, d).boolean()
            right = anchors in evaluate_naive(Q, u.database).answers if arity else \
                evaluate_naive(Q, u.database).boolean()
            ans_ok = left == right
        else:
            ans_ok = True
        # point 2: the chase of the unraveling maps into the chase of the
        # original, extending the projection
        ch_u = oblivious_chase(u.database, o, 1)
        ch_d = oblivious_chase(d, o, 3)
        lifted = find_homomorphism(CQ((), ch_u.facts.facts), ch_d.facts,
                                   {c: pi[c] for c in u.database.dom})
        chase_ok = lifted is not None
        if not (hom_ok and cons_ok and ans_ok and chase_ok):
            bad.append((hom_ok, cons_ok, ans_ok, chase_ok))
    elapsed = time.time() - t0
    report(7, not bad,
           f"100 instances, {len(bad)} violations of the four unraveling laws "
           f"in {elapsed:.0f}s")


def test_criterion_8_functional_roles():
    t0 = time.time()
    rng = random.Random(808)
    o = parse_ontology("""dialect: DL-LiteF
A <= exists r . top
exists inv(r) . top <= B
B <= C
func r
""")
    split = split_ontology(o)
    queries = [
        parse_query("q() :- r(x,y), C(y)"),
        parse_query("q() :- r(x,y), B(y), A(x)"),
        parse_query("q() :- A(x), r(x,y)"),
    ]
    rew_bad = 0
    checked = 0
    rewrites = {id(q): rew(OMQ(o, FULL_SCHEMA, q)) for q in queries}
    while checked < 200:
        q = queries[rng.randrange(len(queries))]
        d = rand_database(rng, rng.randint(1, 4), names=["A", "B", "C"], roles=["r"])
        if not d.dom or not satisfies_functionality(d, split.functionalities):
            continue
        checked += 1
        lhs = (evaluate_naive(OMQ(o, FULL_SCHEMA, q), d).boolean()
               if is_consistent(d, o) else True)
        rhs = evaluate_naive(OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, rewrites[id(q)]),
                             d).boolean()
        if lhs != rhs:
            rew_bad += 1
    width_bad = 0
    for _ in range(60):
        q = rand_cq(rng, rng.randint(1, 5), 0, names=["A", "B"],
                    roles=["r", "s"], max_tw=1)
        out = id_functional(UCQ((q,)), {"r"})
        if cq_treewidth(out.disjuncts[0]) > 1:
            width_bad += 1
    merge_yes = decide_ubcq1_equiv(OMQ(
        parse_ontology("func r"), FULL_SCHEMA,
        parse_query("q() :- r(x,y1), r(x,y2), A(y1), B(y2)"))).is_yes()
    cycle_no = decide_ubcq1_equiv(OMQ(
        parse_ontology("func r"), FULL_SCHEMA,
        parse_query("q() :- r(x2,x1), s(x2,x3), r(x4,x3), s(x4,x1)"))).outcome == "no"
    elapsed = time.time() - t0
    report(8, rew_bad == 0 and width_bad == 0 and merge_yes and cycle_no
           and elapsed < 600,
           f"rewriting mismatches: {rew_bad}/{checked}, width-1 violations: "
           f"{width_bad}, merge-fixture yes: {merge_yes}, cycle-fixture no: "
           f"{cycle_no} in {elapsed:.0f}s (< 10 min)")


def test_criterion_9_subsumption_oracle():
    t0 = time.time()
    rng = random.Random(909)
    bad = 0
    for _ in range(500):
        o = rand_eli_ontology(rng, rng.randint(1, 6))
        c = rand_concept(rng, ["A", "B", "C", "D"], ["r", "s"],
                         rng.randint(0, 3), True, allow_top=False)
        d = rand_concept(rng, ["A", "B", "C", "D"], ["r", "s"],
                         rng.randint(0, 3), True)
        if subsumes(o, c, d) != oracle_subsumes(o, c, d):
            bad += 1
    elapsed = time.time() - t0
    report(9, bad == 0,
           f"500 subsumption instances, {bad} oracle disagreements "
           f"(depth-stability checked) in {elapsed:.0f}s")
