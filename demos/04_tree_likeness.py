"""Semantic tree-likeness: when is an OMQ equivalent to one of bounded
treewidth?  The answer depends on the ontology AND on the schema.
"""

from omqlab.graphalg import cq_treewidth
from omqlab.homtools import core
from omqlab.model import EMPTY_ONTOLOGY, FULL_SCHEMA, OMQ, Schema
from omqlab.surface import parse_ontology, parse_query
from omqlab.treelike import (
    decide_tw_equiv_general,
    maximum_contractions,
    rewriting,
    ucq_k_approximation,
)

query = parse_query(
    "q() :- r(x2,x1), r(x4,x1), r(x2,x3), r(x4,x3), "
    "A1(x1), A2(x2), A3(x3), A4(x4)")
cq = query.disjuncts[0]
print("query treewidth:", cq_treewidth(cq), "| core is itself:", core(cq) == cq)

# Plain query: stuck at width 2.
print("no ontology, k=1:", decide_tw_equiv_general(
    OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, query), 1).outcome)

# One axiom changes the verdict: A2 <= A4 lets x4 fold onto x2.
Q1 = OMQ(parse_ontology("A2 <= A4"), FULL_SCHEMA, query)
verdict = decide_tw_equiv_general(Q1, 1)
print("with A2 <= A4, k=1:", verdict.outcome)

# Equivalence-preserving contractions and a width-minimal rewriting.
print("maximum contractions:",
      [sorted(m.query.disjuncts[0].variables()) for m in maximum_contractions(Q1)])
print("rewriting width:", cq_treewidth(rewriting(Q1).query.disjuncts[0]))

# The width-k approximation keeps the finest tree-like contractions: every
# coarser one is their homomorphic image, so the union is equivalent to
# the union of all tree-like contractions.  A "yes" verdict returns it as
# the witness.
Qa = ucq_k_approximation(Q1, 1)
print("approximation disjuncts:", len(Qa.query.disjuncts),
      "| is the witness:", verdict.witness == Qa)

# Schema sensitivity: over the full schema this ontology does NOT make
# the cycle tree-like, and a concrete counterexample database exists;
# hiding A1 from the schema removes every counterexample we can find.
onto2 = parse_ontology("""
B1 <= A1
B2 <= A1
exists r . B1 <= A4
B2 <= A3
""")
Q2 = OMQ(onto2, FULL_SCHEMA, query)
v_full = decide_tw_equiv_general(Q2, 1, budget=6)
print("\nschema-sensitive OMQ, full schema:", v_full.outcome)
print("counterexample:", sorted(map(str, v_full.counterexample.facts)))
restricted = Schema.of(["A2", "A3", "A4", "B1", "B2", "r"])
v_res = decide_tw_equiv_general(OMQ(onto2, restricted, query), 1, budget=6)
print("without A1 in the schema:", v_res.outcome, "-", v_res.note)
