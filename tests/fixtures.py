"""Shared fixtures: the worked examples and appendix databases."""

from omqlab.model import FULL_SCHEMA, OMQ, UCQ
from omqlab.surface import parse_database, parse_ontology, parse_query

# The Boolean 4-cycle query: two sources x2, x4 pointing at two sinks x1, x3.
FIG2_TEXT = ("q() :- r(x2,x1), r(x4,x1), r(x2,x3), r(x4,x3), "
             "A1(x1), A2(x2), A3(x3), A4(x4)")
fig2 = parse_query(FIG2_TEXT)
fig2_cq = fig2.disjuncts[0]

# First worked example: a one-axiom ontology makes the cycle collapsible.
omega1 = parse_ontology("A2 <= A4")
Q1 = OMQ(omega1, FULL_SCHEMA, fig2)
q_sub123 = UCQ((fig2_cq.restrict({"x1", "x2", "x3"}),))

# Second part: schema sensitivity.
omega2 = parse_ontology("""
B1 <= A1
B2 <= A1
exists r . B1 <= A4
B2 <= A3
""")
Q2 = OMQ(omega2, FULL_SCHEMA, fig2)
Q2_SCHEMA_NAMES = ["A2", "A3", "A4", "B1", "B2", "r"]  # full minus A1

qprime = parse_query(
    "q() :- r(x2,x1), r(x4,x1), r(x4,x3), A1(x1), A2(x2), A3(x3), A4(x4)")

# Maximum-contraction example (two-axiom inverse ontology).
omega_mc = parse_ontology("""
A1 <= exists inv(r) . (A2 & A4 & exists r . A3)
A1 <= A2 & exists r . (A1 & A3 & exists inv(r) . A4)
""")
Q_mc = OMQ(omega_mc, FULL_SCHEMA, fig2)

# The sixteen-axiom inverse-role ontology with its two cycle databases and
# the two-disjunct width-1 witness.
omega16 = parse_ontology("""
B1 <= A1
B2 <= A2
B3 <= A3
B4 <= A4
C1 <= A1
C2 <= A2
C3 <= A3
C4 <= A4
B1 & exists inv(r) . B4 <= A3
B2 & exists r . C1 <= A4
exists r . B3 & C2 <= A4
B4 & exists r . C3 <= A2
exists r . C1 & C4 <= A2
C2 & exists r . B1 <= A4
exists r . C3 & B2 <= A4
C4 & exists r . B3 <= A2
""")
D1 = parse_database("""
r(b2,b1)
r(b2,b3)
r(b4,b3)
r(b4,b1)
B1(b1)
B2(b2)
B3(b3)
B4(b4)
""")
D2 = parse_database("""
r(c2,c1)
r(c2,c3)
r(c4,c3)
r(c4,c1)
C1(c1)
C2(c2)
C3(c3)
C4(c4)
""")
Q16 = OMQ(omega16, FULL_SCHEMA, fig2)
phi1 = parse_query("q() :- r(x2,x1), r(x2,x3), A1(x1), A2(x2), A4(x2), A3(x3)")
phi2 = parse_query("q() :- r(x2,x1), r(x4,x1), A1(x1), A3(x1), A2(x2), A4(x4)")

# A database on which the one-axiom OMQ has a positive answer only through
# the derived concept.
d_example1 = parse_database("A1(a)\nA2(b)\nA3(c)\nr(b,a)\nr(b,c)")


def branching_family(n: int, extra: str = ""):
    """The branching family, as an OMQ and its database: the ontology
    ``A <= exists r . A``, ``A <= exists s . A`` plus the axiom lines
    ``extra``, the data ``A(c0)`` to ``A(c3)``, and ``q(x0) :-`` an
    r-path of ``n`` atoms ending in ``C(xn)``."""
    o = parse_ontology("A <= exists r . A\nA <= exists s . A\n" + extra)
    path = ", ".join(f"r(x{i},x{i + 1})" for i in range(n))
    q = parse_query(f"q(x0) :- {path}, C(x{n})")
    return OMQ(o, FULL_SCHEMA, q), parse_database("\n".join(f"A(c{i})" for i in range(4)))
