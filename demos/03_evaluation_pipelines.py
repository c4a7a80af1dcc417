"""Three ways to compute certain answers, and why the ontology matters:
the four-cycle query has no plain match here, but one derived fact
collapses it onto the database.
"""

from omqlab.evaluation import evaluate_fpt, evaluate_naive
from omqlab.model import FULL_SCHEMA, OMQ
from omqlab.pebble import evaluate_pebble
from omqlab.surface import parse_database, parse_ontology, parse_query

query = parse_query(
    "q() :- r(x2,x1), r(x4,x1), r(x2,x3), r(x4,x3), "
    "A1(x1), A2(x2), A3(x3), A4(x4)")
onto = parse_ontology("A2 <= A4")
db = parse_database("""
A1(a)
A2(b)
A3(c)
r(b,a)
r(b,c)
""")

Q = OMQ(onto, FULL_SCHEMA, query)
plain = OMQ(parse_ontology(""), FULL_SCHEMA, query) if False else None

# Naive: build the canonical model, search for a homomorphism.
print("naive:", evaluate_naive(Q, db).boolean())

# FPT: same model, then dynamic programming over a width-2 decomposition.
print("fpt:  ", evaluate_fpt(Q, db, 2).boolean())

# Pebble game: no materialized chase at all; positions carry labels that
# certify a homomorphism locally.  Exact here because the OMQ is
# equivalent to a width-1 query.
print("game: ", () in evaluate_pebble(Q, db, 1).answers)

# Without the ontology the cycle cannot fold onto the two edges.
from omqlab.model import EMPTY_ONTOLOGY
print("no ontology:", evaluate_naive(OMQ(EMPTY_ONTOLOGY, FULL_SCHEMA, query),
                                     db).boolean())
