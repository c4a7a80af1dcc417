"""The oblivious chase materializes ontology consequences as anonymous
tree structures; the truncated canonical model adds just enough of them
to answer bounded-size queries exactly.
"""

from omqlab.chase import canonical_model, oblivious_chase
from omqlab.entailment import saturate
from omqlab.surface import parse_database, parse_ontology, serialize_database

onto = parse_ontology("""
Person <= exists hasParent . Person
hasParent <= relatedTo
""")
db = parse_database("Person(ada)")

# Depth-bounded chase: each firing attaches a fresh tree; provenance
# records who created what.
chased = oblivious_chase(db, onto, depth=3)
print("chase facts:")
print(serialize_database(chased.facts))
for const, prov in sorted(chased.provenance.items()):
    if prov.kind == "anonymous":
        print(f"  {const}: parent={prov.parent} depth={prov.depth}")

# The canonical model swaps unbounded chasing for per-type copies plus a
# fixed number of witnessed successor rounds.  With N rounds, matches of
# queries of at most N + 1 variables agree with the infinite model.
cm = canonical_model(db, onto, steps=2)
print("\ncanonical model size:", len(cm.facts.dom), "constants")
# ada's type: the sub-concepts of the ontology that hold at ada.
sat = saturate(db, onto)
print("types at ada:", sorted(map(str, sat.onorm.concepts_of(sat.types["ada"]))))
