"""Seeded random instance generators shared by the test suite."""

from __future__ import annotations

import random

from omqlab.model import (
    Atomic,
    CQ,
    Concept,
    ConceptFact,
    ConceptInclusion,
    Conj,
    Database,
    Dialect,
    Exists,
    Functionality,
    Ontology,
    RangeRestriction,
    Role,
    RoleDisjointness,
    RoleFact,
    RoleInclusion,
    TOP,
    BOT,
    FULL_SCHEMA,
    OMQ,
    Schema,
    UCQ,
    conj,
)
from omqlab.entailment import is_consistent
from omqlab.graphalg import cq_treewidth


def rand_concept(rng: random.Random, names, roles, depth: int,
                 allow_inverse: bool, allow_top=True) -> Concept:
    kinds = ["atom", "atom", "conj", "exists"]
    if allow_top:
        kinds.append("top")
    if depth <= 0:
        kinds = ["atom", "atom", "top"] if allow_top else ["atom"]
    k = rng.choice(kinds)
    if k == "atom":
        return Atomic(rng.choice(names))
    if k == "top":
        return TOP
    if k == "conj":
        n = rng.randint(2, 3)
        return conj(*(rand_concept(rng, names, roles, depth - 1, allow_inverse)
                      for _ in range(n)))
    role = Role(rng.choice(roles), allow_inverse and rng.random() < 0.4)
    return Exists(role, rand_concept(rng, names, roles, depth - 1, allow_inverse))


def rand_eli_ontology(rng: random.Random, n_axioms: int, names=None, roles=None,
                      depth=3, bot_prob=0.15) -> Ontology:
    names = names or ["A", "B", "C", "D"]
    roles = roles or ["r", "s"]
    axioms = []
    for _ in range(n_axioms):
        lhs = rand_concept(rng, names, roles, rng.randint(0, depth), True,
                           allow_top=False)
        if rng.random() < bot_prob:
            axioms.append(ConceptInclusion(lhs, BOT))
        else:
            rhs = rand_concept(rng, names, roles, rng.randint(0, depth), True)
            axioms.append(ConceptInclusion(lhs, rhs))
    return Ontology(axioms, Dialect.ELI_BOT)


def elhi_ontologies(names=("A", "B", "C", "D"), leaves=4, max_axioms=6):
    """Hypothesis strategy: ELHI_bot ontologies over roles ``r`` and ``s``,
    with inverse roles in their concepts (at most ``leaves`` names or top
    each) and up to two role inclusions, either side inverted."""
    # imported here: the benchmark's stream writer imports this module
    from hypothesis import strategies as st

    role = st.builds(Role, st.sampled_from(["r", "s"]), st.booleans())
    concept = st.recursive(
        st.sampled_from([Atomic(n) for n in names] + [TOP]),
        lambda sub: st.one_of(st.builds(Exists, role, sub),
                              st.lists(sub, min_size=2, max_size=3).map(
                                  lambda parts: conj(*parts))),
        max_leaves=leaves)
    inclusion = st.builds(ConceptInclusion, concept,
                          st.one_of(concept, st.just(BOT)))
    return st.builds(lambda cis, ris: Ontology(cis + ris, Dialect.ELHI_BOT),
                     st.lists(inclusion, max_size=max_axioms),
                     st.lists(st.builds(RoleInclusion, role, role), max_size=2))


def rand_elhi_ontology(rng: random.Random, n_axioms: int) -> Ontology:
    """``rand_eli_ontology`` plus, half the time, a role inclusion between
    its two roles with each side inverted at random."""
    axioms = list(rand_eli_ontology(rng, n_axioms).axioms)
    if rng.random() < 0.5:
        r, s = rng.sample(["r", "s"], 2)
        axioms.append(RoleInclusion(Role(r, rng.random() < 0.5),
                                    Role(s, rng.random() < 0.5)))
    return Ontology(axioms, Dialect.ELHI_BOT)


def rand_elhdr_ontology(rng: random.Random, n_axioms: int, names=None,
                        roles=None, depth=2, bot_prob=0.05) -> Ontology:
    """Random ontology in the inverse-free dialect with role inclusions and
    range restrictions."""
    names = names or ["A1", "A2", "A3", "B1", "B2"]
    roles = roles or ["r", "s"]
    axioms = []
    for _ in range(n_axioms):
        pick = rng.random()
        if pick < 0.15 and len(roles) > 1:
            r, s = rng.sample(roles, 2)
            axioms.append(RoleInclusion(Role(r), Role(s)))
        elif pick < 0.3:
            axioms.append(RangeRestriction(
                rng.choice(roles),
                rand_concept(rng, names, roles, 1, False, allow_top=False)))
        else:
            lhs = rand_concept(rng, names, roles, rng.randint(0, depth), False,
                               allow_top=False)
            if rng.random() < bot_prob:
                axioms.append(ConceptInclusion(lhs, BOT))
            else:
                rhs = rand_concept(rng, names, roles, rng.randint(0, depth), False)
                axioms.append(ConceptInclusion(lhs, rhs))
    return Ontology(axioms, Dialect.ELHDR_BOT)


def rand_dllite_ontology(rng: random.Random, n_axioms: int, names=("A", "B"),
                         roles=("r", "s"), horn: bool = False) -> Ontology:
    """Random DL-LiteR ontology, DL-LiteR-horn with ``horn``: inclusions
    between basic concepts (a name, top, or ``exists R . top`` for a role
    or its inverse), bot on the right, conjunctive left-hand sides (with
    bot on the right unless ``horn``), role inclusions and role
    disjointness."""
    def basic():
        pick = rng.random()
        if pick < 0.5:
            return Atomic(rng.choice(names))
        if pick < 0.9:
            return Exists(Role(rng.choice(roles), rng.random() < 0.4), TOP)
        return TOP

    axioms = []
    for _ in range(n_axioms):
        pick = rng.random()
        if pick < 0.15:
            axioms.append(RoleInclusion(Role(rng.choice(roles)),
                                        Role(rng.choice(roles), rng.random() < 0.4)))
        elif pick < 0.22:
            axioms.append(RoleDisjointness(tuple(rng.sample(roles, 2))))
        else:
            lhs = basic() if rng.random() < 0.7 else conj(basic(), basic())
            rhs = BOT if rng.random() < 0.1 or (isinstance(lhs, Conj) and not horn) \
                else basic()
            axioms.append(ConceptInclusion(lhs, rhs))
    return Ontology(axioms, Dialect.DLLITE_R_HORN if horn else Dialect.DLLITE_R)


def rand_containment_pair(rng: random.Random, kind: str) -> tuple[OMQ, OMQ]:
    """Two OMQs over one random schema of one to three of the names A, B,
    E, r and s, for checking containment by brute force.  ``kind``
    "dllite" draws DL-LiteR or DL-LiteR-horn ontologies over A and B,
    "elhi" ELHI_bot ones.  The right ontology is the left one, the left one
    with more axioms, a fresh draw, or empty, a quarter of the time each.
    Each query is one CQ of one to three variables; both share an arity."""
    names, roles = ["A", "B", "E"], ["r", "s"]
    horn = rng.random() < 0.5

    def draw(n: int) -> Ontology:
        if kind == "dllite":
            return rand_dllite_ontology(rng, n, names=names[:2], roles=roles, horn=horn)
        axioms = list(rand_eli_ontology(rng, n, names=names[:2], roles=roles,
                                        depth=1).axioms)
        if rng.random() < 0.3:
            axioms.append(RoleInclusion(Role("r", rng.random() < 0.5),
                                        Role("s", rng.random() < 0.5)))
        return Ontology(axioms, Dialect.ELHI_BOT)

    o1 = draw(rng.randint(1, 3))
    pick = rng.randrange(4)
    o2 = (o1 if pick == 0
          else Ontology(o1.axioms | draw(rng.randint(1, 2)).axioms, o1.dialect) if pick == 1
          else draw(rng.randint(1, 3)) if pick == 2
          else Ontology((), o1.dialect))
    schema = Schema.of(rng.sample(names + roles, rng.randint(1, 3)))
    arity = rng.choice([0, 1])
    q1, q2 = (rand_cq(rng, rng.randint(1, 3), arity, names=names, roles=roles)
              for _ in range(2))
    return OMQ(o1, schema, UCQ((q1,))), OMQ(o2, schema, UCQ((q2,)))


def rand_axioms(rng: random.Random, n_axioms: int, names=("A", "B", "C"),
                roles=("r", "s")) -> list:
    """Random axioms of every form, drawn so that each dialect of
    ``DIALECT_INFERENCE_ORDER`` is the least one admitting some draws, and
    each violation the dialect checks name occurs in some."""
    def basic():
        pick = rng.random()
        if pick < 0.04:
            return BOT
        if pick < 0.5:
            return Atomic(rng.choice(names))
        if pick < 0.8:
            return Exists(Role(rng.choice(roles), rng.random() < 0.3), TOP)
        return TOP

    axioms = []
    for _ in range(n_axioms):
        pick = rng.random()
        if pick < 0.1:
            axioms.append(Functionality(rng.choice(roles)))
        elif pick < 0.2:
            axioms.append(RoleDisjointness(tuple(rng.sample(roles, 2))))
        elif pick < 0.3:
            axioms.append(RoleInclusion(Role(roles[0], rng.random() < 0.3),
                                        Role(roles[1], rng.random() < 0.3)))
        elif pick < 0.37:
            filler = rand_concept(rng, names, roles, 1, False)
            if rng.random() < 0.2:
                filler = Exists(Role(rng.choice(roles), True), filler)
            axioms.append(RangeRestriction(rng.choice(roles), filler))
        elif pick < 0.7:
            lhs = basic() if rng.random() < 0.6 else conj(basic(), basic())
            rhs = BOT if rng.random() < 0.2 else basic()
            axioms.append(ConceptInclusion(lhs, rhs))
        else:
            lhs = rand_concept(rng, names, roles, 2, rng.random() < 0.3, allow_top=False)
            rhs = BOT if rng.random() < 0.2 else rand_concept(
                rng, names, roles, 2, rng.random() < 0.3)
            if rng.random() < 0.05:
                rhs = Exists(Role(rng.choice(roles)), conj(rhs, BOT))
            axioms.append(ConceptInclusion(lhs, rhs))
    return axioms


def rand_database(rng: random.Random, n_constants: int, names=None, roles=None,
                  n_facts=None) -> Database:
    names = names or ["A1", "A2", "A3", "B1", "B2"]
    roles = roles or ["r", "s"]
    consts = [f"c{i}" for i in range(n_constants)]
    n_facts = n_facts if n_facts is not None else rng.randint(n_constants, 3 * n_constants)
    facts = []
    for _ in range(n_facts):
        if rng.random() < 0.45:
            facts.append(ConceptFact(rng.choice(names), rng.choice(consts)))
        else:
            facts.append(RoleFact(rng.choice(roles), rng.choice(consts),
                                  rng.choice(consts)))
    return Database(facts)


def rand_cq(rng: random.Random, n_vars: int, arity: int, names=None, roles=None,
            n_atoms=None, max_tw=None, tries=60) -> CQ:
    """Random connected-ish CQ; resamples until the treewidth bound holds."""
    names = names or ["A1", "A2", "A3", "B1", "B2"]
    roles = roles or ["r", "s"]
    for _ in range(tries):
        var = [f"x{i}" for i in range(n_vars)]
        n_atoms = n_atoms or rng.randint(n_vars, 2 * n_vars)
        atoms = []
        # a random spanning tree keeps things connected
        for i in range(1, n_vars):
            j = rng.randrange(i)
            a, b = var[i], var[j]
            if rng.random() < 0.5:
                a, b = b, a
            atoms.append(RoleFact(rng.choice(roles), a, b))
        for _ in range(max(0, n_atoms - n_vars + 1)):
            if rng.random() < 0.4:
                atoms.append(ConceptFact(rng.choice(names), rng.choice(var)))
            else:
                atoms.append(RoleFact(rng.choice(roles), rng.choice(var),
                                      rng.choice(var)))
        bound = set()
        for at in atoms:
            bound.update(at.terms())
        avs = [v for v in var[:arity] if v in bound]
        try:
            q = CQ(tuple(avs), atoms)
        except Exception:
            continue
        if max_tw is None or cq_treewidth(q) <= max_tw:
            return q
    raise RuntimeError("could not sample a query within the treewidth bound")


def rand_ucq(rng: random.Random, n_disjuncts: int, n_vars: int, arity: int,
             max_tw=None, **kw) -> UCQ:
    ds = []
    avs = None
    for _ in range(n_disjuncts):
        q = rand_cq(rng, rng.randint(max(arity, 1), n_vars), arity,
                    max_tw=max_tw, **kw)
        if avs is None:
            avs = q.answer_vars
        else:
            q = CQ(avs, [at for at in q.atoms]) if q.answer_vars != avs else q
        ds.append(q)
    return UCQ(ds)


def criterion4_instances(seed: int):
    """Acceptance criterion 4's endless stream: ELHdr OMQs over the full
    schema with one CQ of tree width at most 2, each with a nonempty
    database consistent with its ontology, as (OMQ, database,
    max(1, tree width))."""
    rng = random.Random(seed)
    names, roles = ["A1", "A2", "A3", "B1"], ["r", "s"]
    while True:
        o = rand_elhdr_ontology(rng, rng.randint(1, 8), names=names, roles=roles)
        d = rand_database(rng, rng.randint(2, 6), names=names, roles=roles)
        arity = rng.choice([0, 0, 1])
        q = rand_cq(rng, rng.randint(max(arity, 1), 6), arity, names=names,
                    roles=roles, max_tw=2)
        if d.dom and is_consistent(d, o):
            yield OMQ(o, FULL_SCHEMA, UCQ((q,))), d, max(1, cq_treewidth(q))


def rand_tw_bounded_database(rng: random.Random, k: int, n_bags: int,
                             names=None, roles=None) -> Database:
    """Database generated along a random width-``k`` tree decomposition, so
    its treewidth is at most ``k``."""
    names = names or ["A1", "A2", "A3", "B1", "B2"]
    roles = roles or ["r", "s"]
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"c{counter[0]}"

    bags = []
    facts = []
    for i in range(n_bags):
        if not bags:
            bag = [fresh() for _ in range(k + 1)]
        else:
            parent = rng.choice(bags)
            keep = rng.sample(parent, rng.randint(0, k))
            bag = keep + [fresh() for _ in range(k + 1 - len(keep))]
        bags.append(bag)
        for _ in range(rng.randint(1, k + 2)):
            if rng.random() < 0.4:
                facts.append(ConceptFact(rng.choice(names), rng.choice(bag)))
            else:
                facts.append(RoleFact(rng.choice(roles), rng.choice(bag),
                                      rng.choice(bag)))
    return Database(facts)


def dead_end_paths(n: int, seed: int = 7):
    """The dead-end path family: ontology ``A <= B``, the Boolean query
    ``q() :- r(x0,x1), ..., r(x{n-1},xn), B(xn)``, and a database of 30
    constants with 4 random ``r``-successors each and no concept fact, so
    nothing entails ``B`` and the answer is empty, as (OMQ, database).
    The database has about 4^n ``r``-paths of length n."""
    rng = random.Random(seed)
    consts = [f"c{i}" for i in range(30)]
    d = Database(RoleFact("r", a, b) for a in consts
                 for b in rng.sample([c for c in consts if c != a], 4))
    o = Ontology([ConceptInclusion(Atomic("A"), Atomic("B"))], Dialect.EL)
    atoms = [RoleFact("r", f"x{i}", f"x{i + 1}") for i in range(n)]
    q = CQ((), atoms + [ConceptFact("B", f"x{n}")])
    return OMQ(o, FULL_SCHEMA, UCQ((q,))), d
