"""Core data model: roles, concepts, axioms, ontologies, databases, queries.

Everything in this module is immutable and hashable.  Conjunctions are
flattened and kept in a canonical (sorted) order so that structurally
equal concepts compare equal regardless of how they were written down.
A concept is a tree-shaped query, and ``concept_tree`` is the one place
that turns it into atoms, laid at a given term.
"""

from __future__ import annotations

import enum
import functools
import operator
from typing import Iterable, Iterator, NamedTuple, Optional, Union


# ---------------------------------------------------------------------------
# Records


def record(cls=None, *, order=False):
    """Class decorator for an immutable record, as
    ``dataclasses.dataclass(frozen=True, order=order)`` makes it: the
    class's annotated fields, in order, are the parameters of ``__init__``
    (a class-level value is the default), and records compare and hash by
    their field tuple, equal only within one class.

    ``__init__``, ``__eq__`` and ``__hash__`` are compiled from the source
    ``dataclass`` generates, in one ``exec`` per class, so hashes, set
    order and speed are the same.  ``__repr__`` (the same text), the
    frozen guards and the order methods are closures.  A method the class
    defines itself is kept.  Loading omqlab thus imports neither
    ``dataclasses`` nor ``inspect`` and compiles three methods per record,
    not up to ten."""
    if cls is None:
        return functools.partial(record, order=order)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    slots = cls.__dict__.get("__slots__", ())
    ns = {"__name__": cls.__module__, "_set": object.__setattr__}
    params = ["self"]
    for n in names:
        if n in cls.__dict__ and n not in slots:
            ns[f"_dflt_{n}"] = cls.__dict__[n]
            params.append(f"{n}=_dflt_{n}")
        else:
            params.append(n)
    mine = "".join(f"self.{n}," for n in names)
    theirs = "".join(f"other.{n}," for n in names)
    source = "\n".join(
        [f"def __init__({', '.join(params)}):"]
        + ([f" _set(self, {n!r}, {n})" for n in names] or [" pass"])
        + ["def __eq__(self, other):",
           " if other.__class__ is self.__class__:",
           f"  return ({mine}) == ({theirs})",
           " return NotImplemented",
           "def __hash__(self):",
           f" return hash(({mine}))"])
    exec(source, ns)
    methods = {m: ns[m] for m in ("__init__", "__eq__", "__hash__")}

    def __repr__(self):
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods.update(__repr__=__repr__, __setattr__=__setattr__, __delattr__=__delattr__)
    if order:
        get = operator.attrgetter(*names)  # the bare value for one name
        fields_of = get if len(names) > 1 else lambda r: (get(r),)

        def compare(op):
            def method(self, other):
                if other.__class__ is self.__class__:
                    return op(fields_of(self), fields_of(other))
                return NotImplemented
            return method

        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            methods[f"__{op.__name__}__"] = compare(op)
    for name, fn in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, fn)
    return cls


# ---------------------------------------------------------------------------
# Errors


class OmqlabError(ValueError):
    """An input omqlab refuses: outside the dialect, schema or query shape a
    result covers.  The CLI prints ``prefix: message`` and exits with
    ``exit_code``."""

    exit_code = 3
    prefix = "error"


class CapExceeded(OmqlabError):
    """A desk-scale size cap was hit; results would not be exact in time."""

    exit_code = 5
    prefix = "cap exceeded"


# ---------------------------------------------------------------------------
# Roles and concepts


@record(order=True)
class Role:
    """A role name or its inverse.  ``(r^-)^- = r`` by construction."""

    name: str
    inverted: bool = False

    def inverse(self) -> "Role":
        return Role(self.name, not self.inverted)

    def __str__(self) -> str:
        return f"inv({self.name})" if self.inverted else self.name


class Concept:
    """Base class for concept AST nodes."""

    __slots__ = ()

    def key(self):
        raise NotImplementedError

    def roles(self) -> Iterator[Role]:
        return iter(())

    def subconcepts(self) -> Iterator["Concept"]:
        """All subconcepts including the concept itself."""
        yield self

    def contains_bot(self) -> bool:
        return any(isinstance(c, Bot) for c in self.subconcepts())

    def __lt__(self, other: "Concept") -> bool:
        return self.key() < other.key()


@record
class Top(Concept):
    __slots__ = ()

    def key(self):
        return (0,)

    def __str__(self) -> str:
        return "top"


@record
class Bot(Concept):
    __slots__ = ()

    def key(self):
        return (1,)

    def __str__(self) -> str:
        return "bot"


@record
class Atomic(Concept):
    __slots__ = ("name",)
    name: str

    def key(self):
        return (2, self.name)

    def __str__(self) -> str:
        return self.name


@record
class Exists(Concept):
    __slots__ = ("role", "filler")
    role: Role
    filler: Concept

    def key(self):
        return (3, self.role.name, self.role.inverted, self.filler.key())

    def roles(self) -> Iterator[Role]:
        yield self.role
        yield from self.filler.roles()

    def subconcepts(self) -> Iterator[Concept]:
        yield self
        yield from self.filler.subconcepts()

    def __str__(self) -> str:
        filler = str(self.filler)
        if isinstance(self.filler, Conj):
            filler = f"({filler})"
        return f"exists {self.role} . {filler}"


@record
class Conj(Concept):
    """Conjunction over a flattened, canonically ordered tuple of parts."""

    __slots__ = ("parts",)
    parts: tuple

    def key(self):
        return (4,) + tuple(p.key() for p in self.parts)

    def roles(self) -> Iterator[Role]:
        for p in self.parts:
            yield from p.roles()

    def subconcepts(self) -> Iterator[Concept]:
        yield self
        for p in self.parts:
            yield from p.subconcepts()

    def __str__(self) -> str:
        out = []
        for p in self.parts:
            s = str(p)
            if isinstance(p, Exists):
                s = f"({s})"
            out.append(s)
        return " & ".join(out)


TOP = Top()
BOT = Bot()


def conj(*parts: Concept) -> Concept:
    """Build a conjunction, flattening nested ones and sorting the parts."""
    flat: list[Concept] = []
    for p in parts:
        if isinstance(p, Conj):
            flat.extend(p.parts)
        else:
            flat.append(p)
    flat.sort(key=lambda c: c.key())
    if len(flat) == 1:
        return flat[0]
    if not flat:
        return TOP
    return Conj(tuple(flat))


def is_basic_concept(c: Concept) -> bool:
    """Concept name, top, bot, or an unqualified existential restriction."""
    if isinstance(c, (Top, Bot, Atomic)):
        return True
    return isinstance(c, Exists) and isinstance(c.filler, Top)


# ---------------------------------------------------------------------------
# Axioms and ontologies


@record(order=True)
class ConceptInclusion:
    lhs: Concept
    rhs: Concept

    def __str__(self) -> str:
        return f"{self.lhs} <= {self.rhs}"


@record(order=True)
class RoleInclusion:
    lhs: Role
    rhs: Role

    def __str__(self) -> str:
        return f"{self.lhs} <= {self.rhs}"


@record(order=True)
class RangeRestriction:
    """``range r <= C``, standing for the inclusion  exists inv(r).top <= C."""

    role: str
    filler: Concept

    def as_inclusion(self) -> ConceptInclusion:
        return ConceptInclusion(Exists(Role(self.role, True), TOP), self.filler)

    def __str__(self) -> str:
        return f"range {self.role} <= {self.filler}"


@record(order=True)
class RoleDisjointness:
    roles: tuple  # role names

    def __str__(self) -> str:
        return "disjoint-roles " + ", ".join(self.roles)


@record(order=True)
class Functionality:
    role: str

    def __str__(self) -> str:
        return f"func {self.role}"


Axiom = Union[ConceptInclusion, RoleInclusion, RangeRestriction, RoleDisjointness, Functionality]

_AXIOM_ORDER = (ConceptInclusion, RoleInclusion, RangeRestriction, RoleDisjointness, Functionality)


def axiom_key(ax: Axiom):
    for i, cls in enumerate(_AXIOM_ORDER):
        if isinstance(ax, cls):
            return (i, str(ax))
    raise TypeError(f"not an axiom: {ax!r}")


class Dialect(str, enum.Enum):
    EL = "EL"
    EL_BOT = "EL_bot"
    ELH_BOT = "ELH_bot"
    ELHDR_BOT = "ELHdr_bot"
    ELI = "ELI"
    ELI_BOT = "ELI_bot"
    ELHI_BOT = "ELHI_bot"
    DLLITE_R = "DL-LiteR"
    DLLITE_R_HORN = "DL-LiteR-horn"
    DLLITE_F = "DL-LiteF"
    DLLITE_F_EQ = "DL-LiteF-eq"


# Dialects the ELHI_bot reasoning engine accepts directly.
ELHI_FAMILY = {
    Dialect.EL,
    Dialect.EL_BOT,
    Dialect.ELH_BOT,
    Dialect.ELHDR_BOT,
    Dialect.ELI,
    Dialect.ELI_BOT,
    Dialect.ELHI_BOT,
}

DLLITE_FAMILY = {
    Dialect.DLLITE_R,
    Dialect.DLLITE_R_HORN,
    Dialect.DLLITE_F,
    Dialect.DLLITE_F_EQ,
}

# Order used when inferring the least dialect admitting a set of axioms.
DIALECT_INFERENCE_ORDER = (
    Dialect.EL,
    Dialect.EL_BOT,
    Dialect.ELH_BOT,
    Dialect.ELHDR_BOT,
    Dialect.ELI,
    Dialect.ELI_BOT,
    Dialect.ELHI_BOT,
    Dialect.DLLITE_F_EQ,
    Dialect.DLLITE_R,
    Dialect.DLLITE_F,
    Dialect.DLLITE_R_HORN,
)


@record
class Ontology:
    axioms: frozenset
    dialect: Dialect

    def __init__(self, axioms: Iterable[Axiom], dialect: Dialect = Dialect.ELHI_BOT):
        object.__setattr__(self, "axioms", frozenset(axioms))
        object.__setattr__(self, "dialect", dialect)
        bad = check_dialect_axioms(self.axioms, dialect)
        if bad:
            raise DialectError(dialect, bad)

    def sorted_axioms(self) -> list:
        return sorted(self.axioms, key=axiom_key)

    def concept_inclusions(self) -> list[ConceptInclusion]:
        out = [a for a in self.axioms if isinstance(a, ConceptInclusion)]
        out += [a.as_inclusion() for a in self.axioms if isinstance(a, RangeRestriction)]
        return sorted(out)

    def role_inclusions(self) -> list[RoleInclusion]:
        return sorted(a for a in self.axioms if isinstance(a, RoleInclusion))

    def functional_roles(self) -> frozenset:
        return frozenset(a.role for a in self.axioms if isinstance(a, Functionality))

    def role_disjointness(self) -> list[RoleDisjointness]:
        return sorted(a for a in self.axioms if isinstance(a, RoleDisjointness))

    def concept_names(self) -> frozenset:
        names = set()
        for ci in self.concept_inclusions():
            for side in (ci.lhs, ci.rhs):
                names.update(s.name for s in side.subconcepts() if isinstance(s, Atomic))
        return frozenset(names)

    def __str__(self) -> str:
        return "\n".join(str(a) for a in self.sorted_axioms())


class DialectError(OmqlabError):
    """An axiom set does not fit the declared dialect."""

    def __init__(self, dialect: Dialect, violations: list[str]):
        super().__init__(f"dialect {dialect.value}: " + "; ".join(violations))


def _bot_and_inverse(c: Concept) -> tuple[bool, bool]:
    """Whether ``c`` has a bot subconcept, and whether it uses an inverse
    role, from one walk of its syntax tree."""
    bot = inverse = False
    todo = [c]
    while todo:
        node = todo.pop()
        if isinstance(node, Exists):
            inverse = inverse or node.role.inverted
            todo.append(node.filler)
        elif isinstance(node, Conj):
            todo.extend(node.parts)
        elif isinstance(node, Bot):
            bot = True
    return bot, inverse


def _check_inclusion_shape(ax: ConceptInclusion, allow_bot, allow_inverse) -> Optional[str]:
    # bot may appear only as the full right-hand side
    lhs_bot, lhs_inverse = _bot_and_inverse(ax.lhs)
    if lhs_bot:
        return "bot on the left-hand side of"
    rhs_bot, rhs_inverse = _bot_and_inverse(ax.rhs)
    if rhs_bot and not isinstance(ax.rhs, Bot):
        return "bot nested inside the right-hand side of"
    if not allow_bot and isinstance(ax.rhs, Bot):
        return "bot not admitted:"
    if not allow_inverse and (lhs_inverse or rhs_inverse):
        return "inverse role not admitted:"
    return None


def _check_dllite_inclusion(ax: ConceptInclusion, horn: bool) -> Optional[str]:
    lhs_parts = ax.lhs.parts if isinstance(ax.lhs, Conj) else (ax.lhs,)
    if not all(is_basic_concept(b) for b in lhs_parts):
        return "non-basic concept on the left of"
    if not is_basic_concept(ax.rhs):
        return "non-basic concept on the right of"
    if not horn and len(lhs_parts) > 1 and not isinstance(ax.rhs, Bot):
        return "conjunctive left-hand side needs bot right-hand side:"
    return None


def check_dialect_axioms(axioms: Iterable[Axiom], dialect: Dialect) -> list[str]:
    """Return the violations, in ``axiom_key`` order of their axioms (empty
    when every axiom is admitted)."""
    d = Dialect(dialect)
    bad = [(axiom_key(ax), f"{v} {ax}") for ax in axioms if (v := _check_one_axiom(ax, d))]
    return [v for _, v in sorted(bad)]


# What each dialect admits, read by ``_check_one_axiom`` from these tables
# rather than from ``Dialect`` members, whose every attribute lookup costs
# more than a dictionary lookup.  ELHI family: bot, inverse roles, role
# inclusions, range restrictions.
_ELHI_ADMITS = {
    Dialect.EL: (False, False, False, False),
    Dialect.EL_BOT: (True, False, False, False),
    Dialect.ELH_BOT: (True, False, True, False),
    Dialect.ELHDR_BOT: (True, False, True, True),
    Dialect.ELI: (False, True, False, False),
    Dialect.ELI_BOT: (True, True, False, False),
    Dialect.ELHI_BOT: (True, True, True, True),
}
# DL-Lite: the axiom forms admitted besides concept inclusions, and whether
# a conjunctive left-hand side may have a right-hand side other than bot
_DLLITE_ADMITS = {
    Dialect.DLLITE_R: ((RoleInclusion, RoleDisjointness), False),
    Dialect.DLLITE_R_HORN: ((RoleInclusion, RoleDisjointness), True),
    Dialect.DLLITE_F: ((RoleDisjointness, Functionality), False),
}
_DLLITE_F_EQ = Dialect.DLLITE_F_EQ


def _check_one_axiom(ax: Axiom, d: Dialect) -> Optional[str]:
    """Why ``d`` does not admit ``ax``, as the violation's text before the
    axiom, or None when it does."""
    elhi = _ELHI_ADMITS.get(d)
    if elhi is not None:
        allow_bot, allow_inverse, allow_role_inc, allow_range = elhi
        if isinstance(ax, ConceptInclusion):
            return _check_inclusion_shape(ax, allow_bot, allow_inverse)
        if isinstance(ax, RoleInclusion):
            if not allow_role_inc:
                return "role inclusion not admitted:"
            if not allow_inverse and (ax.lhs.inverted or ax.rhs.inverted):
                return "inverse role not admitted:"
            return None
        if isinstance(ax, RangeRestriction):
            # expressible directly with an inverse role in ELHI_bot
            if not allow_range:
                return "range restriction not admitted:"
            if not allow_inverse and _bot_and_inverse(ax.filler)[1]:
                return "range filler must be an EL_bot concept:"
            return None
        return "axiom form not admitted:"

    if d is _DLLITE_F_EQ:
        if isinstance(ax, Functionality):
            return None
        return "only functionality assertions admitted:"

    dllite = _DLLITE_ADMITS.get(d)
    if dllite is None:
        raise ValueError(f"unknown dialect {d!r}")
    others, horn = dllite
    if isinstance(ax, ConceptInclusion):
        return _check_dllite_inclusion(ax, horn)
    if not isinstance(ax, others):
        return "axiom form not admitted:"
    if isinstance(ax, RoleInclusion) and ax.lhs.inverted:
        return "inverse role on the left of a role inclusion:"
    return None


def infer_dialect(axioms: Iterable[Axiom]) -> Dialect:
    """Least dialect (along the fixed inference order) admitting all axioms;
    each dialect is left at its first violation."""
    axioms = list(axioms)
    for d in DIALECT_INFERENCE_ORDER:
        if not any(_check_one_axiom(ax, d) for ax in axioms):
            return d
    raise DialectError(Dialect.ELHI_BOT, check_dialect_axioms(axioms, Dialect.ELHI_BOT))


def infer_ontology(axioms: Iterable[Axiom]) -> Ontology:
    """``Ontology(axioms, infer_dialect(axioms))`` with one check of the
    axioms, not two: the inference has found that dialect admits them."""
    axioms = list(axioms)
    o = object.__new__(Ontology)
    object.__setattr__(o, "dialect", infer_dialect(axioms))
    object.__setattr__(o, "axioms", frozenset(axioms))
    return o


EMPTY_ONTOLOGY = Ontology((), Dialect.EL)


# ---------------------------------------------------------------------------
# Schemas, databases, facts


@record
class Schema:
    full: bool
    names: frozenset = frozenset()

    @staticmethod
    def full_schema() -> "Schema":
        return Schema(True, frozenset())

    @staticmethod
    def of(names: Iterable[str]) -> "Schema":
        return Schema(False, frozenset(names))

    def admits(self, name: str) -> bool:
        return self.full or name in self.names

    def __str__(self) -> str:
        return "full" if self.full else "{" + ", ".join(sorted(self.names)) + "}"


FULL_SCHEMA = Schema.full_schema()


@record(order=True)
class ConceptFact:
    """``A(a)``; also used as a unary query atom with a variable in ``a``."""

    name: str
    a: str

    def terms(self) -> tuple:
        return (self.a,)

    def rename(self, m) -> "ConceptFact":
        return ConceptFact(self.name, m.get(self.a, self.a))

    def __str__(self) -> str:
        return f"{self.name}({self.a})"


@record(order=True)
class RoleFact:
    """``r(a,b)``; also used as a binary query atom."""

    name: str
    a: str
    b: str

    def terms(self) -> tuple:
        return (self.a, self.b)

    def rename(self, m) -> "RoleFact":
        return RoleFact(self.name, m.get(self.a, self.a), m.get(self.b, self.b))

    def __str__(self) -> str:
        return f"{self.name}({self.a},{self.b})"


Fact = Union[ConceptFact, RoleFact]


def fact_key(f: Fact) -> tuple:
    """Total order across unary and binary facts/atoms."""
    ts = f.terms()
    return (f.name, len(ts)) + ts


def sorted_facts(facts: Iterable[Fact]) -> list:
    return sorted(facts, key=fact_key)


class FactIndex(NamedTuple):
    """Lookups into one database's facts by name and constant."""

    concepts: dict  # concept name -> constants carrying it
    succ: dict      # (role name, a) -> constants b with r(a,b)
    pred: dict      # (role name, b) -> constants a with r(a,b)


_NONE: frozenset = frozenset()


class Database:
    """A finite set of unary and binary facts.

    Lookups by name or constant read ``index``, one ``FactIndex`` built on
    first use and kept for the database's lifetime: concept name to
    constants, and (role name, constant) to successors and predecessors.
    """

    __slots__ = ("facts", "dom", "_hash", "_index")

    def __init__(self, facts: Iterable[Fact] = ()):
        object.__setattr__(self, "facts", frozenset(facts))
        dom = set()
        for f in self.facts:
            dom.update(f.terms())
        object.__setattr__(self, "dom", frozenset(dom))
        object.__setattr__(self, "_hash", hash(self.facts))

    def __setattr__(self, *a):
        raise AttributeError("Database is immutable")

    def __eq__(self, other):
        return isinstance(other, Database) and self.facts == other.facts

    def __hash__(self):
        return self._hash

    def __contains__(self, fact: Fact) -> bool:
        return fact in self.facts

    def __len__(self) -> int:
        return len(self.facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(sorted_facts(self.facts))

    def concept_facts(self) -> Iterator[ConceptFact]:
        return (f for f in sorted_facts(self.facts) if isinstance(f, ConceptFact))

    def role_facts(self) -> Iterator[RoleFact]:
        return (f for f in sorted_facts(self.facts) if isinstance(f, RoleFact))

    @property
    def index(self) -> FactIndex:
        try:
            return self._index
        except AttributeError:
            pass
        concepts: dict = {}
        succ: dict = {}
        pred: dict = {}
        for f in self.facts:
            if isinstance(f, ConceptFact):
                concepts.setdefault(f.name, set()).add(f.a)
            else:
                succ.setdefault((f.name, f.a), set()).add(f.b)
                pred.setdefault((f.name, f.b), set()).add(f.a)

        def frozen(m: dict) -> dict:
            return {k: frozenset(v) for k, v in m.items()}

        object.__setattr__(self, "_index",
                           FactIndex(frozen(concepts), frozen(succ), frozen(pred)))
        return self._index

    def successors(self, a: str, role: Role) -> frozenset:
        idx = self.index
        return (idx.pred if role.inverted else idx.succ).get((role.name, a), _NONE)

    def names(self) -> frozenset:
        return frozenset(f.name for f in self.facts)

    def uses_only(self, schema: Schema) -> bool:
        return all(schema.admits(n) for n in self.names())

    def __str__(self) -> str:
        return "\n".join(str(f) for f in sorted_facts(self.facts))

    def __repr__(self) -> str:
        return f"Database({sorted_facts(self.facts)!r})"


def restrict_database(d: Database, constants: Iterable[str]) -> Database:
    """Keep exactly the facts all of whose constants lie in ``constants``."""
    keep = set(constants)
    return Database(f for f in d.facts if all(t in keep for t in f.terms()))


def gaifman_graph(d: Database) -> "UndirectedGraph":
    g = UndirectedGraph(d.dom)
    for f in d.facts:
        ts = f.terms()
        if len(ts) == 2 and ts[0] != ts[1]:
            g.add_edge(ts[0], ts[1])
    return g


class UndirectedGraph:
    """Simple undirected graph without self loops."""

    def __init__(self, vertices: Iterable = (), edges: Iterable = ()):
        self.adj: dict = {v: set() for v in vertices}
        for a, b in edges:
            self.add_edge(a, b)

    def add_vertex(self, v):
        self.adj.setdefault(v, set())

    def add_edge(self, a, b):
        if a == b:
            return
        self.adj.setdefault(a, set()).add(b)
        self.adj.setdefault(b, set()).add(a)

    @property
    def vertices(self) -> frozenset:
        return frozenset(self.adj)

    def edges(self) -> set:
        return {frozenset((a, b)) for a, nbrs in self.adj.items() for b in nbrs}

    def neighbours(self, v) -> set:
        return set(self.adj.get(v, ()))

    def degree(self, v) -> int:
        return len(self.adj.get(v, ()))

    def subgraph(self, keep: Iterable) -> "UndirectedGraph":
        keep = set(keep)
        g = UndirectedGraph(keep)
        for v in keep:
            for w in self.adj.get(v, ()):
                if w in keep:
                    g.add_edge(v, w)
        return g

    def connected_components(self) -> list[set]:
        seen: set = set()
        comps = []
        for v in sorted(self.adj, key=str):
            if v in seen:
                continue
            comp = {v}
            stack = [v]
            while stack:
                u = stack.pop()
                for w in self.adj[u]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1


# ---------------------------------------------------------------------------
# Queries


class QueryError(OmqlabError):
    pass


class CQ:
    """A conjunctive query with an ordered answer-variable tuple.

    Atoms are ``ConceptFact``/``RoleFact`` values whose terms are variable
    names.  Every answer variable must occur in some atom; equality atoms
    and constants are not supported.
    """

    __slots__ = ("answer_vars", "atoms", "_hash")

    def __init__(self, answer_vars: Iterable[str], atoms: Iterable[Fact]):
        avs = tuple(answer_vars)
        if len(set(avs)) != len(avs):
            raise QueryError(f"repeated answer variable in {avs}")
        atomset = frozenset(atoms)
        # Answer variables without atoms are tolerated here (the atom-free
        # fragment coming from the top concept needs them); the parser
        # rejects them for user-written queries.
        object.__setattr__(self, "answer_vars", avs)
        object.__setattr__(self, "atoms", atomset)
        object.__setattr__(self, "_hash", hash((avs, atomset)))

    def __setattr__(self, *a):
        raise AttributeError("CQ is immutable")

    def __eq__(self, other):
        return (isinstance(other, CQ) and self.answer_vars == other.answer_vars
                and self.atoms == other.atoms)

    def __hash__(self):
        return self._hash

    @property
    def arity(self) -> int:
        return len(self.answer_vars)

    def is_boolean(self) -> bool:
        return self.arity == 0

    def variables(self) -> frozenset:
        var = set(self.answer_vars)
        for at in self.atoms:
            var.update(at.terms())
        return frozenset(var)

    def quantified_vars(self) -> frozenset:
        return self.variables() - set(self.answer_vars)

    def restrict(self, keep: Iterable[str]) -> "CQ":
        """Restriction to a variable set; answer variables outside are dropped."""
        keep = set(keep)
        atoms = [at for at in self.atoms if all(t in keep for t in at.terms())]
        avs = tuple(x for x in self.answer_vars if x in keep)
        return CQ(avs, atoms)

    def rename(self, m: dict) -> "CQ":
        avs = tuple(m.get(x, x) for x in self.answer_vars)
        return CQ(avs, (at.rename(m) for at in self.atoms))

    def sorted_atoms(self) -> list:
        return sorted_facts(self.atoms)

    def names(self) -> frozenset:
        return frozenset(at.name for at in self.atoms)

    def __str__(self) -> str:
        head = "q(" + ",".join(self.answer_vars) + ")"
        body = ", ".join(str(a) for a in self.sorted_atoms())
        return f"{head} :- {body}"

    def __repr__(self) -> str:
        return f"CQ({self.answer_vars!r}, {self.sorted_atoms()!r})"


def cq_as_database(q: CQ) -> Database:
    return Database(q.atoms)


def cq_components(q: CQ) -> list[frozenset]:
    """The atom sets of the connected components of ``q``'s Gaifman graph,
    in the order of ``UndirectedGraph.connected_components``."""
    return [frozenset(at for at in q.atoms if at.terms()[0] in comp)
            for comp in gaifman_graph(cq_as_database(q)).connected_components()]


class UCQ:
    """A nonempty disjunction of CQs sharing one answer-variable tuple."""

    __slots__ = ("disjuncts", "_hash")

    def __init__(self, disjuncts: Iterable[CQ]):
        ds = tuple(disjuncts)
        if not ds:
            raise QueryError("a UCQ needs at least one disjunct")
        avs = ds[0].answer_vars
        for d in ds[1:]:
            if d.answer_vars != avs:
                raise QueryError(
                    f"disjuncts disagree on answer variables: {avs} vs {d.answer_vars}")
        object.__setattr__(self, "disjuncts", ds)
        object.__setattr__(self, "_hash", hash(ds))

    def __setattr__(self, *a):
        raise AttributeError("UCQ is immutable")

    def __eq__(self, other):
        return isinstance(other, UCQ) and self.disjuncts == other.disjuncts

    def __hash__(self):
        return self._hash

    @property
    def answer_vars(self) -> tuple:
        return self.disjuncts[0].answer_vars

    @property
    def arity(self) -> int:
        return len(self.answer_vars)

    def is_boolean(self) -> bool:
        return self.arity == 0

    def names(self) -> frozenset:
        out: set = set()
        for d in self.disjuncts:
            out |= d.names()
        return frozenset(out)

    def __iter__(self) -> Iterator[CQ]:
        return iter(self.disjuncts)

    def __len__(self) -> int:
        return len(self.disjuncts)

    def __str__(self) -> str:
        return "\n".join(str(d) for d in self.disjuncts)


@record
class OMQ:
    ontology: Ontology
    schema: Schema
    query: UCQ

    @property
    def arity(self) -> int:
        return self.query.arity

    def with_query(self, q: UCQ) -> "OMQ":
        return OMQ(self.ontology, self.schema, q)


# ---------------------------------------------------------------------------
# Concepts as queries


class FreshVars:
    """Deterministic fresh-symbol source, scoped per operation call; it
    skips the names in ``avoid``, such as the constants of an input."""

    def __init__(self, prefix: str = "_v", avoid: frozenset = frozenset()):
        self.prefix = prefix
        self.avoid = avoid
        self.n = 0

    def next(self) -> str:
        while True:
            s = f"{self.prefix}{self.n}"
            self.n += 1
            if s not in self.avoid:
                return s


def concept_tree(c: Concept, root: str, fresh: FreshVars) -> list[Fact]:
    """The atoms of ``c``'s tree with its root at the term ``root``: every
    other node is the next name of ``fresh``, depth first, and the role
    atom into a node comes before the atoms below it.  ``top`` has no
    atoms."""
    if c.contains_bot():
        raise QueryError("bot admits no query representation")
    atoms: list[Fact] = []
    _concept_atoms(c, root, fresh, atoms)
    return atoms


def concept_as_cq(c: Concept) -> CQ:
    """``c``'s tree as a CQ, its root ``_v0`` the answer variable."""
    fresh = FreshVars()
    root = fresh.next()
    return CQ((root,), concept_tree(c, root, fresh))


def _concept_atoms(c: Concept, node: str, fresh: FreshVars, out: list) -> None:
    if isinstance(c, Top):
        return
    if isinstance(c, Atomic):
        out.append(ConceptFact(c.name, node))
        return
    if isinstance(c, Conj):
        for p in c.parts:
            _concept_atoms(p, node, fresh, out)
        return
    if isinstance(c, Exists):
        child = fresh.next()
        if c.role.inverted:
            out.append(RoleFact(c.role.name, child, node))
        else:
            out.append(RoleFact(c.role.name, node, child))
        _concept_atoms(c.filler, child, fresh, out)
        return
    raise QueryError(f"cannot translate {c!r}")


def concept_extension(d: Database, c: Concept) -> frozenset:
    """Constants of ``d`` in the extension of ``c`` (evaluated over ``d`` itself)."""
    if isinstance(c, Top):
        return d.dom
    if isinstance(c, Bot):
        return frozenset()
    if isinstance(c, Atomic):
        return d.index.concepts.get(c.name, _NONE)
    if isinstance(c, Conj):
        out = d.dom
        for p in c.parts:
            out = out & concept_extension(d, p)
        return out
    if isinstance(c, Exists):
        back = c.role.inverse()
        return frozenset(a for b in concept_extension(d, c.filler)
                         for a in d.successors(b, back))
    raise TypeError(f"not a concept: {c!r}")
