"""Text formats: `.dl` ontologies, `.db` databases, `.cq` queries,
`.schema` name lists, and the JSON answer format.

Grammar (identifiers ``[A-Za-z_][A-Za-z0-9_]*``, comments ``#`` to end of
line, UTF-8, LF or CRLF):

    concept  :=  "top" | "bot" | IDENT | concept "&" concept
               | "exists" role "." concept | "(" concept ")"
    role     :=  IDENT | "inv(" IDENT ")"
    axiom    :=  concept "<=" concept | role "<=" role
               | "range" IDENT "<=" concept
               | "disjoint-roles" IDENT ("," IDENT)+
               | "func" IDENT
    rule     :=  IDENT "(" vars? ")" ":-" atom ("," atom)*

``exists`` binds tighter than ``&``.  A bare ``X <= Y`` line is read as a
role inclusion when either side occurs in a role position elsewhere in
the file, and as a concept inclusion otherwise.

Every ``.dl`` and ``.cq`` line is read the same way: one ``_SCAN_RE``
``findall`` of its token texts, read by one recursive descent
(``_LineReader``), which raises the line's errors too, each at the column
of the token it names.  Only an error scans its line again, for the
columns.
"""

from __future__ import annotations

import json
import re
from typing import NoReturn

from .model import (
    sorted_facts,
    Atomic,
    Axiom,
    BOT,
    CQ,
    ConceptFact,
    ConceptInclusion,
    Concept,
    Database,
    Dialect,
    Exists,
    Fact,
    Functionality,
    OmqlabError,
    Ontology,
    RangeRestriction,
    Role,
    RoleDisjointness,
    RoleFact,
    RoleInclusion,
    Schema,
    TOP,
    UCQ,
    conj,
    infer_ontology,
)


class ParseError(OmqlabError):
    exit_code = 2
    prefix = "parse error"

    def __init__(self, span: tuple[int, int], message: str, expected: tuple = ()):
        loc = "line {}, column {}".format(*span)
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{loc}: {message}{hint}")


# ---------------------------------------------------------------------------
# Tokens

# a line's token texts without its comment, as one findall; a bad
# character gives the empty string
_SCAN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_-]*|[().,&]|:-?|<=)|\S")
_KEYWORDS = {"top", "bot", "exists", "inv", "range", "func", "disjoint-roles", "dialect"}


def _scan(lineno: int, line: str) -> list[str]:
    """The token texts of ``line`` before its comment, then ``""`` (the end
    of the line).  A bad character raises its error at its column."""
    code = line.partition("#")[0]
    ts = _SCAN_RE.findall(code)
    if "" in ts:
        bad = next(m for m in _SCAN_RE.finditer(code) if not m[1])
        raise ParseError((lineno, bad.start() + 1), f"unexpected character {bad[0]!r}")
    ts.append("")
    return ts


# ---------------------------------------------------------------------------
# Ontologies


_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_DIALECTS = frozenset(d.value for d in Dialect)
_CONCEPT_START = ("top", "bot", "IDENT", "exists", "(")


def parse_ontology(text: str) -> Ontology:
    """Parse a ``.dl`` ontology.  Raises :class:`ParseError` on bad input.

    A first pass scans every line, so a bad character raises its error
    before any other line's."""
    reader = _LineReader()
    declared: Dialect | None = None
    # the identifiers the other lines use as roles and as concepts decide
    # the bare ``X <= Y`` lines, which are read last
    ambiguous: list[tuple[int, str, list[str]]] = []
    plain: list[tuple[int, str, list[str]]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        ts = _scan(lineno, line)
        if not ts[0]:
            continue
        if (len(ts) == 4 and ts[1] == "<=" and _is_ident(ts[0]) and _is_ident(ts[2])
                and ts[0] not in _KEYWORDS and ts[2] not in _KEYWORDS):
            ambiguous.append((lineno, line, ts))
        else:
            plain.append((lineno, line, ts))

    axioms: list[Axiom] = []
    for lineno, line, ts in plain:
        ax = reader.start(lineno, line, ts).axiom()
        if isinstance(ax, Dialect):
            declared = ax
        else:
            axioms.append(ax)

    for lineno, line, ts in ambiguous:
        a, b = reader.start(lineno, line, ts).name(0), reader.name(2)
        as_role = a in reader.roles or b in reader.roles
        as_concept = a in reader.concepts or b in reader.concepts
        if as_role and as_concept:
            reader.fail(1, f"{a} <= {b} mixes role and concept names")
        if as_role:
            axioms.append(RoleInclusion(Role(a), Role(b)))
        else:
            axioms.append(ConceptInclusion(Atomic(a), Atomic(b)))

    if declared is None:
        return infer_ontology(axioms)
    return Ontology(axioms, declared)


def _is_ident(t: str) -> bool:
    """Is the token text ``t`` an identifier (``""``, the end, is not)?"""
    return t[:1] in _NAME_START


class _LineReader:
    """Recursive descent over the token texts ``ts`` of one ``.dl`` or
    ``.cq`` line, which end in ``""`` (the end of the line); each ontology
    method takes the index it starts at and returns what it read and the
    index after it.  The reader collects the names an ontology uses as
    roles and as concepts across lines, and raises each error at its
    token's column."""

    def __init__(self):
        self.roles: set[str] = set()
        self.concepts: set[str] = set()

    def start(self, lineno: int, line: str, ts: list[str]) -> _LineReader:
        self.lineno, self.line, self.ts = lineno, line, ts
        return self

    def fail(self, i: int, message: str, expected: tuple = ()) -> NoReturn:
        # the columns only an error needs: a second scan of the line
        cols = [m.start(1) + 1 for m in _SCAN_RE.finditer(self.line.partition("#")[0])]
        cols.append(len(self.line) + 1)
        raise ParseError((self.lineno, cols[i]), message, expected)

    def unexpected(self, i: int, *expected: str) -> NoReturn:
        t = self.ts[i]
        self.fail(i, f"unexpected {t!r}" if t else "unexpected end of line", expected)

    def end(self, i: int) -> None:
        if self.ts[i]:
            self.fail(i, f"trailing input {self.ts[i]!r}")

    def name(self, i: int) -> str:
        """The plain identifier at ``i``; hyphens are reserved for keywords
        and dialect names."""
        t = self.ts[i]
        # of the scan's tokens, exactly the identifiers without a hyphen
        if not t.isidentifier():
            if not _is_ident(t):
                self.unexpected(i, "ident")
            self.fail(i, f"bad identifier {t!r}")
        return t

    def axiom(self) -> Axiom | Dialect:
        """The line's axiom, or the dialect it declares."""
        ts = self.ts
        head = ts[0]
        if head == "dialect":
            if ts[1] != ":":
                self.unexpected(1, ":")
            if not _is_ident(ts[2]):
                self.unexpected(2, "ident")
            self.end(3)
            if ts[2] not in _DIALECTS:
                self.fail(2, f"unknown dialect {ts[2]!r}", tuple(d.value for d in Dialect))
            return Dialect(ts[2])
        if head == "func":
            if not _is_ident(ts[1]):
                self.unexpected(1, "ident")
            self.end(2)
            self.roles.add(self.name(1))
            return Functionality(ts[1])
        if head == "range":
            self.roles.add(self.name(1))
            if ts[2] != "<=":
                self.unexpected(2, "<=")
            filler, i = self.concept(3)
            self.end(i)
            return RangeRestriction(ts[1], filler)
        if head == "disjoint-roles":
            names, i = [], 1
            while True:
                names.append(self.name(i))
                if not ts[i + 1]:
                    break
                if ts[i + 1] != ",":
                    self.unexpected(i + 1, ",")
                i += 2
            if len(names) < 2:
                self.fail(0, "disjoint-roles needs at least two roles")
            self.roles.update(names)
            return RoleDisjointness(tuple(names))
        # a role inclusion has an explicit inv(...) on either side
        of_roles = "<=" in ts and "inv" in ts and "exists" not in ts
        part = self.role if of_roles else self.concept
        lhs, i = part(0)
        if ts[i] != "<=":
            self.unexpected(i, "<=")
        rhs, i = part(i + 1)
        self.end(i)
        return RoleInclusion(lhs, rhs) if of_roles else ConceptInclusion(lhs, rhs)

    def role(self, i: int) -> tuple[Role, int]:
        name = self.name(i)
        if name != "inv":
            self.roles.add(name)
            return Role(name), i + 1
        ts = self.ts
        if ts[i + 1] != "(":
            self.unexpected(i + 1, "(")
        name = self.name(i + 2)
        if ts[i + 3] != ")":
            self.unexpected(i + 3, ")")
        self.roles.add(name)
        return Role(name, True), i + 4

    def concept(self, i: int) -> tuple[Concept, int]:
        c, i = self.unary(i)
        if self.ts[i] != "&":
            return c, i
        parts = [c]
        while self.ts[i] == "&":
            c, i = self.unary(i + 1)
            parts.append(c)
        return conj(*parts), i

    def unary(self, i: int) -> tuple[Concept, int]:
        ts = self.ts
        t = ts[i]
        if t == "(":
            c, i = self.concept(i + 1)
            if ts[i] != ")":
                self.unexpected(i, ")")
            return c, i + 1
        if t == "exists":
            role, i = self.role(i + 1)
            if ts[i] != ".":
                self.unexpected(i, ".")
            filler, i = self.unary(i + 1)
            return Exists(role, filler), i
        if t == "top":
            return TOP, i + 1
        if t == "bot":
            return BOT, i + 1
        if _is_ident(t) and t not in _KEYWORDS:
            self.concepts.add(self.name(i))
            return Atomic(t), i + 1
        self.fail(i, f"expected a concept, got {t!r}" if t else "expected a concept",
                  _CONCEPT_START)

    def rule(self, arity: dict[str, int]) -> CQ:
        """The line's rule.  ``arity`` holds the arity of each atom name
        read so far, across the rules."""
        ts, name = self.ts, self.name
        name(0)
        if ts[1] != "(":
            self.unexpected(1, "(")
        avs: list[str] = []
        i = 2
        if ts[2] and ts[2] != ")":
            avs.append(name(2))
            i = 3
            while ts[i] == ",":
                avs.append(name(i + 1))
                i += 2
        if ts[i] != ")":
            self.unexpected(i, ")")
        if ts[i + 1] != ":-":
            self.unexpected(i + 1, ":-")
        if len(set(avs)) != len(avs):
            self.fail(0, f"repeated answer variable in {tuple(avs)}")
        atoms: list[Fact] = []
        i += 2
        while True:
            at, pred = i, name(i)
            if ts[i + 1] != "(":
                self.unexpected(i + 1, "(")
            a = name(i + 2)
            if ts[i + 3] == ",":
                b = name(i + 4)
                atom, n, i = RoleFact(pred, a, b), 2, i + 5
            else:
                atom, n, i = ConceptFact(pred, a), 1, i + 3
            if ts[i] != ")":
                self.unexpected(i, ")")
            if arity.setdefault(pred, n) != n:
                self.fail(at, f"{pred} used with both arity 1 and 2")
            atoms.append(atom)
            if not ts[i + 1]:
                break
            if ts[i + 1] != ",":
                self.unexpected(i + 1, ",")
            i += 2
        for x in avs:
            if all(x not in atom.terms() for atom in atoms):
                self.fail(0, f"answer variable {x} not bound in the body")
        return CQ(avs, atoms)


def serialize_ontology(o: Ontology) -> str:
    lines = [f"dialect: {o.dialect.value}"]
    lines += [str(a) for a in o.sorted_axioms()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Databases


_FACT_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(\s*([A-Za-z0-9_]+)\s*(?:,\s*([A-Za-z0-9_]+)\s*)?\)\s*$")


def parse_database(text: str) -> Database:
    facts: list[Fact] = []
    arity: dict[str, int] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _FACT_RE.match(line)
        if not m:
            raise ParseError((lineno, 1),
                             f"malformed fact {line!r}", ("Name(c)", "Name(c,d)"))
        name, a, b = m.group(1), m.group(2), m.group(3)
        n = 1 if b is None else 2
        if arity.setdefault(name, n) != n:
            raise ParseError((lineno, 1),
                             f"{name} used with both arity 1 and 2")
        facts.append(ConceptFact(name, a) if b is None else RoleFact(name, a, b))
    return Database(facts)


def serialize_database(d: Database) -> str:
    return "\n".join(str(f) for f in sorted_facts(d.facts)) + ("\n" if d.facts else "")


# ---------------------------------------------------------------------------
# Queries


def parse_query(text: str) -> UCQ:
    """Parse a ``.cq`` query.  Raises :class:`ParseError` on bad input."""
    reader = _LineReader()
    lines: list[tuple[int, str, list[str]]] = []
    disjuncts: list[CQ] = []
    arity: dict[str, int] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        ts = _scan(lineno, line)
        if ts[0]:
            disjuncts.append(reader.start(lineno, line, ts).rule(arity))
            lines.append((lineno, line, ts))
    if not disjuncts:
        raise ParseError((1, 1), "no query rules found")
    first = disjuncts[0].answer_vars
    for (lineno, line, ts), d in zip(lines, disjuncts):
        if d.answer_vars != first:
            reader.start(lineno, line, ts).fail(
                0, f"rule heads disagree: {first} vs {d.answer_vars}")
    return UCQ(disjuncts)


def serialize_query(q: UCQ) -> str:
    lines = []
    for d in q.disjuncts:
        body = ", ".join(str(a) for a in d.sorted_atoms())
        lines.append(f"q({','.join(d.answer_vars)}) :- {body}".rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Schemas and answers


def parse_schema(text: str) -> Schema:
    """One name per line, or the single word ``full``."""
    names = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if names and "full" in (line, names[0]):
            raise ParseError((lineno, 1), "'full' must be a schema's only line")
        if not re.match(r"^[A-Za-z_][A-Za-z0-9_]*$", line):
            raise ParseError((lineno, 1), f"bad schema name {line!r}")
        names.append(line)
    return Schema.full_schema() if names == ["full"] else Schema.of(names)


def serialize_answers(consistent: bool, answers) -> str:
    """JSON answer format; answer tuples are sorted lexicographically."""
    tuples = sorted([list(t) for t in answers])
    return json.dumps({"consistent": bool(consistent), "answers": tuples})
