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

Each line is read in one scan.  An ontology line is one ``findall`` of
its token texts, parsed by recursive descent over those strings, which
raises its errors too: only an error scans the line again, for its
tokens' columns.  A rule line is matched by two patterns; a rule line
they reject goes to the token walk (``Token``, ``_Cursor``), which is
kept only to raise that line's error with its line and column.
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
# Tokenizer

# whitespace is skipped as each token's prefix; a comment runs to the end
# of the line, and ``bad`` catches any other character
_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
        (?P<comment>\#)
      | (?P<arrow><=|:-)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_-]*)
      | (?P<punct>[().,&:])
      | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)
# the same tokens, as one findall of a line's token texts without its
# comment; a bad character gives the empty string
_SCAN_RE = re.compile(r"(<=|:-|[A-Za-z_][A-Za-z0-9_-]*|[().,&:])|\S")


class Token:
    """A token of one line and its 1-based (line, column) position."""

    __slots__ = ("kind", "text", "span")

    def __init__(self, kind: str, text: str, span: tuple[int, int]):
        self.kind = kind
        self.text = text
        self.span = span


def _tokenize_line(line: str, lineno: int) -> list[Token]:
    out: list[Token] = []
    for m in _TOKEN_RE.finditer(line):
        kind = m.lastgroup
        if kind == "comment":
            break
        if kind == "bad":
            raise ParseError((lineno, m.start(kind) + 1),
                             f"unexpected character {m.group(kind)!r}")
        out.append(Token(kind, m.group(kind), (lineno, m.start(kind) + 1)))
    return out


class _Cursor:
    def __init__(self, tokens: list[Token], lineno: int, line_len: int):
        self.tokens = tokens
        self.i = 0
        self.lineno = lineno
        self.line_len = line_len

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self, *expected: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError((self.lineno, self.line_len + 1),
                             "unexpected end of line", expected)
        if expected and tok.text not in expected and tok.kind not in expected:
            raise ParseError(tok.span, f"unexpected {tok.text!r}", expected)
        self.i += 1
        return tok

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)


_KEYWORDS = {"top", "bot", "exists", "inv", "range", "func", "disjoint-roles", "dialect"}


def _name(tok: Token) -> str:
    """Plain identifier; hyphens are reserved for keywords and dialect names."""
    if "-" in tok.text:
        raise ParseError(tok.span, f"bad identifier {tok.text!r}")
    return tok.text


# ---------------------------------------------------------------------------
# Ontologies


_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_DIALECTS = frozenset(d.value for d in Dialect)
_CONCEPT_START = ("top", "bot", "IDENT", "exists", "(")


def parse_ontology(text: str) -> Ontology:
    """Parse a ``.dl`` ontology.  Raises :class:`ParseError` on bad input.

    A first pass scans every line, and a line with a bad character goes to
    the tokenizer, which raises its error before any other line's."""
    reader = _LineReader()
    declared: Dialect | None = None
    # the identifiers the other lines use as roles and as concepts decide
    # the bare ``X <= Y`` lines, which are read last
    ambiguous: list[tuple[int, str, list[str]]] = []
    plain: list[tuple[int, str, list[str]]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        ts = _SCAN_RE.findall(line.partition("#")[0])
        if "" in ts:  # a bad character
            _tokenize_line(line, lineno)
        if not ts:
            continue
        ts.append("")  # the end of the line
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
    """Recursive descent over the token texts ``ts`` of one ontology line,
    which end in ``""`` (the end of the line); each method takes the index
    it starts at and returns what it read and the index after it.  The
    reader collects the names used as roles and as concepts across lines,
    and raises each error at its token's column."""

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
        """Plain identifier; hyphens are reserved for keywords and dialect names."""
        t = self.ts[i]
        if "-" in t:
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
            if not _is_ident(ts[1]):
                self.unexpected(1, "ident")
            self.roles.add(self.name(1))
            if ts[2] != "<=":
                self.unexpected(2, "<=")
            filler, i = self.concept(3)
            self.end(i)
            return RangeRestriction(ts[1], filler)
        if head == "disjoint-roles":
            names, i = [], 1
            while True:
                if not _is_ident(ts[i]):
                    self.unexpected(i, "ident")
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
        ts = self.ts
        if not _is_ident(ts[i]):
            self.unexpected(i, "ident")
        if ts[i] != "inv":
            self.roles.add(self.name(i))
            return Role(ts[i]), i + 1
        if ts[i + 1] != "(":
            self.unexpected(i + 1, "(")
        if not _is_ident(ts[i + 2]):
            self.unexpected(i + 2, "ident")
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


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
# a rule line without its comment: the head, then one atom at a time, each
# followed by a comma or by the end of the line
_HEAD_RE = re.compile(rf"\s*({_IDENT})\s*\(\s*((?:{_IDENT}\s*(?:,\s*{_IDENT}\s*)*)?)\)\s*:-")
_ATOM_RE = re.compile(rf"\s*({_IDENT})\s*\(\s*({_IDENT})\s*(?:,\s*({_IDENT})\s*)?\)\s*(,?)")


def parse_query(text: str) -> UCQ:
    """Parse a ``.cq`` query.  A rule line that the patterns reject, or
    that fails a check, goes to ``_rule_error``, which raises its error."""
    heads: list[tuple] = []
    disjuncts: list[CQ] = []
    arity: dict[str, int] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        code = line.partition("#")[0]
        if code.isspace() or not code:
            continue
        col, avs, atoms = _match_rule(code, arity) or _rule_error(line, lineno, arity)
        heads.append(((lineno, col), avs))
        disjuncts.append(CQ(avs, atoms))
    if not disjuncts:
        raise ParseError((1, 1), "no query rules found")
    first = heads[0][1]
    for span, avs in heads[1:]:
        if avs != first:
            raise ParseError(span, f"rule heads disagree: {first} vs {avs}")
    return UCQ(disjuncts)


def _match_rule(code: str, arity: dict) -> tuple | None:
    """The head column, answer variables and atoms of one rule, or None
    when the rule is malformed or fails a check."""
    head = _HEAD_RE.match(code)
    if head is None:
        return None
    avs = tuple(head[2].replace(",", " ").split())
    atoms: list[Fact] = []
    terms: set[str] = set()
    pos, comma = head.end(), ","
    while comma:
        m = _ATOM_RE.match(code, pos)
        if m is None:
            return None
        name, a, b, comma = m.groups()
        n = 1 if b is None else 2
        if arity.setdefault(name, n) != n:
            return None
        atoms.append(ConceptFact(name, a) if b is None else RoleFact(name, a, b))
        terms.update((a, b))
        pos = m.end()
    if pos != len(code) or len(set(avs)) != len(avs) or not terms.issuperset(avs):
        return None
    return head.start(1) + 1, avs, atoms


def _rule_error(line: str, lineno: int, arity: dict) -> NoReturn:
    """Raise the error of a rule line that ``_match_rule`` rejected, by
    walking its tokens in reading order.  ``arity`` may already hold the
    line's atoms before the one that failed; they agree with the walk."""
    cur = _Cursor(_tokenize_line(line, lineno), lineno, len(line))
    head = cur.next("ident")
    _name(head)
    avs: list[str] = []
    cur.next("(")
    if (tok := cur.peek()) is not None and tok.text != ")":
        avs.append(_name(cur.next("ident")))
        while (tok := cur.peek()) is not None and tok.text == ",":
            cur.next(",")
            avs.append(_name(cur.next("ident")))
    cur.next(")")
    cur.next(":-")
    if len(set(avs)) != len(avs):
        raise ParseError(head.span, f"repeated answer variable in {tuple(avs)}")
    terms = set()
    while True:
        name = cur.next("ident")
        _name(name)
        cur.next("(")
        terms.add(_name(cur.next("ident")))
        n = 1
        if (tok := cur.peek()) is not None and tok.text == ",":
            cur.next(",")
            terms.add(_name(cur.next("ident")))
            n = 2
        cur.next(")")
        if arity.setdefault(name.text, n) != n:
            raise ParseError(name.span, f"{name.text} used with both arity 1 and 2")
        if cur.at_end():
            break
        cur.next(",")
    for x in avs:
        if x not in terms:
            raise ParseError(head.span, f"answer variable {x} not bound in the body")
    raise AssertionError(f"line {lineno} is a well-formed rule")


def serialize_query(q: UCQ) -> str:
    lines = []
    for d in q.disjuncts:
        body = ", ".join(str(a) for a in d.sorted_atoms())
        if not body:
            body = ""
        lines.append(f"q({','.join(d.answer_vars)}) :- {body}".rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Schemas and answers


def parse_schema(text: str) -> Schema:
    names = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "full":
            return Schema.full_schema()
        if not re.match(r"^[A-Za-z_][A-Za-z0-9_]*$", line):
            raise ParseError((lineno, 1), f"bad schema name {line!r}")
        names.append(line)
    return Schema.of(names)


def serialize_answers(consistent: bool, answers) -> str:
    """JSON answer format; answer tuples are sorted lexicographically."""
    tuples = sorted([list(t) for t in answers])
    return json.dumps({"consistent": bool(consistent), "answers": tuples})
