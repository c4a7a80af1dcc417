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

    def expect_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(tok.span, f"trailing input {tok.text!r}")


_KEYWORDS = {"top", "bot", "exists", "inv", "range", "func", "disjoint-roles", "dialect"}


def _name(tok: Token) -> str:
    """Plain identifier; hyphens are reserved for keywords and dialect names."""
    if "-" in tok.text:
        raise ParseError(tok.span, f"bad identifier {tok.text!r}")
    return tok.text


# ---------------------------------------------------------------------------
# Concept / role parsing


def _parse_role(cur: _Cursor, role_idents: set[str]) -> Role:
    tok = cur.next("ident")
    if tok.kind != "ident":
        raise ParseError(tok.span, f"expected role, got {tok.text!r}", ("IDENT", "inv("))
    if tok.text == "inv":
        cur.next("(")
        name = _name(cur.next("ident"))
        cur.next(")")
        role_idents.add(name)
        return Role(name, True)
    role_idents.add(_name(tok))
    return Role(tok.text)


def _parse_concept(cur: _Cursor, role_idents: set[str], concept_idents: set[str]) -> Concept:
    parts = [_parse_unary(cur, role_idents, concept_idents)]
    while (tok := cur.peek()) is not None and tok.text == "&":
        cur.next("&")
        parts.append(_parse_unary(cur, role_idents, concept_idents))
    return conj(*parts)


def _parse_unary(cur: _Cursor, role_idents: set[str], concept_idents: set[str]) -> Concept:
    tok = cur.peek()
    if tok is None:
        raise ParseError((cur.lineno, cur.line_len + 1), "expected a concept",
                         ("top", "bot", "IDENT", "exists", "("))
    if tok.text == "(":
        cur.next("(")
        c = _parse_concept(cur, role_idents, concept_idents)
        cur.next(")")
        return c
    if tok.text == "exists":
        cur.next("exists")
        role = _parse_role(cur, role_idents)
        cur.next(".")
        filler = _parse_unary(cur, role_idents, concept_idents)
        return Exists(role, filler)
    if tok.text == "top":
        cur.next("top")
        return TOP
    if tok.text == "bot":
        cur.next("bot")
        return BOT
    if tok.kind == "ident" and tok.text not in _KEYWORDS:
        cur.next("ident")
        concept_idents.add(_name(tok))
        return Atomic(tok.text)
    raise ParseError(tok.span, f"expected a concept, got {tok.text!r}",
                     ("top", "bot", "IDENT", "exists", "("))


# ---------------------------------------------------------------------------
# Ontologies


def parse_ontology(text: str) -> Ontology:
    """Parse a ``.dl`` ontology.  Raises :class:`ParseError` on bad input."""
    declared: Dialect | None = None
    # the identifiers the other lines use as roles and as concepts decide
    # the bare ``X <= Y`` lines, which are read last
    role_idents: set[str] = set()
    concept_idents: set[str] = set()
    ambiguous: list[tuple[int, str, list[Token]]] = []
    plain: list[tuple[int, str, list[Token]]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        tokens = _tokenize_line(line, lineno)
        if (len(tokens) == 3 and tokens[0].kind == "ident" and tokens[1].text == "<="
                and tokens[2].kind == "ident"
                and tokens[0].text not in _KEYWORDS and tokens[2].text not in _KEYWORDS):
            ambiguous.append((lineno, line, tokens))
        elif tokens:
            plain.append((lineno, line, tokens))

    axioms: list[Axiom] = []

    for lineno, line, tokens in plain:
        cur = _Cursor(tokens, lineno, len(line))
        head = cur.peek()
        assert head is not None
        if head.text == "dialect":
            cur.next("dialect")
            cur.next(":")
            name = cur.next("ident")
            cur.expect_end()
            try:
                declared = Dialect(name.text)
            except ValueError:
                raise ParseError(name.span, f"unknown dialect {name.text!r}",
                                 tuple(d.value for d in Dialect)) from None
            continue
        if head.text == "func":
            cur.next("func")
            role = cur.next("ident")
            cur.expect_end()
            role_idents.add(_name(role))
            axioms.append(Functionality(role.text))
            continue
        if head.text == "range":
            cur.next("range")
            role = cur.next("ident")
            role_idents.add(_name(role))
            cur.next("<=")
            filler = _parse_concept(cur, role_idents, concept_idents)
            cur.expect_end()
            axioms.append(RangeRestriction(role.text, filler))
            continue
        if head.text == "disjoint-roles":
            cur.next("disjoint-roles")
            roles = [_name(cur.next("ident"))]
            while not cur.at_end():
                cur.next(",")
                roles.append(_name(cur.next("ident")))
            if len(roles) < 2:
                raise ParseError(head.span, "disjoint-roles needs at least two roles")
            role_idents.update(roles)
            axioms.append(RoleDisjointness(tuple(roles)))
            continue
        texts = {t.text for t in tokens}
        # role inclusion with an explicit inv(...) on either side
        if {"<=", "inv"} <= texts and "exists" not in texts:
            lhs = _parse_role(cur, role_idents)
            cur.next("<=")
            rhs = _parse_role(cur, role_idents)
            cur.expect_end()
            axioms.append(RoleInclusion(lhs, rhs))
            continue
        lhs = _parse_concept(cur, role_idents, concept_idents)
        cur.next("<=")
        rhs = _parse_concept(cur, role_idents, concept_idents)
        cur.expect_end()
        axioms.append(ConceptInclusion(lhs, rhs))

    for lineno, line, tokens in ambiguous:
        a, b = _name(tokens[0]), _name(tokens[2])
        as_role = a in role_idents or b in role_idents
        as_concept = a in concept_idents or b in concept_idents
        if as_role and as_concept:
            raise ParseError(tokens[1].span, f"{a} <= {b} mixes role and concept names")
        if as_role:
            axioms.append(RoleInclusion(Role(a), Role(b)))
        else:
            axioms.append(ConceptInclusion(Atomic(a), Atomic(b)))

    if declared is None:
        return infer_ontology(axioms)
    return Ontology(axioms, declared)


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
