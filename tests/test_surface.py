import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from omqlab.model import Dialect, OmqlabError, Ontology, RoleInclusion, Role
from omqlab.surface import (
    ParseError,
    parse_database,
    parse_ontology,
    parse_query,
    parse_schema,
    serialize_answers,
    serialize_database,
    serialize_ontology,
    serialize_query,
)
from fixtures import D1, FIG2_TEXT, omega2
from gen import rand_dllite_ontology, rand_elhdr_ontology
from oracles import parse_answers, parse_ontology_by_cursor, parse_query_by_cursor


def test_parse_single_inclusion():
    o = parse_ontology("A2 <= A4")
    assert o.dialect == Dialect.EL
    assert len(o.axioms) == 1


def test_parse_nested_existential():
    o = parse_ontology("B <= exists r . (B1 & B2 & exists r . top)")
    (ax,) = o.axioms
    assert "exists r" in str(ax)
    assert o.dialect == Dialect.EL


def test_parse_functionality():
    o = parse_ontology("func r")
    assert o.dialect == Dialect.DLLITE_F_EQ


def test_parse_database_and_arity_conflict():
    d = parse_database("A1(a)\nr(b,a)")
    assert len(d.facts) == 2
    with pytest.raises(ParseError):
        parse_database("A(a)\nA(a,b)")


def test_prop4_database_roundtrips():
    assert parse_database(serialize_database(D1)) == D1


def test_parse_fig2_query():
    q = parse_query(FIG2_TEXT)
    assert len(q.disjuncts[0].atoms) == 8
    assert q.is_boolean()


def test_head_mismatch():
    with pytest.raises(ParseError):
        parse_query("q(x) :- A(x)\nq(y) :- A(y)")


def test_two_disjuncts():
    q = parse_query("q() :- A(x)\nq() :- B(x)")
    assert len(q.disjuncts) == 2


def test_unbound_head_variable():
    with pytest.raises(ParseError):
        parse_query("q(x) :- A(y)")


def test_ontology_roundtrip_omega2():
    back = parse_ontology(serialize_ontology(omega2))
    assert back.axioms == omega2.axioms


def test_role_inclusion_via_usage():
    o = parse_ontology("exists r . top <= A\nr <= s")
    kinds = sorted(type(a).__name__ for a in o.axioms)
    assert kinds == ["ConceptInclusion", "RoleInclusion"]


@pytest.mark.parametrize("text", [
    "disjoint-roles t, r\nr <= s", "range r <= A\nr <= s",
    "inv(t) <= r\nr <= s", "s <= r\nA <= exists inv(s) . top"])
def test_bare_inclusion_is_a_role_inclusion_after_any_role_position(text):
    o = parse_ontology(text)
    assert RoleInclusion(Role("r"), Role("s")) in o.axioms or \
        RoleInclusion(Role("s"), Role("r")) in o.axioms


def test_role_inclusion_explicit_inverse():
    o = parse_ontology("inv(r) <= s")
    (ax,) = o.axioms
    assert isinstance(ax, RoleInclusion) and ax.lhs == Role("r", True)


def test_answers_format():
    assert json.loads(serialize_answers(True, [()])) == {
        "consistent": True, "answers": [[]]}
    assert json.loads(serialize_answers(True, [])) == {
        "consistent": True, "answers": []}
    consistent, tuples = parse_answers(serialize_answers(False, [("b", "a")]))
    assert not consistent and tuples == [("b", "a")]


def test_schema_files():
    s = parse_schema("A1\nr\n# comment\n")
    assert not s.full and s.names == frozenset({"A1", "r"})
    assert parse_schema("full").full


@pytest.mark.parametrize("text", ["A\nfull", "full\nA"])
def test_full_schema_stands_alone(text):
    with pytest.raises(ParseError) as e:
        parse_schema(text)
    assert str(e.value) == "line 2, column 1: 'full' must be a schema's only line"


def test_parser_total_on_junk():
    for junk in ["<= <=", "A &", "exists . B", "q( :-", "\x00\x01", "disjoint-roles r"]:
        with pytest.raises(ParseError):
            parse_ontology(junk)


# grammar-directed fuzz round-trips

_names = st.sampled_from(["A", "B", "C1", "Top_x"])
_roles = st.sampled_from(["r", "s", "t2"])


def _concepts(depth):
    base = st.one_of(_names.map(lambda n: n),
                     st.just("top"))
    if depth == 0:
        return base
    sub = _concepts(depth - 1)
    return st.one_of(
        base,
        st.tuples(_roles, st.booleans(), sub).map(
            lambda t: f"exists {'inv(' + t[0] + ')' if t[1] else t[0]} . ({t[2]})"),
        st.lists(sub, min_size=2, max_size=3).map(lambda xs: " & ".join(f"({x})" for x in xs)),
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_concepts(2), _concepts(2)), min_size=1, max_size=4))
def test_ontology_fuzz_roundtrip(pairs):
    text = "\n".join(f"{l} <= {r}" for l, r in pairs)
    o = parse_ontology(text)
    assert parse_ontology(serialize_ontology(o)).axioms == o.axioms


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.one_of(
        st.tuples(_names, st.sampled_from("abcd")).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(_roles, st.sampled_from("abcd"), st.sampled_from("abcd")).map(
            lambda t: f"{t[0]}({t[1]},{t[2]})"),
    ),
    min_size=0, max_size=10))
def test_database_fuzz_roundtrip(lines):
    d = parse_database("\n".join(lines))
    assert parse_database(serialize_database(d)) == d


def test_query_roundtrip_random():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        atoms = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.4:
                atoms.append(f"A{rng.randint(1,3)}(x{rng.randrange(n)})")
            else:
                atoms.append(f"r{rng.randint(1,2)}(x{rng.randrange(n)},x{rng.randrange(n)})")
        text = "q() :- " + ", ".join(atoms)
        q = parse_query(text)
        assert parse_query(serialize_query(q)) == q


@pytest.mark.parametrize("text, message", [
    # unexpected character, after a comment line and a tab
    ("A <= B\nA <= B $ C", "line 2, column 8: unexpected character '$'"),
    ("A <= B  # comment\n\tC <= exists r . (B & ?)",
     "line 2, column 23: unexpected character '?'"),
    # unexpected end of line
    ("A <= exists r .",
     "line 1, column 16: expected a concept (expected top, bot, IDENT, exists, ()"),
    ("A <= (B & C", "line 1, column 12: unexpected end of line (expected ))"),
    # trailing input
    ("A <= B C", "line 1, column 8: trailing input 'C'"),
    ("func r s", "line 1, column 8: trailing input 's'"),
    # bad identifier
    ("A <= B & bad-name", "line 1, column 10: bad identifier 'bad-name'"),
    ("A <= exists bad-r . B", "line 1, column 13: bad identifier 'bad-r'"),
    # ... also on a bare inclusion between two names, read as concepts or,
    # with a name used as a role elsewhere, as roles
    ("A <= bad-name", "line 1, column 6: bad identifier 'bad-name'"),
    ("A <= exists r . top\nr <= bad-name",
     "line 2, column 6: bad identifier 'bad-name'"),
    # a bare inclusion between a role and a concept name
    ("exists r . top <= A\n  r <= A",
     "line 2, column 5: r <= A mixes role and concept names"),
])
def test_ontology_parse_error_positions(text, message):
    with pytest.raises(ParseError) as e:
        parse_ontology(text)
    assert str(e.value) == message


@pytest.mark.parametrize("text, message", [
    # unexpected character
    ("q(x) :- r(x,y) , B(y) %", "line 1, column 23: unexpected character '%'"),
    ("q(x) :- A(x) ;", "line 1, column 14: unexpected character ';'"),
    # unexpected end of line, also after CRLF and a tab
    ("q(x) :- r(x,", "line 1, column 13: unexpected end of line (expected ident)"),
    ("q(x) :- r(x,y)\r\nq(x) :- \tA(x), ",
     "line 2, column 16: unexpected end of line (expected ident)"),
    # trailing input: an atom where a comma belongs
    ("q(x) :- A(x) B(x)", "line 1, column 14: unexpected 'B' (expected ,)"),
    # bad identifier
    ("q(x) :- A(x)\n q() :- a-b(x)", "line 2, column 9: bad identifier 'a-b'"),
    ("q(x, y-z) :- r(x,y)", "line 1, column 6: bad identifier 'y-z'"),
    # one name as a concept and as a role
    ("q() :- r(x,y)\nq() :- A(x), r(x)",
     "line 2, column 14: r used with both arity 1 and 2"),
    # a comment after a rule: the end of line is the end of the comment
    ("q(x) :- A(x),  # more to come", "line 1, column 30: unexpected end of line (expected ident)"),
    ("q(x) :- A(y) # x is free", "line 1, column 1: answer variable x not bound in the body"),
    # a CRLF file: the carriage return ends the line, it is not its last column
    ("q(x) :- A(x)\r\nq(x) :- A(x) B(x)\r\n", "line 2, column 14: unexpected 'B' (expected ,)"),
    ("q(x) :- A(x)\r\n  q(y) :- A(y)\r\n", "line 2, column 3: rule heads disagree: ('x',) vs ('y',)"),
    # a bad character beats the grammar error on its own line, and an
    # earlier line's error beats both
    ("q(x) :- A(x) B(x) %", "line 1, column 19: unexpected character '%'"),
    ("q(x) :- A(x) B(x)\nq(x) :- A(x) %", "line 1, column 14: unexpected 'B' (expected ,)"),
    ("q(x) :- A(x)\nq(x) :- A(x) %\nq(x :- A(x)", "line 2, column 14: unexpected character '%'"),
])
def test_query_parse_error_positions(text, message):
    with pytest.raises(ParseError) as e:
        parse_query(text)
    assert str(e.value) == message


# strings near the rule grammar: valid rules with a few pieces inserted or
# deleted, and runs of grammar pieces
_rule_pieces = st.sampled_from([
    "q", "A", "r", "x", "y", "a-b", "top", "(", ")", ",", ":-", " ", "\t", "# c",
    "\r", "\n", "\r\n", "1", "$", "<=", ":", "-", "_", "&", ".", "\u00a0"])
_rule_vars = st.sampled_from(["x", "y", "z", "x_1", "_v"])
_rule_atoms = st.one_of(
    st.tuples(st.sampled_from(["A", "B", "r"]), _rule_vars).map(lambda t: f"{t[0]}({t[1]})"),
    st.tuples(st.sampled_from(["r", "s", "A"]), _rule_vars, _rule_vars).map(
        lambda t: f"{t[0]}( {t[1]} ,{t[2]})"))


@st.composite
def _near_rules(draw):
    rules = draw(st.lists(st.tuples(st.lists(_rule_vars, max_size=3),
                                    st.lists(_rule_atoms, min_size=1, max_size=4)),
                          min_size=1, max_size=3))
    text = "\n".join(f"q({','.join(h)}) :- {', '.join(b)}" for h, b in rules)
    for pos, piece, delete in draw(st.lists(
            st.tuples(st.integers(0, len(text)), _rule_pieces, st.booleans()), max_size=3)):
        text = text[:pos] + ("" if delete else piece) + text[pos + delete:]
    return text


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except OmqlabError as e:
        return f"{type(e).__name__}: {e}"


@settings(max_examples=400, deadline=None)
@given(st.one_of(_near_rules(), st.lists(_rule_pieces, max_size=20).map("".join)))
def test_parse_query_matches_the_cursor_parser(text):
    assert _parse_outcome(parse_query, text) == _parse_outcome(parse_query_by_cursor, text)


# strings near the axiom grammar: serialized random ontologies, with or
# without their dialect line, with a few pieces inserted or deleted, and
# runs of grammar pieces
_axiom_pieces = st.sampled_from([
    "A", "r", "x-y", "inv", "exists", "top", "bot", "func", "range", "disjoint-roles",
    "dialect", "DL-LiteR", "EL_bot", "(", ")", ".", "&", ",", ":", "<=", ":-", "-", "<",
    " ", "\t", "# c", "\r", "\n", "\r\n", "1", "$", "\u00a0"])


@st.composite
def _near_ontologies(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        o = rand_elhdr_ontology(rng, rng.randint(1, 6))
    else:
        o = rand_dllite_ontology(rng, rng.randint(1, 6), horn=rng.random() < 0.5)
    text = serialize_ontology(o)
    if draw(st.booleans()):
        text = text.partition("\n")[2]
    for pos, piece, delete in draw(st.lists(
            st.tuples(st.integers(0, len(text)), _axiom_pieces, st.booleans()), max_size=3)):
        text = text[:pos] + ("" if delete else piece) + text[pos + delete:]
    return text


@settings(max_examples=400, deadline=None)
@given(st.one_of(_near_ontologies(), st.lists(_axiom_pieces, max_size=20).map(" ".join)))
def test_parse_ontology_matches_the_cursor_parser(text):
    assert (_parse_outcome(parse_ontology, text)
            == _parse_outcome(parse_ontology_by_cursor, text))
