import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import omqlab
from omqlab import graphalg
from omqlab.cli import _COMMANDS, _read_direct, build_parser, main
from omqlab.homtools import canonical_form
from omqlab.surface import parse_query
from fixtures import FIG2_TEXT, Q1
from oracles import equivalent_full_schema, full_ucq_k_approximation


@pytest.fixture()
def files(tmp_path):
    (tmp_path / "ex1.dl").write_text("A2 <= A4\n")
    (tmp_path / "fig2.cq").write_text(FIG2_TEXT + "\n")
    (tmp_path / "d.db").write_text("A1(a)\nA2(b)\nA3(c)\nr(b,a)\nr(b,c)\n")
    (tmp_path / "unary.cq").write_text("q(x) :- A2(x)\n")
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_treewidth_command(files, capsys):
    code, out, _ = run(capsys, "treewidth", "--query", str(files / "fig2.cq"))
    assert code == 0
    assert out.splitlines() == ["disjunct 1: 2", "max: 2"]


def test_eval_json(files, capsys):
    code, out, _ = run(capsys, "eval", "--onto", str(files / "ex1.dl"),
                       "--query", str(files / "fig2.cq"),
                       "--db", str(files / "d.db"), "--algo", "fpt", "-k", "2",
                       "--json")
    assert code == 0
    assert json.loads(out) == {"consistent": True, "answers": [[]]}


def test_eval_unary_text(files, capsys):
    code, out, _ = run(capsys, "eval", "--onto", str(files / "ex1.dl"),
                       "--query", str(files / "unary.cq"),
                       "--db", str(files / "d.db"))
    assert code == 0
    assert out.strip() == "b"


def test_eval_pebble(files, capsys):
    code, out, _ = run(capsys, "eval", "--onto", str(files / "ex1.dl"),
                       "--query", str(files / "fig2.cq"),
                       "--db", str(files / "d.db"), "--algo", "pebble", "-k", "1",
                       "--json")
    assert code == 0
    assert json.loads(out)["answers"] == [[]]


def test_tw_equiv_writes_witness(files, capsys):
    code, out, _ = run(capsys, "tw-equiv", "--onto", str(files / "ex1.dl"),
                       "--query", str(files / "fig2.cq"), "-k", "1",
                       "--schema", "full", "--out", str(files / "w"))
    assert code == 0
    assert out.strip() == "YES"
    assert (files / "w.cq").exists() and (files / "w.dl").exists()


def test_dlf_equiv1_writes_witness(files, capsys):
    (files / "f.dl").write_text("func r\n")
    (files / "q.cq").write_text("q() :- r(x,y), A(y)\n")
    args = ("dlf-equiv1", "--onto", str(files / "f.dl"), "--query", str(files / "q.cq"))
    code, out, err = run(capsys, *args, "--out", str(files / "w"))
    assert (code, out) == (0, "YES\n")
    assert err == f"witness written to {files / 'w'}.cq / {files / 'w'}.dl\n"
    assert (files / "w.cq").read_text() == "q() :- A(y), r(x,y)\n"
    assert (files / "w.dl").read_text() == "dialect: DL-LiteF-eq\nfunc r\n"
    assert run(capsys, *args, "--json", "--out", str(files / "v"))[1] == \
        run(capsys, *args, "--json")[1]


def test_tw_equiv_no(files, capsys):
    code, out, _ = run(capsys, "tw-equiv", "--query", str(files / "fig2.cq"),
                       "-k", "1")
    assert code == 0
    assert out.strip() == "NO"


def test_tw_equiv_unknown_exit_code(files, capsys):
    (files / "s.schema").write_text("A2\nA3\nA4\nB1\nB2\nr\n")
    (files / "om2.dl").write_text(
        "B1 <= A1\nB2 <= A1\nexists r . B1 <= A4\nB2 <= A3\n")
    argv = ["tw-equiv", "--onto", str(files / "om2.dl"), "--query", str(files / "fig2.cq"),
            "-k", "1", "--schema", str(files / "s.schema"), "--budget", "4"]
    code, out, _ = run(capsys, *argv)
    assert code == 4
    assert out.strip() == "UNKNOWN"
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 4
    assert out == ('{"note": "no separating database within 4 constants", '
                   '"outcome": "unknown"}\n')


def test_tw_equiv_is_exact_under_any_schema_when_no_disjunct_is_wider(files, capsys):
    # the query has width 1, so it is its own approximation: "yes" needs no
    # separating-database search, full schema or not
    (files / "o.dl").write_text("A1 <= exists r . B1\n")
    (files / "w.cq").write_text("q(x) :- r(x,y), B1(y)\n")
    (files / "s.schema").write_text("A1\nr\nB1\n")
    outs = []
    for schema in (str(files / "s.schema"), "full"):
        code, out, _ = run(capsys, "tw-equiv", "--onto", str(files / "o.dl"),
                           "--query", str(files / "w.cq"), "-k", "1",
                           "--schema", schema, "--json")
        assert code == 0, out
        outs.append(json.loads(out))
    assert outs[0] == outs[1] == {"outcome": "yes",
                                  "witness": "q(x) :- B1(y), r(x,y)\n"}


def test_fpt_refuses_a_wide_disjunct_even_when_it_is_dead(files, capsys):
    # the width check runs on every disjunct before any is skipped: D and s
    # occur nowhere in the universal model, yet the triangle of quantified
    # variables still exits 3
    (files / "dead.cq").write_text(
        "q(x) :- A2(x)\nq(x) :- s(x,y), s(y,z), s(z,w), s(w,y), D(y)\n")
    argv = ["eval", "--onto", str(files / "ex1.dl"), "--query", str(files / "dead.cq"),
            "--db", str(files / "d.db")]
    code, out, err = run(capsys, *argv, "--algo", "fpt", "-k", "1")
    assert code == 3
    assert out == "" and "disjunct has tree width 2 > 1" in err
    for algo in ("naive", "pebble"):
        code, out, _ = run(capsys, *argv, "--algo", algo)
        assert code == 0 and out.strip() == "b", algo


def test_tw_equiv_rejects_functional_roles(files, capsys):
    # disjunct databases that violate func r must not count as inconsistent:
    # the width-1 approximation misses A(b) r(a,b) r(b,c) r(c,d) s(c,a)
    (files / "func.dl").write_text("func r\n")
    (files / "cyc.cq").write_text(
        "q() :- A(x1), r(x0,x1), r(x1,x2), r(x1,x3), r(x2,x4), s(x2,x0)\n")
    code, out, err = run(capsys, "tw-equiv", "--onto", str(files / "func.dl"),
                         "--query", str(files / "cyc.cq"), "-k", "1")
    assert code == 3
    assert out == "" and "dlf-equiv1" in err
    code, out, _ = run(capsys, "dlf-equiv1", "--onto", str(files / "func.dl"),
                       "--query", str(files / "cyc.cq"))
    assert code == 0
    assert out.strip() == "NO"


def test_contain_cap_is_not_a_verdict(files, capsys, monkeypatch):
    # a cap hit while evaluating Q1 must not read as "not separating"
    import omqlab.treelike
    from omqlab.graphalg import CapExceeded

    def capped(Q, d):
        raise CapExceeded("cap hit")

    monkeypatch.setattr(omqlab.treelike, "evaluate_naive", capped)
    (files / "s.schema").write_text("A2\nr\n")
    # A2(x) is not contained in B(x) over the full schema, so the
    # separating-database search runs
    (files / "b.cq").write_text("q(x) :- B(x)\n")
    code, out, err = run(capsys, "contain", "--query", str(files / "unary.cq"),
                         "--query2", str(files / "b.cq"),
                         "--schema", str(files / "s.schema"))
    assert code == 5
    assert out == "" and "cap exceeded" in err


def test_parse_error_exit_code(files, capsys):
    (files / "bad.dl").write_text("A( <=\n")
    code, _, err = run(capsys, "eval", "--onto", str(files / "bad.dl"),
                       "--query", str(files / "fig2.cq"),
                       "--db", str(files / "d.db"))
    assert code == 2
    assert "parse error" in err


def test_dialect_error_exit_code(files, capsys):
    (files / "inv.dl").write_text("A <= exists inv(r) . B\n")
    code, _, err = run(capsys, "eval", "--onto", str(files / "inv.dl"),
                       "--query", str(files / "fig2.cq"),
                       "--db", str(files / "d.db"), "--algo", "pebble", "-k", "1")
    assert code == 3


@pytest.mark.parametrize("onto, schema, db", [
    # inconsistent data: the dialect is rejected before consistency is asked
    ("A <= exists inv(r) . B\nB <= bot\n", None, "A(a)\nr(a,b)\n"),
    # inconsistent data under a non-full schema
    ("A <= bot\n", "A\nr\n", "A(a)\nr(a,b)\n"),
    # data outside the schema
    ("A <= bot\n", "A\nr\n", "A(a)\nC(b)\n"),
], ids=["eli-inconsistent", "schema-inconsistent", "outside-schema"])
def test_pebble_input_checks_precede_the_data(files, capsys, onto, schema, db):
    (files / "o.dl").write_text(onto)
    (files / "x.db").write_text(db)
    argv = ["eval", "--onto", str(files / "o.dl"), "--query", str(files / "unary.cq"),
            "--db", str(files / "x.db"), "--algo", "pebble"]
    if schema is not None:
        (files / "x.schema").write_text(schema)
        argv += ["--schema", str(files / "x.schema")]
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert out == ""


def test_input_errors_exit_3(files, capsys):
    (files / "b.cq").write_text("q() :- r(x,y), B(y)\n")
    onto, query = ["--onto", str(files / "ex1.dl")], ["--query", str(files / "b.cq")]
    code, out, err = run(capsys, "dlf-rew", *onto, *query)
    assert (code, out, err) == (3, "", "error: rew expects a DL-LiteF ontology\n")
    code, out, err = run(capsys, "dlf-equiv1", *onto, *query)
    assert (code, out) == (3, "") and "expects DL-LiteF, got EL" in err
    code, out, err = run(capsys, "eval", *onto, *query, "--db", str(files / "d.db"),
                         "--algo", "pebble", "-k", "-3")
    assert (code, out) == (3, "") and "k >= 1" in err


@pytest.mark.parametrize("argv, out, err", [
    (["treewidth", "--query", "{d}/missing.cq"], "",
     "cannot read {d}/missing.cq"),
    (["eval", "--query", "{d}/unary.cq", "--db", "{d}/missing.db"], "",
     "cannot read {d}/missing.db"),
    (["tw-equiv", "--onto", "{d}/ex1.dl", "--query", "{d}/fig2.cq", "-k", "1",
      "--out", "{d}/nodir/w"], "YES\n", "cannot write {d}/nodir/w.cq"),
    (["chase", "--onto", "{d}/ex1.dl", "--db", "{d}/d.db", "--provenance",
      "{d}/nodir/p.json"], None, "cannot write {d}/nodir/p.json"),
], ids=["query", "db", "out", "provenance"])
def test_file_errors_exit_3(files, capsys, argv, out, err):
    # an unreadable input or unwritable output is one line on stderr, not a
    # traceback; what was printed before the write stays on stdout
    code, got_out, got_err = run(capsys, *(a.format(d=files) for a in argv))
    assert code == 3
    assert got_err == f"error: {err.format(d=files)}: No such file or directory\n"
    assert out is None or got_out == out


@pytest.mark.parametrize("algo, k", [("pebble", "-1"), ("pebble", "0"), ("fpt", "-3")])
def test_eval_rejects_width_below_1(files, capsys, algo, k):
    (files / "tri.cq").write_text("q() :- r(x,y), r(y,z), r(z,x)\n")
    code, out, err = run(capsys, "eval", "--onto", str(files / "ex1.dl"),
                         "--query", str(files / "tri.cq"), "--db", str(files / "d.db"),
                         "--algo", algo, "-k", k)
    assert (code, out) == (3, "")
    assert f"got {k}\n" in err


@pytest.fixture()
def taken_names(tmp_path):
    # a database that already uses the names the chase would make up
    (tmp_path / "o.dl").write_text("A <= exists r . B\n")
    (tmp_path / "d.db").write_text("A(a)\nC(_n0)\n")
    (tmp_path / "b.cq").write_text("q(x) :- B(x)\n")
    (tmp_path / "rc.cq").write_text("q() :- r(x,y), C(y)\n")
    return tmp_path


@pytest.mark.parametrize("algo", ["naive", "fpt", "pebble"])
@pytest.mark.parametrize("query, expected", [("b.cq", "\n"), ("rc.cq", "false\n")])
def test_eval_fresh_elements_skip_the_data_constants(taken_names, capsys, algo,
                                                     query, expected):
    # the element r-reachable from a is anonymous: it neither answers B nor
    # carries the database's C(_n0)
    code, out, _ = run(capsys, "eval", "--onto", str(taken_names / "o.dl"),
                       "--query", str(taken_names / query),
                       "--db", str(taken_names / "d.db"), "--algo", algo)
    assert (code, out) == (0, expected)


def test_chase_fresh_elements_skip_the_data_constants(taken_names, capsys):
    code, out, _ = run(capsys, "chase", "--onto", str(taken_names / "o.dl"),
                       "--db", str(taken_names / "d.db"), "--depth", "1", "--json")
    assert code == 0
    got = json.loads(out)
    assert got["facts"] == ["A(a)", "B(_n1)", "C(_n0)", "r(a,_n1)"]
    assert got["provenance"]["_n0"] == {"depth": 0, "kind": "original"}
    assert got["provenance"]["_n1"]["kind"] == "anonymous"


def test_tw_equiv_past_the_contraction_walk_cap_exits_5(files, capsys, monkeypatch):
    # the Boolean 2 x 3 grid has tree width 2, so -k 1 walks its contractions
    from omqlab import treelike
    monkeypatch.setattr(treelike, "CONTRACTION_WALK_CAP", 10)
    (files / "grid.cq").write_text(
        "q() :- r(x0,x1), r(x1,x2), r(y0,y1), r(y1,y2), s(x0,y0), s(x1,y1), s(x2,y2)\n")
    code, out, err = run(capsys, "tw-equiv", "--query", str(files / "grid.cq"), "-k", "1")
    assert (code, out) == (5, "")
    assert err == "cap exceeded: contraction walk limited to 10 partitions\n"


def test_unravel_copies_skip_the_data_constants(files, capsys):
    (files / "u.db").write_text("r(_u0,b)\nA(b)\n")
    code, out, _ = run(capsys, "unravel", "--db", str(files / "u.db"), "-k", "1",
                       "--depth", "0", "--tuple", "_u0")
    assert code == 0
    assert out.splitlines() == ["A(_u1)", "r(_u0,_u1)"]


def test_unravel_past_the_node_cap_exits_5(files, capsys, monkeypatch):
    monkeypatch.setattr(graphalg, "UNRAVEL_NODE_CAP", 100)
    (files / "tri.db").write_text("r(a,b)\nr(b,c)\nr(c,a)\n")
    code, out, err = run(capsys, "unravel", "--db", str(files / "tri.db"), "-k", "1",
                         "--depth", "4")
    assert (code, out) == (5, "")
    assert err == "cap exceeded: unraveling limited to 100 nodes\n"


@pytest.mark.parametrize("algo", ["naive", "fpt", "pebble"])
def test_eval_wide_but_shallow_query(files, capsys, algo):
    # thirty quantified variables in no binary atom: width 1, and more
    # vertices than the exact treewidth search takes
    atoms = ", ".join(f"A(x{i})" for i in range(30))
    (files / "wide.cq").write_text(f"q() :- {atoms}\n")
    (files / "a.db").write_text("A(a)\n")
    code, out, err = run(capsys, "eval", "--query", str(files / "wide.cq"),
                         "--db", str(files / "a.db"), "--algo", algo)
    assert (code, out, err) == (0, "true\n", "")


@pytest.mark.parametrize("command", ["tw-equiv", "approx"])
@pytest.mark.parametrize("k", ["0", "-2"])
def test_width_k_approximation_rejects_width_below_1(files, capsys, command, k):
    (files / "a.cq").write_text("q() :- A(x)\n")
    code, out, err = run(capsys, command, "--query", str(files / "a.cq"), "-k", k,
                         *(["--json"] if command == "tw-equiv" else []))
    assert (code, out) == (3, "")
    assert err == f"error: the width-k approximation needs k >= 1, got {k}\n"


@pytest.mark.parametrize("argv, err", [
    (["unravel", "--db", "{d}/d.db", "-k", "-1", "--depth", "1"],
     "the unraveling needs k >= 1, got -1"),
    (["unravel", "--db", "{d}/d.db", "-k", "0", "--depth", "1"],
     "the unraveling needs k >= 1, got 0"),
    (["unravel", "--db", "{d}/d.db", "-k", "1", "--depth", "-1"],
     "the unraveling needs depth >= 0, got -1"),
    (["chase", "--onto", "{d}/ex1.dl", "--db", "{d}/d.db", "--depth", "-1"],
     "the chase needs depth >= 0, got -1"),
    (["chase", "--onto", "{d}/ex1.dl", "--db", "{d}/d.db", "--canonical",
      "--steps", "-2"], "the canonical model needs steps >= 0, got -2"),
    (["tw-equiv", "--onto", "{d}/ex1.dl", "--query", "{d}/fig2.cq", "-k", "1",
      "--budget", "-1"], "the counterexample search needs budget >= 0, got -1"),
], ids=["unravel-k-negative", "unravel-k-0", "unravel-depth", "chase-depth",
        "canonical-steps", "tw-equiv-budget"])
def test_out_of_range_numbers_exit_3(files, capsys, argv, err):
    code, out, got = run(capsys, *(a.format(d=files) for a in argv))
    assert (code, out, got) == (3, "", f"error: {err}\n")


def test_unravel_rejects_anchor_outside_the_data(files, capsys):
    code, out, err = run(capsys, "unravel", "--db", str(files / "d.db"), "-k", "1",
                         "--depth", "1", "--tuple", "a,zz")
    assert (code, out) == (3, "")
    assert "['zz']" in err


def test_internal_value_error_escapes_main(files, monkeypatch):
    # a bug is not a dialect or schema violation
    import omqlab.cli

    def broken(Q, d):
        raise ValueError("internal")

    monkeypatch.setattr(omqlab.cli, "evaluate_naive", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["eval", "--query", str(files / "unary.cq"), "--db", str(files / "d.db")])


def test_consistent_command(files, capsys):
    (files / "bot.dl").write_text("A1 <= bot\n")
    code, out, _ = run(capsys, "consistent", "--onto", str(files / "bot.dl"),
                       "--db", str(files / "d.db"))
    assert code == 0 and out.strip() == "false"


def test_chase_command(files, capsys):
    code, out, _ = run(capsys, "chase", "--onto", str(files / "ex1.dl"),
                       "--db", str(files / "d.db"), "--depth", "2")
    assert code == 0
    assert "A4(b)" in out


@pytest.mark.parametrize("header", ["dialect: DL-LiteR\n", ""],
                         ids=["declared", "inferred"])
@pytest.mark.parametrize("command", [["eval", "--query", "c.cq"], ["consistent"],
                                     ["chase"]], ids=["eval", "consistent", "chase"])
def test_vacuous_bot_inclusion_changes_nothing(files, capsys, header, command):
    # DL-Lite admits bot on the left; such an axiom says nothing, and the
    # commands print what they print without it (a file with no header
    # infers DL-LiteR)
    (files / "vacuous.dl").write_text(header + "bot <= A\nB <= C\n")
    (files / "plain.dl").write_text(header + "B <= C\n")
    (files / "b.db").write_text("B(a)\n")
    (files / "c.cq").write_text("q(x) :- C(x)\n")
    name, *rest = command
    rest = [str(files / a) if a.endswith(".cq") else a for a in rest]
    outs = [run(capsys, name, "--onto", str(files / onto), "--db", str(files / "b.db"),
                *rest) for onto in ("vacuous.dl", "plain.dl")]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0 and outs[0][1]


def test_chase_provenance_sidecar(files, capsys):
    (files / "ex.dl").write_text("A2 <= exists r . B\n")
    side = files / "prov.json"
    code, out, _ = run(capsys, "chase", "--onto", str(files / "ex.dl"),
                       "--db", str(files / "d.db"), "--depth", "1",
                       "--provenance", str(side))
    assert code == 0
    prov = json.loads(side.read_text())
    assert any(v["kind"] == "anonymous" for v in prov.values())
    assert "_n0" in out


def test_core_command(files, capsys):
    (files / "dup.cq").write_text("q() :- A(x), A(y)\n")
    code, out, _ = run(capsys, "core", "--query", str(files / "dup.cq"))
    assert code == 0 and out.strip() == "q() :- A(x)"


def test_approx_command(files, capsys):
    code, out, _ = run(capsys, "approx", "--onto", str(files / "ex1.dl"),
                       "--query", str(files / "fig2.cq"), "-k", "1")
    assert code == 0
    # the finest width-1 contractions; equivalent to all of them
    assert len(out.strip().splitlines()) == 4
    printed = Q1.with_query(parse_query(out))
    assert equivalent_full_schema(printed, full_ucq_k_approximation(Q1, 1))


@pytest.mark.parametrize("argv", [
    ["core", "--query", "{d}/dup.cq"],
    ["approx", "--onto", "{d}/ex1.dl", "--query", "{d}/fig2.cq", "-k", "1"],
    ["rewrite", "--onto", "{d}/ex1.dl", "--query", "{d}/fig2.cq"],
    ["dlf-rew", "--onto", "{d}/f.dl", "--query", "{d}/merge.cq"],
], ids=["core", "approx", "rewrite", "dlf-rew"])
def test_query_commands_print_json(files, capsys, argv):
    # --json gives {"query": the .cq text}, the plain output verbatim
    (files / "dup.cq").write_text("q(x) :- A(y), A(z), r(x,y)\n")
    (files / "f.dl").write_text("func r\n")
    (files / "merge.cq").write_text("q() :- r(x,y1), r(x,y2), A(y1), B(y2)\n")
    argv = [a.format(d=files) for a in argv]
    code, plain, _ = run(capsys, *argv)
    assert code == 0 and plain.startswith("q(")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out) == {"query": plain}


def test_contain_command(files, capsys):
    code, out, _ = run(capsys, "contain",
                       "--query", str(files / "unary.cq"),
                       "--query2", str(files / "unary.cq"))
    assert code == 0 and out.strip() == "true"


def test_contain_counts_data_inconsistent_with_the_right_ontology(files, capsys):
    # every tuple is a certain answer of Q2 on A1(x), which --onto2 rejects
    (files / "gen.dl").write_text("A1 <= exists r . B1\n")
    (files / "bot.dl").write_text("A1 <= bot\n")
    (files / "a1.cq").write_text("q(x) :- A1(x)\n")
    (files / "b1.cq").write_text("q(x) :- B1(x)\n")
    code, out, err = run(capsys, "contain", "--onto", str(files / "gen.dl"),
                         "--query", str(files / "a1.cq"),
                         "--onto2", str(files / "bot.dl"),
                         "--query2", str(files / "b1.cq"))
    assert (code, out, err) == (0, "true\n", "")


def test_contain_does_not_skip_a_functionality_violation(files, capsys):
    # r(a,b) is consistent with func r and answers a for the left query,
    # whose disjunct database alone violates func r
    (files / "none.dl").write_text("")
    (files / "func.dl").write_text("dialect: DL-LiteF\nfunc r\n")
    (files / "rr.cq").write_text("q(x) :- r(x,y), r(x,z)\n")
    (files / "b.cq").write_text("q(x) :- B(x)\n")
    code, out, err = run(capsys, "contain", "--onto", str(files / "none.dl"),
                         "--query", str(files / "rr.cq"),
                         "--onto2", str(files / "func.dl"),
                         "--query2", str(files / "b.cq"))
    assert (code, out, err) == (0, "false\n", "")


def test_contain_merges_along_a_shared_functional_role(files, capsys):
    # under a shared func r the left disjunct stands for its functional
    # quotient r(x,y), which r(a,b) matches; the right query answers nothing
    (files / "func.dl").write_text("dialect: DL-LiteF\nfunc r\n")
    (files / "rr.cq").write_text("q(x) :- r(x,y), r(x,z)\n")
    (files / "b.cq").write_text("q(x) :- B(x)\n")
    code, out, err = run(capsys, "contain", "--onto", str(files / "func.dl"),
                         "--query", str(files / "rr.cq"),
                         "--query2", str(files / "b.cq"))
    assert (code, out, err) == (0, "false\n", "")


def test_contain_refuses_a_right_ontology_that_misses_the_left_one(files, capsys):
    # on A(a) the left OMQ answers a and the right one nothing; C <= D does
    # not entail A <= exists r . B, so the disjunct check would say true
    (files / "arb.dl").write_text("A <= exists r . B\n")
    (files / "cd.dl").write_text("C <= D\n")
    (files / "rb.cq").write_text("q(x) :- r(x,y), B(y)\n")
    code, out, err = run(capsys, "contain", "--onto", str(files / "arb.dl"),
                         "--query", str(files / "rb.cq"),
                         "--onto2", str(files / "cd.dl"),
                         "--query2", str(files / "rb.cq"))
    assert (code, out) == (3, "")
    assert err.startswith("error: containment under two ontologies")


def test_chase_canonical_of_data_violating_functionality_is_its_saturation(
        files, capsys):
    (files / "fa.dl").write_text("dialect: DL-LiteF\nfunc r\nA <= exists r . top\n")
    (files / "abc.db").write_text("A(a)\nr(a,b)\nr(a,c)\n")
    code, out, err = run(capsys, "chase", "--canonical", "--steps", "2",
                         "--onto", str(files / "fa.dl"), "--db", str(files / "abc.db"))
    assert (code, out, err) == (0, "A(a)\nr(a,b)\nr(a,c)\n", "")


def test_rewrite_command(files, capsys):
    code, out, _ = run(capsys, "rewrite", "--onto", str(files / "ex1.dl"),
                       "--query", str(files / "fig2.cq"))
    assert code == 0
    assert out.startswith("q() :-")


def test_rewrite_prints_a_query_that_parses_back(files, capsys):
    (files / "top.dl").write_text("top <= exists r . top\n")
    (files / "b.cq").write_text("q() :- r(x,y)\n")
    code, out, err = run(capsys, "rewrite", "--onto", str(files / "top.dl"),
                         "--query", str(files / "b.cq"))
    assert (code, out, err) == (0, "q() :- r(x,y)\n", "")
    assert parse_query(out) == parse_query("q() :- r(x,y)")


def test_unravel_command(files, capsys):
    (files / "cyc.db").write_text("r(a,b)\nr(b,a)\n")
    code, out, _ = run(capsys, "unravel", "--db", str(files / "cyc.db"),
                       "-k", "1", "--depth", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["facts"] and data["projection"]


def test_dlf_commands(files, capsys):
    (files / "f.dl").write_text("func r\n")
    (files / "merge.cq").write_text("q() :- r(x,y1), r(x,y2), A(y1), B(y2)\n")
    code, out, _ = run(capsys, "dlf-equiv1", "--onto", str(files / "f.dl"),
                       "--query", str(files / "merge.cq"))
    assert code == 0 and out.strip() == "YES"
    (files / "gen.dl").write_text(
        "dialect: DL-LiteF\nA <= exists r . top\nrange r <= B\n")
    code2, out2, _ = run(capsys, "dlf-rew", "--onto", str(files / "f.dl"),
                         "--query", str(files / "merge.cq"))
    assert code2 == 0 and out2.startswith("q() :-")


def test_determinism(files, capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "approx", "--onto", str(files / "ex1.dl"),
                        "--query", str(files / "fig2.cq"), "-k", "1")
        outs.add(out)
    assert len(outs) == 1


HASH_SEED_ONTOLOGY = """\
A <= exists r . (B & exists s . C)
B <= exists r . A
B & C <= D
exists s . C <= E
r <= t
range t <= B
"""
HASH_SEED_DATABASE = "A(a)\nB(b)\nr(a,b)\ns(b,c)\nC(c)\nr(c,a)\nt(d,a)\nA(d)\n"


def test_output_is_byte_identical_across_hash_seeds(tmp_path):
    (tmp_path / "o.dl").write_text(HASH_SEED_ONTOLOGY)
    (tmp_path / "d.db").write_text(HASH_SEED_DATABASE)
    (tmp_path / "u.cq").write_text(
        "q(x) :- r(x,y), B(y), s(y,z), E(y)\nq(x) :- t(x,y), A(y)\n")
    (tmp_path / "b.cq").write_text("q() :- r(x,y), r(y,z), r(z,x), B(y)\n")
    (tmp_path / "ex1.dl").write_text("A2 <= A4\n")
    (tmp_path / "fig2.cq").write_text(FIG2_TEXT + "\n")
    # the functional quotient merges b, c and a: its representative must
    # not depend on the order in which a set yields the successor sets
    (tmp_path / "f.dl").write_text("dialect: DL-LiteF\nfunc r\n")
    (tmp_path / "m.cq").write_text("q() :- r(x,b), r(x,c), r(y,a), r(y,c)\n")
    # B is outside the schema: only exists s . top <= B re-sources it, with
    # an s-edge to a fresh constant, in a database where b.cq's r-triangle
    # holds and its loop-bearing width-1 contractions do not
    (tmp_path / "s.dl").write_text("exists s . top <= B\n")
    (tmp_path / "rs.schema").write_text("r\ns\n")
    (tmp_path / "loop.cq").write_text("q() :- r(x,x)\n")
    onto, db = ["--onto", "o.dl"], ["--db", "d.db"]
    invocations = [["eval", *onto, "--query", "u.cq", *db, "--algo", algo]
                   for algo in ("naive", "fpt", "pebble")]
    invocations += [["chase", *onto, *db, "--depth", "2"],
                    ["chase", *onto, *db, "--depth", "2", "--canonical", "--steps", "2"],
                    ["rewrite", *onto, "--query", "b.cq"],
                    ["tw-equiv", *onto, "--query", "b.cq", "-k", "1"],
                    ["approx", *onto, "--query", "b.cq", "-k", "1"],
                    ["tw-equiv", "--onto", "ex1.dl", "--query", "fig2.cq",
                     "-k", "1", "--json"],
                    ["dlf-equiv1", "--onto", "f.dl", "--query", "m.cq", "--json"],
                    ["tw-equiv", "--onto", "s.dl", "--query", "b.cq", "-k", "1",
                     "--schema", "rs.schema", "--json"],
                    ["contain", "--onto", "s.dl", "--query", "b.cq", "--query2", "loop.cq",
                     "--schema", "rs.schema"]]
    src = str(Path(omqlab.__file__).resolve().parent.parent)
    outputs = {}
    for seed in ("0", "1", "2"):
        path = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, path)))
        for argv in invocations:
            res = subprocess.run([sys.executable, "-m", "omqlab.cli", *argv],
                                 cwd=tmp_path, env=env, capture_output=True,
                                 text=True, timeout=60)
            assert res.returncode == 0, (argv, res.stderr)
            outputs.setdefault(tuple(argv), set()).add(res.stdout)
    for argv, outs in outputs.items():
        assert len(outs) == 1, argv
    assert "_n" in outputs[tuple(invocations[3])].pop()
    assert "_e" in outputs[tuple(invocations[5])].pop()
    assert len(outputs[tuple(invocations[7])].pop().splitlines()) > 1
    assert json.loads(outputs[tuple(invocations[8])].pop())["outcome"] == "yes"
    assert json.loads(outputs[tuple(invocations[9])].pop()) == {
        "outcome": "yes", "witness": "q() :- r(x,a), r(y,a)\n"}
    separated = json.loads(outputs[tuple(invocations[10])].pop())
    assert separated["outcome"] == "no" and "s(" in separated["counterexample"]
    assert outputs[tuple(invocations[11])].pop() == "false\n"


def test_parser_is_built_once_and_shared_across_calls(files, capsys, monkeypatch):
    from omqlab.cli import build_parser
    assert build_parser() is build_parser()
    onto, db = ["--onto", "ex1.dl"], ["--db", "d.db"]
    invocations = [["eval", *onto, "--query", "unary.cq", *db],
                   ["eval", *onto, *db],  # no --query: argparse exits 2
                   ["tw-equiv", *onto, "--query", "fig2.cq", "-k", "1"],
                   ["eval", *onto, "--query", "fig2.cq", *db, "--algo", "pebble"],
                   ["treewidth", "--query", "fig2.cq", "--json"],
                   ["eval", *onto, "--query", "unary.cq", *db]]
    src = str(Path(omqlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    monkeypatch.chdir(files)
    seen = []
    for argv in invocations:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out = capsys.readouterr().out
        res = subprocess.run([sys.executable, "-m", "omqlab.cli", *argv],
                             cwd=files, env=env, capture_output=True,
                             text=True, timeout=60)
        assert (code, out) == (res.returncode, res.stdout), argv
        seen.append((code, out))
    assert [c for c, _ in seen] == [0, 2, 0, 0, 0, 0]
    assert seen[0] == seen[-1] == (0, "b\n")


def test_eval_without_onto_uses_the_empty_el_ontology(files, capsys):
    # an absent --onto is the empty ontology an empty .dl file parses to,
    # so the pebble game, which refuses inverse roles, answers too
    (files / "empty.dl").write_text("")
    base = ["eval", "--query", str(files / "unary.cq"), "--db", str(files / "d.db")]
    outs = [run(capsys, *base, "--algo", algo) for algo in ("naive", "fpt", "pebble")]
    outs.append(run(capsys, *base, "--algo", "pebble", "--onto", str(files / "empty.dl")))
    assert outs == [(0, "b\n", "")] * 4


def _two_level_main(argv) -> int:
    """``main`` as it reads argv through the whole parser."""
    from omqlab.cli import build_parser
    from omqlab.model import OmqlabError
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OmqlabError as e:
        print(f"{e.prefix}: {e}", file=sys.stderr)
        return e.exit_code


def _stdin(text: str) -> io.TextIOWrapper:
    """A stand-in for ``sys.stdin`` holding ``text``, with the byte
    ``buffer`` that the CLI reads."""
    return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")


DISPATCH_ARGV = [
    ["eval", "--onto", "ex1.dl", "--query", "unary.cq", "--db", "d.db"],
    ["consistent", "--onto", "ex1.dl", "--db", "d.db", "--json"],
    ["chase", "--onto", "ex1.dl", "--db", "d.db", "--depth", "1"],
    ["treewidth", "--query", "fig2.cq"],
    ["core", "--query", "fig2.cq"],
    ["approx", "--onto", "ex1.dl", "--query", "fig2.cq", "-k", "1"],
    ["tw-equiv", "--query", "fig2.cq", "-k", "1", "--json"],
    ["contain", "--onto", "ex1.dl", "--query", "fig2.cq", "--query2", "unary.cq"],
    ["rewrite", "--onto", "ex1.dl", "--query", "fig2.cq"],
    ["unravel", "--db", "d.db", "-k", "1", "--depth", "1"],
    ["dlf-rew", "--onto", "func.dl", "--query", "fig2.cq"],
    ["dlf-equiv1", "--onto", "func.dl", "--query", "fig2.cq"],
    ["eval", "--onto", "ex1.dl", "--db", "d.db"],  # missing required option
    ["treewidth", "--query", "fig2.cq", "--bogus"],  # unknown option
    ["treewidth", "--query", "fig2.cq", "extra", "--more"],  # leftover arguments
    ["treewidth", "--que", "fig2.cq"],  # abbreviation
    ["treewidth", "--query=fig2.cq", "--json"],
    ["approx", "--query", "fig2.cq", "-k1"],
    ["approx", "--query", "fig2.cq", "-kx"],  # bad type
    ["eval", "--query", "unary.cq", "--db", "d.db", "--algo", "slow"],  # bad choice
    ["treewidth", "--query", "-"],  # stdin
    ["treewidth", "--", "--query", "fig2.cq"],
    ["treewidth", "--query", "fig2.cq", "--"],
    ["treewidth", "--query", "bad.cq"],  # a parse error: exit code 2
    ["-h"],
    ["--help"],
    ["eval", "-h"],
    ["tw-equiv", "--query", "fig2.cq", "--help"],
    ["frobnicate", "--query", "fig2.cq"],  # unknown command
    ["--query", "fig2.cq"],
    [],
    # the edges of main's own read of exact option strings
    ["treewidth", "--query", "fig2.cq", "--query", "unary.cq"],  # a repeated option
    ["treewidth", "--query", "fig2.cq", "--json", "--json"],  # a flag given twice
    ["approx", "--query", "fig2.cq", "-k", "-1"],  # a value starting with -
    ["tw-equiv", "--query", "fig2.cq", "-k", "1", "--budget", "x"],  # bad type
    ["tw-equiv", "--json", "--query", "fig2.cq", "-k", "1", "--budget", "2"],
]


@pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=" ".join)
def test_main_dispatch_matches_the_two_level_parse(files, capsys, monkeypatch, argv):
    # main hands argv to the named command's parser; what a user sees must
    # be what the full parse through the top-level parser gives
    (files / "func.dl").write_text("func r\n")
    (files / "bad.cq").write_text("q(x) :- A(x,\n")
    monkeypatch.chdir(files)
    seen = []
    for entry in (main, _two_level_main):
        monkeypatch.setattr(sys, "stdin", _stdin(FIG2_TEXT + "\n"))
        try:
            code = entry(list(argv))
        except SystemExit as e:
            code = e.code
        out = capsys.readouterr()
        seen.append((code, out.out, out.err))
    assert seen[0] == seen[1]


def _dispatch_outcomes(argv, monkeypatch, capsys) -> list:
    """(exit code, stdout, stderr) of ``main`` and of ``_two_level_main``."""
    seen = []
    for entry in (main, _two_level_main):
        monkeypatch.setattr(sys, "stdin", _stdin(FIG2_TEXT + "\n"))
        try:
            code = entry(list(argv))
        except SystemExit as e:
            code = e.code
        out = capsys.readouterr()
        seen.append((code, out.out, out.err))
    return seen


# values for the options that take one: files that exist, parse or do
# not, stdin and names; integers good and bad; choices and a bad one; and
# output prefixes that cannot overwrite an input
_OPTION_VALUES = ["ex1.dl", "func.dl", "fig2.cq", "unary.cq", "bad.cq", "d.db",
                  "s.schema", "full", "-", "missing.cq", "a,b", "1"]
_INT_VALUES = ["0", "1", "2", "-1", "x"]
_OUTPUT_VALUES = {"out": ["w", "no/such"], "provenance": ["p.json", "no/such.json"]}


def _values(action) -> list:
    if action.type is int:
        return _INT_VALUES
    if action.choices:
        return [*action.choices, "slow"]
    return _OUTPUT_VALUES.get(action.dest, _OPTION_VALUES)


@st.composite
def _command_argvs(draw):
    """argv built from one command's actions: a random subset in random
    order.  Half the time it has every required option and each option is
    followed by its value; otherwise it may have repeats, ``=`` and joined
    forms, abbreviations, missing values and a stray token."""
    build_parser()
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    actions = [a for a in _COMMANDS[name].actions if a.dest != argparse.SUPPRESS]
    plain = draw(st.booleans())
    picks = draw(st.lists(st.sampled_from(actions), unique=True))
    if plain or draw(st.booleans()):
        picks += [a for a in actions if a.required and a not in picks]
    if picks and not plain and draw(st.integers(0, 3)) == 0:
        picks.append(draw(st.sampled_from(picks)))
    argv = [name]
    for action in draw(st.permutations(picks)):
        opt = draw(st.sampled_from(action.option_strings))
        if len(opt) > 3 and not plain and draw(st.integers(0, 3)) == 0:
            opt = opt[:draw(st.integers(3, len(opt) - 1))]
        if action.nargs == 0:
            argv.append(opt)
            continue
        value = draw(st.sampled_from(_values(action)))
        form = "apart" if plain else draw(st.sampled_from(["apart", "=", "joined", "missing"]))
        argv += {"apart": [opt, value], "=": [f"{opt}={value}"],
                 "joined": [opt + value], "missing": [opt]}[form]
    if not plain and draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--", "x", "-h"])))
    return argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_command_argvs())
def test_main_matches_the_two_level_parse_on_drawn_argv(files, capsys, monkeypatch, argv):
    # whether main reads argv itself or hands it to argparse, a user sees
    # what the full two-level parse gives; where it reads argv itself, its
    # namespace is the one the command's parser builds
    (files / "func.dl").write_text("func r\n")
    (files / "bad.cq").write_text("q(x) :- A(x,\n")
    (files / "s.schema").write_text("A2\nr\n")
    monkeypatch.chdir(files)
    seen = _dispatch_outcomes(argv, monkeypatch, capsys)
    assert seen[0] == seen[1]
    command = _COMMANDS[argv[0]]
    direct = _read_direct(command, argv[1:])
    if direct is not None:
        assert command.parse_known_args(argv[1:]) == (direct, [])


def test_main_reads_the_benchmark_argv_without_argparse(files, capsys, monkeypatch):
    # the argv shapes the benchmark sends never reach argparse's parse;
    # help and an --opt=value form still do
    (files / "func.dl").write_text("func r\n")
    monkeypatch.chdir(files)
    build_parser()

    def refuse(self, *args, **kwargs):
        raise RuntimeError("argparse parsed argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    for argv in (["eval", "--onto", "ex1.dl", "--query", "unary.cq", "--db", "d.db",
                  "--algo", "pebble", "-k", "1", "--json"],
                 ["tw-equiv", "--query", "fig2.cq", "-k", "1", "--budget", "5", "--json"],
                 ["tw-equiv", "--onto", "ex1.dl", "--query", "fig2.cq", "-k", "2",
                  "--budget", "5", "--json"],
                 ["dlf-equiv1", "--onto", "func.dl", "--query", "fig2.cq", "--json"]):
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.startswith("{")
    for argv in (["eval", "--help"], ["treewidth", "--query=fig2.cq"]):
        with pytest.raises(RuntimeError, match="argparse parsed argv"):
            main(argv)


@pytest.mark.parametrize("algo", ["naive", "fpt", "pebble"])
@pytest.mark.parametrize("onto, query", [
    ("A <= exists r . (B & C)\n_n0 <= D\n", "q(x) :- D(x)\n"),
    ("_top <= B\n", "q(x) :- B(x)\n"),
])
def test_eval_user_names_are_not_normal_form_names(tmp_path, capsys, algo, onto, query):
    # _n0 and _top are a user's concept names, which A(a) does not entail;
    # the normal form's own names cannot be written in an input file
    (tmp_path / "o.dl").write_text(onto)
    (tmp_path / "q.cq").write_text(query)
    (tmp_path / "d.db").write_text("A(a)\n")
    code, out, err = run(capsys, "eval", "--onto", str(tmp_path / "o.dl"),
                         "--query", str(tmp_path / "q.cq"),
                         "--db", str(tmp_path / "d.db"), "--algo", algo)
    assert (code, out, err) == (0, "\n", "")


def _printed_forms(text: str) -> list:
    return sorted(canonical_form(cq.atoms, cq.answer_vars)
                  for cq in parse_query(text).disjuncts)


@pytest.mark.parametrize("command, onto, query, name", [
    # rewrite attaches a copy of exists r . B at x, named _e<k>
    ("rewrite", "exists r . B <= C\n", "q(x) :- r(x,y), B(y), D({v}), s(x,{v})\n", "_e0"),
    # dlf-rew re-attaches r(x,_f0) for the pendant tree r(x,y)
    ("dlf-rew", "dialect: DL-LiteF\nB <= exists r . top\nfunc s\n",
     "q() :- D({v}), r({v},y)\n", "_gx"),
])
def test_invented_names_skip_the_query_variables(tmp_path, capsys, command, onto,
                                                 query, name):
    (tmp_path / "o.dl").write_text(onto)
    outs = []
    for v in (name, "w"):
        (tmp_path / "q.cq").write_text(query.format(v=v))
        code, out, err = run(capsys, command, "--onto", str(tmp_path / "o.dl"),
                             "--query", str(tmp_path / "q.cq"))
        assert (code, err) == (0, "")
        outs.append(out)
    assert _printed_forms(outs[0]) == _printed_forms(outs[1]), outs


def test_eval_reports_inconsistent_data_on_stderr(tmp_path, capsys):
    (tmp_path / "o.dl").write_text("A <= bot\n")
    (tmp_path / "q.cq").write_text("q(x) :- B(x)\n")
    (tmp_path / "d.db").write_text("A(a)\nB(b)\n")
    code, out, err = run(capsys, "eval", "--onto", str(tmp_path / "o.dl"),
                         "--query", str(tmp_path / "q.cq"), "--db", str(tmp_path / "d.db"))
    assert (code, out, err) == (0, "a\nb\n", "inconsistent: every tuple is a certain answer\n")


@pytest.mark.parametrize("algo", ["naive", "fpt", "pebble"])
@pytest.mark.parametrize("query", ["q(x) :- A(x), B(x)\n", "q() :- r(x,y), A(y), B(y)\n"],
                         ids=["unary", "boolean"])
def test_eval_of_a_query_whose_own_database_clashes(tmp_path, capsys, algo, query):
    # consistent data, but no database consistent with the ontology
    # matches the query, so nothing is a certain answer
    (tmp_path / "o.dl").write_text("A & B <= bot\nA <= exists r . A\n")
    (tmp_path / "q.cq").write_text(query)
    (tmp_path / "d.db").write_text("A(a)\nB(b)\nr(a,b)\n")
    code, out, err = run(capsys, "eval", "--onto", str(tmp_path / "o.dl"),
                         "--query", str(tmp_path / "q.cq"), "--db", str(tmp_path / "d.db"),
                         "--algo", algo, "--json")
    assert (code, out, err) == (0, '{"consistent": true, "answers": []}\n', "")


@pytest.mark.parametrize("onto, expected", [
    ("disjoint-roles r, s\nt <= r\nt <= s\n", "false\n"),
    ("disjoint-roles r, s\nt <= r\n", "true\n"),
])
def test_consistent_sees_a_role_below_every_disjoint_role(tmp_path, capsys, onto,
                                                          expected):
    # a's t-successor is an r- and an s-successor when t <= r and t <= s
    (tmp_path / "o.dl").write_text(f"dialect: DL-LiteR\n{onto}A <= exists t . top\n")
    (tmp_path / "d.db").write_text("A(a)\n")
    code, out, err = run(capsys, "consistent", "--onto", str(tmp_path / "o.dl"),
                         "--db", str(tmp_path / "d.db"))
    assert (code, out, err) == (0, expected, "")


def _contain(tmp_path, capsys, schema, onto, query, query2, onto2=None):
    (tmp_path / "s.schema").write_text(schema)
    (tmp_path / "o.dl").write_text(onto)
    (tmp_path / "q1.cq").write_text(query)
    (tmp_path / "q2.cq").write_text(query2)
    argv = ["contain", "--schema", str(tmp_path / "s.schema"),
            "--onto", str(tmp_path / "o.dl"),
            "--query", str(tmp_path / "q1.cq"), "--query2", str(tmp_path / "q2.cq")]
    if onto2 is not None:
        (tmp_path / "o2.dl").write_text(onto2)
        argv += ["--onto2", str(tmp_path / "o2.dl")]
    return run(capsys, *argv)


@pytest.mark.parametrize("clash", ["A <= bot", "disjoint-roles r, s"])
@pytest.mark.parametrize("same", [True, False])
def test_contain_probes_clash_witnesses_under_a_schema(tmp_path, capsys, clash, same):
    # B is outside the schema, so only a database inconsistent with the left
    # ontology can separate: every tuple answers the left query there, and
    # the right query answers none unless the right ontology clashes too
    onto = f"dialect: DL-LiteR\n{clash}\n"
    got = _contain(tmp_path, capsys, "A\nr\ns\n", onto, "q() :- B(x)\n",
                   "q() :- B(x)\n", onto if same else "")
    assert got == (0, "true\n" if same else "false\n", "")


@pytest.mark.parametrize("same", [True, False])
def test_contain_probes_a_functionality_witness_under_a_schema(tmp_path, capsys, same):
    onto = "dialect: DL-LiteF\nfunc r\n"
    got = _contain(tmp_path, capsys, "r\n", onto, "q() :- B(x)\n", "q() :- B(x)\n",
                   onto if same else "")
    assert got == (0, "true\n" if same else "false\n", "")


@pytest.mark.parametrize("same", [True, False])
def test_contain_separates_on_a_witness_inconsistent_with_the_left_ontology(
        tmp_path, capsys, same):
    # the left query's own database A(x) clashes with A <= bot.  Both
    # OMQs hold exactly on the databases with an A fact, so the pair is
    # contained; with an empty right ontology neither rule proves it
    onto = "dialect: DL-LiteR\nA <= bot\n"
    got = _contain(tmp_path, capsys, "A\n", onto, "q() :- A(x)\n", "q() :- A(x)\n",
                   onto if same else "")
    assert got == ((0, "true\n", "") if same else (4, "unknown\n", ""))


@pytest.mark.parametrize("onto, schema", [
    ("s <= r\nC <= exists s . top\n", "s\n"),
    ("t <= inv(r)\n", "t\n"),
])
def test_contain_re_sources_a_role_fact_by_a_schema_sub_role(tmp_path, capsys,
                                                             onto, schema):
    # r is outside the schema: the witness r(x,y) survives only as s(x,y),
    # or as t(y,x), and there the left query holds and the right one not
    got = _contain(tmp_path, capsys, schema, f"dialect: DL-LiteR\n{onto}",
                   "q() :- r(x,y)\n", "q() :- B(x)\n")
    assert got == (0, "false\n", "")


@pytest.mark.parametrize("dialect, onto, schema, query, query2, onto2", [
    # r(a,b) is over the schema, and exists r . top puts a in B
    ("DL-LiteR", "exists r . top <= B", "r\nE\n", "q(x) :- B(x)", "q(x) :- E(x)", None),
    # r(a,b), A(b) puts a in B
    ("EL", "exists r . A <= B", "r\nA\nE\n", "q(x) :- B(x)", "q(x) :- E(x)", None),
    # A(a), B(a) forces an r-successor of a
    ("DL-LiteR-horn", "A & B <= exists r . top", "A\nB\nE\n", "q() :- r(x,y)",
     "q() :- E(x)", None),
    # any one fact, such as A(a), is inconsistent with the left ontology
    ("DL-LiteR", "top <= bot", "A\nC\n", "q() :- s(x,y)", "q() :- r(x,y)", ""),
], ids=["exists-r-top", "el-exists-r-a", "horn-conjunction", "top-bot"])
def test_contain_finds_the_separating_database_under_a_schema(
        tmp_path, capsys, dialect, onto, schema, query, query2, onto2):
    got = _contain(tmp_path, capsys, schema, f"dialect: {dialect}\n{onto}\n",
                   query + "\n", query2 + "\n",
                   None if onto2 is None else f"dialect: {dialect}\n{onto2}")
    assert got == (0, "false\n", "")


@pytest.mark.parametrize("n", [6, 9])
def test_contain_proves_a_path_under_an_ontology_that_cannot_fire(tmp_path, capsys, n):
    # C <= D fires on no schema database, so the empty right ontology
    # entails the part of the left one that can, and the path's own chase
    # matches the right query
    path = ", ".join(f"r(x{i},x{i + 1})" for i in range(n))
    got = _contain(tmp_path, capsys, "r\nB\n", "C <= D\n", f"q() :- {path}, B(x{n})\n",
                   "q() :- r(x,y)\n", "")
    assert got == (0, "true\n", "")


def test_contain_caps_the_separation_search(tmp_path, capsys):
    # B <= D fires on the schema database B(a), and the empty right
    # ontology does not entail it, so neither rule proves the pair.  Eleven
    # variables: the contractions of the left disjunct are too many to try,
    # and the cap is not a verdict
    path = ", ".join(f"r(x{i},x{i + 1})" for i in range(10))
    got = _contain(tmp_path, capsys, "r\nB\n", "B <= D\n", f"q() :- {path}, B(x10)\n",
                   "q() :- r(x,y)\n", "")
    assert got[:2] == (5, "") and "capped at 10 variables" in got[2]


def test_contain_json_reports_unknown_as_null(tmp_path, capsys):
    onto = "dialect: DL-LiteR\nA <= bot\n"
    _contain(tmp_path, capsys, "A\n", onto, "q() :- A(x)\n", "q() :- A(x)\n", "")
    code, out, err = run(capsys, "contain", "--schema", str(tmp_path / "s.schema"),
                         "--onto", str(tmp_path / "o.dl"), "--onto2", str(tmp_path / "o2.dl"),
                         "--query", str(tmp_path / "q1.cq"),
                         "--query2", str(tmp_path / "q2.cq"), "--json")
    assert (code, json.loads(out), err) == (4, {"contained": None}, "")


def test_cli_import_loads_no_dataclasses_and_the_same_modules():
    # records are built without dataclasses, so neither it nor inspect is
    # loaded; dllitef stays lazy and no other module moves in or out
    probe = "import sys, omqlab.cli; print(*sys.modules, sep='\\n')"
    src = str(Path(omqlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    loaded = set(res.stdout.split())
    assert not loaded & {"dataclasses", "inspect"}
    assert {m for m in loaded if m.startswith("omqlab.")} == {
        f"omqlab.{m}" for m in ("cli", "surface", "model", "entailment", "chase",
                                "evaluation", "graphalg", "homtools", "pebble",
                                "treelike")}


@pytest.mark.parametrize("from_stdin", [False, True])
def test_a_non_utf8_input_is_a_parse_error(files, capsys, monkeypatch, from_stdin):
    # the grammar says UTF-8: the first bad byte is a parse error (exit 2)
    # at its line and column, from a file and from stdin alike
    data = b"A2(a)\r\nA2(c\xff)\n"
    (files / "bad.db").write_bytes(data)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    db = "-" if from_stdin else str(files / "bad.db")
    assert run(capsys, "eval", "--query", str(files / "unary.cq"), "--db", db) == (
        2, "", "parse error: line 2, column 5: invalid UTF-8 byte 0xff\n")


def test_warm_calls_print_what_cold_ones_print(tmp_path, capsys, monkeypatch):
    # every process-scope cache (normal forms, saturations and their models,
    # treewidths, the parser) leaves output as a fresh process prints it
    (tmp_path / "o.dl").write_text("A <= exists r . B\nexists r . B <= C\n")
    (tmp_path / "d.db").write_text("A(a)\nr(a,b)\nB(c)\nC(d)\n")
    (tmp_path / "u.cq").write_text("q(x) :- C(x)\nq(x) :- r(x,y), B(y)\n")
    (tmp_path / "b.cq").write_text("q() :- r(x,y), r(y,z), r(z,x), B(z)\n")
    (tmp_path / "c.cq").write_text("q(x) :- A(x)\n")
    (tmp_path / "s.schema").write_text("A\nr\nB\n")
    onto, db = ["--onto", "o.dl"], ["--db", "d.db"]
    calls = [["eval", *onto, "--query", "u.cq", *db, "--algo", algo]
             for algo in ("naive", "fpt", "pebble")]
    calls += [["tw-equiv", *onto, "--query", "b.cq", "-k", "1", "--json"],
              ["contain", *onto, "--query", "u.cq", "--query2", "c.cq"],
              ["contain", *onto, "--query", "u.cq", "--query2", "c.cq",
               "--schema", "s.schema"]]
    src = str(Path(omqlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cold = [subprocess.run([sys.executable, "-m", "omqlab.cli", *argv], cwd=tmp_path,
                           env=env, capture_output=True, text=True, timeout=60)
            for argv in calls]
    cold = [(res.returncode, res.stdout, res.stderr) for res in cold]
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        assert [run(capsys, *argv) for argv in calls] == cold
    assert cold[0][1] == "a\nd\n" and cold[4][0] == 0
