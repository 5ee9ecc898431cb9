"""End-to-end tests for the command-line interface (in-process)."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldp import cli, discrepancy, fields, graphs, verify


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_parse_ok_exit_code(capsys):
    code, out, _ = run(capsys, "parse", "[2,4]")
    assert code == 0
    data = json.loads(out)
    assert data["notation"] == "[2,4]"


def test_parse_syntax_error_exit_code(capsys):
    code, _, err = run(capsys, "parse", "[2")
    assert code == 2
    assert "error" in err


def test_parse_semantic_error_exit_code(capsys):
    # a star fork needs exactly three branches
    code, _, err = run(capsys, "parse", "[2;[2],[3]]")
    assert code == 2
    assert "error" in err


def test_det_values(capsys):
    data = run_json(capsys, "det", "[2,2,2,2]+[2,4]")
    dets = {c["notation"]: c["determinant"] for c in data["components"]}
    assert dets == {"[2^4]": 5, "[2,4]": 7}
    assert data["determinant"] == 35


def test_report_contents(capsys):
    data = run_json(capsys, "report", "2[2^4]+[2,4]")
    assert data["index"] == 7
    assert Fraction(data["k_sq"]) == Fraction(1, 7)
    assert data["klt"] is True
    assert data["bogomolov"] == "NotExcluded"
    hunt = data["hunt"]
    assert hunt["component"] == "[2,4]"
    assert Fraction(hunt["coefficient"]) == Fraction(4, 7)


def test_report_du_val_has_no_hunt_divisor(capsys):
    data = run_json(capsys, "report", "2[2^4]")
    assert data["hunt"] is None


def test_hunt_star_example(capsys):
    data = run_json(capsys, "hunt", "[2;[2],[3],[5]]")
    assert Fraction(data["coefficient"]) == Fraction(28, 29)


@pytest.mark.parametrize("notation, canonical", [
    ("[5,2,3]", "[3,2,5]"),
    ("[3;[2,5],[2],[4]]", "[3;[2],[4],[2,5]]"),
    ("[3,2]+[2,2,3]+[4;[3,2],[2],[2]]", "[2,3]+[2,2,3]+[4;[2],[2],[3,2]]"),
])
def test_report_keeps_one_record_per_component(capsys, watch, notation, canonical):
    data = run_json(capsys, "report", notation)
    comps = watch.types[notation].components
    assert len(watch.records) == len(comps)
    assert [vars(g)["_data"] for g in comps] == watch.records
    # the hunt divisor read through the component's own record is the one
    # found on the type written in canonical order
    assert data["hunt"] == run_json(capsys, "report", canonical)["hunt"]
    assert run_json(capsys, "hunt", notation) == data["hunt"]


def test_lct_reports_exactness(capsys):
    data = run_json(capsys, "lct", "[3]", "--incidence", "1")
    assert Fraction(data["lct_upper_bound"]) == 2
    assert data["exact_on_minimal_resolution"] is True


@pytest.mark.parametrize("text", ["x", "1,,2", ""])
def test_lct_rejects_a_malformed_incidence(capsys, text):
    code, _, err = run(capsys, "lct", "[3]", "--incidence", text)
    assert code == 2
    assert "--incidence" in err


def test_lemma42_sweep_agrees_with_solver(capsys):
    data = run_json(capsys, "lemma42", "[2,4]", "--max-a", "3")
    assert data["rows"]
    assert data["closed_form_matches_solver"] is True
    cases = {r.get("case") for r in data["rows"]}
    assert "1a" in cases


def test_table1_count(capsys):
    data = run_json(capsys, "table1", "--n", "0..4", "--m", "1..4")
    assert data["count"] == 88
    types = {inst["type"] for inst in data["instances"]}
    assert "2[2^4]+[3]" in types
    assert "2[2^4]+[2,4]" in types


@pytest.mark.parametrize(
    "flag, text",
    [("--n", "3..1"), ("--m", "5..2"), ("--n", "0..x"), ("--m", "1.5"), ("--m", "0..2"),
     ("--n=", "-1..3"), ("--m=", "-5..0")],
)
def test_table1_rejects_inverted_or_malformed_ranges(capsys, flag, text):
    # a flag ending in "=" takes its value in the same argument, as a value
    # that starts with "-" must
    argv = [flag + text] if flag.endswith("=") else [flag, text]
    code, out, err = run(capsys, "table1", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag.rstrip('=')} {text!r}: ")


@pytest.mark.parametrize(
    "args", [("--n", "0..101"), ("--m", "1..101"), ("--n", "0..3000", "--m", "1..1")]
)
def test_table1_bounds_the_parameter_ranges(capsys, args):
    code, out, err = run(capsys, "table1", *args)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {args[0]} {args[1]!r}: upper bound above 100")


def test_table1_scaling_range_is_within_the_bound(capsys):
    assert run_json(capsys, "table1", "--n", "0..30", "--m", "1..30")["count"] == 530


def test_a_reader_that_closes_early_ends_the_run_quietly():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    # about 116 kB of JSON, more than a pipe holds, so the writer is still
    # writing when the reader goes away after the first line, as under `| head -1`
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from ldp.cli import main; sys.exit(main())",
         "table1", "--n", "0..60", "--m", "1..60"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 141
    assert err == ""


def test_python_m_ldp_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ldp", "parse", "[2]"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["notation"] == "[2]"


def test_dual_graph_commands_load_only_the_dual_graph_layers():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    script = (
        "import contextlib, io, json, sys\n"
        "import ldp\n"
        "from ldp.cli import main\n"
        "argvs = [['parse', '2[2^4]+[3]'], ['det', '[2;[2],[3],[5]]'],\n"
        "         ['report', '2[2^4]+[2;[2],[3],[5]]'], ['hunt', '2[2^4]+[3]'],\n"
        "         ['lct', '[3]', '--incidence', '1'], ['lemma42', '[2,4]', '--max-a', '2'],\n"
        "         ['table1', '--n', '0..4', '--m', '1..4']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in argvs]\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('ldp.'))\n"
        "plain = 'argparse' not in sys.modules\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf), contextlib.suppress(SystemExit):\n"
        "    main(['report', '-h'])\n"
        "assert ldp.linalg.int_det([[2]]) == 2\n"
        "print(json.dumps([codes, loaded, plain, buf.getvalue(),\n"
        "                  len(ldp.verify.expected_values())]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, loaded, plain, help_text, pinned = json.loads(proc.stdout)
    assert codes == [0] * 7
    # none of ldp.pencil, .poly, .fields, .picard, .linalg or .verify
    assert loaded == ["ldp.cli", "ldp.discrepancy", "ldp.feasibility", "ldp.graphs"]
    # plain command lines never build the argument parser; help still does
    assert plain
    assert help_text.startswith("usage: ldp report [-h] notation\n")
    # and each of them still loads on first access
    assert pinned == 39


def test_det_of_a_long_chain(capsys):
    # a chain of k (-2)-curves is A_k, with determinant k + 1
    data = run_json(capsys, "det", "[2^160]")
    assert data["determinant"] == 161


def test_types_are_bounded_at_parse_time(capsys):
    bound = graphs.MAX_VERTICES
    assert bound >= 1500
    assert run_json(capsys, "det", f"[2^{bound}]")["determinant"] == bound + 1
    assert run_json(capsys, "det", f"{bound}[2]")["determinant"] == 2**bound
    # refused by the parser's count, before any weight list is expanded
    for text in (f"[2^{bound + 1}]", f"{bound + 1}[2]", f"2[2^{bound // 2}]+[3]",
                 "[2^100000000]", "100000000[2^4]"):
        code, out, err = run(capsys, "report", text)
        assert code == 2
        assert out == ""
        assert f"more than MAX_VERTICES = {bound} vertices" in err


def test_report_on_a_large_star_solves_m_e_equals_minus_kappa(capsys):
    from ldp.graphs import intersection_matrix, parse_graph
    from ldp.linalg import solve

    notation = "[3;[2^40],[2^40],[2^40]]"
    data = run_json(capsys, "report", notation)
    (comp,) = data["discrepancies"]
    assert comp["component"] == notation
    # e is listed in the vertex order of the parsed graph
    g = parse_graph(notation)
    kappa = [w - 2 for _, w in g.vertices]
    expected = solve(intersection_matrix(g), [-k for k in kappa])
    assert [Fraction(x) for x in comp["e"]] == expected


def test_report_writes_e_as_the_fractions_would(capsys):
    types = [graphs.format_dynkin(t)
             for _, t in graphs.table1_enumerate(n_range=(0, 30), m_range=(1, 30))]
    assert len(types) == 530
    third = graphs.MAX_VERTICES // 3
    long = [f"[2^{graphs.MAX_VERTICES - 1},5]", f"[3^{third}]",
            f"[5;[2^{third}],[3^{third}],[2,4^{third - 2}]]"]
    for notation in types + long:
        data = run_json(capsys, "report", notation)
        comps = graphs.parse_dynkin(notation).sorted_components()
        assert len(data["discrepancies"]) == len(comps)
        for entry, g in zip(data["discrepancies"], comps):
            assert entry["component"] == graphs.format_graph(g)
            assert entry["e"] == [str(x) for x in discrepancy.discrepancies(g)]
    # integral entries too: the Du Val [2^4] gives 0, [2;[2],[4],[4]] reaches 1
    assert run_json(capsys, "report", "[2^4]")["discrepancies"][0]["e"] == ["0"] * 4
    assert "1" in run_json(capsys, "report", "[2;[2],[4],[4]]")["discrepancies"][0]["e"]


def test_outputs_do_not_depend_on_the_hash_seed():
    # a star's branches are walked in the order its constructor gives them,
    # and a raw graph's in the order of its edge set, which string hashing
    # decides; no output may depend on either
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        "from ldp.cli import main\n"
        "for notation in sys.argv[1:]:\n"
        "    for argv in (['report', notation], ['hunt', notation],\n"
        "                 ['lemma42', notation, '--max-a', '2']):\n"
        "        print(main(argv))\n"
    )
    stars = ["[2;[2],[3],[5]]", "[3;[2,3],[4],[2,3]]", "[2;[2],[2],[2]]",
             "[4;[3],[2^2],[3]]", "[2;[2],[3],[2,3]]"]
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script, *stars],
                              env=env, capture_output=True, timeout=120)
        outputs.append((proc.returncode, proc.stdout, proc.stderr))
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1]


def test_pencil_char_five(capsys):
    data = run_json(capsys, "pencil", "--char", "5")
    assert data["quadratic_factor_has_double_root"] is True
    kinds = {tuple(m["parameter"]): m["kind"] for m in data["members"]}
    assert kinds == {(1, 2): "Cusp"}


def test_pencil_bad_characteristic(capsys):
    code, _, err = run(capsys, "pencil", "--char", "3")
    assert code == 2
    assert "error" in err


def test_pencil_takes_the_characteristic_at_the_bound(capsys):
    data = run_json(capsys, "pencil", "--char", str(cli.MAX_PENCIL_CHAR))
    assert data["characteristic"] == cli.MAX_PENCIL_CHAR


@pytest.mark.parametrize("value", [str(cli.MAX_PENCIL_CHAR + 1), "1000000000000000003"])
def test_pencil_refuses_a_characteristic_above_the_bound(capsys, monkeypatch, value):
    # refused before the field's primality test, which is trial division
    monkeypatch.setattr(fields, "PrimeField", None)
    code, out, err = run(capsys, "pencil", "--char", value)
    assert (code, out) == (2, "")
    assert err == f"error: --char {value}: above the bound of {cli.MAX_PENCIL_CHAR}\n"


def test_crossratio_cores(capsys):
    data = run_json(capsys, "crossratio")
    assert len(data["quadratics"]) == 3
    assert data["discriminant_cores"] == [5, 5, 5]


def test_weighted_model_checks(capsys):
    data = run_json(capsys, "weighted-model")
    for i in (2, 3):
        member = data[f"member_{i}"]
        assert member["degree_ok"] is True
        assert member["cusp_support_ok"] is True
        assert member["smooth"] is True


def _pinned_group_5(monkeypatch):
    """Group 5 takes seconds; its pinned values stand in for its computation."""
    expected = verify.expected_values()
    sweep_ids = [cid for cid in expected if cid.startswith("incidence-")]
    groups = tuple(
        (g, (lambda: {cid: expected[cid] for cid in sweep_ids}) if g == 5 else fn)
        for g, fn in verify._GROUPS
    )
    monkeypatch.setattr(verify, "_GROUPS", groups)
    return expected


def test_verify_paper_json_adds_seconds_and_keeps_the_old_keys(capsys, monkeypatch):
    expected = _pinned_group_5(monkeypatch)
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == len(expected) == 39
    by_group = {}
    for entry in data:
        assert list(entry) == ["check_id", "group", "expected", "actual", "status", "seconds"]
        assert entry["status"] == "Pass"
        assert entry["seconds"] >= 0
        by_group.setdefault(entry["group"], set()).add(entry["seconds"])
    # a check reports the time of its whole group
    assert all(len(times) == 1 for times in by_group.values())
    # without the new key, the text is the one written before it existed
    old = [
        {"check_id": o.check_id, "group": o.group, "expected": o.expected,
         "actual": o.actual, "status": o.status}
        for o in verify.run_checks()
    ]
    assert re.sub(r',\n  "seconds": [^\n]*', "", out) == json.dumps(old, indent=1) + "\n"


def test_parser_is_reused_without_leaking_state(capsys):
    # the "=" forms are argparse's to read, so each of these reaches the parser
    assert cli.build_parser() is cli.build_parser()
    narrow = run_json(capsys, "table1", "--n=1..1", "--m=1..1", "--l=1")
    default = run_json(capsys, "table1", "--n=0..2")
    again = run_json(capsys, "table1", "--n=0..2", "--m=1..2", "--l=all")
    assert narrow["count"] < default["count"]
    assert default == again == run_json(capsys, "table1")
    assert run_json(capsys, "lemma42", "[2,4]", "--max-a=1")["max_a"] == 1
    assert run_json(capsys, "lemma42", "--max-a=4", "[2,4]")["max_a"] == 4
    assert run_json(capsys, "lemma42", "[2,4]")["max_a"] == 4


@pytest.mark.parametrize("text", ["9", "0", "1,5", "x", "1,,2", ""])
def test_table1_rejects_l_values_outside_the_families(capsys, text):
    code, out, err = run(capsys, "table1", "--l", text)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: --l {text!r}: ")


def test_table1_l_selects_the_families_with_that_l(capsys):
    every = run_json(capsys, "table1", "--l", "1,2,3,4")
    assert every == run_json(capsys, "table1")
    only_4 = run_json(capsys, "table1", "--l", "4")
    with_l = [i for i in only_4["instances"] if "l" in i["params"]]
    # only families 14 and 15 allow l = 4
    assert {i["family"] for i in with_l} == {14, 15}
    assert all(i["params"]["l"] == 4 for i in with_l)


@pytest.mark.parametrize("max_a", ["0", "-3"])
def test_lemma42_rejects_max_a_below_one(capsys, max_a):
    code, out, err = run(capsys, "lemma42", "[2,4]", "--max-a", max_a)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: --max-a {max_a}: ")


def test_lemma42_bounds_the_number_of_vectors(capsys):
    # C(164, 160) - 1 vectors; refused before any of them is made
    code, out, err = run(capsys, "lemma42", "[2^160]", "--max-a", "4")
    assert code == 2
    assert out == ""
    assert "29051000" in err and str(cli.MAX_SWEEP_VECTORS) in err
    code, _, err = run(capsys, "lemma42", "[2]", "--max-a", str(10**30))
    assert code == 2
    assert "more than 10^18" in err
    # C(41, 36) - 1 = 749 397 is above the bound, C(40, 36) - 1 = 91 389 below
    code, _, err = run(capsys, "lemma42", "[2^36]", "--max-a", "5")
    assert code == 2 and "749397" in err
    assert cli._sweep_size(36, 4) == 91389 <= cli.MAX_SWEEP_VECTORS


def test_lemma42_on_one_vertex_at_the_vector_bound_is_fast(capsys):
    # 100 000 vectors on one vertex: each is one step from the last, so the
    # sweep is linear in --max-a (a sweep keyed by multisets took minutes)
    start = time.perf_counter()
    out = run_json(capsys, "lemma42", "[2]", "--max-a", "100000")
    assert time.perf_counter() - start < 20
    assert len(out["rows"]) == 100000
    assert out["rows"][-1]["incidence"] == [100000]


def test_lemma42_bounds_vectors_times_vertices(capsys):
    # 2000 vectors, far below the vector bound, of 2000 entries each
    code, out, err = run(capsys, "lemma42", "[2^2000]", "--max-a", "1")
    assert code == 2
    assert out == ""
    assert "4000000 cells" in err and str(cli.MAX_SWEEP_CELLS) in err
    # 1000 * 1000 cells sit at the bound, 1001 * 1001 are one row past it
    assert cli._sweep_size(1000, 1) * 1000 == cli.MAX_SWEEP_CELLS
    code, _, err = run(capsys, "lemma42", "[2^1001]", "--max-a", "1")
    assert code == 2 and "1002001 cells" in err
    # the largest sweep the vector bound allows on 6 vertices passes the cell bound
    assert cli._sweep_size(6, 16) * 6 <= cli.MAX_SWEEP_CELLS


def test_lemma42_writes_each_row_while_the_sweep_runs(monkeypatch):
    events = []
    sweep = discrepancy.incidence_sweep

    def watched(g, max_a):
        for row in sweep(g, max_a):
            events.append("vector")
            yield row

    class Out(io.StringIO):
        def write(self, text):
            events.append(text)
            return super().write(text)

    monkeypatch.setattr(discrepancy, "incidence_sweep", watched)
    out = Out()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["lemma42", "[2,3,2]", "--max-a", "3"]) == 0
    rows = json.loads(out.getvalue())["rows"]
    pieces = [i for i, e in enumerate(events) if '"incidence"' in e]
    vectors = [i for i, e in enumerate(events) if e == "vector"]
    assert len(pieces) == len(vectors) == len(rows) == 19
    # row k is written after vector k is made and before vector k + 1 is
    assert all(v < p for v, p in zip(vectors, pieces))
    assert all(p < v for p, v in zip(pieces, vectors[1:]))


def test_lemma42_checks_everything_before_it_writes(capsys, monkeypatch):
    # affine E6 is not negative definite: refused before any output
    code, out, err = run(capsys, "lemma42", "[2;[2,2],[2,2],[2,2]]", "--max-a", "2")
    assert code == 2
    assert out == ""
    assert "not negative definite" in err
    # a negative adjugate entry raises before the first byte, too
    adjugate = discrepancy._adjugate
    monkeypatch.setattr(
        discrepancy, "_adjugate", lambda shape, n: [[-1] * n] + adjugate(shape, n)[1:]
    )
    with pytest.raises(graphs.InvariantError, match="negative coefficient"):
        cli.main(["lemma42", "[2,4]", "--max-a", "2"])
    assert capsys.readouterr().out == ""


def test_lemma42_reports_a_display_that_disagrees(capsys, monkeypatch):
    display = discrepancy._display_scaled
    monkeypatch.setattr(discrepancy, "_display_scaled", lambda *args: display(*args) + 1)
    data = run_json(capsys, "lemma42", "[2,4]", "--max-a", "2")
    assert data["closed_form_matches_solver"] is False


def test_lemma42_rows_of_every_shape(capsys, monkeypatch):
    rows = run_json(capsys, "lemma42", "[2]", "--max-a", "6")["rows"]
    # integer pairings print without a denominator
    assert [r["pairing"] for r in rows] == ["1/2", "2", "9/2", "8", "25/2", "18"]
    assert rows[1]["verdicts"] == ["AlmostLC_a", "AlmostLC_b"]
    rows = run_json(capsys, "lemma42", "[2,3,4]", "--max-a", "3")["rows"]
    assert rows[6]["incidence"] == [1, 0, 1]
    assert {"case": "1b", "verdicts": ["AlmostLC_c"]}.items() <= rows[6].items()
    rows = run_json(capsys, "lemma42", "[3;[2],[2],[2,2]]", "--max-a", "4")["rows"]
    assert {tuple(r) for r in rows} == {
        ("incidence", "pairing"), ("incidence", "pairing", "case", "verdicts")
    }
    # a pattern no case covers has verdicts and no case
    classify = discrepancy._classify

    def uncovered(data, a, support, scaled):
        if len(support) == 2:
            raise discrepancy.UnsupportedConfigurationError("no case")
        return classify(data, a, support, scaled)

    monkeypatch.setattr(discrepancy, "_classify", uncovered)
    code, out, _ = run(capsys, "lemma42", "[2,3,4]", "--max-a", "3")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=1) + "\n"
    row = json.loads(out)["rows"][6]
    assert row == {"incidence": [1, 0, 1], "pairing": row["pairing"], "verdicts": ["Unsupported"]}


def run_or_exit(capsys, *argv):
    """(exit code, stdout, stderr) of main, also when argparse exits."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, flag, value", [
    (("lct", "[2,3]", "--incidence", "\u0663,1"), "--incidence", "\u0663,1"),
    (("lct", "[2,3]", "--incidence", "1_0,1"), "--incidence", "1_0,1"),
    (("table1", "--n", "0..1_0"), "--n", "0..1_0"),
    (("table1", "--n", "\u0663"), "--n", "\u0663"),
    (("table1", "--l", "\u0663"), "--l", "\u0663"),
    (("table1", "--m", " 1..2"), "--m", " 1..2"),
    (("lemma42", "[2,3]", "--max-a", "\u0664"), "--max-a", "\u0664"),
    (("lemma42", "[2,3]", "--max-a", " 4"), "--max-a", " 4"),
    (("pencil", "--char", "\u0667"), "--char", "\u0667"),
    (("pencil", "--char", "1_3"), "--char", "1_3"),
])
def test_integers_are_ascii_digits_with_an_optional_sign(capsys, argv, flag, value):
    # int() reads each of these values: Arabic-Indic digits, "_" and spaces
    code, out, err = run_or_exit(capsys, *argv)
    assert (code, out) == (2, "")
    assert flag in err and repr(value) in err


def test_integer_options_keep_their_messages_and_signs(capsys):
    code, out, err = run_or_exit(capsys, "lemma42", "[2,4]", "--max-a", "x")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --max-a: invalid int value: 'x'\n")
    assert run_or_exit(capsys, "lemma42", "[2,4]", "--max-a=-1")[2] == (
        "error: --max-a -1: must be at least 1\n")
    assert run_json(capsys, "lemma42", "[2,4]", "--max-a", "+2")["max_a"] == 2
    assert run_json(capsys, "pencil", "--char", "05")["characteristic"] == 5


_COMMAND_NAMES = list(cli._COMMANDS)
_FLAGS = sorted({flag for _, _, options in cli._COMMANDS.values() for flag in options})
_WORDS = _COMMAND_NAMES + _FLAGS + [
    "--max-a=2", "--n=0..3", "--json=1", "--max", "--inc", "--ch", "-h", "--help", "--", "-",
    "4", "07", "-1", "+4", "\u0664", "1_0", " 4", "", "0", "1,2", "-1,2", "0..3", "1..2", "all",
    "[2,4]", "[3]", "2[2^4]+[3]", "[2;[2],[3],[5]]",
]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_WORDS), max_size=7)
       | st.builds(lambda name, rest: [name, *rest], st.sampled_from(_COMMAND_NAMES),
                   st.lists(st.sampled_from(_WORDS), max_size=6)))
def test_the_plain_path_reads_what_argparse_reads(argv):
    plain = cli._plain_args(argv)
    if plain is not None:
        parsed = vars(cli.build_parser().parse_args(argv))
        typed = {k: (type(v), v) for k, v in vars(plain).items()}
        assert typed == {k: (type(v), v) for k, v in parsed.items()}


@pytest.mark.parametrize("argv", [
    ["lemma42", "[2,4]", "--max-a=2"],
    ["lemma42", "[2,4]", "--max", "2"],
    ["lemma42", "--max-a", "2", "[2,4]"],
])
def test_other_spellings_are_left_to_argparse(capsys, argv):
    assert cli._plain_args(argv) is None
    assert cli._plain_args(["lemma42", "[2,4]", "--max-a", "2"]) is not None
    assert run(capsys, *argv) == run(capsys, "lemma42", "[2,4]", "--max-a", "2")


# -- the JSON writer ------------------------------------------------------------

_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=False, allow_infinity=False)
    # any code point but surrogates: non-ASCII and control characters
    | st.text()
)
_documents = st.recursive(
    _scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=25,
)


def _emitted(data):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(data)
    return buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_the_writer_matches_json_dumps(data):
    expected = json.dumps(data, indent=1)
    assert cli._encode(data, "\n") == expected
    assert _emitted(data) == expected + "\n"


@pytest.mark.parametrize("data", [
    Fraction(1, 2),
    {"e": [Fraction(1, 2)]},
    [{1, 2}],
    {1: "a"},
    {"rows": [{"incidence": [0, 1], (0, 1): "key"}]},
    {"seconds": math.inf},
    [math.nan],
])
def test_the_writer_refuses_what_json_dumps_would_not_write_the_same(data):
    with pytest.raises(TypeError):
        cli._encode(data, "\n")
    with pytest.raises(TypeError):
        _emitted(data)


@pytest.mark.parametrize("argv", [
    ["parse", "[2,4]+[3;[2],[2],[2,2]]"],
    ["det", "[2,2,2,2]+[2,4]"],
    ["report", "2[2^4]+[2,4]"],
    ["report", "[2^3]"],
    ["lct", "[3;[2],[2],[3]]", "--incidence", "1,0,0,2"],
    ["lemma42", "[3;[2],[2],[2]]", "--max-a", "2"],
    ["lemma42", "[2]", "--max-a", "6"],
    ["lemma42", "[3;[2],[2],[2,2]]", "--max-a", "4"],
    ["lemma42", "[2,3,4]", "--max-a", "3"],
    ["hunt", "[3;[2],[2],[5]]"],
    ["table1"],
    ["pencil", "--char", "7"],
    ["crossratio"],
    ["weighted-model"],
])
def test_output_is_json_dumps_with_indent_one(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=1) + "\n"


def test_verify_paper_json_is_json_dumps_with_indent_one(capsys, monkeypatch):
    _pinned_group_5(monkeypatch)
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=1) + "\n"
