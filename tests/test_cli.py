"""CLI behavior: output schemas, exit codes, determinism."""

import argparse
import dataclasses
import importlib
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from centrel import (FamilySpec, Graph, all_pairs, check_all, generate,
                     read_edge_list_text, read_json_graph, to_edge_list_text)
from centrel.centralities import CentralityReport
from centrel.cli import COMMANDS, main
from centrel.graphs import GraphFormatError, PreconditionError
from centrel.neighborhood import NeighborhoodProfile


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_family_json(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "windmill",
                           "--params", "2,3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["graph"] == {"source": "windmill(2,3)", "n": 5, "m": 6}
        gl = payload["graph_level"]
        assert gl["avg_clustering"]["exact"] == "13/15"
        assert gl["global_clustering"]["exact"] == "3/5"
        assert gl["local_efficiency"]["exact"] == "14/15"
        assert gl["diameter"] == 2
        hub = payload["vertices"][0]
        assert hub["degree"] == 4 and hub["stress"] == 8

    def test_complete_human(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "complete",
                           "--params", "4")
        assert code == 0
        assert "avg_clustering     1 (1)" in out
        assert "local_efficiency   1 (1)" in out
        assert "diameter           1 (1)" in out

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "c5.edges"
        path.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
        code, out, _ = run(capsys, "compute", "--input", str(path),
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        gl = payload["graph_level"]
        assert gl["avg_clustering"]["exact"] == "0"
        assert gl["avg_path_length"]["exact"] == "3/2"
        assert all(v["betweenness"]["exact"] == "2" for v in payload["vertices"])

    def test_labeled_input(self, capsys, tmp_path):
        path = tmp_path / "lab.edges"
        path.write_text("alice bob\nbob carol\ncarol alice\n")
        code, out, _ = run(capsys, "compute", "--input", str(path),
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [v["label"] for v in payload["vertices"]] == \
            ["alice", "bob", "carol"]

    def test_betweenness_always_exact(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "random-min-degree-2",
                           "--params", "40", "--seed", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(set(v["betweenness"]) == {"exact", "value"}
                   for v in payload["vertices"])

    def test_float_mode(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "cycle",
                           "--params", "5", "--format", "json", "--float")
        assert code == 0
        payload = json.loads(out)
        assert payload["graph_level"]["avg_path_length"] == 1.5

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "cycle",
                           "--params", "5", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "scope,metric,value"
        assert "graph,avg_path_length,1.5" in lines
        assert "vertex:0,betweenness,2" in lines

    @pytest.mark.parametrize("name, clean, duplicated", [
        ("g.edges", "0 1\n1 2\n2 0\n", "0 1\n1 0\n1 2\n2 0\n2 0\n"),
        ("g.json", '{"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}',
         '{"n": 3, "edges": [[0, 1], [1, 2], [2, 0], [2, 1]]}'),
    ])
    def test_duplicate_edges_warned_on_stderr(self, capsys, tmp_path, name, clean,
                                             duplicated):
        path = tmp_path / name
        path.write_text(clean)
        code, expected, err = run(capsys, "compute", "--input", str(path))
        assert (code, err) == (0, "")
        path.write_text(duplicated)
        code, out, err = run(capsys, "compute", "--input", str(path))
        assert (code, out) == (0, expected)
        assert err == f"warning: {path}: duplicate edges collapsed\n"

    def test_complete_2_reports_like_a_k2_file(self, capsys, tmp_path):
        code, out, _ = run(capsys, "compute", "--family", "complete", "--params",
                           "2", "--format", "json")
        assert code == 0
        family = json.loads(out)
        path = tmp_path / "k2.edges"
        path.write_text("0 1\n")
        code, out, _ = run(capsys, "compute", "--input", str(path), "--format", "json")
        assert code == 0
        file = json.loads(out)
        for key in ("vertices", "graph_level"):
            assert family[key] == file[key]

    def test_disconnected_exit_3(self, capsys, tmp_path):
        path = tmp_path / "two.edges"
        path.write_text("0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n")
        code, _, err = run(capsys, "compute", "--input", str(path))
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("command", ["compute", "check", "oracle-diff"])
    @pytest.mark.parametrize("family,params", [("hypercube", "40"),
                                               ("complete", "20001")])
    def test_oversized_family_refused_before_it_is_built(
            self, capsys, unbuildable, command, family, params):
        unbuildable(family)
        code, out, err = run(capsys, command, "--family", family, "--params", params)
        assert code == 3 and out == ""
        assert "too large for the exact all-pairs analysis" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "--input", "/no/such/file")
        assert code == 2

    def test_bad_family_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "moebius",
                           "--params", "5")
        assert code == 2

    def test_requires_one_source(self, capsys):
        code, _, err = run(capsys, "compute")
        assert code == 2

    def test_bad_parameter_list_exit_2(self, capsys):
        assert run(capsys, "compute", "--family", "cycle", "--params", "5,x") == (
            2, "", "error: bad parameter list '5,x': "
                   "invalid literal for int() with base 10: 'x'\n")

    @pytest.mark.parametrize("text", [
        '{"n": 3, "edges": [[true, 2], [0, 2]]}',
        '{"n": 3, "edges": [[0, 1], [1, false]]}',
        '{"n": true, "edges": [[0, 1]]}',
    ])
    def test_json_bool_rejected_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "g.json"
        path.write_text(text)
        code, out, err = run(capsys, "compute", "--input", str(path))
        assert code == 2
        assert out == "" and "error" in err

    @pytest.mark.parametrize("edges", ["5", '"0 1"', '{"0": 1}', "null"])
    def test_json_edges_not_a_list_exit_2(self, capsys, tmp_path, edges):
        path = tmp_path / "g.json"
        path.write_text('{"n": 3, "edges": %s}' % edges)
        code, out, err = run(capsys, "compute", "--input", str(path))
        assert code == 2
        assert "edges" in err

    @pytest.mark.parametrize("name, data", [
        ("bad.edges", b"\xff\xfe0 1\n"),
        ("bad.json", b'{"n": 3, "edges": [[0, 1]], "x": "\xe9"}'),
        ("deep.json", b"[" * 100_000),
        ("long-int.json", b'{"n": ' + b"1" * 5000 + b', "edges": []}'),
    ], ids=["non-utf8-edges", "non-utf8-json", "deep-json", "long-int-json"])
    def test_undecodable_or_unparsable_exit_2(self, capsys, tmp_path, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = run(capsys, "compute", "--input", str(path))
        assert code == 2
        assert out == "" and "error" in err

    @pytest.mark.parametrize("name, text", [("one.edges", "n=1\n"),
                                            ("one.json", '{"n": 1, "edges": []}')])
    def test_single_vertex_exit_3(self, capsys, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, "compute", "--input", str(path))
        assert code == 3
        assert out == "" and "at least 2 vertices" in err

    def test_float_human_renders_every_value_as_float(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "windmill",
                           "--params", "2,3", "--float")
        assert code == 0
        assert "/" not in out
        assert "     0    4 0.333333333333" in out

    @pytest.mark.parametrize("args, n", [
        (("windmill", "--params", "2,3", "--float"), 5),
        # vertex 12's betweenness 3291907/90090 is wider than its column
        (("random-min-degree-2", "--params", "16", "--seed", "4"), 16),
    ], ids=["float", "exact"])
    def test_human_table_aligned(self, capsys, args, n):
        code, out, _ = run(capsys, "compute", "--family", *args)
        table = out.split("per-vertex:\n", 1)[1].splitlines()
        assert code == 0 and len(table) == n + 1
        assert [len(row) for row in table[1:]] == [len(table[0])] * n

    @pytest.mark.parametrize("name, text", [
        ("header.edges", "n=20001\n"),
        ("labels.edges", "".join(f"{i} {i + 1}\n" for i in range(20000))),
        ("big.json", '{"n": 20001, "edges": []}'),
    ], ids=["n-header-edges", "labeled-edges", "json"])
    def test_size_cap_exit_3_with_the_family_message(self, capsys, tmp_path,
                                                     name, text):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, "compute", "--input", str(path))
        assert (code, out) == (3, "")
        assert err == run(capsys, "compute", "--family", "cycle",
                          "--params", "20001")[2]


@pytest.mark.parametrize("command", ["compute", "check", "oracle-diff"])
@pytest.mark.parametrize("family, n", [
    (("windmill", "--params", "3,4"), 10),
    (("random-min-degree-2", "--params", "20", "--seed", "3"), 20),
], ids=["windmill", "random"])
def test_one_clustering_pass_per_command(capsys, monkeypatch, command, family, n):
    # the report's and every checker's clustering values share one pass;
    # each module that binds the kernel counts, so a second pass anywhere fails
    import centrel.centralities as cents
    import centrel.relations as relations
    calls = []
    kernel = cents.prefix_clusterings

    def counted(g, sizes):
        calls.append(list(sizes))
        return kernel(g, sizes)

    for module in (cents, relations):
        monkeypatch.setattr(module, "prefix_clusterings", counted)
    code, _, _ = run(capsys, command, "--family", *family)
    assert (code, calls) == (0, [[n]])


class TestCheck:
    def test_windmill_all_hold(self, capsys):
        code, out, _ = run(capsys, "check", "--family", "windmill",
                           "--params", "3,4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_hold"] is True
        by_id = {r["relation"]: r for r in payload["relations"]}
        assert by_id["thm3"]["equality_expected"] is True
        assert by_id["thm3"]["equality_observed"] is True

    def test_complete_identities(self, capsys):
        code, out, _ = run(capsys, "check", "--family", "complete",
                           "--params", "6")
        assert code == 0
        assert "all relations hold" in out

    def test_random_input_graph(self, capsys, tmp_path):
        code, out, _ = run(capsys, "generate", "--family",
                           "random-min-degree-2", "--params", "18", "--seed",
                           "5", "--output", str(tmp_path / "r.edges"))
        assert code == 0
        code, out, _ = run(capsys, "check", "--input",
                           str(tmp_path / "r.edges"))
        assert code == 0

    def test_pendant_refused_then_overridden(self, capsys, tmp_path):
        path = tmp_path / "path3.edges"
        path.write_text("0 1\n1 2\n")
        code, _, err = run(capsys, "check", "--input", str(path))
        assert code == 3
        code, out, _ = run(capsys, "check", "--input", str(path),
                           "--allow-pendant")
        assert code == 4  # conventions break some bounds; reported honestly
        assert "VIOLATED" in out

    def test_complete_2_refused_then_ends_like_a_k2_file(self, capsys, tmp_path):
        argv = ("check", "--family", "complete", "--params", "2")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "degree < 2" in err
        path = tmp_path / "k2.edges"
        path.write_text("0 1\n")
        for source in (argv[1:], ("--input", str(path))):
            code, out, err = run(capsys, "check", *source, "--allow-pendant")
            assert (code, out) == (3, "")
            assert err == "error: global clustering undefined: no vertex of degree >= 2\n"

    def test_single_vertex_with_pendant_override_exit_3(self, capsys, tmp_path):
        path = tmp_path / "one.edges"
        path.write_text("n=1\n")
        code, out, err = run(capsys, "check", "--allow-pendant", "--input",
                             str(path))
        assert (code, out) == (3, "")
        assert err == "error: the all-pairs analysis needs at least 2 vertices (n=1)\n"

    def test_float_human(self, capsys):
        code, out, _ = run(capsys, "check", "--family", "windmill",
                           "--params", "2,3", "--float")
        assert code == 0
        values = [line for line in out.splitlines() if "note:" not in line]
        assert not any("/" in line for line in values)
        assert "lhs=0.866666666667" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "check", "--family", "cycle",
                           "--params", "6", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("relation,direction,lhs,rhs,holds,slack")


class TestGenerate:
    def test_stdout_edges(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "cycle",
                           "--params", "4")
        assert code == 0
        assert out == "n=4\n0 1\n0 3\n1 2\n2 3\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "complete",
                           "--params", "3", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}

    def test_round_trip_through_file(self, capsys, tmp_path):
        dest = tmp_path / "wm.edges"
        code, out, _ = run(capsys, "generate", "--family", "windmill",
                           "--params", "2,3", "--output", str(dest))
        assert code == 0 and "wrote windmill(2,3)" in out
        code, out, _ = run(capsys, "compute", "--input", str(dest),
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["graph_level"]["avg_clustering"]["exact"] == "13/15"

    def test_missing_family_exit_2(self, capsys):
        code, _, _ = run(capsys, "generate", "--params", "4")
        assert code == 2

    @pytest.mark.parametrize("family,params", [("hypercube", "40"),
                                               ("complete", "20001")])
    def test_oversized_family_refused_before_it_is_built(
            self, capsys, unbuildable, tmp_path, family, params):
        unbuildable(family)
        path = tmp_path / "g.edges"
        code, out, err = run(capsys, "generate", "--family", family,
                             "--params", params, "--output", str(path))
        assert code == 3 and out == "" and not path.exists()
        assert "too large for the exact all-pairs analysis" in err

    @pytest.mark.parametrize("family, params, message", [
        ("complete", "1", "complete(n) needs n >= 2"),
        ("cycle", "2", "cycle(n) needs n >= 3"),
        ("circulant", "2,1", "circulant(n, ...) needs n >= 3"),
        ("circulant", "6,4", "circulant offsets must lie in [1, n/2]"),
        ("hypercube", "1", "hypercube(d) needs d >= 2 for minimum degree 2"),
        ("random-min-degree-2", "2", "random-min-degree-2(n) needs n >= 3"),
        ("random-min-degree-2", "5",
         "could not sample a connected min-degree-2 graph on 5 vertices in 0 tries"),
    ])
    def test_builder_refusal_exit_2(self, capsys, monkeypatch, family, params, message):
        # no draws allowed, so that the sampler gives up at once
        monkeypatch.setattr("centrel.graphs._MAX_TRIES", 0)
        seed = ("--seed", "1") if family == "random-min-degree-2" else ()
        assert (run(capsys, "generate", "--family", family, "--params", params, *seed)
                == (2, "", f"error: {message}\n"))


class TestSweep:
    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "windmill",
                           "--params", "3,2,10")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "eta,avg_clustering,global_clustering,difference"
        assert len(lines) == 1 + 9 + 1
        assert lines[-1].startswith("# trend:")
        assert "strictly increasing: true" in lines[-1]
        assert "strictly decreasing: true" in lines[-1]

    def test_eta_one_warns(self, capsys):
        code, out, err = run(capsys, "sweep", "--family", "windmill",
                             "--params", "3,1,4")
        assert code == 0
        assert "warning" in err

    def test_json_trends(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "windmill",
                           "--params", "4,2,8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["avg_strictly_increasing"] is True
        assert payload["glob_strictly_decreasing"] is True
        assert payload["rows"][0]["eta"] == 2

    def test_non_windmill_rejected(self, capsys):
        code, _, _ = run(capsys, "sweep", "--family", "cycle", "--params", "5")
        assert code == 2

    def test_bad_parameters_exit_2(self, capsys):
        assert run(capsys, "sweep", "--params", "3,x") == (
            2, "", "error: bad sweep parameters: invalid literal for int() with base 10: 'x'\n")

    def test_bad_params_exit_2(self, capsys):
        for params in ("3,x", "2,2,10", "3,9,4"):
            code, _, _ = run(capsys, "sweep", "--family", "windmill",
                             "--params", params)
            assert code == 2, params

    @pytest.mark.parametrize("params", [(), ("--params", "3,2,5,9")], ids=["none", "four"])
    def test_parameter_count_refused(self, capsys, params):
        assert run(capsys, "sweep", *params) == (
            2, "", "error: sweep --params takes k[,eta_max] or k,eta_min,eta_max\n")

    @pytest.mark.parametrize("params, n", [("3,2,100000000", 200000001),
                                           ("5,2,5000", 20001)])
    def test_oversized_sweep_refused_before_any_graph_is_built(
            self, capsys, unbuildable, params, n):
        unbuildable("windmill")
        code, out, err = run(capsys, "sweep", "--params", params)
        assert code == 3 and out == ""
        assert f"too large for the exact all-pairs analysis (n={n} > 20000)" in err


class TestUnreadFlags:
    @pytest.mark.parametrize("argv", [
        ("sweep", "--params", "3,2,5", "--input", "no-such-file.edges"),
        ("sweep", "--params", "3,2,5", "--seed", "1"),
        ("sweep", "--params", "3,2,5", "--allow-pendant"),
        ("sweep", "--params", "3,2,5", "--format", "human"),
        ("generate", "--family", "cycle", "--params", "4", "--input", "g.edges"),
        ("oracle-diff", "--family", "cycle", "--params", "5", "--cap", "6"),
        ("compute", "--family", "cycle", "--params", "4", "--allow-pendant"),
        ("generate", "--family", "cycle", "--params", "4", "--allow-pendant"),
        ("oracle-diff", "--family", "cycle", "--params", "4", "--allow-pendant"),
    ])
    def test_rejected_by_the_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice" in err

    @pytest.mark.parametrize("command", ["compute", "check", "oracle-diff"])
    @pytest.mark.parametrize("flags", [("--params", "3"), ("--seed", "2"),
                                       ("--params", "3", "--seed", "2")])
    def test_family_flags_refused_with_input(self, capsys, tmp_path, command, flags):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 2\n2 0\n")
        assert run(capsys, command, "--input", str(path))[0] == 0
        code, out, err = run(capsys, command, "--input", str(path), *flags)
        assert (code, out) == (2, "")
        assert "apply to --family, not --input" in err

    @pytest.mark.parametrize("command", ["compute", "check", "generate", "oracle-diff"])
    @pytest.mark.parametrize("family, params", [("cycle", "4"), ("hypercube", "3")])
    def test_seed_refused_with_a_deterministic_family(self, capsys, command,
                                                      family, params):
        argv = (command, "--family", family, "--params", params)
        assert run(capsys, *argv)[0] == 0
        code, out, err = run(capsys, *argv, "--seed", "2")
        assert (code, out) == (2, "")
        assert err == f"error: --seed applies to random-min-degree-2 only, not {family}\n"

    @pytest.mark.parametrize("command", ["compute", "check", "generate", "oracle-diff"])
    def test_seed_required_by_the_random_family(self, capsys, command):
        argv = (command, "--family", "random-min-degree-2", "--params", "12")
        assert run(capsys, *argv, "--seed", "1")[0] == 0
        assert run(capsys, *argv) == (2, "", "error: random-min-degree-2 needs --seed\n")

    @pytest.mark.parametrize("flag", ["--exact", "--float"])
    @pytest.mark.parametrize("argv", [
        ("compute", "--family", "cycle", "--params", "5", "--format", "csv"),
        ("check", "--family", "cycle", "--params", "5", "--format", "csv"),
        ("sweep", "--family", "windmill", "--params", "3,2,5"),
    ])
    def test_format_flag_rejected_with_csv(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--format csv" in err


# exit code, stdout and stderr of the command lines (80 columns), recorded
# while the whole parser tree was built on each call: the first ten when
# every command got its options, the rest when the invoked one alone did
PARITY = json.loads((Path(__file__).parent / "cli_parity.json").read_text(encoding="utf-8"))


class TestParser:
    @pytest.mark.parametrize("command", list(PARITY))
    def test_help_usage_and_errors_unchanged(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "90")  # one wrapping on CPython 3.10-3.13
        try:
            code = main(command.split())
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert {"exit": code, "stdout": out, "stderr": err} == PARITY[command]

    @pytest.fixture
    def built(self, monkeypatch):
        """The prog of every parser constructed, then the first name of every
        option added, in order."""
        progs, names = [], []
        real_init = argparse.ArgumentParser.__init__
        real_add = argparse._ActionsContainer.add_argument

        def init(parser, *args, **kwargs):
            real_init(parser, *args, **kwargs)
            progs.append(parser.prog)

        def add_argument(container, *option_names, **kwargs):
            names.append(option_names[0])
            return real_add(container, *option_names, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", add_argument)
        return progs, names

    def test_only_the_invoked_command_gets_options(self, capsys, built):
        assert main(["sweep", "--family", "windmill", "--params", "3,2,5",
                     "--format", "json"]) == 0
        json.loads(capsys.readouterr().out)
        # one parser, sweep's, and no top level
        assert built == (["centrel sweep"],
                         ["-h", "--family", "--params", "--format", "--exact", "--float"])

    def test_leftover_arguments_build_the_full_tree(self, built):
        with pytest.raises(SystemExit) as exc:  # its bytes are a parity pin
            main(["check", "--bogus"])
        assert exc.value.code == 2
        rendered = ["--format", "--exact", "--float"]
        options = {
            "compute": ["-h", "--input", "--family", "--params", "--seed", *rendered],
            "check": ["-h", "--input", "--family", "--params", "--seed", *rendered,
                      "--allow-pendant"],
            "generate": ["-h", "--family", "--params", "--seed", "--format", "--output"],
            "sweep": ["-h", "--family", "--params", *rendered],
            "oracle-diff": ["-h", "--input", "--family", "--params", "--seed"],
        }
        # check's parser, then the top level and one parser per command, each
        # with its options
        assert built == (["centrel check", "centrel", *(f"centrel {name}" for name in COMMANDS)],
                         [*options["check"], "-h",
                          *(option for name in COMMANDS for option in options[name])])

    @pytest.mark.parametrize("command", ["compute", "check", "sweep"])
    def test_bogus_top_level_option_ends_in_the_commands_usage_error(
            self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        errors = []
        for argv in ([command, "--format", "xml"], ["--bogus", command, "--format", "xml"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            errors.append(err)
        # the full tree speaks, through the invoked command's own parser
        assert errors[1] == errors[0]
        assert errors[1].startswith(f"usage: centrel {command} [-h]")
        assert f"centrel {command}: error: argument --format: invalid choice" in errors[1]


def move_hub_betweenness(report):
    """Moves vertex 0's betweenness by 1/7, the hub's in a windmill."""
    report.betweenness[0] += Fraction(1, 7)
    return report


def move_hub_neighborhood_betweenness(profiles):
    """Moves vertex 0's BC(i, N(i)) by 1/7."""
    hub = profiles[0]
    profiles[0] = dataclasses.replace(hub, betweenness=hub.betweenness + Fraction(1, 7))
    return profiles


def moved_up(counter, key):
    """A copy of ``counter`` with one count moved from ``key`` to ``key + 1``."""
    moved = Counter(counter)
    moved[key] -= 1
    moved[key + 1] += 1
    return moved


# Analysis field -> the smallest natural step on vertex 0's entry, and the
# oracle-diff mismatch labels (indices dropped) that it must cause
ANALYSIS_FAULTS = {
    "row_sums": (lambda x: x + 1, {"avg_path_length", "closeness"}),
    "hists": (lambda h: moved_up(h, 1), {"global_efficiency", "radiality"}),
    "pair_hists": (lambda h: moved_up(h, max(h)),
                   {"local_efficiency", "neighborhood.avg_path",
                    "neighborhood.diameter", "neighborhood.radiality"}),
    "pair_sums": (lambda h: moved_up(h, min(h)), {"neighborhood.closeness"}),
    "detours": (lambda h: moved_up(h, min(h)), {"neighborhood.betweenness"}),
    "betweenness": (lambda x: x + Fraction(1, 7), {"betweenness"}),
    "stress": (lambda x: x + 1, {"stress"}),
}


class TestOracleDiff:
    def test_match(self, capsys):
        code, out, _ = run(capsys, "oracle-diff", "--family", "windmill",
                           "--params", "2,3")
        assert code == 0
        assert "identical" in out

    def test_oracle_limit_exceeded(self, capsys, monkeypatch):
        # refused before the fast pass, which would be wasted
        import centrel.cli as cli
        monkeypatch.setattr(cli, "all_pairs", lambda g: pytest.fail("fast pass ran"))
        code, out, err = run(capsys, "oracle-diff", "--family", "cycle",
                             "--params", "301")
        assert (code, out) == (3, "")
        assert "n=301 > 300" in err

    def test_family_past_the_oracle_limit_refused_before_it_is_built(
            self, capsys, unbuildable):
        unbuildable("random-min-degree-2")
        code, out, err = run(capsys, "oracle-diff", "--family", "random-min-degree-2",
                             "--params", "2000", "--seed", "1")
        assert code == 3 and out == ""
        assert "graph too large for the oracle (n=2000 > 300)" in err

    @pytest.mark.parametrize("target, plant, line", [
        ("centrel.cli.compute_report", move_hub_betweenness,
         "betweenness[0]: fast=57/7 oracle=8"),
        ("centrel.cli.profiles", move_hub_neighborhood_betweenness,
         "neighborhood.betweenness[0]: fast=57/7 oracle=8"),
        ("centrel.oracle.oracle_measures", move_hub_betweenness,
         "betweenness[0]: fast=8 oracle=57/7"),
    ], ids=["fast-vertex-field", "fast-neighborhood-field", "oracle-side"])
    def test_planted_fault_is_a_mismatch(self, capsys, monkeypatch, target, plant, line):
        module, name = target.rsplit(".", 1)
        real = getattr(importlib.import_module(module), name)
        monkeypatch.setattr(target, lambda arg: plant(real(arg)))
        code, out, err = run(capsys, "oracle-diff", "--family", "windmill",
                             "--params", "2,3")
        assert (code, err) == (4, "")
        assert out == f"graph windmill(2,3): 1 mismatches\n  {line}\n"

    @pytest.mark.parametrize("field", ANALYSIS_FAULTS)
    @pytest.mark.parametrize("family", [
        ("windmill", "--params", "2,3"),
        ("random-min-degree-2", "--params", "10", "--seed", "3"),
    ], ids=["windmill", "random"])
    def test_every_analysis_field_fault_is_a_mismatch(self, capsys, monkeypatch,
                                                      family, field):
        import centrel.cli as cli
        plant, labels = ANALYSIS_FAULTS[field]
        real = cli.all_pairs

        def corrupted(g):
            an = real(g)
            values = list(getattr(an, field))  # orbit members share entries
            values[0] = plant(values[0])
            return dataclasses.replace(an, **{field: values})

        monkeypatch.setattr(cli, "all_pairs", corrupted)
        code, out, err = run(capsys, "oracle-diff", "--family", *family)
        assert (code, err) == (4, "")
        lines = out.splitlines()[1:]
        assert {line.split(":")[0].split("[")[0].strip() for line in lines} == labels

    @pytest.mark.parametrize("label", [
        *(f"{name}[0]" for name in CentralityReport.FIELDS_PER_VERTEX),
        *CentralityReport.FIELDS_GRAPH,
        *(f"neighborhood.{name}[0]" for name in NeighborhoodProfile.FIELDS),
    ])
    def test_every_oracle_field_fault_is_a_mismatch(self, capsys, monkeypatch, label):
        # the mirror case: one field wrong on the oracle side, at vertex 0 if per vertex
        import centrel.oracle as oracle
        name = label.removeprefix("neighborhood.").removesuffix("[0]")

        def plant(x):
            return not x if isinstance(x, bool) else x + 1

        def measures(g):
            rep = real_measures(g)
            if name in CentralityReport.FIELDS_GRAPH:
                return dataclasses.replace(rep, **{name: plant(getattr(rep, name))})
            values = list(getattr(rep, name))
            values[0] = plant(values[0])
            return dataclasses.replace(rep, **{name: values})

        def neighborhood_profiles(g):
            found = real_profiles(g)
            found[0] = dataclasses.replace(found[0], **{name: plant(getattr(found[0], name))})
            return found

        real_measures, real_profiles = (oracle.oracle_measures,
                                        oracle.oracle_neighborhood_profiles)
        if label.startswith("neighborhood."):
            monkeypatch.setattr(oracle, "oracle_neighborhood_profiles", neighborhood_profiles)
        else:
            monkeypatch.setattr(oracle, "oracle_measures", measures)
        code, out, err = run(capsys, "oracle-diff", "--family", "windmill", "--params", "2,3")
        assert (code, err) == (4, "")
        head, line = out.splitlines()
        assert head == "graph windmill(2,3): 1 mismatches"
        assert line.split(":")[0].strip() == label

    def test_agrees_on_hypercube_5(self, capsys):
        code, out, _ = run(capsys, "oracle-diff", "--family", "hypercube",
                           "--params", "5")
        assert code == 0
        assert "identical (32 vertices)" in out

    @pytest.mark.parametrize("text, message", [
        ("n=1\n", "the all-pairs analysis needs at least 2 vertices (n=1)"),
        ("0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n",
         "vertex 0 cannot reach every vertex; distance sums undefined"),
    ])
    def test_refused_by_the_analysis_first(self, capsys, tmp_path, text, message):
        path = tmp_path / "g.edges"
        path.write_text(text)
        code, out, err = run(capsys, "oracle-diff", "--input", str(path))
        assert (code, out) == (3, "")
        assert err == f"error: {message}\n"


def one_more_link_at_vertex_0(g, rows, local):
    """Vertex 0's local clustering moved by 2/(d(d-1)), as one more link among
    its neighbours would move it, and the average clustering with it."""
    d = g.degree(0)
    [(average, glob)] = rows
    (links, pairs), *rest = local  # links counted twice
    return [(average + Fraction(2, d * (d - 1)) / g.n, glob)], [(links + 2, pairs), *rest]


def one_more_triangle(g, rows, local):
    """The global clustering raised by 6 / sum d(d-1), as one more triangle would."""
    [(average, glob)] = rows
    return [(average, glob + Fraction(6, sum(d * (d - 1) for d in g.degrees())))], local


# Seeded random min-degree-2 graphs at four sizes and three seeds, and four
# family graphs: every relation holds on each of them
CHECK_CORPUS = [FamilySpec("random-min-degree-2", (n,), seed=seed)
                for n in (10, 17, 24, 30) for seed in (1, 2, 3)] + [
    FamilySpec("windmill", (3, 4)), FamilySpec("hypercube", (3,)),
    FamilySpec("circulant", (12, 1, 3)),
    FamilySpec("complete-with-glued-4-cycles", (4,))]

# planted fault -> (graphs of the 16 on which `check` fails, relation -> the
# graphs on which it fails).  oracle-diff catches each Analysis fault
# (TestOracleDiff), so the zeros are faults that only the oracle sees.  The
# checkers read vertex 0's entry for its whole orbit, so on the two
# vertex-transitive graphs (hypercube(3), circulant(12,1,3)) a row-sum fault
# moves every closeness and fails lemma2 as well.
CHECK_CATCHES = {
    "betweenness": (0, {}),
    "stress": (0, {}),
    "detours": (0, {}),
    "pair_sums": (2, {"thm4": 2}),
    "row_sums": (16, {"lemma3": 16, "lemma2": 2}),
    "hists": (16, {"lemma3": 16}),
    "pair_hists": (16, {"lemma1": 16, "thm1": 16, "thm5": 16, "cor_sandwich": 1}),
    "local_clustering": (16, {"lemma1": 16, "thm1": 16, "thm5": 16, "thm3": 1,
                              "thm4": 2, "cor_regular": 2}),
    "global_clustering": (2, {"cor_regular": 2}),
}
CLUSTERING_FAULTS = {"local_clustering": one_more_link_at_vertex_0,
                     "global_clustering": one_more_triangle}


class TestCheckCatches:
    """What `check` catches of one planted fault, on vertex 0 or the whole
    graph.  Global betweenness enters no relation, so `check` builds its own
    pass without it and a planted betweenness fault moves nothing; stress
    and the detours enter only bounds with slack, so `check` passes those
    silently too.  The planted Analysis stands in for `check_all`'s pass."""

    @pytest.fixture(scope="class")
    def corpus(self):
        analyses = [all_pairs(generate(spec)) for spec in CHECK_CORPUS]
        assert all(r.holds for an in analyses for r in check_all(an.g))
        return analyses

    @pytest.mark.parametrize("fault", CHECK_CATCHES)
    def test_planted_fault(self, monkeypatch, corpus, fault):
        import centrel.centralities as cents
        import centrel.relations as relations
        kernel = cents.prefix_clusterings
        if fault in CLUSTERING_FAULTS:
            plant = CLUSTERING_FAULTS[fault]
            monkeypatch.setattr(cents, "prefix_clusterings",
                                lambda g, sizes: plant(g, *kernel(g, sizes)))
        caught, failed = 0, Counter()
        for an in corpus:
            if fault in ANALYSIS_FAULTS:
                values = list(getattr(an, fault))  # orbit members share entries
                values[0] = ANALYSIS_FAULTS[fault][0](values[0])
                an = dataclasses.replace(an, **{fault: values})
            else:
                an = dataclasses.replace(an)  # an empty memo: the planted pass runs
            monkeypatch.setattr(relations, "all_pairs", lambda g, **_: an)
            relations_failed = {r.relation for r in check_all(an.g) if not r.holds}
            caught += bool(relations_failed)
            failed.update(relations_failed)
        assert (caught, dict(failed)) == CHECK_CATCHES[fault]


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("compute", "--family", "random-min-degree-2", "--params", "14",
         "--seed", "9", "--format", "json"),
        ("check", "--family", "windmill", "--params", "3,3",
         "--format", "csv"),
        ("sweep", "--family", "windmill", "--params", "3,2,12"),
    ])
    def test_byte_stable(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


def compute_json(capsys, path):
    code, out, _ = run(capsys, "compute", "--input", str(path), "--format", "json")
    assert code == 0
    return json.loads(out)


class TestMetamorphic:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_relabeling_permutes_vertex_values(self, capsys, tmp_path, seed):
        g = generate(FamilySpec("random-min-degree-2", (11,), seed=seed))
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        h = Graph([(perm[i], perm[j]) for i, j in g.edges()], g.n)
        (tmp_path / "g.edges").write_text(to_edge_list_text(g))
        (tmp_path / "h.edges").write_text(to_edge_list_text(h))
        a = compute_json(capsys, tmp_path / "g.edges")
        b = compute_json(capsys, tmp_path / "h.edges")
        assert a["graph_level"] == b["graph_level"]
        for i, v in enumerate(a["vertices"]):
            w = b["vertices"][perm[i]]
            assert {k: x for k, x in v.items() if k not in ("vertex", "label")} == \
                {k: x for k, x in w.items() if k not in ("vertex", "label")}

    @pytest.mark.parametrize("family, params", [
        ("windmill", "3,4"), ("circulant", "10,1,3"),
        ("random-min-degree-2", "12")])
    def test_edge_list_json_round_trip(self, capsys, tmp_path, family, params):
        payloads = []
        for fmt, name in (("human", "g.edges"), ("json", "g.json")):
            seed = ("--seed", "4") if family == "random-min-degree-2" else ()
            code, _, _ = run(capsys, "generate", "--family", family, "--params",
                             params, *seed, "--format", fmt,
                             "--output", str(tmp_path / name))
            assert code == 0
            payload = compute_json(capsys, tmp_path / name)
            del payload["graph"]["source"]
            payloads.append(payload)
        assert payloads[0] == payloads[1]


# JSON values, biased towards the graph format's keys and small integers
JSONISH = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 14) | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["n", "edges"]) | st.text(max_size=3),
                      inner, max_size=3),
    max_leaves=24)
GRAPHISH = st.fixed_dictionaries({
    "n": st.integers(-1, 10) | JSONISH,
    "edges": st.lists(st.lists(st.integers(-1, 10), min_size=1, max_size=3),
                      max_size=14) | JSONISH})
EDGE_TEXT = st.text(alphabet="0123456 \n\t#n=a-", max_size=48)

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestInputFuzz:
    """Every input file ends with exit 0, 2 or 3, never with an exception."""

    def exit_code(self, capsys, path, data: bytes) -> int:
        path.write_bytes(data)
        code = main(["compute", "--input", str(path)])
        capsys.readouterr()
        return code

    @FUZZ
    @given(data=st.binary(max_size=64) | EDGE_TEXT.map(str.encode))
    def test_edge_list_bytes(self, capsys, tmp_path, data):
        code = self.exit_code(capsys, tmp_path / "g.edges", data)
        assert code in (0, 2, 3)
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            assert code == 2

    @FUZZ
    @given(text=JSONISH.map(json.dumps) | GRAPHISH.map(json.dumps)
           | st.text(max_size=24))
    def test_json_text(self, capsys, tmp_path, text):
        code = self.exit_code(capsys, tmp_path / "g.json", text.encode())
        assert code in (0, 2, 3)
        try:
            json.loads(text)
        except ValueError:
            assert code == 2


class TestReaderFuzz:
    """Each reader returns a Graph or raises GraphFormatError or
    PreconditionError, whatever the text."""

    def read(self, reader, text):
        try:
            assert isinstance(reader(text), Graph)
        except (GraphFormatError, PreconditionError):
            pass

    @settings(max_examples=200, deadline=None)
    @given(text=EDGE_TEXT | st.text(max_size=48))
    def test_edge_list_text(self, text):
        self.read(read_edge_list_text, text)

    @settings(max_examples=200, deadline=None)
    @given(text=JSONISH.map(json.dumps) | GRAPHISH.map(json.dumps)
           | st.text(max_size=24))
    def test_json_text(self, text):
        self.read(read_json_graph, text)
