"""Tests for the command-line interface."""

import re
import sys

import pytest

from repro.cli import build_parser, main
from repro.io.ntriples import dump_ntriples, load_ntriples
from repro.datasets.sample import figure2_graph


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.nt"
    dump_ntriples(figure2_graph(), path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_summarize_defaults(self, fig2_file):
        args = build_parser().parse_args(["summarize", str(fig2_file)])
        assert args.kind == "weak"
        assert args.output is None


class TestSummarizeCommand:
    def test_prints_summary_sizes(self, fig2_file, capsys):
        assert main(["summarize", str(fig2_file), "--kind", "weak"]) == 0
        output = capsys.readouterr().out
        assert "weak summary" in output
        assert "9 nodes" in output

    def test_writes_ntriples_output(self, fig2_file, tmp_path, capsys):
        out = tmp_path / "summary.nt"
        assert main(["summarize", str(fig2_file), "--kind", "strong", "-o", str(out)]) == 0
        assert len(load_ntriples(out)) == 12

    def test_writes_dot_output(self, fig2_file, tmp_path):
        out = tmp_path / "summary.dot"
        assert main(["summarize", str(fig2_file), "--dot", "-o", str(out)]) == 0
        assert out.read_text().startswith("digraph")


class TestOtherCommands:
    def test_stats(self, fig2_file, capsys):
        assert main(["stats", str(fig2_file)]) == 0
        output = capsys.readouterr().out
        assert "edge_count" in output
        assert "typed_strong" in output

    def test_saturate(self, tmp_path, capsys):
        from repro.datasets.sample import book_example_graph

        source = tmp_path / "book.nt"
        dump_ntriples(book_example_graph(), source)
        target = tmp_path / "book_sat.nt"
        assert main(["saturate", str(source), "-o", str(target)]) == 0
        assert len(load_ntriples(target)) > len(load_ntriples(source))

    def test_generate_bsbm(self, tmp_path, capsys):
        target = tmp_path / "bsbm.nt"
        assert main(["generate", "bsbm", "--scale", "10", "-o", str(target)]) == 0
        assert len(load_ntriples(target)) > 100

    def test_generate_bibliography(self, tmp_path):
        target = tmp_path / "bib.nt"
        assert main(["generate", "bibliography", "--scale", "20", "-o", str(target)]) == 0
        assert target.exists()

    def test_sweep(self, capsys):
        assert main(["sweep", "--scales", "10", "20"]) == 0
        output = capsys.readouterr().out
        assert "Figure 11" in output
        assert "Figure 13" in output


class TestQueryCommand:
    def test_single_query_with_answers(self, fig2_file, capsys):
        assert (
            main(
                [
                    "query",
                    str(fig2_file),
                    "--query",
                    "PREFIX f: <http://example.org/fig2/> SELECT ?x WHERE { ?x f:author ?a }",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "answer(s)" in output

    def test_unsatisfiable_ask_is_pruned(self, fig2_file, capsys):
        assert (
            main(
                [
                    "query",
                    str(fig2_file),
                    "--query",
                    "ASK { ?x <http://example.org/fig2/cites> ?y }",
                ]
            )
            == 0
        )
        assert "pruned" in capsys.readouterr().out

    def test_query_file_input(self, fig2_file, tmp_path, capsys):
        query_file = tmp_path / "q.rq"
        query_file.write_text(
            "PREFIX f: <http://example.org/fig2/> ASK { ?x f:author ?a }"
        )
        assert main(["query", str(fig2_file), "--query-file", str(query_file)]) == 0
        assert "yes" in capsys.readouterr().out

    def test_mixed_term_kinds_in_answers_print(self, tmp_path, capsys):
        # answers mixing URIs and literals in one column must not crash sorting
        from repro.model.graph import RDFGraph
        from repro.model.namespaces import EX
        from repro.model.terms import Literal
        from repro.model.triple import Triple

        graph = RDFGraph(
            [Triple(EX.a, EX.p, EX.b), Triple(EX.c, EX.p, Literal("v"))]
        )
        path = tmp_path / "mixed.nt"
        dump_ntriples(graph, path)
        assert (
            main(
                [
                    "query",
                    str(path),
                    "--query",
                    "SELECT ?y WHERE { ?x <http://example.org/p> ?y }",
                ]
            )
            == 0
        )
        assert "2 answer(s)" in capsys.readouterr().out

    def test_workload_rejects_single_query_flags(self, fig2_file, capsys):
        assert main(["query", str(fig2_file), "--workload", "4", "--saturated"]) == 2
        assert main(["query", str(fig2_file), "--workload", "4", "--no-prune"]) == 2

    def test_workload_mode_writes_json(self, fig2_file, tmp_path, capsys):
        import json

        report_path = tmp_path / "report.json"
        assert (
            main(
                [
                    "query",
                    str(fig2_file),
                    "--workload",
                    "8",
                    "--json",
                    str(report_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "speedup" in output
        report = json.loads(report_path.read_text())
        assert report["sound"] is True
        assert report["queries"] == 8


class TestQueryStrategyAndExplain:
    def test_strategy_choices(self, fig2_file):
        args = build_parser().parse_args(["query", str(fig2_file), "--query", "ASK { ?x ?p ?y }"])
        assert args.strategy == "hash"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", str(fig2_file), "--query", "q", "--strategy", "bogus"]
            )

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "g.nt", "--query", "ASK { ?x ?p ?y }", "--strategy", "nested"],
            ["serve", "--strategy", "nested"],
            ["query", "g.nt", "--query", "ASK { ?x ?p ?y }", "--strategy", "merge"],
            ["serve", "--strategy", "merge"],
            ["summarize", "g.nt", "--engine", "term"],
            ["sweep", "--engine", "term"],
            ["serve", "--no-telemetry"],
        ],
        ids=[
            "query-nested",
            "serve-nested",
            "query-merge",
            "serve-merge",
            "summarize-engine",
            "sweep-engine",
            "serve-no-telemetry",
        ],
    )
    def test_removed_options_are_argparse_errors(self, argv):
        """One join engine, one summarization engine, one telemetry mode:
        the options that chose between two are gone, so argparse exits 2
        on them."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("command", [["query", "g.nt", "--query", "q"], ["serve"]])
    @pytest.mark.parametrize(
        "limit", ["0", "-3", "many", str(sys.maxsize + 1), "99999999999999999999"]
    )
    def test_limit_below_one_is_an_argparse_error(self, command, limit, capsys):
        """The HTTP API answers 400 to a limit below one or above
        ``sys.maxsize``; the parser says the same."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(command + ["--limit", limit])
        assert exit_info.value.code == 2
        assert "--limit" in capsys.readouterr().err
        assert build_parser().parse_args(command + ["--limit", "1"]).limit == 1
        maximum = build_parser().parse_args(command + ["--limit", str(sys.maxsize)])
        assert maximum.limit == sys.maxsize

    def test_every_evaluator_strategy_is_a_cli_choice(self):
        from repro.service.evaluator import STRATEGIES

        for strategy in STRATEGIES:
            for argv in (["query", "g.nt", "--query", "q"], ["serve"]):
                args = build_parser().parse_args(argv + ["--strategy", strategy])
                assert args.strategy == strategy

    def test_sql_strategy_answers(self, fig2_file, capsys):
        assert (
            main(
                [
                    "query",
                    str(fig2_file),
                    "--strategy",
                    "sql",
                    "--query",
                    "PREFIX f: <http://example.org/fig2/> SELECT ?x WHERE { ?x f:author ?a }",
                ]
            )
            == 0
        )
        assert "answer(s)" in capsys.readouterr().out

    def test_explain_prints_plan_and_guard_cascade(self, fig2_file, capsys):
        assert (
            main(
                [
                    "query",
                    str(fig2_file),
                    "--explain",
                    "--query",
                    "PREFIX f: <http://example.org/fig2/> "
                    "SELECT ?x ?a WHERE { ?x f:author ?a . ?x a f:Book }",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "explain (strategy: hash)" in output
        # one guard line: the summary kind, its edge count and the verdict
        assert re.search(r"guard +: strong summary, \d+ edges: not pruned", output)
        assert "cascade" not in output
        assert "plan" in output
        assert "est" in output and "actual" in output
        assert ", join" not in output  # one stage algorithm: nothing to name

    def test_explain_on_pruned_query(self, fig2_file, capsys):
        assert (
            main(
                [
                    "query",
                    str(fig2_file),
                    "--explain",
                    "--query",
                    "ASK { ?x <http://example.org/fig2/cites> ?y }",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "pruned by" in output
        assert "base evaluation skipped" in output

    def test_workload_mode_accepts_strategy(self, fig2_file, capsys):
        assert (
            main(
                ["query", str(fig2_file), "--workload", "6", "--strategy", "sql"]
            )
            == 0
        )
        assert "speedup" in capsys.readouterr().out
