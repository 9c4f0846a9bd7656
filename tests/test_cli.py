import argparse
import hashlib
import json
import pathlib
import re

import pytest

from pcalc import semantics
from pcalc.cli import build_parser, run
from pcalc.equivalence import CCSM_KINDS


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def growth_pair(tmp_path):
    p1 = write(tmp_path, "p1.proc", "!c.d | !'c | d\n")
    p2 = write(tmp_path, "p2.proc", "!c.d | !'c | !c\n")
    return p1, p2


def test_parse_command(tmp_path, capsys):
    path = write(tmp_path, "t.proc", "a.0 | 0 | 'b.0\n")
    assert run(["parse", path]) == 0
    assert capsys.readouterr().out.strip() == "a | 'b"


def test_parse_json_reports_open_terms(tmp_path, capsys):
    path = write(tmp_path, "t.proc", "X | a(Y).Y\n")
    assert run(["parse", "--json", path]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["dialect"] == "hoccsm"
    assert blob["open"] and blob["free_vars"] == ["X"]


def test_parse_syntax_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.proc", "a..0\n")
    assert run(["parse", path]) == 3
    assert "error" in capsys.readouterr().err


def test_check_strong_growth_pair(growth_pair, capsys):
    assert run(["check", "--equiv", "strong", *growth_pair]) == 1
    out = capsys.readouterr().out
    assert "inequivalent" in out and "plays d" in out


def test_check_weak_growth_pair_bounded(growth_pair, capsys):
    code = run(["check", "--equiv", "weak", "--game-depth", "4", "--json", *growth_pair])
    assert code == 2
    blob = json.loads(capsys.readouterr().out)
    assert blob["outcome"] == "unknown"
    assert blob["bound"]["no_distinction_up_to"] == 4
    assert blob["bound"]["tau_bound"] == 4

    assert run(["check", "--equiv", "weak", "--game-depth", "4", "--tau-bound", "6", "--json", *growth_pair]) == 2
    assert json.loads(capsys.readouterr().out)["bound"]["tau_bound"] == 6


@pytest.mark.parametrize("kind", CCSM_KINDS)
def test_check_a_term_against_itself_on_a_truncated_graph(kind, tmp_path, capsys):
    # every kind is reflexive: one state for both roots is equivalent even
    # when the graph is cut, here at its first state
    r = write(tmp_path, "r.proc", "!a.b | !'a\n")
    assert run(["check", "--equiv", kind, "--max-states", "1", "--json", r, r]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["outcome"] == "equivalent" and blob["stats"]["states"] == 1


def test_check_sc(tmp_path):
    a = write(tmp_path, "a.proc", "a.0 | b.0\n")
    b = write(tmp_path, "b.proc", "b | a\n")
    assert run(["check", "--equiv", "sc", a, b]) == 0


def test_check_pair_file(tmp_path, capsys):
    pair = write(tmp_path, "pair.proc", "a.0\n---\n'a.0\n")
    assert run(["check", "--equiv", "strong", pair]) == 1
    capsys.readouterr()
    assert run(["check", "--equiv", "quasi-strong", "--json", pair]) == 1
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["iterations"] >= 1 and stats["rank_pairs"] >= 1


def test_check_context_kinds(tmp_path, capsys):
    left = write(tmp_path, "l.proc", "!('d<0>.0)\n")
    right = write(tmp_path, "r.proc", "!('d<0>.0) | 'd<0>.0\n")
    assert run(["check", "--equiv", "context-strong", "--json", left, right]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["equivalence_claimed"] is False
    assert "families_used" in blob
    # text mode names the unanswered challenge, as it does for first-order kinds
    assert run(["check", "--equiv", "context-strong", left, right]) == 1
    assert capsys.readouterr().out == "inequivalent\nattacker: right plays 'd<0>\n"
    same = write(tmp_path, "s.proc", "a(X).X\n")
    assert run(["check", "--equiv", "context-weak", same, same]) == 2


def test_check_context_family_flags(tmp_path, capsys):
    left = write(tmp_path, "l.proc", "a(X).X\n")
    right = write(tmp_path, "r.proc", "a(X).0\n")
    code = run(
        [
            "check",
            "--equiv",
            "context-strong",
            "--inputs-family",
            "0, 'm<0>.0",
            "--contexts-family",
            "X, X | n(Y).0",
            "--json",
            left,
            right,
        ]
    )
    assert code == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["families_used"]["inputs"] == ["0", "'m"]


def test_check_context_tau_bound(tmp_path, capsys):
    # P and Q reach each other by one silent step, so no weak game tells them
    # apart; tau bound 1 keeps the game fast (the default bound takes tens of
    # seconds on this pair).
    left = write(tmp_path, "l.proc", "!(a(X).0 | 'a<0>.0)\n")
    right = write(tmp_path, "r.proc", "!(a(X).0 | 'a<0>.0) | a(X).0 | 'a<0>.0\n")
    code = run(["check", "--equiv", "context-weak", "--game-depth", "2", "--tau-bound", "1", "--json", left, right])
    assert code == 2
    blob = json.loads(capsys.readouterr().out)
    assert blob["outcome"] == "unknown"
    cut = blob["stats"]["closures_cut"]
    assert cut > 0
    assert blob["bound"] == {"no_distinction_up_to": 2, "tau_bound": 1, "closures_cut": cut, "closure_cap": 2048}


def test_check_rejects_out_of_range_game_bounds(tmp_path, capsys):
    # max depth 1 truncates the graph, so the bounded game would run
    a, b = write(tmp_path, "a.proc", "a.0\n"), write(tmp_path, "b.proc", "'a.0\n")
    for flags in (
        ["--equiv", "weak", "--max-depth", "1", "--game-depth", "-3"],
        ["--equiv", "weak", "--max-depth", "1", "--tau-bound", "-1"],
        ["--equiv", "context-weak", "--game-depth", "0"],
    ):
        assert run(["check", *flags, a, b]) == 3, flags
        assert capsys.readouterr().err.startswith("error: game depth must be at least 1"), flags


def test_check_rejects_ho_terms_for_first_order_kinds(tmp_path, capsys):
    a = write(tmp_path, "a.proc", "a(X).X\n")
    assert run(["check", "--equiv", "weak", a, a]) == 3


def test_lts_command(tmp_path, capsys):
    path = write(tmp_path, "t.proc", "a.'b | 'a\n")
    dot = str(tmp_path / "out.dot")
    assert run(["lts", path, "--max-states", "50", "--max-depth", "10", "--dot", dot, "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["truncated"] is False
    assert (tmp_path / "out.dot").read_text().startswith("digraph")


def test_lts_output_is_pinned_on_w1(tmp_path, capsys):
    # ROADMAP W1: 1,083 states, 8,098 edges. The digests pin the JSON and dot
    # output byte for byte, so a change to how the graph stores its edges
    # cannot reorder or relabel them.
    path = write(tmp_path, "w1.proc", "a.b.'c.d | 'a.'b.c.'d | b.a.'d | 'b.'a.d | c.'c | !e | !'e\n")
    dot = tmp_path / "w1.dot"
    assert run(["lts", path, "--json", "--dot", str(dot)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == "b080294a752517fd3d0344460b86f786aa16ec7cc05f1693ca1124b4ce1daf5b"
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == "075c4092d35d76626a4458ab5d8ba14595ce06cd81c80dcfae540f783024ef07"
    assert run(["lts", path]) == 0
    assert capsys.readouterr().out.splitlines() == ["states: 1083", "edges: 8098", "diverges(initial): yes"]


def test_diverges_exit_codes(tmp_path, capsys, monkeypatch):
    yes = write(tmp_path, "yes.proc", "!a | !'a\n")
    no = write(tmp_path, "no.proc", "a.'b | 'a\n")
    chain = write(tmp_path, "chain.proc", "a.(a.(a | 'a) | 'a) | 'a\n")
    assert run(["diverges", yes]) == 0
    assert run(["diverges", no]) == 1
    assert run(["diverges", chain]) == 1  # decided on the term: no graph bound cuts the chain short
    # the command takes no graph bounds
    assert run(["diverges", chain, "--max-depth", "2"]) == 3
    capsys.readouterr()
    # only the search cap leaves the verdict unknown, and the JSON names it
    monkeypatch.setattr(semantics, "_SILENT_RUN_CAP", 2)
    assert run(["diverges", chain, "--json"]) == 2
    assert json.loads(capsys.readouterr().out) == {"diverges": "unknown", "bound": {"search_cap": 2}}
    assert run(["diverges", yes, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"diverges": "yes"}


def test_diverges_decides_growth_on_the_term(tmp_path, capsys):
    path = write(tmp_path, "p1.proc", "!c.d | !'c | d\n")
    assert run(["diverges", path]) == 0
    assert capsys.readouterr().out == "yes\n"


def test_tau_classify(tmp_path, capsys):
    path = write(tmp_path, "t.proc", "a.'b | 'a\n")
    assert run(["tau-classify", path, "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["edges"][0]["label"] == "state-changing"
    truncated = write(tmp_path, "grow.proc", "!c.d | !'c | d\n")
    assert run(["tau-classify", truncated, "--max-states", "8"]) == 2


def test_certify_command(tmp_path, capsys):
    cert = {
        "discipline": "upto-context",
        "budget": 64,
        "pairs": [["!(a | 'a)", "a | 'a | !(a | 'a)"]],
    }
    path = write(tmp_path, "cert.json", json.dumps(cert))
    assert run(["certify", "--relation", path]) == 0
    bad = write(
        tmp_path, "bad.json", json.dumps({"discipline": "plain", "budget": 16, "pairs": [["a.0", "'a.0"]]})
    )
    assert run(["certify", "--relation", bad]) == 1


def test_certify_budget_overrides_the_file(tmp_path, capsys):
    cert = {"discipline": "upto-context", "budget": 64, "pairs": [["!(a | 'a)", "a | 'a | !(a | 'a)"]]}
    path = write(tmp_path, "cert.json", json.dumps(cert))
    assert run(["certify", "--relation", path]) == 0
    assert capsys.readouterr().out == "certified\n"
    assert run(["certify", "--relation", path, "--budget", "1"]) == 2
    assert capsys.readouterr().out == "budget-exhausted\n"


@pytest.mark.parametrize("command", ["lts", "diverges", "tau-classify"])
@pytest.mark.parametrize("text", ["a(X).X\n", "a.0\n---\n'a.0\n"], ids=["higher-order", "pair"])
def test_graph_commands_take_one_first_order_term(tmp_path, capsys, command, text):
    path = write(tmp_path, "t.proc", text)
    assert run([command, path]) == 3
    assert capsys.readouterr().err == f"error: {command} takes one first-order term\n"


@pytest.mark.parametrize("blob", [{"budget": 16}, [1, 2], {"pairs": [["a.0"]]}, {"pairs": [["a.0", "a.0"]], "budget": []}])
def test_certify_rejects_a_malformed_certificate(tmp_path, capsys, blob):
    path = write(tmp_path, "cert.json", json.dumps(blob))
    assert run(["certify", "--relation", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: a certificate") and err.count("\n") == 1


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_certify_rejects_a_budget_below_one(tmp_path, capsys, budget):
    cert = {"discipline": "upto-context", "budget": 64, "pairs": [["!(a | 'a)", "a | 'a | !(a | 'a)"]]}
    path = write(tmp_path, "cert.json", json.dumps(cert))
    assert run(["certify", "--relation", path, f"--budget={budget}"]) == 3
    assert capsys.readouterr().err.strip() == "error: closure budget must be positive"


def test_paper_examples_list_and_run(capsys):
    assert run(["paper-examples", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert "repl-growth-pair" in names
    assert run(["paper-examples", "--run", "repl-growth-pair"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result[0]["pass"]
    assert run(["paper-examples", "--run", "no-such-entry"]) == 3


def test_paper_examples_run_all_deterministic(capsys):
    assert run(["paper-examples", "--run-all"]) == 0
    first = capsys.readouterr().out
    assert run(["paper-examples", "--run-all"]) == 0
    second = capsys.readouterr().out
    assert first == second
    results = json.loads(first)
    assert all(r["pass"] for r in results)


def test_probe_replfree(capsys):
    assert run(["paper-examples", "--probe-replfree", "20"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["probed"] == 20
    assert "strong_equals_weak_everywhere" in blob


@pytest.mark.parametrize("count", ["0", "-3"])
def test_probe_replfree_rejects_a_count_below_one(capsys, count):
    # no term probed backs no claim about every term
    assert run(["paper-examples", f"--probe-replfree={count}"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_readme_synopsis_names_every_option():
    readme = pathlib.Path(__file__).resolve().parents[1].joinpath("README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    named = {}  # command -> the long options its synopsis lines name
    for line in block.splitlines():
        if line.startswith("pcalc "):
            command = line.split()[1]
        named.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(named) == set(commands.choices)
    for command, parser in commands.choices.items():
        options = {o for a in parser._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        assert options == named[command], (command, sorted(options ^ named[command]))


def test_internal_errors_exit_4_not_a_verdict(tmp_path, capsys):
    # These terms are too deep for the recursive walks: the crash must not
    # exit 1, which means "inequivalent / false".
    deep_parse = write(tmp_path, "deep.proc", "a." * 3000 + "0\n")
    deep_diverges = write(tmp_path, "deep900.proc", "a." * 900 + "0\n")
    for argv in (["parse", deep_parse], ["diverges", deep_diverges]):
        assert run(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error:") and err.count("\n") == 1


def test_usage_errors():
    assert run(["check", "--equiv", "nonsense", "x", "y"]) == 3
    assert run(["no-such-command"]) == 3
    assert run(["check", "--equiv", "strong", "/nonexistent/file"]) == 3
