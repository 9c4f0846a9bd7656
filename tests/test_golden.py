"""Outputs pinned byte for byte, captured before the part-by-part
canonicalization of closed higher-order parallels: the corpus run, and the
two weak context games whose cost had grown with their terms."""

import json
from pathlib import Path

import pytest

from pcalc.cli import run
from pcalc.hocore import context_game, derived_replication
from pcalc.syntax import Par, canonicalize, parse

GOLDEN = Path(__file__).parent / "golden"


def test_paper_examples_run_all_matches_golden_output(capsys):
    assert run(["paper-examples", "--run-all"]) == 0
    expected = (GOLDEN / "paper_examples_run_all.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


PINNED = json.loads((GOLDEN / "found_context_games.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "name, body, tau_bound",
    [
        ("!('d<0>.0) weak depth 4 tau_bound 16", "'d<0>.0", 16),
        ("!(a(X).X) weak depth 4", "a(X).X", None),
    ],
)
def test_weak_context_game_on_replication_unfolding_matches_pin(name, body, tau_bound):
    term = parse(body, dialect="hoccsm")
    bang = canonicalize(derived_replication(term))
    unfolded = canonicalize(Par((bang, term)))
    verdict = context_game(bang, unfolded, "weak", 4, tau_bound=tau_bound)
    assert verdict.outcome == PINNED[name]["outcome"] == "inequivalent"
    assert verdict.to_json() == PINNED[name]
