"""Outputs pinned byte for byte: the corpus run and the two weak context
games whose cost had grown with their terms, captured before the part-by-part
canonicalization of closed higher-order parallels; and certificate results,
captured before the checker moved from terms to part-id states; and the
hashes of the output differential (`differential.py`)."""

import json
from pathlib import Path

import pytest

import differential
from pcalc.cli import run
from pcalc.evidence import Certificate, check_certificate
from pcalc.hocore import context_game, derived_replication
from pcalc.semantics import step
from pcalc.syntax import Par, canonicalize, parse, render

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


def _certificate_results() -> dict:
    """Each pinned certificate's result JSON, by a name that spells it out:
    every single-step derivative of five replications against its root at
    three budgets under both disciplines, the three hand pairs that the
    truncated-graph search of ROADMAP item 5 certified, a two-pair relation
    and a divergence mismatch."""
    certs = {}
    for body in ("a.'b | 'a", "a | 'a", "a.(b | 'b)", "a.'a", "a | 'a | b"):
        bang = canonicalize(parse(f"!({body})"))
        for action, deriv in step(bang):
            for budget in (1, 16, 128):
                for discipline in ("plain", "upto-context"):
                    name = f"!({body}) -{action.label()}-> {render(deriv, compact=True)}, {discipline}, {budget}"
                    certs[name] = Certificate(((bang, deriv),), discipline, budget)
    for p, q in [("!(a | 'a)", "a | 'a | !(a | 'a)"), ("!(a.'b)", "!(a.'b) | a.'b"), ("!a.b | !'a", "!a.b | !'a | b")]:
        certs[f"{p} vs {q}, upto-context, 64"] = Certificate(((parse(p), parse(q)),), "upto-context", 64)
    bang = canonicalize(parse("!(a.'b | 'a)"))
    two = tuple((bang, d) for a, d in step(bang) if a.is_tau)[:2]
    certs["two silent derivatives of !(a.'b | 'a), upto-context, 64"] = Certificate(two, "upto-context", 64)
    certs["!(a | 'a) vs a, upto-context, 64"] = Certificate(((parse("!(a | 'a)"), parse("a.0")),), "upto-context", 64)
    return {name: check_certificate(cert).to_json() for name, cert in certs.items()}


def test_certificate_results_match_golden_output():
    rows = [f"{json.dumps(name)}: {json.dumps(result)}" for name, result in _certificate_results().items()]
    got = "{\n" + ",\n".join(rows) + "\n}\n"  # one certificate a line
    assert got == (GOLDEN / "certificates.json").read_text(encoding="utf-8")


def test_outputs_match_the_differential():
    changed = differential.changed_labels(differential.outputs())
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:10]}"
