"""Output differential: a short label and the SHA-256 of each output's
canonical text, over a fixed corpus, pinned in `tests/golden/outputs.json`.

The outputs: `Lts.to_json()` and `to_dot()` at complete and truncating
bounds, `Lts.to_json()` of graphs whose flags the search below the frontier
decides, `decide` verdicts for the five kinds at three bound settings,
`bounded_game` verdicts with their replays at tau_bound 8 and 64,
`distinguishing_evidence` on complete graphs and `context_game` verdicts.
A JSON output's canonical text is `json.dumps(..., sort_keys=True)`; a DOT
output hashes as written. Certificate results and the `paper-examples` run
are pinned byte for byte in their own golden files (`tests/test_golden.py`),
so they are not hashed again here.

The corpus comes from fixed seeds, not from PCALC_SEED, so every seed
compares the same outputs. It holds none of the bounded verdicts known to be
wrong (the weak game's refutations of equivalent pairs at tau_bound 2), since
those must change when they are fixed.

Usage, from the repository root:

    PYTHONPATH=src python tests/differential.py          # list changed labels
    PYTHONPATH=src python tests/differential.py --write  # regenerate the file

A change that alters an output on purpose regenerates the file and names each
changed label, with its reason, in its change log.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from pcalc.equivalence import CCSM_KINDS, bounded_game, decide
from pcalc.evidence import ReplayError, distinguishing_evidence, replay_trace
from pcalc.genterms import random_ccsm, random_hoccsm, random_stabilizing
from pcalc.hocore import context_game, derived_replication
from pcalc.semantics import Bounds, build_lts, union_lts
from pcalc.syntax import Par, canonicalize, free_vars, parse

GOLDEN = Path(__file__).parent / "golden" / "outputs.json"

W1 = "a.b.'c.d | 'a.'b.c.'d | b.a.'d | 'b.'a.d | c.'c | !e | !'e"
W1_TAU = "a.b.'c.d | a.'d | c.'c | 'a.d | 'a.'b.c.'d | !e | !'e"
W2_VARIANT = "a.b.'c.d.e | 'a.'b.c.'d.'e | b.a.'d.c | 'b.'a.d.'c | 'e.e | !f | !'f"
W4_FAMILY = "a.a.'d | a.'d | a.a.a.'d | a.'d.'d | a.a.'d.'d | !a | !'a | !d"
W3 = "a.'b | b.'c | c.'a | 'a | 'b | !d.'e | e | 'd | 'd | a.b.c | 'c.'a"
NAMED_PAIRS = {
    "w1": (W1, W1_TAU),
    "growth": ("!c.d | !'c | d", "!c.d | !'c | !c"),
    "reveal": ("!a.c", "c | !a.c"),
    "p-small": ("a.a.'d | a.'d | a.a.a.'d | !a | !'a | !d", "a.'d | a.a.'d | a.a.a.'d | 'd | !a | !'a | !d"),
    "repl-idem": ("!a.0", "!a.0 | !a.0"),
}
# (label, graph bounds, game depth, tau_bound): complete, a small graph with
# a deep silent bound, and a graph cut at three states with the default one
DECIDE_SETTINGS = (
    ("2000/64 d6", Bounds(2000, 64), 6, None),
    ("8/64 d3 t8", Bounds(8, 64), 3, 8),
    ("3/3 d2", Bounds(3, 3), 2, None),
)
NAMED_LTS_BOUNDS = (("20000/64", Bounds(20000, 64)), ("40/64", Bounds(40, 64)))
LTS_BOUNDS = (("2000/64", Bounds(2000, 64)), ("40/64", Bounds(40, 64)), ("400/3", Bounds(400, 3)))


def _hash(output) -> str:
    text = output if isinstance(output, str) else json.dumps(output, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _random_terms(seed: int, count: int):
    rng = random.Random(seed)
    out, seen = [], set()
    while len(out) < count:
        raw = random_stabilizing(rng) if rng.random() < 0.4 else random_ccsm(rng, rng.randint(2, 9))
        term = canonicalize(raw)
        if term not in seen:
            seen.add(term)
            out.append(term)
    return out


def _pairs():
    """Named pairs; each random term against a random state of its own graph,
    against the next random term, and against itself."""
    pairs = {name: (parse(p), parse(q)) for name, (p, q) in NAMED_PAIRS.items()}
    rng = random.Random(15)
    terms = _random_terms(16, 12)
    for i, p in enumerate(terms):
        lts = build_lts(p, Bounds(200, 64))
        pairs[f"r{i:02} own"] = (p, lts.states[rng.randrange(lts.num_states())])
        pairs[f"r{i:02} next"] = (p, terms[(i + 1) % len(terms)])
        pairs[f"r{i:02} self"] = (p, p)
    return pairs


def _replay(trace, tau_bound):
    try:
        return replay_trace(trace, tau_bound)
    except ReplayError as exc:
        return f"ReplayError: {exc}"


def _graph_outputs(out):
    named = (("w1", parse(W1)), ("w2-variant", parse(W2_VARIANT)), ("w4-family", parse(W4_FAMILY)))
    graphs = [(f"{name} {b}", term, bounds) for name, term in named for b, bounds in NAMED_LTS_BOUNDS]
    graphs += [(f"t{i:02} {b}", t, bounds) for i, t in enumerate(_random_terms(17, 16)) for b, bounds in LTS_BOUNDS]
    for name, term, bounds in graphs:
        lts = build_lts(term, bounds)
        out[f"lts {name} json"] = _hash(lts.to_json())
        out[f"lts {name} dot"] = _hash(lts.to_dot())
    # divergence below the frontier: W3 cut short, and the growth pair cut at
    # seven states and at depth three
    out["lts w3 2000/64 json"] = _hash(build_lts(parse(W3), Bounds(2000, 64)).to_json())
    growth = [parse(t) for t in NAMED_PAIRS["growth"]]
    for b, bounds in (("7/64", Bounds(7, 64)), ("200/3", Bounds(200, 3))):
        out[f"lts growth {b} json"] = _hash(union_lts(growth, bounds).to_json())


def _pair_outputs(out):
    for name, (p, q) in _pairs().items():
        for kind in CCSM_KINDS:
            verdicts = [decide(p, q, kind, bounds, depth, tb) for _s, bounds, depth, tb in DECIDE_SETTINGS]
            for (setting, *_), verdict in zip(DECIDE_SETTINGS, verdicts):
                out[f"decide {name} {kind} {setting}"] = _hash(verdict.to_json())
            game = bounded_game(p, q, kind, 3, 8)
            replays = {str(tb): _replay(game.trace, tb) for tb in (8, 64)} if game.trace else {}
            out[f"game {name} {kind} d3 t8"] = _hash({"verdict": game.to_json(), "replays": replays})
            lts = union_lts([p, q], DECIDE_SETTINGS[0][1])
            if not lts.truncated and verdicts[0].outcome == "inequivalent":
                ev = distinguishing_evidence(lts, lts.initials[0], lts.initials[-1], kind)
                out[f"evidence {name} {kind}"] = _hash(ev.to_json())


def _context_outputs(out):
    body = canonicalize(parse("'d<0>.0", dialect="hoccsm"))
    bang = canonicalize(derived_replication(body))
    p, q = (parse(text, "hoccsm") for text in ("!(a(X).0 | 'a<0>.0)", "!(a(X).0 | 'a<0>.0) | a(X).0 | 'a<0>.0"))
    games = [("unfold 'd<0>", bang, canonicalize(Par((bang, body))), 4), ("unfold a(X)|'a<0>", p, q, 2)]
    rng = random.Random(18)
    while len(games) < 30:
        p, q = random_hoccsm(rng, rng.randint(1, 8)), random_hoccsm(rng, rng.randint(1, 5))
        if free_vars(p) or free_vars(q):
            continue
        roll = rng.random()
        if roll < 0.3:
            q = Par((p, q))
        elif roll < 0.5:
            p = derived_replication(q)
            q = Par((p, q))
        games.append((f"h{len(games):02}", p, q, rng.randint(1, 3)))
    for name, p, q, depth in games:
        for mode in ("strong", "weak"):
            for tau_bound in (1, None):
                verdict = context_game(p, q, mode, depth, tau_bound=tau_bound)
                out[f"context {name} {mode} d{depth} t{tau_bound or 'default'}"] = _hash(verdict.to_json())


def outputs() -> dict:
    """Every output's label and hash, in corpus order."""
    out = {}
    _graph_outputs(out)
    _pair_outputs(out)
    _context_outputs(out)
    return out


def render_file(hashes: dict) -> str:
    rows = [f"{json.dumps(label)}: {json.dumps(digest)}" for label, digest in hashes.items()]
    return "{\n" + ",\n".join(rows) + "\n}\n"  # one output a line


def changed_labels(hashes: dict) -> list:
    """Labels whose hash differs from the pinned file, or that only one side has."""
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return [label for label in {**pinned, **hashes} if pinned.get(label) != hashes.get(label)]


def main(argv) -> int:
    hashes = outputs()
    if argv[1:] == ["--write"]:
        GOLDEN.write_text(render_file(hashes), encoding="utf-8")
        print(f"wrote {len(hashes)} labels to {GOLDEN}")
        return 0
    changed = changed_labels(hashes)
    for label in changed:
        print(label)
    print(f"{len(changed)} of {len(hashes)} labels changed", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
