"""Built-in example corpus: the motivating pairs, divergence examples, and
replication-invariance certificates, each with machine-checked expectations."""

from __future__ import annotations

from .equivalence import decide
from .evidence import Certificate, check_certificate
from .hocore import context_game, derived_replication
from .semantics import Bounds, build_lts, step
from .syntax import Par, Record, canonicalize, parse, render


class CorpusEntry(Record):
    _fields = ("name", "dialect", "terms", "note", "runner")

    def __init__(self, name: str, dialect: str, terms: tuple, note: str, runner: object):
        self.name = name
        self.dialect = dialect
        self.terms = terms
        self.note = note
        self.runner = runner

    def run(self) -> dict:
        checks = self.runner()
        return {
            "name": self.name,
            "dialect": self.dialect,
            "terms": list(self.terms),
            "note": self.note,
            "checks": checks,
            "pass": all(c["pass"] for c in checks),
        }


def _check(desc, expected, actual):
    return {"check": desc, "expected": expected, "actual": actual, "pass": expected == actual}


def _growth_pair():
    p1 = parse("!c.d | !'c | d")
    p2 = parse("!c.d | !'c | !c")
    strong = decide(p1, p2, "strong", game_depth=6)
    weak = decide(p1, p2, "weak", game_depth=4)
    return [
        _check("strong verdict", "inequivalent", strong.outcome),
        _check("strong attacker trace length", 1, len(strong.trace) if strong.trace else None),
        _check("strong attacker move", "d", strong.trace.final_action.label() if strong.trace else None),
        _check("weak verdict at depth 4", "unknown", weak.outcome),
        _check("weak bound", 4, (weak.bound_report or {}).get("no_distinction_up_to")),
    ]


def _repl_idempotent():
    p = parse("!a.0")
    q = parse("!a.0 | !a.0")
    strong = decide(p, q, "strong")
    sc = decide(p, q, "sc")
    return [
        _check("strong verdict", "equivalent", strong.outcome),
        _check("structural congruence", "inequivalent", sc.outcome),
    ]


def _ho_unfold_pair():
    body = parse("'d<0>.0", dialect="hoccsm")
    bang = canonicalize(derived_replication(body))
    unfolded = canonicalize(Par((bang, body)))
    strong = context_game(bang, unfolded, "strong", depth=4)
    weak = context_game(bang, unfolded, "weak", depth=4)
    strong_move = ""
    if strong.outcome == "inequivalent" and strong.final:
        strong_move = strong.final[1].label()
    weak_first = ""
    if weak.outcome == "inequivalent" and weak.trace:
        weak_first = weak.trace[0].action.label().split("<")[0]
    return [
        _check("strong game verdict", "inequivalent", strong.outcome),
        _check("strong attacker move", "'d<0>", strong_move),
        _check("strong refutation is immediate", 0, len(strong.trace or [])),
        _check("weak game verdict at depth 4", "inequivalent", weak.outcome),
        _check("weak refutation opens on the replicator channel", "'c0", weak_first),
    ]


def _visible_reveal():
    p = parse("!a.c")
    q = parse("c | !a.c")
    weak = decide(p, q, "weak", game_depth=6)
    move = ""
    if weak.trace is not None and weak.trace.final_action is not None:
        move = weak.trace.final_action.label()
    return [
        _check("weak verdict", "inequivalent", weak.outcome),
        _check("attacker move", "c", move),
    ]


def _divergence_examples():
    checks = []
    for text, expected, bounds in (
        ("!(a | 'a)", "yes", Bounds(64, 16)),
        ("!a | !'a", "yes", Bounds(64, 16)),
        ("a.'b | 'a", "no", Bounds(64, 16)),
        ("!c.d | !'c | d", "yes", Bounds(8, 3)),
    ):
        lts = build_lts(parse(text), bounds)
        checks.append(_check(f"diverges({text})", expected, lts.diverges[lts.initial]))
    return checks


def _rep_invar_certs():
    checks = []
    for text in ("a.'b | 'a", "a | 'a", "a.(b | 'b)"):
        bang = canonicalize(parse("!(" + text + ")"))
        taus = [t for a, t in step(bang) if a.is_tau]
        for deriv in taus:
            cert = Certificate(((bang, deriv),), "upto-context", 128)
            result = check_certificate(cert)
            checks.append(
                _check(
                    f"certificate (!({text}), {render(deriv, compact=True)})",
                    "certified",
                    result.outcome,
                )
            )
        if not taus:
            # no top-level output in the body, so neither silent rule fires
            checks.append(_check(f"!({text}) single-step silent derivatives", 0, len(taus)))
    return checks


def _qs_weak_witness():
    p = parse("a.'d | !a | !'a | !d")
    q = parse("'d | !a | !'a | !d")
    checks = []
    for kind, expected in (
        ("weak", "equivalent"),
        ("branching", "equivalent"),
        ("quasi-strong", "inequivalent"),
        ("qs-branching", "inequivalent"),
    ):
        checks.append(_check(f"{kind} verdict", expected, decide(p, q, kind).outcome))
    return checks


ENTRIES = (
    CorpusEntry(
        "repl-growth-pair",
        "ccsm",
        ("!c.d | !'c | d", "!c.d | !'c | !c"),
        "strongly distinguishable by an immediate d, weakly indistinguishable "
        "up to the explored depth because a silent step can mint a fresh d",
        _growth_pair,
    ),
    CorpusEntry(
        "repl-idempotent-strong",
        "ccsm",
        ("!a.0", "!a.0 | !a.0"),
        "duplicated replication is strongly bisimilar but not structurally congruent",
        _repl_idempotent,
    ),
    CorpusEntry(
        "ho-repl-unfold-pair",
        "hoccsm",
        ("!('d<0>.0)", "!('d<0>.0) | 'd<0>.0"),
        "with encoded replication the unfolded form fires d at once while the "
        "folded form only has immediate moves on the replicator channel; the "
        "weak game also refutes: intercepting the replicator output disables "
        "copying on both sides and strands the unfolded d",
        _ho_unfold_pair,
    ),
    CorpusEntry(
        "repl-visible-reveal",
        "ccsm",
        ("!a.c", "c | !a.c"),
        "a visible unfolding reveals a c that the folded form cannot match "
        "even weakly",
        _visible_reveal,
    ),
    CorpusEntry(
        "divergence-examples",
        "ccsm",
        ("!(a | 'a)", "!a | !'a", "a.'b | 'a", "!c.d | !'c | d"),
        "silent self-loops, split replicated handshakes, a finite handshake, "
        "and a growth witness under tiny bounds",
        _divergence_examples,
    ),
    CorpusEntry(
        "repl-tau-invariance",
        "ccsm",
        ("!(a.'b | 'a)", "!(a | 'a)", "!(a.(b | 'b))"),
        "every single-step silent derivative of a replication certifies "
        "equal to it under the up-to-context discipline",
        _rep_invar_certs,
    ),
    CorpusEntry(
        "qs-vs-weak-guarded-redundancy",
        "ccsm",
        ("a.'d | !a | !'a | !d", "'d | !a | !'a | !d"),
        "weak and branching bisimilarity equate a silently unguardable 'd "
        "with an unguarded one, but the one-silent-step matching of the "
        "quasi-strong styles cannot keep pace: they are strictly finer here",
        _qs_weak_witness,
    ),
)


def entry_names():
    return [e.name for e in ENTRIES]


def get_entry(name: str) -> CorpusEntry:
    for e in ENTRIES:
        if e.name == name:
            return e
    raise KeyError(f"no corpus entry named {name!r}")


def run_all():
    return [e.run() for e in ENTRIES]
