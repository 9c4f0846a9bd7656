"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is expected to pass. Two classical expectations are false in
the restriction-free calculi, and the suite pins their refutations instead:

- criterion 2: with the derived replication, !P and !P | P are weakly
  distinguishable, because the replicator channel is observable. The weak
  half pins the attacker trace and shows that it rests on no truncated
  closure. The paper's claim (weak strictly coarser than strong in HOCCScore)
  is shown on a silent cycle instead: P = !(a(X).0 | 'a<0>.0) and
  Q = P | a(X).0 | 'a<0>.0 reach each other in one silent step, so they are
  weakly context bisimilar, yet the strong game refutes them with a(0).
- criterion 7, property (b): a state-preserving silent step can precede a
  state-changing one (a | 'b | 'c | !b | !'a | !'b, pinned in
  test_equivalence). Property (b) checks the true statement instead: every
  silent path carries only finitely many state-changing steps.

Criterion 6 and properties (c) and (f) of criterion 7 hold on the pinned
default corpus (PCALC_SEED=0) but not in general: quasi-strong matching is
strictly finer than weak on guarded-redundancy terms, which this corpus
happens not to draw. The refuting witness is pinned in test_equivalence and
in the corpus entry qs-vs-weak-guarded-redundancy.
"""

import itertools
import json
import time

from oracles import naive_relation, naive_step, random_graph_lts
from pcalc.cli import run
from pcalc.equivalence import (
    CCSM_KINDS,
    classify_tau,
    coincidence_report,
    compute_partition,
    relation,
)
from pcalc.evidence import Certificate, check_certificate
from pcalc.genterms import random_ccsm, rng_from_env
from pcalc.hocore import TestFamilies, context_game, ho_step
from pcalc.semantics import TAU, Action, Bounds, build_lts, step, union_lts
from pcalc.syntax import NIL, Repl, canonicalize, parse, render, subterms


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status}" + (f" - {detail}" if detail else ""))


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_criterion_1_growth_pair(tmp_path, capsys):
    p1 = _write(tmp_path, "p1.proc", "!c.d | !'c | d\n")
    p2 = _write(tmp_path, "p2.proc", "!c.d | !'c | !c\n")

    t0 = time.perf_counter()
    code_strong = run(["check", "--equiv", "strong", "--json", p1, p2])
    strong_secs = time.perf_counter() - t0
    strong = json.loads(capsys.readouterr().out)

    t0 = time.perf_counter()
    code_weak = run(["check", "--equiv", "weak", "--game-depth", "4", "--json", p1, p2])
    weak_secs = time.perf_counter() - t0
    weak = json.loads(capsys.readouterr().out)

    strong_trace_len = len(strong.get("trace", {}).get("steps", [])) + (
        1 if strong.get("trace", {}).get("reason") == "no-match" else 0
    )
    ok = (
        code_strong == 1
        and strong["outcome"] == "inequivalent"
        and strong_trace_len == 1
        and strong["trace"]["final"]["action"] == "d"
        and code_weak == 2
        and weak["outcome"] == "unknown"
        and weak["bound"]["no_distinction_up_to"] == 4
        and strong_secs < 1.0
        and weak_secs < 1.0
    )
    with capsys.disabled():
        _report(1, ok, f"strong {strong_secs:.2f}s, weak {weak_secs:.2f}s")
    assert strong["outcome"] == "inequivalent" and strong_trace_len == 1
    assert strong["trace"]["final"]["action"] == "d"
    assert weak["outcome"] == "unknown" and weak["bound"]["no_distinction_up_to"] == 4
    assert strong_secs < 1.0 and weak_secs < 1.0


def test_criterion_2_ho_unfolded_replication(tmp_path, capsys):
    left = _write(tmp_path, "l.proc", "!('d<0>.0)\n")
    right = _write(tmp_path, "r.proc", "!('d<0>.0) | 'd<0>.0\n")

    t0 = time.perf_counter()
    code_strong = run(["check", "--equiv", "context-strong", "--json", left, right])
    strong_secs = time.perf_counter() - t0
    strong = json.loads(capsys.readouterr().out)

    t0 = time.perf_counter()
    code_weak = run(["check", "--equiv", "context-weak", "--game-depth", "4", "--json", left, right])
    weak_secs = time.perf_counter() - t0
    weak = json.loads(capsys.readouterr().out)

    strong_ok = (
        code_strong == 1
        and strong["outcome"] == "inequivalent"
        and strong["trace"]["steps"] == []
        and strong["trace"]["final"]["action"] == "'d<0>"
        and strong_secs < 5.0
    )
    # Without restriction the replicator channel is observable, so the weak
    # game refutes this pair too: the attacker emits the replicator token on
    # the folded side, then plays 'd<0> on the unfolded side. Unfolding only
    # adds copies, so every answer to the token still holds a 'd<0>.
    weak_steps = weak.get("trace", {}).get("steps", [])
    weak_ok = (
        code_weak == 1
        and weak["outcome"] == "inequivalent"
        and [st["side"] for st in weak_steps] == ["left"]
        and weak_steps[0]["action"].startswith("'c0<")
        and weak["trace"]["final"] == {"side": "right", "action": "'d<0>"}
        and weak_secs < 5.0
    )

    # The refutation rests on no truncated closure: the defender has no
    # silent move at the final position, and the same trace comes back
    # whether defender closures stop after 1 or after 16 silent steps.
    folded = canonicalize(parse("!('d<0>.0)", dialect="hoccsm"))
    unfolded = canonicalize(parse("!('d<0>.0) | 'd<0>.0", dialect="hoccsm"))
    closure_ok = True
    for tau_bound in (1, 16):
        verdict = context_game(folded, unfolded, "weak", 4, tau_bound=tau_bound)
        closure_ok &= verdict.to_json().get("trace") == weak.get("trace")
        if closure_ok:
            final_pos = verdict.trace[-1].after if verdict.trace else verdict.start
            defender = final_pos[0 if verdict.final[0] == "right" else 1]
            closure_ok = not any(a.is_tau for a, _t in ho_step(defender, verdict.families))

    # The paper's claim on a pair where it holds: P and Q reach each other in
    # one silent step, so {(P, Q), (Q, P)} with the identity is a weak context
    # bisimulation, while the strong game refutes the pair at once with a(0).
    # A smaller tau_bound only removes defender answers, so no distinction at
    # tau_bound 1 carries over to every larger bound.
    p = canonicalize(parse("!(a(X).0 | 'a<0>.0)", dialect="hoccsm"))
    q = canonicalize(parse("!(a(X).0 | 'a<0>.0) | a(X).0 | 'a<0>.0", dialect="hoccsm"))
    fam = TestFamilies.default(p, q)
    two_way_tau = (TAU, q) in ho_step(p, fam) and (TAU, p) in ho_step(q, fam)
    strong_pq = context_game(p, q, "strong", 4)
    weak_pq = context_game(p, q, "weak", 2, tau_bound=1)
    # the bound names the closures that tau_bound 1 cut, and the closure cap
    cut = weak_pq.stats["closures_cut"]
    pq_bound = {"no_distinction_up_to": 2, "tau_bound": 1, "closures_cut": cut, "closure_cap": 2048}
    pq_ok = (
        two_way_tau
        and strong_pq.outcome == "inequivalent"
        and strong_pq.trace == []
        and strong_pq.final == ("right", Action("in", "a", NIL))
        and weak_pq.outcome == "unknown"
        and cut > 0
        and weak_pq.bound_report == pq_bound
    )
    with capsys.disabled():
        _report(
            2,
            strong_ok and weak_ok and closure_ok and pq_ok,
            f"strong {strong_secs:.2f}s, weak {weak_secs:.2f}s; "
            "!P vs !P | P refuted weakly too, P vs Q weakly indistinguishable but strongly refuted",
        )
    assert strong_ok
    assert weak_ok, f"context-weak returned {weak['outcome']} with trace {weak.get('trace')}"
    assert closure_ok
    assert two_way_tau
    assert strong_pq.outcome == "inequivalent" and strong_pq.trace == []
    assert strong_pq.final == ("right", Action("in", "a", NIL))
    assert weak_pq.outcome == "unknown" and cut > 0
    assert weak_pq.bound_report == pq_bound


def test_criterion_3_replication_invariance_certificates(capsys):
    instances = 0
    timings = []
    for text in ("a.'b | 'a", "a | 'a", "a.(b | 'b)"):
        bang = canonicalize(parse("!(" + text + ")"))
        derivs = [t for a, t in step(bang) if a.is_tau]
        for deriv in derivs:
            t0 = time.perf_counter()
            result = check_certificate(Certificate(((bang, deriv),), "upto-context", 128))
            secs = time.perf_counter() - t0
            timings.append(secs)
            assert result.outcome == "certified", (text, render(deriv))
            if deriv != bang:
                # proper derivatives need the stripped parallel part; the
                # self-loop derivative discharges by identity alone
                shapes = {o.to_json()["context"] for o in result.obligations}
                assert any(ctx.endswith("| [.]") for ctx in shapes), (text, shapes)
            assert secs < 2.0
            instances += 1
    ok = instances >= 4 and all(t < 2.0 for t in timings)
    with capsys.disabled():
        _report(3, ok, f"{instances} derivative certificates, max {max(timings):.2f}s")
    assert ok


def test_criterion_4_revealed_action(tmp_path, capsys):
    left = _write(tmp_path, "l.proc", "!a.c\n")
    right = _write(tmp_path, "r.proc", "c | !a.c\n")
    t0 = time.perf_counter()
    code = run(["check", "--equiv", "weak", "--json", left, right])
    secs = time.perf_counter() - t0
    blob = json.loads(capsys.readouterr().out)
    ok = (
        code == 1
        and blob["outcome"] == "inequivalent"
        and blob["trace"]["final"]["action"] == "c"
        and secs < 1.0
    )
    with capsys.disabled():
        _report(4, ok, f"{secs:.2f}s")
    assert ok


def test_criterion_5_divergence(capsys):
    timings = []
    cases = (
        ("!(a | 'a)", "yes", Bounds(64, 16)),
        ("!a | !'a", "yes", Bounds(64, 16)),
        ("a.'b | 'a", "no", Bounds(64, 16)),
        ("!c.d | !'c | d", "yes", Bounds(8, 3)),
    )
    for text, expected, bounds in cases:
        t0 = time.perf_counter()
        lts = build_lts(parse(text), bounds)
        flag = lts.diverges[lts.initial]
        timings.append(time.perf_counter() - t0)
        assert flag == expected, text
        assert timings[-1] < 1.0
    # the growth pair's yes must come from the growth witness: its explored
    # silent subgraph is acyclic under these bounds
    lts = build_lts(parse("!c.d | !'c | d"), Bounds(8, 3))
    assert lts.truncated
    tau_edges = [(s, t) for s, a, t in lts.edges if a.is_tau]
    assert all(s != t for s, t in tau_edges)
    ok = all(t < 1.0 for t in timings)
    with capsys.disabled():
        _report(5, ok, f"max {max(timings):.2f}s")
    assert ok


def test_criterion_6_coincidence_suite(corpus200, capsys):
    t0 = time.perf_counter()
    assert len(corpus200) >= 200
    assert any(any(isinstance(s, Repl) for s in subterms(t)) for t in corpus200)
    assert any(not any(isinstance(s, Repl) for s in subterms(t)) for t in corpus200)
    violations = 0
    for term in corpus200:
        lts = build_lts(term, Bounds(200, 64))
        assert not lts.truncated, render(term)
        report = coincidence_report(lts)
        violations += len(report.violations)
    secs = time.perf_counter() - t0
    ok = violations == 0 and secs < 60.0
    with capsys.disabled():
        _report(6, ok, f"{len(corpus200)} terms, {violations} violations, {secs:.1f}s")
    assert violations == 0
    assert secs < 60.0


def test_criterion_7_lemma_property_suite(corpus200, capsys):
    t0 = time.perf_counter()
    fails = {k: 0 for k in "abcdef"}
    sc_edges = 0
    for i in range(0, len(corpus200), 2):
        pair = corpus200[i : i + 2]
        lts = union_lts(pair, Bounds(600, 128))
        assert not lts.truncated
        weak = compute_partition(lts, "weak")
        tc = classify_tau(lts)
        n = lts.num_states()

        # (a) non-divergent states have only state-changing silent steps
        for s in range(n):
            if lts.diverges[s] == "no":
                for a, t in lts.succ(s):
                    if a.is_tau and weak.relates(s, t):
                        fails["a"] += 1

        # (b) every silent path carries only finitely many state-changing
        # steps: on a finite graph, no state-changing step lies on a silent
        # cycle, so its source is not silently reachable from its target
        tau_adj = {}
        for s, t in tc.edge_labels:
            tau_adj.setdefault(s, []).append(t)
        for (u, v), lab in tc.edge_labels.items():
            if lab != "state-changing":
                continue
            sc_edges += 1
            seen = {v}
            stack = [v]
            while stack:
                x = stack.pop()
                if x == u:
                    fails["b"] += 1
                    break
                for y in tau_adj.get(x, ()):
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)

        blocks = {}
        for s in range(n):
            blocks.setdefault(weak.block_of[s], []).append(s)
        for block in blocks.values():
            for s, t in itertools.permutations(block, 2):
                for a, sp in lts.succ(s):
                    if a.is_tau:
                        # (c) one silent answer into the same weak class
                        if not any(b.is_tau and weak.relates(sp, tp) for b, tp in lts.succ(t)):
                            fails["c"] += 1
                        continue
                    # (d) delay answer whose leading silent steps are all
                    # state-preserving
                    reach_sp = {t}
                    stack = [t]
                    while stack:
                        x = stack.pop()
                        for b, y in lts.succ(x):
                            if b.is_tau and weak.relates(x, y) and y not in reach_sp:
                                reach_sp.add(y)
                                stack.append(y)
                    if not any(
                        b == a and weak.relates(sp, tp)
                        for mid in reach_sp
                        for b, tp in lts.succ(mid)
                    ):
                        fails["d"] += 1
                    # (e) non-divergent challengers get immediate answers
                    if lts.diverges[s] == "no" and not any(
                        b == a and weak.relates(sp, tp) for b, tp in lts.succ(t)
                    ):
                        fails["e"] += 1
                # (f) equal stabilization distances
                if tc.k[s] != tc.k[t]:
                    fails["f"] += 1
    secs = time.perf_counter() - t0
    ok = not any(fails.values()) and secs < 60.0
    with capsys.disabled():
        _report(
            7,
            ok,
            f"violations {fails}, {sc_edges} state-changing steps, {secs:.1f}s",
        )
    assert secs < 60.0
    assert sc_edges > 0
    for prop in "abcdef":
        assert fails[prop] == 0, prop


def test_criterion_8_oracle_agreement(capsys):
    t0 = time.perf_counter()
    rng = rng_from_env(81)
    for _ in range(100):
        lts = random_graph_lts(rng, max_states=50)
        for kind in CCSM_KINDS:
            assert relation(lts, kind).pairs == naive_relation(lts, kind), kind
    rng2 = rng_from_env(82)
    for _ in range(10_000):
        t = random_ccsm(rng2, rng2.randint(1, 10))
        assert set(step(t)) == naive_step(canonicalize(t)), render(t)
    secs = time.perf_counter() - t0
    with capsys.disabled():
        _report(8, True, f"100 graphs x 5 relations + 10000 step terms, {secs:.1f}s")


def test_criterion_9_corpus_determinism(capsys):
    code1 = run(["paper-examples", "--run-all"])
    out1 = capsys.readouterr().out
    code2 = run(["paper-examples", "--run-all"])
    out2 = capsys.readouterr().out
    results = json.loads(out1)
    ok = code1 == code2 == 0 and out1 == out2 and all(r["pass"] for r in results)
    with capsys.disabled():
        _report(9, ok, f"{len(results)} corpus entries, byte-identical reruns")
    assert code1 == 0 and all(r["pass"] for r in results)
    assert out1 == out2
