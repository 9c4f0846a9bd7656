"""Command-line front end.

Exit codes: 0 equivalent/true/certified, 1 inequivalent/false/refuted,
2 unknown or bound exhausted, 3 usage or input error, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

from . import corpus, genterms, semantics
from .equivalence import CCSM_KINDS, compute_partition, classify_tau, decide
from .evidence import Certificate, check_certificate, load_certificate
from .hocore import Context, OpenTermError, TestFamilies, context_game
from .semantics import Bounds, build_lts
from .syntax import (
    DialectMismatch,
    ParseError,
    canonicalize,
    free_vars,
    infer_dialect,
    parse,
    render,
    split_pair_file,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4
EXIT_OF = {  # the code of each outcome a verdict, a divergence flag or a certificate check prints
    **dict.fromkeys(("equivalent", "yes", "certified"), EXIT_YES),
    **dict.fromkeys(("inequivalent", "no", "refuted"), EXIT_NO),
    **dict.fromkeys(("unknown", "budget-exhausted"), EXIT_UNKNOWN),
}

CHECK_KINDS = ("sc",) + CCSM_KINDS + ("context-strong", "context-weak")


def _dump(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_terms(paths, dialect):
    chunks = []
    for path in paths:
        chunks.extend(split_pair_file(_read(path)))
    out = []
    for text in chunks:
        d = dialect or infer_dialect(text)
        out.append((parse(text, d), d))
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pcalc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    bounds = argparse.ArgumentParser(add_help=False)  # the state graph's bounds
    bounds.add_argument("--max-states", type=int, default=2000)
    bounds.add_argument("--max-depth", type=int, default=64)

    p_parse = sub.add_parser("parse", help="parse a term and print its canonical form")
    p_parse.add_argument("file")
    p_parse.add_argument("--dialect", choices=("ccsm", "hoccsm"))
    p_parse.add_argument("--json", action="store_true")

    p_lts = sub.add_parser("lts", parents=[bounds], help="build the bounded state graph of a term")
    p_lts.add_argument("file")
    p_lts.add_argument("--dot", metavar="OUT.dot")
    p_lts.add_argument("--json", action="store_true")

    p_check = sub.add_parser("check", parents=[bounds], help="compare two terms under an equivalence")
    p_check.add_argument("--equiv", required=True, choices=CHECK_KINDS)
    p_check.add_argument("files", nargs="+", metavar="FILE")
    p_check.add_argument("--dialect", choices=("ccsm", "hoccsm"))
    p_check.add_argument("--game-depth", type=int, default=6)
    p_check.add_argument(
        "--tau-bound",
        type=int,
        help="silent steps a defender closure may take in the bounded games (default: max(game depth, 4))",
    )
    p_check.add_argument("--inputs-family", help="comma-separated closed terms")
    p_check.add_argument("--contexts-family", help="comma-separated terms with hole variable X")
    p_check.add_argument("--json", action="store_true")

    p_div = sub.add_parser("diverges", help="divergence verdict for a term, decided on the term itself")
    p_div.add_argument("file")
    p_div.add_argument("--json", action="store_true")

    p_tau = sub.add_parser("tau-classify", parents=[bounds], help="label silent steps and report per-state k")
    p_tau.add_argument("file")
    p_tau.add_argument("--json", action="store_true")

    p_cert = sub.add_parser("certify", help="check a candidate relation file")
    p_cert.add_argument("--relation", required=True, metavar="CERT.json")
    p_cert.add_argument("--budget", type=int)
    p_cert.add_argument("--json", action="store_true")

    p_ex = sub.add_parser("paper-examples", help="run the built-in example corpus")
    group = p_ex.add_mutually_exclusive_group()
    group.add_argument("--list", action="store_true")
    group.add_argument("--run", metavar="NAME")
    group.add_argument("--run-all", action="store_true")
    group.add_argument(
        "--probe-replfree",
        type=int,
        metavar="N",
        help="report whether strong and weak agree on N random replication-free terms",
    )
    return ap


def _cmd_parse(args) -> int:
    text = _read(args.file)
    dialect = args.dialect or infer_dialect(text)
    term = parse(text, dialect)
    canon = canonicalize(term)
    fv = sorted(free_vars(term))
    if args.json:
        print(
            _dump(
                {
                    "dialect": dialect,
                    "term": render(term, compact=True),
                    "canonical": render(canon, compact=True),
                    "open": bool(fv),
                    "free_vars": fv,
                }
            )
        )
    else:
        print(render(canon, compact=True))
        if fv:
            print(f"open term; free variables: {', '.join(fv)}", file=sys.stderr)
    return EXIT_YES


def _load_term(args):
    """The one first-order term in args.file."""
    terms = _load_terms([args.file], None)
    if len(terms) != 1 or terms[0][1] != "ccsm":
        raise ValueError(f"{args.command} takes one first-order term")
    return terms[0][0]


def _cmd_lts(args) -> int:
    lts = build_lts(_load_term(args), Bounds(args.max_states, args.max_depth))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(lts.to_dot() + "\n")
    if args.json:
        print(_dump(lts.to_json()))
    else:
        tag = " (truncated)" if lts.truncated else ""
        print(f"states: {lts.num_states()}{tag}")
        print(f"edges: {sum(map(len, lts.moves))}")
        print(f"diverges(initial): {lts.diverges[lts.initial]}")
    return EXIT_YES


def _parse_family(spec, dialect="hoccsm"):
    return tuple(parse(chunk.strip(), dialect) for chunk in spec.split(",") if chunk.strip())


def _cmd_check(args) -> int:
    started = time.perf_counter()
    kind = args.equiv
    context = kind.startswith("context-")
    terms = _load_terms(args.files, args.dialect or ("hoccsm" if context else None))
    if len(terms) != 2:
        print("check needs exactly two terms (two files or one pair file)", file=sys.stderr)
        return EXIT_USAGE
    (p, dp), (q, dq) = terms
    if context:
        fam = None
        if args.inputs_family or args.contexts_family:
            base = TestFamilies.default(p, q)
            inputs = _parse_family(args.inputs_family) if args.inputs_family else base.inputs
            contexts = tuple(map(Context, _parse_family(args.contexts_family))) if args.contexts_family else base.contexts
            fam = TestFamilies(tuple(inputs), contexts)
        verdict = context_game(p, q, kind.split("-", 1)[1], args.game_depth, fam, args.tau_bound)
    elif kind != "sc" and "hoccsm" in (dp, dq):
        print(f"--equiv {kind} is first-order only; use context-strong/context-weak", file=sys.stderr)
        return EXIT_USAGE
    else:
        verdict = decide(p, q, kind, Bounds(args.max_states, args.max_depth), args.game_depth, args.tau_bound)
    payload = verdict.to_json()
    payload["stats"]["millis"] = int((time.perf_counter() - started) * 1000)
    if args.json:
        print(_dump(payload))
    else:
        print(verdict.outcome)
        final = payload.get("trace", {}).get("final")
        if final:
            print(f"attacker: {final['side']} plays {final['action']}")
    return EXIT_OF[verdict.outcome]


def _cmd_diverges(args) -> int:
    term = _load_term(args)
    table = semantics._States([term])
    flag = semantics.silent_run(table.parts, table.tuples[table.state(term)], {})
    if args.json:  # only the search cap leaves the flag unknown
        bound = {"bound": {"search_cap": semantics._SILENT_RUN_CAP}} if flag == "unknown" else {}
        print(_dump({"diverges": flag, **bound}))
    else:
        print(flag)
    return EXIT_OF[flag]


def _cmd_tau_classify(args) -> int:
    lts = build_lts(_load_term(args), Bounds(args.max_states, args.max_depth))
    if lts.truncated:
        print("graph truncated; raise --max-states/--max-depth", file=sys.stderr)
        return EXIT_UNKNOWN
    classification = classify_tau(lts)
    if args.json:
        payload = classification.to_json()
        payload["states"] = [render(s, compact=True) for s in lts.states]
        print(_dump(payload))
    else:
        for (s, t), lab in sorted(classification.edge_labels.items()):
            print(f"{render(lts.states[s], compact=True)} -tau-> {render(lts.states[t], compact=True)}: {lab}")
        print(f"k: {list(classification.k)}")
    return EXIT_YES


def _cmd_certify(args) -> int:
    cert = load_certificate(args.relation)
    if args.budget is not None:
        cert = Certificate(cert.pairs, cert.discipline, args.budget)  # the constructor checks the budget
    result = check_certificate(cert)
    if args.json:
        print(_dump(result.to_json()))
    else:
        print(result.outcome)
    return EXIT_OF[result.outcome]


def _probe_replfree(count: int) -> int:
    if count < 1:
        raise ValueError(f"--probe-replfree needs at least one term; got {count}")
    rng = genterms.rng_from_env(offset=7)
    terms = []
    while len(terms) < count:
        cand = canonicalize(genterms.random_ccsm(rng, rng.randint(2, 9), allow_repl=False))
        lts = build_lts(cand, Bounds(400, 64))
        if not lts.truncated:
            terms.append((cand, lts))
    disagreements = []
    for term, lts in terms:
        strong = compute_partition(lts, "strong")
        weak = compute_partition(lts, "weak")
        if strong.block_of != weak.block_of:  # blocks are numbered by first member
            disagreements.append(render(term, compact=True))
    print(
        _dump(
            {
                "probed": count,
                "strong_equals_weak_everywhere": not disagreements,
                "disagreements": disagreements,
                "note": "finding only; not asserted as an invariant",
            }
        )
    )
    return EXIT_YES


def _cmd_examples(args) -> int:
    if args.probe_replfree is not None:
        return _probe_replfree(args.probe_replfree)
    if args.list or not (args.run or args.run_all):
        for name in corpus.entry_names():
            print(name)
        return EXIT_YES
    if args.run:
        try:
            results = [corpus.get_entry(args.run).run()]
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return EXIT_USAGE
    else:
        results = corpus.run_all()
    print(_dump(results))
    return EXIT_YES if all(r["pass"] for r in results) else EXIT_NO


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_YES
    handlers = {
        "parse": _cmd_parse,
        "lts": _cmd_lts,
        "check": _cmd_check,
        "diverges": _cmd_diverges,
        "tau-classify": _cmd_tau_classify,
        "certify": _cmd_certify,
        "paper-examples": _cmd_examples,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, DialectMismatch, OpenTermError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a failure of pcalc itself, never a verdict
        where = traceback.extract_tb(exc.__traceback__)[-1]
        message = f"{type(exc).__name__}: {exc}".splitlines()[0]
        print(f"internal error: {message} (at {os.path.basename(where.filename)}:{where.lineno})", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
