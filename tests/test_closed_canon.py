"""Closed parallels canonicalized part by part, against a frozen reference.

The reference below is the earlier whole-term canonicalization, kept
verbatim: `_canon` rebuilds and sorts the whole term, and `_rename` numbers
every binder of it in traversal order. `pcalc.syntax.canonical_par` builds
every closed parallel, first-order or higher-order, from its parts'
canonical forms and renames each part from its own binder offset instead,
and must give equal canonical forms.

The reference's term order is the earlier one too: `_key` keys a bound
variable by its binder's absolute depth and caches the key of a term with no
variable node only. `pcalc.syntax` keys a bound variable by its distance to
its binder and caches the key of every closed term, and must order terms
alike.
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from pcalc import hocore, syntax
from pcalc.corpus import ENTRIES
from pcalc.genterms import random_ccsm, random_hoccsm
from pcalc.hocore import context_game, derived_replication
from pcalc.semantics import cache_info, clear_caches
from pcalc.syntax import (
    NIL,
    HoInput,
    HoOutput,
    InputPrefix,
    Nil,
    OutputPrefix,
    Par,
    Repl,
    Term,
    Var,
    canonical_par,
    canonicalize,
    free_vars,
    interned,
    parse,
    subterms,
    term_key,
)

# ---------------------------------------------------------------------------
# Reference implementation (verbatim)

_FIRST_ORDER = (InputPrefix, OutputPrefix, Repl)


def _key(p: Term, env: dict, depth: int):
    # its own cache attribute: no key the live order caches reaches it
    if not p._hv:
        k = getattr(p, "_ref_k", None)
        if k is not None:
            return k
        k = _key_compute(p, env, depth)
        object.__setattr__(p, "_ref_k", k)
        return k
    return _key_compute(p, env, depth)


def _key_compute(p: Term, env: dict, depth: int):
    if isinstance(p, Nil):
        return (0,)
    if isinstance(p, Var):
        lvl = env.get(p.name)
        if lvl is None:
            return (1, 0, p.name)
        return (1, 1, lvl)
    if isinstance(p, InputPrefix):
        return (2, p.name, _key(p.cont, env, depth))
    if isinstance(p, HoInput):
        inner = dict(env)
        inner[p.var] = depth
        return (2, p.channel, _key(p.body, inner, depth + 1))
    if isinstance(p, OutputPrefix):
        return (3, p.name, _key(p.cont, env, depth))
    if isinstance(p, HoOutput):
        return (3, p.channel, _key(p.message, env, depth), _key(p.cont, env, depth))
    if isinstance(p, Repl):
        return (4, _key(p.body, env, depth))
    if isinstance(p, Par):
        return (5, tuple(_key(q, env, depth) for q in p.parts))
    raise TypeError(f"not a term: {p!r}")


def _needs_rename(p: Term) -> bool:
    return any(isinstance(t, HoInput) for t in subterms(p))


def _canon(p: Term, env: dict, depth: int) -> Term:
    if isinstance(p, Nil):
        return NIL
    if isinstance(p, Var):
        return p
    if isinstance(p, InputPrefix):
        return interned(InputPrefix(p.name, _canon(p.cont, env, depth)))
    if isinstance(p, OutputPrefix):
        return interned(OutputPrefix(p.name, _canon(p.cont, env, depth)))
    if isinstance(p, Repl):
        return interned(Repl(_canon(p.body, env, depth)))
    if isinstance(p, HoInput):
        inner = dict(env)
        inner[p.var] = depth
        return HoInput(p.channel, p.var, _canon(p.body, inner, depth + 1))
    if isinstance(p, HoOutput):
        return HoOutput(p.channel, _canon(p.message, env, depth), _canon(p.cont, env, depth))
    if isinstance(p, Par):
        parts = []
        for q in p.parts:
            c = _canon(q, env, depth)
            if isinstance(c, Nil):
                continue
            if isinstance(c, Par):
                parts.extend(c.parts)
            else:
                parts.append(c)
        if not parts:
            return NIL
        if len(parts) == 1:
            return parts[0]
        parts.sort(key=lambda t: _key(t, env, depth))
        par = Par(tuple(parts))
        # a higher-order parallel is interned only once its binders are renamed
        return interned(par) if all(isinstance(q, _FIRST_ORDER) for q in parts) else par
    raise TypeError(f"cannot canonicalize: {p!r}")


def _rename(p: Term, mapping: dict, counter: list, avoid: frozenset) -> Term:
    if isinstance(p, (Nil,)):
        return p
    if isinstance(p, Var):
        return Var(mapping.get(p.name, p.name))
    if isinstance(p, InputPrefix):
        return InputPrefix(p.name, _rename(p.cont, mapping, counter, avoid))
    if isinstance(p, OutputPrefix):
        return OutputPrefix(p.name, _rename(p.cont, mapping, counter, avoid))
    if isinstance(p, Repl):
        return Repl(_rename(p.body, mapping, counter, avoid))
    if isinstance(p, HoInput):
        fresh = _next_binder(counter, avoid)
        inner = dict(mapping)
        inner[p.var] = fresh
        return HoInput(p.channel, fresh, _rename(p.body, inner, counter, avoid))
    if isinstance(p, HoOutput):
        msg = _rename(p.message, mapping, counter, avoid)
        cont = _rename(p.cont, mapping, counter, avoid)
        return HoOutput(p.channel, msg, cont)
    if isinstance(p, Par):
        return Par(tuple(_rename(q, mapping, counter, avoid) for q in p.parts))
    raise TypeError(f"cannot rename: {p!r}")


def _next_binder(counter: list, avoid: frozenset) -> str:
    while True:
        cand = f"X{counter[0]}"
        counter[0] += 1
        if cand not in avoid:
            return cand


def ref_canonicalize(p: Term) -> Term:
    q = _canon(p, {}, 0)
    if _needs_rename(q):
        q = _rename(q, {}, [0], free_vars(q))
    return q


# ---------------------------------------------------------------------------

# any seed would do, and a fixed set keeps the cost of the test fixed.
SEED = 11


def _is_closed_ho_par(p):
    return isinstance(p, Par) and p._hv and not free_vars(p)


def _closed_terms(rng, count):
    out = []
    while len(out) < count:
        t = random_hoccsm(rng, rng.randint(1, 14))
        if not free_vars(t):
            out.append(t)
    return out


def _assert_ordered_as_the_reference(terms):
    # the same sorted order, and the same ties between neighbours in it
    ranked = sorted(terms, key=lambda t: _key(t, {}, 0))
    assert sorted(terms, key=term_key) == ranked
    for a, b in zip(ranked, ranked[1:]):
        assert (term_key(a) == term_key(b)) == (_key(a, {}, 0) == _key(b, {}, 0)), (a, b)


def test_random_closed_terms_canonicalize_as_the_reference():
    rng = random.Random(SEED)
    wide = 0
    keyed = []
    for t in _closed_terms(rng, 400):
        roll = rng.random()
        if roll < 0.3:
            t = derived_replication(t)
        elif roll < 0.5:
            t = Par((derived_replication(t), t))
        c = canonicalize(t)
        assert c == ref_canonicalize(t), t
        assert canonicalize(c) is c
        wide += _is_closed_ho_par(t)
        keyed += (t, c)
    assert wide >= 100
    # open terms too: their free variables key by name, their bound ones
    # by binder; terms of equal shape make the ties
    for _ in range(400):
        t = random_hoccsm(rng, rng.randint(1, 14), scope=("Y", "Z"))
        keyed += (t, canonicalize(t))
    # and every subterm, whose key sorting put in a cache under binders
    keyed = [s for t in keyed for s in subterms(t)]
    assert sum(bool(free_vars(t)) for t in keyed) >= 1000
    _assert_ordered_as_the_reference(keyed)


def test_parallels_of_parts_from_different_terms_canonicalize_as_the_reference():
    # each canonical parallel numbers its parts' binders from its own offsets,
    # so parts taken from two of them reuse each other's binder names
    rng = random.Random(SEED)
    pars = []
    for t in _closed_terms(rng, 300):
        c = canonicalize(Par((derived_replication(t), t)))
        if isinstance(c, Par):
            pars.append(c)
    collided = 0
    for _ in range(400):
        picked = [q for c in rng.sample(pars, rng.randint(2, 4)) for q in c.parts if rng.random() < 0.6]
        rng.shuffle(picked)
        if len(picked) > 2 and rng.random() < 0.5:
            cut = rng.randint(1, len(picked) - 1)
            picked = [Par(tuple(picked[:cut]))] + picked[cut:]
        mix = Par(tuple(picked) + (NIL,))
        binders = [t.var for q in picked for t in subterms(q) if isinstance(t, HoInput)]
        collided += len(binders) > len(set(binders))
        assert canonicalize(mix) == ref_canonicalize(mix), mix
    assert collided >= 100


def test_context_game_states_on_the_corpus_canonicalize_as_the_reference(monkeypatch):
    seen = []
    states = set()

    def recording(p):
        seen.append(p)
        return canonicalize(p)

    def recording_par(parts):
        seen.append(Par(tuple(parts)))
        return canonical_par(parts)

    def recording_step(p, fam):
        moves = ho_step(p, fam)
        states.add(p)
        states.update(t for _, t in moves)
        return moves

    ho_step = hocore.ho_step
    monkeypatch.setattr(hocore, "canonicalize", recording)
    monkeypatch.setattr(hocore, "canonical_par", recording_par)
    monkeypatch.setattr(hocore, "ho_step", recording_step)
    entries = [e for e in ENTRIES if e.dialect == "hoccsm"]
    assert entries
    for entry in entries:
        p, q = (parse(text, dialect="hoccsm") for text in entry.terms)
        for mode in ("strong", "weak"):
            context_game(p, q, mode, 4)
    wide = [t for t in seen if _is_closed_ho_par(t)]
    assert len(wide) >= 500 and len(states) >= 100
    for t in seen:
        assert canonicalize(t) == ref_canonicalize(t), t
    for s in states:
        assert ref_canonicalize(s) == s, s


def _replications(n):
    # n distinct derived replications, each with its own replicator channel
    return canonicalize(parse(" | ".join(f"!('guard{i}<0>.0)" for i in range(n)), dialect="hoccsm"))


def _count_work(monkeypatch, replace):
    renamed, keyed = [0], []
    rename, key_compute = syntax._rename, syntax._key_compute

    def counting_rename(*args):
        renamed[0] += 1
        return rename(*args)

    def recording_key(p, env, depth):
        keyed.append(p)
        return key_compute(p, env, depth)

    monkeypatch.setattr(syntax, "_rename", counting_rename)
    monkeypatch.setattr(syntax, "_key_compute", recording_key)
    result = replace()
    monkeypatch.undo()
    return result, renamed[0], keyed


def test_replacing_one_part_of_a_wide_parallel_renames_and_keys_that_part_only(monkeypatch):
    n = 60
    term = _replications(n)
    assert len(term.parts) == 2 * n
    # an input part swapped for one with as many binders keeps every offset
    i = next(k for k, q in enumerate(term.parts) if isinstance(q, HoInput) and q.channel == "c7")
    part = parse("c7(Y).('c7<Y>.0 | Y | 'guard7<'guard7<0>.0>.0)", dialect="hoccsm")
    size = sum(1 for _ in subterms(part))
    result, renamed, keyed = _count_work(monkeypatch, lambda: canonicalize(Par(term.parts[:i] + (part,) + term.parts[i + 1 :])))
    assert result == ref_canonicalize(Par(term.parts[:i] + (part,) + term.parts[i + 1 :]))
    assert renamed <= 2 * size
    old = {canonicalize(q) for q in term.parts} | set(term.parts)
    assert len(keyed) <= 2 * size and not old.intersection(keyed)
    # the last part's output move leaves nil, and no offset after it moves
    last = term.parts[-1]
    assert isinstance(last, HoOutput)
    result, renamed, keyed = _count_work(monkeypatch, lambda: canonicalize(Par(term.parts[:-1] + (last.cont,))))
    assert result == ref_canonicalize(Par(term.parts[:-1]))
    assert renamed == 0 and keyed == []
    # a whole-term renaming visits every node, many times more than that
    assert sum(1 for _ in subterms(term)) > 20 * size


# ---------------------------------------------------------------------------
# Parallels without a variable node, and first-order ones


def _no_var_terms(rng, count):
    # closed higher-order terms with no variable node, binders or not
    out = []
    while len(out) < count:
        t = random_hoccsm(rng, rng.randint(1, 10))
        if not t._hv:
            out.append(t)
    return out


def _mix(rng, parts):
    # the parts shuffled, some of them in a nested parallel, and a nil
    parts = list(parts)
    rng.shuffle(parts)
    if len(parts) > 2 and rng.random() < 0.5:
        cut = rng.randint(1, len(parts) - 1)
        parts = [Par(tuple(parts[:cut]))] + parts[cut:]
    return Par(tuple(parts) + (NIL,))


def _binder_count(p):
    return sum(isinstance(t, HoInput) for t in subterms(p))


def test_first_order_parallels_nested_under_prefixes_canonicalize_as_the_reference():
    rng = random.Random(SEED)
    nested = 0
    for _ in range(400):
        t = random_ccsm(rng, rng.randint(2, 16))
        c = canonicalize(t)
        assert ref_canonicalize(t) is c, t
        assert canonicalize(c) is c
        nested += any(
            isinstance(s, (InputPrefix, OutputPrefix)) and isinstance(s.cont, Par)
            or isinstance(s, Repl) and isinstance(s.body, Par)
            for s in subterms(c)
        )
    assert nested >= 100


def test_closed_higher_order_parallels_without_a_variable_node_canonicalize_as_the_reference():
    # the shape a replicator leaves once it has taken a closed payload
    found = parse("m | 'c0<m>.0 | 'd | 'd", dialect="hoccsm")
    assert not found._hv
    assert canonicalize(found) == ref_canonicalize(found)
    rng = random.Random(SEED)
    pool = _no_var_terms(rng, 300)
    renumbered = 0
    for _ in range(400):
        mix = _mix(rng, rng.sample(pool, rng.randint(2, 5)))
        assert not mix._hv
        c = canonicalize(mix)
        assert c == ref_canonicalize(mix), mix
        assert canonicalize(c) is c
        renumbered += isinstance(c, Par) and sum(_binder_count(q) > 0 for q in c.parts) > 1
    assert renumbered >= 100


def test_parallels_without_a_variable_node_under_a_binder_canonicalize_as_the_reference():
    rng = random.Random(SEED)
    pool = _no_var_terms(rng, 300)
    x, y = Var("X"), Var("Y")
    for _ in range(400):
        inner = _mix(rng, rng.sample(pool, rng.randint(2, 4)))
        shapes = (
            HoInput("a", "X", Par((x, inner))),
            HoInput("a", "X", HoOutput("b", x, inner)),
            HoInput("a", "X", HoInput("b", "Y", Par((y, inner, x)))),
            # open: X is free beside the binder that reuses its name
            Par((x, HoInput("a", "X", Par((inner, x))), HoOutput("b", inner, y))),
        )
        for t in shapes:
            c = canonicalize(t)
            assert c == ref_canonicalize(t), t
            assert canonicalize(c) is c


def test_context_game_keys_the_canonical_form_cache_by_canonical_terms():
    # A move builds no raw parallel, so besides interned terms and parts
    # shifted from them, only the few raw terms that parsing and substitution
    # build are keys.
    clear_caches()
    term = parse("'d<0>.0", dialect="hoccsm")
    bang = canonicalize(derived_replication(term))
    unfolded = canonicalize(Par((bang, term)))
    context_game(bang, unfolded, "weak", 4, tau_bound=16)
    info = cache_info()
    assert info["canon"] - info["intern"] <= info["shift"] + 32


# ---------------------------------------------------------------------------
# Nesting depth


def _deepest(make, dialect):
    """The largest n for which parse(make(n)) fits the current stack."""

    def parses(n):
        try:
            parse(make(n), dialect=dialect)
        except RecursionError:
            return False
        return True

    lo, hi = 1, 2
    while parses(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if parses(mid):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize(
    "dialect, make",
    [
        ("ccsm", lambda n: "a.(b | " * n + "0" + ")" * n),
        # higher-order, without a variable node: under binders, in messages
        ("hoccsm", lambda n: "a.(b | " * n + "0" + ")" * n),
        ("hoccsm", lambda n: "'a<m | " * n + "0" + ">.0" * n),
    ],
    ids=["ccsm-prefixes", "hoccsm-inputs", "hoccsm-messages"],
)
def test_the_deepest_nesting_of_parallels_without_a_variable_node_parse_accepts_canonicalizes(dialect, make):
    c = canonicalize(parse(make(_deepest(make, dialect)), dialect=dialect))
    assert canonicalize(c) is c


def _ho_nest(n):
    return "a(X).('b<X>.0 | " * n + "0" + ")" * n


def test_a_higher_order_nest_keys_each_level_a_bounded_number_of_times(monkeypatch):
    # every level's inner input is closed, so its key is cached once computed
    # and no level re-keys the nest below it (quadratic: 19,899 at 100 levels)
    n = 100
    term = parse(_ho_nest(n), dialect="hoccsm")
    c, _renamed, keyed = _count_work(monkeypatch, lambda: canonicalize(term))
    assert c == ref_canonicalize(term)
    assert len(keyed) <= 10 * n


# Run at the top of a fresh interpreter, where parse's recursion has the
# whole stack: the deepest nest parse accepts, then every depth up to it.
_EVERY_NEST_DEPTH = """
import sys
sys.path[:0] = sys.argv[1:]
from pcalc.syntax import canonicalize, parse
from test_closed_canon import _deepest, _ho_nest

deepest = _deepest(_ho_nest, "hoccsm")
for n in range(1, deepest + 1):
    c = canonicalize(parse(_ho_nest(n), dialect="hoccsm"))
    assert canonicalize(c) is c, n
print(deepest)
"""


def test_every_higher_order_nest_parse_accepts_canonicalizes():
    src = Path(syntax.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _EVERY_NEST_DEPTH, str(src), str(Path(__file__).resolve().parent)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert int(proc.stdout) > 100
