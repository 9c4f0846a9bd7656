import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcalc.genterms import random_ccsm, random_hoccsm, rng_from_env
from pcalc.syntax import (
    NIL,
    DialectMismatch,
    HoInput,
    HoOutput,
    InputPrefix,
    Nil,
    OutputPrefix,
    Par,
    ParseError,
    Repl,
    Var,
    canonicalize,
    flat_key,
    free_vars,
    infer_dialect,
    parse,
    render,
    sc_equal,
    split_pair_file,
    subterms,
    term_key,
)


def test_parse_basic_pair():
    p = parse("a.0 | 'a.0")
    assert p == Par((InputPrefix("a", NIL), OutputPrefix("a", NIL)))


def test_parse_growth_pair_and_roundtrip():
    p = parse("!c.d | !'c | d")
    assert p == Par(
        (
            Repl(InputPrefix("c", InputPrefix("d", NIL))),
            Repl(OutputPrefix("c", NIL)),
            InputPrefix("d", NIL),
        )
    )
    c = canonicalize(p)
    assert canonicalize(parse(render(c))) == c
    assert canonicalize(parse(render(c, compact=True))) == c


def test_parse_ho_input():
    p = parse("a(X).(X | 'b<0>.0)", dialect="hoccsm")
    assert p == HoInput("a", "X", Par((Var("X"), HoOutput("b", NIL, NIL))))


def test_parse_trailing_zero_elision():
    assert parse("a") == InputPrefix("a", NIL)
    assert parse("'a") == OutputPrefix("a", NIL)
    assert parse("a.b") == InputPrefix("a", InputPrefix("b", NIL))


def test_bang_binds_prefix_chain():
    # !a.P applies to the whole prefix chain
    assert parse("!a.b") == Repl(InputPrefix("a", InputPrefix("b", NIL)))
    # a name starting with g is still ordinary after !
    assert parse("!g1.0") == Repl(InputPrefix("g1", NIL))
    assert parse("!g.0") == Repl(InputPrefix("g", NIL))


def test_parse_comments_and_whitespace():
    text = "# leading comment\n a.0 |  'b.0  # trailing\n"
    assert parse(text) == Par((InputPrefix("a", NIL), OutputPrefix("b", NIL)))


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse("a.0 |\n| b")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse("a.0 )")


def test_var_rejected_in_ccsm():
    with pytest.raises(ParseError):
        parse("X", dialect="ccsm")


def test_open_terms_accepted_and_flagged():
    p = parse("X | a(Y).Y", dialect="hoccsm")
    assert free_vars(p) == {"X"}


def test_infer_dialect():
    assert infer_dialect("a.0 | !b") == "ccsm"
    assert infer_dialect("a(X).X") == "hoccsm"
    assert infer_dialect("'a<0>.0") == "hoccsm"
    assert infer_dialect("!g a.0") == "hoccsm"


def test_canonical_unit_law():
    assert canonicalize(Par((NIL, InputPrefix("a", NIL)))) == InputPrefix("a", NIL)
    assert canonicalize(Par((NIL, NIL))) == NIL


def test_canonical_commutativity():
    left = Par((InputPrefix("b", NIL), InputPrefix("a", NIL)))
    right = Par((InputPrefix("a", NIL), InputPrefix("b", NIL)))
    assert canonicalize(left) == canonicalize(right)


def test_canonical_alpha_renaming():
    p = parse("a(X).X", dialect="hoccsm")
    q = parse("a(Y).Y", dialect="hoccsm")
    assert canonicalize(p) == canonicalize(q)
    assert render(canonicalize(p)) == "a(X0).X0"


def test_sc_equal_examples():
    assert sc_equal(parse("a | (b | c)"), parse("(a | b) | c"))
    assert not sc_equal(parse("!a.0"), parse("!a.0 | !a.0"))
    assert sc_equal(parse("a.0 | 0"), parse("a.0"))


def test_sc_equal_dialect_mismatch():
    with pytest.raises(DialectMismatch):
        sc_equal(parse("!a.0"), parse("a(X).X", dialect="hoccsm"))


def test_render_examples():
    assert render(InputPrefix("a", NIL)) == "a.0"
    assert render(InputPrefix("a", NIL), compact=True) == "a"
    assert render(Repl(Par((InputPrefix("a", NIL), OutputPrefix("a", NIL))))) == "!(a.0 | 'a.0)"
    assert render(InputPrefix("a", Par((InputPrefix("b", NIL), NIL)))) == "a.(b.0 | 0)"


def test_term_order_ranks():
    ranked = [
        NIL,
        Var("Z"),
        InputPrefix("a", NIL),
        OutputPrefix("a", NIL),
        Repl(InputPrefix("a", NIL)),
        Par((InputPrefix("a", NIL), InputPrefix("b", NIL))),
    ]
    keys = [term_key(t) for t in ranked]
    assert keys == sorted(keys)
    assert term_key(InputPrefix("a", NIL)) < term_key(InputPrefix("b", NIL))
    assert term_key(InputPrefix("a", NIL)) < term_key(InputPrefix("a", InputPrefix("a", NIL)))


def test_flat_key_sorts_first_order_terms_as_term_key():
    rng = rng_from_env(14)
    found = set()
    for _ in range(2_000):
        found.update(subterms(canonicalize(random_ccsm(rng, rng.randint(1, 12)))))
    # chains of one prefix, and parallels whose parts extend one another's
    for text in ("a | b", "a | b | c", "x.(a | b) | y", "x.(a | b | c) | y", "!(a | b) | y", "!(a | b | c)"):
        found.update(subterms(canonicalize(parse(text))))
    for n in range(1, 40):
        found.add(canonicalize(parse("a." * n + "0")))
    terms = list(found)
    assert sorted(terms, key=flat_key) == sorted(terms, key=term_key)


def test_first_order_canonical_subterms_are_their_representatives():
    rng = rng_from_env(15)
    for _ in range(500):
        c = canonicalize(random_ccsm(rng, rng.randint(1, 12)))
        for sub in subterms(c):
            assert canonicalize(sub) is sub


def test_split_pair_file():
    both = split_pair_file("a.0\n---\nb.0\n")
    assert [t.strip() for t in both] == ["a.0", "b.0"]
    assert split_pair_file("a.0\n") == ["a.0\n"]


# ---------------------------------------------------------------------------
# Properties


def test_roundtrip_10k_random_terms():
    rng = rng_from_env(11)
    for i in range(10_000):
        if i % 2 == 0:
            t = canonicalize(random_ccsm(rng, rng.randint(1, 12)))
            dialect = "ccsm"
        else:
            t = canonicalize(random_hoccsm(rng, rng.randint(1, 10)))
            dialect = "hoccsm"
        assert parse(render(t), dialect) == t
        assert canonicalize(parse(render(t, compact=True), dialect)) == t


def test_canonicalize_idempotent_random():
    rng = rng_from_env(12)
    for _ in range(2_000):
        t = random_ccsm(rng, rng.randint(1, 12))
        c = canonicalize(t)
        assert canonicalize(c) == c
    for _ in range(2_000):
        t = random_hoccsm(rng, rng.randint(1, 10))
        c = canonicalize(t)
        assert canonicalize(c) == c


def test_alpha_invariance_random():
    rng = rng_from_env(13)

    def rename(t, mapping):
        if isinstance(t, Var):
            return Var(mapping.get(t.name, t.name))
        if isinstance(t, Nil):
            return t
        if isinstance(t, HoInput):
            fresh = f"Z{len(mapping)}"
            inner = dict(mapping)
            inner[t.var] = fresh
            return HoInput(t.channel, fresh, rename(t.body, inner))
        if isinstance(t, HoOutput):
            return HoOutput(t.channel, rename(t.message, mapping), rename(t.cont, mapping))
        if isinstance(t, Par):
            return Par(tuple(rename(q, mapping) for q in t.parts))
        raise TypeError(t)

    for _ in range(2_000):
        t = random_hoccsm(rng, rng.randint(1, 10))
        assert canonicalize(rename(t, {})) == canonicalize(t)


def test_sc_equal_is_congruence_random():
    rng = rng_from_env(14)
    for _ in range(500):
        t = random_ccsm(rng, rng.randint(1, 8))
        parts = list(t.parts) if isinstance(t, Par) else [t]
        rng.shuffle(parts)
        shuffled = Par(tuple(parts)) if len(parts) > 1 else parts[0]
        assert sc_equal(t, shuffled)
        hole_ctx = rng.choice(
            [
                lambda x: Par((x, InputPrefix("e", NIL))),
                lambda x: Repl(x),
                lambda x: InputPrefix("e", x),
                lambda x: OutputPrefix("e", x),
            ]
        )
        assert sc_equal(hole_ctx(t), hole_ctx(shuffled))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**30))
def test_roundtrip_hypothesis(seed):
    rng = rng_from_env(seed)
    t = canonicalize(random_ccsm(rng, rng.randint(1, 14)))
    assert parse(render(t)) == t


def test_term_key_of_a_deep_chain_walks_no_subterms(monkeypatch):
    import pcalc.syntax as syntax

    def no_walk(p):
        raise AssertionError("term_key walked the subterms")

    monkeypatch.setattr(syntax, "subterms", no_walk)
    # built node by node, as exploration builds derivatives: each key reuses
    # the child's cached key, and the variable flag comes from the child's
    chain = NIL
    for i in range(10_000):
        chain = (InputPrefix if i % 2 else OutputPrefix)("a", chain)
        term_key(chain)
    assert term_key(Par((chain, NIL)))[0] == 5

    # a variable 100 nodes deep still keys by its binder, not by its name
    def bound(var):
        body = Par((Var(var), HoOutput("b", Var(var), NIL)))
        for _ in range(100):
            body = HoOutput("a", NIL, body)
        return HoInput("c", var, body)

    term = bound("X")
    assert term_key(term.body) != term_key(bound("Y").body)
    assert term_key(term) == term_key(bound("Y"))
