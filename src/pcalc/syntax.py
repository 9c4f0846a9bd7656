"""Term syntax shared by the first-order and the higher-order calculus.

Terms are immutable trees. Parallel composition is n-ary (a multiset view),
so structural congruence collapses to plain equality of canonical forms:
canonicalization drops nil components, flattens nested parallels, sorts the
components by a fixed total term order, and (for higher-order terms) renames
binders to position-determined names.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator, Union


class ParseError(ValueError):
    """Syntax error carrying a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class DialectMismatch(TypeError):
    pass


# ---------------------------------------------------------------------------
# Records


class Record:
    """Base of the record and term classes. `_fields` names the constructor's
    arguments in order. Two records are equal when they are of one class and
    their fields agree, those in `_uncompared` aside; the repr reads
    `Name(field=value, ...)` over the fields not in `_unrepr`.

    A subclass declared with `frozen=True` rejects assignment, so its
    `__init__` sets its fields with `object.__setattr__`, and hashes its
    compared fields unless it defines `__hash__`. Any other subclass is
    mutable and unhashable.
    """

    _fields = ()
    _uncompared = ()
    _unrepr = ()

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._compared = tuple(f for f in cls._fields if f not in cls._uncompared)
        # the compared fields' values, or the one field's value alone; a class
        # without fields reads its class, which __eq__ has already matched
        cls._key = attrgetter(*cls._compared or ("__class__",))
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _reject_assignment
            if cls.__hash__ is None:
                cls.__hash__ = _hash_fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields if f not in self._unrepr)
        return f"{type(self).__qualname__}({shown})"


def _hash_fields(self):
    return hash(tuple([getattr(self, f) for f in self._compared]))


def _reject_assignment(self, name, value=None):
    raise AttributeError(f"{type(self).__qualname__} is frozen: cannot set or delete {name!r}")


# ---------------------------------------------------------------------------
# Abstract syntax
#
# Each node caches, at construction and from its children's caches, its hash
# (`_h`) and whether a variable node occurs in it (`_hv`).

_HAS_VAR = attrgetter("_hv")
# sets a frozen node's attribute; unlike writes through `__dict__`, it keeps
# the instance's attributes in the compact per-class layout
_set = object.__setattr__


class _Node(Record, frozen=True):
    def __hash__(self):
        return self._h  # cached at construction


class Nil(_Node):
    def __init__(self):
        _set(self, "_h", hash(("Nil",)))
        _set(self, "_hv", False)


class Var(_Node):
    _fields = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)
        _set(self, "_h", hash(("Var", name)))
        _set(self, "_hv", True)


class InputPrefix(_Node):
    _fields = ("name", "cont")

    def __init__(self, name: str, cont: Term):
        _set(self, "name", name)
        _set(self, "cont", cont)
        _set(self, "_h", hash(("In", name, cont)))
        _set(self, "_hv", cont._hv)


class OutputPrefix(_Node):
    _fields = ("name", "cont")

    def __init__(self, name: str, cont: Term):
        _set(self, "name", name)
        _set(self, "cont", cont)
        _set(self, "_h", hash(("Out", name, cont)))
        _set(self, "_hv", cont._hv)


class Repl(_Node):
    _fields = ("body",)

    def __init__(self, body: Term):
        _set(self, "body", body)
        _set(self, "_h", hash(("Repl", body)))
        _set(self, "_hv", body._hv)


class Par(_Node):
    _fields = ("parts",)

    def __init__(self, parts: tuple):
        _set(self, "parts", parts)
        _set(self, "_h", hash(("Par",) + parts))
        _set(self, "_hv", any(map(_HAS_VAR, parts)))


class HoInput(_Node):
    _fields = ("channel", "var", "body")

    def __init__(self, channel: str, var: str, body: Term):
        _set(self, "channel", channel)
        _set(self, "var", var)
        _set(self, "body", body)
        _set(self, "_h", hash(("HoIn", channel, var, body)))
        _set(self, "_hv", body._hv)


class HoOutput(_Node):
    _fields = ("channel", "message", "cont")

    def __init__(self, channel: str, message: Term, cont: Term):
        _set(self, "channel", channel)
        _set(self, "message", message)
        _set(self, "cont", cont)
        _set(self, "_h", hash(("HoOut", channel, message, cont)))
        _set(self, "_hv", message._hv or cont._hv)


class GuardedRepl(_Node):
    """Transient parse node for the guarded-replication macro; never canonical."""

    _fields = ("prefix",)

    def __init__(self, prefix: Term):
        _set(self, "prefix", prefix)
        _set(self, "_h", hash(("GRepl", prefix)))
        _set(self, "_hv", prefix._hv)


Term = Union[Nil, Var, InputPrefix, OutputPrefix, Repl, Par, HoInput, HoOutput]

NIL = Nil()


def subterms(p: Term) -> Iterator[Term]:
    """Pre-order traversal of p, including p itself."""
    stack = [p]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, (InputPrefix, OutputPrefix)):
            stack.append(t.cont)
        elif isinstance(t, Repl):
            stack.append(t.body)
        elif isinstance(t, GuardedRepl):
            stack.append(t.prefix)
        elif isinstance(t, Par):
            stack.extend(t.parts)
        elif isinstance(t, HoInput):
            stack.append(t.body)
        elif isinstance(t, HoOutput):
            stack.append(t.message)
            stack.append(t.cont)


def names(p: Term) -> frozenset:
    """Channel names occurring anywhere in p."""
    out = set()
    for t in subterms(p):
        if isinstance(t, (InputPrefix, OutputPrefix)):
            out.add(t.name)
        elif isinstance(t, (HoInput, HoOutput)):
            out.add(t.channel)
    return frozenset(out)


def fresh_name(base: str, used) -> str:
    """base when used lacks it, else the first of base0, base1, ... it lacks."""
    i = 0
    name = base
    while name in used:
        name = f"{base}{i}"
        i += 1
    return name


def free_vars(p: Term) -> frozenset:
    fv = getattr(p, "_fv", None)
    if fv is not None:
        return fv
    if isinstance(p, Var):
        fv = frozenset((p.name,))
    elif isinstance(p, Nil):
        fv = frozenset()
    elif isinstance(p, (InputPrefix, OutputPrefix)):
        fv = free_vars(p.cont)
    elif isinstance(p, Repl):
        fv = free_vars(p.body)
    elif isinstance(p, GuardedRepl):
        fv = free_vars(p.prefix)
    elif isinstance(p, Par):
        fv = frozenset().union(*map(free_vars, p.parts))
    elif isinstance(p, HoInput):
        fv = free_vars(p.body) - {p.var}
    elif isinstance(p, HoOutput):
        fv = free_vars(p.message) | free_vars(p.cont)
    else:
        raise TypeError(f"not a term: {p!r}")
    object.__setattr__(p, "_fv", fv)
    return fv


def is_closed(p: Term) -> bool:
    return not free_vars(p)


def dialect_of(p: Term) -> str:
    """'ccsm', 'hoccsm', or 'either' for terms built from shared constructors only."""
    first = higher = False
    for t in subterms(p):
        if isinstance(t, (InputPrefix, OutputPrefix, Repl)):
            first = True
        elif isinstance(t, (Var, HoInput, HoOutput)):
            higher = True
    if first and higher:
        raise DialectMismatch("term mixes first-order and higher-order constructors")
    if first:
        return "ccsm"
    if higher:
        return "hoccsm"
    return "either"


# ---------------------------------------------------------------------------
# Term order
#
# Rank order: Nil < Var < input prefix < output prefix < Repl < Par, with
# lexicographic tie-breaking; the order is purely syntactic. A bound variable
# keys by its distance to its binder, `lvl - depth` (de Bruijn, "Lambda
# calculus notation with nameless dummies", Indag. Math. 1972), so the order
# is invariant under alpha-renaming, and a closed term keys alike at every
# depth and has its key cached on the node. Two variable keys are compared
# only at the same position of two keys, that is under the same number of
# binders, where `lvl - depth` orders them as the binder's depth `lvl` does.


def _key(p: Term, env: dict, depth: int):
    if p._hv and free_vars(p):
        return _key_compute(p, env, depth)
    k = getattr(p, "_k", None)
    if k is None:
        k = _key_compute(p, env, depth)
        object.__setattr__(p, "_k", k)
    return k


def _key_compute(p: Term, env: dict, depth: int):
    if isinstance(p, Nil):
        return (0,)
    if isinstance(p, Var):
        lvl = env.get(p.name)
        if lvl is None:
            return (1, 0, p.name)
        return (1, 1, lvl - depth)
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


def term_key(p: Term):
    """Sort key realizing the total term order on canonical terms."""
    return _key(p, {}, 0)


def flat_key(p: Term) -> tuple:
    """term_key of a canonical first-order term, flattened to one tuple that
    sorts alike. Nested keys of two long prefix chains compare in time
    quadratic in their length, flat keys in linear time. A parallel's parts
    end with -1, below every rank, so a prefix of its parts sorts first."""
    out = []
    todo = [p]
    while todo:
        t = todo.pop()
        if t is None:
            out.append(-1)
        elif isinstance(t, Nil):
            out.append(0)
        elif isinstance(t, InputPrefix):
            out += (2, t.name)
            todo.append(t.cont)
        elif isinstance(t, OutputPrefix):
            out += (3, t.name)
            todo.append(t.cont)
        elif isinstance(t, Repl):
            out.append(4)
            todo.append(t.body)
        elif isinstance(t, Par):
            out.append(5)
            todo.append(None)
            todo.extend(reversed(t.parts))
        else:
            raise TypeError(f"not a first-order term: {t!r}")
    return tuple(out)


# ---------------------------------------------------------------------------
# Canonical form
#
# First-order canonical terms are hash-consed (Filliatre & Conchon, "Type-safe
# modular hash-consing", ML Workshop 2006): such a term and each of its
# subterms is the one interned representative of its class, so a prefix
# continuation that a step returns is found in the cache by identity.
#
# `canonical_par` builds every closed parallel that is a term in its own
# right: each first-order parallel, nested or not, and each closed term that
# is a parallel. It works part by part. A top-level part is under no binder,
# so its canonical form up to a uniform shift of binder numbers, its key and
# its binder count do not depend on its neighbours: the whole-term renaming
# numbers part i's binders from X<o_i>, o_i the binder count of the parts
# before it. A move that replaces one part of a wide parallel therefore
# re-keys and renames that part only, and the parts whose offset it moves.
# A higher-order parallel nested in a larger term is sorted in place and
# renamed with the whole term: canonicalized alone, each level of a deep
# nest would be renamed again at every level above it.

_canon_cache: dict = {}  # term that is not its own representative -> its representative
_intern: dict = {}  # canonical term -> its representative
_binders: dict = {}  # closed canonical part -> its count of binders
_shift_memo: dict = {}  # (closed canonical part, offset) -> it with binders from X<offset>
_FIRST_ORDER = (InputPrefix, OutputPrefix, Repl)


def canonicalize(p: Term) -> Term:
    """Unique representative of p's structural-congruence class.

    Drops nil components, flattens and sorts parallels, and renames
    higher-order binders to X0, X1, ... in traversal order. Idempotent.
    """
    rep = _intern.get(p)
    if rep is None:
        rep = _canon_cache.get(p)
    if rep is not None:
        return rep
    if isinstance(p, Par) and not (p._hv and free_vars(p)):
        rep = canonical_par(p.parts)
    else:
        q = _canon(p, {}, 0)
        if _needs_rename(q):
            q = _rename(q, {}, [0], free_vars(q))
        rep = _intern.setdefault(q, q)
    if rep is not p:
        _canon_cache[p] = rep
    return rep


def _shift(p: Term, offset: int) -> Term:
    """A closed canonical part with its binders renamed from X<offset>."""
    s = _shift_memo.get((p, offset))
    if s is None:
        s = _shift_memo[p, offset] = _rename(p, {}, [offset], frozenset())
        object.__setattr__(s, "_k", term_key(p))
        _canon_cache[s] = p
    return s


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
            if isinstance(c, Par):
                parts.extend(c.parts)
            elif not isinstance(c, Nil):
                parts.append(c)
        if all(isinstance(q, _FIRST_ORDER) for q in parts):
            return canonical_par(parts)
        if len(parts) == 1:
            return parts[0]
        # the whole term's binders are renamed once, after it is sorted;
        # bound variables key by their distance to their binder
        parts.sort(key=lambda t: _key(t, env, depth))
        return Par(tuple(parts))
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


def canonical_par(parts) -> Term:
    """Canonical parallel composition of closed parts, first-order or
    higher-order: the canonical form of Par(parts).

    Each part is canonicalized through the cache (a shifted part maps back to
    its representative), nested parallels are flattened, nil is dropped, the
    parts are sorted by term_key, and part i's binders are renamed from
    X<o_i>, o_i the binder count of the parts before it.
    """
    flat = []
    for q in parts:
        c = canonicalize(q)
        if isinstance(c, Par):
            flat.extend(map(canonicalize, c.parts))
        elif not isinstance(c, Nil):
            flat.append(c)
    if len(flat) < 2:
        return flat[0] if flat else NIL
    flat.sort(key=term_key)
    offset = 0
    for i, q in enumerate(flat):
        if isinstance(q, _FIRST_ORDER):
            continue
        n = _binders.get(q)
        if n is None:
            n = _binders[q] = sum(isinstance(t, HoInput) for t in subterms(q))
        if n and offset:
            flat[i] = _shift(q, offset)
        offset += n
    return interned(Par(tuple(flat)))


def interned(p: Term) -> Term:
    """The interned representative of a canonical term, a first-order one
    with its subterms interned already; it is its own canonical form."""
    return _intern.setdefault(p, p)


def sc_equal(p: Term, q: Term) -> bool:
    """Decide structural congruence via canonical-form equality."""
    dp, dq = dialect_of(p), dialect_of(q)
    if "either" not in (dp, dq) and dp != dq:
        raise DialectMismatch(f"cannot compare a {dp} term with a {dq} term")
    return canonicalize(p) == canonicalize(q)


# ---------------------------------------------------------------------------
# Rendering
#
# Emits text in the concrete grammar below; parse(render(p)) equals p
# canonically (and structurally for canonical terms in the default mode).


def render(p: Term, compact: bool = False) -> str:
    return _render_par(p, compact)


def _render_par(p: Term, compact: bool) -> str:
    if isinstance(p, Par):
        return " | ".join(_render_seq(q, compact) for q in p.parts)
    return _render_seq(p, compact)


def _render_seq(p: Term, compact: bool) -> str:
    if isinstance(p, Nil):
        return "0"
    if isinstance(p, Var):
        return p.name
    if isinstance(p, Par):
        return "(" + _render_par(p, compact) + ")"
    if isinstance(p, Repl):
        return "!" + _render_seq(p.body, compact)
    if isinstance(p, InputPrefix):
        if compact and isinstance(p.cont, Nil):
            return p.name
        return f"{p.name}.{_render_seq(p.cont, compact)}"
    if isinstance(p, OutputPrefix):
        if compact and isinstance(p.cont, Nil):
            return f"'{p.name}"
        return f"'{p.name}.{_render_seq(p.cont, compact)}"
    if isinstance(p, HoInput):
        if compact and isinstance(p.body, Nil):
            return p.channel
        return f"{p.channel}({p.var}).{_render_seq(p.body, compact)}"
    if isinstance(p, HoOutput):
        if compact and isinstance(p.message, Nil):
            if isinstance(p.cont, Nil):
                return f"'{p.channel}"
            return f"'{p.channel}.{_render_seq(p.cont, compact)}"
        return f"'{p.channel}<{_render_par(p.message, compact)}>.{_render_seq(p.cont, compact)}"
    raise TypeError(f"cannot render: {p!r}")


# ---------------------------------------------------------------------------
# Concrete grammar
#
#   proc   := par
#   par    := seq { "|" seq }
#   seq    := "0" | bang | prefix | "(" proc ")" | VAR          (VAR: hoccsm)
#   bang   := "!" seq                                            (ccsm native; hoccsm macro)
#            | "!g" prefix                                       (hoccsm macro; "!g" needs a
#                                                                 following blank, else "!" + name)
#   prefix := NAME "." seq | "'" NAME "." seq
#            | NAME "(" VAR ")" "." seq                          (hoccsm)
#            | "'" NAME "<" proc ">" "." seq                     (hoccsm)
#            | NAME | "'" NAME                                   (trailing .0 elided)
#   NAME   := [a-z][a-zA-Z0-9_]*     VAR := [A-Z][a-zA-Z0-9_]*
#
# "#" starts a comment running to end of line.


_SYMBOLS = {"(": "lpar", ")": "rpar", "|": "pipe", ".": "dot", "<": "lt", ">": "gt", "'": "quote"}


def _tokenize(text: str):
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "!":
            if i + 2 < n and text[i + 1] == "g" and text[i + 2] in " \t":
                tokens.append(("bangg", "!g", line, col))
                i += 2
                col += 2
            else:
                tokens.append(("bang", "!", line, col))
                i += 1
                col += 1
            continue
        if ch == "0" and (i + 1 >= n or not (text[i + 1].isalnum() or text[i + 1] == "_")):
            tokens.append(("zero", "0", line, col))
            i += 1
            col += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((_SYMBOLS[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "name" if ch.islower() else "var"
            tokens.append((kind, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, dialect):
        self.tokens = tokens
        self.pos = 0
        self.ho = dialect == "hoccsm"

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def fail(self, msg):
        tok = self.peek()
        raise ParseError(msg, tok[2], tok[3])

    def parse_proc(self):
        parts = [self.parse_seq()]
        while self.peek()[0] == "pipe":
            self.next()
            parts.append(self.parse_seq())
        if len(parts) == 1:
            return parts[0]
        return Par(tuple(parts))

    def parse_seq(self):
        kind, value, line, col = self.peek()
        if kind == "zero":
            self.next()
            return NIL
        if kind == "lpar":
            self.next()
            p = self.parse_proc()
            self.expect("rpar")
            return p
        if kind == "bang":
            self.next()
            return Repl(self.parse_seq())
        if kind == "bangg":
            self.next()
            if not self.ho:
                raise ParseError("guarded replication is a hoccsm macro", line, col)
            node = self.parse_prefix()
            if not isinstance(node, (HoInput, HoOutput)):
                raise ParseError("guarded replication needs a prefixed body", line, col)
            return GuardedRepl(node)
        if kind == "var":
            self.next()
            if not self.ho:
                raise ParseError("process variables require the hoccsm dialect", line, col)
            return Var(value)
        if kind in ("name", "quote"):
            return self.parse_prefix()
        self.fail(f"expected a process, found {value!r}")

    def parse_prefix(self):
        kind, value, line, col = self.next()
        if kind == "quote":
            name = self.expect("name")[1]
            nxt = self.peek()[0]
            if nxt == "lt":
                if not self.ho:
                    raise ParseError("process output requires the hoccsm dialect", line, col)
                self.next()
                msg = self.parse_proc()
                self.expect("gt")
                self.expect("dot")
                return HoOutput(name, msg, self.parse_seq())
            if nxt == "dot":
                self.next()
                cont = self.parse_seq()
                return HoOutput(name, NIL, cont) if self.ho else OutputPrefix(name, cont)
            return HoOutput(name, NIL, NIL) if self.ho else OutputPrefix(name, NIL)
        if kind == "name":
            nxt = self.peek()[0]
            if nxt == "lpar" and self.ho:
                self.next()
                var = self.expect("var")[1]
                self.expect("rpar")
                self.expect("dot")
                return HoInput(value, var, self.parse_seq())
            if nxt == "dot":
                self.next()
                cont = self.parse_seq()
                return self._ho_input(value, cont) if self.ho else InputPrefix(value, cont)
            return self._ho_input(value, NIL) if self.ho else InputPrefix(value, NIL)
        raise ParseError(f"expected a prefix, found {value!r}", line, col)

    @staticmethod
    def _ho_input(channel, cont):
        # "a.P" abbreviates an input with an unused binder.
        return HoInput(channel, fresh_name("X", free_vars(cont)), cont)


def parse(text: str, dialect: str = "ccsm") -> Term:
    """Parse text in the given dialect ('ccsm' or 'hoccsm').

    In the hoccsm dialect, ! and !g are macros, expanded into the
    derived-replication encoding. Open higher-order terms parse fine; callers
    needing closed terms check is_closed.
    """
    if dialect not in ("ccsm", "hoccsm"):
        raise ValueError(f"unknown dialect {dialect!r}")
    parser = _Parser(_tokenize(text), dialect)
    term = parser.parse_proc()
    tok = parser.peek()
    if tok[0] != "eof":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[3])
    if dialect == "hoccsm":
        if any(isinstance(t, (Repl, GuardedRepl)) for t in subterms(term)):
            from . import hocore

            term = hocore.expand_replications(term)
    return term


def infer_dialect(text: str) -> str:
    """'hoccsm' when higher-order syntax is present, else 'ccsm'."""
    try:
        tokens = _tokenize(text)
    except ParseError:
        return "ccsm"
    for kind, _value, _line, _col in tokens:
        if kind in ("var", "lt", "bangg"):
            return "hoccsm"
    return "ccsm"


def split_pair_file(text: str):
    """Split a pair file on a line containing only '---'; returns 1 or 2 chunks."""
    lines = text.splitlines()
    for i, raw in enumerate(lines):
        if raw.strip() == "---":
            return ["\n".join(lines[:i]), "\n".join(lines[i + 1 :])]
    return [text]
