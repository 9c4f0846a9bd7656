"""The record and term classes: constructors, equality, repr, hashing and
immutability, class by class, and an import that loads neither `dataclasses`
nor `inspect`."""

import subprocess
import sys
from pathlib import Path

import pytest

from pcalc.corpus import CorpusEntry
from pcalc.equivalence import AttackerTrace, CoincidenceReport, Partition, TauClassification, TraceStep, Verdict
from pcalc.evidence import AndF, CertResult, Certificate, DiamondF, Evidence, NotF, Obligation, TrueF
from pcalc.hocore import Context, HoVerdict, TestFamilies
from pcalc.semantics import Action, Bounds, SilentSccs
from pcalc.syntax import (
    NIL,
    GuardedRepl,
    HoInput,
    HoOutput,
    InputPrefix,
    Nil,
    OutputPrefix,
    Par,
    Repl,
    Var,
)

A = InputPrefix("a", NIL)
B = OutputPrefix("b", NIL)
IN_A = Action("in", "a")
TRACE = AttackerTrace("strong", (A, B), (), "no-match", "left", IN_A)


def _runner():
    return []


# (class, required arguments, every field in constructor order, repr with the
# defaults, hash of equal instances or None for a mutable class, the fields
# left out of equality, a field change that breaks equality)
CASES = [
    (Nil, (), (), "Nil()", hash(("Nil",)), (), None),
    (Var, ("X",), ("name",), "Var(name='X')", hash(("Var", "X")), (), {"name": "Y"}),
    (
        InputPrefix,
        ("a", NIL),
        ("name", "cont"),
        "InputPrefix(name='a', cont=Nil())",
        hash(("In", "a", NIL)),
        (),
        {"name": "b"},
    ),
    (
        OutputPrefix,
        ("a", NIL),
        ("name", "cont"),
        "OutputPrefix(name='a', cont=Nil())",
        hash(("Out", "a", NIL)),
        (),
        {"cont": A},
    ),
    (Repl, (A,), ("body",), "Repl(body=InputPrefix(name='a', cont=Nil()))", hash(("Repl", A)), (), {"body": B}),
    (
        Par,
        ((A, B),),
        ("parts",),
        "Par(parts=(InputPrefix(name='a', cont=Nil()), OutputPrefix(name='b', cont=Nil())))",
        hash(("Par", A, B)),
        (),
        {"parts": (B, A)},
    ),
    (
        HoInput,
        ("a", "X", Var("X")),
        ("channel", "var", "body"),
        "HoInput(channel='a', var='X', body=Var(name='X'))",
        hash(("HoIn", "a", "X", Var("X"))),
        (),
        {"var": "Y"},
    ),
    (
        HoOutput,
        ("a", NIL, NIL),
        ("channel", "message", "cont"),
        "HoOutput(channel='a', message=Nil(), cont=Nil())",
        hash(("HoOut", "a", NIL, NIL)),
        (),
        {"message": Var("X")},
    ),
    (
        GuardedRepl,
        (HoInput("a", "X", NIL),),
        ("prefix",),
        "GuardedRepl(prefix=HoInput(channel='a', var='X', body=Nil()))",
        hash(("GRepl", HoInput("a", "X", NIL))),
        (),
        {"prefix": HoOutput("a", NIL, NIL)},
    ),
    (Action, ("tau",), ("kind", "name", "payload"), "Action(kind='tau', name='', payload=None)", hash(("tau", "", None)), (), {"kind": "in"}),
    (Bounds, (), ("max_states", "max_depth"), "Bounds(max_states=2000, max_depth=64)", hash((2000, 64)), (), {"max_depth": 3}),
    (
        SilentSccs,
        ((0,), ((0,),), (False,), ((),)),
        ("of", "members", "cyclic", "exits"),
        "SilentSccs(of=(0,), members=((0,),), cyclic=(False,), exits=((),))",
        hash(((0,), ((0,),), (False,), ((),))),
        (),
        {"cyclic": (True,)},
    ),
    (
        Partition,
        ("strong", (0, 0)),
        ("kind", "block_of", "iterations", "splits"),
        "Partition(kind='strong', block_of=(0, 0), iterations=0)",
        None,
        ("splits",),
        {"iterations": 2},
    ),
    (
        TraceStep,
        ("left", IN_A, (NIL, NIL)),
        ("side", "action", "after", "rolled_back", "context"),
        "TraceStep(side='left', action=Action(kind='in', name='a', payload=None), after=(Nil(), Nil()),"
        " rolled_back=False, context='')",
        None,
        (),
        {"rolled_back": True},
    ),
    (
        AttackerTrace,
        ("weak", (NIL, A), (), "no-match"),
        ("kind", "start", "steps", "reason", "final_side", "final_action", "rank_pairs"),
        "AttackerTrace(kind='weak', start=(Nil(), InputPrefix(name='a', cont=Nil())), steps=(),"
        " reason='no-match', final_side='', final_action=None, rank_pairs=0)",
        None,
        ("rank_pairs",),
        {"final_side": "right"},
    ),
    (
        Verdict,
        ("unknown", "weak"),
        ("outcome", "kind", "witness", "trace", "bound_report", "stats"),
        "Verdict(outcome='unknown', kind='weak', witness=None, trace=None, bound_report=None, stats={})",
        None,
        (),
        {"stats": {"states": 1}},
    ),
    (
        TauClassification,
        ({(0, 1): "state-preserving"}, (0, 0)),
        ("edge_labels", "k"),
        "TauClassification(edge_labels={(0, 1): 'state-preserving'}, k=(0, 0))",
        None,
        (),
        {"k": (1, 0)},
    ),
    (
        CoincidenceReport,
        (3, True, True, False, True, True, []),
        ("states", "equal_weak_qs", "equal_weak_qsb", "equal_weak_branching", "strong_in_qs", "qs_in_weak", "violations"),
        "CoincidenceReport(states=3, equal_weak_qs=True, equal_weak_qsb=True, equal_weak_branching=False,"
        " strong_in_qs=True, qs_in_weak=True, violations=[])",
        None,
        (),
        {"violations": ["weak=branching"]},
    ),
    (Context, (Var("X"),), ("term",), "Context(term=Var(name='X'))", hash((Var("X"),)), (), {"term": NIL}),
    (
        TestFamilies,
        ((NIL,), ()),
        ("inputs", "contexts"),
        "TestFamilies(inputs=(Nil(),), contexts=())",
        None,
        (),
        {"contexts": (Context(Var("X")),)},
    ),
    (
        HoVerdict,
        ("unknown", "context-strong"),
        ("outcome", "kind", "trace", "families", "start", "final", "bound_report", "stats"),
        "HoVerdict(outcome='unknown', kind='context-strong', trace=None, families=None, start=(), final=(),"
        " bound_report=None, stats={})",
        None,
        (),
        {"outcome": "inequivalent"},
    ),
    (
        Certificate,
        (((Par((B, A)), A),),),
        ("pairs", "discipline", "closure_budget"),
        "Certificate(pairs=((Par(parts=(InputPrefix(name='a', cont=Nil()), OutputPrefix(name='b', cont=Nil()))),"
        " InputPrefix(name='a', cont=Nil())),), discipline='upto-context', closure_budget=256)",
        None,
        (),
        {"closure_budget": 8},
    ),
    (
        Obligation,
        ((A, A), "left", IN_A, NIL, NIL, None, "equal"),
        ("pair", "direction", "action", "derivative", "answer", "context", "via"),
        "Obligation(pair=(InputPrefix(name='a', cont=Nil()), InputPrefix(name='a', cont=Nil())), direction='left',"
        " action=Action(kind='in', name='a', payload=None), derivative=Nil(), answer=Nil(), context=None,"
        " via='equal')",
        None,
        (),
        {"via": "pair"},
    ),
    (
        CertResult,
        ("certified", []),
        ("outcome", "obligations", "failure"),
        "CertResult(outcome='certified', obligations=[], failure=None)",
        None,
        (),
        {"failure": {"reason": "x"}},
    ),
    (TrueF, (), (), "TrueF()", hash(()), (), None),
    (
        DiamondF,
        (IN_A, TrueF()),
        ("action", "sub"),
        "DiamondF(action=Action(kind='in', name='a', payload=None), sub=TrueF())",
        hash((IN_A, TrueF())),
        (),
        {"sub": NotF(TrueF())},
    ),
    (AndF, ((TrueF(),),), ("subs",), "AndF(subs=(TrueF(),))", hash(((TrueF(),),)), (), {"subs": ()}),
    (NotF, (TrueF(),), ("sub",), "NotF(sub=TrueF())", hash((TrueF(),)), (), {"sub": AndF(())}),
    (
        Evidence,
        (TRACE,),
        ("trace", "formula"),
        "Evidence(trace=AttackerTrace(kind='strong', start=(InputPrefix(name='a', cont=Nil()),"
        " OutputPrefix(name='b', cont=Nil())), steps=(), reason='no-match', final_side='left',"
        " final_action=Action(kind='in', name='a', payload=None), rank_pairs=0), formula=None)",
        None,
        (),
        {"formula": TrueF()},
    ),
    (
        CorpusEntry,
        ("growth", "ccsm", ("a",), "note", _runner),
        ("name", "dialect", "terms", "note", "runner"),
        f"CorpusEntry(name='growth', dialect='ccsm', terms=('a',), note='note', runner={_runner!r})",
        None,
        (),
        {"note": "other"},
    ),
]


@pytest.mark.parametrize("cls, args, fields, text, hashed, uncompared, change", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_class(cls, args, fields, text, hashed, uncompared, change):
    obj = cls(*args)
    assert repr(obj) == text
    # keywords name the fields; the defaults fill the rest
    values = {f: getattr(obj, f) for f in fields}
    assert cls(**values) == obj
    assert cls(*values.values()) == obj
    assert obj != object() and not obj == object()
    if change is not None:
        assert cls(**{**values, **change}) != obj
    for f in uncompared:
        assert cls(**{**values, f: 7}) == obj
    if hashed is None:
        with pytest.raises(TypeError):
            hash(obj)
        if fields:
            setattr(obj, fields[-1], values[fields[-1]])
    else:
        assert hash(obj) == hash(cls(*args)) == hashed
        for name in fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
    assert repr(obj) == text


@pytest.mark.parametrize("cls", [Verdict, HoVerdict], ids=["Verdict", "HoVerdict"])
def test_default_stats_are_fresh(cls):
    one, two = cls("unknown", "k"), cls("unknown", "k")
    one.stats["x"] = 1
    assert two.stats == {}


def test_constructors_check_their_arguments():
    with pytest.raises(ValueError, match="bounds must be at least 1"):
        Bounds(0, 5)
    with pytest.raises(ValueError, match="bounds must be at least 1"):
        Bounds(max_depth=0)
    with pytest.raises(ValueError, match="unknown discipline 'loose'"):
        Certificate(((A, A),), discipline="loose")
    with pytest.raises(ValueError, match="closure budget must be positive"):
        Certificate(((A, A),), closure_budget=0)


_IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import pcalc, pcalc.cli
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_import_loads_no_dataclass_machinery():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(src)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
