"""``psodkit.records.record`` against ``dataclasses.dataclass(frozen=True)``.

``dataclasses`` serves here only as the oracle.  Each record class of the
package is compiled a second time from its own source with ``@record``
replaced by ``@dataclass(frozen=True)``; the twin must agree with the record
on ``repr``, ``==`` and ``hash`` of instances collected from real
computations, and on which calls and mutations it rejects.
"""

import dataclasses
import functools
import inspect
import itertools

import pytest

from psodkit import (
    abelian, atlas, colimits, config, engine, factorial, gluing, groups, kreport, preorders, records,
    strata, verify,
)
from psodkit.abelian import GradedGroup, IntMatrix, graded_limit, identity_graded_hom
from psodkit.atlas import Chart, ChartAtlas, Overlap, strata_from_atlas
from psodkit.colimits import colimit
from psodkit.config import Caps
from psodkit.engine import build_infinite_psod, build_root_psod, filtration
from psodkit.examples import nodal_cubic, simple_crossing
from psodkit.factorial import CharTuple, to_factorial_form
from psodkit.gluing import GluingScenario, glue
from psodkit.groups import FgAbGroup
from psodkit.kreport import KTheoryMode, ktheory_report
from psodkit.preorders import complete_preorder, directedness, discrete_preorder
from psodkit.records import FrozenRecordError, fields, record
from psodkit.verify import verify_colimit

from helpers import generated_preorder, identity_map
from test_abelian import graded_quiver
from test_engine import cech_scenario

MODULES = (abelian, atlas, colimits, config, engine, factorial, gluing, groups, kreport,
           preorders, strata, verify)


def record_classes():
    return [
        cls
        for module in MODULES
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
        and vars(cls).get("__setattr__") is records._no_setattr
    ]


def twin(cls):
    """``cls`` compiled again from its source as a frozen dataclass, in a
    copy of its module's namespace (so its methods name the twin)."""
    source = inspect.getsource(cls)
    assert source.startswith("@record\n")
    source = ("from __future__ import annotations\n@dataclass(frozen=True)\n"
              + source[len("@record\n"):])
    # a frozen dataclass refuses the dict default that a record shares and
    # copies in __post_init__
    source = source.replace(" = {}\n", " = field(default_factory=dict)\n")
    namespace = dict(vars(inspect.getmodule(cls)), dataclass=dataclasses.dataclass,
                     field=dataclasses.field)
    exec(source, namespace)
    return namespace[cls.__name__]


TWINS = {cls: twin(cls) for cls in record_classes()}


def test_every_record_class_has_a_twin():
    assert len(TWINS) == 30
    for cls, tw in TWINS.items():
        assert dataclasses.is_dataclass(tw) and not dataclasses.is_dataclass(cls)
        assert fields(cls) == tuple(f.name for f in dataclasses.fields(tw))


def _roots():
    """Values built by every engine, holding instances of every record class."""
    cross = simple_crossing(2)
    scenario, psod = cech_scenario()
    g = GradedGroup(psod.index, {"o:(-1/2,-1/2)": FgAbGroup.free(1),
                                 "D:(-1/2)": FgAbGroup.free(1), "X:()": FgAbGroup(1, (2,))})
    graded = GluingScenario(scenario.diagram, scenario.psods,
                            {v: g for v in scenario.diagram.vertices})
    chain = generated_preorder(["x", "y"], [("x", "y")])
    gchain = GradedGroup(chain, {"x": FgAbGroup.free(1), "y": FgAbGroup(1, (2,))})
    gquiver = graded_quiver(
        {"u": gchain}, [("id", "u", "u", identity_graded_hom(gchain, identity_map(chain)))])
    atlas = ChartAtlas((Chart("c", ("p", "q")),), (Overlap("c", "c", {"p": "q"}),))
    kdata = {c: FgAbGroup(1, (2,)) for c in cross.all_components()}
    one = colimit(scenario.diagram)
    return [
        Caps(), Caps(carrier=5),
        build_root_psod(nodal_cubic(), 3), build_root_psod(cross, 2, totalize=True),
        build_infinite_psod(cross, 3, coprime_to=3),
        to_factorial_form(CharTuple.of("-1/2", "-1/3")), atlas, strata_from_atlas(atlas),
        glue(scenario), glue(graded),
        filtration(psod, {x: [1] for x in psod.index.elements}),
        ktheory_report(cross, kdata, KTheoryMode.finite(3)),
        ktheory_report(cross, kdata, KTheoryMode.infinite(3)),
        ktheory_report(cross, kdata, KTheoryMode.kummer_etale(2, 3)),
        one, verify_colimit(scenario.diagram, one.preorder,
                            {v: m.mapping for v, m in one.cocones.items()}),
        verify_colimit(scenario.diagram, discrete_preorder(["a"]),
                       {v: {x: "a" for x in psod.index.elements} for v in ("l0", "l1")}),
        directedness(chain), directedness(discrete_preorder(["a", "b"])),
        scenario, graded, gquiver,
        graded_limit(*gquiver, colimit(gquiver[0])),
        # the argument of snf, which no result holds
        IntMatrix(2, 2, ((2, 0), (0, 3))), IntMatrix(0, 3, ()), IntMatrix(2, 0, ((), ())),
    ]


def _collect(value, found, seen):
    if id(value) in seen:
        return
    seen.add(id(value))
    if type(value) in TWINS:
        found.setdefault(type(value), []).append(value)
        children = [getattr(value, name) for name in fields(type(value))]
    elif isinstance(value, (tuple, list)):
        children = value
    elif isinstance(value, dict):
        children = [*value, *value.values()]
    else:
        return
    for child in children:
        _collect(child, found, seen)


@functools.cache
def samples():
    found, seen = {}, set()
    _collect(_roots(), found, seen)
    return {cls: values[:6] for cls, values in found.items()}


def _values(x):
    return [getattr(x, name) for name in fields(type(x))]


def _hash(x):
    try:
        return hash(x)
    except TypeError as exc:
        return type(exc)


def test_samples_cover_every_record_class():
    assert set(samples()) == set(TWINS)


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda cls: cls.__name__)
def test_record_matches_its_dataclass_twin(cls):
    tw = TWINS[cls]
    xs = samples()[cls]
    ts = [tw(*_values(x)) for x in xs]
    for x, t in zip(xs, ts):
        assert repr(x) == repr(t)
        assert _hash(x) == _hash(t)
        again = cls(**dict(zip(fields(cls), _values(x))))
        assert again == x and not (again != x) and _hash(again) == _hash(x)
        assert not x == None and not t == None  # noqa: E711
    for (x, t), (y, u) in itertools.product(zip(xs, ts), repeat=2):
        assert (x == y) == (t == u)
    for name, attr in vars(cls).items():
        if isinstance(attr, functools.cached_property):
            for x, t in zip(xs, ts):
                assert getattr(x, name) == getattr(t, name)


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda cls: cls.__name__)
def test_record_rejects_what_its_twin_rejects(cls):
    tw = TWINS[cls]
    x = samples()[cls][0]
    values = _values(x)
    first = fields(cls)[0]
    bad_calls = [
        ((), {}),
        ((*values, None), {}),
        (tuple(values), {"bogus": 1}),
        (tuple(values), {first: values[0]}),
    ]
    for args, kwargs in bad_calls:
        rejected = []
        for make in (cls, tw):
            try:
                make(*args, **kwargs)
            except TypeError:
                rejected.append(True)
            else:
                rejected.append(False)
        assert rejected[0] == rejected[1], (args, kwargs)
    for target in (x, tw(*values)):
        with pytest.raises(AttributeError):
            setattr(target, first, values[0])
        with pytest.raises(AttributeError):
            delattr(target, first)
        with pytest.raises(AttributeError):
            target.extra = 1
    with pytest.raises(FrozenRecordError, match=f"cannot assign to field {first!r}"):
        setattr(x, first, values[0])


@record
class Sample:
    a: int
    b: list = []
    c: str = "c"

    def __post_init__(self):
        object.__setattr__(self, "b", list(self.b))
        object.__setattr__(self, "c", self.c.upper())


def test_construction_defaults_factories_and_post_init():
    s = Sample(1)
    assert (s.a, s.b, s.c) == (1, [], "C")
    assert Sample(1).b is not Sample(1).b
    assert Sample.b == [] and Sample.c == "c"
    assert Sample(1, [2], "x") == Sample(a=1, c="x", b=[2]) == Sample(1, c="x", b=[2])
    assert repr(Sample(1, c="x")) == "Sample(a=1, b=[], c='X')"
    with pytest.raises(TypeError, match="missing required argument 'a'"):
        Sample()
    with pytest.raises(TypeError, match="takes 4 positional arguments but 5 were given"):
        Sample(1, [], "x", 4)
    with pytest.raises(TypeError, match="unexpected keyword argument 'd'"):
        Sample(1, d=4)
    with pytest.raises(TypeError, match="multiple values for argument 'a'"):
        Sample(1, a=2)
    with pytest.raises(TypeError, match="unhashable"):
        hash(s)
    with pytest.raises(FrozenRecordError, match="cannot delete field 'a'"):
        del s.a


def test_hash_rule_matches_frozen_dataclass():
    class EqOnly:
        x: int

        def __eq__(self, other):
            return True

    class OwnHash:
        x: int

        def __hash__(self):
            return 7

    class Neither:
        x: int

    for body in (EqOnly, OwnHash, Neither):
        rec = record(type(body.__name__, (), dict(vars(body))))
        dc = dataclasses.dataclass(frozen=True)(type(body.__name__, (), dict(vars(body))))
        assert hash(rec(3)) == hash(dc(3))
        assert (rec(3) == rec(4)) == (dc(3) == dc(4))
