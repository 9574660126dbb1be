"""The immutable value types: equality, hashing, immutability, fields."""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import spincalc
from spincalc._value import Value
from spincalc.abelian import AbGroup, Z
from spincalc.analysis import ChiralityVerdict
from spincalc.construct import (
    CP,
    CSum,
    Bundle,
    ConstructionExpr,
    DehnRHS,
    IHS3,
    Lens,
    Prod,
    Sphere,
    Spin,
    Surface,
)
from spincalc.degrees import SIGNED_UNIT, DegreeSet, UpperBound
from spincalc.graded import DualityReport, GradedGroup
from spincalc.manifold import (
    DirectProduct,
    FiniteCyclic,
    FreeGroup,
    FreeProduct,
    HyperbolicThreeManifoldGroup,
    ManifoldDescriptor,
    Pi1Tag,
    SurfaceGroup,
    Trivial,
    Violation,
)

S3 = GradedGroup(3, ((0, Z), (3, Z)))

# per value class, the arguments of two different values; field-less classes have one
SAMPLES = {
    AbGroup: [(1, (2, 4)), (1, (2,))],
    UpperBound: [("perfect_powers", 3), ("perfect_powers", 5)],
    DegreeSet: [(), (frozenset({-1, 0, 1}), SIGNED_UNIT, True, ("surface",))],
    GradedGroup: [(3, ((0, Z), (3, Z))), (4, ((0, Z), (4, Z)))],
    DualityReport: [(False, 1, "torsion"), (False, 2, "torsion")],
    Trivial: [()],
    FiniteCyclic: [(3,), (2,)],
    HyperbolicThreeManifoldGroup: [()],
    SurfaceGroup: [(3,), (2,)],
    FreeGroup: [(4,), (2,)],
    FreeProduct: [((FreeGroup(1), FiniteCyclic(2)),), ((FreeGroup(1),),)],
    DirectProduct: [((FreeGroup(1), FiniteCyclic(2)),), ((FreeGroup(1),),)],
    ManifoldDescriptor: [
        (Sphere(3), 3, S3, Trivial()),
        (IHS3(), 3, S3, HyperbolicThreeManifoldGroup()),
    ],
    Violation: [("euler-sign", "chi = 0"), ("euler-sign", "chi = 2")],
    ChiralityVerdict: [("inconclusive", ("no rule",)), ("inconclusive", ())],
    Sphere: [(3,), (4,)],
    CP: [(3,), (4,)],
    Surface: [(3,), (4,)],
    Lens: [(3, 5), (5, 3)],
    DehnRHS: [(3,), (7,)],
    IHS3: [()],
    Bundle: [(3, 5), (5, 3)],
    Spin: [(3, Sphere(5)), (5, Sphere(3))],
    CSum: [(Sphere(3), Sphere(5)), (Sphere(5), Sphere(3))],
    Prod: [(Sphere(3), Sphere(5)), (Sphere(5), Sphere(3))],
}
ABSTRACT = {Pi1Tag, ConstructionExpr}
CLASSES = pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)


def subclasses(cls: type) -> set[type]:
    out = set()
    for sub in cls.__subclasses__():
        out |= {sub} | subclasses(sub)
    return out


def test_every_value_class_has_samples():
    assert subclasses(Value) - ABSTRACT == set(SAMPLES)


@CLASSES
def test_equal_fields_give_equal_values_and_hashes(cls):
    for args in SAMPLES[cls]:
        a, b = cls(*args), cls(*args)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    if len(SAMPLES[cls]) == 2:
        a, b = (cls(*args) for args in SAMPLES[cls])
        assert a != b and not a == b


def test_values_of_different_classes_differ():
    for a, b in [
        (Sphere(3), CP(3)), (Surface(3), DehnRHS(3)),
        (CSum(Sphere(3), Sphere(5)), Prod(Sphere(3), Sphere(5))),
        (Trivial(), IHS3()),
    ]:
        assert a != b and not a == b
        assert len({a, b}) == 2
    values = [cls(*args) for cls, samples in SAMPLES.items() for args in samples]
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            assert a != b, (a, b)


@CLASSES
def test_fields_cannot_be_set_or_deleted(cls):
    value = cls(*SAMPLES[cls][-1])
    assert not hasattr(value, "__dict__")
    for name in cls.__match_args__ or ("anything",):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(*SAMPLES[cls][-1])


@CLASSES
def test_match_args_are_the_constructor_parameters(cls):
    assert cls.__match_args__ == tuple(inspect.signature(cls).parameters)


def test_connectivity_is_read_not_stored():
    """The connectivity is a function of homology and pi_1, so it is no field."""
    m = ManifoldDescriptor(Sphere(3), 3, S3, Trivial())
    assert "connectivity" not in repr(m)
    assert m.connectivity == 2
    with pytest.raises(AttributeError):
        m.connectivity = 0


def test_import_loads_neither_dataclasses_nor_inspect():
    """A cold start pays for no code generation; ``site`` may preload modules."""
    src = Path(spincalc.__file__).resolve().parent.parent
    code = (
        "import sys; before = set(sys.modules); import spincalc.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
    )
    added = result.stdout.split()
    assert "spincalc.cli" in added
    assert {"dataclasses", "inspect"}.isdisjoint(added)
