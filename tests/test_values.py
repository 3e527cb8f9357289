"""The namedtuple value classes against dataclass twins.

Each class is compared with a dataclass twin holding the same fields:
the frozen ones in equality, hash, repr, immutability, pickling and
copying, and Report, whose rows list grows, in equality, repr and
unhashability.  A value also equals the plain tuple of its fields, but
no two of the package's sample values of different classes are equal.
"""

import copy
import dataclasses
import pickle

import pytest

from repspace.abelian import AbelianGroup, GradedGroup
from repspace.counting import TypeMatrix
from repspace.su2 import SignMatrix
from repspace.verifier import Report

FROZEN_CASES = {
    "AbelianGroup": (AbelianGroup, (2, (2, 4))),
    "GradedGroup": (GradedGroup, ((AbelianGroup(1), AbelianGroup(0, (3,))),)),
    "TypeMatrix": (TypeMatrix, (2, (3,), (((0,), (1,)), ((2,), (0,))))),
    "SignMatrix": (SignMatrix, (2, ((1, -1), (-1, 1)))),
}


def twin(cls, frozen=True):
    """A dataclass with cls's name and fields, in the same order."""
    return dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=frozen)


def fields(value):
    return [getattr(value, name) for name in value._fields]


@pytest.mark.parametrize("case", list(FROZEN_CASES))
def test_a_frozen_value_behaves_as_its_dataclass_twin(case):
    cls, args = FROZEN_CASES[case]
    value = cls(*args)
    ref = twin(cls)(*fields(value))
    assert repr(value) == repr(ref)
    assert hash(value) == hash(ref)
    same = cls(**dict(zip(cls._fields, args)))
    assert value == same and value is not same and hash(value) == hash(same)
    assert value != ref and ref != value  # another class is never equal
    assert value == tuple(fields(value))
    assert len({value, same}) == 1


@pytest.mark.parametrize("case", list(FROZEN_CASES))
def test_a_frozen_value_refuses_assignment_and_deletion(case):
    cls, args = FROZEN_CASES[case]
    value = cls(*args)
    name = cls._fields[0]
    for change in (
        lambda: setattr(value, name, 0),
        lambda: setattr(value, "extra", 0),
        lambda: delattr(value, name),
    ):
        with pytest.raises(AttributeError):
            change()
    assert fields(value) == fields(cls(*args))


@pytest.mark.parametrize("case", list(FROZEN_CASES))
def test_a_frozen_value_survives_pickling_and_copying(case):
    cls, args = FROZEN_CASES[case]
    value = cls(*args)
    for other in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert other.__class__ is cls
        assert other == value and fields(other) == fields(value)


def test_values_of_different_classes_are_never_equal():
    values = [cls(*args) for cls, args in FROZEN_CASES.values()]
    for a in values:
        for b in values:
            assert (a == b) == (a.__class__ is b.__class__), (a, b)


def test_frozen_defaults_are_the_dataclass_defaults():
    assert AbelianGroup(3) == AbelianGroup(3, ())
    assert GradedGroup() == GradedGroup(()) == GradedGroup.of()


def test_construction_still_normalizes_and_validates():
    assert AbelianGroup(1, [2.0]).torsion == (2,)
    assert GradedGroup((AbelianGroup(1), AbelianGroup(0))).groups == (AbelianGroup(1),)
    with pytest.raises(ValueError, match="broken divisor chain"):
        AbelianGroup(0, (2, 3))
    with pytest.raises(ValueError, match="disagree"):
        TypeMatrix(2, (3,), (((0,), (1,)), ((1,), (0,))))
    with pytest.raises(ValueError, match="symmetric"):
        SignMatrix(2, ((1, -1), (1, 1)))


def test_report_behaves_as_its_mutable_dataclass_twin():
    ref_cls = dataclasses.make_dataclass(
        "Report",
        [("name", str), ("rows", list, dataclasses.field(default_factory=list))],
    )
    rep = Report("demo")
    rep.add("H_0", 1, 1)
    ref = ref_cls("demo", list(rep.rows))
    assert repr(rep) == repr(ref)
    assert rep == Report("demo", list(rep.rows)) and rep != ref
    assert rep != Report("demo")
    with pytest.raises(TypeError):
        hash(rep)
    with pytest.raises(AttributeError):
        rep.name = "renamed"
    rep.add("H_1", 0, 0)
    assert rep.name == "demo" and len(rep.rows) == 2
    assert Report("a").rows is not Report("a").rows
    assert pickle.loads(pickle.dumps(rep)) == rep
