"""Value classes on __slots__ against the dataclasses they replaced.

Each class is compared with a dataclass twin holding the same fields:
the frozen ones in equality, hash, repr, immutability, pickling and
copying, and the mutable Report in equality, repr and unhashability.
"""

import copy
import dataclasses
import pickle

import pytest

from repspace.abelian import AbelianGroup, GradedGroup
from repspace.counting import TypeMatrix
from repspace.su2 import DEFAULT_TOL, I, J, SignMatrix, SU2Tuple, UnitQuaternion
from repspace.values import FrozenInstanceError
from repspace.verifier import Report

FROZEN_CASES = {
    "AbelianGroup": (AbelianGroup, (2, (2, 4))),
    "GradedGroup": (GradedGroup, ((AbelianGroup(1), AbelianGroup(0, (3,))),)),
    "TypeMatrix": (TypeMatrix, (2, (3,), (((0,), (1,)), ((2,), (0,))))),
    "SU2Tuple": (SU2Tuple, ((I, J), 1e-6)),
    "SignMatrix": (SignMatrix, (2, ((1, -1), (-1, 1)))),
    "UnitQuaternion": (UnitQuaternion, (0.6, 0.8, 0.0, 0.0)),
}


def twin(cls, frozen=True):
    """A dataclass with cls's name and fields, in the same order."""
    return dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=frozen)


def fields(value):
    return [getattr(value, name) for name in value.__slots__]


@pytest.mark.parametrize("case", list(FROZEN_CASES))
def test_a_frozen_value_behaves_as_its_dataclass_twin(case):
    cls, args = FROZEN_CASES[case]
    value = cls(*args)
    ref = twin(cls)(*fields(value))
    assert repr(value) == repr(ref)
    assert hash(value) == hash(ref)
    same = cls(**dict(zip(cls.__slots__, args)))
    assert value == same and value is not same and hash(value) == hash(same)
    assert value != ref and ref != value  # another class is never equal
    assert len({value, same}) == 1


@pytest.mark.parametrize("case", list(FROZEN_CASES))
def test_a_frozen_value_refuses_assignment_and_deletion(case):
    cls, args = FROZEN_CASES[case]
    value = cls(*args)
    name = cls.__slots__[0]
    for change in (
        lambda: setattr(value, name, 0),
        lambda: setattr(value, "extra", 0),
        lambda: delattr(value, name),
    ):
        with pytest.raises(FrozenInstanceError) as err:
            change()
        assert isinstance(err.value, AttributeError)
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


def test_frozen_defaults_are_the_dataclass_defaults():
    assert AbelianGroup(3) == AbelianGroup(3, ())
    assert GradedGroup() == GradedGroup(()) == GradedGroup.of()
    assert SU2Tuple((I,)).tol == DEFAULT_TOL


def test_construction_still_normalizes_and_validates():
    assert AbelianGroup(1, [2.0]).torsion == (2,)
    assert GradedGroup((AbelianGroup(1), AbelianGroup(0))).groups == (AbelianGroup(1),)
    assert SU2Tuple([I, J]).elements == (I, J)
    with pytest.raises(ValueError, match="broken divisor chain"):
        AbelianGroup(0, (2, 3))
    with pytest.raises(ValueError, match="disagree"):
        TypeMatrix(2, (3,), (((0,), (1,)), ((1,), (0,))))
    with pytest.raises(ValueError, match="symmetric"):
        SignMatrix(2, ((1, -1), (1, 1)))
    with pytest.raises(ValueError, match="positive"):
        SU2Tuple((I,), 0.0)


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
    rep.name = "renamed"  # mutable, as the dataclass was
    assert rep.name == "renamed"
    assert Report("a").rows is not Report("a").rows
    assert pickle.loads(pickle.dumps(rep)) == rep
