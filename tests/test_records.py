"""The contract that every frozen record of pathcomb keeps: construction by
position or by keyword, == and hash on the tuple of its fields, its repr,
immutability, and pickle and copy round trips."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

import pathcomb as pc
from pathcomb.enumeration import VerificationReport

# each record class, its field names in order, and values for them
RECORDS = [
    (pc.BitTriangle, ("bits",), (((), (1,), (0, 1)),)),
    (pc.ExplicitPath, ("start", "steps"), ((1, 0), ((0, 1), (-1, 0)))),
    (pc.PathFamily, ("B", "D"), (((), (1,)), ((0,), (0, 0)))),
    (pc.Violation, ("kind", "i", "j", "message"), ("domain", 1, 0, "B[1][0] = 2 is not a bit")),
    (pc.CombTrace, ("i", "k", "d_seq"), (1, 2, (0, 1, 1))),
    (VerificationReport, ("n", "triangles", "disjoint_families", "failures"),
     (2, 2, 2, ("not injective",))),
    (pc.Region, ("cells",), (frozenset({(0, 0), (0, 1)}),)),
    (pc.EdgeSets, ("entries", "interior", "exits"),
     (frozenset({(0, 0)}), frozenset(), frozenset({(0, 2)}))),
    (pc.DominoTiling, ("dominoes",), (frozenset({((0, 0), (0, 1))}),)),
    (pc.EdgePathFamily, ("paths",), ((((0, 0), (0, 2)),),)),
]

pytestmark = pytest.mark.parametrize("cls,names,values", RECORDS,
                                     ids=[cls.__name__ for cls, _, _ in RECORDS])


def test_positional_and_keyword_construction_agree(cls, names, values):
    record = cls(*values)
    assert record == cls(**dict(zip(names, values)))
    assert tuple(getattr(record, name) for name in names) == values


def test_equality_and_hash_are_the_tuple_of_fields(cls, names, values):
    record = cls(*values)
    assert hash(record) == hash(values)
    assert record == cls(*copy.deepcopy(values))
    assert {record, cls(*values)} == {record}
    # a tuple of the same values is no record
    assert record != values and values != record
    assert record.__eq__(values) is NotImplemented


def test_repr(cls, names, values):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


def test_fields_cannot_be_assigned_or_deleted(cls, names, values):
    record = cls(*values)
    frozen = dataclasses.FrozenInstanceError
    for name in names:
        with pytest.raises(frozen, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(frozen, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert tuple(getattr(record, name) for name in names) == values


def test_pickle_and_copy_round_trips(cls, names, values):
    record = cls(*values)
    copies = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(record), copy.deepcopy(record)]
    for other in copies:
        assert type(other) is cls
        assert other == record and hash(other) == hash(record)
