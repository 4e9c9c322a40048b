"""The library's record classes: immutability, copies, and the wire form of
a suite report."""

import copy
from fractions import Fraction as F

import pytest

from sylres.poly import Poly
from sylres.rootsets import RootMultiset
from sylres.schur import SchurSpec
from sylres.sylvester import SylmTerm
from sylres.verify import FuzzConfig, SuiteReport

RECORDS = [
    (SchurSpec(3, (2, 1), RootMultiset([(5, 1)])), "k"),
    (SylmTerm(((), (), ()), (F(1),), (F(2),), -1, Poly([1, 2])), "sign"),
    (FuzzConfig(seed=3), "seed"),
]


@pytest.mark.parametrize("record, field", RECORDS,
                         ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record, field):
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    assert getattr(record, field) == value


@pytest.mark.parametrize("record, _", RECORDS,
                         ids=lambda r: type(r).__name__)
def test_copy_is_equal(record, _):
    assert copy.copy(record) == record


def test_fuzz_config_fields_and_repr():
    cfg = FuzzConfig(1, 2, max_deg=3)
    assert cfg == FuzzConfig(seed=1, count=2, max_deg=3, coeff_bound=8,
                             allow_shared_roots=True)
    assert cfg != FuzzConfig(seed=1, count=2, max_deg=4)
    assert repr(cfg) == ("FuzzConfig(seed=1, count=2, max_deg=3, "
                         "coeff_bound=8, allow_shared_roots=True)")


def test_failing_report_to_json():
    failure = {"seq": 0, "suite": "thm14", "instance": {"a": "1:2", "b": "3",
                                                        "d": 0},
               "d": 0, "sres": {"coeffs": ["1"]}, "sylm": {"coeffs": ["2"]}}
    report = SuiteReport("thm14")
    report.instances = 3
    report.failures.append(failure)
    report.notes.append("both collapsed and general regimes covered")
    report.wall_time = 0.25
    # what dataclasses.asdict gave, keys in field order
    want = {"suite": "thm14", "instances": 3, "failures": [failure],
            "wall_time": 0.25,
            "notes": ["both collapsed and general regimes covered"]}
    got = report.to_json()
    assert got == want and list(got) == list(want)
    assert not report.ok
    assert report == SuiteReport("thm14", 3, [failure], 0.25, want["notes"])
    assert SuiteReport("thm14").to_json()["failures"] == []
