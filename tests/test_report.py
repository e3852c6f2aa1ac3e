import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribvp.certify import ConditionReport
from tribvp.linear import ResidualReport
from tribvp.nonlinear import SolutionClass
from tribvp.problem import HypothesisReport
from tribvp.report import dump_report

SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
REPORTS = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=40,
)


def _dumped(obj, path) -> bytes:
    dump_report(obj, path)
    return path.read_bytes()


def _reference(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


@settings(max_examples=200, deadline=None)
@given(report=REPORTS)
def test_dump_report_writes_what_json_dumps_writes(report, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "property_report.json"  # one file, rewritten by every example
    assert _dumped(report, path) == _reference(report)


@pytest.mark.parametrize(
    "obj",
    [
        {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")},
        [-0.0, 0.0, 5e-324, -5e-324, 1e300, 1e-300, 0.1, 1e16, 123456789.0, 2.0**53 + 2],
        [0, -1, 2**64, -(2**100), True, False, None],
        {"é": "naïve ∑ 😀", "ctl": "\x00\x01\x1f\x7f\t\n\r", "q": '"quoted" \\ /slash'},
        {},
        [],
        {"a": {}, "b": [], "c": [[], {}, [[]], {"d": {}}], "e": ()},
        {"z": 1, "a": 2, "M": 3, "": 4, "aa": 5},
        {"t": (1, (2.5, "x"), ())},
        "top-level string",
        3.25,
    ],
)
def test_dump_report_edge_values_match_json_dumps(obj, tmp_path):
    assert _dumped(obj, tmp_path / "report.json") == _reference(obj)


@pytest.mark.parametrize(
    "obj",
    [{"count": np.int64(3)}, [np.bool_(True)], {"x": object()}, {1: "a", "b": 2}],
)
def test_dump_report_rejects_what_json_rejects(obj, tmp_path):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as raised:
        dump_report(obj, tmp_path / "report.json")
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("obj", [{1: "int"}, {2.5: "float"}, {True: "t"}, {None: "n"}, {(1, 2): "tuple key"}])
def test_dump_report_rejects_keys_that_are_not_strings(obj, tmp_path):
    # every key the program writes is a str; json.dumps coerces the first four, and the writer rejects all five
    with pytest.raises(TypeError):
        dump_report(obj, tmp_path / "report.json")


FLOATS = st.floats(allow_nan=False)
RECORDS = {  # each record type, and its to_dict as it was built through dataclasses.asdict
    ConditionReport: (
        st.builds(ConditionReport, st.text(max_size=4), st.booleans(), FLOATS, FLOATS, st.tuples(FLOATS, FLOATS),
                  st.sampled_from(["exact", "enclosure"])),
        lambda r: {**asdict(r), "worst_point": list(r.worst_point)},
    ),
    HypothesisReport: (
        st.builds(HypothesisReport, st.booleans(), st.booleans(), st.booleans(), st.lists(st.text(max_size=8)).map(tuple)),
        lambda r: {**asdict(r), "ok": r.ok, "messages": list(r.messages)},
    ),
    ResidualReport: (st.builds(ResidualReport, FLOATS, FLOATS, FLOATS), asdict),
    SolutionClass: (
        st.builds(SolutionClass, FLOATS, FLOATS, st.none() | FLOATS, st.sampled_from(["small", "middle", "large-min"])),
        asdict,
    ),
}


@settings(max_examples=50, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(RECORDS, key=lambda c: c.__name__)))
def test_record_to_dict_equals_its_asdict_form(data, kind):
    records, reference = RECORDS[kind]
    record = data.draw(records)
    assert list(record.to_dict().items()) == list(reference(record).items())
