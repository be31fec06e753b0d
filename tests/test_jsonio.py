"""The artifact format: one case per rule of ``jsonio``."""

import json
import math
from dataclasses import dataclass

import numpy as np

from qmanin import jsonio


def roundtrip(obj):
    return json.loads(jsonio.dumps(obj))


def test_complex_is_a_pair_and_keeps_negative_zero():
    assert roundtrip(complex(1.5, 2.0)) == [1.5, 2.0]
    pair = roundtrip(complex(-0.0, -0.0))
    assert [math.copysign(1.0, x) for x in pair] == [-1.0, -1.0]


def test_non_finite_floats_are_strings():
    assert roundtrip([math.inf, -math.inf, math.nan]) == ["inf", "-inf", "nan"]
    assert roundtrip(np.array([math.inf, 1.0])) == ["inf", 1.0]


def test_tuple_array_and_numpy_scalar():
    assert roundtrip((1, 2.5, "x")) == [1, 2.5, "x"]
    assert roundtrip(np.array([[1 + 2j, 3.0]])) == [[[1.0, 2.0], [3.0, 0.0]]]
    scalars = roundtrip([np.int64(7), np.float64(0.1), np.bool_(True), np.complex128(1j)])
    assert scalars == [7, 0.1, True, [0.0, 1.0]]
    assert isinstance(scalars[0], int) and isinstance(scalars[2], bool)


@dataclass(frozen=True)
class _Point:
    x: float
    z: complex
    tags: tuple


def test_dataclass_is_its_fields():
    assert roundtrip(_Point(0.5, 1j, ("a", math.inf))) == {
        "x": 0.5, "z": [0.0, 1.0], "tags": ["a", "inf"]}


@dataclass(frozen=True)
class _Summary(_Point):
    def to_json(self) -> dict:
        return {"x": self.x, "norm": abs(self.z)}


def test_to_json_wins_over_the_fields():
    assert roundtrip(_Summary(0.5, 2j, ())) == {"x": 0.5, "norm": 2.0}
    assert roundtrip({"inner": [_Summary(1.0, 0j, ())]}) == {"inner": [{"x": 1.0, "norm": 0.0}]}


def test_sorted_keys_and_trailing_newline():
    text = jsonio.dumps({"b": 1, "a": {"d": 2, "c": 3}, 1: None})
    assert text.endswith("}\n") and not text.endswith("\n\n")
    assert list(json.loads(text)) == ["1", "a", "b"]
    assert text.index('"c"') < text.index('"d"')
    assert text == json.dumps({"1": None, "a": {"c": 3, "d": 2}, "b": 1},
                              indent=2, sort_keys=True) + "\n"
