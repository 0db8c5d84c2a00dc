"""reporting.jsonable: numpy values become plain Python for the JSON reports."""

import json

import numpy as np
import pytest

from involq.reporting import jsonable


def flat(value):
    return [x for v in value for x in flat(v)] if isinstance(value, list) else [value]


@pytest.mark.parametrize(
    "array, kind",
    [
        (np.arange(5, dtype=np.int32), int),
        (np.array([True, False, True]), bool),
        (np.arange(12, dtype=np.int64).reshape(3, 4), int),
    ],
    ids=["int", "bool", "2-d"],
)
def test_plain_arrays_give_plain_lists(array, kind):
    out = jsonable(array)
    assert out == array.tolist()
    assert all(type(v) is kind for v in flat(out))


def test_object_arrays_are_still_converted():
    array = np.empty(3, dtype=object)
    array[0] = np.int64(3)
    array[1] = (np.int64(1), np.bool_(True))
    array[2] = {"k": np.arange(2)}
    out = jsonable(array)
    assert out == [3, [1, True], {"k": [0, 1]}]
    assert [type(v) for v in flat(out[:2])] == [int, int, bool]
    assert json.dumps(out) == '[3, [1, true], {"k": [0, 1]}]'
