"""Twin test: ``LoadAssignment``'s C-speed validation against the per-float
checks it replaced (``tests/oracle/load_assignment.py``).

The same inputs are refused with the same messages - NaN, infinities and
negative rates, first offender named - and the accepted ones are stored
with the same bits: a served value within round-off below zero clamps to
``0.0``, and a ``-0.0`` stays ``-0.0``, as ``max(x, 0.0)`` left it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.load import LoadAssignment
from repro.core.tree import chain_tree
from tests.oracle.load_assignment import validated

_ODD = [float("nan"), float("inf"), float("-inf"), -1.0, -1e-10, -1e-9, -2e-9, -0.0, 0.0, 5e-324]


def _bits(values):
    return tuple(x.hex() for x in values)  # "-0x0.0p+0" for -0.0


def assert_twin(spontaneous, served=None):
    tree = chain_tree(len(spontaneous))
    try:
        expected, expected_error = validated(tree.n, spontaneous, served), None
    except ValueError as exc:
        expected, expected_error = None, str(exc)
    try:
        a = LoadAssignment(tree, spontaneous, served)
        got, error = (a.spontaneous, a.served), None
    except ValueError as exc:
        got, error = None, str(exc)
    assert error == expected_error
    if expected is not None:
        assert [_bits(v) for v in got] == [_bits(v) for v in expected]
        assert all(type(x) is float for v in got for x in v)


_VALUE = st.one_of(st.sampled_from(_ODD), st.floats(0.0, 100.0), st.integers(0, 3))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(_VALUE, min_size=n, max_size=n),
    st.one_of(st.none(), st.lists(_VALUE, min_size=n, max_size=n)),
)))
def test_validation_matches_the_oracle(inputs):
    assert_twin(*inputs)


@pytest.mark.parametrize(
    "spontaneous, served",
    [
        ([1.0, float("nan")], None),
        ([1.0, float("inf")], None),
        ([-0.5, 1.0], None),
        ([1.0, 2.0], [1.0, float("nan")]),
        ([1.0, 2.0], [float("-inf"), 1.0]),
        ([1.0, 2.0], [-1e-3, 3.0]),
        ([1.0, 2.0], [3.0, -1e-10]),  # round-off: clamps to +0.0
        ([1.0, 2.0], [3.0, -0.0]),  # kept as -0.0
        ([1.0, 2.0], [-0.0, -1e-10]),
        (np.array([1.0, 2.0]), np.array([3.0, -1e-10])),
        ([1, 2], [3, 0]),
        ([1.0], [1.0, 2.0]),
    ],
)
def test_examples_match_the_oracle(spontaneous, served):
    assert_twin(spontaneous, served)


def test_round_off_clamps_to_positive_zero_and_negative_zero_is_kept():
    a = LoadAssignment(chain_tree(3), [1.0, 1.0, 1.0], [3.0, -1e-10, -0.0])
    assert [math.copysign(1.0, x) for x in a.served[1:]] == [1.0, -1.0]
    assert a.served[1] == 0.0


def test_floats_are_stored_as_given():
    """No new float objects: ``float()`` of a float is the float itself."""
    rates = [0.5 + i for i in range(5)]
    a = LoadAssignment(chain_tree(5), rates, rates)
    assert all(x is y for x, y in zip(a.spontaneous, rates))
    assert all(x is y for x, y in zip(a.served, rates))
