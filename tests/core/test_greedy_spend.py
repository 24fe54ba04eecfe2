"""``policy.greedy_spend`` against the scalar greedy spends, bit for bit.

The packet plane spends every budget of a diffusion pass with one
:func:`~repro.core.policy.greedy_spend` call per Figure 5 branch; the
per-document rate-level model spends one edge at a time with
:func:`~repro.core.policy.greedy_delegate`, :func:`greedy_pull` and
:func:`greedy_shed`.  Each row of the array form must make the scalar
form's picks with the scalar form's takes - the same bits, signed zeros
included - or the two planes drift apart.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.policy import greedy_delegate, greedy_pull, greedy_shed, greedy_spend

# Values that make ties, signed zeros and budgets near the 1e-9 tolerance.
POOL = [0.0, -0.0, 1e-10, 1e-9, 2e-9, 0.1, 0.5, 1.0, 2.5, 7.0]
VALUE = st.one_of(
    st.sampled_from(POOL),
    st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def spends(draw):
    """Rows of ranked candidates (up to 20 wide), their gates, one budget
    per row and a ``min_take``."""
    rows = draw(st.integers(1, 5))
    width = draw(st.integers(0, 20))
    values = [
        sorted(draw(st.lists(VALUE, min_size=width, max_size=width)), reverse=True)
        for _ in range(rows)
    ]
    ok = [draw(st.lists(st.booleans(), min_size=width, max_size=width)) for _ in range(rows)]
    budgets = []
    for row in values:
        total = sum(row)
        near = [0.0, 1e-10, 1e-9, 2e-9, total, total - 1e-9, total + 1e-9]
        # halfway into candidate k: the pick that ends the spend is capped
        capped = [sum(row[:k]) + row[k] / 2 for k in range(width)]
        budgets.append(draw(st.one_of(
            st.sampled_from(near + capped),
            st.floats(0.0, 2 * total + 1.0, allow_nan=False),
        )))
    top = max((v for row in values for v in row), default=0.0)
    min_take = draw(st.sampled_from([0.0, 1e-9, 0.1, top + 1.0]))
    return budgets, values, ok, min_take


def _bits(pairs):
    return [tuple(float(v).hex() if isinstance(v, float) else v for v in p) for p in pairs]


def _array_picks(budgets, values, ok, min_take):
    width = len(values[0])
    picked, take = greedy_spend(
        np.array(budgets, dtype=np.float64),
        np.array(values, dtype=np.float64).reshape(len(values), width),
        np.array(ok, dtype=bool).reshape(len(values), width),
        min_take,
    )
    return [
        [(c, float(take[r, c])) for c in np.flatnonzero(picked[r]).tolist()]
        for r in range(len(values))
    ]


CASES = [
    # tied rates; a signed zero among them
    ([2.0], [[1.0, 1.0, 1.0, -0.0, 0.0]], [[True, False, True, True, True]], 0.0),
    # min_take above every rate: nothing is delegated
    ([5.0], [[2.5, 1.0]], [[True, True]], 3.5),
    # budgets within the tolerance of zero and of a partial sum
    ([1e-9, 2.0 + 5e-10, 2.0 + 2e-9], [[1.0, 1.0, 1.0]] * 3, [[True] * 3] * 3, 0.0),
    # a capped last pick
    ([1.75], [[1.0, 1.0, 1.0]], [[True, True, True]], 0.1),
    # a row longer than twelve
    ([9.5], [[1.0] * 16], [[k % 3 != 1 for k in range(16)]], 0.5),
]


@settings(max_examples=300, deadline=None)
@given(spends())
@example(CASES[0])
@example(CASES[1])
@example(CASES[2])
@example(CASES[3])
@example(CASES[4])
def test_greedy_spend_equals_scalar_spends(case):
    budgets, values, ok, min_take = case
    delegate = _array_picks(budgets, values, ok, min_take)
    pull = _array_picks(budgets, values, ok, 0.0)
    shed = _array_picks(budgets, values, [[True] * len(row) for row in values], 0.0)
    for r, (budget, row, gate) in enumerate(zip(budgets, values, ok)):
        candidates = list(enumerate(row))
        assert _bits(delegate[r]) == _bits(
            greedy_delegate(budget, candidates, min_take, gate.__getitem__)
        )
        assert _bits(pull[r]) == _bits(greedy_pull(budget, candidates, gate.__getitem__))
        assert _bits([(c, x, row[c] - x) for c, x in shed[r]]) == _bits(
            greedy_shed(budget, candidates)
        )


def test_cases_reach_every_branch():
    """The pinned examples do what their comments say."""
    tied, above, near, capped, wide = (_array_picks(*case) for case in CASES)
    assert [c for c, _ in tied[0]] == [0, 2]
    assert above == [[]]
    assert [[c for c, _ in row] for row in near] == [[], [0, 1], [0, 1, 2]]
    assert capped == [[(0, 1.0), (1, 0.75)]]
    assert max(c for c, _ in wide[0]) > 12
    signed = _array_picks([1.0], [[-0.0, 0.0]], [[True, True]], 0.0)
    assert [float(x).hex() for _, x in signed[0]] == ["-0x0.0p+0", "0x0.0p+0"]
