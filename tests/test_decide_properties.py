"""Property tests of the decision layer's counting and tie rules."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rankaudit.decide import DecisionPolicy, decide  # noqa: E402

from conftest import make_dataset, make_scores  # noqa: E402


@st.composite
def decision_inputs(draw):
    """Scores on a coarse grid (so ties are common), listed in shuffled id order."""
    n = draw(st.integers(1, 40))
    sensitive = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    grid = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    ids = draw(st.permutations(range(n)))
    permille = draw(st.integers(0, 1000))  # the rate is permille / 1000
    d = make_dataset(sensitive, [0] * n)
    s = make_scores(np.array(grid) / 4.0, ids=ids)
    return d, s, permille


def _ties_by_ascending_id(scores, ids, labels):
    """Every selected item beats every unselected one by score, then by id."""
    chosen, rest = labels == 1, labels == 0
    for s, i in zip(scores[chosen], ids[chosen]):
        if ((scores[rest] > s) | ((scores[rest] == s) & (ids[rest] < i))).any():
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(decision_inputs())
def test_global_top_rate_selects_floor_count(inputs):
    d, s, permille = inputs
    dec = decide(s, d, DecisionPolicy(kind="global-top-rate", rate=permille / 1000))
    assert int(dec.labels.sum()) == permille * s.n // 1000
    assert _ties_by_ascending_id(s.scores, s.instance_ids, dec.labels)


@settings(max_examples=200, deadline=None)
@given(decision_inputs())
def test_per_group_rates_select_nearest_count(inputs):
    d, s, permille = inputs
    r = permille / 1000
    dec = decide(s, d, DecisionPolicy(kind="per-group-rates", group_rates=(r, r)))
    group = d.sensitive[d.positions_of(s.instance_ids)]
    for g in (0, 1):
        m = group == g
        n_g = int(m.sum())
        # nearest count, exact halves rounding up
        assert int(dec.labels[m].sum()) == (2 * permille * n_g + 1000) // 2000
        assert _ties_by_ascending_id(s.scores[m], s.instance_ids[m], dec.labels[m])
