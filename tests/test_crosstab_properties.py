"""Property tests of the (group, label, label) cell counts and the quadrant table."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rankaudit.audit import crosstab, quadrant_analysis  # noqa: E402
from rankaudit.decide import DecisionSet  # noqa: E402

from conftest import make_dataset  # noqa: E402

TRANSITION = {(0, 0): "kept_negative", (0, 1): "upgraded",
              (1, 1): "kept_positive", (1, 0): "downgraded"}


def _bits(n):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n)


@st.composite
def triples(draw):
    """Three aligned 0/1 arrays; the first is boolean, as a group mask is."""
    n = draw(st.integers(0, 200))
    first, a, b = (draw(_bits(n)) for _ in range(3))
    return (np.array(first, dtype=bool), np.array(a, dtype=np.int8),
            np.array(b, dtype=np.int8))


@settings(max_examples=200, deadline=None)
@given(triples())
def test_crosstab_matches_brute_force_count(arrays):
    first, a, b = arrays
    table = crosstab(first, a, b)
    assert table.shape == (2, 2, 2)
    rows = list(zip(first.astype(int), a, b))
    for cell in np.ndindex(2, 2, 2):
        assert table[cell] == sum(1 for row in rows if row == cell)


@st.composite
def label_pairs(draw):
    """Groups, then base and mitigated labels over the ids in shuffled order."""
    n = draw(st.integers(1, 60))
    return (draw(_bits(n)), draw(st.permutations(range(n))),
            draw(_bits(n)), draw(_bits(n)))


@settings(max_examples=200, deadline=None)
@given(label_pairs())
def test_quadrants_match_brute_force_transition_count(inputs):
    sensitive, ids, base, mitigated = inputs
    d = make_dataset(sensitive, [0] * len(sensitive))

    def decisions(labels):
        return DecisionSet(instance_ids=np.array(ids, dtype=np.int64),
                           labels=np.array(labels, dtype=np.int8))

    counts = quadrant_analysis(decisions(base), decisions(mitigated), d)
    expected = [TRANSITION[pair] for pair in zip(base, mitigated)]
    for g, name in ((1, "protected"), (0, "privileged")):
        names = [q for i, q in zip(ids, expected) if sensitive[i] == g]
        assert counts[name] == {q: names.count(q) for q in TRANSITION.values()}
