"""AUC and Kendall-Tau against brute-force pair enumeration."""

import numpy as np
import pytest

from rankaudit.audit import (
    _count_exceeding_pairs,
    _midranks,
    auc,
    audit_scores,
    kendall_tau,
)
from rankaudit.errors import (
    LengthMismatch, MisalignedIds, ScoreOutOfRange, SingleClass, TooShort,
)
from rankaudit.scorer import relabel

from conftest import make_dataset, make_scores
from oracles import brute_auc, brute_inversions, brute_tau


# --- frozen hand-checked examples ---------------------------------------------

def test_auc_perfect_separation():
    assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auc_four_point_example():
    # pairs: (0.9,0.8) win, (0.9,0.3) win, (0.4,0.8) loss, (0.4,0.3) win
    assert auc([0.9, 0.8, 0.4, 0.3], [1, 0, 1, 0]) == 0.75


def test_auc_all_tied_scores():
    assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_auc_single_class_raises():
    with pytest.raises(SingleClass):
        auc([0.1, 0.9], [1, 1])


def test_tau_identical_vectors():
    assert kendall_tau([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "tau-a") == 1.0
    assert kendall_tau([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "tau-b") == 1.0


def test_tau_reversed_vectors():
    assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1], "tau-a") == -1.0
    assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1], "tau-b") == -1.0


def test_tau_of_a_ranking_and_its_reversal_is_minus_one():
    x = np.random.default_rng(29).permutation(1000).astype(np.float64)  # untied
    for variant in ("tau-a", "tau-b"):
        assert kendall_tau(x, -x, variant) == -1.0


def test_tau_one_swap_example():
    # pairs (1,2),(1,3) concordant, (2,3)->(3,2) discordant: (2-1)/3
    assert kendall_tau([1, 2, 3], [1, 3, 2], "tau-a") == pytest.approx(1 / 3)


def test_tau_contract_errors():
    with pytest.raises(LengthMismatch):
        kendall_tau([1, 2], [1, 2, 3])
    with pytest.raises(TooShort):
        kendall_tau([1.0], [2.0])


@pytest.mark.parametrize("variant", ["tau-c", "b", None])
def test_tau_checks_the_variant_before_counting(monkeypatch, variant):
    def count(*_):
        raise AssertionError("pairs counted before the variant was checked")
    monkeypatch.setattr("rankaudit.audit._count_exceeding_pairs", count)
    with pytest.raises(ValueError, match="unknown variant"):
        kendall_tau([1.0, 3.0, 2.0], [2.0, 1.0, 3.0], variant)


def test_tau_b_constant_vector_is_nan():
    assert np.isnan(kendall_tau([1, 1, 1], [1, 2, 3], "tau-b"))


def test_tau_identical_with_ties_tau_b_is_one():
    v = [0.2, 0.2, 0.7, 0.9, 0.9, 0.9]
    assert kendall_tau(v, v, "tau-b") == 1.0


# --- oracle equivalence ---------------------------------------------------------

def _random_vectors(rng, n, tie_prob):
    x = rng.random(n)
    y = rng.random(n)
    if tie_prob > 0:
        # coarse quantization manufactures ties
        x = np.where(rng.random(n) < tie_prob, np.round(x, 1), x)
        y = np.where(rng.random(n) < tie_prob, np.round(y, 1), y)
    return x, y


def test_inversion_count_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = rng.integers(2, 60)
        seq = rng.integers(0, 10, size=n)
        assert _count_exceeding_pairs(seq, 0.0) == brute_inversions(seq)


def test_tau_matches_brute_force_bitwise():
    rng = np.random.default_rng(11)
    for trial in range(300):
        n = int(rng.integers(2, 120))
        x, y = _random_vectors(rng, n, tie_prob=0.5 if trial % 2 else 0.0)
        for variant in ("tau-a", "tau-b"):
            got = kendall_tau(x, y, variant)
            want = brute_tau(x, y, variant)
            assert got == want or abs(got - want) <= 1e-12


def test_tau_of_identically_ordered_rankings_matches_brute_force():
    # y is a non-decreasing function of x, so once sorted by (x, y) it never
    # descends: the pair count returns 0 from its one-pass check
    rng = np.random.default_rng(23)
    for trial in range(40):
        n = int(rng.integers(2, 150))
        x = np.round(rng.random(n), 1 if trial % 2 else 3)
        y = np.floor(3 * x) if trial % 4 < 2 else x ** 2 - 1.0
        assert _count_exceeding_pairs(y[np.lexsort((y, x))]) == 0
        for variant in ("tau-a", "tau-b"):
            got = kendall_tau(x, y, variant)
            want = brute_tau(x, y, variant)
            assert got == want or abs(got - want) <= 1e-12 or (np.isnan(got) and np.isnan(want))


def test_auc_matches_brute_force():
    rng = np.random.default_rng(13)
    for trial in range(300):
        n = int(rng.integers(2, 120))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.random(n)
        if trial % 2:
            scores = np.round(scores, 1)
        assert abs(auc(scores, labels) - brute_auc(scores, labels)) <= 1e-12


# --- invariances -----------------------------------------------------------------

def test_auc_invariant_under_increasing_transform():
    rng = np.random.default_rng(17)
    scores = rng.random(200)
    labels = rng.integers(0, 2, size=200)
    labels[0], labels[1] = 0, 1
    transformed = 1.0 / (1.0 + np.exp(-5 * (scores - 0.5)))
    assert auc(scores, labels) == pytest.approx(auc(transformed, labels), abs=1e-15)


def test_tau_symmetry_and_self():
    rng = np.random.default_rng(19)
    x = rng.random(80)
    y = np.round(rng.random(80), 1)
    assert kendall_tau(x, y) == kendall_tau(y, x)
    assert kendall_tau(x, x) == 1.0
    assert kendall_tau(x, -x + 1.0) == -1.0  # tie-free reversal


def test_midranks_average_ties():
    ranks = _midranks(np.array([0.1, 0.5, 0.5, 0.9]))
    assert ranks.tolist() == [1.0, 2.5, 2.5, 4.0]


def test_rank_metrics_reject_non_finite():
    with pytest.raises(ScoreOutOfRange):
        auc([np.nan, 0.2, 0.3], [1, 0, 1])
    with pytest.raises(ScoreOutOfRange):
        kendall_tau([np.nan, 1, 2], [1, 2, 3])
    with pytest.raises(ScoreOutOfRange):
        kendall_tau([0, 1, 2], [1, np.inf, 3])


@pytest.mark.parametrize("n, levels", [(50, 0), (2_000, 0), (20_000, 0),
                                       (2_000, 7), (20_000, 101)])
def test_tau_b_matches_scipy(n, levels):
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(n + levels)
    x, y = rng.random(n), rng.random(n)
    if levels:  # quantize to manufacture ties in both vectors
        x, y = np.floor(x * levels), np.floor(y * levels)
    want = stats.kendalltau(x, y, variant="b").statistic
    assert abs(kendall_tau(x, y, "tau-b") - want) <= 1e-12


# --- correlation matrix -----------------------------------------------------------

def test_correlation_matrix_diagonal_and_reversal():
    rng = np.random.default_rng(23)
    base = rng.random(40)
    sets = [
        make_scores(base, "a"),
        make_scores(1.0 - base, "b"),
        make_scores(np.round(base, 1), "c"),
    ]
    d = make_dataset([1, 0] * 20, [0, 0, 1, 1] * 10)  # both classes in both groups
    pairwise = audit_scores(d, sets[0], sets[1:]).pairwise_tau
    names, matrix = pairwise["methods"], np.array(pairwise["matrix"])
    assert names == ["a", "b", "c"]
    assert np.allclose(np.diag(matrix), 1.0)
    assert matrix[0, 1] == -1.0
    assert np.allclose(matrix, matrix.T)
    # brute-force cross-check of every off-diagonal cell
    for i in range(3):
        for j in range(3):
            if i != j:
                want = brute_tau(sets[i].scores, sets[j].scores)
                assert abs(matrix[i, j] - want) <= 1e-12


def test_correlation_matrix_tau_a_cell_of_a_relabelled_copy():
    # under tau-a a tied vector against itself is below 1: the diagonal is
    # 1.0, but the cell of the baseline and a relabelled copy is computed
    d = make_dataset([1, 0] * 4, [0, 0, 1, 1] * 2)
    base = make_scores([0.1, 0.1, 0.5, 0.5, 0.9, 0.9, 0.3, 0.7])
    matrix = audit_scores(d, base, [relabel(base, "copy")], "tau-a").pairwise_tau["matrix"]
    want = brute_tau(base.scores, base.scores, "tau-a")
    assert want < 1.0
    assert matrix == [[1.0, want], [want, 1.0]]


def test_correlation_matrix_rejects_misaligned():
    d = make_dataset([1, 1, 0, 0], [0, 1, 0, 1])
    with pytest.raises(MisalignedIds):
        audit_scores(d, make_scores([0.1, 0.2, 0.3, 0.4], "a"),
                     [make_scores([0.1, 0.2, 0.3, 0.4], "b", ids=[5, 6, 7, 8])])
