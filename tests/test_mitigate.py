"""Feature repair, threshold fitting, critical-region flips, odds mixing."""

import warnings

import numpy as np
import pytest

from rankaudit.audit import kendall_tau, spd
from rankaudit.decide import DecisionPolicy, decide
from rankaudit.errors import (
    DegenerateGroup,
    EmptyGroup,
    NonNumericColumn,
    RateOutOfRange,
)
from rankaudit.mitigate import (
    THETA_GRID,
    CriticalRegion,
    GroupThresholds,
    MixingRates,
    apply_group_thresholds,
    apply_mixing,
    apply_reject_option,
    derived_group_rates,
    disparate_impact_remove,
    fit_equalized_odds_post,
    fit_threshold_optimizer,
    reject_option_classify,
)
from rankaudit.dataset import DatasetSpec, FeatureColumn, Dataset
from rankaudit.scorer import relabel

from conftest import make_dataset, make_scores
from oracles import group_threshold_labels


# --- feature repair ------------------------------------------------------------

def _repair_fixture():
    # protected column values {1,2,3}, privileged {11,12,13}
    return make_dataset(
        [1, 1, 1, 0, 0, 0],
        [0, 1, 0, 1, 0, 1],
        features=[1.0, 2.0, 3.0, 11.0, 12.0, 13.0],
    )


def test_repair_identity_at_zero():
    d = _repair_fixture()
    r = disparate_impact_remove(d, 0.0, ["f0"])
    assert np.array_equal(r.features, d.features)


def test_repair_full_merges_to_per_rank_medians():
    d = _repair_fixture()
    r = disparate_impact_remove(d, 1.0, ["f0"])
    assert r.features[:3, 0].tolist() == [6.0, 7.0, 8.0]
    assert r.features[3:, 0].tolist() == [6.0, 7.0, 8.0]


def test_repair_half_interpolates():
    d = _repair_fixture()
    r = disparate_impact_remove(d, 0.5, ["f0"])
    assert r.features[:3, 0].tolist() == [3.5, 4.5, 5.5]


def test_repair_one_row_group_sits_at_its_median_rank():
    # the lone protected row takes rank 0.5, the middle of the other curve
    d = make_dataset([1, 0, 0, 0], [0, 1, 0, 1], features=[5.0, 1.0, 2.0, 3.0])
    r = disparate_impact_remove(d, 1.0, ["f0"])
    assert r.features[:, 0].tolist() == [3.5, 3.0, 3.5, 4.0]


def test_repair_with_one_group_keeps_the_values():
    # one curve: each value's own quantile is the value
    d = make_dataset([0, 0, 0, 0], [0, 1, 0, 1], features=[4.0, 1.0, 3.0, 2.0])
    for lam in (0.5, 1.0):
        r = disparate_impact_remove(d, lam, ["f0"])
        assert r.features[:, 0].tolist() == [4.0, 1.0, 3.0, 2.0]


def test_repair_half_level_with_ties():
    d = make_dataset([1, 1, 1, 1, 0, 0, 0], [0, 1, 0, 1, 0, 1, 0],
                     features=[2.0, 2.0, 5.0, 9.0, 10.0, 10.0, 30.0])
    r = disparate_impact_remove(d, 0.5, ["f0"])
    assert r.features[:, 0].tolist() == [4.0, 4.0, 7.916666666666666, 14.25, 8.0, 8.0, 24.75]


def test_repair_preserves_within_group_order_all_levels():
    rng = np.random.default_rng(3)
    n_p, n_v = 23, 31
    values = np.concatenate([rng.normal(0, 1, n_p), rng.normal(3, 2, n_v)])
    values[4] = values[2]  # manufacture a within-group tie
    d = make_dataset([1] * n_p + [0] * n_v,
                     [0, 1] * ((n_p + n_v) // 2), features=values)
    for lam in (0.0, 0.3, 0.7, 1.0):
        r = disparate_impact_remove(d, lam, ["f0"])
        for mask in (d.protected_mask, ~d.protected_mask):
            assert kendall_tau(values[mask], r.features[mask, 0]) == 1.0
            # ties stay ties
            orig = values[mask]
            rep = r.features[mask, 0]
            same = orig[:, None] == orig[None, :]
            assert np.array_equal(same, rep[:, None] == rep[None, :])


def test_repair_aligns_group_distributions_at_full_level():
    # evenly spaced fixtures make the quantile curves exactly linear
    n_p, n_v = 40, 25
    values = np.concatenate([np.linspace(0, 10, n_p), np.linspace(20, 50, n_v)])
    d = make_dataset([1] * n_p + [0] * n_v, [0, 1] * ((n_p + n_v) // 2) + [0],
                     features=values)
    r = disparate_impact_remove(d, 1.0, ["f0"])
    repaired = r.features[:, 0]
    grid = np.linspace(0, 1, 101)
    q_p = np.quantile(repaired[d.protected_mask], grid)
    q_v = np.quantile(repaired[~d.protected_mask], grid)
    bound = (repaired.max() - repaired.min()) / min(n_p, n_v)
    assert np.abs(q_p - q_v).max() <= bound


def test_repair_rejects_categorical_column():
    spec = DatasetSpec(
        name="mixed", protected_attribute_column="group",
        protected_value="protected", target_column="outcome",
        favorable_value="favorable",
        feature_columns=(FeatureColumn("f0", "numeric"), FeatureColumn("f1", "categorical")),
    )
    d = Dataset(
        features=np.array([[0.0, 0], [1.0, 1], [2.0, 0], [3.0, 1]]),
        sensitive=np.array([1, 1, 0, 0], dtype=np.int8),
        label=np.array([0, 1, 0, 1], dtype=np.int8),
        schema=spec,
    )
    with pytest.raises(NonNumericColumn):
        disparate_impact_remove(d, 1.0, ["f1"])
    r = disparate_impact_remove(d, 1.0)  # default: numeric columns only
    assert np.array_equal(r.features[:, 1], d.features[:, 1])


# --- threshold fitting -------------------------------------------------------------

def test_thresholds_symmetric_groups_coincide():
    d = make_dataset([1, 1, 1, 0, 0, 0], [0, 1] * 3)
    s = make_scores([0.2, 0.5, 0.8, 0.2, 0.5, 0.8])
    gt = fit_threshold_optimizer(s, d, rate=0.5)
    assert gt.t_protected == gt.t_privileged


def test_thresholds_hand_fixture_selects_top_of_each_group():
    d = make_dataset([1, 1, 1, 0, 0, 0], [0, 1] * 3)
    s = make_scores([0.1, 0.2, 0.9, 0.6, 0.7, 0.8])
    gt = fit_threshold_optimizer(s, d, rate=1 / 3)
    assert gt.t_protected == 0.9
    assert gt.t_privileged == 0.8
    dec = apply_group_thresholds(gt, s, d)
    assert dec.labels.tolist() == [0, 0, 1, 0, 0, 1]
    assert spd(dec, d) == 0.0


@pytest.mark.parametrize("rate, text", [
    (None, "t_protected 0.20000000000000001\nt_privileged 0.69999999999999996\n"
           "criterion demographic-parity\nrate 0.66666666666666663\n"),
    (1 / 3, "t_protected 0.90000000000000002\nt_privileged 0.80000000000000004\n"
            "criterion selection-rate\nrate 0.33333333333333331\n"),
    (0.0, "t_protected 1\nt_privileged 1\ncriterion selection-rate\nrate 0\n"),
], ids=["demographic-parity", "selection-rate", "rate-0"])
def test_thresholds_text_pinned(rate, text):
    d = make_dataset([1, 1, 1, 0, 0, 0], [0, 1] * 3)
    s = make_scores([0.1, 0.2, 0.9, 0.6, 0.7, 0.8])
    assert fit_threshold_optimizer(s, d, rate=rate).to_text() == text


def test_thresholds_default_rate_is_status_quo_positive_rate():
    d = make_dataset([1, 1, 0, 0], [0, 1, 0, 1])
    s = make_scores([0.3, 0.8, 0.6, 0.9])
    gt = fit_threshold_optimizer(s, d)
    assert gt.criterion == "demographic-parity"
    assert gt.rate == 0.75  # three of four above 0.5


def test_thresholds_errors():
    d = make_dataset([1, 1], [0, 1])
    s = make_scores([0.3, 0.8])
    with pytest.raises(EmptyGroup):
        fit_threshold_optimizer(s, d, rate=0.5)
    d2 = make_dataset([1, 0], [0, 1])
    with pytest.raises(RateOutOfRange):
        fit_threshold_optimizer(make_scores([0.3, 0.8]), d2, rate=1.2)


def test_thresholds_realized_rates_within_one_over_group_size():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n_p = int(rng.integers(3, 35))
        n_v = int(rng.integers(3, 35))
        r = float(rng.random())
        d = make_dataset([1] * n_p + [0] * n_v,
                         [0, 1] * ((n_p + n_v) // 2) + [0] * ((n_p + n_v) % 2))
        s = make_scores(rng.random(n_p + n_v))
        gt = fit_threshold_optimizer(s, d, rate=r)
        dec = apply_group_thresholds(gt, s, d)
        prot = d.protected_mask
        for mask, n_g in ((prot, n_p), (~prot, n_v)):
            assert abs(dec.labels[mask].mean() - r) <= 1.0 / n_g + 1e-12
        assert abs(spd(dec, d)) <= 1.0 / min(n_p, n_v) + 1e-12


def test_thresholds_match_equalized_rates_on_integral_fixture():
    # group sizes chosen so rate * n_g is integral: the quota and the
    # threshold constructions then select identical sets
    d = make_dataset([1] * 4 + [0] * 4, [0, 1] * 4)
    s = make_scores([0.11, 0.52, 0.33, 0.74, 0.25, 0.86, 0.47, 0.68])
    gt = fit_threshold_optimizer(s, d, rate=0.5)
    via_thresholds = apply_group_thresholds(gt, s, d)
    via_quota = decide(s, d, DecisionPolicy(kind="per-group-rates", group_rates=(0.5, 0.5)))
    assert via_thresholds.labels.tolist() == via_quota.labels.tolist()


def test_thresholds_reproduce_fair_rule_on_wage_gap_world():
    # fitting per-group cutoffs at the fair rule's selection rate recovers
    # exactly the population the fair rule selects
    from rankaudit.worlds import wage_gap_world
    w = wage_gap_world(501)
    d = make_dataset(w.group.astype(np.int8), (w.fair_p > 0.5).astype(np.int8))
    s = make_scores(w.score_s)
    fair_rate = float((w.fair_p > 0.5).mean())
    gt = fit_threshold_optimizer(s, d, rate=fair_rate)
    dec = apply_group_thresholds(gt, s, d)
    assert np.array_equal(dec.labels.astype(bool), w.fair_p > 0.5)
    # realized cutoffs sit at the boundary scores of each group
    assert gt.t_privileged == pytest.approx(0.5, abs=0.01)
    assert gt.t_protected == pytest.approx(0.45, abs=0.01)


def test_thresholds_never_alter_scores():
    d = make_dataset([1, 1, 0, 0], [0, 1, 0, 1])
    s = make_scores([0.3, 0.8, 0.6, 0.9])
    before = s.scores.copy()
    gt = fit_threshold_optimizer(s, d, rate=0.5)
    apply_group_thresholds(gt, s, d)
    assert np.array_equal(s.scores, before)


def test_thresholds_match_the_tie_fill_reference():
    # few score levels make boundary ties common; ids are shuffled so that
    # ascending id is not row order
    rng = np.random.default_rng(31)
    for trial in range(2000):
        n = int(rng.integers(1, 16))
        d = make_dataset(rng.integers(0, 2, n), rng.integers(0, 2, n))
        levels = np.round(rng.random(int(rng.integers(1, 6))), 2)
        ids = rng.permutation(n)
        s = make_scores(rng.choice(levels, n), ids=ids)
        on_grid = rng.choice(levels, 2)
        t_prot, t_priv = on_grid if trial % 2 else on_grid + rng.choice([-0.005, 0.005], 2)
        rate = float(rng.choice([0.0, 1.0, rng.random()]))
        gt = GroupThresholds(float(t_prot), float(t_priv), "selection-rate", rate)
        prot, _ = d.cohort(ids)
        want = group_threshold_labels(s.scores, ids, prot, t_prot, t_priv, rate)
        assert apply_group_thresholds(gt, s, d).labels.tolist() == want.astype(int).tolist()


# --- reject option ------------------------------------------------------------------

def test_reject_option_noop_when_already_fair():
    d = make_dataset([1, 1, 0, 0], [0, 1, 0, 1])
    s = make_scores([0.2, 0.8, 0.3, 0.7])  # both groups 50% positive
    region = reject_option_classify(s, d, epsilon=0.01)
    assert region.theta == 0.0
    labels = apply_reject_option(region, s, d).labels
    assert labels.tolist() == [0, 1, 0, 1]
    assert np.array_equal(labels, s.scores > 0.5)  # unchanged


def test_reject_option_hand_fixture_flips_at_005():
    d = make_dataset([1, 1, 0, 0], [0, 1, 0, 1])
    s = make_scores([0.45, 0.40, 0.55, 0.60])
    region = reject_option_classify(s, d, epsilon=0.01)
    assert region.theta == 0.05
    dec = apply_reject_option(region, s, d)
    assert dec.labels.tolist() == [1, 0, 0, 1]
    assert spd(dec, d) == 0.0
    assert not np.array_equal(dec.labels, s.scores > 0.5)  # changed
    # grid-scan oracle: no smaller theta satisfies the bound
    for theta in np.arange(0.0, 0.05, 0.01):
        labels = s.scores > 0.5
        if theta > 0:
            band = (s.scores >= 0.5 - theta) & (s.scores <= 0.5 + theta)
            labels = np.where(band, d.protected_mask, labels)
        gap = labels[d.protected_mask].mean() - labels[~d.protected_mask].mean()
        assert abs(gap) > 0.01


@pytest.mark.parametrize("scores, text", [
    ([0.45, 0.40, 0.55, 0.60], "theta 0.050000000000000003\n"),
    ([0.43, 0.40, 0.57, 0.60], "theta 0.070000000000000007\n"),
    ([0.2, 0.8, 0.3, 0.7], "theta 0\n"),
], ids=["0.05", "0.07", "0"])
def test_critical_region_text_pinned(scores, text):
    d = make_dataset([1, 1, 0, 0], [0, 1, 0, 1])
    assert reject_option_classify(make_scores(scores), d, epsilon=0.01).to_text() == text


def test_reject_option_unreachable_band_reports_unchanged():
    d = make_dataset([1, 1, 0, 0], [0, 1, 0, 1])
    s = make_scores([0.05, 0.95, 0.05, 0.95])  # balanced far from the band
    region = reject_option_classify(s, d, epsilon=0.001)
    assert region.theta == 0.0
    dec = apply_reject_option(region, s, d)
    assert np.array_equal(dec.labels, s.scores > 0.5)  # unchanged
    assert spd(dec, d) == 0.0


def test_reject_option_matches_a_scan_of_the_grid():
    # the fitted theta is the first grid value whose applied region brings
    # |SPD| within epsilon, else the first argmin of |SPD|
    rng = np.random.default_rng(53)
    branches = {"within": 0, "argmin": 0}
    for trial in range(500):
        n = int(rng.integers(8, 41))
        sens = rng.integers(0, 2, n)
        sens[:2] = [1, 0]  # both groups present
        d = make_dataset(sens, rng.integers(0, 2, n))
        on_grid = rng.random(n) < 0.5  # on the 0.01 grid, else anywhere
        s = make_scores(np.where(on_grid, np.round(rng.random(n), 2), rng.random(n)))
        epsilon = float(rng.choice([0.001, 0.02, 0.05, 0.2]))
        gaps = [abs(spd(apply_reject_option(CriticalRegion(float(theta)), s, d), d))
                for theta in THETA_GRID]
        within = [i for i, gap in enumerate(gaps) if gap <= epsilon]
        branches["within" if within else "argmin"] += 1
        want = THETA_GRID[within[0] if within else int(np.argmin(gaps))]
        assert reject_option_classify(s, d, epsilon).theta == want, trial
    assert min(branches.values()) >= 25, branches


def test_reject_option_frozen_rule_applies_to_new_ids():
    d = make_dataset([1, 1, 1, 0, 0, 0], [0, 1] * 3)
    s = make_scores([0.45, 0.40, 0.9, 0.55, 0.60, 0.1])
    fitted_on = [0, 1, 3, 4]
    region = reject_option_classify(make_scores(s.scores[fitted_on], ids=fitted_on), d,
                                    epsilon=0.01)
    frozen = apply_reject_option(region, s, d)
    assert frozen.n == 6
    band = (s.scores >= 0.5 - region.theta) & (s.scores <= 0.5 + region.theta)
    expected = np.where(band, d.protected_mask, s.scores > 0.5)
    assert np.array_equal(frozen.labels.astype(bool), expected)


def test_reject_option_requires_both_groups_and_positive_epsilon():
    d = make_dataset([1, 1], [0, 1])
    s = make_scores([0.3, 0.7])
    with pytest.raises(EmptyGroup):
        reject_option_classify(s, d, epsilon=0.05)
    d2 = make_dataset([1, 0], [0, 1])
    with pytest.raises(ValueError):
        reject_option_classify(make_scores([0.3, 0.7]), d2, epsilon=0.0)


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
def test_reject_option_refuses_a_non_finite_epsilon(epsilon):
    # with nan no grid band meets the test and the fit would return the
    # argmin; with inf it would return theta 0
    d = make_dataset([1, 0], [0, 1])
    with pytest.raises(ValueError, match="epsilon must be a finite number > 0"):
        reject_option_classify(make_scores([0.3, 0.7]), d, epsilon)


# --- equalized odds mixing ------------------------------------------------------------

def _eop_grid_oracle(counts, step=1e-3):
    """Brute-force the two free rates; the equalities pin the other two."""
    tpr_p, fpr_p = counts["tpr_prot"], counts["fpr_prot"]
    tpr_v, fpr_v = counts["tpr_priv"], counts["fpr_priv"]
    grid = np.arange(0.0, 1.0 + step / 2, step)
    p0, p1 = np.meshgrid(grid, grid, indexing="ij")  # protected rates
    target_tpr = p1 * tpr_p + p0 * (1 - tpr_p)
    target_fpr = p1 * fpr_p + p0 * (1 - fpr_p)
    det = tpr_v - fpr_v
    if abs(det) < 1e-12:
        raise ValueError("degenerate fixture for the grid oracle")
    # solve [ (1-tpr_v) tpr_v ; (1-fpr_v) fpr_v ] @ (v0, v1) = targets
    v1 = (target_tpr * (1 - fpr_v) - target_fpr * (1 - tpr_v)) / det
    v0 = (target_fpr * tpr_v - target_tpr * fpr_v) / det
    feasible = (v0 >= -1e-12) & (v0 <= 1 + 1e-12) & (v1 >= -1e-12) & (v1 <= 1 + 1e-12)
    obj = (counts["c_p0"] * p0 + counts["c_p1"] * p1
           + counts["c_v0"] * np.clip(v0, 0, 1) + counts["c_v1"] * np.clip(v1, 0, 1))
    obj = np.where(feasible, obj, np.inf)
    return float(obj.min())


def _counts_from(d, scores, ids):
    pos = d.positions_of(ids)
    truth = d.label[pos]
    prot = d.protected_mask[pos]
    lbl = (scores.scores > 0.5).astype(np.int8)  # the base prediction
    out = {
        "tpr_prot": lbl[prot & (truth == 1)].mean(),
        "fpr_prot": lbl[prot & (truth == 0)].mean(),
        "tpr_priv": lbl[~prot & (truth == 1)].mean(),
        "fpr_priv": lbl[~prot & (truth == 0)].mean(),
    }
    for key, mask in (("p", prot), ("v", ~prot)):
        for yhat in (0, 1):
            n0 = int((mask & (lbl == yhat) & (truth == 0)).sum())
            n1 = int((mask & (lbl == yhat) & (truth == 1)).sum())
            out[f"c_{key}{yhat}"] = n0 - n1
    return out


def test_eop_identity_when_base_is_perfect():
    # perfect base predictor in both groups: zero-loss point is unique
    d = make_dataset([1, 1, 1, 1, 0, 0, 0, 0], [1, 0, 1, 0, 1, 0, 1, 0])
    s = make_scores([0.9, 0.1, 0.8, 0.2, 0.9, 0.1, 0.8, 0.2])
    rates = fit_equalized_odds_post(s, d, seed=3)
    assert rates.as_vector() == (0.0, 1.0, 0.0, 1.0)


def test_eop_unequal_tprs_vertex_matches_grid_oracle():
    # protected: TPR 1, FPR 0. privileged: TPR 0.5, FPR 0 on a balanced fixture
    sens = [1] * 4 + [0] * 4
    truth = [1, 1, 0, 0, 1, 1, 0, 0]
    base_scores = [0.9, 0.9, 0.1, 0.1, 0.9, 0.1, 0.1, 0.1]
    d = make_dataset(sens, truth)
    s = make_scores(base_scores)
    rates = fit_equalized_odds_post(s, d, seed=5)
    derived = derived_group_rates(rates, s, d)
    assert abs(derived["tpr_protected"] - derived["tpr_privileged"]) <= 1e-9
    assert abs(derived["fpr_protected"] - derived["fpr_privileged"]) <= 1e-9
    counts = _counts_from(d, s, d.instance_ids)
    vertex_obj = (counts["c_p0"] * rates.p_protected_given0
                  + counts["c_p1"] * rates.p_protected_given1
                  + counts["c_v0"] * rates.p_privileged_given0
                  + counts["c_v1"] * rates.p_privileged_given1)
    oracle_obj = _eop_grid_oracle(counts)
    assert vertex_obj <= oracle_obj + 1e-6


def test_eop_random_fixtures_match_grid_oracle():
    rng = np.random.default_rng(17)
    for trial in range(10):
        n = 40
        sens = rng.integers(0, 2, n)
        truth = rng.integers(0, 2, n)
        # guarantee both labels in both groups
        sens[:4] = [1, 1, 0, 0]
        truth[:4] = [0, 1, 0, 1]
        d = make_dataset(sens, truth)
        s = make_scores(rng.random(n))
        counts = _counts_from(d, s, d.instance_ids)
        if abs(counts["tpr_priv"] - counts["fpr_priv"]) < 1e-9:
            continue
        rates = fit_equalized_odds_post(s, d, seed=trial)
        derived = derived_group_rates(rates, s, d)
        assert abs(derived["tpr_protected"] - derived["tpr_privileged"]) <= 1e-9
        assert abs(derived["fpr_protected"] - derived["fpr_privileged"]) <= 1e-9
        vertex_obj = (counts["c_p0"] * rates.p_protected_given0
                      + counts["c_p1"] * rates.p_protected_given1
                      + counts["c_v0"] * rates.p_privileged_given0
                      + counts["c_v1"] * rates.p_privileged_given1)
        assert vertex_obj <= _eop_grid_oracle(counts) + 1e-6


def test_eop_degenerate_group_raises():
    d = make_dataset([1, 1, 0, 0], [1, 1, 0, 1])  # protected lacks negatives
    s = make_scores([0.9, 0.8, 0.2, 0.7])
    with pytest.raises(DegenerateGroup):
        fit_equalized_odds_post(s, d, seed=1)


def test_derived_rates_degenerate_group_raises_as_the_fit_does():
    d = make_dataset([1, 1, 0, 0], [0, 0, 0, 1])  # protected lacks positives
    s = make_scores([0.9, 0.2, 0.2, 0.7])
    rates = MixingRates(0.5, 0.5, 0.5, 0.5, seed=1)
    with pytest.raises(DegenerateGroup) as fit_error:
        fit_equalized_odds_post(s, d, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning fails the test
        with pytest.raises(DegenerateGroup) as derived_error:
            derived_group_rates(rates, s, d)
    assert str(derived_error.value) == str(fit_error.value) == (
        "prot group lacks positives or negatives")


def test_apply_mixing_deterministic_and_seed_sensitive():
    d = make_dataset([1, 1, 1, 1, 0, 0, 0, 0], [1, 0, 1, 0, 1, 0, 1, 0])
    s = make_scores([0.9, 0.1, 0.8, 0.2, 0.9, 0.1, 0.8, 0.2])
    rates = fit_equalized_odds_post(s, d, seed=11)
    a = apply_mixing(rates, s, d)
    b = apply_mixing(rates, relabel(s, "odds-mixing"), d)
    assert np.array_equal(a.labels, b.labels)
    assert b.policy == "randomized-mixing"

    from dataclasses import replace
    other = replace(rates, seed=12)
    # half rates make different draws actually visible
    other = replace(other, p_protected_given1=0.5, p_privileged_given1=0.5)
    same = replace(rates, seed=12, p_protected_given1=0.5, p_privileged_given1=0.5)
    assert np.array_equal(apply_mixing(other, s, d).labels,
                          apply_mixing(same, s, d).labels)


def test_apply_mixing_monte_carlo_matches_analytic_rates():
    # one hundred thousand instances per cell keeps three standard errors tight
    n = 200_000
    rng = np.random.default_rng(23)
    sens = (np.arange(n) % 2 == 0).astype(np.int8)
    truth = rng.integers(0, 2, n).astype(np.int8)
    d = make_dataset(sens, truth)
    base_labels = np.where(rng.random(n) < 0.7, truth, 1 - truth).astype(np.int8)
    base = make_scores(np.where(base_labels == 1, 0.9, 0.1))
    rates = fit_equalized_odds_post(base, d, seed=29)
    mixed = apply_mixing(rates, base, d)
    derived = derived_group_rates(rates, base, d)
    prot = d.protected_mask
    for mask, tag in ((prot, "protected"), (~prot, "privileged")):
        for y, kind in ((1, "tpr"), (0, "fpr")):
            cell = mask & (truth == y)
            expected = derived[f"{kind}_{tag}"]
            observed = mixed.labels[cell].mean()
            se = np.sqrt(max(expected * (1 - expected), 1e-12) / cell.sum())
            assert abs(observed - expected) <= 3 * se + 1e-9


# group, truth and base score of each row, then the fitted rates' text (seed 7)
# and the mixed labels, pinned byte for byte
_PINNED_MIXING = {
    # privileged: every positive scores above 0.5 (base TPR 1.0) and so does
    # one negative (base FPR 1/3); protected: base TPR 1/3, FPR 2/3
    "privileged-tpr-1": (
        [0] * 6 + [1] * 6,
        [1, 1, 1, 0, 0, 0] * 2,
        [0.9, 0.8, 0.7, 0.6, 0.2, 0.1, 0.9, 0.3, 0.2, 0.7, 0.6, 0.1],
        "p_protected_given0 1\np_protected_given1 0\n"
        "p_privileged_given0 0.16666666666666657\n"
        "p_privileged_given1 0.66666666666666641\nseed 7\n",
        [1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1],
    ),
    # every (group, base label, truth) cell holds at least one row
    "all-eight-cells": (
        [1] * 8 + [0] * 8,
        [0, 0, 1, 1, 0, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 1],
        [0.1, 0.7, 0.2, 0.9, 0.3, 0.8, 0.6, 0.4,
         0.2, 0.9, 0.3, 0.7, 0.1, 0.6, 0.8, 0.4],
        "p_protected_given0 0.062499999999999986\np_protected_given1 1\n"
        "p_privileged_given0 0.93749999999999967\np_privileged_given1 0\nseed 7\n",
        [0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1],
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_MIXING))
def test_mixing_rates_and_labels_pinned(name):
    sens, truth, scores, text, labels = _PINNED_MIXING[name]
    d = make_dataset(sens, truth)
    s = make_scores(scores)
    rates = fit_equalized_odds_post(s, d, seed=7)
    assert rates.to_text() == text
    assert apply_mixing(rates, s, d).labels.tolist() == labels


def test_mixing_never_touches_scores():
    d = make_dataset([1, 1, 1, 1, 0, 0, 0, 0], [1, 0, 1, 0, 1, 0, 1, 0])
    s = make_scores([0.9, 0.1, 0.8, 0.2, 0.9, 0.1, 0.8, 0.2])
    before = s.scores.copy()
    rates = fit_equalized_odds_post(s, d, seed=31)
    apply_mixing(rates, s, d)
    assert np.array_equal(s.scores, before)
    assert kendall_tau(s.scores, before) == 1.0
