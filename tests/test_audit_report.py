"""Group metrics, quadrant analysis, and report assembly."""

import json

import numpy as np
import pytest

from rankaudit.audit import (
    accuracy,
    audit_scores,
    build_report,
    eod,
    quadrant_analysis,
    spd,
)
from rankaudit.decide import DecisionPolicy, DecisionSet, decide
from rankaudit.errors import EmptyGroup, MisalignedIds, NoPositivesInGroup
from rankaudit.mitigate import (
    apply_mixing,
    apply_reject_option,
    fit_equalized_odds_post,
    reject_option_classify,
)
from rankaudit.scorer import relabel

from conftest import make_dataset, make_scores


def _decision(labels, d):
    return DecisionSet(instance_ids=d.instance_ids, labels=np.asarray(labels, dtype=np.int8))


# --- group fairness metrics ------------------------------------------------------

def test_spd_hand_fixture():
    d = make_dataset([1, 1, 1, 0, 0, 0], [0, 1] * 3)
    dec = _decision([1, 0, 0, 1, 1, 0], d)
    assert spd(dec, d) == pytest.approx(1 / 3 - 2 / 3)


def test_spd_trivials():
    d = make_dataset([1, 1, 0, 0], [0, 1] * 2)
    assert spd(_decision([1, 0, 1, 0], d), d) == 0.0
    assert spd(_decision([1, 1, 1, 1], d), d) == 0.0


def test_spd_needs_both_groups():
    d = make_dataset([1, 1], [0, 1])
    with pytest.raises(EmptyGroup):
        spd(_decision([1, 0], d), d)


def test_eod_hand_fixture():
    # protected: 2 positives, 1 predicted; privileged: 2 positives, both predicted
    d = make_dataset([1, 1, 1, 0, 0, 0], [1, 1, 0, 1, 1, 0])
    dec = _decision([1, 0, 0, 1, 1, 0], d)
    assert eod(dec, d) == pytest.approx(0.5 - 1.0)


def test_eod_trivials_and_errors():
    d = make_dataset([1, 1, 0, 0], [1, 0, 1, 0])
    assert eod(_decision([1, 0, 1, 0], d), d) == 0.0  # perfect classifier
    no_pos = make_dataset([1, 1, 0, 0], [0, 0, 1, 0])
    with pytest.raises(NoPositivesInGroup):
        eod(_decision([0, 0, 1, 0], no_pos), no_pos)


def test_accuracy():
    d = make_dataset([1, 0, 1, 0], [1, 0, 0, 1])
    assert accuracy(_decision([1, 0, 1, 1], d), d) == 0.75


# --- quadrants ----------------------------------------------------------------------

def test_quadrants_identical_decisions_have_empty_off_diagonal():
    d = make_dataset([1, 1, 0, 0], [0, 1] * 2)
    dec = _decision([1, 0, 1, 0], d)
    counts = quadrant_analysis(dec, dec, d)
    for g in ("protected", "privileged"):
        assert counts[g]["upgraded"] == 0
        assert counts[g]["downgraded"] == 0
        assert counts[g]["kept_positive"] == counts[g]["kept_negative"] == 1


def test_quadrants_hand_transition():
    d = make_dataset([1, 1], [0, 1])
    base = _decision([1, 0], d)
    mit = _decision([0, 1], d)
    counts = quadrant_analysis(base, mit, d)
    assert counts["protected"]["downgraded"] == 1
    assert counts["protected"]["upgraded"] == 1


def test_quadrants_count_each_group_apart():
    d = make_dataset([1, 0, 1, 0], [0, 1, 0, 1])
    base = _decision([1, 0, 1, 0], d)
    mit = _decision([0, 1, 1, 0], d)
    assert quadrant_analysis(base, mit, d) == {
        "protected": {"kept_negative": 0, "upgraded": 0, "downgraded": 1, "kept_positive": 1},
        "privileged": {"kept_negative": 1, "upgraded": 1, "downgraded": 0, "kept_positive": 0}}


def test_quadrants_conservation_under_fixed_rates():
    rng = np.random.default_rng(3)
    d = make_dataset([1] * 8 + [0] * 8, rng.integers(0, 2, 16))
    s = make_scores(rng.random(16))
    base = decide(s, d, DecisionPolicy(kind="fixed-threshold", threshold=0.5))
    rate = base.realized_pdr
    mit = decide(s, d, DecisionPolicy(kind="per-group-rates", group_rates=(rate, rate)))
    counts = quadrant_analysis(base, mit, d)
    for g in ("protected", "privileged"):
        # per-group counts move by at most the rounding slack of the quota
        assert abs(counts[g]["upgraded"] - counts[g]["downgraded"]) <= \
            abs(mit.labels.sum() - base.labels.sum()) + 1


def test_quadrants_misaligned_ids():
    d = make_dataset([1, 0], [0, 1])
    base = _decision([1, 0], d)
    other = DecisionSet(instance_ids=np.array([1, 0]), labels=np.array([0, 1], dtype=np.int8))
    with pytest.raises(MisalignedIds):
        quadrant_analysis(base, other, d)


# --- report assembly ------------------------------------------------------------------

def _report_fixture():
    rng = np.random.default_rng(7)
    n = 40
    sens = np.array([1, 0] * (n // 2))
    truth = rng.integers(0, 2, n)
    truth[:4] = [1, 1, 0, 0]
    d = make_dataset(sens, truth)
    base = make_scores(np.clip(0.5 + 0.4 * (truth - 0.5) + rng.normal(0, 0.2, n), 0, 1))
    return d, base


def _report(d, scored, policy, own=None):
    """build_report with every score set decided under policy, but those in own."""
    own = own or {}
    return build_report(d, scored, {
        ss.method: own[ss.method] if ss.method in own else decide(ss, d, policy)
        for ss in scored.score_sets})


def test_report_baseline_clone_rows_identical():
    d, base = _report_fixture()
    clone = relabel(base, "clone")
    policy = DecisionPolicy(kind="fixed-threshold", threshold=0.5)
    scored = audit_scores(d, base, [clone])
    report = _report(d, scored, policy)
    assert scored.tau_vs_baseline["clone"] == {
        "overall": 1.0, "protected": 1.0, "privileged": 1.0,
    }
    assert report.rows["clone"] == report.rows["baseline"]
    assert scored.pairwise_tau["matrix"][0][1] == 1.0


def test_report_matches_hand_assembly():
    d, base = _report_fixture()
    rng = np.random.default_rng(9)
    other = make_scores(np.clip(base.scores + rng.normal(0, 0.1, base.n), 0, 1), "bent")
    policy = DecisionPolicy(kind="global-top-rate", rate=0.4)
    scored = audit_scores(d, base, [other])
    report = _report(d, scored, policy)

    from rankaudit.audit import auc, kendall_tau
    dec = decide(other, d, policy)
    pos = d.positions_of(base.instance_ids)
    truth = d.label[pos]
    prot = d.protected_mask[pos]
    row = report.rows["bent"]
    assert row["auc"] == auc(other.scores, truth)
    assert row["auc_protected"] == auc(other.scores[prot], truth[prot])
    assert row["spd"] == spd(dec, d)
    assert row["pdr"] == dec.realized_pdr
    assert scored.tau_vs_baseline["bent"]["overall"] == \
        kendall_tau(base.scores, other.scores)


def test_report_postprocessing_rows_bitwise_equal_baseline():
    d, base = _report_fixture()
    band_flip, mixing = relabel(base, "band-flip"), relabel(base, "mixing")
    region = reject_option_classify(base, d, epsilon=0.05)
    mixed = apply_mixing(fit_equalized_odds_post(base, d, seed=3), mixing, d)
    scored = audit_scores(d, base, [band_flip, mixing])
    policy = DecisionPolicy(kind="fixed-threshold", threshold=0.5)
    report = _report(d, scored, policy, own={
        "band-flip": apply_reject_option(region, band_flip, d), "mixing": mixed})
    for name in ("band-flip", "mixing"):
        assert scored.tau_vs_baseline[name]["overall"] == 1.0
        assert scored.tau_vs_baseline[name]["protected"] == 1.0
        assert scored.tau_vs_baseline[name]["privileged"] == 1.0
        for key in ("auc", "auc_protected", "auc_privileged"):
            assert report.rows[name][key] == report.rows["baseline"][key]


def test_audit_scores_surfaces_method_name_on_group_errors():
    d = make_dataset([1, 1, 1, 1], [0, 1, 0, 1])  # privileged group missing
    base = make_scores([0.2, 0.8, 0.4, 0.6])
    with pytest.raises(EmptyGroup, match="baseline"):
        audit_scores(d, base, [])


def test_audit_scores_rejects_duplicate_method_names():
    d, base = _report_fixture()
    clone = relabel(base, "dup")
    with pytest.raises(ValueError):
        audit_scores(d, base, [clone, clone])


def test_report_names_the_method_whose_decisions_are_misaligned():
    d, base = _report_fixture()
    clone = relabel(base, "clone")
    scored = audit_scores(d, base, [clone])
    policy = DecisionPolicy(kind="fixed-threshold", threshold=0.5)
    reversed_ids = make_scores(base.scores[::-1], "clone", base.instance_ids[::-1])
    decisions = {"baseline": decide(base, d, policy), "clone": decide(reversed_ids, d, policy)}
    with pytest.raises(MisalignedIds, match="^clone: "):
        build_report(d, scored, decisions)


def test_report_needs_a_decision_set_per_score_set():
    d, base = _report_fixture()
    scored = audit_scores(d, base, [relabel(base, "clone"), relabel(base, "other")])
    policy = DecisionPolicy(kind="fixed-threshold", threshold=0.5)
    decisions = {"baseline": decide(base, d, policy)}
    with pytest.raises(ValueError, match="clone, other"):
        build_report(d, scored, decisions)


def test_report_json_is_deterministic():
    d, base = _report_fixture()
    policy = DecisionPolicy(kind="fixed-threshold", threshold=0.5)
    a = json.dumps(_report(d, audit_scores(d, base, [relabel(base, "c")]), policy)
                   .to_dict(), sort_keys=True)
    b = json.dumps(_report(d, audit_scores(d, base, [relabel(base, "c")]), policy)
                   .to_dict(), sort_keys=True)
    assert a == b
    doc = json.loads(a)
    assert set(doc) == {"rows", "quadrants"}
    assert set(doc["rows"]["baseline"]) == {
        "auc", "auc_protected", "auc_privileged", "acc", "spd", "eod", "pdr",
    }
