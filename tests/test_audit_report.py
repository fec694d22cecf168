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
from rankaudit.decide import DecisionPolicy, DecisionSet, decide, equalize_rates
from rankaudit.errors import EmptyGroup, MisalignedIds, NoPositivesInGroup
from rankaudit.mitigate import (
    apply_mixing,
    fit_equalized_odds_post,
    reject_option_classify,
)
from rankaudit.scorer import relabel

from conftest import make_dataset, make_scores


def _decision(labels, d, method="m"):
    return DecisionSet(
        instance_ids=d.instance_ids,
        labels=np.asarray(labels, dtype=np.int8),
        policy=DecisionPolicy(kind="fixed-threshold", threshold=0.5),
        source_method=method,
    )


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
    counts, quadrant = quadrant_analysis(dec, dec, d)
    for g in ("protected", "privileged"):
        assert counts[g].upgraded == 0
        assert counts[g].downgraded == 0
        assert counts[g].total == 2
    assert quadrant.tolist() == ["kept_positive", "kept_negative"] * 2


def test_quadrants_hand_transition():
    d = make_dataset([1, 1], [0, 1])
    base = _decision([1, 0], d)
    mit = _decision([0, 1], d)
    counts, _ = quadrant_analysis(base, mit, d)
    assert counts["protected"].downgraded == 1
    assert counts["protected"].upgraded == 1


def test_quadrants_scatter_rows():
    d = make_dataset([1, 0, 1, 0], [0, 1, 0, 1])
    base = _decision([1, 0, 1, 0], d)
    mit = _decision([0, 1, 1, 0], d)
    counts, quadrant = quadrant_analysis(base, mit, d)
    # one name per row, in the order of base.instance_ids
    assert quadrant.tolist() == ["downgraded", "upgraded", "kept_positive", "kept_negative"]
    assert counts["protected"].to_dict() == {
        "kept_negative": 0, "upgraded": 0, "kept_positive": 1, "downgraded": 1}


def test_quadrants_conservation_under_fixed_rates():
    rng = np.random.default_rng(3)
    d = make_dataset([1] * 8 + [0] * 8, rng.integers(0, 2, 16))
    s = make_scores(rng.random(16))
    base = decide(s, d, DecisionPolicy(kind="fixed-threshold", threshold=0.5))
    rate = base.realized_pdr
    mit = equalize_rates(s, d, rate)
    counts, _ = quadrant_analysis(base, mit, d)
    for g in ("protected", "privileged"):
        # per-group counts move by at most the rounding slack of the quota
        assert abs(counts[g].upgraded - counts[g].downgraded) <= \
            abs(mit.labels.sum() - base.labels.sum()) + 1


def test_quadrants_misaligned_ids():
    d = make_dataset([1, 0], [0, 1])
    base = _decision([1, 0], d)
    other = DecisionSet(
        instance_ids=np.array([1, 0]), labels=np.array([0, 1], dtype=np.int8),
        policy=base.policy, source_method="m",
    )
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


def test_report_baseline_clone_rows_identical():
    d, base = _report_fixture()
    clone = relabel(base, "clone")
    policy = DecisionPolicy(kind="fixed-threshold", threshold=0.5)
    report = build_report(d, audit_scores(d, base, [clone]), policy)
    assert report.tau_vs_baseline["clone"] == {
        "overall": 1.0, "protected": 1.0, "privileged": 1.0,
    }
    assert report.rows["clone"] == report.rows["baseline"]
    assert report.pairwise_tau[0][1] == 1.0


def test_report_matches_hand_assembly():
    d, base = _report_fixture()
    rng = np.random.default_rng(9)
    other = make_scores(np.clip(base.scores + rng.normal(0, 0.1, base.n), 0, 1), "bent")
    policy = DecisionPolicy(kind="global-top-rate", rate=0.4)
    report = build_report(d, audit_scores(d, base, [other]), policy)

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
    assert report.tau_vs_baseline["bent"]["overall"] == \
        kendall_tau(base.scores, other.scores)


def test_report_postprocessing_rows_bitwise_equal_baseline():
    d, base = _report_fixture()
    res = reject_option_classify(base, d, base.instance_ids, epsilon=0.05)
    base_dec = decide(base, d, DecisionPolicy(kind="fixed-threshold", threshold=0.5))
    mixing = fit_equalized_odds_post(base_dec, d, d.instance_ids, seed=3)
    mixed = apply_mixing(mixing, base_dec, d, d.instance_ids, method="mixing")
    scored = audit_scores(d, base, [relabel(base, "band-flip"), relabel(base, "mixing")])
    policy = DecisionPolicy(kind="fixed-threshold", threshold=0.5)
    report = build_report(d, scored, policy,
                          decisions={"band-flip": res.decisions, "mixing": mixed})
    for name in ("band-flip", "mixing"):
        assert report.tau_vs_baseline[name]["overall"] == 1.0
        assert report.tau_vs_baseline[name]["protected"] == 1.0
        assert report.tau_vs_baseline[name]["privileged"] == 1.0
        for key in ("auc", "auc_protected", "auc_privileged"):
            assert report.rows[name][key] == report.rows["baseline"][key]


def test_report_surfaces_method_name_on_group_errors():
    d = make_dataset([1, 1, 1, 1], [0, 1, 0, 1])  # privileged group missing
    base = make_scores([0.2, 0.8, 0.4, 0.6])
    policy = DecisionPolicy(kind="fixed-threshold", threshold=0.5)
    with pytest.raises(EmptyGroup, match="baseline"):
        build_report(d, audit_scores(d, base, []), policy)


def test_report_rejects_duplicate_method_names():
    d, base = _report_fixture()
    clone = relabel(base, "dup")
    policy = DecisionPolicy(kind="fixed-threshold", threshold=0.5)
    with pytest.raises(ValueError):
        build_report(d, audit_scores(d, base, [clone, clone]), policy)


def test_report_json_is_deterministic():
    d, base = _report_fixture()
    policy = DecisionPolicy(kind="fixed-threshold", threshold=0.5)
    a = build_report(d, audit_scores(d, base, [relabel(base, "c")]), policy).to_json()
    b = build_report(d, audit_scores(d, base, [relabel(base, "c")]), policy).to_json()
    assert a == b
    doc = json.loads(a)
    assert doc["policy_label"] == "fixed-threshold-0.5"
    assert set(doc["rows"]["baseline"]) == {
        "auc", "auc_protected", "auc_privileged", "acc", "spd", "eod", "pdr",
    }
