"""Decision policies: thresholds, top-rate quotas, per-group variants."""

import json

import numpy as np
import pytest

from rankaudit.decide import (
    DecisionPolicy,
    decide,
    export_decisions,
)
from rankaudit.errors import RateOutOfRange, UnknownId
from rankaudit.audit import spd

from conftest import make_dataset, make_scores


def test_fixed_threshold_matches_default_labeling():
    d = make_dataset([0, 1, 0, 1], [0, 1, 0, 1])
    s = make_scores([0.2, 0.6, 0.5, 0.9])
    dec = decide(s, d, DecisionPolicy(kind="fixed-threshold", threshold=0.5))
    assert dec.labels.tolist() == [0, 1, 0, 1]  # strict: 0.5 is negative


def test_top_rate_boundaries():
    d = make_dataset([0, 1, 0, 1], [0, 1, 0, 1])
    s = make_scores([0.2, 0.6, 0.5, 0.9])
    all_neg = decide(s, d, DecisionPolicy(kind="global-top-rate", rate=0.0))
    assert all_neg.labels.sum() == 0
    all_pos = decide(s, d, DecisionPolicy(kind="global-top-rate", rate=1.0))
    assert all_pos.labels.sum() == 4


def test_top_rate_tie_broken_by_ascending_id():
    d = make_dataset([0, 1, 0, 1], [0, 1, 0, 1])
    s = make_scores([0.9, 0.7, 0.7, 0.1])
    dec = decide(s, d, DecisionPolicy(kind="global-top-rate", rate=0.5))
    assert dec.labels.tolist() == [1, 1, 0, 0]  # 0.9 plus the lower-id 0.7


def test_top_rate_exact_floor_count():
    d = make_dataset([0, 1] * 5, [0, 1] * 5)
    s = make_scores(np.linspace(0.05, 0.95, 10))
    dec = decide(s, d, DecisionPolicy(kind="global-top-rate", rate=0.33))
    assert dec.labels.sum() == 3  # floor(3.3)


def test_realized_pdr_recomputed():
    d = make_dataset([0, 1, 0, 1], [0, 1, 0, 1])
    s = make_scores([0.2, 0.6, 0.5, 0.9])
    dec = decide(s, d, DecisionPolicy(kind="fixed-threshold", threshold=0.5))
    assert dec.realized_pdr == 0.5


def test_equalize_rates_exact_per_group():
    d = make_dataset([1, 1, 1, 1, 0, 0, 0, 0], [0, 1] * 4)
    s = make_scores([0.1, 0.9, 0.3, 0.5, 0.2, 0.8, 0.7, 0.4])
    dec = decide(s, d, DecisionPolicy(kind="per-group-rates", group_rates=(0.25, 0.25)))
    prot = d.protected_mask
    assert dec.labels[prot].sum() == 1
    assert dec.labels[~prot].sum() == 1
    assert spd(dec, d) == 0.0


def test_equalize_rates_bounds():
    rng = np.random.default_rng(31)
    for trial in range(40):
        n_p = int(rng.integers(3, 40))
        n_v = int(rng.integers(3, 40))
        r = float(rng.random())
        d = make_dataset([1] * n_p + [0] * n_v, [0, 1] * ((n_p + n_v) // 2) + [0] * ((n_p + n_v) % 2))
        s = make_scores(rng.random(n_p + n_v))
        dec = decide(s, d, DecisionPolicy(kind="per-group-rates", group_rates=(r, r)))
        assert abs(spd(dec, d)) <= 1.0 / min(n_p, n_v) + 1e-12
        assert abs(dec.realized_pdr - r) <= 1.0 / (n_p + n_v) + 1e-12


def test_top_rate_sets_nested_as_rate_grows():
    rng = np.random.default_rng(41)
    d = make_dataset(rng.integers(0, 2, 30), rng.integers(0, 2, 30))
    s = make_scores(rng.random(30))
    previous = None
    for r in (0.1, 0.3, 0.5, 0.8, 1.0):
        selected = set(np.flatnonzero(
            decide(s, d, DecisionPolicy(kind="global-top-rate", rate=r)).labels
        ).tolist())
        if previous is not None:
            assert previous <= selected
        previous = selected


def test_top_rate_invariant_under_monotone_transform():
    rng = np.random.default_rng(43)
    d = make_dataset(rng.integers(0, 2, 25), rng.integers(0, 2, 25))
    raw = rng.random(25)
    cubed = raw ** 3  # strictly increasing transform keeping [0, 1]
    for r in (0.2, 0.4, 0.72):
        a = decide(make_scores(raw), d, DecisionPolicy(kind="global-top-rate", rate=r))
        b = decide(make_scores(cubed), d, DecisionPolicy(kind="global-top-rate", rate=r))
        assert a.labels.tolist() == b.labels.tolist()


def test_policy_validation():
    with pytest.raises(ValueError):
        DecisionPolicy(kind="fixed-threshold")
    with pytest.raises(RateOutOfRange):
        DecisionPolicy(kind="global-top-rate", rate=1.5)
    with pytest.raises(RateOutOfRange):
        DecisionPolicy(kind="per-group-rates", group_rates=(0.5, 1.5))
    with pytest.raises(ValueError):
        DecisionPolicy(kind="nonsense")


@pytest.mark.parametrize("fields", [
    {"kind": "per-group-rates", "group_rates": (0.5,)},
    {"kind": "per-group-rates", "group_rates": (0.5, 0.5, 0.5)},
    {"kind": "fixed-threshold", "threshold": 0.5, "rate": 0.3},
], ids=["one-group-rate", "three-group-rates", "threshold-with-rate"])
def test_policy_sets_exactly_its_kinds_field(fields):
    # each kind reads one field: a policy that sets more or fewer numbers
    # would be labelled, described or decided on numbers it does not hold
    with pytest.raises(ValueError):
        DecisionPolicy(**fields)


@pytest.mark.parametrize("fields", [
    {"kind": "fixed-threshold", "threshold": True},
    {"kind": "global-top-rate", "rate": False},
    {"kind": "per-group-rates", "group_rates": (0.5, True)},
], ids=["threshold", "rate", "group-rate"])
def test_policy_refuses_a_bool_for_a_number(fields):
    # True is a Real to isinstance; it would label as fixed-threshold-1
    with pytest.raises(ValueError, match="number"):
        DecisionPolicy(**fields)


@pytest.mark.parametrize("kind", ["per-group-thresholds", "reject-option",
                                  "randomized-mixing"])
def test_postprocessor_labels_are_not_policy_kinds(kind):
    # the postprocessors label their own DecisionSets; decide cannot apply them
    with pytest.raises(ValueError, match="unknown policy kind"):
        DecisionPolicy(kind=kind)


@pytest.mark.parametrize("policy, described", [
    (DecisionPolicy(kind="fixed-threshold", threshold=0.5, note="method-native contexts"),
     {"kind": "fixed-threshold", "threshold": 0.5, "note": "method-native contexts"}),
    (DecisionPolicy(kind="fixed-threshold", threshold=0.0),
     {"kind": "fixed-threshold", "threshold": 0.0}),
    (DecisionPolicy(kind="global-top-rate", rate=0.3),
     {"kind": "global-top-rate", "rate": 0.3}),
    (DecisionPolicy(kind="per-group-rates", group_rates=(0.25, 0.5), note="baseline-pdr"),
     {"kind": "per-group-rates", "group_rates": [0.25, 0.5], "note": "baseline-pdr"}),
], ids=["fixed-threshold-native", "fixed-threshold-0", "global-top-rate",
        "per-group-rates"])
def test_describe_lists_set_fields_and_tie_rule(policy, described):
    """What a report's policy entry holds: every field that is set, as JSON."""
    assert json.loads(json.dumps(policy.describe())) == {
        **described, "tie_rule": "ascending instance_id"}


def test_decide_unknown_ids():
    d = make_dataset([0, 1], [0, 1])
    s = make_scores([0.5, 0.6], ids=[0, 7])
    with pytest.raises(UnknownId):
        decide(s, d, DecisionPolicy(kind="fixed-threshold", threshold=0.5))


def test_export_decisions(tmp_path):
    d = make_dataset([1, 0], [1, 0])
    s = make_scores([0.8, 0.3])
    dec = decide(s, d, DecisionPolicy(kind="fixed-threshold", threshold=0.5))
    out = tmp_path / "dec.csv"
    export_decisions(dec, d, s, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "instance_id,group,score,label,method,policy"
    assert lines[1].startswith("0,protected,0.8,1,baseline,fixed-threshold-0.5")


def test_export_decisions_quotes_like_csv_writer(tmp_path):
    d = make_dataset([1, 0], [1, 0])
    s = make_scores([0.8, 0.3], method='repair, "v2"')
    dec = decide(s, d, DecisionPolicy(kind="fixed-threshold", threshold=0.5))
    out = tmp_path / "dec.csv"
    export_decisions(dec, d, s, out)
    assert out.read_bytes() == (
        b'instance_id,group,score,label,method,policy\r\n'
        b'0,protected,0.8,1,"repair, ""v2""",fixed-threshold-0.5\r\n'
        b'1,privileged,0.3,0,"repair, ""v2""",fixed-threshold-0.5\r\n'
    )
