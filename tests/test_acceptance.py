"""Acceptance suite: one test per criterion, one pass/fail line each.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Real benchmark CSVs are picked up from $RANKAUDIT_DATA_DIR when present
(adult.csv, compas.csv, dutch.csv, law.csv, student.csv); without them the
data-dependent criteria run on bundled synthetic fixtures.
"""

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from rankaudit import (
    DecisionPolicy,
    ScorerConfig,
    auc,
    builtin_specs,
    audit_scores,
    build_report,
    decide,
    decomposition_check,
    disparate_impact_remove,
    fit,
    fit_equalized_odds_post,
    fit_threshold_optimizer,
    ingest,
    kendall_tau,
    monotonicity_check,
    pareto_check,
    score,
    spd,
    split,
    threshold_decision,
    verify_base_rate,
    wage_gap_world,
)
from rankaudit.cli import main
from rankaudit.dataset import PROTECTED
from rankaudit.mitigate import (
    apply_group_thresholds,
    apply_mixing,
    apply_reject_option,
    derived_group_rates,
    reject_option_classify,
)
from rankaudit.scorer import relabel
from rankaudit.synthetic import (
    biased_benchmark,
    exact_rate_spec,
    write_biased_benchmark_csv,
    write_exact_rate_csv,
)
from rankaudit.worlds import anti_monotone_world

from conftest import make_dataset, make_scores
from oracles import brute_auc, brute_tau
from test_worlds import _random_world


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except Exception:
        print(f"[criterion {num:02d}] FAIL - {description}")
        raise
    print(f"[criterion {num:02d}] PASS - {description}")


def _data_dir():
    root = os.environ.get("RANKAUDIT_DATA_DIR")
    return Path(root) if root else None


def _real_datasets():
    root = _data_dir()
    if root is None:
        return []
    found = []
    for name, spec in builtin_specs().items():
        path = root / f"{name}.csv"
        if path.exists():
            found.append((name, path, spec))
    return found


# --- 1: rank metrics against brute force ------------------------------------------------

def test_criterion_01_oracle_equivalence():
    with criterion(1, "tau (both variants) and auc match pair enumeration, "
                      "1000 vectors, n<=300, <30s"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        for trial in range(1000):
            n = int(rng.integers(2, 301))
            x = rng.random(n)
            y = rng.random(n)
            if trial % 2:  # half the trials carry heavy ties
                x = np.round(x, 1)
                y = np.round(y, 1)
            for variant in ("tau-a", "tau-b"):
                got = kendall_tau(x, y, variant)
                want = brute_tau(x, y, variant)
                assert got == want or abs(got - want) <= 1e-12, \
                    f"tau {variant} trial {trial}"
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert abs(auc(x, labels) - brute_auc(x, labels)) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


# --- 2: metric throughput ----------------------------------------------------------------

def test_criterion_02_metric_performance():
    with criterion(2, "tau and auc on 60,420 elements run in <1s each"):
        rng = np.random.default_rng(7)
        n = 60_420
        x = np.round(rng.random(n), 4)  # ~6 duplicates per value on average
        y = np.round(rng.random(n), 4)
        labels = rng.integers(0, 2, n)

        start = time.perf_counter()
        kendall_tau(x, y, "tau-b")
        tau_time = time.perf_counter() - start
        start = time.perf_counter()
        auc(x, labels)
        auc_time = time.perf_counter() - start
        assert tau_time < 1.0, f"tau took {tau_time:.2f}s"
        assert auc_time < 1.0, f"auc took {auc_time:.2f}s"


# --- 3: postprocessing never reranks -------------------------------------------------------

def _postprocessing_report(d, splits):
    model = fit(d, splits, ScorerConfig(epochs=150))
    baseline_val = score(model, d, splits.validation_ids)
    baseline = score(model, d, splits.test_ids)
    threshold_05 = DecisionPolicy(kind="fixed-threshold", threshold=0.5)

    gt = fit_threshold_optimizer(baseline_val, d)
    to_dec = apply_group_thresholds(gt, relabel(baseline, "thresholds"), d)
    region = reject_option_classify(baseline_val, d, epsilon=0.05)
    roc_dec = apply_reject_option(region, relabel(baseline, "band-flip"), d)
    mixing = fit_equalized_odds_post(baseline_val, d, seed=3)
    eop_dec = apply_mixing(mixing, relabel(baseline, "odds-mixing"), d)
    scored = audit_scores(d, baseline, [relabel(baseline, name) for name in
                                        ("thresholds", "band-flip", "odds-mixing")])
    return scored, build_report(d, scored, {
        "baseline": decide(baseline, d, threshold_05),
        "thresholds": to_dec, "band-flip": roc_dec, "odds-mixing": eop_dec,
    })


def test_criterion_03_postprocessing_rank_preservation():
    with criterion(3, "thresholds/band-flip/odds-mixing: tau vs baseline 1.0 "
                      "exactly, AUC rows bitwise equal"):
        fixtures = [biased_benchmark(n=900, seed=11)]
        for name, path, spec in _real_datasets():
            fixtures.append(ingest(path, spec))
        for d in fixtures:
            splits = split(d, (0.6, 0.2, 0.2), seed=7)
            scored, report = _postprocessing_report(d, splits)
            for method in ("thresholds", "band-flip", "odds-mixing"):
                taus = scored.tau_vs_baseline[method]
                assert taus["overall"] == 1.0
                assert taus["protected"] == 1.0
                assert taus["privileged"] == 1.0
                for key in ("auc", "auc_protected", "auc_privileged"):
                    assert report.rows[method][key] == report.rows["baseline"][key]


# --- 4: feature repair invariants ------------------------------------------------------------

def test_criterion_04_repair_invariants():
    with criterion(4, "repair keeps within-group order at every level; "
                      "level 1 aligns group distributions; level 0 identity"):
        rng = np.random.default_rng(5)
        n_p, n_v = 60, 45
        fixtures = [
            np.concatenate([np.linspace(0, 10, n_p), np.linspace(20, 50, n_v)]),
            np.concatenate([np.linspace(-3, 3, n_p) ** 3 / 9.0,
                            np.linspace(5, 9, n_v)]),
        ]
        for values in fixtures:
            d = make_dataset([1] * n_p + [0] * n_v,
                             [0, 1] * ((n_p + n_v) // 2) + [0], features=values)
            prot = d.protected_mask
            for lam in (0.0, 0.3, 0.7, 1.0):
                r = disparate_impact_remove(d, lam, ["f0"])
                for mask in (prot, ~prot):
                    assert kendall_tau(values[mask], r.features[mask, 0]) == 1.0
                if lam == 0.0:
                    assert np.array_equal(r.features, d.features)
                if lam == 1.0:
                    repaired = r.features[:, 0]
                    grid = np.linspace(0, 1, 201)
                    gap = np.abs(
                        np.quantile(repaired[prot], grid)
                        - np.quantile(repaired[~prot], grid)
                    ).max()
                    bound = (repaired.max() - repaired.min()) / min(n_p, n_v)
                    assert gap <= bound, f"gap {gap} > bound {bound}"


# --- 5: fairness under controlled rates --------------------------------------------------------

def test_criterion_05_controlled_rate_fairness():
    with criterion(5, "quota and threshold selection hit |SPD| <= 1/min(n_g); "
                      "odds mixing equalizes analytically and under 1e6 flips"):
        rng = np.random.default_rng(13)
        fixtures = []
        for trial in range(10):
            n_p = int(rng.integers(20, 200))
            n_v = int(rng.integers(20, 200))
            sens = np.array([1] * n_p + [0] * n_v)
            truth = rng.integers(0, 2, n_p + n_v)
            truth[:4] = [0, 1, 0, 1]
            fixtures.append((make_dataset(sens, truth),
                             make_scores(rng.random(n_p + n_v)),
                             float(rng.random())))
        datasets = [(d, s, r, None) for d, s, r in fixtures]
        for name, path, spec in _real_datasets():
            d = ingest(path, spec)
            splits = split(d, (0.6, 0.2, 0.2), seed=7)
            model = fit(d, splits, ScorerConfig(epochs=120))
            s = score(model, d, splits.test_ids)
            datasets.append((d, s, 0.3, splits.test_ids))
        for d, s, r, ids in datasets:
            ids = s.instance_ids if ids is None else ids
            pos = d.positions_of(ids)
            n_p = int((d.sensitive[pos] == PROTECTED).sum())
            n_v = len(ids) - n_p
            bound = 1.0 / min(n_p, n_v) + 1e-12
            quota = decide(s, d, DecisionPolicy(kind="per-group-rates", group_rates=(r, r)))
            assert abs(spd(quota, d)) <= bound
            gt = fit_threshold_optimizer(s, d, rate=r)
            via_t = apply_group_thresholds(gt, s, d)
            assert abs(spd(via_t, d)) <= bound

        # analytic equalization and the 1e6-flip Monte Carlo check
        n = 1_000_000
        rng = np.random.default_rng(17)
        sens = (np.arange(n) % 3 == 0).astype(np.int8)
        truth = rng.integers(0, 2, n).astype(np.int8)
        d = make_dataset(sens, truth)
        base_labels = np.where(rng.random(n) < np.where(sens == 1, 0.6, 0.8),
                               truth, 1 - truth).astype(np.int8)
        base = make_scores(np.where(base_labels == 1, 0.9, 0.1))
        rates_fit = fit_equalized_odds_post(base, d, seed=19)
        derived = derived_group_rates(rates_fit, base, d)
        assert abs(derived["tpr_protected"] - derived["tpr_privileged"]) <= 1e-9
        assert abs(derived["fpr_protected"] - derived["fpr_privileged"]) <= 1e-9
        mixed = apply_mixing(rates_fit, base, d)
        prot = d.protected_mask
        for mask, tag in ((prot, "protected"), (~prot, "privileged")):
            for y, kind in ((1, "tpr"), (0, "fpr")):
                cell = mask & (truth == y)
                expected = derived[f"{kind}_{tag}"]
                observed = mixed.labels[cell].mean()
                se = np.sqrt(max(expected * (1 - expected), 1e-12) / cell.sum())
                assert abs(observed - expected) <= 3 * se + 1e-9


# --- 6: the running synthetic world -------------------------------------------------------------

def test_criterion_06_running_world():
    with criterion(6, "wage-gap world: monotone, decomposes to (tau, 0.9 tau), "
                      "biased cut maximal-unfair / dominated-fair, <10s"):
        start = time.perf_counter()
        w = wage_gap_world(501)
        assert monotonicity_check(w).holds
        for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
            res = decomposition_check(w, tau)
            assert res.decomposable
            assert res.thresholds["male"] == tau
            assert res.thresholds["female"] == 0.9 * tau
            rebuilt = threshold_decision(
                w, "unfair", tau,
                per_group={0: res.thresholds["male"], 1: res.thresholds["female"]},
            )
            assert np.array_equal(rebuilt.astype(bool), w.fair_p > tau)
        dec = threshold_decision(w, "unfair", 0.5)
        assert pareto_check(w, dec, "unfair").maximal
        assert not pareto_check(w, dec, "fair").maximal
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


# --- 7: equivalence on randomized worlds ----------------------------------------------------------

def test_criterion_07_equivalence_both_directions():
    with criterion(7, "monotonicity <=> decomposability for all grid taus, "
                      "200 random worlds, zero counterexamples"):
        rng = np.random.default_rng(101)
        holds = fails = 0
        for trial in range(200):
            w = _random_world(rng, comonotone=trial % 2 == 0)
            mono = monotonicity_check(w)
            all_taus = all(
                decomposition_check(w, float(t)).decomposable
                for t in np.unique(w.fair_p)
            )
            assert mono.holds == all_taus, f"counterexample at trial {trial}"
            holds += mono.holds
            fails += not mono.holds
        assert holds > 0 and fails > 0

        bad = anti_monotone_world(101)
        res = monotonicity_check(bad)
        assert not res.holds and len(res.witnesses) >= 1
        witness_x = res.witnesses[0]["lower_p"]
        mask = (bad.group == 1) & (bad.x == witness_x)
        tau = float(bad.fair_p[mask][0])
        if not 0.0 < tau < 1.0:
            tau = 0.5
        assert not decomposition_check(bad, tau).decomposable


# --- 8: qualitative real-data behavior -------------------------------------------------------------

def test_criterion_08_qualitative_biased_data():
    with criterion(8, "biased benchmark: AUC >= 0.80 (pinned 0.8434 +/- 0.02), "
                      "SPD@0.5 < -0.10, rate-matched |SPD| <= 0.02"):
        candidates = [biased_benchmark(n=2400, seed=2024)]
        for name, path, spec in _real_datasets():
            if name == "adult":
                candidates.append(ingest(path, spec))
        for i, d in enumerate(candidates):
            splits = split(d, (0.6, 0.2, 0.2), seed=7)
            model = fit(d, splits, ScorerConfig())
            baseline = score(model, d, splits.test_ids)
            pos = d.positions_of(splits.test_ids)
            truth = d.label[pos]
            observed_auc = auc(baseline.scores, truth)
            assert observed_auc >= 0.80
            if i == 0:  # regression band: first-run observation 0.8434 +/- 0.02
                assert 0.8234 <= observed_auc <= 0.8634
            dec = decide(baseline, d,
                         DecisionPolicy(kind="fixed-threshold", threshold=0.5))
            assert spd(dec, d) < -0.10
            rate = dec.realized_pdr
            controlled = decide(baseline, d,
                                DecisionPolicy(kind="per-group-rates", group_rates=(rate, rate)))
            assert abs(spd(controlled, d)) <= 0.02


# --- 9: ingestion fidelity ----------------------------------------------------------------------

def test_criterion_09_base_rates_to_four_decimals(tmp_path):
    with criterion(9, "base rates match the registry to 4 decimals "
                      "(real CSVs when provided, bundled fixtures otherwise)"):
        table = {
            "adult": 0.2393, "compas": 0.5216, "dutch": 0.5239,
            "law": 0.8897, "student": 0.5362,
        }
        real = dict((name, (path, spec)) for name, path, spec in _real_datasets())
        for name, expected in table.items():
            if name in real:
                path, spec = real[name]
                d = ingest(path, spec)
            else:
                path = tmp_path / f"{name}.csv"
                write_exact_rate_csv(path, n=10_000,
                                     positives=round(expected * 10_000))
                d = ingest(path, exact_rate_spec(name, expected))
                assert d.group_sizes() == (5_000, 5_000)  # every other row is protected
            assert round(verify_base_rate(d), 4) == expected


# --- 10: the comparison guard ----------------------------------------------------------------------

def test_criterion_10_comparison_guard(tmp_path, capsys):
    with criterion(10, "compare refuses PDR spreads > 0.05 under one policy "
                       "without --allow-uncontrolled"):
        def fake_report(path, pdr, method):
            doc = {
                "policy_label": "fixed-threshold-0.5",
                "rows": {method: {
                    "auc": 0.84, "auc_protected": 0.81, "auc_privileged": 0.83,
                    "acc": 0.8, "spd": -0.1, "eod": -0.1, "pdr": pdr,
                }},
                "provenance": {},
            }
            Path(path).write_text(json.dumps(doc), encoding="utf-8")

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        fake_report(a, 0.005, "sparse")
        fake_report(b, 0.393, "dense")
        out = tmp_path / "cmp.csv"
        assert main(["compare", str(a), str(b), "--out", str(out)]) == 1
        assert "refusing to compare" in capsys.readouterr().err
        assert not out.exists()
        assert main(["compare", str(a), str(b), "--allow-uncontrolled",
                     "--out", str(out)]) == 0
        assert "uncontrolled-rate" in out.read_text()

        close_b = tmp_path / "c.json"
        fake_report(close_b, 0.04, "dense")  # spread 0.035: allowed
        fake_report(a, 0.005, "sparse")
        out2 = tmp_path / "cmp2.csv"
        assert main(["compare", str(a), str(close_b), "--out", str(out2)]) == 0


# --- 11: full-run determinism -----------------------------------------------------------------------

def test_criterion_11_run_determinism(tmp_path):
    with criterion(11, "two identical `run` invocations produce byte-identical "
                       "reports, randomized flips included"):
        csv_path = tmp_path / "bench.csv"
        spec = write_biased_benchmark_csv(csv_path, n=600, seed=31)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        config = {
            "dataset": {"csv": str(csv_path), "spec": str(spec_path)},
            "split": {"fractions": [0.6, 0.2, 0.2], "seed": 3},
            "scorer": {"epochs": 100},
            "methods": [
                {"kind": "feature-repair", "name": "repair", "repair_level": 0.7},
                {"kind": "group-thresholds", "name": "thresholds"},
                {"kind": "reject-option", "name": "band-flip", "epsilon": 0.05},
                {"kind": "equalized-odds", "name": "odds-mixing", "seed": 23},
            ],
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
        reports = sorted(out_a.glob("report_*.json"))
        assert reports
        for report in reports:
            assert report.read_bytes() == (out_b / report.name).read_bytes()
        tables = sorted(out_a.glob("decisions_*.csv"))  # the mixer's flips among them
        assert tables
        for path in tables:
            assert path.read_bytes() == (out_b / path.name).read_bytes()
