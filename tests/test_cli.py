"""End-to-end CLI runs: artifacts, determinism, the comparison guard."""

import csv
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import rankaudit.audit
import rankaudit.cli
import rankaudit.dataset
import rankaudit.mitigate
from rankaudit.cli import METHODS, REQUIRED, SCHEMA, main
from rankaudit.dataset import atomic_open, write_csv
from rankaudit.synthetic import write_biased_benchmark_csv

from conftest import make_scores


@pytest.fixture(scope="module")
def run_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    csv_path = root / "bench.csv"
    spec = write_biased_benchmark_csv(csv_path, n=700, seed=77)
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    config = {
        "dataset": {"csv": str(csv_path), "spec": str(spec_path)},
        "split": {"fractions": [0.6, 0.2, 0.2], "seed": 7},
        "scorer": {"epochs": 120},
        "methods": [
            {"kind": "feature-repair", "name": "repair", "repair_level": 1.0},
            {"kind": "group-thresholds", "name": "thresholds"},
            {"kind": "reject-option", "name": "band-flip", "epsilon": 0.05},
            {"kind": "equalized-odds", "name": "odds-mixing", "seed": 5},
        ],
        "policies": [
            {"kind": "fixed-threshold", "threshold": 0.5},
            {"kind": "per-group-rates", "rate": "baseline-pdr"},
        ],
    }
    config_path = root / "run.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return root, config_path, config


def test_run_writes_all_artifacts(run_inputs, tmp_path):
    root, config_path, _ = run_inputs
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    methods = ["baseline", "repair", "thresholds", "band-flip", "odds-mixing"]
    labels = ["native", "fixed-threshold-0.5", "per-group-rates-0.457143-0.457143-baseline-pdr"]
    # one tau table and one correlation matrix per run; per policy one report,
    # a scatter file per mitigation and a decisions file per method; no stray
    # temp files after atomic writes
    assert {p.name for p in out.iterdir()} == {
        "provenance.json", "dataset_summary.json", "scorer.txt", "dataset_export.csv",
        "tau_vs_baseline.csv", "correlation_matrix.csv",
        *(f"fitted_{m}.txt" for m in methods[2:]),
        *(f"scores_{m}_test.csv" for m in methods),
        *(f"report_{label}.json" for label in labels),
        *(f"scatter_{label}_{m}.csv" for label in labels for m in methods[1:]),
        *(f"decisions_{label}_{m}.csv" for label in labels for m in methods),
    }


def _csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def test_scatter_files_match_scores_and_decisions(run_inputs, tmp_path):
    root, config_path, _ = run_inputs
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    transition = {("0", "0"): "kept_negative", ("0", "1"): "upgraded",
                  ("1", "1"): "kept_positive", ("1", "0"): "downgraded"}
    base_scores = _csv_rows(out / "scores_baseline_test.csv")
    reports = sorted(out.glob("report_*.json"))
    assert len(reports) == 3
    seen = set()
    for path in reports:
        label = path.stem[len("report_"):]
        files = json.loads(path.read_text())["scatter_files"]
        assert sorted(files) == ["band-flip", "odds-mixing", "repair", "thresholds"]
        base_dec = _csv_rows(out / f"decisions_{label}_baseline.csv")
        for method, name in files.items():
            assert name == f"scatter_{label}_{method}.csv"
            scores = _csv_rows(out / f"scores_{method}_test.csv")
            dec = _csv_rows(out / f"decisions_{label}_{method}.csv")
            assert len(scores) == len(dec) == len(base_dec) == len(base_scores) == 140
            expected = []
            for (i, b), (i_m, s), base_row, row in zip(base_scores, scores, base_dec, dec):
                assert i == i_m == base_row[0] == row[0]
                expected.append([i, base_row[1], b, s, transition[base_row[3], row[3]]])
            assert _csv_rows(out / name) == expected
            seen.update(r[4] for r in expected)
    assert seen == set(transition.values())


def test_run_report_content_sanity(run_inputs, tmp_path):
    root, config_path, _ = run_inputs
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    native = json.loads((out / "report_native.json").read_text())
    rows = native["rows"]
    assert set(native["methods"]) == {
        "baseline", "repair", "thresholds", "band-flip", "odds-mixing",
    }
    # postprocessors keep the baseline ranking and AUC rows exactly
    for name in ("thresholds", "band-flip", "odds-mixing"):
        assert native["tau_vs_baseline"][name]["overall"] == 1.0
        assert rows[name]["auc"] == rows["baseline"]["auc"]
    # provenance records the fitting partitions and seeds
    prov = native["provenance"]
    assert prov["postprocessors_fitted_on"] == "validation"
    assert prov["method_seeds"] == {"odds-mixing": 5}
    assert prov["split_sizes"]["test"] == 140
    # rate-controlled report pins both groups to the same rate
    controlled = json.loads(
        (out / "report_per-group-rates-0.45-0.45-baseline-pdr.json").read_text()
    ) if (out / "report_per-group-rates-0.45-0.45-baseline-pdr.json").exists() else None
    if controlled is None:
        candidates = [p for p in out.iterdir()
                      if p.name.startswith("report_per-group-rates")]
        controlled = json.loads(candidates[0].read_text())
    n_prot = native["provenance"]["split_sizes"]["test"]
    for name, row in controlled["rows"].items():
        assert abs(row["spd"]) <= 0.2  # bounded by 1/min(n_g), loose here


def test_run_byte_identical_reports(run_inputs, tmp_path):
    root, config_path, _ = run_inputs
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(out_b)]) == 0
    for report in sorted(out_a.glob("report_*.json")):
        twin = out_b / report.name
        assert report.read_bytes() == twin.read_bytes()
    # the randomized mixer's decisions replay identically too
    for dec in sorted(out_a.glob("decisions_*odds-mixing*.csv")):
        assert dec.read_bytes() == (out_b / dec.name).read_bytes()


def test_stage_commands_stop_early(run_inputs, tmp_path):
    root, config_path, _ = run_inputs
    out = tmp_path / "stage"
    assert main(["ingest", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "dataset_summary.json").exists()
    assert not (out / "scorer.txt").exists()
    assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "scorer.txt").exists()
    assert (out / "scores_baseline_test.csv").exists()
    assert not list(out.glob("report_*.json"))
    assert main(["audit", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "report_native.json").exists()
    assert not list(out.glob("decisions_*.csv"))


def test_external_scores_method(run_inputs, tmp_path):
    root, config_path, config = run_inputs
    base_out = tmp_path / "base"
    assert main(["run", "--config", str(config_path), "--out", str(base_out)]) == 0
    # echo the baseline's test scores as an "external" method
    lines = (base_out / "scores_baseline_test.csv").read_text().strip().splitlines()
    ext_path = tmp_path / "external.csv"
    ext_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = dict(config)
    cfg["methods"] = [{"kind": "external-scores", "name": "mirror",
                       "path": str(ext_path)}]
    cfg_path = tmp_path / "ext.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "ext_out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "report_native.json").read_text())
    assert report["tau_vs_baseline"]["mirror"]["overall"] == 1.0


def test_external_scores_missing_test_ids_exit_1(run_inputs, tmp_path, capsys):
    root, config_path, config = run_inputs
    base_out = tmp_path / "base"
    assert main(["run", "--config", str(config_path), "--out", str(base_out)]) == 0
    header, *rows = (base_out / "scores_baseline_test.csv").read_text().splitlines()
    ext_path = tmp_path / "external.csv"
    ext_path.write_text("\n".join([header] + rows[1:]) + "\n", encoding="utf-8")
    cfg = dict(config)
    cfg["methods"] = [{"kind": "external-scores", "name": "partial",
                       "path": str(ext_path)}]
    cfg_path = tmp_path / "ext.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "lack test ids" in err
    assert f"[{rows[0].split(',')[0]}]" in err  # names the missing id
    assert not (tmp_path / "o" / "report_native.json").exists()


def test_five_dataset_batch_reports_share_structure(tmp_path):
    """One run per benchmark fixture; every report mirrors the same table shape."""
    from rankaudit.synthetic import exact_rate_spec, write_exact_rate_csv

    table = {"adult": 0.2393, "compas": 0.5216, "dutch": 0.5239,
             "law": 0.8897, "student": 0.5362}
    report_paths = []
    for name, rate in table.items():
        csv_path = tmp_path / f"{name}.csv"
        write_exact_rate_csv(csv_path, n=600, positives=round(rate * 600))
        spec_path = tmp_path / f"{name}_spec.json"
        spec_path.write_text(json.dumps(exact_rate_spec(name, None).to_dict()),
                             encoding="utf-8")
        cfg = {
            "dataset": {"csv": str(csv_path), "spec": str(spec_path)},
            "split": {"fractions": [0.6, 0.2, 0.2], "seed": 7},
            "scorer": {"epochs": 60},
            "methods": [
                {"kind": "feature-repair", "name": "repair", "repair_level": 1.0},
                {"kind": "group-thresholds", "name": "thresholds"},
            ],
            "policies": [{"kind": "fixed-threshold", "threshold": 0.5}],
        }
        cfg_path = tmp_path / f"{name}_run.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / f"out_{name}"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        report_paths.append(out / "report_native.json")

    metric_keys = {"auc", "auc_protected", "auc_privileged", "acc", "spd", "eod", "pdr"}
    assert len(report_paths) == 5
    for path in report_paths:
        doc = json.loads(path.read_text())
        assert doc["methods"] == ["baseline", "repair", "thresholds"]
        for method in doc["methods"]:
            assert set(doc["rows"][method]) == metric_keys
            assert set(doc["tau_vs_baseline"][method]) == \
                {"overall", "protected", "privileged"}


def test_mitigation_requires_validation_partition(run_inputs, tmp_path):
    root, config_path, config = run_inputs
    cfg = dict(config)
    cfg["split"] = {"fractions": [1.0, 0.0, 0.0], "seed": 1}
    cfg_path = tmp_path / "noval.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["mitigate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 2  # DegenerateSplit


def test_config_validation_exit_codes(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 1
    no_csv = tmp_path / "nocsv.json"
    no_csv.write_text(json.dumps({"dataset": {"csv": str(tmp_path / "x.csv")}}),
                      encoding="utf-8")
    assert main(["run", "--config", str(no_csv), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("policies, methods", [
    ([{"kind": "per-group-rates", "rate": 1.5}], None),
    ([{"kind": "global-top-rate", "rate": -0.1}], None),
    ([{"kind": "global-top-rate", "rate": "median"}], None),
    ([{"kind": "fixed-threshold", "threshold": 2}], None),
    ([{"kind": "fixed-threshold"}], None),
    ([{"kind": "top-k", "rate": 0.3}], None),
    (None, [{"kind": "bagging", "name": "bag"}]),
    (None, [{"kind": "group-thresholds", "name": "gt", "rate": 1.2}]),
])
def test_config_rejected_before_training(run_inputs, tmp_path, policies, methods):
    root, config_path, config = run_inputs
    cfg = dict(config)
    if policies is not None:
        cfg["policies"] = policies
    if methods is not None:
        cfg["methods"] = methods
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert not (out / "scorer.txt").exists()


@pytest.mark.parametrize("mutate", [
    lambda cfg: cfg["scorer"].update(epoch=10),
    lambda cfg: cfg.update(policy=[]),
    lambda cfg: cfg["methods"][2].update(epsilom=0.05),
    lambda cfg: cfg.update(tau_variant="tau-c"),
    lambda cfg: cfg["methods"].append("repair"),
    lambda cfg: cfg["methods"][0].update(repair_level=2.0),
    lambda cfg: cfg["methods"][0].update(repair_level=-1),
    lambda cfg: cfg["methods"][0].update(columns=["nope"]),
    lambda cfg: cfg["methods"][2].update(epsilon="x"),
    lambda cfg: cfg["methods"][2].update(epsilon=-0.5),
    lambda cfg: cfg["methods"][3].update(seed="a"),
    lambda cfg: cfg["methods"].append({"kind": "external-scores", "path": "nope.csv"}),
    lambda cfg: cfg["methods"][0].update(name="baseline"),
    lambda cfg: cfg["methods"][0].update(name=3),
    lambda cfg: cfg["methods"].extend([{"kind": "reject-option"}] * 2),
    lambda cfg: cfg["scorer"].update(learning_rate=-1),
    lambda cfg: cfg["scorer"].update(l2_penalty=-1),
    lambda cfg: cfg["scorer"].update(epochs=0),
    lambda cfg: cfg["scorer"].update(model_kind="svm"),
    lambda cfg: cfg["split"].update(fractions=[0.5, 0.5]),
    lambda cfg: cfg["split"].update(fractions=[0.6, 0.2, 0.3]),
    lambda cfg: cfg["split"].update(seed="a"),
    lambda cfg: cfg["scorer"].update(epochs="5"),
    lambda cfg: cfg["scorer"].update(epochs=2.7),
    lambda cfg: cfg["scorer"].update(include_sensitive="no"),
    lambda cfg: cfg["policies"][0].update(threshold="0.5"),
    lambda cfg: cfg["policies"][0].update(threshold=True),
    lambda cfg: cfg["methods"][1].update(rate=True),
], ids=["scorer.epoch", "top-level-typo", "method-key-typo", "tau-variant",
        "method-not-object", "repair_level-2.0", "repair_level--1", "columns-nope",
        "epsilon-x", "epsilon--0.5", "odds-seed-a", "external-path-missing",
        "name-baseline", "name-3", "same-kind-twice-unnamed", "learning_rate--1",
        "l2_penalty--1", "epochs-0", "model_kind-svm", "fractions-two",
        "fractions-sum-1.1", "split-seed-a", "epochs-str", "epochs-2.7",
        "include_sensitive-no", "threshold-str", "threshold-true", "rate-true"])
def test_unknown_config_keys_rejected_before_ingest(run_inputs, tmp_path, mutate):
    root, config_path, config = run_inputs
    cfg = json.loads(json.dumps(config))
    mutate(cfg)
    cfg_path = tmp_path / "typo.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert not (out / "scorer.txt").exists()
    assert not (out / "dataset_summary.json").exists()


@pytest.mark.parametrize("mutate, message", [
    (lambda cfg: cfg["methods"][0].update(repair_level=2.0),
     "method 'repair': repair_level must be a number in [0, 1], got 2.0"),
    (lambda cfg: cfg["scorer"].update(epochs=2.7),
     "scorer: epochs must be an integer >= 1, got 2.7"),
    (lambda cfg: cfg["policies"][0].update(threshold=True),
     "policy 'fixed-threshold': threshold must be a number in [0, 1], got true"),
    (lambda cfg: cfg["methods"][0].update(columns=["nope"]),
     "method 'repair': columns must be numeric feature columns"),
], ids=["repair_level", "epochs", "threshold", "columns"])
def test_config_error_names_entry_and_key(run_inputs, tmp_path, capsys, mutate, message):
    root, config_path, config = run_inputs
    cfg = json.loads(json.dumps(config))
    mutate(cfg)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["ingest", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("inline", [True, False], ids=["inline", "file"])
def test_spec_missing_key_exits_1_before_ingest(run_inputs, tmp_path, capsys, inline):
    root, config_path, config = run_inputs
    spec = json.loads(Path(config["dataset"]["spec"]).read_text(encoding="utf-8"))
    del spec["protected_attribute_column"]
    if not inline:
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        spec = str(spec_path)
    cfg = dict(config, dataset=dict(config["dataset"], spec=spec))
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "lacks key 'protected_attribute_column'" in capsys.readouterr().err
    assert not (out / "dataset_summary.json").exists()


@pytest.mark.parametrize("row", ["abc,0.5", "1_000,0.5", "3,x", "3,\uff10.5", "3"])
def test_malformed_external_scores_exit_1_before_training(run_inputs, tmp_path,
                                                           capsys, row):
    root, config_path, config = run_inputs
    ext_path = tmp_path / "external.csv"
    ext_path.write_text(f"instance_id,score\n0,0.5\n{row}\n", encoding="utf-8")
    cfg = dict(config, methods=[{"kind": "external-scores", "path": str(ext_path)}])
    cfg_path = tmp_path / "ext.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"{ext_path}, line 3:" in capsys.readouterr().err
    assert not (out / "scorer.txt").exists()


def _hash_of(cfg, out) -> str:
    cfg_path = out.with_suffix(".json")
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["audit", "--config", str(cfg_path), "--out", str(out)]) == 0
    return json.loads((out / "provenance.json").read_text())["config_hash"]


def test_spelled_out_defaults_keep_config_hash(run_inputs, tmp_path):
    root, config_path, config = run_inputs
    terse = {"dataset": config["dataset"], "scorer": {"epochs": 120}}
    full = dict(terse, split={"fractions": [0.6, 0.2, 0.2], "seed": 7},
                scorer={"learning_rate": 0.1, "epochs": 120, "l2_penalty": 1e-4,
                        "seed": 42, "model_kind": "logistic",
                        "include_sensitive": False},
                methods=[], tau_variant="tau-b",
                policies=[{"kind": "fixed-threshold", "threshold": 0.5},
                          {"kind": "per-group-rates", "rate": "baseline-pdr"},
                          {"kind": "per-group-rates", "rate": "base-rate"}])
    assert _hash_of(terse, tmp_path / "terse") == _hash_of(full, tmp_path / "full")


@pytest.mark.parametrize("mutate", [
    lambda cfg: cfg.update(split={"seed": 3}),
    lambda cfg: cfg.update(split={"fractions": [0.6, 0.2, 0.2]}),
    lambda cfg: cfg.update(methods=[{"kind": "group-thresholds"},
                                    {"kind": "reject-option"}]),
], ids=["split-seed-only", "split-fractions-only", "unnamed-methods"])
def test_configs_relying_on_defaults_run(run_inputs, tmp_path, mutate):
    root, config_path, config = run_inputs
    cfg = json.loads(json.dumps(config))
    mutate(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "report_native.json").exists()


def test_readme_config_keys_match_schema():
    """README's "Config keys" block shows the schema's keys and defaults."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    doc = json.loads(re.sub(r"\s*//[^\n]*", "", block))
    for section in ("split", "scorer"):
        assert doc[section] == {k: d for k, (_, d) in SCHEMA[section].items()}
    assert doc["policies"] == SCHEMA["config"]["policies"][1]
    assert doc["tau_variant"] == SCHEMA["config"]["tau_variant"][1]
    shown = {m["kind"]: {k: v for k, v in m.items() if k not in ("kind", "name")}
             for m in doc["methods"]}
    assert shown.keys() == METHODS.keys()
    for kind, keys in METHODS.items():
        assert shown[kind].keys() == keys.keys()
        for key, (_, default) in keys.items():
            assert default is REQUIRED or shown[kind][key] == default, (kind, key)


def test_decide_command_matches_run_decisions(run_inputs, tmp_path):
    root, config_path, _ = run_inputs
    run_out = tmp_path / "run"
    decide_out = tmp_path / "decide"
    assert main(["run", "--config", str(config_path), "--out", str(run_out)]) == 0
    assert main(["decide", "--config", str(config_path), "--out", str(decide_out)]) == 0
    expected = {p.name for p in run_out.glob("decisions_*.csv")
                if not p.name.startswith("decisions_native_")}
    written = {p.name for p in decide_out.glob("decisions_*.csv")}
    assert written == expected
    assert len(written) == 2 * 5  # two policies, baseline plus four methods
    for name in written:
        assert (decide_out / name).read_bytes() == (run_out / name).read_bytes()


def test_run_computes_score_metrics_once(run_inputs, tmp_path, monkeypatch):
    root, config_path, _ = run_inputs
    calls = {"kendall_tau": 0, "auc": 0}

    def counted(name):
        original = getattr(rankaudit.audit, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(rankaudit.audit, name, counted(name))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    # five score sets but two score arrays (the postprocessors share the
    # baseline's): a tau triple and an AUC triple per array, and the pairwise
    # taus reuse the overall ones
    assert calls == {"kendall_tau": 6, "auc": 6}


def test_run_decides_baseline_at_half_once(run_inputs, tmp_path, monkeypatch):
    root, config_path, _ = run_inputs
    calls = []
    for module in (rankaudit.cli, rankaudit.audit, rankaudit.mitigate):
        original = module.decide

        def counted(scores, d, policy, original=original):
            calls.append((scores.method, policy.label()))
            return original(scores, d, policy)
        monkeypatch.setattr(module, "decide", counted)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    # the baseline at 0.5: once on test (shared by equalized odds, the
    # baseline-pdr rate and the native report), once on validation, once
    # under the configured fixed-threshold-0.5 policy
    assert calls.count(("baseline", "fixed-threshold-0.5")) == 3
    # 3 in mitigate, 1 native (repair), 2 policies x 5 score sets
    assert len(calls) == 14


def test_run_turns_each_score_array_into_text_once(run_inputs, tmp_path, monkeypatch):
    root, config_path, _ = run_inputs
    converted = {"float_text": [], "group_names": []}
    modules = [m for k, m in sys.modules.items()
               if k == "rankaudit" or k.startswith("rankaudit.")]
    for name in converted:
        original = getattr(rankaudit.dataset, name)

        def wrapper(values, name=name, original=original):
            converted[name].append(id(values))
            return original(values)
        # replaced in every module that holds it, so no call goes uncounted
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    # 32 CSVs carry scores, but there are two score arrays (the baseline's,
    # shared by the postprocessors, and the repair's) and one set of test ids
    assert len(converted["float_text"]) == len(set(converted["float_text"])) == 2
    assert len(converted["group_names"]) == 1


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "table.csv"
    path.write_bytes(b"old,contents\r\n")

    def column():
        yield "1"
        raise RuntimeError("disk gone")

    with pytest.raises(RuntimeError):
        write_csv(path, ["a", "b"], [column(), "2"])
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == b"old,contents\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_baseline_only_run(run_inputs, tmp_path):
    root, config_path, config = run_inputs
    cfg = dict(config)
    cfg["methods"] = []
    cfg_path = tmp_path / "solo.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "solo_out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "report_native.json").read_text())
    assert report["methods"] == ["baseline"]


# --- theory subcommand --------------------------------------------------------------

def test_theory_commands(tmp_path):
    out = tmp_path / "theory"
    assert main(["theory", "example", "--grid-size", "101",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "theory_example_wage-gap.json").read_text())
    assert doc["monotonicity"]["holds"] is True
    assert doc["decomposition"]["0.5"]["decomposable"] is True

    assert main(["theory", "monotonicity", "--world", "anti-monotone",
                 "--grid-size", "101", "--out", str(out)]) == 0
    doc = json.loads((out / "monotonicity_anti-monotone.json").read_text())
    assert doc["holds"] is False
    assert doc["violation_count"] > 0
    assert doc["witnesses"]

    assert main(["theory", "pareto", "--grid-size", "201", "--out", str(out)]) == 0
    doc = json.loads((out / "pareto_wage-gap.json").read_text())
    assert doc["unfair"]["maximal"] is True
    assert doc["fair"]["maximal"] is False

    assert main(["theory", "decompose", "--grid-size", "101", "--tau", "0.5",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "decomposition_wage-gap.json").read_text())
    assert doc["0.5"]["thresholds"]["female"] == 0.45


# --- compare subcommand --------------------------------------------------------------

def _fake_report(path, label, pdrs):
    rows = {}
    for method, pdr in pdrs.items():
        rows[method] = {"auc": 0.8, "auc_protected": 0.8, "auc_privileged": 0.8,
                        "acc": 0.7, "spd": -0.1, "eod": -0.05, "pdr": pdr}
    doc = {"policy_label": label, "rows": rows, "provenance": {}}
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def test_compare_zero_diff(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _fake_report(a, "fixed-threshold-0.5", {"baseline": 0.30, "m": 0.31})
    _fake_report(b, "fixed-threshold-0.5", {"baseline": 0.30, "m": 0.31})
    out = tmp_path / "cmp.csv"
    assert main(["compare", str(a), str(b), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5  # header + 2 rows per report
    assert lines[0].endswith("warning")
    assert all(line.endswith(",") for line in lines[1:])  # no warnings set


def test_compare_identical_reports_pass_despite_internal_spread(tmp_path):
    # methods inside one report may sit at very different rates; comparing a
    # report against an identical twin juxtaposes nothing new and must pass
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    rows = {"baseline": 0.247, "sparse": 0.005, "dense": 0.393}
    _fake_report(a, "native", rows)
    _fake_report(b, "native", rows)
    out = tmp_path / "cmp.csv"
    assert main(["compare", str(a), str(b), "--out", str(out)]) == 0
    assert "uncontrolled-rate" not in out.read_text()


def test_compare_refuses_same_method_rate_drift(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _fake_report(a, "fixed-threshold-0.5", {"baseline": 0.247})
    _fake_report(b, "fixed-threshold-0.5", {"baseline": 0.518})
    assert main(["compare", str(a), str(b), "--out", str(tmp_path / "c.csv")]) == 1
    assert "refusing to compare" in capsys.readouterr().err


def test_compare_refuses_uncontrolled_rates(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _fake_report(a, "fixed-threshold-0.5", {"sparse": 0.005})
    _fake_report(b, "fixed-threshold-0.5", {"dense": 0.393})
    out = tmp_path / "cmp.csv"
    assert main(["compare", str(a), str(b), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "refusing to compare" in err
    assert not out.exists()


def test_compare_override_flag_emits_with_warning(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _fake_report(a, "fixed-threshold-0.5", {"sparse": 0.005})
    _fake_report(b, "fixed-threshold-0.5", {"dense": 0.393})
    out = tmp_path / "cmp.csv"
    assert main(["compare", str(a), str(b), "--allow-uncontrolled",
                 "--out", str(out)]) == 0
    content = out.read_text()
    assert "uncontrolled-rate" in content


def test_compare_policy_mismatch(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _fake_report(a, "fixed-threshold-0.5", {"m": 0.3})
    _fake_report(b, "per-group-rates-0.3-0.3", {"m": 0.3})
    assert main(["compare", str(a), str(b), "--out", str(tmp_path / "c.csv")]) == 1
