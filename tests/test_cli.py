"""End-to-end CLI runs: artifacts, determinism, the comparison guard."""

import csv
import json
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import rankaudit.audit
import rankaudit.cli
import rankaudit.dataset
import rankaudit.mitigate
from rankaudit.cli import METHODS, NATIVE, REQUIRED, SCHEMA, main
from rankaudit.dataset import DatasetSpec, atomic_open, builtin_specs, ingest, write_csv
from rankaudit.decide import DecisionPolicy, decide
from rankaudit.scorer import ScorerConfig, relabel
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
    labels = ["native", "fixed-threshold-0.5", "per-group-rates-0.45-0.45-baseline-pdr"]
    # one tau table and one correlation matrix per run; scores only for a
    # method with scores of its own (a postprocessor's are the baseline's);
    # per policy one report and one decisions table; no stray temp files
    # after atomic writes
    assert {p.name for p in out.iterdir()} == {
        "provenance.json", "dataset_summary.json", "scorer.txt", "dataset_export.csv",
        "tau_vs_baseline.csv", "correlation_matrix.csv",
        *(f"fitted_{m}.txt" for m in methods[2:]),
        *(f"scores_{m}_test.csv" for m in methods[:2]),
        *(f"report_{label}.json" for label in labels),
        *(f"decisions_{label}.csv" for label in labels),
    }


def _csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def test_decisions_tables_hold_the_labels_behind_each_report(run_inputs, tmp_path,
                                                             monkeypatch):
    """Each method's column of a decisions table holds the labels the run
    decided: its own set in the native table (the postprocessors'), decide
    under the report's policy otherwise; and the report's quadrants are the
    per-group counts of the baseline's column against the method's."""
    root, config_path, config = run_inputs
    own = {}
    for name in ("apply_group_thresholds", "apply_reject_option", "apply_mixing"):
        def recorded(fitted, scores, d, original=getattr(rankaudit.cli, name)):
            own[scores.method] = original(fitted, scores, d)
            return own[scores.method]
        monkeypatch.setattr(rankaudit.cli, name, recorded)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    d = ingest(config["dataset"]["csv"], DatasetSpec.from_json(config["dataset"]["spec"]))
    scores = {}
    for method in ("baseline", "repair"):
        ids, values = zip(*_csv_rows(out / f"scores_{method}_test.csv"))
        scores[method] = make_scores(list(map(float, values)), method, list(map(int, ids)))
    for method in own:
        scores[method] = relabel(scores["baseline"], method)
    reports = sorted(out.glob("report_*.json"))
    assert len(reports) == len(list(out.glob("decisions_*.csv"))) == 3
    for path in reports:
        doc = json.loads(path.read_text())
        label, methods = doc["policy_label"], doc["methods"]
        policy = DecisionPolicy(**{k: tuple(v) if k == "group_rates" else v
                                   for k, v in doc["policy"].items() if k != "tie_rule"})
        with open(out / f"decisions_{label}.csv", encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["instance_id", "group", *methods] and len(methods) == 5
        ids = scores["baseline"].instance_ids
        assert [int(row[0]) for row in rows] == ids.tolist()
        prot, _ = d.cohort(ids)
        assert [row[1] for row in rows] == [("privileged", "protected")[p] for p in prot.tolist()]
        column = {m: np.array([int(row[2 + j]) for row in rows]) for j, m in enumerate(methods)}
        for m in methods:
            want = own[m] if label == "native" and m in own else decide(scores[m], d, policy)
            assert np.array_equal(column[m], want.labels), (label, m)
        base = column["baseline"]
        for m in methods[1:]:
            assert doc["quadrants"][m] == {
                group: {name: int(((prot == in_group) & (base == b) & (column[m] == after)).sum())
                        for name, b, after in (("kept_negative", 0, 0), ("upgraded", 0, 1),
                                               ("downgraded", 1, 0), ("kept_positive", 1, 1))}
                for group, in_group in (("protected", True), ("privileged", False))}, (label, m)
    # the native table is not the policy's for every postprocessor
    assert any(not np.array_equal(own[m].labels, decide(scores[m], d, NATIVE).labels)
               for m in own)


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
    # the decisions tables replay too, the randomized mixer's flips included
    tables = sorted(out_a.glob("decisions_*.csv"))
    assert tables
    for table in tables:
        assert table.read_bytes() == (out_b / table.name).read_bytes()


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


def test_ingest_export_is_the_input_when_it_holds_only_used_columns(run_inputs, tmp_path):
    root, config_path, _ = run_inputs
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "dataset_export.csv").read_bytes() == (root / "bench.csv").read_bytes()


def test_failed_ingest_leaves_no_export(run_inputs, tmp_path, capsys):
    """The export is written while the file is read; a target value found on
    the last row still leaves neither it nor its temporary file."""
    root, _, config = run_inputs
    bad_csv = tmp_path / "bad.csv"
    text = (root / "bench.csv").read_text(encoding="utf-8")
    bad_csv.write_text(text + text.splitlines()[-1].replace(",favorable", ",maybe")
                       .replace(",unfavorable", ",maybe") + "\n", encoding="utf-8")
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(dict(config, dataset={**config["dataset"],
                                                         "csv": str(bad_csv)})),
                        encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "NonBinaryTarget" in capsys.readouterr().err
    assert not (out / "dataset_export.csv").exists()
    assert not list(out.glob("*.tmp"))


def test_ingest_of_a_used_column_named_twice_exits_2(run_inputs, tmp_path, capsys):
    root, _, config = run_inputs
    lines = (root / "bench.csv").read_text(encoding="utf-8").splitlines()
    dup_csv = tmp_path / "dup.csv"
    dup_csv.write_text("".join(f"{line},{line.split(',')[0]}\n" for line in lines),
                       encoding="utf-8")
    cfg_path = tmp_path / "dup.json"
    cfg_path.write_text(json.dumps(dict(config, dataset={**config["dataset"],
                                                         "csv": str(dup_csv)})),
                        encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "DuplicateColumn" in err and f"{lines[0].split(',')[0]!r}" in err
    assert not (out / "dataset_export.csv").exists()


def test_train_writes_no_export(run_inputs, tmp_path):
    _, config_path, _ = run_inputs
    out = tmp_path / "out"
    assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "scorer.txt").exists()
    assert not (out / "dataset_export.csv").exists()


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


def test_undefined_tau_is_null_in_report_json(run_inputs, tmp_path):
    # tau-b against a constant score vector is undefined: report JSON writes
    # it as null, which a strict parser reads, and the CSVs keep nan
    root, config_path, config = run_inputs
    assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "base")]) == 0
    header, *rows = (tmp_path / "base" / "scores_baseline_test.csv").read_text().splitlines()
    flat_path = tmp_path / "flat.csv"
    flat_path.write_text("\n".join([header] + [r.split(",")[0] + ",0.5" for r in rows]) + "\n",
                         encoding="utf-8")
    cfg = {**config, "methods": [{"kind": "external-scores", "name": "flat",
                                  "path": str(flat_path)}]}
    cfg_path = tmp_path / "flat.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0

    def strict(constant):
        raise ValueError(f"not JSON: {constant}")
    reports = sorted(out.glob("report_*.json"))
    assert len(reports) == 3
    for path in reports:
        report = json.loads(path.read_text(encoding="utf-8"), parse_constant=strict)
        assert report["tau_vs_baseline"]["flat"] == {
            "overall": None, "protected": None, "privileged": None}
        assert report["pairwise_tau"]["matrix"] == [[1.0, None], [None, 1.0]]
    assert _csv_rows(out / "tau_vs_baseline.csv")[1] == ["flat", "nan", "nan", "nan"]


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
                 "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o" / "scorer.txt").exists()


@pytest.mark.parametrize("fractions, methods, message", [
    ([0.8, 0.0, 0.2], [{"kind": "group-thresholds", "name": "thresholds"}],
     "error: split fractions [0.8, 0.0, 0.2] leave the validation partition of 700 rows "
     "empty, but method 'thresholds' fits on it"),
    ([0.0, 0.5, 0.5], [],
     "error: split fractions [0.0, 0.5, 0.5] leave the train partition of 700 rows "
     "empty, but the scorer fits on it"),
    ([0.8, 0.2, 0.0], [],
     "error: split fractions [0.8, 0.2, 0.0] leave the test partition of 700 rows "
     "empty, but the audit reports on it"),
], ids=["validation", "train", "test"])
def test_empty_fitted_partition_exits_1_before_training(run_inputs, tmp_path, capsys,
                                                         fractions, methods, message):
    root, config_path, config = run_inputs
    cfg = dict(config, split={"fractions": fractions, "seed": 1}, methods=methods)
    cfg_path = tmp_path / "empty.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not (out / "scorer.txt").exists()


def _cells_config(tmp_path, protected, favorable, methods):
    """A config over 400 rows of the given groups and labels, with methods."""
    from rankaudit.dataset import float_text
    from rankaudit.synthetic import exact_rate_spec

    i = np.arange(len(protected))
    csv_path = tmp_path / "cells.csv"
    write_csv(csv_path, ["x1", "x2", "group", "outcome"],
              [float_text((i % 97) / 96.0), float_text((i % 31) / 30.0),
               np.where(protected, "protected", "privileged").tolist(),
               np.where(favorable, "favorable", "unfavorable").tolist()])
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(exact_rate_spec("cells", None).to_dict()),
                         encoding="utf-8")
    cfg_path = tmp_path / "cells.json"
    cfg_path.write_text(json.dumps({"dataset": {"csv": str(csv_path), "spec": str(spec_path)},
                                    "methods": methods}), encoding="utf-8")
    return cfg_path


@pytest.mark.parametrize("protected, favorable, missing", [
    (lambda i: i < 0, lambda i: i % 3 == 0,
     "group = 'protected' and outcome = 'favorable'"),
    (lambda i: i % 2 == 0, lambda i: (i % 2 == 1) & (i % 3 == 0),
     "group = 'protected' and outcome = 'favorable'"),
    (lambda i: i % 2 == 0, lambda i: i < 0,
     "group = 'protected' and outcome = 'favorable'"),
    (lambda i: i >= 0, lambda i: i % 3 == 0,
     "group != 'protected' and outcome = 'favorable'"),
], ids=["one-group", "group-without-favorable", "one-class", "no-privileged"])
def test_empty_test_cell_exits_1_before_training(tmp_path, capsys, caplog,
                                                 protected, favorable, missing):
    i = np.arange(400)
    cfg_path = _cells_config(tmp_path, protected(i), favorable(i), [])
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: the test partition has no row with {missing}, but the audit reports "
        "per-group AUC and EOD on it\n")
    assert not (out / "scorer.txt").exists()
    assert not any("did not converge" in m for m in caplog.messages)


@pytest.mark.parametrize("kind, emptied, message", [
    ("equalized-odds", "privileged-favorable",
     "group != 'protected' and outcome = 'favorable', but method 'equalized-odds' fits on it"),
    ("group-thresholds", "privileged",
     "group != 'protected', but method 'group-thresholds' fits on it"),
    ("group-thresholds", "privileged-favorable", None),
    ("reject-option", "privileged-favorable", None),
], ids=["odds-label-cell", "thresholds-group", "thresholds-label-cell", "reject-label-cell"])
def test_validation_cells_a_postprocessor_needs_exit_1_before_training(
        tmp_path, capsys, kind, emptied, message):
    # every postprocessor fits on both groups of the validation partition, and
    # equalized-odds on both labels in each; the others run without a label cell
    from rankaudit.dataset import split

    from conftest import make_dataset

    i = np.arange(400)
    protected, favorable = i % 2 == 0, i % 3 == 0
    validation = np.zeros(400, dtype=bool)  # the rows the config's split validates on
    validation[split(make_dataset(protected, favorable), (0.6, 0.2, 0.2), 7).validation_ids] = True
    if emptied == "privileged":
        protected = protected | validation
    else:
        favorable = favorable & ~(validation & ~protected)
    cfg_path = _cells_config(tmp_path, protected, favorable, [{"kind": kind}])
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == (1 if message else 0)
    err = capsys.readouterr().err
    if message:
        assert err == f"error: the validation partition has no row with {message}\n"
        assert not (out / "scorer.txt").exists()
    else:
        assert (out / "report_native.json").exists()


def test_empty_validation_partition_runs_without_postprocessors(run_inputs, tmp_path):
    root, config_path, config = run_inputs
    cfg = dict(config, split={"fractions": [0.8, 0.0, 0.2], "seed": 1},
               methods=[{"kind": "feature-repair", "name": "repair"}])
    cfg_path = tmp_path / "noval.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0


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


def test_a_config_that_is_not_a_json_object_exits_1(tmp_path, capsys):
    listed = tmp_path / "list.json"
    listed.write_text('[{"dataset": {}}]', encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(listed), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: config must be a JSON object\n"
    assert not out.exists()


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
    lambda cfg: cfg["methods"][0].update(name="instance_id"),
    lambda cfg: cfg["methods"][0].update(name="group"),
    lambda cfg: cfg["methods"][0].update(name=3),
    lambda cfg: cfg["methods"].extend([{"kind": "reject-option"}] * 2),
    lambda cfg: cfg["scorer"].update(l2_penalty=-1),
    lambda cfg: cfg["scorer"].update(epochs=0),
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
        "name-baseline", "name-instance_id", "name-group", "name-3", "same-kind-twice-unnamed",
        "l2_penalty--1", "epochs-0", "fractions-two",
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


@pytest.mark.parametrize("key, value", [
    ("learning_rate", 0.1), ("learning_rate", -1), ("seed", 42), ("seed", 2**53 + 1),
    ("model_kind", "logistic"), ("model_kind", "one-hidden-layer"),
])
def test_removed_scorer_keys_exit_1_before_ingest(run_inputs, tmp_path, capsys, key, value):
    # the scorer has no seed, learning rate or model kind: each is an unknown key,
    # its old default too
    root, config_path, config = run_inputs
    cfg = dict(config, scorer=dict(config["scorer"], **{key: value}))
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: unknown key(s) in scorer: {key}\n")
    assert not (out / "scorer.txt").exists()
    assert not (out / "dataset_summary.json").exists()


@pytest.mark.parametrize("command", ["ingest", "train", "mitigate", "decide", "audit"])
@pytest.mark.parametrize("key, value", [
    ("learning_rate", 0.1), ("seed", 42), ("model_kind", "logistic"),
])
def test_every_pipeline_command_refuses_a_removed_scorer_key(run_inputs, tmp_path, capsys,
                                                            command, key, value):
    # the config is checked before the output directory is made
    root, config_path, config = run_inputs
    cfg = dict(config, scorer=dict(config["scorer"], **{key: value}))
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: unknown key(s) in scorer: {key}\n")
    assert not out.exists()


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


@pytest.mark.parametrize("rate", ["0.5", True, float("nan"), 2.0, -1],
                         ids=["str", "true", "nan", "2.0", "-1"])
def test_bad_expected_base_rate_exits_1_before_ingest(run_inputs, tmp_path, capsys, rate):
    root, config_path, config = run_inputs
    spec = json.loads(Path(config["dataset"]["spec"]).read_text(encoding="utf-8"))
    spec["expected_base_rate"] = rate
    cfg = dict(config, dataset=dict(config["dataset"], spec=spec))
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")  # nan is written as NaN
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "expected_base_rate must be null or a number in [0, 1]" in capsys.readouterr().err
    assert not (out / "dataset_summary.json").exists()


def test_builtin_spec_name_resolves_to_its_spec():
    assert rankaudit.cli._resolve_spec("adult") == builtin_specs()["adult"]


def test_unknown_spec_name_exits_1_before_ingest(run_inputs, tmp_path, capsys):
    root, config_path, config = run_inputs
    cfg = dict(config, dataset=dict(config["dataset"], spec="no-such-spec"))
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "unknown dataset spec 'no-such-spec'" in capsys.readouterr().err
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


def test_scorer_schema_defaults_are_scorer_config_defaults():
    defaults = {key: default for key, (_, default) in SCHEMA["scorer"].items()}
    assert defaults == asdict(ScorerConfig())


def test_spelled_out_defaults_keep_config_hash(run_inputs, tmp_path):
    root, config_path, config = run_inputs
    terse = {"dataset": config["dataset"], "scorer": {"epochs": 120},
             "methods": [{"kind": "reject-option"}]}
    full = dict(terse, split={"fractions": [0.6, 0.2, 0.2], "seed": 7},
                scorer={"epochs": 120, "l2_penalty": 1e-4, "include_sensitive": False},
                methods=[{"kind": "reject-option", "name": "reject-option", "epsilon": 0.02}],
                tau_variant="tau-b",
                policies=[{"kind": "fixed-threshold", "threshold": 0.5},
                          {"kind": "per-group-rates", "rate": "baseline-pdr"},
                          {"kind": "per-group-rates", "rate": "base-rate"}])
    assert _hash_of(terse, tmp_path / "terse") == _hash_of(full, tmp_path / "full")


def test_loaded_config_holds_dataset_and_method_defaults(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("", encoding="utf-8")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset": {"csv": str(csv_path)},
                                    "methods": [{"kind": "equalized-odds"}]}), encoding="utf-8")
    cfg, spec = rankaudit.cli._load_config(str(cfg_path))
    assert cfg["dataset"] == {"csv": str(csv_path), "spec": "adult"}
    assert spec.name == "adult"
    assert cfg["methods"] == [{"kind": "equalized-odds", "name": "equalized-odds", "seed": 11}]


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


def test_readme_library_surface_imports():
    """README's "Library surface" import block runs against the package."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library surface", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    assert block.startswith("from rankaudit import (")
    exec(compile(block, "README.md", "exec"), {})


def test_methods_with_one_file_name_rejected_before_ingest(run_inputs, tmp_path, capsys):
    root, config_path, config = run_inputs
    cfg = dict(config, methods=[{"kind": "group-thresholds", "name": "x y"},
                                {"kind": "reject-option", "name": "x-y"}])
    cfg_path = tmp_path / "clash.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: methods 'x y' and 'x-y' both map to file name 'x-y'")
    assert not (out / "dataset_summary.json").exists()


@pytest.mark.parametrize("command", ["decide", "run"])
def test_policies_with_one_file_name_exit_1(run_inputs, tmp_path, capsys, command):
    root, config_path, config = run_inputs
    cfg = dict(config, methods=[],
               policies=[{"kind": "fixed-threshold", "threshold": 0.5}] * 2)
    cfg_path = tmp_path / "clash.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: policies 'fixed-threshold-0.5' and 'fixed-threshold-0.5' both map to "
        "file name 'fixed-threshold-0.5'")
    assert not list(out.glob("report_*.json"))
    assert not list(out.glob("decisions_*.csv"))


@pytest.mark.parametrize("policies, message", [
    ([{"kind": "fixed-threshold", "threshold": 0.5}] * 2,
     "error: policies 'fixed-threshold-0.5' and 'fixed-threshold-0.5' both map to "
     "file name 'fixed-threshold-0.5'"),
    ([{"kind": "per-group-rates", "rate": "baseline-pdr"}] * 2,
     "error: two per-group-rates policies with rate 'baseline-pdr' map to one file name"),
], ids=["fixed-threshold", "baseline-pdr"])
def test_policy_clashes_the_config_decides_exit_1_before_ingest(run_inputs, tmp_path, capsys,
                                                              policies, message):
    root, config_path, config = run_inputs
    cfg_path = tmp_path / "clash.json"
    cfg_path.write_text(json.dumps(dict(config, policies=policies)), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not (out / "dataset_summary.json").exists()
    assert not (out / "scorer.txt").exists()


def test_rate_reference_labels_end_in_the_reference(run_inputs, tmp_path):
    # the baseline's rate at 0.5 on the fixture's test split is 63/140
    root, config_path, config = run_inputs
    cfg = dict(config, methods=[], policies=[{"kind": "global-top-rate", "rate": 0.45},
                                             {"kind": "global-top-rate", "rate": "baseline-pdr"}])
    cfg_path = tmp_path / "refs.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    numeric = json.loads((out / "report_global-top-rate-0.45.json").read_text())
    ref = json.loads((out / "report_global-top-rate-0.45-baseline-pdr.json").read_text())
    assert "note" not in numeric["policy"]
    assert ref["policy"]["note"] == "baseline-pdr"
    assert ref["policy"]["rate"] == 63 / 140


def test_provenance_lists_defaulted_method_seeds(run_inputs, tmp_path):
    root, config_path, config = run_inputs
    cfg = dict(config, methods=[{"kind": "equalized-odds", "name": "odds-mixing"}])
    cfg_path = tmp_path / "seedless.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert "seed 11" in (out / "fitted_odds-mixing.txt").read_text()
    docs = [json.loads(p.read_text())
            for p in [out / "provenance.json", *out.glob("report_*.json")]]
    assert len(docs) == 1 + 1 + len(config["policies"])
    for doc in docs:
        assert doc.get("provenance", doc)["method_seeds"] == {"odds-mixing": 11}


def test_decide_command_matches_run_decisions(run_inputs, tmp_path):
    root, config_path, _ = run_inputs
    run_out = tmp_path / "run"
    decide_out = tmp_path / "decide"
    assert main(["run", "--config", str(config_path), "--out", str(run_out)]) == 0
    assert main(["decide", "--config", str(config_path), "--out", str(decide_out)]) == 0
    expected = {p.name for p in run_out.glob("decisions_*.csv")} - {"decisions_native.csv"}
    written = {p.name for p in decide_out.glob("decisions_*.csv")}
    assert written == expected
    assert len(written) == 2  # one table per policy
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
    original = rankaudit.cli.decide

    def counted(scores, d, policy):
        calls.append((scores.method, policy.label()))
        return original(scores, d, policy)
    monkeypatch.setattr(rankaudit.cli, "decide", counted)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    # the baseline at 0.5: once on test (shared by the baseline-pdr rate and
    # the native report), once under the configured fixed-threshold-0.5
    # policy; equalized odds reads the scores, not a decision
    assert calls.count(("baseline", "fixed-threshold-0.5")) == 2
    # 1 in mitigate, 1 native (repair), 2 policies x 2 score arrays (the
    # three postprocessors share the baseline's)
    assert len(calls) == 6


def test_mitigate_calls_each_postprocessor_by_its_module_name(run_inputs, tmp_path,
                                                              monkeypatch):
    # a wrapper put on a module attribute after import (as a tracer does)
    # must be the function that runs
    root, config_path, _ = run_inputs
    calls = {}
    for name in ("fit_threshold_optimizer", "apply_group_thresholds",
                 "reject_option_classify", "apply_reject_option",
                 "fit_equalized_odds_post", "apply_mixing"):
        original = getattr(rankaudit.cli, name)

        def counted(*args, name=name, original=original):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)
        monkeypatch.setattr(rankaudit.cli, name, counted)
    assert main(["mitigate", "--config", str(config_path),
                 "--out", str(tmp_path / "out")]) == 0
    assert calls == {"fit_threshold_optimizer": 1, "apply_group_thresholds": 1,
                     "reject_option_classify": 1, "apply_reject_option": 1,
                     "fit_equalized_odds_post": 1, "apply_mixing": 1}


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
    # two score files, one per score array (the baseline's, shared by the
    # postprocessors, and the repair's), and one group column per decisions
    # table, of which there are three
    assert len(converted["float_text"]) == len(set(converted["float_text"])) == 2
    assert len(converted["group_names"]) == 3


def test_every_run_csv_is_csv_writer_bytes_with_a_quoted_method_name(run_inputs, tmp_path):
    """A run whose method name needs quotes writes every CSV, the decisions
    tables that the name heads a column of among them, as csv.writer writes
    its cells."""
    _, _, config = run_inputs
    name = 'repair, "v2"'
    cfg = {**config, "methods": [{**config["methods"][0], "name": name},
                                 *config["methods"][1:]]}
    cfg_path = tmp_path / "quoted.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    files = sorted(out.glob("*.csv"))
    assert len(files) == 8 and out / "scores_repair---v2-_test.csv" in files
    for path in files:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        with open(tmp_path / "want.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert path.read_bytes() == (tmp_path / "want.csv").read_bytes(), path.name
    for path in out.glob("decisions_*.csv"):
        with open(path, encoding="utf-8", newline="") as fh:
            assert next(csv.reader(fh))[3] == name
        assert b',"repair, ""v2""",' in path.read_bytes()


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "table.csv"
    path.write_bytes(b"old,contents\r\n")

    def column():
        yield "1"
        raise RuntimeError("disk gone")

    with pytest.raises(RuntimeError):
        write_csv(path, ["a", "b"], [column(), ["2"]])
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


@pytest.mark.parametrize("argv, message", [
    (["example", "--grid-size", "1"], "--grid-size must be an integer >= 2, got 1"),
    (["decompose", "--tau", "1.5"], "--tau must be a number in (0, 1), got 1.5"),
    (["decompose", "--tau", "0.5", "--tau", "0"], "--tau must be a number in (0, 1), got 0.0"),
    (["monotonicity", "--tolerance", "nan"],
     "--tolerance must be a finite number >= 0, got nan"),
    (["monotonicity", "--tolerance", "-0.01"],
     "--tolerance must be a finite number >= 0, got -0.01"),
    (["pareto", "--cut", "inf"], "--cut must be a finite number, got inf"),
], ids=["grid-size-1", "tau-1.5", "tau-0", "tolerance-nan", "tolerance-negative", "cut-inf"])
def test_theory_bad_arguments_exit_1(tmp_path, capsys, argv, message):
    out = tmp_path / "theory"
    assert main(["theory", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()  # nothing built, nothing written


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


def test_compare_creates_the_out_directory(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _fake_report(a, "fixed-threshold-0.5", {"baseline": 0.30})
    _fake_report(b, "fixed-threshold-0.5", {"baseline": 0.30})
    out = tmp_path / "nodir" / "deeper" / "c.csv"
    assert main(["compare", str(a), str(b), "--out", str(out)]) == 0
    assert out.read_text().startswith("report,method,")
    assert sorted(p.name for p in out.parent.iterdir()) == ["c.csv"]  # no .tmp left


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


def test_compare_of_one_report_exits_1(tmp_path, capsys):
    a = tmp_path / "a.json"
    _fake_report(a, "fixed-threshold-0.5", {"m": 0.3})
    out = tmp_path / "c.csv"
    assert main(["compare", str(a), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: compare needs at least two report files\n"
    assert not out.exists()


@pytest.mark.parametrize("content", [
    '{"x":',
    '[]',
    '{"policy_label": "a"}',
    '{"rows": {"m": {"auc": 0.8}}}',
    '{"policy_label": "a", "rows": []}',
    '{"policy_label": "a", "rows": {}}',
    '{"policy_label": "a", "rows": {"m": 0.3}}',
    '{"policy_label": "a", "rows": {"m": {"auc": 0.8}}}',
    '{"policy_label": "a", "rows": {"m": {"auc": 0.8, "auc_protected": 0.8, '
    '"auc_privileged": 0.8, "acc": 0.7, "spd": 0, "eod": 0, "pdr": "0.3"}}}',
    '{"policy_label": "a", "rows": {"m": {"auc": 0.8, "auc_protected": 0.8, '
    '"auc_privileged": 0.8, "acc": 0.7, "spd": 0, "eod": 0, "pdr": true}}}',
    '{"policy_label": "a", "rows": {"m": {"auc": 0.8, "auc_protected": 0.8, '
    '"auc_privileged": 0.8, "acc": 0.7, "spd": 0, "eod": 0, "pdr": NaN}}}',
    '{"policy_label": "a", "rows": {"m": {"auc": Infinity, "auc_protected": 0.8, '
    '"auc_privileged": 0.8, "acc": 0.7, "spd": 0, "eod": 0, "pdr": 0.3}}}',
    '{"policy_label": "a", "rows": {"m": {"auc": 0.8, "auc_protected": 0.8, '
    '"auc_privileged": 0.8, "acc": 0.7, "spd": -Infinity, "eod": 0, "pdr": 0.3}}}',
    *(f'{{"policy_label": {label}, "rows": {{"m": {{"auc": 0.8, "auc_protected": 0.8, '
      '"auc_privileged": 0.8, "acc": 0.7, "spd": 0, "eod": 0, "pdr": 0.3}}}}'
      for label in ('["a"]', '{"k": 1}', "3", "null")),
], ids=["not-json", "list", "no-rows", "no-policy-label", "rows-list", "rows-empty",
        "row-not-object", "row-missing-keys", "pdr-string", "pdr-true", "pdr-nan",
        "auc-infinity", "spd-minus-infinity", "label-list", "label-object", "label-number",
        "label-null"])
def test_compare_malformed_report_exit_1(tmp_path, capsys, content):
    good = tmp_path / "good.json"
    _fake_report(good, "a", {"m": 0.3})
    bad = tmp_path / "bad.json"
    bad.write_text(content, encoding="utf-8")
    out = tmp_path / "c.csv"
    assert main(["compare", str(good), str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert not out.exists()
