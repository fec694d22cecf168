"""Metamorphic gates over whole runs of the README quick start.

Two runs that differ by a symmetry the metrics promise must give reports
that differ only as that symmetry says: swapping which group the spec
calls protected mirrors every report, and a strictly increasing transform
of a method's scores leaves every number that depends only on their order.
"""

import json

import pytest

from rankaudit.cli import main
from rankaudit.synthetic import write_biased_benchmark_csv

QUICK_START_METHODS = [
    {"kind": "feature-repair", "name": "repair", "repair_level": 1.0},
    {"kind": "group-thresholds", "name": "thresholds"},
    {"kind": "reject-option", "name": "band-flip", "epsilon": 0.02},
    {"kind": "equalized-odds", "name": "odds-mixing", "seed": 11},
]
OTHER_GROUP = {"protected": "privileged", "privileged": "protected"}


def _run(root, name, spec=None, methods=()):
    """Run the quick-start config, with another spec or extra methods, into root/name."""
    config = {"dataset": {"csv": str(root / "bench.csv"), "spec": spec or str(root / "spec.json")},
              "split": {"fractions": [0.6, 0.2, 0.2], "seed": 7},
              "methods": QUICK_START_METHODS + list(methods)}
    (root / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(root / f"{name}.json"), "--out", str(root / name)]) == 0
    return root / name


def _reports(out) -> dict:
    """Every report of a run by file name, without its provenance."""
    reports = {}
    for path in sorted(out.glob("report_*.json")):
        doc = json.loads(path.read_text("utf-8"))
        del doc["provenance"]
        reports[path.name] = doc
    assert len(reports) == 4  # native plus the three default policies
    return reports


def _labels(path, method) -> list[tuple[str, str]]:
    """(instance_id, method's label) of each row of a decisions table."""
    head, *rows = [line.split(",") for line in path.read_text("utf-8").splitlines()]
    i, label = head.index("instance_id"), head.index(method)
    return [(row[i], row[label]) for row in rows]


@pytest.fixture(scope="module")
def quick_start(tmp_path_factory):
    """The quick start's inputs and its run's output directory."""
    root = tmp_path_factory.mktemp("quick-start")
    spec = write_biased_benchmark_csv(str(root / "bench.csv"), n=2400, seed=2024)
    (root / "spec.json").write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    return root, _run(root, "out")


def _mirrored(report: dict) -> dict:
    """The report with the groups' roles swapped: signed gaps change sign
    and per-group numbers change groups; the rest, overall tau included,
    stays."""
    rows = {m: {**row, "spd": -row["spd"], "eod": -row["eod"],
                "auc_protected": row["auc_privileged"],
                "auc_privileged": row["auc_protected"]}
            for m, row in report["rows"].items()}
    quadrants, tau = ({m: {OTHER_GROUP.get(g, g): v for g, v in by_group.items()}
                       for m, by_group in report[key].items()}
                      for key in ("quadrants", "tau_vs_baseline"))
    return {**report, "rows": rows, "quadrants": quadrants, "tau_vs_baseline": tau}


def test_group_swap_mirrors_every_report(quick_start):
    root, out = quick_start
    spec = {**json.loads((root / "spec.json").read_text("utf-8")),
            "protected_value": "privileged"}
    swapped = _run(root, "swapped", spec=spec)
    want = {name: _mirrored(doc) for name, doc in _reports(out).items()}
    got = _reports(swapped)

    # the one exception: reject option flips labels only toward the
    # protected group, which the swapped spec makes the advantaged one, so
    # the fit keeps theta 0 and band-flip decides as the baseline does at 0.5
    assert (swapped / "fitted_band-flip.txt").read_text("utf-8") == "theta 0\n"
    assert (_labels(swapped / "decisions_native.csv", "band-flip")
            == _labels(swapped / "decisions_fixed-threshold-0.5.csv", "baseline"))
    native = got["report_native.json"]
    assert native["rows"]["band-flip"] == native["rows"]["baseline"]
    assert all(c["upgraded"] == c["downgraded"] == 0
               for c in native["quadrants"]["band-flip"].values())
    for doc in (native, want["report_native.json"]):
        del doc["rows"]["band-flip"], doc["quadrants"]["band-flip"]

    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == want[name], name


def test_a_monotone_transform_keeps_every_order_metric(quick_start):
    root, out = quick_start
    plain = out / "scores_baseline_test.csv"
    head, *rows = plain.read_text("utf-8").splitlines()
    squared = root / "squared.csv"
    squared.write_text("\n".join([head] + [f"{i},{float(s) ** 2!r}" for i, s in
                                           (row.split(",") for row in rows)]) + "\n",
                       encoding="utf-8")
    before, after = (_reports(_run(root, name, methods=[
        {"kind": "external-scores", "name": "external", "path": str(path)}]))
        for name, path in (("plain", plain), ("squared", squared)))

    for name in before:
        for key in ("auc", "auc_protected", "auc_privileged"):
            assert after[name]["rows"]["external"][key] == before[name]["rows"]["external"][key]
        assert after[name]["tau_vs_baseline"] == before[name]["tau_vs_baseline"]
        assert after[name]["pairwise_tau"] == before[name]["pairwise_tau"]
    rate_reports = [name for name in before if name.startswith("report_per-group-rates")]
    assert len(rate_reports) == 2
    for name in rate_reports:
        assert after[name]["rows"] == before[name]["rows"], name
    # a fixed threshold reads the values, not only their order
    fixed = "report_fixed-threshold-0.5.json"
    assert after[fixed]["rows"]["external"]["pdr"] < before[fixed]["rows"]["external"]["pdr"]
