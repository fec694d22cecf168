"""Golden outputs: the quick-start run, ingest and theory files hash as recorded.

Under the Python, numpy and CPU that tests/golden/manifest.json was recorded
with, every output file must hash as recorded.  Elsewhere floating-point
sums may differ in the last bit, so the test then checks the file list
exactly and every number in the output JSONs to 1e-9 relative, and warns
that it ran this weaker check.  tests/golden/record.py rewrites the manifest.
"""

import json
import math
import re
import warnings
from pathlib import Path

import pytest

from golden import record

README = Path(__file__).resolve().parent.parent / "README.md"
REL_TOL = 1e-9
ABS_TOL = 1e-12  # for numbers that are zero in one environment


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """The golden run's file digests and parsed output JSONs, by relative path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("golden"))
        record.produce()
        files = record.outputs()
        yield record.digests(files), record.documents(files)


@pytest.fixture(scope="module")
def manifest():
    return json.loads(record.MANIFEST.read_text("utf-8"))


def _number_diffs(want, got, where: str = "") -> list[str]:
    """Where got differs from want: numbers beyond REL_TOL, anything else
    that is not equal."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(want) != set(got):
            return [f"{where}: keys {sorted(want)} != {sorted(got)}"]
        return [d for k in sorted(want) for d in _number_diffs(want[k], got[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: length {len(want)} != {len(got)}"]
        return [d for i, (a, b) in enumerate(zip(want, got))
                for d in _number_diffs(a, b, f"{where}[{i}]")]
    if all(type(v) in (int, float) for v in (want, got)):
        same = math.isclose(want, got, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    else:
        same = want == got
    return [] if same else [f"{where}: {want!r} != {got!r}"]


def test_outputs_match_golden_manifest(golden, manifest):
    digests, docs = golden
    recorded = manifest["files"]
    problems = ([f"added: {name}" for name in sorted(set(digests) - set(recorded))]
                + [f"removed: {name}" for name in sorted(set(recorded) - set(digests))])
    if manifest["environment"] == record.environment():
        problems += [f"changed: {name}" for name in sorted(digests)
                     if recorded.get(name, digests[name]) != digests[name]]
    else:
        warnings.warn(f"environment {record.environment()} differs from the recorded "
                      f"{manifest['environment']}: checked the file list and the output "
                      f"JSON numbers to {REL_TOL:g} relative, not the file hashes")
        problems += [d for name in sorted(set(docs) & set(manifest["json"]))
                     for d in _number_diffs(manifest["json"][name], docs[name], name)]
    assert not problems, "golden outputs differ:\n" + "\n".join(problems)


def test_weaker_check_flags_only_numbers_beyond_tolerance(golden, manifest):
    _, docs = golden
    report = json.loads(json.dumps(docs["run/report_native.json"]))
    assert _number_diffs(manifest["json"]["run/report_native.json"], report) == []
    auc = report["rows"]["baseline"]["auc"]
    report["rows"]["baseline"]["auc"] = auc * (1 + 1e-12)
    assert _number_diffs(docs["run/report_native.json"], report) == []
    report["rows"]["baseline"]["auc"] = auc * (1 + 1e-6)
    assert _number_diffs(docs["run/report_native.json"], report) == [
        f".rows.baseline.auc: {auc!r} != {auc * (1 + 1e-6)!r}"]
    report["rows"]["baseline"]["auc"] = auc
    report["policy_label"] = "other"
    assert _number_diffs(docs["run/report_native.json"], report) == [
        ".policy_label: 'native' != 'other'"]


def test_readme_numbers_follow_the_run(golden):
    """README's "Typical native-context numbers" read as the golden run's
    report_native.json rounded to the printed digits."""
    _, docs = golden
    rows = docs["run/report_native.json"]["rows"]
    taus = docs["run/report_native.json"]["tau_vs_baseline"]
    text = " ".join(README.read_text("utf-8").split())
    para = re.search(r"Typical native-context numbers.*?which is the point\.", text).group()
    baseline = re.search(r"baseline scores AUC (\S+) with SPD (\S+) at", para)
    repair = re.search(r"reranks \(tau (\S+), AUC ([^)]+)\)", para)
    printed = [(baseline.group(1), rows["baseline"]["auc"]),
               (baseline.group(2), rows["baseline"]["spd"]),
               (repair.group(1), taus["repair"]["overall"]),
               (repair.group(2), rows["repair"]["auc"])]
    for shown, value in printed:
        digits = len(shown.split(".")[1])
        assert f"{value:.{digits}f}" == shown, (shown, value)
