#!/usr/bin/env python3
"""Fast self-test of the benchmark harness on small inputs (about a minute).

    python3 perfbench/selftest.py

It shrinks every workload (the n = 2,400 quick-start config, a 2,400-row
ingest, 1,001-point worlds) and checks that:

* ``BENCHMARK.json`` lists the harness's workloads and metrics with their units;
* the harness's CSV writer gives the same bytes as the program's own;
* every end-to-end metric, and with tracing every per-layer metric, is
  printed by name with its unit, and the result line has exactly its four keys;
* traced call counts repeat exactly, and a changed count is a failure;
* a corrupted expected value makes every operation count as failed;
* without ``src/`` the benchmark exits non-zero and prints no result.

Exits 0 when every check passes; prints each failed check otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def measure(launcher, wl, trace: bool, seed: int = 5):
    """One zero-second run (one operation, or one pair when traced)."""
    res = run.measure(launcher, wl, seed, 0.0, trace)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        line = run.report(res)
    return res, line, buf.getvalue()


def printed_units(table: str) -> dict[str, str]:
    units = {}
    for row in table.splitlines():
        parts = row.split()
        if row.startswith("  ") and len(parts) >= 3:
            try:
                float(parts[1])
            except ValueError:
                continue
            units[parts[0]] = parts[2]
    return units


def check_benchmark_json() -> None:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    expect([w["name"] for w in doc["workloads"]] == list(run.make_workloads()),
           "BENCHMARK.json names the harness's workloads")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        expect({m["name"]: m["unit"] for m in doc[key]} == table,
               f"BENCHMARK.json {key} metrics and units match the harness")


def check_writer() -> None:
    from rankaudit.synthetic import write_biased_benchmark_csv

    scratch = run.WORK / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    ours, theirs = scratch / "ours.csv", scratch / "theirs.csv"
    run.write_benchmark_csv(ours, 2400, 5)
    write_biased_benchmark_csv(theirs, n=2400, seed=5)
    expect(ours.read_bytes() == theirs.read_bytes(),
           "harness CSV writer matches synthetic.write_biased_benchmark_csv")


def check_metrics(launcher, workloads) -> None:
    want = {**run.END_TO_END, "failed_frac": run.FAILED_FRAC_UNIT}
    for name, wl in workloads.items():
        res, line, table = measure(launcher, wl, trace=False)
        units = printed_units(table)
        expect(all(units.get(k) == u for k, u in want.items()),
               f"{name}: every end-to-end metric printed with its unit")
        expect(set(line) == {"correct", "attempted", "failed", "metrics"}
               and set(line["metrics"]) == set(run.END_TO_END),
               f"{name}: result line keys")
        expect(line["correct"] and line["failed"] == 0 and res["problems"] == [],
               f"{name}: outputs pass their checks {res['problems']}")

        res, line, table = measure(launcher, wl, trace=True)
        units = printed_units(table)
        expect(all(units.get(k) == u for k, u in run.PER_LAYER.items()),
               f"{name}: every per-layer metric printed with its unit")
        expect(set(line["metrics"]) == set(run.PER_LAYER) and line["correct"],
               f"{name}: traced result line carries every per-layer metric "
               f"{res['problems']}")


def check_exact_counts(launcher, workloads) -> None:
    wl = workloads["pipeline-100k"]
    _, first, _ = measure(launcher, wl, trace=True, seed=6)
    _, again, _ = measure(launcher, wl, trace=True, seed=7)
    counts = {k: first["metrics"][k]["value"] for k in run.EXACT_COUNTS}
    expect(counts == {k: again["metrics"][k]["value"] for k in run.EXACT_COUNTS}
           and again["correct"], "call counts repeat across seeds")
    for path in (run.WORK / "counts").glob(f"{wl.name}-{wl.size}-*.json"):
        doc = json.loads(path.read_text("utf-8"))
        doc["counts"]["audit.kendall_tau_calls"] += 1
        path.write_text(json.dumps(doc), encoding="utf-8")
    _, changed, _ = measure(launcher, wl, trace=True)
    expect(not changed["correct"] and changed["failed"] == 1,
           "a changed call count fails the traced operation")


def corrupt_pipeline(wl):
    wl.labels = ~wl.labels


def corrupt_ingest(wl):
    wl.input_sha = "0" * 64


def corrupt_theory(wl):
    holds, violations = wl.expected["anti-monotone"]
    wl.expected["anti-monotone"] = (holds, violations + 1)


def check_corruption(launcher, workloads) -> None:
    corrupt = {"pipeline-100k": corrupt_pipeline, "ingest-1m": corrupt_ingest,
               "theory-1m": corrupt_theory}
    for name, wl in workloads.items():
        prepare = wl.prepare

        def corrupted(seed, wl=wl, prepare=prepare, spoil=corrupt[name]):
            inputs = prepare(seed)
            spoil(wl)
            return inputs

        wl.prepare = corrupted
        res, line, table = measure(launcher, wl, trace=False)
        wl.prepare = prepare
        expect(not line["correct"] and line["failed"] == line["attempted"] >= 1
               and "FAILED:" in table,
               f"{name}: a corrupted expected value fails the operation")


def check_bare_directory() -> None:
    bare = run.WORK / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "ingest-1m",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without src/ the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    workloads = run.make_workloads(small=True)
    for wl in workloads.values():  # forget earlier self-test counts only
        for path in (run.WORK / "counts").glob(f"{wl.name}-{wl.size}-*.json"):
            path.unlink()
    check_benchmark_json()
    check_writer()
    with run.Launcher() as launcher:
        check_metrics(launcher, workloads)
        check_exact_counts(launcher, workloads)
        check_corruption(launcher, workloads)
    check_bare_directory()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
