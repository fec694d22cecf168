#!/usr/bin/env python3
"""rankaudit benchmark: end-to-end metrics of the CLI, per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or ``all``.  Run from anywhere; the
program is taken from ``src/`` beside this directory, and everything the
benchmark writes goes to ``.perfbench/`` there.

Each run generates its inputs from ``--seed`` at fixed relative paths,
then repeats the workload's operation (one or more ``rankaudit`` commands,
each in a fresh child process) until another one would overrun
``--seconds``.  Every operation's outputs are checked; an operation that
exits non-zero or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: wall time of one operation (median, tail percentile when at
  least 20 operations ran);
* ``cpu_s``: user plus system CPU of its child processes, from ``os.wait4``;
* ``peak_rss_mb``: the largest max RSS among its child processes;
* ``setup_s``: wall time of a fresh interpreter importing ``rankaudit.cli``
  (median of three before each operation and three after the last);
* ``failed_frac``: failed operations over attempted ones.  It is printed in
  the table and carried by ``failed`` and ``attempted`` in the result line.

``--trace 1`` alternates an untraced operation with one run under
``perfbench/tracer.py`` and reports the per-layer metrics of the traced one
plus ``trace.overhead_frac`` (traced over untraced wall time, minus 1).
The call counts it reports must repeat exactly for one version of the
program; a mismatch with an earlier traced run of the same ``src/`` tree
counts as a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The same result,
with the environment and the sha256 of every input, is kept under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads() -> int:
    """BLAS threads for the measured children: the inherited setting, <= nproc."""
    inherited = [int(v) for v in map(os.environ.get, BLAS_VARS)
                 if v and v.isdigit() and int(v) > 0]
    return min([len(os.sched_getaffinity(0))] + inherited)


BLAS_THREADS = _blas_threads()

sys.path.insert(0, str(SRC))

import tracer  # noqa: E402  (perfbench/tracer.py; needs the sys.path above)

SETUP_BATCH = 3
TAIL_BEYOND = 10

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
FAILED_FRAC_UNIT = "ratio"

# per-layer metric -> unit; the order is the order of the printed table.
# Which end-to-end metric each layer should move, and where:
#   dataset.*   wall_s, peak_rss_mb on ingest-1m (most of it); a little of
#               pipeline-100k; nothing on theory-1m
#   scorer.*    wall_s, cpu_s on pipeline-100k only (about a third)
#   mitigate.*  wall_s on pipeline-100k only; the repair refit counts as scorer
#   decide.*    wall_s on pipeline-100k (export_decisions about a quarter)
#   audit.*     wall_s on pipeline-100k (about a fifth)
#   cli.*       wall_s on pipeline-100k: emit_s is the audit stage's time
#               outside build_report, decide and export_decisions
#   worlds.*    wall_s, peak_rss_mb on theory-1m only
PER_LAYER = {
    "dataset.ingest_s": "s", "dataset.rows": "count", "dataset.split_s": "s",
    "dataset.export_s": "s", "dataset.rss_growth_mb": "MB",
    "dataset.positions_of_calls": "count",
    "scorer.fit_calls": "count", "scorer.fit_s": "s", "scorer.epochs": "count",
    "scorer.epoch_ms": "ms", "scorer.score_calls": "count", "scorer.score_s": "s",
    "mitigate.repair_s": "s", "mitigate.thresholds_fit_s": "s",
    "mitigate.reject_option_fit_s": "s", "mitigate.odds_fit_s": "s",
    "mitigate.apply_s": "s",
    "decide.calls": "count", "decide.s": "s", "decide.export_calls": "count",
    "decide.export_rows": "count", "decide.export_s": "s",
    "audit.build_report_calls": "count", "audit.build_report_s": "s",
    "audit.kendall_tau_calls": "count", "audit.kendall_tau_s": "s",
    "audit.auc_calls": "count", "audit.auc_s": "s",
    "audit.quadrant_calls": "count", "audit.quadrant_s": "s",
    "cli.emit_s": "s", "cli.files_written": "count", "cli.bytes_written": "bytes",
    "worlds.build_s": "s", "worlds.monotonicity_s": "s",
    "worlds.violations": "count", "worlds.decompose_s": "s", "worlds.pareto_s": "s",
    "trace.overhead_frac": "ratio",
}

# counts that depend only on the program and the workload size, never on
# the seed: they must repeat exactly across runs of one version
EXACT_COUNTS = (
    "decide.calls", "decide.export_calls", "decide.export_rows",
    "audit.kendall_tau_calls", "audit.build_report_calls", "audit.auc_calls",
    "audit.quadrant_calls", "scorer.fit_calls", "scorer.score_calls",
    "scorer.epochs", "dataset.rows", "dataset.positions_of_calls",
    "cli.files_written", "worlds.violations",
)

QUICKSTART_METHODS = [
    {"kind": "feature-repair", "name": "repair", "repair_level": 1.0},
    {"kind": "group-thresholds", "name": "thresholds"},
    {"kind": "reject-option", "name": "band-flip", "epsilon": 0.02},
    {"kind": "equalized-odds", "name": "odds-mixing", "seed": 11},
]
POSTPROCESSORS = ("thresholds", "band-flip", "odds-mixing")


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_benchmark_csv(path: Path, n: int, seed: int):
    """``synthetic.write_biased_benchmark_csv`` with a vectorized writer.

    The bytes equal the program's own writer (the self-test checks this);
    the program's writer is too slow to run before every 1M-row run.
    """
    from rankaudit.synthetic import biased_benchmark

    d = biased_benchmark(n=n, seed=seed)
    columns = []
    for j, col in enumerate(d.schema.feature_columns):
        if col.kind == "categorical":
            table = d.categories[col.name]
            columns.append([table[int(c)] for c in d.features[:, j].tolist()])
        else:
            columns.append(list(map(repr, d.features[:, j].tolist())))
    prot, priv = d.sensitive_values
    fav, unfav = d.target_values
    columns.append([prot if s == 1 else priv for s in d.sensitive.tolist()])
    columns.append([fav if y == 1 else unfav for y in d.label.tolist()])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(d.schema.used_columns) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in zip(*columns))
    return d


def _write_config(name: str, d, methods: list) -> str:
    """Quick-start config for the CSV inputs/<name>.csv; returns its path."""
    spec = f"inputs/{name}_spec.json"
    config = f"inputs/{name}.json"
    (WORK / spec).write_text(json.dumps(d.schema.to_dict()), encoding="utf-8")
    (WORK / config).write_text(json.dumps({
        "dataset": {"csv": f"inputs/{name}.csv", "spec": spec},
        "split": {"fractions": [0.6, 0.2, 0.2], "seed": 7},
        "methods": methods,
    }), encoding="utf-8")
    return config


# --- workloads ---------------------------------------------------------------------
#
# Paths handed to the program are relative to WORK, where every child runs:
# the config hash in each report covers the dataset path, so reports only
# replay byte for byte when that path is the same in every run and checkout.

class PipelineWorkload:
    """``rankaudit run`` on the README quick-start config."""

    def __init__(self, name: str, size: int):
        self.name, self.size = name, size

    def prepare(self, seed: int) -> dict:
        csv_path = WORK / "inputs" / f"{self.name}.csv"
        d = write_benchmark_csv(csv_path, self.size, seed)
        self.labels = d.label.astype(bool)
        self.config = _write_config(self.name, d, QUICKSTART_METHODS)
        self.reports: dict[str, str] | None = None
        return {csv_path.name: sha256_of(csv_path)}

    def argvs(self, out: str) -> list[list[str]]:
        return [["run", "--config", self.config, "--out", out]]

    def check(self, out: Path) -> list[str]:
        from scipy import stats

        problems = []
        reports = {p.name: sha256_of(p) for p in sorted(out.glob("report_*.json"))}
        if len(reports) != 4:
            return [f"expected 4 report_*.json, found {sorted(reports)}"]
        if self.reports is None:
            self.reports = reports
        elif reports != self.reports:
            problems.append("report_*.json differ from the run's first operation")

        native = json.loads((out / "report_native.json").read_text("utf-8"))
        base_ids, base = _read_scores(out / "scores_baseline_test.csv")
        for method in ("baseline", "repair"):
            ids, scores = _read_scores(out / f"scores_{method}_test.csv")
            if ids != base_ids:
                problems.append(f"{method}: test ids differ from the baseline's")
                continue
            labels = self.labels[ids]
            u = stats.mannwhitneyu(scores[labels], scores[~labels]).statistic
            want = {"auc": u / (labels.sum() * (~labels).sum()),
                    "tau": stats.kendalltau(base, scores, variant="b").statistic}
            got = {"auc": native["rows"][method]["auc"],
                   "tau": native["tau_vs_baseline"][method]["overall"]}
            for key in want:
                if not abs(got[key] - want[key]) <= 1e-12:
                    problems.append(f"{method} {key} {got[key]!r} != scipy {want[key]!r}")
        for method in POSTPROCESSORS:
            tau = native["tau_vs_baseline"][method]["overall"]
            if tau != 1.0:
                problems.append(f"{method} tau {tau!r} != 1.0")
        for path in sorted(out.glob("report_per-group-rates*.json")):
            pdrs = {row["pdr"] for row in
                    json.loads(path.read_text("utf-8"))["rows"].values()}
            if len(pdrs) != 1:
                problems.append(f"{path.name}: rows differ in pdr {sorted(pdrs)}")
        return problems


def _read_scores(path: Path):
    import numpy as np

    with open(path, encoding="utf-8") as fh:
        next(fh)
        ids, scores = zip(*(line.rstrip("\r\n").split(",") for line in fh))
    return list(map(int, ids)), np.array(list(map(float, scores)))


class IngestWorkload:
    """``rankaudit ingest``: read, base-rate check, split, dataset_export.csv."""

    def __init__(self, name: str, size: int):
        self.name, self.size = name, size

    def prepare(self, seed: int) -> dict:
        csv_path = WORK / "inputs" / f"{self.name}.csv"
        d = write_benchmark_csv(csv_path, self.size, seed)
        self.config = _write_config(self.name, d, [])
        self.input_sha = sha256_of(csv_path)
        return {csv_path.name: self.input_sha}

    def argvs(self, out: str) -> list[list[str]]:
        return [["ingest", "--config", self.config, "--out", out]]

    def check(self, out: Path) -> list[str]:
        problems = []
        if sha256_of(out / "dataset_export.csv") != self.input_sha:
            problems.append("dataset_export.csv differs from the input CSV")
        summary = json.loads((out / "dataset_summary.json").read_text("utf-8"))
        if summary["rows"] != self.size or summary["dropped_rows"] != 0:
            problems.append(f"summary rows={summary['rows']} "
                            f"dropped={summary['dropped_rows']}, expected {self.size}, 0")
        return problems


class TheoryWorkload:
    """``rankaudit theory`` monotonicity, decompose and pareto on both worlds."""

    worlds = ("wage-gap", "anti-monotone")
    checks = ("monotonicity", "decompose", "pareto")

    def __init__(self, name: str, size: int):
        self.name, self.size = name, size  # size: grid points per group

    def prepare(self, seed: int) -> dict:
        # the worlds are deterministic: the seed is recorded but unused.
        # (holds, violations) per world: anti-monotone violates every pair
        # of its G = size reversed grid points
        g = self.size
        self.expected = {"wage-gap": (True, 0), "anti-monotone": (False, g * (g - 1) // 2)}
        return {}

    def argvs(self, out: str) -> list[list[str]]:
        return [["theory", check, "--world", world, "--grid-size", str(self.size),
                 "--out", out]
                for world in self.worlds for check in self.checks]

    def check(self, out: Path) -> list[str]:
        problems = []
        for world, (holds, violations) in self.expected.items():
            mono = json.loads((out / f"monotonicity_{world}.json").read_text("utf-8"))
            if (mono["holds"], mono["violation_count"]) != (holds, violations):
                problems.append(f"{world}: holds={mono['holds']} violations="
                                f"{mono['violation_count']}, expected {holds}, {violations}")
            decomp = json.loads((out / f"decomposition_{world}.json").read_text("utf-8"))
            if any(r["decomposable"] != holds for r in decomp.values()):
                problems.append(f"{world}: decomposability disagrees with monotonicity")
            pareto = json.loads((out / f"pareto_{world}.json").read_text("utf-8"))
            if set(pareto) != {"unfair", "fair"}:
                problems.append(f"{world}: pareto bases {sorted(pareto)}")
        return problems


def make_workloads(small: bool = False) -> dict:
    """The benchmark's workloads; ``small`` shrinks them for the self-test."""
    n_pipeline, n_ingest, grid = (2400, 2400, 1001) if small else \
        (100_000, 1_000_000, 1_000_000)
    return {w.name: w for w in (
        PipelineWorkload("pipeline-100k", n_pipeline),
        IngestWorkload("ingest-1m", n_ingest),
        TheoryWorkload("theory-1m", grid),
    )}


# --- measurement -----------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.update(dict.fromkeys(BLAS_VARS, str(BLAS_THREADS)))
    return env


class Launcher:
    """The small process (perfbench/launch.py) that starts every measured child."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, argvs: list[list[str]], log: Path) -> dict:
        request = {"argvs": argvs, "cwd": str(WORK), "env": _child_env(),
                   "log": str(log)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher exited early")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def time_setup(launcher: Launcher) -> float:
    log = WORK / "setup.log"
    res = launcher.run([[sys.executable, "-c", "import rankaudit.cli"]], log)
    if res["codes"] != [0]:
        raise RuntimeError(f"import rankaudit.cli failed; see {log}")
    return res["wall"]


def run_op(launcher: Launcher, wl, index: int, traced: bool) -> dict:
    """One operation: its children in sequence, then its output checks."""
    out_rel = f"out/{wl.name}/{index}"
    out = WORK / out_rel
    log = WORK / "out" / wl.name / f"{index}.log"
    argvs = wl.argvs(out_rel)
    spans = [WORK / "out" / wl.name / f"{index}.spans{k}.json" for k in range(len(argvs))]
    if traced:
        cmds = [[sys.executable, str(HERE / "tracer.py"), "--spans", str(path), "--"]
                + argv for path, argv in zip(spans, argvs)]
    else:
        cmds = [[sys.executable, "-m", "rankaudit"] + argv for argv in argvs]
    res = launcher.run(cmds, log)
    op = {"wall": res["wall"], "cpu": res["cpu"], "rss": res["rss_mb"],
          "problems": [f"`rankaudit {' '.join(argv)}` exited {code}; see {log}"
                       for argv, code in zip(argvs, res["codes"]) if code != 0]}
    if not op["problems"]:
        try:
            op["problems"] = wl.check(out)
            if traced:
                op["spans"] = [json.loads(p.read_text("utf-8")) for p in spans]
        except (OSError, KeyError, ValueError) as exc:
            op["problems"] = [f"output check raised {type(exc).__name__}: {exc}"]
    files = [p for p in out.rglob("*") if p.is_file()] if out.exists() else []
    op["files"] = len(files)
    op["bytes"] = sum(p.stat().st_size for p in files)
    shutil.rmtree(out, ignore_errors=True)
    return op


def tail(values: list[float]):
    """(p, value): highest whole percentile with >= TAIL_BEYOND samples beyond."""
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        return None
    p = math.floor(100 * (n - TAIL_BEYOND) / n)
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rankaudit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a checkout without .git
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "cpu_model": cpu or platform.processor(),
        "git_commit": commit,
        "src_sha256": src_digest(),
    }


def _check_counts(wl, seed: int, counts: dict, digest: str) -> list[str]:
    """Exact-count check against earlier traced runs of this src tree."""
    path = WORK / "counts" / f"{wl.name}-{wl.size}-{digest[:16]}.json"
    if path.exists():
        first = json.loads(path.read_text("utf-8"))
        diff = {k: (first["counts"][k], counts[k]) for k in counts
                if first["counts"].get(k) != counts[k]}
        if diff:
            return [f"call counts differ from seed {first['seed']}'s run: {diff}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"seed": seed, "counts": counts}), encoding="utf-8")
    return []


def measure(launcher: Launcher, wl, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns the result document."""
    shutil.rmtree(WORK / "out" / wl.name, ignore_errors=True)
    (WORK / "out" / wl.name).mkdir(parents=True)
    (WORK / "inputs").mkdir(exist_ok=True)
    env = environment()
    inputs = wl.prepare(seed)

    time_setup(launcher)  # warm-up: compiles bytecode, fills the file cache
    # set-up samples are spread over the run, between operations, so their
    # median sees the same machine as the operations' median does
    setup: list[float] = []
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        setup += [time_setup(launcher) for _ in range(SETUP_BATCH)]
        plain.append(run_op(launcher, wl, len(plain) + len(traced), traced=False))
        if trace:
            traced.append(run_op(launcher, wl, len(plain) + len(traced), traced=True))
        cycle = plain[-1]["wall"] + (traced[-1]["wall"] if trace else 0.0)
        if time.perf_counter() - start + cycle > seconds:
            break
    setup += [time_setup(launcher) for _ in range(SETUP_BATCH)]

    ops = plain + traced
    walls = [op["wall"] for op in plain]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(op["cpu"] for op in plain),
        "peak_rss_mb": statistics.median(op["rss"] for op in plain),
        "setup_s": statistics.median(setup),
    }
    samples = {"wall_s": len(walls), "cpu_s": len(walls),
               "peak_rss_mb": len(walls), "setup_s": len(setup)}
    layers = None
    if trace:
        per_op = []
        for op in traced:
            if op["problems"]:
                continue
            m = tracer.layer_metrics(op["spans"])
            m["cli.files_written"] = op["files"]
            m["cli.bytes_written"] = op["bytes"]
            per_op.append(m)
        if per_op:
            # times are medians; counts and bytes are exact, so the first op's
            layers = {k: per_op[0][k] if PER_LAYER[k] in ("count", "bytes")
                      else statistics.median(m[k] for m in per_op) for k in per_op[0]}
            layers["trace.overhead_frac"] = (
                statistics.median(op["wall"] for op in traced)
                / metrics["wall_s"] - 1.0)
            counts = {k: per_op[0][k] for k in EXACT_COUNTS}
            for m in per_op[1:]:
                if {k: m[k] for k in EXACT_COUNTS} != counts:
                    traced[-1]["problems"].append("call counts differ between "
                                                  "traced operations of one run")
            traced[-1]["problems"] += _check_counts(wl, seed, counts, env["src_sha256"])
    failed = sum(1 for op in ops if op["problems"])
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "inputs_sha256": inputs,
        "metrics": metrics, "samples": samples,
        "wall_samples": walls, "wall_tail": tail(walls), "layers": layers,
        "attempted": len(ops), "failed": failed,
        "problems": [p for op in ops for p in op["problems"]],
    }


def report(res: dict) -> dict:
    """Print the human-readable table; return the result line's object."""
    print(f"== {res['workload']}  seed {res['seed']}  seconds {res['seconds']}  "
          f"trace {res['trace']}")
    print("environment " + json.dumps(res["environment"], sort_keys=True))
    for name, digest in res["inputs_sha256"].items():
        print(f"input {name} sha256 {digest}")
    n = res["samples"]["wall_s"]
    notes = {
        "wall_s": f"median of n={n} operations; " + (
            f"p{res['wall_tail'][0]} {res['wall_tail'][1]:.6f} s"
            if res["wall_tail"] else
            f"no tail percentile: needs n>={2 * TAIL_BEYOND}"),
        "cpu_s": f"median of n={n}",
        "peak_rss_mb": f"median of n={n}",
        "setup_s": f"median of n={res['samples']['setup_s']} fresh imports",
    }
    for name, unit in END_TO_END.items():
        print(f"  {name:<30} {res['metrics'][name]:>16.6f} {unit:<6} {notes[name]}")
    frac = res["failed"] / res["attempted"]
    print(f"  {'failed_frac':<30} {frac:>16.6f} {FAILED_FRAC_UNIT:<6} "
          f"{res['failed']} of {res['attempted']} operations")
    if res["layers"] is not None:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<30} {res['layers'][name]:>16.6f} {unit}")
    for problem in res["problems"]:
        print(f"  FAILED: {problem}")

    table, values = ((PER_LAYER, res["layers"] or {}) if res["trace"]
                     else (END_TO_END, res["metrics"]))
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in table.items() if k in values}
    return {"correct": res["failed"] == 0 and len(metrics) == len(table),
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    workloads = make_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rankaudit" / "cli.py").exists():
        print(f"error: no program to measure: {SRC / 'rankaudit'} is missing",
              file=sys.stderr)
        return 2
    names = list(workloads) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    with Launcher() as launcher:
        for name in names:
            res = measure(launcher, workloads[name], args.seed, args.seconds,
                          bool(args.trace))
            line = report(res)
            results = WORK / "results"
            results.mkdir(exist_ok=True)
            (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps({**res, "result": line}, indent=1, sort_keys=True) + "\n",
                encoding="utf-8")
            print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
