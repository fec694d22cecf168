"""The golden run and its manifest; run as a script to rewrite the manifest.

The golden run is the README quick start (n = 2,400, seed 2024) run with
`run` and `ingest`, plus every `theory` check (`example`, `monotonicity`,
`pareto` and `decompose`) on both worlds at grid 2001.  A second config on
the same CSV reaches what the quick start leaves at its defaults: external
scores, a group-thresholds rate, feature repair of one column at level 0.5,
all three policy kinds (a rate reference and a number each for
global-top-rate), tau-a and include_sensitive; it goes through `train`,
`mitigate`, `decide`, `audit` and `run`.  Then come a 20-epoch
one-hidden-layer run, one `compare` and a monotonicity check under a
tolerance.  Its inputs and outputs sit in one directory under relative
paths, so every output, provenance and config hash included, is the same
from any checkout path.  manifest.json holds the sha256 of each output
file, the environment it was recorded under, and the parsed content of
each output JSON for the weaker check test_golden.py runs under another
environment.  Recording prints which files it adds to, removes from or
changes in the manifest it replaces.

A change that alters outputs on purpose rewrites the manifest and commits
it with the change:

    PYTHONPATH=src python tests/golden/record.py
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from rankaudit import prng
from rankaudit.cli import main
from rankaudit.synthetic import write_biased_benchmark_csv

MANIFEST = Path(__file__).with_name("manifest.json")
WIDE_COMMANDS = ("train", "mitigate", "decide", "audit", "run")
OUTPUT_DIRS = ("run", "ingest", "theory", *(f"wide-{c}" for c in WIDE_COMMANDS),
               "hidden", "compare", "theory-tolerance")
EXCLUDED = {"trace.json"}  # differs from run to run by design
CONFIG = {
    "dataset": {"csv": "bench.csv", "spec": "bench_spec.json"},
    "split": {"fractions": [0.6, 0.2, 0.2], "seed": 7},
    "methods": [
        {"kind": "feature-repair", "name": "repair", "repair_level": 1.0},
        {"kind": "group-thresholds", "name": "thresholds"},
        {"kind": "reject-option", "name": "band-flip", "epsilon": 0.02},
        {"kind": "equalized-odds", "name": "odds-mixing", "seed": 11},
    ],
}
WIDE = {
    "dataset": {"csv": "bench.csv", "spec": "bench_spec.json"},
    "split": {"fractions": [0.5, 0.25, 0.25], "seed": 3},
    "scorer": {"l2_penalty": 1e-3, "include_sensitive": True},
    "methods": [
        {"kind": "feature-repair", "name": "repair-x1", "repair_level": 0.5,
         "columns": ["x1"]},
        {"kind": "group-thresholds", "name": "thresholds-0.3", "rate": 0.3},
        {"kind": "reject-option", "name": "band-flip", "epsilon": 0.05},
        {"kind": "equalized-odds", "name": "odds-mixing", "seed": 4},
        {"kind": "external-scores", "name": "external", "path": "external.csv"},
    ],
    "policies": [
        {"kind": "global-top-rate", "rate": "baseline-pdr"},
        {"kind": "global-top-rate", "rate": 0.25},
        {"kind": "per-group-rates", "rate": 0.4},
        {"kind": "fixed-threshold", "threshold": 0.6},
    ],
    "tau_variant": "tau-a",
}
HIDDEN = {**CONFIG, "scorer": {"model_kind": "one-hidden-layer", "epochs": 20}}


def write_external_scores(path: str, n: int, seed: int) -> None:
    """An instance_id,score CSV over all n rows in a shuffled order, with
    the score of id i drawn as prng.uniform01(seed, i)."""
    ids = prng.permutation(seed, n)
    rows = "".join(f"{i},{s!r}\n" for i, s in zip(ids.tolist(),
                                                   prng.uniform01(seed, ids).tolist()))
    Path(path).write_text("instance_id,score\n" + rows, encoding="utf-8")


def produce() -> None:
    """Write the golden inputs into the working directory and run on them."""
    spec = write_biased_benchmark_csv("bench.csv", n=2400, seed=2024)
    Path("bench_spec.json").write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    write_external_scores("external.csv", n=2400, seed=5)
    for name, cfg in (("run.json", CONFIG), ("wide.json", WIDE), ("hidden.json", HIDDEN)):
        Path(name).write_text(json.dumps(cfg), encoding="utf-8")
    Path("compare").mkdir()  # compare writes its one file, not a directory
    for argv in (["run", "--config", "run.json", "--out", "run"],
                 ["ingest", "--config", "run.json", "--out", "ingest"],
                 *(["theory", check, "--world", world, "--grid-size", "2001",
                    "--out", "theory"] for world in ("wage-gap", "anti-monotone")
                   for check in ("example", "monotonicity", "pareto", "decompose")),
                 *([command, "--config", "wide.json", "--out", f"wide-{command}"]
                   for command in WIDE_COMMANDS),
                 ["run", "--config", "hidden.json", "--out", "hidden"],
                 ["compare", "run/report_native.json", "hidden/report_native.json",
                  "--allow-uncontrolled", "--out", "compare/comparison.csv"],
                 ["theory", "monotonicity", "--world", "anti-monotone", "--grid-size",
                  "2001", "--tolerance", "0.05", "--out", "theory-tolerance"]):
        if main(argv) != 0:
            raise RuntimeError(f"rankaudit {' '.join(argv)} failed")


def outputs() -> dict[str, Path]:
    """Every output file under the output directories, by relative path."""
    return {p.as_posix(): p for d in OUTPUT_DIRS for p in sorted(Path(d).rglob("*"))
            if p.is_file() and p.name not in EXCLUDED}


def digests(files: dict[str, Path]) -> dict[str, str]:
    return {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in files.items()}


def documents(files: dict[str, Path]) -> dict[str, object]:
    return {name: json.loads(p.read_text("utf-8"))
            for name, p in files.items() if name.endswith(".json")}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu": cpu_model()}


def changes(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """One line for each file that the digests new add to, remove from or
    change in the digests old."""
    return ([f"added: {name}" for name in sorted(set(new) - set(old))]
            + [f"removed: {name}" for name in sorted(set(old) - set(new))]
            + [f"changed: {name}" for name in sorted(set(old) & set(new))
               if old[name] != new[name]])


def record() -> None:
    old = json.loads(MANIFEST.read_text("utf-8"))["files"] if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        here = os.getcwd()
        os.chdir(work)
        try:
            produce()
            files = outputs()
            manifest = {"environment": environment(), "files": digests(files),
                        "json": documents(files)}
        finally:
            os.chdir(here)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    for line in changes(old, manifest["files"]) or ["no file added, removed or changed"]:
        print(line, file=sys.stderr)
    print(f"recorded {len(manifest['files'])} files in {MANIFEST}", file=sys.stderr)


if __name__ == "__main__":
    record()
