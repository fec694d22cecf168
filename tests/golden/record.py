"""The golden run and its manifest; run as a script to rewrite the manifest.

The golden run is the README quick start (n = 2,400, seed 2024) run with
`run` and `ingest`, plus every `theory` check (`example`, `monotonicity`,
`pareto` and `decompose`) on both worlds at grid 2001.  Its
inputs and outputs sit in one directory under relative paths, so every
output, provenance and config hash included, is the same from any checkout
path.  manifest.json holds the sha256 of each output file, the environment
it was recorded under, and the parsed content of each output JSON for the
weaker check test_golden.py runs under another environment.

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

from rankaudit.cli import main
from rankaudit.synthetic import write_biased_benchmark_csv

MANIFEST = Path(__file__).with_name("manifest.json")
OUTPUT_DIRS = ("run", "ingest", "theory")
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


def produce() -> None:
    """Write the golden inputs into the working directory and run on them."""
    spec = write_biased_benchmark_csv("bench.csv", n=2400, seed=2024)
    Path("bench_spec.json").write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    Path("run.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    for argv in (["run", "--config", "run.json", "--out", "run"],
                 ["ingest", "--config", "run.json", "--out", "ingest"],
                 *(["theory", check, "--world", world, "--grid-size", "2001",
                    "--out", "theory"] for world in ("wage-gap", "anti-monotone")
                   for check in ("example", "monotonicity", "pareto", "decompose"))):
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


def record() -> None:
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
    print(f"recorded {len(manifest['files'])} files in {MANIFEST}", file=sys.stderr)


if __name__ == "__main__":
    record()
