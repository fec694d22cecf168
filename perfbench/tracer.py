"""Span tracer for the benchmark's traced runs.

Run as a script, it executes one ``rankaudit`` command in this process with
the public functions of every layer wrapped, and writes the spans it
recorded to a JSON file when the command ends:

    python3 perfbench/tracer.py --spans spans.json -- run --config run.json --out out

A span is ``[name, start, end, parent]``; ``parent`` is the index of the
span that was open when this one started, or -1.  Spans stay in memory
until the command returns.  ``layer_metrics`` turns the span files of one
traced operation into the per-layer metrics the benchmark reports.

Nothing under ``src/`` is changed: wrappers are installed from here.  A
function imported by name (``decide`` in ``cli``, ``audit`` and
``mitigate``) is replaced in every ``rankaudit`` module that holds it,
otherwise calls made through the other names would be missed.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from functools import wraps

# (span name, module, attribute); an attribute "Class.method" wraps a method
TARGETS = (
    ("dataset.ingest", "rankaudit.dataset", "ingest"),
    ("dataset.split", "rankaudit.dataset", "split"),
    ("dataset.export_csv", "rankaudit.dataset", "Dataset.export_csv"),
    ("dataset.positions_of", "rankaudit.dataset", "Dataset.positions_of"),
    ("scorer.fit", "rankaudit.scorer", "fit"),
    ("scorer.score", "rankaudit.scorer", "score"),
    ("mitigate.repair", "rankaudit.mitigate", "disparate_impact_remove"),
    ("mitigate.thresholds_fit", "rankaudit.mitigate", "fit_threshold_optimizer"),
    ("mitigate.reject_option_fit", "rankaudit.mitigate", "reject_option_classify"),
    ("mitigate.odds_fit", "rankaudit.mitigate", "fit_equalized_odds_post"),
    ("mitigate.apply", "rankaudit.mitigate", "apply_group_thresholds"),
    ("mitigate.apply", "rankaudit.mitigate", "apply_reject_option"),
    ("mitigate.apply", "rankaudit.mitigate", "apply_mixing"),
    ("decide.decide", "rankaudit.decide", "decide"),
    ("decide.export", "rankaudit.decide", "export_decisions"),
    ("audit.build_report", "rankaudit.audit", "build_report"),
    ("audit.kendall_tau", "rankaudit.audit", "kendall_tau"),
    ("audit.auc", "rankaudit.audit", "auc"),
    ("audit.quadrant", "rankaudit.audit", "quadrant_analysis"),
    ("cli.audit_stage", "rankaudit.cli", "Pipeline.audit"),
    ("worlds.build", "rankaudit.worlds", "wage_gap_world"),
    ("worlds.build", "rankaudit.worlds", "anti_monotone_world"),
    ("worlds.monotonicity", "rankaudit.worlds", "monotonicity_check"),
    ("worlds.decompose", "rankaudit.worlds", "decomposition_check"),
    ("worlds.pareto", "rankaudit.worlds", "pareto_check"),
)

# inside the audit stage, the time not spent in these is emission
_NOT_EMISSION = {"audit.build_report", "decide.decide", "decide.export"}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans and layer counters for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = {"dataset.rows": 0, "dataset.rss_growth_mb": 0.0,
                         "scorer.epochs": 0, "decide.export_rows": 0,
                         "worlds.violations": 0}

    def wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(index)
            rss_before = _maxrss_mb() if name == "dataset.ingest" else 0.0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self._count(name, args, result, rss_before)
            return result
        return traced

    def _count(self, name, args, result, rss_before):
        c = self.counters
        if name == "dataset.ingest":
            c["dataset.rows"] += result.n
            c["dataset.rss_growth_mb"] += _maxrss_mb() - rss_before
        elif name == "scorer.fit":
            c["scorer.epochs"] += len(result.loss_history)
        elif name == "decide.export":
            c["decide.export_rows"] += args[0].n
        elif name == "worlds.monotonicity":
            c["worlds.violations"] += result.violation_count

    def install(self) -> None:
        """Wrap every target in every loaded rankaudit module that holds it."""
        importlib.import_module("rankaudit.cli")
        modules = [m for k, m in sys.modules.items()
                   if k == "rankaudit" or k.startswith("rankaudit.")]
        for name, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


# --- aggregation ---------------------------------------------------------------

def _span_table(docs: list[dict]):
    """Concatenate the span lists of several processes, fixing parent indices."""
    spans = []
    for doc in docs:
        offset = len(spans)
        for name, start, end, parent in doc["spans"]:
            spans.append((name, start, end, parent + offset if parent >= 0 else -1))
    return spans


def layer_metrics(docs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced operation (one or more processes).

    A time is the sum of the durations of a function's outermost spans, so
    a recursive or self-calling function is not counted twice.  Call counts
    count every span.
    """
    spans = _span_table(docs)
    children: list[list[int]] = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)

    def nested_in_same(i):
        name, parent = spans[i][0], spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        if not nested_in_same(i):
            secs[name] = secs.get(name, 0.0) + (end - start)

    def covered(i):
        total = 0.0
        for j in children[i]:
            if spans[j][0] in _NOT_EMISSION:
                total += spans[j][2] - spans[j][1]
            else:
                total += covered(j)
        return total

    emit_s = sum(end - start - covered(i)
                 for i, (name, start, end, _) in enumerate(spans)
                 if name == "cli.audit_stage")

    counters: dict[str, float] = {}
    for doc in docs:
        for key, value in doc["counters"].items():
            if key == "dataset.rss_growth_mb":
                counters[key] = max(counters.get(key, 0.0), value)
            else:
                counters[key] = counters.get(key, 0) + value

    s = secs.get
    n = calls.get
    fit_s = s("scorer.fit", 0.0)
    epochs = counters["scorer.epochs"]
    return {
        "dataset.ingest_s": s("dataset.ingest", 0.0),
        "dataset.rows": counters["dataset.rows"],
        "dataset.split_s": s("dataset.split", 0.0),
        "dataset.export_s": s("dataset.export_csv", 0.0),
        "dataset.rss_growth_mb": counters["dataset.rss_growth_mb"],
        "dataset.positions_of_calls": n("dataset.positions_of", 0),
        "scorer.fit_calls": n("scorer.fit", 0),
        "scorer.fit_s": fit_s,
        "scorer.epochs": epochs,
        "scorer.epoch_ms": 1000.0 * fit_s / epochs if epochs else 0.0,
        "scorer.score_calls": n("scorer.score", 0),
        "scorer.score_s": s("scorer.score", 0.0),
        "mitigate.repair_s": s("mitigate.repair", 0.0),
        "mitigate.thresholds_fit_s": s("mitigate.thresholds_fit", 0.0),
        "mitigate.reject_option_fit_s": s("mitigate.reject_option_fit", 0.0),
        "mitigate.odds_fit_s": s("mitigate.odds_fit", 0.0),
        "mitigate.apply_s": s("mitigate.apply", 0.0),
        "decide.calls": n("decide.decide", 0),
        "decide.s": s("decide.decide", 0.0),
        "decide.export_calls": n("decide.export", 0),
        "decide.export_rows": counters["decide.export_rows"],
        "decide.export_s": s("decide.export", 0.0),
        "audit.build_report_calls": n("audit.build_report", 0),
        "audit.build_report_s": s("audit.build_report", 0.0),
        "audit.kendall_tau_calls": n("audit.kendall_tau", 0),
        "audit.kendall_tau_s": s("audit.kendall_tau", 0.0),
        "audit.auc_calls": n("audit.auc", 0),
        "audit.auc_s": s("audit.auc", 0.0),
        "audit.quadrant_calls": n("audit.quadrant", 0),
        "audit.quadrant_s": s("audit.quadrant", 0.0),
        "cli.emit_s": emit_s,
        "worlds.build_s": s("worlds.build", 0.0),
        "worlds.monotonicity_s": s("worlds.monotonicity", 0.0),
        "worlds.violations": counters["worlds.violations"],
        "worlds.decompose_s": s("worlds.decompose", 0.0),
        "worlds.pareto_s": s("worlds.pareto", 0.0),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans FILE -- RANKAUDIT-ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("rankaudit.cli")
    try:
        return cli.main(argv[3:])
    finally:
        with open(argv[1], "w", encoding="utf-8") as fh:
            json.dump(tracer.to_dict(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
