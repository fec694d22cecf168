"""Command-line pipeline: ingest -> train -> mitigate -> decide -> audit.

Every run is reproducible from its config: all seeds are explicit, every
artifact is written atomically, and report JSON is byte-identical across
re-runs.  `compare` refuses to put reports side by side when their
realized positive rates differ materially, unless explicitly overridden:
metrics taken at very different selection rates describe different
decision problems.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import logging
import math
import sys
from pathlib import Path

from . import __version__
from .audit import AuditReport, audit_scores, build_report
from .dataset import (
    ColumnText, Dataset, DatasetSpec, atomic_open, builtin_specs, ingest,
    positions_in, split, verify_base_rate, write_csv,
)
from .decide import DecisionPolicy, DecisionSet, decide, export_decisions
from .errors import (
    AuditError, ConfigError, DegenerateSplit, PolicyMismatch, UnknownId,
)
from .mitigate import (
    apply_group_thresholds,
    apply_mixing,
    apply_reject_option,
    disparate_impact_remove,
    fit_equalized_odds_post,
    fit_threshold_optimizer,
    reject_option_classify,
)
from .scorer import (
    ScorerConfig,
    ScoreSet,
    fit,
    ingest_external_scores,
    relabel,
    save_scorer,
    score,
)
from .worlds import (
    anti_monotone_world,
    decomposition_check,
    monotonicity_check,
    pareto_check,
    rates,
    threshold_decision,
    wage_gap_world,
)

log = logging.getLogger("rankaudit")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

PDR_COMPARE_TOLERANCE = 0.05

AT_HALF = DecisionPolicy(kind="fixed-threshold", threshold=0.5)


# --- small file helpers -----------------------------------------------------------

def _write_json(path: Path, doc) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _slug(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "-" for c in label)


# --- config -------------------------------------------------------------------------
#
# SCHEMA, METHODS and POLICIES give each key a config may carry: what its value must
# be (a key of RULES) and its default.  Top-level, split and scorer defaults are
# written into the config; dataset and method defaults are applied where they are
# read, so those entries hash as written.

REQUIRED = object()
RATE = 'a number in [0, 1], "baseline-pdr" or "base-rate"'
NAME = 'a non-empty string other than "baseline"'


def _number(v, low=-math.inf, high=math.inf) -> bool:
    return type(v) in (int, float) and low <= v <= high and abs(v) != math.inf


RULES = {  # what a value must be: its test
    "anything": lambda v: True,
    "a JSON object": lambda v: type(v) is dict,
    "a list of JSON objects": lambda v: type(v) is list and all(type(e) is dict for e in v),
    "an existing file": lambda v: type(v) is str and Path(v).is_file(),
    "a spec name, path or object": lambda v: type(v) in (str, dict),
    "three numbers >= 0 that sum to 1": lambda v: type(v) is list and len(v) == 3
    and all(_number(f, 0) for f in v) and abs(sum(v) - 1) <= 1e-9,
    "an integer": lambda v: type(v) is int,
    "an integer >= 1": lambda v: type(v) is int and v >= 1,
    "a number > 0": lambda v: _number(v, 0) and v > 0,
    "a number >= 0": lambda v: _number(v, 0),
    "a number in [0, 1]": lambda v: _number(v, 0, 1),
    "null or a number in [0, 1]": lambda v: v is None or _number(v, 0, 1),
    RATE: lambda v: v in ("baseline-pdr", "base-rate") or _number(v, 0, 1),
    "true or false": lambda v: type(v) is bool,
    '"tau-a" or "tau-b"': lambda v: v in ("tau-a", "tau-b"),
    '"logistic" or "one-hidden-layer"': lambda v: v in ("logistic", "one-hidden-layer"),
    "null or a list of column names": lambda v: v is None
    or type(v) is list and all(type(c) is str for c in v),
    NAME: lambda v: type(v) is str and v not in ("", "baseline"),
}

SCHEMA = {
    "config": {"dataset": ("a JSON object", REQUIRED), "split": ("a JSON object", {}),
               "scorer": ("a JSON object", {}), "methods": ("a list of JSON objects", []),
               "policies": ("a list of JSON objects", [
                   {"kind": "fixed-threshold", "threshold": 0.5},
                   {"kind": "per-group-rates", "rate": "baseline-pdr"},
                   {"kind": "per-group-rates", "rate": "base-rate"}]),
               "tau_variant": ('"tau-a" or "tau-b"', "tau-b")},
    "dataset": {"csv": ("an existing file", REQUIRED),
                "spec": ("a spec name, path or object", "adult")},
    "split": {"fractions": ("three numbers >= 0 that sum to 1", [0.6, 0.2, 0.2]),
              "seed": ("an integer", 7)},
    "scorer": {"learning_rate": ("a number > 0", 0.1), "epochs": ("an integer >= 1", 500),
               "l2_penalty": ("a number >= 0", 1e-4), "seed": ("an integer", 42),
               "model_kind": ('"logistic" or "one-hidden-layer"', "logistic"),
               "include_sensitive": ("true or false", False)},
    # the keys of every method and every policy; a method's name defaults to its kind
    "method": {"kind": ("anything", REQUIRED), "name": (NAME, REQUIRED)},
    "policy": {"kind": ("anything", REQUIRED)},
}
METHODS = {  # feature-repair columns are also checked against the spec
    "feature-repair": {"repair_level": ("a number in [0, 1]", 1.0),
                       "columns": ("null or a list of column names", None)},
    "group-thresholds": {"rate": ("null or a number in [0, 1]", None)},
    "reject-option": {"epsilon": ("a number > 0", 0.02)},
    "equalized-odds": {"seed": ("an integer", 11)},
    "external-scores": {"path": ("an existing file", REQUIRED)},
}
POLICIES = {
    "fixed-threshold": {"threshold": ("a number in [0, 1]", REQUIRED)},
    "global-top-rate": {"rate": (RATE, REQUIRED)},
    "per-group-rates": {"rate": (RATE, REQUIRED)},
}


def _checked(doc: dict, table: dict, where: str) -> dict:
    """doc with table's defaults; ConfigError on an unknown, missing or bad key."""
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    for key, (what, default) in table.items():
        if key not in doc and default is REQUIRED:
            raise ConfigError(f"{where} needs {key}")
        if key in doc and not RULES[what](doc[key]):
            raise ConfigError(f"{where}: {key} must be {what}, got {json.dumps(doc[key])}")
    return {key: doc[key] if key in doc else copy.deepcopy(default)
            for key, (_, default) in table.items()}


def _entry(doc: dict, what: str, kinds: dict) -> dict:
    """A method or policy entry with its kind's defaults filled in."""
    kind = doc.get("kind")
    if not (type(kind) is str and kind in kinds):
        raise ConfigError(f"unknown {what} kind {json.dumps(kind)}")
    doc = {"name": kind, **doc} if what == "method" else doc
    return _checked(doc, {**SCHEMA[what], **kinds[kind]}, f"{what} {doc.get('name', kind)!r}")


def _load_config(path: str) -> tuple[dict, DatasetSpec]:
    """The config at path checked against SCHEMA, with the top-level, split
    and scorer defaults filled in; and its dataset spec."""
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, or not UTF-8 JSON
        raise ConfigError(f"cannot read config {path}: {exc}")
    if type(cfg) is not dict:
        raise ConfigError("config must be a JSON object")
    cfg = _checked(cfg, SCHEMA["config"], "config")
    for section in ("split", "scorer"):
        cfg[section] = _checked(cfg[section], SCHEMA[section], section)
    spec = _resolve_spec(_checked(cfg["dataset"], SCHEMA["dataset"], "dataset")["spec"])
    numeric = {c.name for c in spec.feature_columns if c.kind == "numeric"}
    methods = [_entry(m, "method", METHODS) for m in cfg["methods"]]
    for m in methods:
        if not numeric.issuperset(m.get("columns") or ()):
            raise ConfigError(f"method {m['name']!r}: columns must be numeric feature "
                              f"columns of spec {spec.name!r}, got {m['columns']}")
    if len({m["name"] for m in methods}) != len(methods):
        raise ConfigError(f"method names must be unique: {[m['name'] for m in methods]}")
    for doc in cfg["policies"]:
        _entry(doc, "policy", POLICIES)
    return cfg, spec


def _resolve_spec(ref) -> DatasetSpec:
    """The spec a config names: an inline object, a built-in name or a JSON
    file; a spec that lacks a key or holds a bad value is a ConfigError."""
    registry = builtin_specs()
    if isinstance(ref, str) and ref in registry:
        return registry[ref]
    if isinstance(ref, str) and not Path(ref).exists():
        raise ConfigError(f"unknown dataset spec {ref!r}")
    try:
        return DatasetSpec.from_json(ref) if isinstance(ref, str) else DatasetSpec.from_dict(ref)
    except KeyError as exc:
        raise ConfigError(f"dataset spec lacks key {exc}") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad dataset spec: {exc}") from exc


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")
    ).hexdigest()


# --- pipeline -------------------------------------------------------------------------

class Pipeline:
    """Executes a run config stage by stage; later stages reuse earlier state."""

    def __init__(self, cfg: dict, spec: DatasetSpec, out_dir: Path):
        self.cfg = cfg  # as _load_config returns it
        self.methods = [_entry(m, "method", METHODS) for m in cfg["methods"]]
        self.spec = spec
        self.out = out_dir
        self.out.mkdir(parents=True, exist_ok=True)
        self.dataset: Dataset | None = None
        self.splits = None
        self.scorer = None
        self.baseline_test = None
        self.baseline_validation = None
        self.baseline_at_half: DecisionSet | None = None
        self.external: dict[str, ScoreSet] = {}  # test scores by method name
        self.method_scores: list[ScoreSet] = []
        self.native_decisions: dict[str, DecisionSet] = {}
        self.fit_artifacts: dict[str, str] = {}
        self.text = ColumnText()  # every CSV's ids, groups and scores

    # each stage returns self so calls chain

    def ingest(self):
        self.dataset = ingest(self.cfg["dataset"]["csv"], self.spec)
        rate = verify_base_rate(self.dataset)
        self.splits = split(self.dataset, **self.cfg["split"])
        self.external = {m["name"]: self._external_scores(m["path"], m["name"])
                         for m in self.methods if m["kind"] == "external-scores"}
        n_prot, n_priv = self.dataset.group_sizes()
        _write_json(self.out / "dataset_summary.json", {
            "dataset": self.spec.name,
            "rows": self.dataset.n,
            "dropped_rows": self.dataset.dropped_rows,
            "base_rate": rate,
            "expected_base_rate": self.spec.expected_base_rate,
            "group_sizes": {"protected": n_prot, "privileged": n_priv},
            "split_sizes": dict(zip(("train", "validation", "test"),
                                    self.splits.sizes())),
            "split_seed": self.splits.seed,
        })
        return self

    def _external_scores(self, path: str, name: str) -> ScoreSet:
        """A method's external test scores; a bad file is a ConfigError."""
        try:
            full = ingest_external_scores(path, self.dataset, name)
        except AuditError as exc:
            raise ConfigError(f"method {name!r}: {exc}") from exc
        try:
            pos = positions_in(full.instance_ids, self.splits.test_ids)
        except UnknownId as exc:
            raise ConfigError(f"external scores {path} lack test ids: {exc}") from exc
        return ScoreSet(method=name, instance_ids=self.splits.test_ids,
                        scores=full.scores[pos], produced_on="test")

    def train(self):
        sc = dict(self.cfg["scorer"])  # ScorerConfig's fields and include_sensitive
        include_sensitive = sc.pop("include_sensitive")
        self.scorer = fit(self.dataset, self.splits, ScorerConfig(**sc),
                          include_sensitive=include_sensitive)
        save_scorer(self.scorer, self.out / "scorer.txt")
        self.baseline_validation = score(
            self.scorer, self.dataset, self.splits.validation_ids,
            method="baseline", role="validation",
        )
        self.baseline_test = score(
            self.scorer, self.dataset, self.splits.test_ids,
            method="baseline", role="test",
        )
        self._write_scores(self.baseline_test)
        return self

    def _write_scores(self, scores):
        ids, _ = self.text.rows(self.dataset, scores.instance_ids)
        write_csv(self.out / f"scores_{_slug(scores.method)}_{scores.produced_on}.csv",
                  ["instance_id", "score"], [ids, self.text.floats(scores.scores)])

    def mitigate(self):
        test_ids = self.splits.test_ids
        val_ids = self.splits.validation_ids
        needs_validation = {"group-thresholds", "reject-option", "equalized-odds"}
        if len(val_ids) == 0 and any(
                m["kind"] in needs_validation for m in self.methods):
            raise DegenerateSplit(
                "validation partition is empty but a configured method fits on it"
            )
        # the native report, equalized odds and the baseline-pdr rate share it
        self.baseline_at_half = decide(self.baseline_test, self.dataset, AT_HALF)
        for m in self.methods:
            kind, name = m["kind"], m["name"]
            if kind == "feature-repair":
                repaired = disparate_impact_remove(
                    self.dataset, float(m["repair_level"]), m["columns"],
                )
                refit = fit(repaired, self.splits, self.scorer.config,
                            include_sensitive=self.scorer.include_sensitive)
                scores = score(refit, repaired, test_ids, method=name, role="test")
            elif kind == "group-thresholds":
                gt = fit_threshold_optimizer(
                    self.baseline_validation, self.dataset, val_ids,
                    rate=m["rate"],
                )
                self.fit_artifacts[name] = gt.to_text()
                scores = relabel(self.baseline_test, name)
                self.native_decisions[name] = apply_group_thresholds(gt, scores, self.dataset)
            elif kind == "reject-option":
                res = reject_option_classify(
                    self.baseline_validation, self.dataset, val_ids,
                    epsilon=float(m["epsilon"]),
                )
                self.fit_artifacts[name] = res.region.to_text()
                scores = relabel(self.baseline_test, name)
                self.native_decisions[name] = apply_reject_option(
                    res.region, self.baseline_test, self.dataset, test_ids, method=name,
                )
            elif kind == "equalized-odds":
                base_val = decide(self.baseline_validation, self.dataset, AT_HALF)
                mixing = fit_equalized_odds_post(
                    base_val, self.dataset, val_ids, seed=m["seed"],
                )
                self.fit_artifacts[name] = mixing.to_text()
                scores = relabel(self.baseline_test, name)
                self.native_decisions[name] = apply_mixing(
                    mixing, self.baseline_at_half, self.dataset, test_ids, method=name,
                )
            else:  # external-scores
                scores = self.external[name]
            self.method_scores.append(scores)
        for name, text in self.fit_artifacts.items():
            with atomic_open(self.out / f"fitted_{_slug(name)}.txt") as fh:
                fh.write(text)
        for scores in self.method_scores:
            self._write_scores(scores)
        return self

    def _policies(self) -> list[tuple[str, DecisionPolicy]]:
        resolved = []
        for doc in self.cfg["policies"]:
            kind, ref = doc["kind"], doc.get("rate")
            if kind == "fixed-threshold":
                policy = DecisionPolicy(kind=kind, threshold=float(doc["threshold"]))
            elif kind == "global-top-rate":
                policy = DecisionPolicy(kind=kind, rate=self._rate(ref))
            else:  # per-group-rates: one rate for both groups
                r = self._rate(ref)
                policy = DecisionPolicy(kind=kind, group_rates=(r, r),
                                        note=ref if isinstance(ref, str) else "")
            label = policy.label() + (f"-{_slug(policy.note)}" if policy.note else "")
            resolved.append((label, policy))
        return resolved

    def _rate(self, ref) -> float:
        if ref == "baseline-pdr":
            return self.baseline_at_half.realized_pdr
        if ref == "base-rate":
            pos = self.dataset.positions_of(self.splits.test_ids)
            return float(self.dataset.label[pos].mean())
        return float(ref)

    def _provenance(self) -> dict:
        return {
            "tool_version": __version__,
            "config_hash": _config_hash(self.cfg),
            "dataset": self.spec.name,
            "split_sizes": dict(zip(("train", "validation", "test"),
                                    self.splits.sizes())),
            "split_seed": self.splits.seed,
            "scorer_seed": self.cfg["scorer"]["seed"],
            "method_seeds": {m["name"]: entry["seed"] for m, entry
                             in zip(self.methods, self.cfg["methods"]) if "seed" in entry},
            "postprocessors_fitted_on": "validation",
            "metrics_reported_on": "test",
        }

    def audit(self, write_decisions: bool = True):
        provenance = self._provenance()
        _write_json(self.out / "provenance.json",
                    {**provenance, "expanded_config": self.cfg})
        scored = audit_scores(self.dataset, self.baseline_test,
                              self.method_scores, self.cfg["tau_variant"])
        taus = scored.tau_vs_baseline
        write_csv(self.out / "tau_vs_baseline.csv",
                  ["method", "tau_overall", "tau_protected", "tau_privileged"],
                  [list(taus)] + [[repr(t[g]) for t in taus.values()]
                                  for g in ("overall", "protected", "privileged")])
        write_csv(self.out / "correlation_matrix.csv",
                  ["method"] + scored.pairwise_methods,
                  [scored.pairwise_methods] + [list(map(repr, column))
                                               for column in zip(*scored.pairwise_tau)])

        # native report: every method under its own decision context;
        # rate-controlled reports: same policy applied to every score set
        native_policy = DecisionPolicy(kind="fixed-threshold", threshold=0.5,
                                       note="method-native contexts")
        native = {self.baseline_test.method: self.baseline_at_half,
                  **self.native_decisions}
        contexts = [("native", native_policy, native)]
        contexts += [(label, policy, None) for label, policy in self._policies()]
        for label, policy, own in contexts:
            report = build_report(self.dataset, scored, policy,
                                  provenance=provenance, decisions=own)
            report.policy_label = label
            self._emit_report(report, write_decisions)
        return self

    def _emit_report(self, report: AuditReport, write_decisions: bool):
        label = _slug(report.policy_label)
        base = self.baseline_test
        for ss in self.method_scores:
            path = self.out / f"scatter_{label}_{_slug(ss.method)}.csv"
            write_csv(path, ["id", "group", "score_base", "score_mitigated", "quadrant"],
                      [*self.text.rows(self.dataset, base.instance_ids),
                       self.text.floats(base.scores), self.text.floats(ss.scores),
                       report.scatter[ss.method]])
            report.scatter_files[ss.method] = path.name
        _write_json(self.out / f"report_{label}.json", report.to_dict())
        if write_decisions:
            self._write_decisions(report.policy_label, report.decisions)

    def _write_decisions(self, label: str, decisions: dict[str, DecisionSet]):
        for scores in [self.baseline_test] + self.method_scores:
            export_decisions(
                decisions[scores.method], self.dataset, scores,
                self.out / f"decisions_{_slug(label)}_{_slug(scores.method)}.csv",
                self.text,
            )

    def decide_all(self):
        """Decision CSVs for every configured policy, without the audit."""
        for label, policy in self._policies():
            self._write_decisions(label, {
                ss.method: decide(ss, self.dataset, policy)
                for ss in [self.baseline_test] + self.method_scores
            })
        return self

    def run_all(self):
        self.ingest()
        # written before any score text is held, which would add to its peak memory
        self.dataset.export_csv(self.out / "dataset_export.csv")
        return self.train().mitigate().audit(write_decisions=True)


# --- theory command ---------------------------------------------------------------------

WORLDS = {"wage-gap": wage_gap_world, "anti-monotone": anti_monotone_world}


def cmd_theory(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    w = WORLDS[args.world](args.grid_size)
    check = args.check
    if check == "example":
        w.to_csv(out / f"world_{args.world}.csv")
        doc = {
            "world": args.world, "grid_size": args.grid_size,
            "monotonicity": monotonicity_check(w, args.tolerance).to_dict(),
            "decomposition": {
                str(tau): decomposition_check(w, tau).to_dict()
                for tau in args.tau
            },
        }
        _write_json(out / f"theory_example_{args.world}.json", doc)
    elif check == "monotonicity":
        res = monotonicity_check(w, args.tolerance)
        _write_json(out / f"monotonicity_{args.world}.json", res.to_dict())
        print(f"monotonicity holds={res.holds} violations={res.violation_count}")
    elif check == "pareto":
        dec = threshold_decision(w, "unfair", args.cut)
        doc = {}
        for basis in ("unfair", "fair"):
            res = pareto_check(w, dec, basis)
            r = rates(w, dec, basis)
            doc[basis] = {
                "maximal": res.maximal,
                "tpr": r.tpr,
                "tnr": r.tnr,
                "dominating": None if res.maximal else {
                    "tpr": res.dominating_rates.tpr,
                    "tnr": res.dominating_rates.tnr,
                },
            }
        _write_json(out / f"pareto_{args.world}.json", doc)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:  # decompose
        doc = {str(tau): decomposition_check(w, tau).to_dict() for tau in args.tau}
        _write_json(out / f"decomposition_{args.world}.json", doc)
        print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


# --- compare command ---------------------------------------------------------------------

def cmd_compare(paths: list[str], out_path: str,
                allow_uncontrolled: bool = False) -> int:
    if len(paths) < 2:
        raise ConfigError("compare needs at least two report files")
    reports = []
    for p in paths:
        if not Path(p).exists():
            raise ConfigError(f"report not found: {p}")
        reports.append((Path(p).stem, json.loads(Path(p).read_text("utf-8"))))

    labels = {doc.get("policy_label") for _, doc in reports}
    if len(labels) != 1:
        raise PolicyMismatch(
            f"reports carry different policy labels: {sorted(labels)}"
        )

    # a pair of reports is rate-controlled when every shared method keeps
    # (nearly) the same realized rate in both; with no shared methods the
    # whole cross-report spread stands in
    violations = []
    for i in range(len(reports)):
        for j in range(i + 1, len(reports)):
            name_i, doc_i = reports[i]
            name_j, doc_j = reports[j]
            shared = sorted(set(doc_i["rows"]) & set(doc_j["rows"]))
            if shared:
                for m in shared:
                    a = doc_i["rows"][m]["pdr"]
                    b = doc_j["rows"][m]["pdr"]
                    if abs(a - b) > PDR_COMPARE_TOLERANCE:
                        violations.append(f"{m}: {name_i}={a:.3f} vs {name_j}={b:.3f}")
            else:
                a = [r["pdr"] for r in doc_i["rows"].values()]
                b = [r["pdr"] for r in doc_j["rows"].values()]
                spread = max(max(a) - min(b), max(b) - min(a))
                if spread > PDR_COMPARE_TOLERANCE:
                    violations.append(
                        f"{name_i} ({min(a):.3f}..{max(a):.3f}) vs "
                        f"{name_j} ({min(b):.3f}..{max(b):.3f})"
                    )
    uncontrolled = bool(violations)
    if uncontrolled and not allow_uncontrolled:
        print(
            "refusing to compare: realized positive decision rates differ by "
            f"more than {PDR_COMPARE_TOLERANCE} across reports under policy "
            f"{labels.pop()!r}: " + "; ".join(violations[:5]) + ". Metrics taken "
            "at such different selection rates describe different decision "
            "problems; rerun under a rate-controlled policy or pass "
            "--allow-uncontrolled.",
            file=sys.stderr,
        )
        return EXIT_VALIDATION

    keys = ["auc", "auc_protected", "auc_privileged", "acc", "spd", "eod", "pdr"]
    rows = [(name, method, m) for name, doc in reports
            for method, m in sorted(doc["rows"].items())]
    write_csv(Path(out_path), ["report", "method"] + keys + ["warning"],
              [[r[0] for r in rows], [r[1] for r in rows]]
              + [[repr(m[k]) for _, _, m in rows] for k in keys]
              + ["uncontrolled-rate" if uncontrolled else ""])
    if uncontrolled:
        print("warning: uncontrolled positive decision rates; rows flagged",
              file=sys.stderr)
    return EXIT_OK


# --- argument parsing -----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankaudit",
        description="Audit bias-mitigation methods under explicit decision policies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pipeline_cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int, default=None,
                       help="override the split seed")
        return p

    add_pipeline_cmd("ingest", "load a dataset, verify its base rate, split it")
    add_pipeline_cmd("train", "ingest plus baseline scorer training")
    add_pipeline_cmd("mitigate", "train plus all configured mitigation methods")
    add_pipeline_cmd("decide", "mitigate plus decision sets for every policy")
    add_pipeline_cmd("audit", "full pipeline, reports only")
    add_pipeline_cmd("run", "full pipeline with every artifact")

    t = sub.add_parser("theory", help="synthetic-world checks")
    t.add_argument("check", choices=("example", "monotonicity", "pareto", "decompose"))
    t.add_argument("--world", choices=tuple(WORLDS), default="wage-gap")
    t.add_argument("--grid-size", type=int, default=501)
    t.add_argument("--tau", type=float, action="append",
                   default=None, help="repeatable; defaults to 0.1..0.9")
    t.add_argument("--tolerance", type=float, default=0.0)
    t.add_argument("--cut", type=float, default=0.5,
                   help="score threshold checked by `pareto`")
    t.add_argument("--out", default="out")

    c = sub.add_parser("compare", help="juxtapose reports under one policy")
    c.add_argument("reports", nargs="+")
    c.add_argument("--out", default="comparison.csv")
    c.add_argument("--allow-uncontrolled", action="store_true")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "theory":
            if args.tau is None:
                args.tau = [0.1, 0.3, 0.5, 0.7, 0.9]
            return cmd_theory(args)
        if args.command == "compare":
            return cmd_compare(args.reports, args.out, args.allow_uncontrolled)

        cfg, spec = _load_config(args.config)
        if args.seed is not None:
            cfg["split"]["seed"] = args.seed
        pipeline = Pipeline(cfg, spec, Path(args.out))
        if args.command == "ingest":
            pipeline.ingest()
            pipeline.dataset.export_csv(pipeline.out / "dataset_export.csv")
        elif args.command == "train":
            pipeline.ingest().train()
        elif args.command == "mitigate":
            pipeline.ingest().train().mitigate()
        elif args.command == "decide":
            pipeline.ingest().train().mitigate().decide_all()
        elif args.command == "audit":
            pipeline.ingest().train().mitigate()
            pipeline.audit(write_decisions=False)
        elif args.command == "run":
            pipeline.run_all()
        return EXIT_OK
    except (ConfigError, PolicyMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - surfaced as exit status
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
