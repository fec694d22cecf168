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
import hashlib
import json
import logging
import sys
from pathlib import Path

from . import __version__
from .audit import AuditReport, audit_scores, build_report
from .dataset import (
    Dataset, DatasetSpec, atomic_open, builtin_specs, float_text, ingest,
    positions_in, split, verify_base_rate, write_csv,
)
from .decide import DecisionPolicy, DecisionSet, decide, export_decisions
from .errors import (
    AuditError, ConfigError, DegenerateSplit, PolicyMismatch, RateOutOfRange, UnknownId,
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

DEFAULT_SPLIT = {"fractions": [0.6, 0.2, 0.2], "seed": 7}
RATE_NAMES = ("baseline-pdr", "base-rate")

# the keys a config may carry, per section and per method or policy kind
CONFIG_KEYS = {"dataset", "split", "scorer", "methods", "policies", "tau_variant"}
SECTION_KEYS = {"dataset": {"csv", "spec"}, "split": {"fractions", "seed"},
                "scorer": {"learning_rate", "epochs", "l2_penalty", "seed",
                           "model_kind", "include_sensitive"}}
METHOD_KEYS = {  # besides kind and name
    "feature-repair": {"repair_level", "columns"}, "group-thresholds": {"rate"},
    "reject-option": {"epsilon"}, "equalized-odds": {"seed"}, "external-scores": {"path"},
}
POLICY_KEYS = {"fixed-threshold": {"threshold"}, "global-top-rate": {"rate"},
               "per-group-rates": {"rate"}}  # besides kind


def _make_policy(doc: dict, rate_of) -> DecisionPolicy:
    """The policy a config entry names; rate_of resolves its rate reference."""
    kind = doc.get("kind")
    if kind == "fixed-threshold":
        return DecisionPolicy(kind=kind, threshold=float(doc["threshold"]))
    if kind == "global-top-rate":
        return DecisionPolicy(kind=kind, rate=rate_of(doc["rate"]))
    if kind == "per-group-rates":
        r = rate_of(doc["rate"])
        note = doc["rate"] if isinstance(doc["rate"], str) else ""
        return DecisionPolicy(kind=kind, group_rates=(r, r), note=note)
    raise ConfigError(f"unknown policy kind {kind!r}")


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    _check_keys(cfg, CONFIG_KEYS, "config")
    for section, keys in SECTION_KEYS.items():
        _check_keys(cfg.get(section, {}), keys, section)
    if "csv" not in cfg.get("dataset", {}):
        raise ConfigError("config needs dataset.csv")
    if not Path(cfg["dataset"]["csv"]).exists():
        raise ConfigError(f"dataset csv not found: {cfg['dataset']['csv']}")
    if not all(isinstance(e, dict) for e in [*cfg.get("methods", []),
                                             *cfg.get("policies", [])]):
        raise ConfigError("methods and policies must be lists of JSON objects")
    names = [m.get("name") for m in cfg.get("methods", [])]
    if len(set(names)) != len(names):
        raise ConfigError("method names must be unique")
    for m in cfg.get("methods", []):
        if m.get("kind") not in METHOD_KEYS:
            raise ConfigError(f"unknown method kind {m.get('kind')!r}")
        _check_keys(m, {"kind", "name"} | METHOD_KEYS[m["kind"]],
                    f"method {m.get('name')!r}")
        rate = m.get("rate")
        if rate is not None and not (isinstance(rate, (int, float)) and 0 <= rate <= 1):
            raise ConfigError(f"method {m.get('name')!r}: rate must lie in [0, 1]")
    for doc in cfg.get("policies", []):
        try:
            _make_policy(doc, lambda ref: 0.0 if ref in RATE_NAMES else float(ref))
        except (KeyError, TypeError, ValueError, RateOutOfRange) as exc:
            raise ConfigError(f"bad policy {doc}: {exc}")
        _check_keys(doc, {"kind"} | POLICY_KEYS[doc["kind"]], f"policy {doc['kind']!r}")
    if cfg.get("tau_variant", "tau-b") not in ("tau-a", "tau-b"):
        raise ConfigError(f"tau_variant must be tau-a or tau-b: {cfg['tau_variant']!r}")
    return cfg


def _check_keys(doc, allowed: set, where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _resolve_spec(cfg: dict) -> DatasetSpec:
    ref = cfg["dataset"].get("spec", "adult")
    if isinstance(ref, dict):
        return DatasetSpec.from_dict(ref)
    registry = builtin_specs()
    if ref in registry:
        return registry[ref]
    if Path(str(ref)).exists():
        return DatasetSpec.from_json(ref)
    raise ConfigError(f"unknown dataset spec {ref!r}")


def _expanded_config(cfg: dict) -> dict:
    """Config with every default made explicit; this is what gets logged."""
    out = json.loads(json.dumps(cfg))  # deep copy
    out.setdefault("split", dict(DEFAULT_SPLIT))
    out.setdefault("scorer", {})
    scorer_defaults = {
        "learning_rate": 0.1, "epochs": 500, "l2_penalty": 1e-4,
        "seed": 42, "model_kind": "logistic", "include_sensitive": False,
    }
    for key, val in scorer_defaults.items():
        out["scorer"].setdefault(key, val)
    out.setdefault("methods", [])
    out.setdefault("policies", [
        {"kind": "fixed-threshold", "threshold": 0.5},
        {"kind": "per-group-rates", "rate": "baseline-pdr"},
        {"kind": "per-group-rates", "rate": "base-rate"},
    ])
    out.setdefault("tau_variant", "tau-b")
    return out


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")
    ).hexdigest()


# --- pipeline -------------------------------------------------------------------------

class Pipeline:
    """Executes a run config stage by stage; later stages reuse earlier state."""

    def __init__(self, cfg: dict, out_dir: Path):
        self.cfg = _expanded_config(cfg)
        self.out = out_dir
        self.out.mkdir(parents=True, exist_ok=True)
        self.spec = _resolve_spec(self.cfg)
        self.dataset: Dataset | None = None
        self.splits = None
        self.scorer = None
        self.baseline_test = None
        self.baseline_validation = None
        self.baseline_at_half: DecisionSet | None = None
        self.method_scores: list[ScoreSet] = []
        self.native_decisions: dict[str, DecisionSet] = {}
        self.fit_artifacts: dict[str, str] = {}

    # each stage returns self so calls chain

    def ingest(self):
        self.dataset = ingest(self.cfg["dataset"]["csv"], self.spec)
        rate = verify_base_rate(self.dataset)
        sp = self.cfg["split"]
        self.splits = split(self.dataset, tuple(sp["fractions"]), int(sp["seed"]))
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

    def train(self):
        sc = self.cfg["scorer"]
        cfg = ScorerConfig(
            learning_rate=sc["learning_rate"], epochs=int(sc["epochs"]),
            l2_penalty=sc["l2_penalty"], seed=int(sc["seed"]),
            model_kind=sc["model_kind"],
        )
        self.scorer = fit(self.dataset, self.splits, cfg,
                          include_sensitive=bool(sc["include_sensitive"]))
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
        write_csv(
            self.out / f"scores_{_slug(scores.method)}_{scores.produced_on}.csv",
            ["instance_id", "score"],
            zip(scores.instance_ids.tolist(), float_text(scores.scores)),
        )

    def mitigate(self):
        test_ids = self.splits.test_ids
        val_ids = self.splits.validation_ids
        needs_validation = {"group-thresholds", "reject-option", "equalized-odds"}
        if len(val_ids) == 0 and any(
                m.get("kind") in needs_validation for m in self.cfg["methods"]):
            raise DegenerateSplit(
                "validation partition is empty but a configured method fits on it"
            )
        # the native report, equalized odds and the baseline-pdr rate share it
        self.baseline_at_half = decide(self.baseline_test, self.dataset, AT_HALF)
        for m in self.cfg["methods"]:
            kind = m.get("kind")
            name = m.get("name", kind)
            if kind == "feature-repair":
                repaired = disparate_impact_remove(
                    self.dataset, float(m.get("repair_level", 1.0)),
                    m.get("columns"),
                )
                refit = fit(repaired, self.splits, self.scorer.config,
                            include_sensitive=bool(self.cfg["scorer"]["include_sensitive"]))
                scores = score(refit, repaired, test_ids, method=name, role="test")
            elif kind == "group-thresholds":
                gt = fit_threshold_optimizer(
                    self.baseline_validation, self.dataset, val_ids,
                    rate=m.get("rate"),
                )
                self.fit_artifacts[name] = gt.to_text()
                scores = relabel(self.baseline_test, name)
                self.native_decisions[name] = apply_group_thresholds(gt, scores, self.dataset)
            elif kind == "reject-option":
                res = reject_option_classify(
                    self.baseline_validation, self.dataset, val_ids,
                    epsilon=float(m.get("epsilon", 0.02)),
                )
                self.fit_artifacts[name] = res.region.to_text()
                scores = relabel(self.baseline_test, name)
                self.native_decisions[name] = apply_reject_option(
                    res.region, self.baseline_test, self.dataset, test_ids, method=name,
                )
            elif kind == "equalized-odds":
                base_val = decide(self.baseline_validation, self.dataset, AT_HALF)
                mixing = fit_equalized_odds_post(
                    base_val, self.dataset, val_ids, seed=int(m.get("seed", 11)),
                )
                self.fit_artifacts[name] = mixing.to_text()
                scores = relabel(self.baseline_test, name)
                self.native_decisions[name] = apply_mixing(
                    mixing, self.baseline_at_half, self.dataset, test_ids, method=name,
                )
            elif kind == "external-scores":
                full = ingest_external_scores(m["path"], self.dataset, name)
                try:
                    pos = positions_in(full.instance_ids, test_ids)
                except UnknownId as exc:
                    raise ConfigError(
                        f"external scores {m['path']} lack test ids: {exc}"
                    ) from exc
                scores = ScoreSet(method=name, instance_ids=test_ids,
                                  scores=full.scores[pos], produced_on="test")
            else:
                raise ConfigError(f"unknown method kind {kind!r}")
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
            policy = _make_policy(doc, self._rate)
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
            "method_seeds": {m.get("name", m.get("kind")): m["seed"]
                             for m in self.cfg["methods"] if "seed" in m},
            "postprocessors_fitted_on": "validation",
            "metrics_reported_on": "test",
        }

    def audit(self, write_decisions: bool = True):
        provenance = self._provenance()
        _write_json(self.out / "provenance.json",
                    {**provenance, "expanded_config": self.cfg})
        scored = audit_scores(self.dataset, self.baseline_test,
                              self.method_scores, self.cfg["tau_variant"])

        # native report: every method under its own decision context;
        # rate-controlled reports: same policy applied to every score set
        native_policy = DecisionPolicy(kind="fixed-threshold", threshold=0.5,
                                       note="method-native contexts")
        native = {self.baseline_test.method: self.baseline_at_half,
                  **self.native_decisions}
        contexts = [("native", native_policy, native)]
        contexts += [(label, policy, None) for label, policy in self._policies()]
        reports = []
        for label, policy, own in contexts:
            report = build_report(self.dataset, scored, policy,
                                  provenance=provenance, decisions=own)
            report.policy_label = label
            self._emit_report(report, write_decisions)
            reports.append(report)
        return reports

    def _emit_report(self, report: AuditReport, write_decisions: bool):
        label = _slug(report.policy_label)
        for method, (ids, group, base, mitigated, quadrant) in report.scatter.items():
            path = self.out / f"scatter_{label}_{_slug(method)}.csv"
            write_csv(path, ["id", "group", "score_base", "score_mitigated", "quadrant"],
                      zip(ids.tolist(), group.tolist(), float_text(base),
                          float_text(mitigated), quadrant.tolist()))
            report.scatter_files[method] = path.name
        _write_json(self.out / f"report_{label}.json", report.to_dict())
        write_csv(
            self.out / f"tau_vs_baseline_{label}.csv",
            ["method", "tau_overall", "tau_protected", "tau_privileged"],
            [(m, repr(t["overall"]), repr(t["protected"]), repr(t["privileged"]))
             for m, t in report.tau_vs_baseline.items()],
        )
        write_csv(
            self.out / f"correlation_matrix_{label}.csv",
            ["method"] + report.pairwise_methods,
            [[m] + [repr(v) for v in row]
             for m, row in zip(report.pairwise_methods, report.pairwise_tau)],
        )
        if write_decisions:
            self._write_decisions(report.policy_label, report.decisions)

    def _write_decisions(self, label: str, decisions: dict[str, DecisionSet]):
        for scores in [self.baseline_test] + self.method_scores:
            export_decisions(
                decisions[scores.method], self.dataset, scores,
                self.out / f"decisions_{_slug(label)}_{_slug(scores.method)}.csv",
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
        self.ingest().train().mitigate()
        self.dataset.export_csv(self.out / "dataset_export.csv")
        return self.audit(write_decisions=True)


# --- theory command ---------------------------------------------------------------------

def _make_world(name: str, grid_size: int):
    if name == "wage-gap":
        return wage_gap_world(grid_size)
    if name == "anti-monotone":
        return anti_monotone_world(grid_size)
    raise ConfigError(f"unknown world {name!r}")


def cmd_theory(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    w = _make_world(args.world, args.grid_size)
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
    elif check == "decompose":
        doc = {str(tau): decomposition_check(w, tau).to_dict() for tau in args.tau}
        _write_json(out / f"decomposition_{args.world}.json", doc)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        raise ConfigError(f"unknown theory check {check!r}")
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
    warning = "uncontrolled-rate" if uncontrolled else ""
    write_csv(Path(out_path), ["report", "method"] + keys + ["warning"],
              [[name, method] + [repr(m[k]) for k in keys] + [warning]
               for name, doc in reports for method, m in sorted(doc["rows"].items())])
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
    t.add_argument("--world", choices=("wage-gap", "anti-monotone"),
                   default="wage-gap")
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

        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg.setdefault("split", dict(DEFAULT_SPLIT))["seed"] = args.seed
        pipeline = Pipeline(cfg, Path(args.out))
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
    except AuditError as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - surfaced as exit status
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
