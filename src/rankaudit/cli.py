"""Command-line pipeline: ingest -> train -> mitigate -> decide -> audit.

Every run is reproducible from its config: all seeds are explicit, every
artifact is written atomically, and report JSON is byte-identical across
re-runs.  A config and the `theory` flags are checked before any compute,
by errors.RULES, the rules every library entry point checks its values by.
`compare` refuses to put reports side by side when their realized positive
rates differ materially, unless explicitly overridden: metrics taken at
very different selection rates describe different decision problems.
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
from .audit import audit_scores, build_report
from .dataset import (
    Dataset, DatasetSpec, atomic_open, builtin_specs, float_text, ingest,
    split, verify_base_rate, write_csv,
)
from .decide import POLICY_FIELDS, DecisionPolicy, DecisionSet, decide, export_decisions
from .errors import NAME, RATE, RULES, AuditError, ConfigError, PolicyMismatch, require
from .mitigate import (
    CUT,
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
    threshold_decision,
    wage_gap_world,
)

log = logging.getLogger("rankaudit")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

PDR_COMPARE_TOLERANCE = 0.05

NATIVE = DecisionPolicy("fixed-threshold", threshold=CUT, note="method-native contexts")


# --- small file helpers -----------------------------------------------------------

def _nan_to_none(doc):
    """doc with every nan float replaced by None, which JSON writes as null."""
    if isinstance(doc, dict):
        return {k: _nan_to_none(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_nan_to_none(v) for v in doc]
    return None if isinstance(doc, float) and math.isnan(doc) else doc


def _write_json(path: Path, doc) -> None:
    """Strict JSON: an undefined value (a nan tau) is written as null."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(_nan_to_none(doc), indent=2, sort_keys=True,
                            allow_nan=False) + "\n")


def _slug(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "-" for c in label)


def _distinct_slugs(names, what: str) -> None:
    """ConfigError when two of names would write files of one name."""
    slugs = [_slug(name) for name in names]
    for i, slug in enumerate(slugs):
        if slug in slugs[:i]:
            raise ConfigError(f"{what} {names[slugs.index(slug)]!r} and {names[i]!r} both "
                              f"map to file name {slug!r}")


# --- config -------------------------------------------------------------------------
#
# SCHEMA, METHODS and POLICIES give each key a config may carry: what its value must
# be (a key of errors.RULES) and its default; the scorer keys are ScorerConfig's own.
# _load_config writes every default into the config (method entries with their kinds'
# defaults), so a config that spells out a default hashes as one that leaves it out.

REQUIRED = object()

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
    "scorer": {key: (what, getattr(ScorerConfig, key))  # each field's rule and default
               for key, what in ScorerConfig.FIELD_RULES.items()},
    # the keys of every method and every policy; a method's name defaults to its kind
    "method": {"kind": ("anything", REQUIRED), "name": (NAME, REQUIRED)},
    "policy": {"kind": ("anything", REQUIRED)},
}
METHODS = {  # feature-repair columns are also checked against the spec
    "feature-repair": {"repair_level": ("a number in [0, 1]", 1.0),
                       "columns": ("null or a list of column names", None)},
    "group-thresholds": {"rate": ("null or a number in [0, 1]", None)},
    "reject-option": {"epsilon": ("a finite number > 0", 0.02)},
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


def _policy(doc: dict, resolve) -> tuple[str, DecisionPolicy]:
    """A policy entry's label and policy; resolve(ref) is the rate that a
    "baseline-pdr" or "base-rate" reference stands for.  A policy with such
    a reference notes it, so its label ends in the reference."""
    kind = doc["kind"]
    (key,), (field, count) = POLICIES[kind], POLICY_FIELDS[kind]
    note = doc[key] if isinstance(doc[key], str) else ""
    number = float(resolve(note) if note else doc[key])  # per-group-rates: one for each group
    policy = DecisionPolicy(kind=kind, note=note,
                            **{field: (number,) * count if count > 1 else number})
    return policy.label() + (f"-{_slug(note)}" if note else ""), policy


def _load_config(path: str) -> tuple[dict, DatasetSpec]:
    """The config at path checked against SCHEMA, with every default filled
    in (method entries with their kinds' defaults), and its dataset spec."""
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, or not UTF-8 JSON
        raise ConfigError(f"cannot read config {path}: {exc}")
    if type(cfg) is not dict:
        raise ConfigError("config must be a JSON object")
    cfg = _checked(cfg, SCHEMA["config"], "config")
    for section in ("split", "scorer", "dataset"):
        cfg[section] = _checked(cfg[section], SCHEMA[section], section)
    spec = _resolve_spec(cfg["dataset"]["spec"])
    numeric = {c.name for c in spec.feature_columns if c.kind == "numeric"}
    cfg["methods"] = methods = [_entry(m, "method", METHODS) for m in cfg["methods"]]
    for m in methods:
        if not numeric.issuperset(m.get("columns") or ()):
            raise ConfigError(f"method {m['name']!r}: columns must be numeric feature "
                              f"columns of spec {spec.name!r}, got {m['columns']}")
    _distinct_slugs([m["name"] for m in methods], "methods")
    policies = [_entry(doc, "policy", POLICIES) for doc in cfg["policies"]]
    # a numeric label ends in a number and a reference's label in the reference, so
    # distinct numeric labels and each (kind, reference) once rule out every clash
    _distinct_slugs([_policy(doc, None)[0] for doc in policies
                     if not isinstance(doc.get("rate"), str)], "policies")
    refs = [(doc["kind"], doc["rate"]) for doc in policies if isinstance(doc.get("rate"), str)]
    for i, (kind, ref) in enumerate(refs):
        if (kind, ref) in refs[:i]:
            raise ConfigError(f"two {kind} policies with rate {ref!r} map to one file name")
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
        self.methods = cfg["methods"]  # entries with their kinds' defaults
        self.spec = spec
        self.out = out_dir
        self.out.mkdir(parents=True, exist_ok=True)
        self.dataset: Dataset | None = None
        self.splits = None
        self.scorer = None
        self.baseline_test = None
        self.baseline_validation = None
        self.external: dict[str, ScoreSet] = {}  # test scores by method name
        self.method_scores: list[ScoreSet] = []
        self.native: dict[str, DecisionSet] = {}  # the baseline's at 0.5, each postprocessor's

    def ingest(self, export: Path | None):
        """Read the dataset (writing export while reading it, if given),
        check its base rate, split it and read external scores."""
        self.dataset = ingest(self.cfg["dataset"]["csv"], self.spec, export)
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

    def _external_scores(self, path: str, name: str) -> ScoreSet:
        """A method's external test scores; a bad file is a ConfigError."""
        try:
            return ingest_external_scores(path, self.dataset, self.splits.test_ids, name)
        except AuditError as exc:
            raise ConfigError(f"method {name!r}: external scores are malformed "
                              f"or lack test ids: {exc}") from exc

    def train(self):
        postprocessors = [m for m in self.methods if m["kind"] in
                          ("group-thresholds", "reject-option", "equalized-odds")]
        for part, ids, user in (
                ("train", self.splits.train_ids, "the scorer fits on it"),
                ("validation", self.splits.validation_ids,
                 f"method {postprocessors[0]['name']!r} fits on it" if postprocessors else None),
                ("test", self.splits.test_ids, "the audit reports on it")):
            if len(ids) == 0 and user:
                raise ConfigError(f"split fractions {self.cfg['split']['fractions']} leave the "
                                  f"{part} partition of {self.dataset.n} rows empty, but {user}")
        # each (partition, group, label) cell that must hold a row, and who needs it;
        # group 1 is protected, label 1 favorable and label None either label
        cells = [(1, 1), (1, 0), (0, 1), (0, 0)]
        needs = [("validation", group, label if m["kind"] == "equalized-odds" else None,
                  f"method {m['name']!r} fits on it")
                 for m in postprocessors for group, label in cells]
        needs += [("test", group, label, "the audit reports per-group AUC and EOD on it")
                  for group, label in cells]
        cohorts = {"validation": self.dataset.cohort(self.splits.validation_ids),
                   "test": self.dataset.cohort(self.splits.test_ids)}
        spec = self.dataset.schema
        for part, group, label, user in needs:
            prot, truth = cohorts[part]
            if not ((prot == group) & (label is None or truth == label)).any():
                raise ConfigError(
                    f"the {part} partition has no row with {spec.protected_attribute_column} "
                    f"{('!=', '=')[group]} {spec.protected_value!r}"
                    + (f" and {spec.target_column} {('!=', '=')[label]} {spec.favorable_value!r}"
                       if label is not None else "") + f", but {user}")
        self.scorer = fit(self.dataset, self.splits, ScorerConfig(**self.cfg["scorer"]))
        save_scorer(self.scorer, self.out / "scorer.txt")
        self.baseline_validation = score(self.scorer, self.dataset,
                                         self.splits.validation_ids)
        self.baseline_test = score(self.scorer, self.dataset, self.splits.test_ids)
        self._write_scores(self.baseline_test)

    def _write_scores(self, scores):
        """Every score set a run writes is on the test split."""
        write_csv(self.out / f"scores_{_slug(scores.method)}_test.csv", ["instance_id", "score"],
                  [map(str, scores.instance_ids.tolist()), float_text(scores.scores)])

    def mitigate(self):
        # the native report and the baseline-pdr rate share it
        self.native[self.baseline_test.method] = decide(self.baseline_test, self.dataset, NATIVE)
        # each postprocessor's fit, apply and config key, looked up per run so
        # that a wrapped module attribute is the one called
        postprocessors = {
            "group-thresholds": (fit_threshold_optimizer, apply_group_thresholds, "rate"),
            "reject-option": (reject_option_classify, apply_reject_option, "epsilon"),
            "equalized-odds": (fit_equalized_odds_post, apply_mixing, "seed"),
        }
        for m in self.methods:
            kind, name = m["kind"], m["name"]
            if kind == "feature-repair":
                repaired = disparate_impact_remove(
                    self.dataset, float(m["repair_level"]), m["columns"],
                )
                refit = fit(repaired, self.splits, self.scorer.config)
                scores = score(refit, repaired, self.splits.test_ids, method=name)
            elif kind == "external-scores":
                scores = self.external[name]
            else:  # a postprocessor: fitted on validation, decides on test
                fit_on, apply_to, key = postprocessors[kind]
                fitted = fit_on(self.baseline_validation, self.dataset, m[key])
                scores = relabel(self.baseline_test, name)
                self.native[name] = apply_to(fitted, scores, self.dataset)
                with atomic_open(self.out / f"fitted_{_slug(name)}.txt") as fh:
                    fh.write(fitted.to_text())
            self.method_scores.append(scores)
        for scores in self.method_scores:  # a postprocessor's scores are the baseline's
            if scores.scores is not self.baseline_test.scores:
                self._write_scores(scores)

    def _policies(self) -> list[tuple[str, DecisionPolicy]]:
        return [_policy(doc, self._rate) for doc in self.cfg["policies"]]

    def _rate(self, ref: str) -> float:
        if ref == "baseline-pdr":
            return self.native[self.baseline_test.method].realized_pdr
        _, truth = self.dataset.cohort(self.splits.test_ids)  # base-rate
        return float(truth.mean())

    def _provenance(self) -> dict:
        return {
            "tool_version": __version__,
            "config_hash": _config_hash(self.cfg),
            "dataset": self.spec.name,
            "split_sizes": dict(zip(("train", "validation", "test"),
                                    self.splits.sizes())),
            "split_seed": self.splits.seed,
            "method_seeds": {m["name"]: m["seed"] for m in self.methods if "seed" in m},
            "postprocessors_fitted_on": "validation",
            "metrics_reported_on": "test",
        }

    def audit(self, write_decisions: bool):
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
        pairwise = scored.pairwise_tau
        write_csv(self.out / "correlation_matrix.csv", ["method"] + pairwise["methods"],
                  [pairwise["methods"]] + [list(map(repr, column))
                                           for column in zip(*pairwise["matrix"])])
        # what every report file shares: the run's score-level audit and provenance
        frame = {"methods": pairwise["methods"], "tau_vs_baseline": taus,
                 "pairwise_tau": pairwise, "provenance": provenance}

        # native report: every method under its own decision context;
        # rate-controlled reports: same policy applied to every score set
        contexts = [("native", NATIVE, self.native)]
        contexts += [(label, policy, {}) for label, policy in self._policies()]
        for label, policy, own in contexts:
            decisions = self._decisions(policy, own)
            report = build_report(self.dataset, scored, decisions)
            _write_json(self.out / f"report_{_slug(label)}.json", {
                **frame, "policy_label": label, "policy": policy.describe(),
                **report.to_dict()})
            if write_decisions:
                self._write_decisions(label, decisions)

    def _decisions(self, policy: DecisionPolicy, own: dict) -> dict[str, DecisionSet]:
        """Each score set's decisions by method: its own in own, else under
        policy, decided once per scores array (a postprocessor's is the
        baseline's, so it shares the baseline's DecisionSet)."""
        decided = {}
        for ss in [self.baseline_test] + self.method_scores:
            if ss.method not in own and id(ss.scores) not in decided:
                decided[id(ss.scores)] = decide(ss, self.dataset, policy)
        return {ss.method: own[ss.method] if ss.method in own else decided[id(ss.scores)]
                for ss in [self.baseline_test] + self.method_scores}

    def _write_decisions(self, label: str, decisions: dict[str, DecisionSet]):
        """One table per decision context: every method's labels, the baseline's first."""
        export_decisions(decisions[self.baseline_test.method], self.dataset, decisions,
                         self.out / f"decisions_{_slug(label)}.csv")

    def decide_all(self):
        """A decisions table for every configured policy, without the audit."""
        for label, policy in self._policies():
            self._write_decisions(label, self._decisions(policy, {}))


# --- theory command ---------------------------------------------------------------------

WORLDS = {"wage-gap": wage_gap_world, "anti-monotone": anti_monotone_world}


def cmd_theory(args) -> int:
    for flag, values, what in (  # checked before any world is built
            ("--grid-size", [args.grid_size], "an integer >= 2"),
            ("--tau", args.tau, "a number in (0, 1)"),
            ("--tolerance", [args.tolerance], "a finite number >= 0"),
            ("--cut", [args.cut], "a finite number")):
        for v in values:
            require(v, flag, what, ConfigError)
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
        doc = {basis: pareto_check(w, dec, basis).to_dict() for basis in ("unfair", "fair")}
        _write_json(out / f"pareto_{args.world}.json", doc)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:  # decompose
        doc = {str(tau): decomposition_check(w, tau).to_dict() for tau in args.tau}
        _write_json(out / f"decomposition_{args.world}.json", doc)
        print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


# --- compare command ---------------------------------------------------------------------

COMPARED = ["auc", "auc_protected", "auc_privileged", "acc", "spd", "eod", "pdr"]


def _read_report(path: str) -> dict:
    """The report at path; ConfigError unless it holds a str policy_label and a
    non-empty rows object whose every row has a finite number for each compared key."""
    try:
        doc = json.loads(Path(path).read_text("utf-8"))
    except (OSError, ValueError) as exc:  # missing, unreadable, or not UTF-8 JSON
        raise ConfigError(f"cannot read report {path}: {exc}")
    rows = doc.get("rows") if type(doc) is dict else None
    if type(rows) is not dict or not rows or type(doc.get("policy_label")) is not str or not all(
            type(r) is dict and all(RULES["a finite number"](r.get(k)) for k in COMPARED)
            for r in rows.values()):
        raise ConfigError(f"report {path} needs a str policy_label and a non-empty rows object "
                          f"with a finite number for each of {', '.join(COMPARED)} in every row")
    return doc


def cmd_compare(paths: list[str], out_path: str,
                allow_uncontrolled: bool = False) -> int:
    if len(paths) < 2:
        raise ConfigError("compare needs at least two report files")
    reports = [(Path(p).stem, _read_report(p)) for p in paths]

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

    rows = [(name, method, m) for name, doc in reports
            for method, m in sorted(doc["rows"].items())]
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    write_csv(Path(out_path), ["report", "method"] + COMPARED + ["warning"],
              [[r[0] for r in rows], [r[1] for r in rows]]
              + [[repr(m[k]) for _, _, m in rows] for k in COMPARED]
              + [["uncontrolled-rate" if uncontrolled else ""] * len(rows)])
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

        command, out = args.command, Path(args.out)  # each runs a prefix of the stages
        pipeline = Pipeline(*_load_config(args.config), out)
        pipeline.ingest(out / "dataset_export.csv" if command in ("ingest", "run") else None)
        if command != "ingest":
            pipeline.train()
        if command not in ("ingest", "train"):
            pipeline.mitigate()
        if command == "decide":
            pipeline.decide_all()
        elif command in ("audit", "run"):
            pipeline.audit(write_decisions=command == "run")
        return EXIT_OK
    except (ConfigError, PolicyMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - surfaced as exit status
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
