"""Performance, fairness, and rank-similarity metrics plus the report builder.

AUC and Kendall-Tau are computed by O(n log n) rank algorithms that agree
exactly with brute-force pair enumeration; the test suite holds them to
that oracle.  The audit has two steps.  `audit_scores` runs once per run
and holds what depends only on the scores: AUC (overall and per group),
Kendall-Tau against the baseline ranking (overall and per group) and a
pairwise tau matrix.  `build_report` runs once per decision policy and
adds accuracy, SPD, EOD, PDR, per-group quadrant transition counts and
each row's quadrant.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import Dataset, PROTECTED, require_aligned
from .decide import DecisionPolicy, DecisionSet, decide
from .errors import (
    AuditError,
    EmptyGroup,
    LengthMismatch,
    NoPositivesInGroup,
    ScoreOutOfRange,
    SingleClass,
    TooShort,
)
from .scorer import ScoreSet

QUADRANTS = ("kept_negative", "upgraded", "kept_positive", "downgraded")
_QUADRANT_NAMES = np.array(QUADRANTS, dtype=object)


# --- rank machinery ----------------------------------------------------------

def _count_exceeding_pairs(seq: np.ndarray, tol: float = 0.0) -> int:
    """Pairs i < j with seq[i] > seq[j] + tol, counted by merge passes."""
    n = len(seq)
    if n < 2:
        return 0
    block = 64
    pad = (-n) % block
    s = np.concatenate([np.asarray(seq, dtype=np.float64), np.full(pad, np.inf)])
    blocks = s.reshape(-1, block)
    i_idx = np.arange(block)
    inside = (blocks[:, :, None] > blocks[:, None, :] + tol) \
        & (i_idx[:, None] < i_idx[None, :])
    total = int(inside.sum())
    flat = np.sort(blocks, axis=1).ravel()
    size = block
    m = len(s)
    while size < m:
        pieces = []
        for start in range(0, m, 2 * size):
            left = flat[start:start + size]
            right = flat[start + size:start + 2 * size]
            if len(right):
                found = np.searchsorted(left, right + tol, side="right")
                total += int((len(left) - found).sum())
                pieces.append(np.sort(np.concatenate([left, right])))
            else:
                pieces.append(left)
        flat = np.concatenate(pieces)
        size *= 2
    return total


def _tie_pairs(tied: np.ndarray) -> int:
    """Pairs inside the runs of a sorted vector v, given tied = v[1:] == v[:-1]."""
    starts = np.flatnonzero(np.r_[True, ~tied])
    counts = np.diff(np.r_[starts, len(tied) + 1]).astype(np.int64)
    return int((counts * (counts - 1) // 2).sum())


def _midranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing the mean rank of their run."""
    order = np.argsort(v, kind="stable")
    sv = v[order]
    n = len(v)
    starts = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
    ends = np.r_[starts[1:], n]
    avg = (starts + ends + 1) / 2.0
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(avg, ends - starts)
    return ranks


# --- metrics -------------------------------------------------------------------

def _require_finite(*vectors: np.ndarray) -> None:
    for v in vectors:
        if not np.isfinite(v).all():
            raise ScoreOutOfRange("rank metrics need finite values")


def auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative.

    Rank-based with mid-ranks, so tied scores count one half.  Raises
    SingleClass unless both classes are present.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if len(s) != len(y):
        raise LengthMismatch(f"scores {len(s)} vs labels {len(y)}")
    _require_finite(s)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClass(f"need both classes, got {n_pos} pos / {n_neg} neg")
    r_pos = float(_midranks(s)[y == 1].sum())
    return (r_pos - n_pos * (n_pos + 1) / 2.0) / (float(n_pos) * float(n_neg))


def kendall_tau(x, y, variant: str = "tau-b") -> float:
    """Rank correlation from concordant/discordant pair counts.

    tau-a divides by all pairs (ties count in neither direction); tau-b
    corrects both denominators for ties.  Discordances are the pairs that
    descend in y once sorted by (x, y), counted by merge passes in
    O(n log n) (Knight 1966); results match pair enumeration exactly.
    Returns nan for tau-b when either vector is constant.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y):
        raise LengthMismatch(f"lengths {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise TooShort("need at least two observations")
    _require_finite(x, y)
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    disc = _count_exceeding_pairs(ys)
    x_tied = xs[1:] == xs[:-1]
    y_sorted = np.sort(y)
    n0 = n * (n - 1) // 2
    n1 = _tie_pairs(x_tied)
    n2 = _tie_pairs(y_sorted[1:] == y_sorted[:-1])
    n3 = _tie_pairs(x_tied & (ys[1:] == ys[:-1]))
    conc = n0 - n1 - n2 + n3 - disc
    if variant == "tau-a":
        return float(conc - disc) / float(n0)
    if variant == "tau-b":
        denom = math.sqrt(float(n0 - n1) * float(n0 - n2))
        if denom == 0.0:
            return float("nan")
        return float(conc - disc) / denom
    raise ValueError(f"unknown variant {variant!r}")


def _group_masks(dec: DecisionSet, d: Dataset):
    pos = d.positions_of(dec.instance_ids)
    prot = d.sensitive[pos] == PROTECTED
    return pos, prot


def spd(dec: DecisionSet, d: Dataset) -> float:
    """Protected positive rate minus privileged positive rate."""
    _, prot = _group_masks(dec, d)
    if not prot.any() or prot.all():
        raise EmptyGroup("SPD needs both groups present")
    labels = dec.labels
    return float(labels[prot].mean() - labels[~prot].mean())


def eod(dec: DecisionSet, d: Dataset) -> float:
    """Protected TPR minus privileged TPR."""
    pos, prot = _group_masks(dec, d)
    truth = d.label[pos]
    rates = []
    for mask, name in ((prot, "protected"), (~prot, "privileged")):
        positives = mask & (truth == 1)
        if not positives.any():
            raise NoPositivesInGroup(f"no positive instances in {name} group")
        rates.append(float(dec.labels[positives].mean()))
    return rates[0] - rates[1]


def accuracy(dec: DecisionSet, d: Dataset) -> float:
    pos, _ = _group_masks(dec, d)
    return float((dec.labels == d.label[pos]).mean())


@dataclass(frozen=True)
class QuadrantCounts:
    """Per-group label transition counts between two decision sets."""

    kept_negative: int
    upgraded: int
    kept_positive: int
    downgraded: int

    @property
    def total(self) -> int:
        return self.kept_negative + self.upgraded + self.kept_positive + self.downgraded

    def to_dict(self) -> dict:
        return asdict(self)


def quadrant_analysis(base: DecisionSet, mitigated: DecisionSet, d: Dataset):
    """Per-group 2x2 transition counts and each row's transition.

    Returns (counts, quadrant) where counts maps group name to
    QuadrantCounts and quadrant holds each row's quadrant name, aligned
    with base.instance_ids.
    """
    require_aligned(base.instance_ids, mitigated.instance_ids, "quadrant ids")
    pos = d.positions_of(base.instance_ids)
    prot = d.sensitive[pos] == PROTECTED
    quadrant = np.where(
        base.labels == 0,
        np.where(mitigated.labels == 0, 0, 1),   # kept_negative / upgraded
        np.where(mitigated.labels == 1, 2, 3),   # kept_positive / downgraded
    )
    counts = {}
    for mask, name in ((prot, "protected"), (~prot, "privileged")):
        qc = np.bincount(quadrant[mask], minlength=4)
        counts[name] = QuadrantCounts(int(qc[0]), int(qc[1]), int(qc[2]), int(qc[3]))
    return counts, _QUADRANT_NAMES[quadrant]


def method_correlation_matrix(score_sets: list[ScoreSet],
                              variant: str = "tau-b", tau=None):
    """Symmetric tau matrix across methods; diagonal is exactly 1.0.

    tau(x, y), when given, stands in for kendall_tau(x, y, variant), so a
    caller can reuse the values it already holds.
    """
    if not score_sets:
        return [], np.zeros((0, 0))
    for ss in score_sets[1:]:
        require_aligned(score_sets[0].instance_ids, ss.instance_ids, ss.method)
    tau = tau or (lambda x, y: kendall_tau(x, y, variant))
    names = [ss.method for ss in score_sets]
    k = len(score_sets)
    matrix = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            matrix[i, j] = matrix[j, i] = tau(score_sets[i].scores, score_sets[j].scores)
    return names, matrix


# --- report ---------------------------------------------------------------------

def _with_context(name: str, exc: AuditError) -> AuditError:
    wrapped = type(exc)(f"{name}: {exc}")
    wrapped.__cause__ = exc
    return wrapped


@dataclass(frozen=True)
class ScoreAudit:
    """Metrics that depend only on the scores, shared by every policy's report."""

    score_sets: list        # baseline first
    auc: dict               # method -> auc, auc_protected, auc_privileged
    tau_vs_baseline: dict   # method -> overall, protected, privileged
    pairwise_methods: list
    pairwise_tau: list


def audit_scores(d: Dataset, baseline: ScoreSet, others: list[ScoreSet],
                 tau_variant: str = "tau-b") -> ScoreAudit:
    """Per-group AUC, tau against the baseline and the pairwise tau matrix.

    Every score set must carry a unique name and align with the baseline
    ids, and both groups must be present; errors name the method at fault.
    Score sets that share one scores array (the postprocessors relabel the
    baseline's) share its metrics, computed once: kendall_tau is exactly
    symmetric, so each pair of distinct arrays needs one call.
    """
    names = [ss.method for ss in others]
    if baseline.method in names:
        raise ValueError(f"method name {baseline.method!r} collides with baseline")
    if len(set(names)) != len(names):
        raise ValueError("method names must be unique within a run")

    score_sets = [baseline] + list(others)
    overall = {}  # (id(x), id(y)) -> tau of the two arrays, stored both ways round

    def tau(x, y):
        if (id(x), id(y)) not in overall:
            overall[id(x), id(y)] = overall[id(y), id(x)] = kendall_tau(x, y, tau_variant)
        return overall[id(x), id(y)]

    aucs, taus, done = {}, {}, {}  # done: id(scores) -> its (auc, tau) rows
    for ss in score_sets:
        try:
            require_aligned(baseline.instance_ids, ss.instance_ids, ss.method)
            if id(ss.scores) not in done:
                pos = d.positions_of(ss.instance_ids)
                truth = d.label[pos]
                prot = d.sensitive[pos] == PROTECTED
                if not prot.any() or prot.all():
                    raise EmptyGroup("metrics need both groups in the audited ids")
                b, s = baseline.scores, ss.scores
                done[id(s)] = ({
                    "auc": auc(s, truth),
                    "auc_protected": auc(s[prot], truth[prot]),
                    "auc_privileged": auc(s[~prot], truth[~prot]),
                }, {
                    "overall": tau(b, s),
                    "protected": kendall_tau(b[prot], s[prot], tau_variant),
                    "privileged": kendall_tau(b[~prot], s[~prot], tau_variant),
                })
            aucs[ss.method], taus[ss.method] = map(dict, done[id(ss.scores)])
        except AuditError as exc:
            raise _with_context(ss.method, exc)

    pairwise_names, matrix = method_correlation_matrix(score_sets, tau_variant, tau)
    return ScoreAudit(
        score_sets=score_sets,
        auc=aucs,
        tau_vs_baseline=taus,
        pairwise_methods=pairwise_names,
        pairwise_tau=[[float(v) for v in row] for row in matrix],
    )


@dataclass
class AuditReport:
    provenance: dict
    policy_label: str
    policy: dict
    methods: list
    rows: dict
    tau_vs_baseline: dict
    pairwise_methods: list
    pairwise_tau: list
    quadrants: dict
    scatter: dict = field(default_factory=dict, repr=False)  # method -> row quadrants
    scatter_files: dict = field(default_factory=dict)
    decisions: dict = field(default_factory=dict, repr=False)  # not serialized

    def to_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "policy_label": self.policy_label,
            "policy": self.policy,
            "methods": self.methods,
            "rows": self.rows,
            "tau_vs_baseline": self.tau_vs_baseline,
            "pairwise_tau": {
                "methods": self.pairwise_methods,
                "matrix": self.pairwise_tau,
            },
            "quadrants": self.quadrants,
            "scatter_files": self.scatter_files,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def build_report(d: Dataset, scored: ScoreAudit, policy: DecisionPolicy,
                 provenance: dict | None = None,
                 decisions: dict[str, DecisionSet] | None = None) -> AuditReport:
    """Assemble the full audit for one decision policy.

    decisions maps a method name to the DecisionSet the method made itself
    (the postprocessors); every other score set is decided under policy.
    The DecisionSets used are kept on the report, keyed by method.
    """
    decisions = decisions or {}
    baseline = scored.score_sets[0]
    rows, used, quadrants, scatter = {}, {}, {}, {}
    for ss in scored.score_sets:
        try:
            dec = decisions.get(ss.method)
            if dec is None:
                dec = decide(ss, d, policy)
            else:
                require_aligned(baseline.instance_ids, dec.instance_ids, ss.method)
            rows[ss.method] = {
                **scored.auc[ss.method],
                "acc": accuracy(dec, d),
                "spd": spd(dec, d),
                "eod": eod(dec, d),
                "pdr": dec.realized_pdr,
            }
            used[ss.method] = dec
            if ss is not baseline:
                counts, scatter[ss.method] = quadrant_analysis(used[baseline.method], dec, d)
                quadrants[ss.method] = {g: c.to_dict() for g, c in counts.items()}
        except AuditError as exc:
            raise _with_context(ss.method, exc)

    return AuditReport(
        provenance=provenance or {},
        policy_label=policy.label(),
        policy=policy.describe(),
        methods=[ss.method for ss in scored.score_sets],
        rows=rows,
        tau_vs_baseline=scored.tau_vs_baseline,
        pairwise_methods=scored.pairwise_methods,
        pairwise_tau=scored.pairwise_tau,
        quadrants=quadrants,
        scatter=scatter,
        decisions=used,
    )
