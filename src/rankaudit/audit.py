"""Performance, fairness, and rank-similarity metrics plus the report builder.

AUC and Kendall-Tau are computed by O(n log n) rank algorithms that agree
exactly with brute-force pair enumeration; the test suite holds them to
that oracle.  The shared pair counter returns 0 after one O(n) pass when
no pair can exceed, so a tau between two identically ordered rankings (and
a passing monotonicity check in `worlds`) costs one pass, not a merge;
a tau between a ranking and its reversal costs one search.
The audit has two steps.  `audit_scores` runs once per run and holds
what depends only on the scores: AUC (overall and per group), Kendall-Tau
against the baseline ranking (overall and per group) and a pairwise tau
matrix.  `build_report` runs once per decision policy and reports on the
decisions it is given: accuracy, SPD, EOD, PDR, per-group quadrant
transition counts and each row's quadrant.  It never decides or sees a policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .dataset import Dataset, require_aligned
from .decide import DecisionSet
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

# a row's quadrant name, indexed by 2 * its base label + its mitigated label
_QUADRANT_NAMES = np.array(["kept_negative", "upgraded", "downgraded", "kept_positive"],
                           dtype=object)


# --- rank machinery ----------------------------------------------------------

def _count_exceeding_pairs(seq: np.ndarray, tol: float = 0.0) -> int:
    """Pairs i < j with seq[i] > seq[j] + tol, counted by merge passes.

    One O(n) pass first compares each row with the highest row before it,
    in the merge's own expression (right + tol); when none exceeds, no
    pair can, and 0 is returned without sorting.  A non-increasing seq is
    counted by one search of its reversal, which is ascending: there every
    row above s[j] + tol comes before j.  Otherwise the passes sort a padded
    copy of seq in place, run by run; seq itself is never written.
    """
    s = np.asarray(seq, dtype=np.float64)
    n = len(s)
    if n < 2 or not (np.maximum.accumulate(s)[:-1] > s[1:] + tol).any():
        return 0
    if (s[:-1] >= s[1:]).all():
        return n * n - int(np.searchsorted(s[::-1], s + tol, side="right").sum())
    block = 64
    s = np.concatenate([s, np.full((-n) % block, np.inf)])  # the copy that is sorted
    blocks = s.reshape(-1, block)
    upper = np.triu(np.ones((block, block), dtype=bool), 1)  # i < j inside a block
    total = 0
    for lo in range(0, len(blocks), 256):  # 256 blocks, two 1 MB masks, at a time
        chunk = blocks[lo:lo + 256]
        total += int(np.count_nonzero((chunk[:, :, None] > chunk[:, None, :] + tol) & upper))
    blocks.sort(axis=1)
    size = block
    while size < len(s):
        for lo in range(0, len(s) - size, 2 * size):  # each run that has a right neighbour
            left = s[lo:lo + size]
            found = np.searchsorted(left, s[lo + size:lo + 2 * size] + tol, side="right")
            total += int((size - found).sum())
            s[lo:lo + 2 * size].sort()
        size *= 2
    return total


def _tie_pairs(tied: np.ndarray) -> int:
    """Pairs inside the runs of a sorted vector v, given tied = v[1:] == v[:-1]."""
    starts = np.flatnonzero(np.r_[True, ~tied])
    counts = np.diff(np.r_[starts, len(tied) + 1]).astype(np.int64)
    return int((counts * (counts - 1) // 2).sum())


def _midranks(v: np.ndarray, order: np.ndarray | None = None) -> np.ndarray:
    """1-based ranks, ties sharing their run's mean rank; order: v's stable argsort."""
    order = np.argsort(v, kind="stable") if order is None else order
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
    if variant not in ("tau-a", "tau-b"):
        raise ValueError(f"unknown variant {variant!r}")
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
    denom = math.sqrt(float(n0 - n1) * float(n0 - n2))
    if denom == 0.0:
        return float("nan")
    return float(conc - disc) / denom


def spd(dec: DecisionSet, d: Dataset) -> float:
    """Protected positive rate minus privileged positive rate."""
    prot, _ = d.cohort(dec.instance_ids)
    if not prot.any() or prot.all():
        raise EmptyGroup("SPD needs both groups present")
    labels = dec.labels
    return float(labels[prot].mean() - labels[~prot].mean())


def eod(dec: DecisionSet, d: Dataset) -> float:
    """Protected TPR minus privileged TPR."""
    prot, truth = d.cohort(dec.instance_ids)
    positives = crosstab(~prot, truth, dec.labels)[:, 1]  # [group, decision]
    for name, n in zip(("protected", "privileged"), positives.sum(axis=1)):
        if not n:
            raise NoPositivesInGroup(f"no positive instances in {name} group")
    tpr = positives[:, 1] / positives.sum(axis=1)
    return float(tpr[0] - tpr[1])


def accuracy(dec: DecisionSet, d: Dataset) -> float:
    _, truth = d.cohort(dec.instance_ids)
    return float((dec.labels == truth).mean())


def crosstab(first, a, b) -> np.ndarray:
    """Counts of the rows in each cell of three aligned 0/1 arrays:
    entry [i, j, k] counts the rows with first == i, a == j and b == k."""
    return np.bincount(4 * first + 2 * a + b, minlength=8).reshape(2, 2, 2)


def quadrant_analysis(base: DecisionSet, mitigated: DecisionSet, d: Dataset):
    """Per-group 2x2 transition counts and each row's transition.

    Returns (counts, quadrant) where counts maps group name to a
    {quadrant name: count} dict and quadrant holds each row's quadrant
    name, aligned with base.instance_ids.
    """
    require_aligned(base.instance_ids, mitigated.instance_ids, "quadrant ids")
    prot, _ = d.cohort(base.instance_ids)
    cells = crosstab(~prot, base.labels, mitigated.labels)  # [group, base, mitigated]
    counts = {name: dict(zip(_QUADRANT_NAMES, c.ravel().tolist()))
              for name, c in zip(("protected", "privileged"), cells)}
    return counts, _QUADRANT_NAMES[2 * base.labels + mitigated.labels]


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
    pairwise_tau: dict      # methods, and the matrix as nested lists


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
                prot, truth = d.cohort(ss.instance_ids)
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

    matrix = np.eye(len(score_sets))  # the diagonal is exactly 1.0
    for i, j in zip(*np.triu_indices(len(score_sets), 1)):
        matrix[i, j] = matrix[j, i] = tau(score_sets[i].scores, score_sets[j].scores)
    return ScoreAudit(
        score_sets=score_sets,
        auc=aucs,
        tau_vs_baseline=taus,
        pairwise_tau={"methods": [ss.method for ss in score_sets], "matrix": matrix.tolist()},
    )


@dataclass(frozen=True)
class AuditReport:
    """What one set of decisions determines."""

    rows: dict
    quadrants: dict
    scatter: dict = field(repr=False)  # method -> row quadrants

    def to_dict(self) -> dict:
        """Every field but scatter."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "scatter"}


def build_report(d: Dataset, scored: ScoreAudit,
                 decisions: dict[str, DecisionSet]) -> AuditReport:
    """Assemble the audit of one set of decisions.

    decisions maps each score set's method name to its DecisionSet, made
    under one policy or by the method itself (the postprocessors); a
    missing method is a ValueError.
    """
    if missing := [ss.method for ss in scored.score_sets if ss.method not in decisions]:
        raise ValueError(f"no decision set for method(s) {', '.join(missing)}")
    baseline = scored.score_sets[0]
    rows, quadrants, scatter = {}, {}, {}
    for ss in scored.score_sets:
        try:
            dec = decisions[ss.method]
            require_aligned(baseline.instance_ids, dec.instance_ids, ss.method)
            rows[ss.method] = {
                **scored.auc[ss.method],
                "acc": accuracy(dec, d),
                "spd": spd(dec, d),
                "eod": eod(dec, d),
                "pdr": dec.realized_pdr,
            }
            if ss is not baseline:
                quadrants[ss.method], scatter[ss.method] = quadrant_analysis(
                    decisions[baseline.method], dec, d)
        except AuditError as exc:
            raise _with_context(ss.method, exc)

    return AuditReport(rows=rows, quadrants=quadrants, scatter=scatter)
