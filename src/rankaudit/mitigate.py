"""The four audited bias-mitigation methods.

Feature repair interpolates each numeric column toward the cross-group
median quantile function, preserving within-group order.  The three
postprocessors (per-group threshold fitting, critical-region label
flipping, and randomized odds-equalizing label mixing) never touch score
values; they only produce decisions.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from . import prng
from .audit import _midranks, crosstab
from .dataset import Dataset, PROTECTED, PRIVILEGED
from .decide import DecisionSet, _check_unit, _count_ceil
from .errors import DegenerateGroup, EmptyGroup, NonNumericColumn
from .scorer import ScoreSet

THETA_GRID = np.arange(51) / 100.0  # 0.00, 0.01, ..., 0.50


# --- feature repair -----------------------------------------------------------

@dataclass(frozen=True)
class RepairedDataset(Dataset):
    repair_level: float = 0.0
    repaired_columns: tuple = ()


def disparate_impact_remove(d: Dataset, repair_level: float,
                            columns: list[str] | None = None) -> RepairedDataset:
    """Interpolate numeric columns toward the groups' median quantile curve.

    repair_level 0 returns the original values exactly; 1 aligns the two
    groups' per-column distributions up to interpolation error.  Within
    each group the value ordering is preserved for every level; tied
    values stay tied.
    """
    lam = float(repair_level)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"repair_level must lie in [0, 1], got {lam}")
    numeric_names = [c.name for c in d.schema.feature_columns if c.kind == "numeric"]
    if columns is None:
        columns = numeric_names
    for col in columns:
        if col not in numeric_names:
            raise NonNumericColumn(f"column {col!r} is not numeric")

    features = d.features.copy()
    prot = d.protected_mask
    group_rows = [np.flatnonzero(prot), np.flatnonzero(~prot)]
    for col in columns:
        j = d.feature_index(col)
        v = d.features[:, j]
        sorted_by_group = []
        u = np.empty(d.n)
        for rows in group_rows:
            if len(rows) == 0:
                continue
            vals = v[rows]
            if len(rows) == 1:
                u[rows] = 0.5
            else:
                u[rows] = (_midranks(vals) - 1.0) / (len(rows) - 1.0)
            sorted_by_group.append(np.sort(vals))
        # median across groups of the group quantile functions at each
        # instance's own within-group rank
        q_stack = np.stack([
            np.interp(u * (len(sv) - 1.0), np.arange(len(sv)), sv)
            if len(sv) > 1 else np.full(d.n, sv[0])
            for sv in sorted_by_group
        ])
        q_median = np.median(q_stack, axis=0)
        features[:, j] = (1.0 - lam) * v + lam * q_median

    return RepairedDataset(**{**vars(d), "features": features, "repair_level": lam,
                              "repaired_columns": tuple(columns)})


# --- per-group threshold fitting ------------------------------------------------

class Fitted:
    """Base of a postprocessor's fitted parameters; subclasses are frozen dataclasses."""

    def to_text(self) -> str:
        """One `name value` line per field in field order; floats at 17
        significant digits, other values as str."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return "".join(f"{name} {v:.17g}\n" if isinstance(v, float) else f"{name} {v}\n"
                       for name, v in values)


@dataclass(frozen=True)
class GroupThresholds(Fitted):
    """Per-group score cutoffs targeting a common selection rate."""

    t_protected: float
    t_privileged: float
    criterion: str  # "demographic-parity" | "selection-rate"
    rate: float


def fit_threshold_optimizer(scores: ScoreSet, d: Dataset,
                            rate: float | None = None) -> GroupThresholds:
    """Per-group cutoffs at the ceil(rate*n_g)-th highest score.

    With rate None the target defaults to the scores' own positive rate at
    threshold 0.5 (demographic parity at the status-quo selection level).
    Realized rates land within 1/n_g of the target when the thresholds are
    applied with boundary-tie completion.
    """
    s = scores.scores
    prot, _ = d.cohort(scores.instance_ids)
    criterion = "selection-rate" if rate is not None else "demographic-parity"
    if rate is None:
        rate = float((s > 0.5).mean())
    _check_unit(rate, "target rate")

    cutoffs = {}
    for g, m in ((PROTECTED, prot), (PRIVILEGED, ~prot)):
        n_g = int(m.sum())
        if n_g == 0:
            raise EmptyGroup(f"group {g} empty in threshold fitting ids")
        k = _count_ceil(rate, n_g)
        if k == 0:
            cutoffs[g] = 1.0  # strictly-above 1.0 selects nothing
        else:
            cutoffs[g] = float(np.sort(s[m])[::-1][k - 1])
    return GroupThresholds(
        t_protected=cutoffs[PROTECTED],
        t_privileged=cutoffs[PRIVILEGED],
        criterion=criterion,
        rate=float(rate),
    )


def apply_group_thresholds(gt: GroupThresholds, scores: ScoreSet,
                           d: Dataset) -> DecisionSet:
    """Label score > t_g, then fill boundary ties (score == t_g) by ascending
    id up to ceil(rate*n_g) in each group."""
    s, ids = scores.scores, scores.instance_ids
    prot, _ = d.cohort(ids)
    labels = np.zeros(len(s), dtype=bool)
    for m, t in ((prot, gt.t_protected), (~prot, gt.t_privileged)):
        chosen = s[m] > t
        short = _count_ceil(gt.rate, int(m.sum())) - int(chosen.sum())
        if short > 0:
            chosen |= np.isin(ids[m], np.sort(ids[m][s[m] == t])[:short])
        labels[m] = chosen
    return DecisionSet(instance_ids=ids, labels=labels.astype(np.int8),
                       policy="per-group-thresholds", source_method=scores.method)


# --- critical-region label flipping ----------------------------------------------

@dataclass(frozen=True)
class CriticalRegion(Fitted):
    """Uncertainty band [0.5 - theta, 0.5 + theta] around the default cut."""

    theta: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= 0.5:
            raise ValueError(f"theta must lie in [0, 0.5], got {self.theta}")


@dataclass(frozen=True)
class RejectOptionResult:
    region: CriticalRegion
    decisions: DecisionSet
    achieved_spd: float
    unchanged: bool  # True when no label differs from plain thresholding


def _band_labels(s: np.ndarray, prot: np.ndarray, theta: float) -> np.ndarray:
    labels = s > 0.5
    if theta > 0.0:
        in_band = (s >= 0.5 - theta) & (s <= 0.5 + theta)
        labels = np.where(in_band, prot, labels)
    return labels.astype(np.int8)


def reject_option_classify(scores: ScoreSet, d: Dataset,
                           epsilon: float) -> RejectOptionResult:
    """Flip labels inside the smallest grid band that evens the rates.

    Inside the band, protected instances become positive and privileged
    ones negative.  theta is the smallest grid value in {0, 0.01, ..., 0.5}
    with |SPD| <= epsilon on the scores, else the grid argmin of |SPD|.
    theta = 0 means plain thresholding at 0.5.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    s = scores.scores
    prot, _ = d.cohort(scores.instance_ids)
    if not prot.any() or prot.all():
        raise EmptyGroup("reject option needs both groups present")

    best_theta, best_abs, chosen = None, None, None
    for theta in THETA_GRID:
        labels = _band_labels(s, prot, float(theta))
        gap = float(labels[prot].mean() - labels[~prot].mean())
        if abs(gap) <= epsilon:
            best_theta, best_abs, chosen = float(theta), gap, labels
            break
        if best_abs is None or abs(gap) < abs(best_abs):
            best_theta, best_abs, chosen = float(theta), gap, labels

    base = (s > 0.5).astype(np.int8)
    return RejectOptionResult(
        region=CriticalRegion(theta=best_theta),
        decisions=DecisionSet(instance_ids=scores.instance_ids, labels=chosen,
                              policy="reject-option",
                              source_method=scores.method),
        achieved_spd=best_abs,
        unchanged=bool(np.array_equal(chosen, base)),
    )


def apply_reject_option(region: CriticalRegion, scores: ScoreSet,
                        d: Dataset) -> DecisionSet:
    """Apply a frozen critical region to any score set."""
    prot, _ = d.cohort(scores.instance_ids)
    return DecisionSet(instance_ids=scores.instance_ids,
                       labels=_band_labels(scores.scores, prot, region.theta),
                       policy="reject-option", source_method=scores.method)


# --- randomized odds-equalizing mixing ---------------------------------------------

@dataclass(frozen=True)
class MixingRates(Fitted):
    """P(output 1 | group, base prediction) for the four cells, plus seed."""

    p_protected_given0: float
    p_protected_given1: float
    p_privileged_given0: float
    p_privileged_given1: float
    seed: int

    def __post_init__(self):
        for v in self.as_vector():
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"mixing rate {v} outside [0, 1]")

    def as_vector(self) -> tuple[float, float, float, float]:
        return astuple(self)[:4]


def _odds_table(pred: DecisionSet, d: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(n, rate) over the base predictions: n[g, yhat, y] counts rows of
    group g (0 protected, 1 privileged) with base label yhat and truth y, and
    rate[g, y] = P(yhat = 1 | g, y), FPR then TPR.  DegenerateGroup when a
    group lacks positives or negatives."""
    prot, truth = d.cohort(pred.instance_ids)
    n = crosstab(~prot, pred.labels, truth)
    totals = n.sum(axis=1)  # [g, y]
    for name, per_truth in zip(("prot", "priv"), totals):
        if not per_truth.all():
            raise DegenerateGroup(f"{name} group lacks positives or negatives")
    return n, n[:, 1, :] / totals


def fit_equalized_odds_post(pred: DecisionSet, d: Dataset,
                            seed: int) -> MixingRates:
    """Mixing rates equalizing derived TPR and FPR at minimum expected error.

    The two equality constraints are linear in the four rates, so the
    optimum sits on a vertex of the feasible polytope; all basic solutions
    of the bound constraints plus the equalities are enumerated, filtered
    for feasibility, and scored.  Objective ties break toward the
    lexicographically smallest (p_prot|0, p_prot|1, p_priv|0, p_priv|1).
    """
    n, rate = _odds_table(pred, d)

    # objective: expected misclassifications, linear in p
    # p order: (prot|0, prot|1, priv|0, priv|1)
    coeff = (n[:, :, 0] - n[:, :, 1]).ravel().astype(np.float64)
    const = int(n[:, :, 1].sum())

    # equality rows A @ p = 0: equal TPR, equal FPR across groups; -(1 - r)
    # is -0.0 at r = 1 where r - 1 is +0.0, and the fitted rates can differ
    A = np.array([[1 - r[0], r[0], -(1 - r[1]), -r[1]] for r in (rate[:, 1], rate[:, 0])])

    tol = 1e-9
    candidates = []
    fixed_choices = [None, 0.0, 1.0]
    for assign in np.ndindex(3, 3, 3, 3):
        free = [i for i in range(4) if fixed_choices[assign[i]] is None]
        if len(free) > 2:
            continue
        p = np.array([fixed_choices[a] if fixed_choices[a] is not None else 0.0
                      for a in assign])
        if free:
            A_free = A[:, free]
            rhs = -A @ p  # free entries are zero here, so this is -A_fixed @ p_fixed
            p[free] = np.linalg.lstsq(A_free, rhs, rcond=None)[0]
        if np.abs(A @ p).max() > tol:
            continue
        if p.min() < -tol or p.max() > 1.0 + tol:
            continue
        candidates.append(np.clip(p, 0.0, 1.0))

    if not candidates:
        raise DegenerateGroup("no feasible mixing rates found")

    def objective(p):
        return float(coeff @ p) + const

    best = min(candidates, key=lambda p: (round(objective(p), 9), tuple(p)))
    return MixingRates(*map(float, best), seed=seed)  # best is in as_vector order


def derived_group_rates(rates: MixingRates, pred: DecisionSet, d: Dataset) -> dict:
    """Analytic post-mixing TPR/FPR per group of pred; DegenerateGroup as in
    the fit when a group lacks positives or negatives."""
    _, base = _odds_table(pred, d)  # [group, truth]: P(base label 1 | group, truth)
    p = np.reshape(rates.as_vector(), (2, 2))  # [group, base label]
    derived = p[:, 1:] * base + p[:, :1] * (1 - base)  # [group, truth]
    return {"tpr_protected": derived[0, 1], "fpr_protected": derived[0, 0],
            "tpr_privileged": derived[1, 1], "fpr_privileged": derived[1, 0]}


def apply_mixing(rates: MixingRates, pred: DecisionSet, d: Dataset,
                 method: str | None = None) -> DecisionSet:
    """Resample labels with the mixing rates; scores are never touched.

    Draws are keyed by (seed, instance_id), so repeated application is
    bit-identical and independent of evaluation order.
    """
    ids = pred.instance_ids
    prot, _ = d.cohort(ids)
    p = np.array(rates.as_vector())[2 * ~prot + pred.labels]  # as_vector order
    draws = prng.uniform01(rates.seed, ids)
    return DecisionSet(instance_ids=ids, labels=(draws < p).astype(np.int8),
                       policy="randomized-mixing", source_method=method or pred.source_method)
