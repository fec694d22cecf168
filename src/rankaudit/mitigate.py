"""The four audited bias-mitigation methods.

Feature repair interpolates each numeric column toward the cross-group
median quantile function, preserving within-group order.  The three
postprocessors (per-group threshold fitting, critical-region label
flipping, and randomized odds-equalizing label mixing) never touch score
values; they only produce decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import prng
from .audit import _midranks
from .dataset import Dataset, PROTECTED, PRIVILEGED, positions_in
from .decide import DecisionPolicy, DecisionSet, _check_unit, _count_ceil, decide
from .errors import (
    DegenerateGroup,
    EmptyGroup,
    NonNumericColumn,
    UnknownId,
)
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

    return RepairedDataset(
        features=features,
        sensitive=d.sensitive,
        label=d.label,
        schema=d.schema,
        categories=d.categories,
        sensitive_values=d.sensitive_values,
        target_values=d.target_values,
        dropped_rows=d.dropped_rows,
        repair_level=lam,
        repaired_columns=tuple(columns),
    )


# --- per-group threshold fitting ------------------------------------------------

@dataclass(frozen=True)
class GroupThresholds:
    """Per-group score cutoffs targeting a common selection rate."""

    t_protected: float
    t_privileged: float
    criterion: str  # "demographic-parity" | "selection-rate"
    rate: float

    def to_text(self) -> str:
        return (
            f"t_protected {self.t_protected:.17g}\n"
            f"t_privileged {self.t_privileged:.17g}\n"
            f"criterion {self.criterion}\n"
            f"rate {self.rate:.17g}\n"
        )


def _cohort(set_ids, values, d: Dataset, ids, what: str):
    """(ids, values at ids, protected mask, truth) for ids taken from a score
    or decision set whose ids and values are set_ids and values."""
    ids = np.asarray(ids, dtype=np.int64)
    try:
        values = values[positions_in(set_ids, ids)]
    except UnknownId as exc:
        raise EmptyGroup(f"requested ids missing from the {what}: {exc}")
    pos = d.positions_of(ids)
    return ids, values, d.sensitive[pos] == PROTECTED, d.label[pos]


def fit_threshold_optimizer(scores: ScoreSet, d: Dataset, ids,
                            rate: float | None = None) -> GroupThresholds:
    """Per-group cutoffs at the ceil(rate*n_g)-th highest score.

    With rate None the target defaults to the scores' own positive rate at
    threshold 0.5 on the given ids (demographic parity at the status-quo
    selection level).  Realized rates land within 1/n_g of the target when
    the thresholds are applied with boundary-tie completion.
    """
    _, s, prot, _ = _cohort(scores.instance_ids, scores.scores, d, ids, "score set")
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
    policy = DecisionPolicy(kind="per-group-thresholds", group_thresholds=gt)
    return decide(scores, d, policy)


# --- critical-region label flipping ----------------------------------------------

@dataclass(frozen=True)
class CriticalRegion:
    """Uncertainty band [0.5 - theta, 0.5 + theta] around the default cut."""

    theta: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= 0.5:
            raise ValueError(f"theta must lie in [0, 0.5], got {self.theta}")

    @property
    def low(self) -> float:
        return 0.5 - self.theta

    @property
    def high(self) -> float:
        return 0.5 + self.theta

    def to_text(self) -> str:
        return f"theta {self.theta:.17g}\n"


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


def reject_option_classify(scores: ScoreSet, d: Dataset, ids,
                           epsilon: float) -> RejectOptionResult:
    """Flip labels inside the smallest uncertainty band that evens the rates.

    Inside the band, protected instances become positive and privileged
    ones negative.  theta is the smallest grid value in {0, 0.01, ..., 0.5}
    with |SPD| <= epsilon on the given ids, else the grid argmin of |SPD|.
    theta = 0 means plain thresholding at 0.5.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    ids, s, prot, _ = _cohort(scores.instance_ids, scores.scores, d, ids, "score set")
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

    region = CriticalRegion(theta=best_theta)
    base = (s > 0.5).astype(np.int8)
    policy = DecisionPolicy(
        kind="reject-option",
        note=f"theta={best_theta:g} epsilon={epsilon:g}",
    )
    decisions = DecisionSet(instance_ids=ids, labels=chosen, policy=policy,
                            source_method=scores.method)
    return RejectOptionResult(
        region=region,
        decisions=decisions,
        achieved_spd=best_abs,
        unchanged=bool(np.array_equal(chosen, base)),
    )


def apply_reject_option(region: CriticalRegion, scores: ScoreSet, d: Dataset,
                        ids, method: str | None = None) -> DecisionSet:
    """Apply a frozen critical region to any id set."""
    ids, s, prot, _ = _cohort(scores.instance_ids, scores.scores, d, ids, "score set")
    policy = DecisionPolicy(kind="reject-option", note=f"theta={region.theta:g}")
    return DecisionSet(instance_ids=ids,
                       labels=_band_labels(s, prot, region.theta),
                       policy=policy,
                       source_method=method or scores.method)


# --- randomized odds-equalizing mixing ---------------------------------------------

@dataclass(frozen=True)
class MixingRates:
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
        return (self.p_protected_given0, self.p_protected_given1,
                self.p_privileged_given0, self.p_privileged_given1)

    def rate_for(self, group: int, base_label: int) -> float:
        v = self.as_vector()
        if group == PROTECTED:
            return v[base_label]
        return v[2 + base_label]

    def to_text(self) -> str:
        names = ("p_protected_given0", "p_protected_given1",
                 "p_privileged_given0", "p_privileged_given1")
        lines = [f"{n} {v:.17g}" for n, v in zip(names, self.as_vector())]
        lines.append(f"seed {self.seed}")
        return "\n".join(lines) + "\n"


def _derived_rates(p: np.ndarray, base: dict) -> tuple[float, float, float, float]:
    """(tpr_prot, fpr_prot, tpr_priv, fpr_priv) as linear functions of p."""
    tpr_p = p[1] * base["tpr_prot"] + p[0] * (1 - base["tpr_prot"])
    fpr_p = p[1] * base["fpr_prot"] + p[0] * (1 - base["fpr_prot"])
    tpr_v = p[3] * base["tpr_priv"] + p[2] * (1 - base["tpr_priv"])
    fpr_v = p[3] * base["fpr_priv"] + p[2] * (1 - base["fpr_priv"])
    return tpr_p, fpr_p, tpr_v, fpr_v


def fit_equalized_odds_post(pred: DecisionSet, d: Dataset, ids,
                            seed: int) -> MixingRates:
    """Mixing rates equalizing derived TPR and FPR at minimum expected error.

    The two equality constraints are linear in the four rates, so the
    optimum sits on a vertex of the feasible polytope; all basic solutions
    of the bound constraints plus the equalities are enumerated, filtered
    for feasibility, and scored.  Objective ties break toward the
    lexicographically smallest (p_prot|0, p_prot|1, p_priv|0, p_priv|1).
    """
    _, base_labels, prot, truth = _cohort(pred.instance_ids, pred.labels, d, ids,
                                          "base predictions")

    counts = {}
    for g, mask in ((PROTECTED, prot), (PRIVILEGED, ~prot)):
        name = "prot" if g == PROTECTED else "priv"
        n_pos = int((truth[mask] == 1).sum())
        n_neg = int((truth[mask] == 0).sum())
        if n_pos == 0 or n_neg == 0:
            raise DegenerateGroup(f"{name} group lacks positives or negatives")
        counts[f"tpr_{name}"] = float(base_labels[mask & (truth == 1)].mean())
        counts[f"fpr_{name}"] = float(base_labels[mask & (truth == 0)].mean())
        for yhat in (0, 1):
            for y in (0, 1):
                counts[f"n_{name}_{yhat}{y}"] = int(
                    (mask & (base_labels == yhat) & (truth == y)).sum()
                )

    # objective: expected misclassifications, linear in p
    # p order: (prot|0, prot|1, priv|0, priv|1)
    coeff = np.array([
        counts["n_prot_00"] - counts["n_prot_01"],
        counts["n_prot_10"] - counts["n_prot_11"],
        counts["n_priv_00"] - counts["n_priv_01"],
        counts["n_priv_10"] - counts["n_priv_11"],
    ], dtype=np.float64)
    const = (counts["n_prot_01"] + counts["n_prot_11"]
             + counts["n_priv_01"] + counts["n_priv_11"])

    # equality rows A @ p = 0: equal TPR, equal FPR across groups
    a_tpr = np.array([1 - counts["tpr_prot"], counts["tpr_prot"],
                      -(1 - counts["tpr_priv"]), -counts["tpr_priv"]])
    a_fpr = np.array([1 - counts["fpr_prot"], counts["fpr_prot"],
                      -(1 - counts["fpr_priv"]), -counts["fpr_priv"]])
    A = np.vstack([a_tpr, a_fpr])

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
    return MixingRates(
        p_protected_given0=float(best[0]),
        p_protected_given1=float(best[1]),
        p_privileged_given0=float(best[2]),
        p_privileged_given1=float(best[3]),
        seed=seed,
    )


def derived_group_rates(rates: MixingRates, pred: DecisionSet, d: Dataset,
                        ids) -> dict:
    """Analytic post-mixing TPR/FPR per group on the given ids."""
    _, base_labels, prot, truth = _cohort(pred.instance_ids, pred.labels, d, ids,
                                          "base predictions")
    base = {
        "tpr_prot": float(base_labels[prot & (truth == 1)].mean()),
        "fpr_prot": float(base_labels[prot & (truth == 0)].mean()),
        "tpr_priv": float(base_labels[~prot & (truth == 1)].mean()),
        "fpr_priv": float(base_labels[~prot & (truth == 0)].mean()),
    }
    tpr_p, fpr_p, tpr_v, fpr_v = _derived_rates(np.array(rates.as_vector()), base)
    return {"tpr_protected": tpr_p, "fpr_protected": fpr_p,
            "tpr_privileged": tpr_v, "fpr_privileged": fpr_v}


def apply_mixing(rates: MixingRates, pred: DecisionSet, d: Dataset,
                 ids, method: str | None = None) -> DecisionSet:
    """Resample labels with the mixing rates; scores are never touched.

    Draws are keyed by (seed, instance_id), so repeated application is
    bit-identical and independent of evaluation order.
    """
    ids, base_labels, prot, _ = _cohort(pred.instance_ids, pred.labels, d, ids,
                                        "base predictions")

    p = np.empty(len(ids))
    for g, mask in ((PROTECTED, prot), (PRIVILEGED, ~prot)):
        for yhat in (0, 1):
            cell = mask & (base_labels == yhat)
            p[cell] = rates.rate_for(g, yhat)
    draws = prng.uniform01(rates.seed, ids)
    labels = (draws < p).astype(np.int8)
    policy = DecisionPolicy(kind="randomized-mixing", note=f"seed={rates.seed}")
    return DecisionSet(instance_ids=ids, labels=labels, policy=policy,
                       source_method=method or pred.source_method)
