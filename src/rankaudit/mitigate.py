"""The four audited bias-mitigation methods.

Feature repair returns a Dataset whose numeric columns move toward the
mean of the two groups' quantile functions, preserving within-group
order.  The three postprocessors (per-group threshold fitting,
critical-region label flipping, and randomized odds-equalizing mixing of
the base prediction score > CUT) share one contract: `fit_*(scores, d,
<key>)` returns the Fitted parameters from validation scores, and
`apply_*(fitted, scores, d)` returns a DecisionSet at the rows of the
scores it is given.  They never touch score values; they only produce
decisions.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import prng
from .audit import _midranks, crosstab
from .dataset import Dataset, PROTECTED, PRIVILEGED
from .decide import DecisionSet, _count_ceil, _top_k
from .errors import DegenerateGroup, EmptyGroup, NonNumericColumn, RateOutOfRange, require
from .scorer import ScoreSet

CUT = 0.5  # the default decision cut: score > CUT is the base prediction
THETA_GRID = np.arange(51) / 100.0  # 0.00, 0.01, ..., 0.50


# --- feature repair -----------------------------------------------------------

def disparate_impact_remove(d: Dataset, repair_level: float,
                            columns: list[str] | None = None) -> Dataset:
    """A Dataset like d with numeric columns interpolated toward the mean of
    the groups' quantile curves, each taken at a value's own within-group
    rank (with two groups, the median of the curves is their mean).

    repair_level 0 returns the original values exactly; 1 aligns the two
    groups' per-column distributions up to interpolation error.  Within
    each group the value ordering is preserved for every level; tied
    values stay tied.
    """
    require(repair_level, "repair_level", "a number in [0, 1]")
    lam = float(repair_level)
    numeric_names = [c.name for c in d.schema.feature_columns if c.kind == "numeric"]
    if columns is None:
        columns = numeric_names
    for col in columns:
        if col not in numeric_names:
            raise NonNumericColumn(f"column {col!r} is not numeric")

    features = d.features.copy()
    prot = d.protected_mask
    group_rows = [rows for rows in (np.flatnonzero(prot), np.flatnonzero(~prot)) if len(rows)]
    for col in columns:
        j = d.feature_index(col)
        v = d.features[:, j]
        u = np.empty(d.n)  # each instance's rank in [0, 1] within its group
        quantiles = []  # each group's sorted values: its quantile function on 0..n_g-1
        for rows in group_rows:
            vg = v[rows]
            order = np.argsort(vg, kind="stable")  # the one sort of this group and column
            quantiles.append(vg[order])
            u[rows] = ((_midranks(vg, order) - 1.0) / (len(rows) - 1.0)
                       if len(rows) > 1 else 0.5)
        # each group's quantile function at every instance's own rank
        curves = [_on_grid(u * (len(q) - 1.0), q) for q in quantiles]
        features[:, j] = (1.0 - lam) * v + lam * (sum(curves[1:], curves[0]) / len(curves))
    return replace(d, features=features)


def _on_grid(x: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp(x, np.arange(len(fp)), fp) for x in [0, len(fp) - 1], by
    np.interp's own formula without its search: fp[x] where x is a grid
    point, else (fp[j + 1] - fp[j]) * (x - j) + fp[j] with j = floor(x)."""
    j = x.astype(np.intp)
    left, right = fp[j], fp[np.minimum(j + 1, len(fp) - 1)]
    return np.where(x == j, left, (right - left) * (x - j) + left)


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
    CUT (demographic parity at the status-quo selection level).
    Realized rates land within 1/n_g of the target when the thresholds are
    applied with boundary-tie completion.
    """
    s = scores.scores
    prot, _ = d.cohort(scores.instance_ids)
    criterion = "selection-rate" if rate is not None else "demographic-parity"
    if rate is None:
        rate = float(_base_labels(scores).mean())
    require(rate, "rate", "a number in [0, 1]", RateOutOfRange)

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
    """Select each group's k highest scores by the decision layer's _top_k
    (ties by ascending id), k = ceil(rate*n_g) clipped to [#(s > t_g), #(s >= t_g)]."""
    s, ids = scores.scores, scores.instance_ids
    prot, _ = d.cohort(ids)
    labels = np.zeros(len(s), dtype=bool)
    for m, t in ((prot, gt.t_protected), (~prot, gt.t_privileged)):
        sg = s[m]
        k = min(max(_count_ceil(gt.rate, len(sg)), int((sg > t).sum())), int((sg >= t).sum()))
        labels[m] = _top_k(sg, ids[m], k)
    return DecisionSet(instance_ids=ids, labels=labels.astype(np.int8))


# --- critical-region label flipping ----------------------------------------------

@dataclass(frozen=True)
class CriticalRegion(Fitted):
    """Uncertainty band [CUT - theta, CUT + theta] around the default cut."""

    theta: float

    def __post_init__(self):
        require(self.theta, "theta", "a number in [0, 0.5]")


def _band_labels(s: np.ndarray, prot: np.ndarray, theta: float) -> np.ndarray:
    labels = s > CUT
    if theta > 0.0:
        in_band = (s >= CUT - theta) & (s <= CUT + theta)
        labels = np.where(in_band, prot, labels)
    return labels.astype(np.int8)


def reject_option_classify(scores: ScoreSet, d: Dataset,
                           epsilon: float) -> CriticalRegion:
    """The smallest grid band whose flipped labels even the rates.

    Inside the band, protected instances become positive and privileged
    ones negative.  theta is the smallest grid value in {0, 0.01, ..., 0.5}
    with |SPD| <= epsilon on the scores, else the first grid argmin of
    |SPD|.  theta = 0 means plain thresholding at CUT.
    """
    require(epsilon, "epsilon", "a finite number > 0")
    s = scores.scores
    prot, _ = d.cohort(scores.instance_ids)
    if not prot.any() or prot.all():
        raise EmptyGroup("reject option needs both groups present")

    gaps = []
    for theta in THETA_GRID:
        labels = _band_labels(s, prot, float(theta))
        gaps.append(abs(float(labels[prot].mean() - labels[~prot].mean())))
        if gaps[-1] <= epsilon:
            break  # every earlier gap exceeds epsilon, so this one is the argmin
    return CriticalRegion(theta=float(THETA_GRID[np.argmin(gaps)]))


def apply_reject_option(region: CriticalRegion, scores: ScoreSet,
                        d: Dataset) -> DecisionSet:
    """Apply a frozen critical region to any score set."""
    prot, _ = d.cohort(scores.instance_ids)
    return DecisionSet(instance_ids=scores.instance_ids,
                       labels=_band_labels(scores.scores, prot, region.theta))


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
        for f, v in zip(fields(self), self.as_vector()):
            require(v, f.name, "a number in [0, 1]")
        require(self.seed, "seed", "an integer")

    def as_vector(self) -> tuple[float, float, float, float]:
        return astuple(self)[:4]


def _base_labels(scores: ScoreSet) -> np.ndarray:
    """The base prediction, score > CUT, as int8 labels."""
    return (scores.scores > CUT).astype(np.int8)


def _odds_table(scores: ScoreSet, d: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(n, rate) over the base predictions: n[g, yhat, y] counts rows of
    group g (0 protected, 1 privileged) with base label yhat and truth y, and
    rate[g, y] = P(yhat = 1 | g, y), FPR then TPR.  DegenerateGroup when a
    group lacks positives or negatives."""
    prot, truth = d.cohort(scores.instance_ids)
    n = crosstab(~prot, _base_labels(scores), truth)
    totals = n.sum(axis=1)  # [g, y]
    for name, per_truth in zip(("prot", "priv"), totals):
        if not per_truth.all():
            raise DegenerateGroup(f"{name} group lacks positives or negatives")
    return n, n[:, 1, :] / totals


def fit_equalized_odds_post(scores: ScoreSet, d: Dataset,
                            seed: int) -> MixingRates:
    """Mixing rates equalizing derived TPR and FPR at minimum expected error.

    The two equality constraints are linear in the four rates, so the
    optimum sits on a vertex of the feasible polytope; all basic solutions
    of the bound constraints plus the equalities are enumerated, filtered
    for feasibility, and scored.  Objective ties break toward the
    lexicographically smallest (p_prot|0, p_prot|1, p_priv|0, p_priv|1).
    """
    n, rate = _odds_table(scores, d)

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
        candidates.append(np.clip(p, 0.0, 1.0))  # all four fixed at 0 is always kept

    def objective(p):
        return float(coeff @ p) + const

    best = min(candidates, key=lambda p: (round(objective(p), 9), tuple(p)))
    return MixingRates(*map(float, best), seed=seed)  # best is in as_vector order


def derived_group_rates(rates: MixingRates, scores: ScoreSet, d: Dataset) -> dict:
    """Analytic post-mixing TPR/FPR per group of scores; DegenerateGroup as
    in the fit when a group lacks positives or negatives."""
    _, base = _odds_table(scores, d)  # [group, truth]: P(base label 1 | group, truth)
    p = np.reshape(rates.as_vector(), (2, 2))  # [group, base label]
    derived = p[:, 1:] * base + p[:, :1] * (1 - base)  # [group, truth]
    return {"tpr_protected": derived[0, 1], "fpr_protected": derived[0, 0],
            "tpr_privileged": derived[1, 1], "fpr_privileged": derived[1, 0]}


def apply_mixing(rates: MixingRates, scores: ScoreSet, d: Dataset) -> DecisionSet:
    """Resample the base prediction with the mixing rates; scores are never
    touched.

    Draws are keyed by (seed, instance_id), so repeated application is
    bit-identical and independent of evaluation order.
    """
    ids = scores.instance_ids
    prot, _ = d.cohort(ids)
    p = np.array(rates.as_vector())[2 * ~prot + _base_labels(scores)]  # as_vector order
    draws = prng.uniform01(rates.seed, ids)
    return DecisionSet(instance_ids=ids, labels=(draws < p).astype(np.int8))
