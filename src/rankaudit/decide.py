"""The decision layer: turn scores into labels under an explicit policy.

Thresholds, quotas, and selection rates live here, deliberately separated
from the prediction model.  All selection is deterministic; boundary ties
are always resolved by ascending instance id, in _top_k, the one place the
tie rule lives (mitigate's group thresholds select through it too).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dataset import ColumnText, Dataset, require_aligned, write_csv
from .errors import RateOutOfRange
from .scorer import ScoreSet

TIE_RULE = "ascending instance_id"

_LABEL_TEXT = np.array(["0", "1"], dtype=object)


def _check_unit(value: float, what: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise RateOutOfRange(f"{what} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class DecisionPolicy:
    """How scores become labels. kind selects which field applies."""

    kind: str
    threshold: float | None = None
    rate: float | None = None
    group_rates: tuple[float, float] | None = None
    note: str = ""

    def __post_init__(self):
        if self.kind == "fixed-threshold":
            if self.threshold is None:
                raise ValueError("fixed-threshold policy needs a threshold")
            _check_unit(self.threshold, "threshold")
        elif self.kind == "global-top-rate":
            if self.rate is None:
                raise ValueError("global-top-rate policy needs a rate")
            _check_unit(self.rate, "rate")
        elif self.kind == "per-group-rates":
            if self.group_rates is None:
                raise ValueError("per-group-rates policy needs two rates")
            for r in self.group_rates:
                _check_unit(r, "group rate")
        else:
            raise ValueError(f"unknown policy kind {self.kind!r}")

    def label(self) -> str:
        """Stable short label used for report keys and file names."""
        if self.kind == "fixed-threshold":
            return f"fixed-threshold-{self.threshold:g}"
        if self.kind == "global-top-rate":
            return f"global-top-rate-{self.rate:g}"
        a, b = self.group_rates  # per-group-rates
        return f"per-group-rates-{a:g}-{b:g}"

    def describe(self) -> dict:
        """The fields that are set, plus the tie rule."""
        doc = {k: v for k, v in asdict(self).items() if v is not None and v != ""}
        return {**doc, "tie_rule": TIE_RULE}


@dataclass(frozen=True)
class DecisionSet:
    """Binary labels plus the label of the policy that produced them."""

    instance_ids: np.ndarray
    labels: np.ndarray  # int8
    policy: str  # the policy column of its decisions file
    source_method: str

    def __post_init__(self):
        if len(self.labels) != len(self.instance_ids):
            raise ValueError("labels and ids differ in length")
        if not ((self.labels == 0) | (self.labels == 1)).all():
            raise ValueError("labels must be 0/1")

    @property
    def realized_pdr(self) -> float:
        """The share of positive labels; 0.0 for an empty set."""
        return float(np.mean(self.labels)) if len(self.labels) else 0.0

    @property
    def n(self) -> int:
        return len(self.instance_ids)


def _count_nearest(rate: float, n: int) -> int:
    # half-up rounding; the +1e-9 guard absorbs float dust in rate*n
    return min(n, int(np.floor(rate * n + 0.5 + 1e-9)))


def _count_floor(rate: float, n: int) -> int:
    return min(n, int(np.floor(rate * n + 1e-9)))


def _count_ceil(rate: float, n: int) -> int:
    return min(n, int(np.ceil(rate * n - 1e-9)))


def _top_k(scores: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask selecting the k highest scores, ties by ascending id."""
    mask = np.zeros(len(scores), dtype=bool)
    if k > 0:
        order = np.lexsort((ids, -scores))
        mask[order[:k]] = True
    return mask


def decide(scores: ScoreSet, d: Dataset, policy: DecisionPolicy) -> DecisionSet:
    """Apply a decision policy to a score set.

    fixed-threshold labels score > t.  global-top-rate selects exactly
    floor(r*n) highest scores.  per-group-rates selects the per-group count
    nearest to r_g*n_g.
    """
    s = scores.scores
    ids = scores.instance_ids
    prot, _ = d.cohort(ids)

    if policy.kind == "fixed-threshold":
        labels = s > policy.threshold
    elif policy.kind == "global-top-rate":
        labels = _top_k(s, ids, _count_floor(policy.rate, len(s)))
    else:  # per-group-rates
        labels = np.zeros(len(s), dtype=bool)
        for m, r in zip((prot, ~prot), policy.group_rates):
            labels[m] = _top_k(s[m], ids[m], _count_nearest(r, int(m.sum())))

    return DecisionSet(
        instance_ids=ids,
        labels=labels.astype(np.int8),
        policy=policy.label(),
        source_method=scores.method,
    )


def export_decisions(dec: DecisionSet, d: Dataset, scores: ScoreSet,
                     path, text: ColumnText | None = None) -> None:
    """CSV dump: instance_id,group,score,label,method,policy.

    A caller writing many files passes one ColumnText as text, so the ids
    and each score array are turned into text once.
    """
    require_aligned(dec.instance_ids, scores.instance_ids, "decision export")
    text = ColumnText() if text is None else text
    ids, groups = text.rows(d, dec.instance_ids)
    write_csv(path, ["instance_id", "group", "score", "label", "method", "policy"],
              [ids, groups, text.floats(scores.scores), _LABEL_TEXT[dec.labels].tolist(),
               dec.source_method, dec.policy])
