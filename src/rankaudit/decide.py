"""The decision layer: turn scores into labels under an explicit policy.

Thresholds, quotas, and selection rates live here, deliberately separated
from the prediction model; each policy kind sets the one field that
POLICY_FIELDS names.  All selection is deterministic; boundary ties are
resolved by ascending instance id, in _top_k, the one place the tie rule
lives (mitigate's group thresholds select through it too).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dataset import Dataset, group_names, require_aligned, write_csv
from .errors import RateOutOfRange, require
from .scorer import ScoreSet

TIE_RULE = "ascending instance_id"
_LABEL_CELLS = np.array(["0", "1"], dtype=object)  # a label's CSV cell, shared by its rows


# each policy kind: the one field that holds its numbers, and how many it holds
POLICY_FIELDS = {"fixed-threshold": ("threshold", 1), "global-top-rate": ("rate", 1),
                 "per-group-rates": ("group_rates", 2)}


@dataclass(frozen=True)
class DecisionPolicy:
    """How scores become labels. kind selects the one field that is set."""

    kind: str
    threshold: float | None = None
    rate: float | None = None
    group_rates: tuple[float, float] | None = None
    note: str = ""

    def __post_init__(self):
        if self.kind not in POLICY_FIELDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        field, count = POLICY_FIELDS[self.kind]
        numbers = self._numbers()
        if not (type(numbers) is tuple and len(numbers) == count):
            raise ValueError(f"{self.kind} policy needs {count} number(s) as {field}")
        for v in numbers:
            require(v, field, "a finite number")
            require(v, field, "a number in [0, 1]", RateOutOfRange)
        if any(getattr(self, f) is not None for f, _ in POLICY_FIELDS.values() if f != field):
            raise ValueError(f"{self.kind} policy sets a field other than {field}")

    def _numbers(self) -> tuple:
        field, count = POLICY_FIELDS[self.kind]
        return getattr(self, field) if count > 1 else (getattr(self, field),)

    def label(self) -> str:
        """Stable short label used for report keys and file names."""
        return "-".join([self.kind, *(f"{v:g}" for v in self._numbers())])

    def describe(self) -> dict:
        """The fields that are set, plus the tie rule."""
        doc = {k: v for k, v in asdict(self).items() if v is not None and v != ""}
        return {**doc, "tie_rule": TIE_RULE}


@dataclass(frozen=True)
class DecisionSet:
    """Binary labels at instance ids."""

    instance_ids: np.ndarray
    labels: np.ndarray  # int8

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

    return DecisionSet(instance_ids=ids, labels=labels.astype(np.int8))


def export_decisions(base: DecisionSet, d: Dataset, decisions: dict[str, DecisionSet],
                     path) -> None:
    """CSV table: instance_id,group, then one 0/1 column per method, headed
    by its name, in the order of decisions (the baseline's first).

    base gives the rows, each named by its id and its group in d, and every
    set in decisions must align with it.
    """
    ids = base.instance_ids
    for method, dec in decisions.items():
        require_aligned(ids, dec.instance_ids, method)
    write_csv(path, ["instance_id", "group", *decisions],
              [map(str, ids.tolist()), group_names(d.sensitive[d.positions_of(ids)]),
               *(_LABEL_CELLS[dec.labels].tolist() for dec in decisions.values())])
