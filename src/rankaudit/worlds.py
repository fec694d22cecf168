"""Synthetic score worlds for checking when group thresholds suffice.

A FairWorld is a weighted grid of (x, group) points carrying two numbers
each: the assumed-unbiased probability of the favorable outcome, and the
score a model trained on biased data would assign.  On top of it live the
true/false-rate functionals, threshold decisions, Pareto dominance checks,
the within-group monotonicity check (does the score order ever contradict
the fair-probability order inside a group?), and the per-group threshold
decomposition that monotonicity is equivalent to.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from .audit import _count_exceeding_pairs
from .dataset import float_text, write_csv
from .errors import ZeroMassDenominator

WEIGHT_TOLERANCE = 1e-12
WITNESS_LIMIT = 10
PARETO_MARGIN = 1e-9  # how much higher a rate must be to count as strictly higher
_BLOCK = 1 << 14  # rows each blockwise scan (rates, pareto_check) takes at a time


@dataclass(frozen=True)
class FairWorld:
    """Finite weighted grid over (x, group) with fair and biased score maps."""

    x: np.ndarray
    group: np.ndarray          # small integer group codes
    weight: np.ndarray         # nonnegative, sums to 1
    fair_p: np.ndarray         # in [0, 1]
    score_s: np.ndarray        # in [0, 1]
    group_names: dict = field(default_factory=dict)

    def __post_init__(self):
        m = np.size(self.x)  # len(x) once x passes as 1-D
        for name, vec in (("x", self.x), ("group", self.group), ("weight", self.weight),
                          ("fair_p", self.fair_p), ("score_s", self.score_s)):
            if np.ndim(vec) != 1:
                raise ValueError(f"{name} must be 1-D, got {np.ndim(vec)} dimensions")
            if len(vec) != m:
                raise ValueError(f"{name} length {len(vec)} != {m}")
            if not np.isfinite(vec).all():
                raise ValueError(f"{name} must be finite")
        if abs(float(self.weight.sum()) - 1.0) > WEIGHT_TOLERANCE:
            raise ValueError(f"weights sum to {self.weight.sum()}, not 1")
        if self.weight.min(initial=0.0) < 0:
            raise ValueError("weights must be nonnegative")
        for name, vec in (("fair_p", self.fair_p), ("score_s", self.score_s)):
            if len(vec) and (vec.min() < 0.0 or vec.max() > 1.0):
                raise ValueError(f"{name} outside [0, 1]")

    @property
    def m(self) -> int:
        return len(self.x)

    @cached_property  # the world is frozen: its group array is not replaced
    def _group_codes(self) -> list[int]:
        return np.unique(self.group).tolist()

    def groups(self) -> list[int]:
        """The sorted group codes, found on the first call."""
        return list(self._group_codes)

    def name_of(self, g: int) -> str:
        return self.group_names.get(int(g), f"group{g}")

    def basis_values(self, basis: str) -> np.ndarray:
        if basis == "fair":
            return self.fair_p
        if basis == "unfair":
            return self.score_s
        raise ValueError(f"basis must be 'fair' or 'unfair', got {basis!r}")

    def to_csv(self, path) -> None:
        codes, inverse = np.unique(self.group, return_inverse=True)
        names = np.array([self.name_of(g) for g in codes], dtype=object)
        write_csv(path, ["x", "a", "weight", "fair_p", "score_s"],
                  [float_text(self.x), names[inverse].tolist(), float_text(self.weight),
                   float_text(self.fair_p), float_text(self.score_s)])


@dataclass(frozen=True)
class RatePair:
    tpr: float
    tnr: float


def wage_gap_world(grid_size: int = 501) -> FairWorld:
    """Two equally qualified groups; one group's scores scaled down 10%.

    x is a uniform grid on [0, 50], both groups weighted 1/2.  The fair
    favorable probability is x/50 for everyone; scores match it for group
    "male" and are 0.9 * x/50 for group "female".  The uniform weight is a
    read-only zero-stride view of one number.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    x = np.arange(grid_size, dtype=np.float64)
    x *= 50.0
    x /= grid_size - 1
    x = np.concatenate([x, x])
    group = np.repeat(np.arange(2, dtype=np.int8), grid_size)
    p = x / 50.0
    s = p.copy()
    s[grid_size:] *= 0.9
    weight = np.broadcast_to(1.0 / (2 * grid_size), (2 * grid_size,))
    return FairWorld(x=x, group=group, weight=weight, fair_p=p, score_s=s,
                     group_names={0: "male", 1: "female"})


def anti_monotone_world(grid_size: int = 501) -> FairWorld:
    """wage_gap_world with group "female" scored in reverse of merit."""
    w = wage_gap_world(grid_size)
    s = w.score_s.copy()
    np.subtract(50.0, w.x[grid_size:], out=s[grid_size:])
    s[grid_size:] /= 50.0
    return replace(w, score_s=s)


def _masses(w: FairWorld, basis: str) -> tuple[np.ndarray, float, float]:
    """The basis values and their positive and negative weighted masses."""
    q = w.basis_values(basis)
    buf = q * w.weight
    pos_mass = float(buf.sum())
    np.subtract(1.0, q, out=buf)
    buf *= w.weight
    neg_mass = float(buf.sum())
    if pos_mass <= 0.0 or neg_mass <= 0.0:
        raise ZeroMassDenominator(f"basis {basis!r} has zero mass on one label side")
    return q, pos_mass, neg_mass


def rates(w: FairWorld, decision: np.ndarray, basis: str) -> RatePair:
    """True positive/negative rates of a decision under fair or biased mass."""
    q, pos_mass, neg_mass = _masses(w, basis)
    dec = np.asarray(decision)  # never written
    if len(dec) != w.m:
        raise ValueError("decision length does not match the world grid")
    # one buffer; each product runs in the order (dec * q * weight) of the
    # formula, so every sum sees the same contiguous values
    buf = np.multiply(dec, q, dtype=np.float64)
    buf *= w.weight
    tpr = float(buf.sum()) / pos_mass
    for start in range(0, w.m, _BLOCK):
        part = slice(start, start + _BLOCK)
        np.subtract(1.0, dec[part], out=buf[part], dtype=np.float64)
        buf[part] *= 1.0 - q[part]
        buf[part] *= w.weight[part]
    tnr = float(buf.sum()) / neg_mass
    return RatePair(tpr=tpr, tnr=tnr)


def threshold_decision(w: FairWorld, basis: str, tau: float,
                       per_group: dict | None = None) -> np.ndarray:
    """Labels by strict threshold on the chosen basis, optionally per group."""
    q = w.basis_values(basis)
    if per_group is None:
        return (q > tau).astype(np.int8)
    labels = np.zeros(w.m, dtype=np.int8)
    for g in w.groups():
        t_g = per_group.get(g, tau)
        mask = w.group == g
        labels[mask] = (q[mask] > t_g).astype(np.int8)
    return labels


@dataclass(frozen=True)
class ParetoResult:
    maximal: bool
    decision_rates: RatePair
    dominated_by: np.ndarray | None = None
    dominating_rates: RatePair | None = None

    def to_dict(self) -> dict:
        """The verdict, the decision's rates and the dominating rates, if any."""
        r, dom = self.decision_rates, self.dominating_rates
        return {"maximal": self.maximal, "tpr": r.tpr, "tnr": r.tnr,
                "dominating": None if dom is None else {"tpr": dom.tpr, "tnr": dom.tnr}}


def pareto_check(w: FairWorld, decision: np.ndarray, basis: str) -> ParetoResult:
    """Search threshold-family decisions for one that strictly dominates.

    Candidates are all top-k selections under (basis value desc, grid
    position asc): every strict-threshold decision on the value grid, plus
    the boundary-tie completions that stand in for the measure-zero tie
    splits of the continuous setting.  Dominating means both rates >= and
    at least one greater by more than PARETO_MARGIN.  The scan holds one
    ascending sort index and stops at the first (smallest k) dominating
    candidate.
    """
    dec_rates = rates(w, decision, basis)
    q, pos_mass, neg_mass = _masses(w, basis)
    order = np.argsort(q, kind="stable")  # ties keep grid order
    for end, rows, sel_pos, sel_neg in _selected_masses(q, w.weight, order):
        tpr_k = sel_pos / pos_mass
        tnr_k = (neg_mass - sel_neg) / neg_mass
        at_least = (tpr_k >= dec_rates.tpr - 1e-12) & (tnr_k >= dec_rates.tnr - 1e-12)
        strictly = (tpr_k > dec_rates.tpr + PARETO_MARGIN) | (tnr_k > dec_rates.tnr + PARETO_MARGIN)
        dominating = np.flatnonzero(at_least & strictly)
        if len(dominating):
            i = int(dominating[0])
            labels = np.zeros(w.m, dtype=np.int8)
            labels[order[end:]] = 1
            labels[rows[:i + 1]] = 1
            return ParetoResult(
                maximal=False,
                decision_rates=dec_rates,
                dominated_by=labels,
                dominating_rates=RatePair(tpr=float(tpr_k[i]), tnr=float(tnr_k[i])),
            )
    return ParetoResult(maximal=True, decision_rates=dec_rates)


def _selected_masses(q: np.ndarray, weight: np.ndarray, order: np.ndarray):
    """Yield (end, rows, pos, neg) per block of candidates in (q desc, grid
    position asc) order, the first being k = 0 alone with no rows: pos[i]
    and neg[i] are the positive and negative mass of order[end:] plus
    rows[:i + 1].  order ascends in q, ties in grid order; the blocks walk
    it from its end, each starting at a tie run, so reversing a block's runs
    gives the descending order.  Each block's running sums continue the
    previous block's, so they equal the whole-grid cumsum bit for bit (the
    first row's mass is never added to 0, so a -0.0 survives)."""
    yield len(order), order[:0], np.zeros(1), np.zeros(1)
    hi = len(order)
    while hi:
        lo = _run_start(q, order, hi - _BLOCK) if hi > _BLOCK else 0
        rows = _runs_reversed(q, order[lo:hi])
        qb, wb = q[rows], weight[rows]
        pos, neg = qb * wb, (1.0 - qb) * wb
        if hi < len(order):
            pos[0] += last_pos
            neg[0] += last_neg
        np.cumsum(pos, out=pos)
        np.cumsum(neg, out=neg)
        last_pos, last_neg = pos[-1], neg[-1]
        yield hi, rows, pos, neg
        hi = lo


def _run_start(q: np.ndarray, order: np.ndarray, i: int) -> int:
    """The first position of the tie run that holds order[i], order
    ascending in q; a run longer than a block is searched block by block."""
    v = q[order[i]]
    while i:
        lo = max(i - _BLOCK, 0)
        below = int(np.searchsorted(q[order[lo:i]], v))  # rows of lo:i under v
        i = lo + below
        if below:
            break
    return i


def _runs_reversed(q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """rows, ascending in q and starting at a tie run, with their tie runs
    in reverse order and each run's rows kept in order."""
    v = q[rows]
    n = len(rows)
    starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
    lengths = np.diff(np.r_[starts, n])
    out = np.empty_like(rows)
    # the run at [s, s + length) moves to [n - s - length, n - s)
    out[np.arange(n) + np.repeat(n - 2 * starts - lengths, lengths)] = rows
    return out


# --- within-group monotonicity and threshold decomposition ---------------------

@dataclass(frozen=True)
class MonotonicityResult:
    holds: bool
    violation_count: int
    violations_by_group: dict
    witnesses: list  # dicts: {"group", "lower_p", "higher_p"}
    tolerance: float
    grid_size: int
    caveat: str | None = None  # no check sets it; the result files keep the key

    def to_dict(self) -> dict:
        return asdict(self)


def monotonicity_check(w: FairWorld, tolerance: float = 0.0) -> MonotonicityResult:
    """Does the score order contradict the fair order inside any group?

    Per group, counts pairs whose fair probability strictly increases while
    the score drops by more than the tolerance.  Pairs tied in fair
    probability are ignored.  Zero violations in every group means any
    fair threshold decision splits into per-group score thresholds.  Up to
    WITNESS_LIMIT violating pairs are named by their x values.  A group
    that passes costs one O(n) pass of the pair counter, besides its sort.
    The tolerance must be a finite number >= 0 (ValueError otherwise).
    """
    if not 0.0 <= tolerance < np.inf:  # also rejects nan
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance}")
    total = 0
    by_group = {}
    witnesses = []
    for g in w.groups():
        name = w.name_of(g)
        count, pairs = _group_violations(w, g, tolerance, WITNESS_LIMIT - len(witnesses))
        by_group[name] = count
        total += count
        witnesses += [{"group": name, "lower_p": lo, "higher_p": h} for lo, h in pairs]
    return MonotonicityResult(holds=total == 0, violation_count=total,
                              violations_by_group=by_group, witnesses=witnesses,
                              tolerance=tolerance, grid_size=w.m)


def _group_violations(w: FairWorld, g: int, tolerance: float, limit: int) -> tuple[int, list]:
    """Group g's violating pairs and up to limit witnesses as (lower x, higher x).

    In (p, s) order, a witness is one of the first limit rows j whose
    highest earlier score exceeds s[j] + tolerance, paired with the first
    row that holds that score.  The running maximum and the row index are
    dropped before the pair count; x is read only at the witness rows.
    """
    rows = np.flatnonzero(w.group == g)
    # tied-p runs ascend in s: never counted
    rows = rows[np.lexsort((w.score_s[rows], w.fair_p[rows]))]
    s = w.score_s[rows]
    top = np.maximum.accumulate(s)  # top[j]: the highest score in s[:j + 1]
    # earlier rows of j's own tied-p run score <= s[j], so only a lower-p
    # row can lift top[j - 1] above s[j] + tolerance
    higher = np.flatnonzero(top[:-1] > s[1:] + tolerance)[:limit] + 1
    lower = [int(np.argmax(s[:j] == top[j - 1])) for j in higher]
    witnesses = list(zip(w.x[rows[lower]].tolist(), w.x[rows[higher]].tolist()))
    del rows, top
    return _count_exceeding_pairs(s, tolerance), witnesses


@dataclass(frozen=True)
class DecompositionResult:
    tau: float
    decomposable: bool
    thresholds: dict   # group name -> threshold or None
    failed_groups: tuple = ()

    def to_dict(self) -> dict:
        return {**asdict(self), "failed_groups": list(self.failed_groups)}


def decomposition_check(w: FairWorld, tau: float) -> DecompositionResult:
    """Can the fair threshold decision at tau be rebuilt from score cutoffs?

    For each group, the fair-selected set must be exactly a strictly-above
    set of the group's scores; the reported per-group threshold is the
    largest unselected score (0 when the whole group is selected).
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    fair_dec = w.fair_p > tau
    thresholds = {}
    failed = []
    for g in w.groups():
        mask = w.group == g
        sel = fair_dec[mask]
        s = w.score_s[mask]
        name = w.name_of(g)
        t_g = 0.0 if sel.all() else float(s[~sel].max())
        if np.array_equal(s > t_g, sel):
            thresholds[name] = t_g
        else:
            thresholds[name] = None
            failed.append(name)
    return DecompositionResult(
        tau=tau,
        decomposable=not failed,
        thresholds=thresholds,
        failed_groups=tuple(failed),
    )
