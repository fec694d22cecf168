"""The baseline probabilistic scorer and external score ingestion.

The scorer is L2-penalized logistic regression fitted to its optimum by
Newton's method (IRLS): convex and deterministic, so the baseline that every
method's Kendall tau is measured against is one exact, reproducible ranking.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path

import numpy as np

from .dataset import Dataset, Split, atomic_open, plain_number
from .errors import (
    EmptyTrain,
    IdMismatch,
    NonFiniteTrainColumn,
    ScoreOutOfRange,
    UnknownId,
    require,
)

log = logging.getLogger(__name__)

_CLAMP_SLACK = 1e-9
_HESSIAN_FLOOR = 1e-12  # keeps Newton's system solvable where the loss is flat
_LOSS_ROUNDING = 16 * np.finfo(np.float64).eps  # relative; a loss change below it is noise
_ARRAYS = {  # the arrays of a scorer.txt, each one-dimensional, with its length where fixed
    "numeric_idx": None, "categorical_idx": None, "categorical_levels": None,
    "include_sensitive": 1, "mean": None, "std": None, "cfg": 2, "w": None, "b": 1}


@dataclass(frozen=True)
class ScoreSet:
    """Per-instance scores in [0, 1], aligned to a Dataset."""

    method: str
    instance_ids: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        if len(self.scores) != len(self.instance_ids):
            raise ValueError("scores and ids differ in length")
        s = np.asarray(self.scores, dtype=np.float64)
        if not np.isfinite(s).all():
            raise ScoreOutOfRange(f"{self.method}: scores must be finite")
        if len(s) and (s.min() < 0.0 or s.max() > 1.0):
            raise ScoreOutOfRange(
                f"scores outside [0, 1]: min={s.min()}, max={s.max()}"
            )

    @property
    def n(self) -> int:
        return len(self.instance_ids)


@dataclass(frozen=True)
class ScorerConfig:
    epochs: int = 500  # the cap on Newton iterations
    l2_penalty: float = 1e-4
    include_sensitive: bool = False

    FIELD_RULES = {  # not a field: what each field must be, a key of errors.RULES
        "epochs": "an integer >= 1", "l2_penalty": "a finite number >= 0",
        "include_sensitive": "true or false"}

    def __post_init__(self):
        for name, what in self.FIELD_RULES.items():
            require(getattr(self, name), name, what)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # never overflows
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True)
class Scorer:
    """A fitted model plus the preprocessing frozen from its train split."""

    config: ScorerConfig
    numeric_idx: np.ndarray          # feature columns standardized
    categorical_idx: np.ndarray      # feature columns one-hot encoded
    categorical_levels: np.ndarray   # number of codes per categorical column
    mean: np.ndarray                 # train means of numeric columns
    std: np.ndarray                  # train stds (zeros replaced by 1)
    weights: dict = field(default_factory=dict)
    loss_history: list = field(default_factory=list, repr=False)

    def design_matrix(self, d: Dataset, pos: np.ndarray) -> np.ndarray:
        num = d.features[np.ix_(pos, self.numeric_idx)]  # (n, 0) without numeric columns
        blocks = [(num - self.mean) / self.std]
        for j, levels in zip(self.categorical_idx, self.categorical_levels):
            codes = d.features[pos, j].astype(np.int64)
            onehot = np.zeros((len(pos), int(levels)), dtype=np.float64)
            valid = (codes >= 0) & (codes < levels)
            onehot[np.arange(len(pos))[valid], codes[valid]] = 1.0
            blocks.append(onehot[:, 1:])  # drop first level
        if self.config.include_sensitive:
            blocks.append(d.sensitive[pos].astype(np.float64)[:, None])
        return np.hstack(blocks)

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(X @ self.weights["w"] + self.weights["b"][0])


def _feature_layout(d: Dataset):
    numeric, categorical, levels = [], [], []
    for j, col in enumerate(d.schema.feature_columns):
        if col.kind == "numeric":
            numeric.append(j)
        else:
            n_levels = len(d.categories.get(col.name, ()))
            if n_levels == 0:
                n_levels = int(d.features[:, j].max()) + 1 if d.n else 1
            categorical.append(j)
            levels.append(n_levels)
    return (np.array(numeric, dtype=np.int64),
            np.array(categorical, dtype=np.int64),
            np.array(levels, dtype=np.int64))


def fit(d: Dataset, split: Split, cfg: ScorerConfig) -> Scorer:
    """Train the scorer on the train partition.

    Features are standardized with train statistics only.  Raises
    EmptyTrain for an empty train partition and NonFiniteTrainColumn when
    a train mean or std is not finite.  The loss at each Newton iteration
    is kept on the scorer: the mean log loss over train plus the L2 penalty.
    """
    if len(split.train_ids) == 0:
        raise EmptyTrain("train partition is empty")
    pos = d.positions_of(split.train_ids)
    numeric_idx, cat_idx, cat_levels = _feature_layout(d)

    train_num = d.features[np.ix_(pos, numeric_idx)]  # (n, 0) without numeric columns
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        mean, std = train_num.mean(axis=0), train_num.std(axis=0)
    not_finite = ~np.isfinite([mean, std]).all(axis=0)
    if not_finite.any():
        column = d.schema.feature_columns[numeric_idx[not_finite.argmax()]].name
        raise NonFiniteTrainColumn(f"train mean or std of column {column!r} is not finite")
    std[std == 0.0] = 1.0

    model = Scorer(
        config=cfg,
        numeric_idx=numeric_idx,
        categorical_idx=cat_idx,
        categorical_levels=cat_levels,
        mean=mean,
        std=std,
    )
    X = model.design_matrix(d, pos)
    y = d.label[pos].astype(np.float64)

    weights, history = _fit_logistic(cfg, X, y)
    return replace(model, weights=weights, loss_history=history)


def _fit_logistic(cfg: ScorerConfig, X: np.ndarray, y: np.ndarray) -> tuple[dict, list]:
    """Newton's method (IRLS) on mean BCE + l2_penalty * |w|^2, the intercept
    unpenalized.  A step is halved until it lowers the loss (or, for a change
    within rounding, the gradient); the fit stops once a step would be at most
    1e-10 * max(1, max|theta|).  epochs caps the iterations."""
    n, k = X.shape
    sign = 1.0 - 2.0 * y  # a row's loss is softplus(sign * z)

    def evaluate(theta):  # loss, gradient, q
        w, m = theta[:k], sign * (X @ theta[:k] + theta[k])
        q = _sigmoid(m)  # each row's probability of its other label
        r = sign * q / n
        return (float(np.mean(np.logaddexp(0.0, m)) + cfg.l2_penalty * (w @ w)),
                np.append(X.T @ r + 2.0 * cfg.l2_penalty * w, r.sum()), q)

    theta = np.zeros(k + 1)  # w, then b
    current, grad, q = evaluate(theta)
    history = []
    for _ in range(cfg.epochs):
        history.append(current)
        s = q * (1.0 - q) / n
        hess = np.diag(np.append(np.full(k, 2.0 * cfg.l2_penalty), s.sum()) + _HESSIAN_FLOOR)
        hess[:k, :k] += X.T @ (X * s[:, None])
        hess[:k, k] = hess[k, :k] = X.T @ s
        step = np.linalg.solve(hess, grad)
        tol = 1e-10 * max(1.0, float(np.abs(theta).max()))
        rounding = _LOSS_ROUNDING * abs(current)
        while np.abs(step).max() > tol:
            loss, trial_grad, trial_q = evaluate(theta - step)
            if loss < current - rounding or (loss <= current + rounding and
                                             np.abs(trial_grad).sum() < np.abs(grad).sum()):
                break
            step /= 2.0
        else:  # converged: the step is within tolerance, or none lowers the loss
            break
        theta -= step
        current, grad, q = loss, trial_grad, trial_q
    else:
        log.warning("logistic fit did not converge within %d iterations", cfg.epochs)
    return {"w": theta[:k].copy(), "b": theta[k:].copy()}, history


def score(m: Scorer, d: Dataset, ids, method: str = "baseline") -> ScoreSet:
    """Score the rows for the given ids; pure function of (model, rows)."""
    ids = np.asarray(ids, dtype=np.int64)
    pos = d.positions_of(ids)
    X = m.design_matrix(d, pos)
    return ScoreSet(method=method, instance_ids=ids, scores=m.raw_scores(X))


def ingest_external_scores(csv_path: str | Path, d: Dataset, ids,
                           method: str) -> ScoreSet:
    """The scores an external method gave the given ids, read from an
    instance_id,score CSV, in the order of ids.

    The file's ids must exist in the dataset and be unique, and it may hold
    ids that were not asked for; UnknownId names up to five asked-for ids
    it lacks.  Scores that are not finite or lie more than 1e-9 outside
    [0, 1] raise ScoreOutOfRange; smaller excursions are clamped.  A row
    whose cells are not an integer and a number, both plain_number, raises
    IdMismatch naming the file and line.
    """
    file_ids, scores = [], []
    with open(csv_path, "r", encoding="utf-8-sig", newline="") as fh:  # drops a byte-order mark
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["instance_id", "score"]:
            raise IdMismatch(f"{csv_path}: expected header instance_id,score")
        for row in reader:
            cells = [c.strip() for c in row[:2]]
            if not cells:
                continue
            try:
                if len(cells) < 2 or not plain_number("".join(cells)):
                    raise ValueError
                file_ids.append(int(cells[0]))
                scores.append(float(cells[1]))
            except ValueError:
                raise IdMismatch(f"{csv_path}, line {reader.line_num}: expected "
                                 f"instance_id,score numbers, got {row}") from None
    file_ids = np.asarray(file_ids, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if len(np.unique(file_ids)) != len(file_ids):
        raise IdMismatch(f"{csv_path}: duplicate instance ids")
    rows = d.positions_of(file_ids)  # raises UnknownId on foreign ids
    if not ((scores >= -_CLAMP_SLACK) & (scores <= 1.0 + _CLAMP_SLACK)).all():
        raise ScoreOutOfRange(
            f"{csv_path}: scores not finite or outside [0, 1] beyond {_CLAMP_SLACK}"
        )
    by_row = np.full(d.n, np.nan)  # an id is its row; nan where the file has none
    by_row[rows] = np.clip(scores, 0.0, 1.0)
    ids = np.asarray(ids, dtype=np.int64)
    wanted = by_row[d.positions_of(ids)]
    lacking = np.isnan(wanted)
    if lacking.any():
        raise UnknownId(f"{csv_path} lacks ids {ids[lacking][:5].tolist()}")
    return ScoreSet(method=method, instance_ids=ids, scores=wanted)


def relabel(scores: ScoreSet, method: str) -> ScoreSet:
    """Same score values under a new method name (postprocessing view)."""
    return replace(scores, method=method)


def save_scorer(m: Scorer, path: str | Path) -> None:
    """Persist coefficients as named arrays at 17 significant digits."""
    arrays = {
        "numeric_idx": m.numeric_idx,
        "categorical_idx": m.categorical_idx,
        "categorical_levels": m.categorical_levels,
        "include_sensitive": np.array([int(m.config.include_sensitive)]),
        "mean": m.mean,
        "std": m.std,
        "cfg": np.array([m.config.epochs, m.config.l2_penalty]),
    }
    arrays.update(m.weights)
    with atomic_open(path) as fh:
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype=np.float64)
            dims = " ".join(str(s) for s in arr.shape)
            fh.write(f"{name} {dims}\n")
            for v in arr.ravel():
                fh.write(f"{v:.17g}\n")


def load_scorer(path: str | Path) -> Scorer:
    """Read a save_scorer file, skipping blank lines.  A damaged or old file
    is a ValueError naming the file, and the line where there is one: a value
    or dimension that is not a number, an array save_scorer does not write,
    one missing or cut short, one that is not one-dimensional or has a
    length it cannot have (negative, or the 5 values of an old cfg), a
    categorical_levels value that is not an integer >= 1, and arrays whose
    lengths disagree: mean and std must have one value per
    numeric_idx, categorical_levels one per categorical_idx, and w one per
    design column (each numeric column, each level but the first of each
    categorical column, and the sensitive attribute if included)."""
    def number(kind, n, text):
        try:
            return kind(text)
        except ValueError:
            raise ValueError(f"{path}, line {n}: {text!r} is not a number") from None

    with open(path, "r", encoding="utf-8") as fh:
        lines = iter([(n, ln.strip()) for n, ln in enumerate(fh, 1) if ln.strip()])
    arrays = {}
    for n, head in lines:
        name, *dims = head.split(" ")
        shape = tuple(number(int, n, dim) for dim in dims)
        if name not in _ARRAYS:
            raise ValueError(f"{path}, line {n}: unknown array {name!r}")
        if len(shape) != 1 or shape[0] < 0 or _ARRAYS[name] not in (None, shape[0]):
            raise ValueError(f"{path}, line {n}: array {name!r} cannot have shape {shape}")
        values = list(islice(lines, shape[0]))
        if len(values) < shape[0]:
            raise ValueError(f"{path}, line {n}: array {name!r} needs {shape[0]} values, "
                             f"the file holds {len(values)}")
        arrays[name] = np.array([number(float, *v) for v in values])
    missing = [name for name in _ARRAYS if name not in arrays]
    if missing:
        raise ValueError(f"{path}: no array {', '.join(map(repr, missing))}")
    levels = arrays["categorical_levels"]
    if not (np.isfinite(levels) & (levels >= 1) & (levels == np.floor(levels))).all():
        raise ValueError(f"{path}: array 'categorical_levels' holds {levels.tolist()}, "
                         f"but each level count must be an integer >= 1")
    n_numeric, sensitive = len(arrays["numeric_idx"]), bool(arrays["include_sensitive"][0])
    for name, want, source in (
            ("mean", n_numeric, "numeric_idx"), ("std", n_numeric, "numeric_idx"),
            ("categorical_levels", len(arrays["categorical_idx"]), "categorical_idx"),
            ("w", n_numeric + int((arrays["categorical_levels"] - 1).sum()) + sensitive,
             "numeric_idx, categorical_levels and include_sensitive")):
        if len(arrays[name]) != want:
            raise ValueError(f"{path}: array {name!r} holds {len(arrays[name])} values, "
                             f"but {source} call for {want}")
    epochs, l2_penalty = arrays["cfg"]
    cfg = ScorerConfig(epochs=int(epochs), l2_penalty=float(l2_penalty),
                       include_sensitive=sensitive)
    return Scorer(
        config=cfg,
        numeric_idx=arrays["numeric_idx"].astype(np.int64),
        categorical_idx=arrays["categorical_idx"].astype(np.int64),
        categorical_levels=arrays["categorical_levels"].astype(np.int64),
        mean=arrays["mean"],
        std=arrays["std"],
        weights={"w": arrays["w"], "b": arrays["b"]},
    )
