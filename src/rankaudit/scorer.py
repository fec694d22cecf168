"""Baseline probabilistic scorers and external score ingestion.

The default model is L2-penalized logistic regression fitted to its optimum
by Newton's method (IRLS): convex and deterministic, so every downstream
audit number is reproducible.  A one-hidden-layer network (200 units, Adam,
batch 128) is available as ``model_kind="one-hidden-layer"`` for fidelity runs.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path

import numpy as np

from . import prng
from .dataset import Dataset, Split, atomic_open, plain_number
from .errors import (
    EmptyTrain,
    IdMismatch,
    NonFiniteLoss,
    ScoreOutOfRange,
    UnknownId,
    require,
)

log = logging.getLogger(__name__)

_CLAMP_SLACK = 1e-9
_HESSIAN_FLOOR = 1e-12  # keeps Newton's system solvable where the loss is flat
_LOSS_ROUNDING = 16 * np.finfo(np.float64).eps  # relative; a loss change below it is noise
_MLP_BATCH = 128
_MLP_HIDDEN = 200


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
    learning_rate: float = 0.1  # Adam's step size: one-hidden-layer only
    epochs: int = 500  # logistic: the cap on Newton iterations
    l2_penalty: float = 1e-4
    seed: int = 42
    model_kind: str = "logistic"  # logistic | one-hidden-layer
    include_sensitive: bool = False

    FIELD_RULES = {  # not a field: what each field must be, a key of errors.RULES
        "learning_rate": "a finite number > 0", "epochs": "an integer >= 1",
        "l2_penalty": "a finite number >= 0",
        "seed": "an integer in [-2**53, 2**53]",  # save_scorer writes it as a float64
        "model_kind": '"logistic" or "one-hidden-layer"', "include_sensitive": "true or false"}

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
        w = self.weights
        if self.config.model_kind == "logistic":
            return _sigmoid(X @ w["w"] + w["b"][0])
        h = np.maximum(X @ w["w1"] + w["b1"], 0.0)
        return _sigmoid(h @ w["w2"] + w["b2"][0])


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
    EmptyTrain for an empty train partition and NonFiniteLoss when a train
    mean or std, or the loss, is not finite.  The loss at each iteration
    (logistic) or epoch (one-hidden-layer) is kept on the scorer: the mean
    log loss over train, plus the L2 penalty for the logistic model.
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
        raise NonFiniteLoss(f"train mean or std of column {column!r} is not finite")
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

    with np.errstate(over="ignore", invalid="ignore"):  # each fit checks its loss itself
        if cfg.model_kind == "logistic":
            weights, history = _fit_logistic(cfg, X, y)
        else:
            weights, history = _fit_mlp(cfg, X, y)
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


def _fit_mlp(cfg: ScorerConfig, X: np.ndarray, y: np.ndarray) -> tuple[dict, list]:
    n, k = X.shape
    h = _MLP_HIDDEN
    s = cfg.seed
    w1 = prng.normal(prng.derive(s, 1), k * h).reshape(k, h) * np.sqrt(2.0 / max(k, 1))
    b1 = np.zeros(h)
    w2 = prng.normal(prng.derive(s, 2), h) * np.sqrt(1.0 / h)
    b2 = np.zeros(1)
    params = [w1, b1, w2, b2]
    m_t = [np.zeros_like(p) for p in params]
    v_t = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    history = []
    for epoch in range(cfg.epochs):
        order = prng.permutation(prng.derive(s, 100 + epoch), n)
        losses = []
        for start in range(0, n, _MLP_BATCH):
            idx = order[start:start + _MLP_BATCH]
            xb, yb = X[idx], y[idx]
            z1 = xb @ w1 + b1
            a1 = np.maximum(z1, 0.0)
            z2 = a1 @ w2 + b2[0]
            p = _sigmoid(z2)
            losses.append(float(np.logaddexp(0.0, (1.0 - 2.0 * yb) * z2).sum()))
            dz2 = (p - yb) / len(idx)
            gw2 = a1.T @ dz2 + 2.0 * cfg.l2_penalty * w2
            gb2 = np.array([dz2.sum()])
            da1 = np.outer(dz2, w2)
            dz1 = da1 * (z1 > 0)
            gw1 = xb.T @ dz1 + 2.0 * cfg.l2_penalty * w1
            gb1 = dz1.sum(axis=0)
            step += 1
            for p_i, g in zip(range(4), (gw1, gb1, gw2, gb2)):
                m_t[p_i] = beta1 * m_t[p_i] + (1 - beta1) * g
                v_t[p_i] = beta2 * v_t[p_i] + (1 - beta2) * g * g
                m_hat = m_t[p_i] / (1 - beta1**step)
                v_hat = v_t[p_i] / (1 - beta2**step)
                params[p_i] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        epoch_loss = sum(losses) / n
        if not np.isfinite(epoch_loss):
            raise NonFiniteLoss(f"loss became non-finite at epoch {epoch}")
        history.append(epoch_loss)
    return {"w1": w1, "b1": b1, "w2": w2, "b2": b2}, history


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
        "cfg": np.array([m.config.learning_rate, m.config.epochs,
                         m.config.l2_penalty, m.config.seed,
                         0.0 if m.config.model_kind == "logistic" else 1.0]),
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
    """Read a save_scorer file, skipping blank lines; a value that is not a
    number, or an array cut short, is a ValueError naming the file and line."""
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
        count = int(np.prod(shape))
        values = list(islice(lines, count))
        if len(values) < count:
            raise ValueError(f"{path}, line {n}: array {name!r} needs {count} values, "
                             f"the file holds {len(values)}")
        arrays[name] = np.array([number(float, *v) for v in values]).reshape(shape)
    cfg_vec = arrays.pop("cfg")
    cfg = ScorerConfig(
        learning_rate=float(cfg_vec[0]),
        epochs=int(cfg_vec[1]),
        l2_penalty=float(cfg_vec[2]),
        seed=int(cfg_vec[3]),
        model_kind="logistic" if cfg_vec[4] == 0.0 else "one-hidden-layer",
        include_sensitive=bool(arrays.pop("include_sensitive")[0]),
    )
    return Scorer(
        config=cfg,
        numeric_idx=arrays.pop("numeric_idx").astype(np.int64),
        categorical_idx=arrays.pop("categorical_idx").astype(np.int64),
        categorical_levels=arrays.pop("categorical_levels").astype(np.int64),
        mean=arrays.pop("mean"),
        std=arrays.pop("std"),
        weights=arrays,
    )
