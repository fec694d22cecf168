"""Baseline probabilistic scorers and external score ingestion.

The default model is logistic regression trained by full-batch gradient
descent: convex and fully deterministic, so every downstream audit number
is reproducible.  A one-hidden-layer network (200 units, Adam, batch 128)
is available as ``model_kind="one-hidden-layer"`` for fidelity runs.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import prng
from .dataset import Dataset, Split, atomic_open, plain_number
from .errors import (
    EmptyTrain,
    IdMismatch,
    NonFiniteLoss,
    ScoreOutOfRange,
)

log = logging.getLogger(__name__)

_CLAMP_SLACK = 1e-9
_MLP_BATCH = 128
_MLP_HIDDEN = 200


@dataclass(frozen=True)
class ScoreSet:
    """Per-instance scores in [0, 1], aligned to a Dataset."""

    method: str
    instance_ids: np.ndarray
    scores: np.ndarray
    produced_on: str = "test"  # train | validation | test | external

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
    learning_rate: float = 0.1
    epochs: int = 500
    l2_penalty: float = 1e-4
    seed: int = 42
    model_kind: str = "logistic"  # logistic | one-hidden-layer

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.l2_penalty < 0:
            raise ValueError("l2_penalty must be nonnegative")
        if self.model_kind not in ("logistic", "one-hidden-layer"):
            raise ValueError(f"unknown model_kind {self.model_kind!r}")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # never overflows
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _bce(p: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy for 0/1 labels y."""
    return float(-np.mean(np.log(np.where(y == 1, p, 1 - p) + 1e-12)))


@dataclass
class Scorer:
    """A fitted model plus the preprocessing frozen from its train split."""

    config: ScorerConfig
    numeric_idx: np.ndarray          # feature columns standardized
    categorical_idx: np.ndarray      # feature columns one-hot encoded
    categorical_levels: np.ndarray   # number of codes per categorical column
    include_sensitive: bool
    mean: np.ndarray                 # train means of numeric columns
    std: np.ndarray                  # train stds (zeros replaced by 1)
    weights: dict = field(default_factory=dict)
    loss_history: list = field(default_factory=list, repr=False)

    def design_matrix(self, d: Dataset, pos: np.ndarray) -> np.ndarray:
        blocks = []
        if len(self.numeric_idx):
            num = d.features[np.ix_(pos, self.numeric_idx)]
            blocks.append((num - self.mean) / self.std)
        for j, levels in zip(self.categorical_idx, self.categorical_levels):
            codes = d.features[pos, j].astype(np.int64)
            onehot = np.zeros((len(pos), int(levels)), dtype=np.float64)
            valid = (codes >= 0) & (codes < levels)
            onehot[np.arange(len(pos))[valid], codes[valid]] = 1.0
            blocks.append(onehot[:, 1:])  # drop first level
        if self.include_sensitive:
            blocks.append(d.sensitive[pos].astype(np.float64)[:, None])
        if not blocks:
            return np.zeros((len(pos), 0))
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


def fit(d: Dataset, split: Split, cfg: ScorerConfig,
        include_sensitive: bool = False) -> Scorer:
    """Train the scorer on the train partition.

    Features are standardized with train statistics only.  Raises
    EmptyTrain for an empty train partition and NonFiniteLoss when the
    loss diverges.  The per-epoch loss history is kept on the scorer.
    """
    if len(split.train_ids) == 0:
        raise EmptyTrain("train partition is empty")
    pos = d.positions_of(split.train_ids)
    numeric_idx, cat_idx, cat_levels = _feature_layout(d)

    if len(numeric_idx):
        train_num = d.features[np.ix_(pos, numeric_idx)]
        mean = train_num.mean(axis=0)
        std = train_num.std(axis=0)
        std[std == 0.0] = 1.0
    else:
        mean = np.zeros(0)
        std = np.ones(0)

    model = Scorer(
        config=cfg,
        numeric_idx=numeric_idx,
        categorical_idx=cat_idx,
        categorical_levels=cat_levels,
        include_sensitive=include_sensitive,
        mean=mean,
        std=std,
    )
    X = model.design_matrix(d, pos)
    y = d.label[pos].astype(np.float64)

    if cfg.model_kind == "logistic":
        _fit_logistic(model, X, y)
    else:
        _fit_mlp(model, X, y)

    tail = max(2, cfg.epochs // 10)
    recent = model.loss_history[-tail:]
    if any(b > a + 1e-9 for a, b in zip(recent, recent[1:])):
        log.warning("training loss rose over the final %d epochs", tail)
    return model


def _fit_logistic(model: Scorer, X: np.ndarray, y: np.ndarray) -> None:
    cfg = model.config
    n, k = X.shape
    w = np.zeros(k)
    b = 0.0
    history = []
    for epoch in range(cfg.epochs):
        p = _sigmoid(X @ w + b)
        loss = _bce(p, y) + cfg.l2_penalty * float(w @ w)
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"loss became non-finite at epoch {epoch}")
        history.append(loss)
        err = (p - y) / n
        w -= cfg.learning_rate * (X.T @ err + 2.0 * cfg.l2_penalty * w)
        b -= cfg.learning_rate * float(err.sum())
    model.weights = {"w": w, "b": np.array([b])}
    model.loss_history = history


def _fit_mlp(model: Scorer, X: np.ndarray, y: np.ndarray) -> None:
    cfg = model.config
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
            p = _sigmoid(a1 @ w2 + b2[0])
            losses.append(_bce(p, yb) * len(idx))
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
    model.weights = {"w1": w1, "b1": b1, "w2": w2, "b2": b2}
    model.loss_history = history


def score(m: Scorer, d: Dataset, ids, method: str = "baseline",
          role: str = "test") -> ScoreSet:
    """Score the rows for the given ids; pure function of (model, rows)."""
    ids = np.asarray(ids, dtype=np.int64)
    pos = d.positions_of(ids)
    X = m.design_matrix(d, pos)
    return ScoreSet(method=method, instance_ids=ids,
                    scores=m.raw_scores(X), produced_on=role)


def ingest_external_scores(csv_path: str | Path, d: Dataset,
                           method: str) -> ScoreSet:
    """Load scores produced by an external method from instance_id,score CSV.

    Ids must exist in the dataset and be unique.  Scores more than 1e-9
    outside [0, 1] raise ScoreOutOfRange; smaller excursions are clamped.
    A row whose cells are not an integer and a number, both plain_number,
    raises IdMismatch naming the file and line.
    """
    ids, scores = [], []
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        if fh.read(1) != "\ufeff":  # skip a byte-order mark
            fh.seek(0)
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
                ids.append(int(cells[0]))
                scores.append(float(cells[1]))
            except ValueError:
                raise IdMismatch(f"{csv_path}, line {reader.line_num}: expected "
                                 f"instance_id,score numbers, got {row}") from None
    ids = np.asarray(ids, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if len(np.unique(ids)) != len(ids):
        raise IdMismatch(f"{csv_path}: duplicate instance ids")
    d.positions_of(ids)  # raises UnknownId on foreign ids
    low, high = scores.min(initial=0.0), scores.max(initial=1.0)
    if low < -_CLAMP_SLACK or high > 1.0 + _CLAMP_SLACK:
        raise ScoreOutOfRange(
            f"{csv_path}: scores outside [0, 1] beyond {_CLAMP_SLACK}"
        )
    order = np.argsort(ids, kind="stable")
    return ScoreSet(method=method, instance_ids=ids[order],
                    scores=np.clip(scores[order], 0.0, 1.0), produced_on="external")


def relabel(scores: ScoreSet, method: str) -> ScoreSet:
    """Same score values under a new method name (postprocessing view)."""
    return ScoreSet(method=method, instance_ids=scores.instance_ids,
                    scores=scores.scores, produced_on=scores.produced_on)


def save_scorer(m: Scorer, path: str | Path) -> None:
    """Persist coefficients as named arrays at 17 significant digits."""
    arrays = {
        "numeric_idx": m.numeric_idx,
        "categorical_idx": m.categorical_idx,
        "categorical_levels": m.categorical_levels,
        "include_sensitive": np.array([int(m.include_sensitive)]),
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
    arrays = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    i = 0
    while i < len(lines):
        if not lines[i]:
            i += 1
            continue
        parts = lines[i].split(" ")
        name = parts[0]
        shape = tuple(int(p) for p in parts[1:])
        count = int(np.prod(shape)) if shape else 1
        vals = np.array([float(v) for v in lines[i + 1:i + 1 + count]])
        arrays[name] = vals.reshape(shape)
        i += 1 + count
    cfg_vec = arrays.pop("cfg")
    cfg = ScorerConfig(
        learning_rate=float(cfg_vec[0]),
        epochs=int(cfg_vec[1]),
        l2_penalty=float(cfg_vec[2]),
        seed=int(cfg_vec[3]),
        model_kind="logistic" if cfg_vec[4] == 0.0 else "one-hidden-layer",
    )
    model = Scorer(
        config=cfg,
        numeric_idx=arrays.pop("numeric_idx").astype(np.int64),
        categorical_idx=arrays.pop("categorical_idx").astype(np.int64),
        categorical_levels=arrays.pop("categorical_levels").astype(np.int64),
        include_sensitive=bool(arrays.pop("include_sensitive")[0]),
        mean=arrays.pop("mean"),
        std=arrays.pop("std"),
    )
    model.weights = arrays
    return model
