"""Tabular ingestion, benchmark schemas, and deterministic splits.

A Dataset holds one binary sensitive attribute (protected vs privileged),
one binary target (1 = favorable), and a numeric feature matrix in which
categorical columns are stored as small integer codes.  Ingestion keeps the
original cell strings so that export reproduces every cell exactly.
"""

from __future__ import annotations

import csv
import json
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np

from . import prng
from .errors import (
    EmptyFile,
    MisalignedIds,
    MissingColumn,
    NonBinarySensitive,
    NonBinaryTarget,
    UnknownId,
)

log = logging.getLogger(__name__)

PROTECTED = 1
PRIVILEGED = 0
GROUP_NAMES = {PROTECTED: "protected", PRIVILEGED: "privileged"}

BASE_RATE_TOLERANCE = 5e-4

# cells treated as missing; rows containing one in a used column are dropped
_MISSING_CELLS = {"", "?"}

_TEXT_BLOCK = 1 << 16  # values turned into CSV text per step


@contextmanager
def atomic_open(path: str | Path):
    """Write `<path>.tmp`, then move it onto path; on error remove it instead."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, header, rows) -> None:
    """Atomically write a header line and then every row, csv-quoted."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def float_text(values):
    """repr of each value as a Python float: the text every CSV carries.

    Converts a block at a time, so a long column never exists as Python
    floats all at once.
    """
    v = np.asarray(values, dtype=np.float64)
    return chain.from_iterable(map(repr, v[i:i + _TEXT_BLOCK].tolist())
                               for i in range(0, len(v), _TEXT_BLOCK))


def group_names(sensitive: np.ndarray) -> np.ndarray:
    """Per-row group name of 0/1 sensitive codes, sharing two str objects."""
    table = np.array([GROUP_NAMES[PRIVILEGED], GROUP_NAMES[PROTECTED]], dtype=object)
    return table[sensitive]


@dataclass(frozen=True)
class FeatureColumn:
    name: str
    kind: str  # "numeric" | "categorical"

    def __post_init__(self):
        if self.kind not in ("numeric", "categorical"):
            raise ValueError(f"unknown column kind {self.kind!r}")


@dataclass(frozen=True)
class DatasetSpec:
    """Schema of one benchmark table: which columns mean what."""

    name: str
    protected_attribute_column: str
    protected_value: str
    target_column: str
    favorable_value: str
    feature_columns: tuple[FeatureColumn, ...]
    expected_base_rate: float | None = None

    def __post_init__(self):
        names = [c.name for c in self.feature_columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature columns")
        for special in (self.protected_attribute_column, self.target_column):
            if special in names:
                raise ValueError(
                    f"column {special!r} cannot be both special and a feature"
                )

    @property
    def used_columns(self) -> list[str]:
        return (
            [c.name for c in self.feature_columns]
            + [self.protected_attribute_column, self.target_column]
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "protected_attribute_column": self.protected_attribute_column,
            "protected_value": self.protected_value,
            "target_column": self.target_column,
            "favorable_value": self.favorable_value,
            "expected_base_rate": self.expected_base_rate,
            "feature_columns": [
                {"name": c.name, "kind": c.kind} for c in self.feature_columns
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "DatasetSpec":
        return cls(
            name=doc["name"],
            protected_attribute_column=doc["protected_attribute_column"],
            protected_value=str(doc["protected_value"]),
            target_column=doc["target_column"],
            favorable_value=str(doc["favorable_value"]),
            feature_columns=tuple(
                FeatureColumn(c["name"], c["kind"]) for c in doc["feature_columns"]
            ),
            expected_base_rate=doc.get("expected_base_rate"),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "DatasetSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def builtin_specs() -> dict[str, DatasetSpec]:
    """The five benchmark schemas shipped with the package."""
    specs = {}
    for entry in resources.files("rankaudit.specs").iterdir():
        if entry.name.endswith(".json"):
            spec = DatasetSpec.from_dict(json.loads(entry.read_text("utf-8")))
            specs[spec.name] = spec
    return specs


@dataclass(frozen=True)
class Dataset:
    """Immutable audited table; safe for concurrent reads."""

    instance_ids: np.ndarray  # int64, strictly increasing
    features: np.ndarray      # float64 matrix, categoricals as codes
    sensitive: np.ndarray     # int8, 1 = protected, 0 = privileged
    label: np.ndarray         # int8, 1 = favorable
    schema: DatasetSpec
    categories: dict = field(default_factory=dict)     # column -> code table
    sensitive_values: tuple = ("protected", "privileged")
    target_values: tuple = ("1", "0")                  # (favorable, other)
    dropped_rows: int = 0
    raw_header: tuple = ()
    raw_rows: tuple = ()

    def __post_init__(self):
        n = len(self.instance_ids)
        if n < 1:
            raise ValueError("dataset must contain at least one row")
        for name, vec in (("features", self.features), ("sensitive", self.sensitive),
                          ("label", self.label)):
            if len(vec) != n:
                raise ValueError(f"{name} length {len(vec)} != {n}")
        if not np.all(np.diff(self.instance_ids) > 0):
            raise ValueError("instance_ids must be strictly increasing")
        if not np.isin(self.sensitive, (PROTECTED, PRIVILEGED)).all():
            raise ValueError("sensitive values must be 0/1")
        if not np.isin(self.label, (0, 1)).all():
            raise ValueError("labels must be 0/1")

    @property
    def n(self) -> int:
        return len(self.instance_ids)

    @property
    def protected_mask(self) -> np.ndarray:
        return self.sensitive == PROTECTED

    def group_sizes(self) -> tuple[int, int]:
        """(n_protected, n_privileged)."""
        n_prot = int(self.protected_mask.sum())
        return n_prot, self.n - n_prot

    def positions_of(self, ids) -> np.ndarray:
        """Row positions of the given instance ids; raises UnknownId."""
        ids = np.asarray(ids, dtype=np.int64)
        pos = np.searchsorted(self.instance_ids, ids)
        bad = (pos >= self.n) | (self.instance_ids[np.minimum(pos, self.n - 1)] != ids)
        if bad.any():
            raise UnknownId(f"ids not in dataset: {ids[bad][:5].tolist()}")
        return pos

    def feature_index(self, column: str) -> int:
        for i, c in enumerate(self.schema.feature_columns):
            if c.name == column:
                return i
        raise MissingColumn(f"no feature column named {column!r}")

    def export_csv(self, path: str | Path) -> None:
        """Write the used columns back out; ingested cells round-trip exactly."""
        if self.raw_rows:
            write_csv(path, self.raw_header, self.raw_rows)
            return
        columns = []
        for j, col in enumerate(self.schema.feature_columns):
            v = self.features[:, j]
            if col.kind == "categorical" and col.name in self.categories:
                table = np.array(self.categories[col.name], dtype=object)
                columns.append(table[v.astype(np.int64)].tolist())
            else:
                columns.append(float_text(v))
        prot_raw, priv_raw = self.sensitive_values
        fav_raw, unfav_raw = self.target_values
        columns.append(np.where(self.sensitive == PROTECTED, prot_raw, priv_raw).tolist())
        columns.append(np.where(self.label == 1, fav_raw, unfav_raw).tolist())
        write_csv(path, self.schema.used_columns, zip(*columns))


@dataclass(frozen=True)
class Split:
    """Disjoint train/validation/test id sets (stored ascending)."""

    train_ids: np.ndarray
    validation_ids: np.ndarray
    test_ids: np.ndarray
    seed: int

    def sizes(self) -> tuple[int, int, int]:
        return len(self.train_ids), len(self.validation_ids), len(self.test_ids)


def ingest(csv_path: str | Path, spec: DatasetSpec) -> Dataset:
    """Read a CSV into a Dataset, binarizing sensitive and target columns.

    Rows with a missing value ("" or "?") in any used column are dropped and
    counted.  Raises MissingColumn, NonBinarySensitive, NonBinaryTarget, or
    EmptyFile on contract violations.
    """
    csv_path = Path(csv_path)
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            file_header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{csv_path} has no header row")
        file_header = [h.strip() for h in file_header]
        col_pos = {}
        for col in spec.used_columns:
            if col not in file_header:
                raise MissingColumn(f"{csv_path} lacks column {col!r}")
            col_pos[col] = file_header.index(col)

        used = spec.used_columns
        kept_rows = []
        dropped = 0
        for row in reader:
            if len(row) < len(file_header):
                dropped += 1
                continue
            cells = [row[col_pos[c]].strip() for c in used]
            if any(c in _MISSING_CELLS for c in cells):
                dropped += 1
                continue
            kept_rows.append(cells)

    if not kept_rows:
        raise EmptyFile(f"{csv_path} has no usable data rows ({dropped} dropped)")
    if dropped:
        log.warning("%s: dropped %d rows with missing values", csv_path.name, dropped)

    n = len(kept_rows)
    sens_col = used.index(spec.protected_attribute_column)
    targ_col = used.index(spec.target_column)

    sens_raw = [r[sens_col] for r in kept_rows]
    others = sorted(set(sens_raw) - {spec.protected_value})
    if len(others) > 1:
        raise NonBinarySensitive(
            f"sensitive column {spec.protected_attribute_column!r} has values "
            f"{sorted(set(sens_raw))}; expected {spec.protected_value!r} plus one other"
        )
    sensitive = np.fromiter(
        (PROTECTED if v == spec.protected_value else PRIVILEGED for v in sens_raw),
        dtype=np.int8, count=n,
    )

    targ_raw = [r[targ_col] for r in kept_rows]
    targ_others = sorted(set(targ_raw) - {spec.favorable_value})
    if len(targ_others) > 1:
        raise NonBinaryTarget(
            f"target column {spec.target_column!r} has values "
            f"{sorted(set(targ_raw))}; expected {spec.favorable_value!r} plus one other"
        )
    label = np.fromiter(
        (1 if v == spec.favorable_value else 0 for v in targ_raw),
        dtype=np.int8, count=n,
    )

    features = np.empty((n, len(spec.feature_columns)), dtype=np.float64)
    categories: dict[str, tuple[str, ...]] = {}
    bad_numeric = np.zeros(n, dtype=bool)
    for j, col in enumerate(spec.feature_columns):
        cells = [r[j] for r in kept_rows]
        if col.kind == "numeric":
            for i, cell in enumerate(cells):
                try:
                    features[i, j] = float(cell)
                except ValueError:
                    bad_numeric[i] = True
        else:
            codes: dict[str, int] = {}
            for i, cell in enumerate(cells):
                if cell not in codes:
                    codes[cell] = len(codes)
                features[i, j] = codes[cell]
            categories[col.name] = tuple(codes)

    if bad_numeric.any():
        # unparseable numeric cells are treated like missing values
        n_bad = int(bad_numeric.sum())
        log.warning("%s: dropped %d rows with non-numeric cells", csv_path.name, n_bad)
        keep = ~bad_numeric
        if not keep.any():
            raise EmptyFile(f"{csv_path} has no rows with parseable numeric cells")
        kept_rows = [r for r, k in zip(kept_rows, keep) if k]
        features = features[keep]
        sensitive = sensitive[keep]
        label = label[keep]
        dropped += n_bad
        n = len(kept_rows)
        # recode categoricals so codes stay dense and first-seen ordered
        for j, col in enumerate(spec.feature_columns):
            if col.kind == "categorical":
                codes = {}
                for i, r in enumerate(kept_rows):
                    if r[j] not in codes:
                        codes[r[j]] = len(codes)
                    features[i, j] = codes[r[j]]
                categories[col.name] = tuple(codes)

    prot_raw = spec.protected_value if PROTECTED in sensitive else others[0]
    priv_raw = others[0] if others else spec.protected_value
    fav_raw = spec.favorable_value
    unfav_raw = targ_others[0] if targ_others else spec.favorable_value

    return Dataset(
        instance_ids=np.arange(n, dtype=np.int64),
        features=features,
        sensitive=sensitive,
        label=label,
        schema=spec,
        categories=categories,
        sensitive_values=(prot_raw, priv_raw),
        target_values=(fav_raw, unfav_raw),
        dropped_rows=dropped,
        raw_header=tuple(used),
        raw_rows=tuple(tuple(r) for r in kept_rows),
    )


def verify_base_rate(d: Dataset) -> float:
    """Mean favorable rate; warns when it misses the schema's expected rate."""
    rate = float(d.label.mean())
    expected = d.schema.expected_base_rate
    if expected is not None and abs(rate - expected) > BASE_RATE_TOLERANCE:
        log.warning(
            "%s: base rate %.4f differs from expected %.4f by more than %.4f",
            d.schema.name, rate, expected, BASE_RATE_TOLERANCE,
        )
    return rate


def split(d: Dataset, fractions: tuple[float, float, float], seed: int) -> Split:
    """Deterministic shuffle-then-partition; floor sizes, remainder to train."""
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or any(f < 0 for f in fractions):
        raise ValueError(f"need three nonnegative fractions, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    n = d.n
    shuffled = d.instance_ids[prng.permutation(seed, n)]
    n_train = int(np.floor(fractions[0] * n + 1e-9))
    n_val = int(np.floor(fractions[1] * n + 1e-9))
    n_test = int(np.floor(fractions[2] * n + 1e-9))
    n_train += n - (n_train + n_val + n_test)
    return Split(
        train_ids=np.sort(shuffled[:n_train]),
        validation_ids=np.sort(shuffled[n_train:n_train + n_val]),
        test_ids=np.sort(shuffled[n_train + n_val:]),
        seed=seed,
    )


def require_aligned(ids_a: np.ndarray, ids_b: np.ndarray, what: str = "") -> None:
    """Raise MisalignedIds unless the two id vectors are elementwise equal."""
    a = np.asarray(ids_a)
    b = np.asarray(ids_b)
    if a.shape != b.shape or not np.array_equal(a, b):
        raise MisalignedIds(f"id vectors differ{': ' + what if what else ''}")


def positions_in(haystack_ids, query_ids) -> np.ndarray:
    """Positions of query_ids within haystack_ids; raises UnknownId on misses."""
    hay = np.asarray(haystack_ids, dtype=np.int64)
    query = np.asarray(query_ids, dtype=np.int64)
    order = np.argsort(hay, kind="stable")
    sorted_hay = hay[order]
    idx = np.searchsorted(sorted_hay, query)
    bad = (idx >= len(hay)) | (sorted_hay[np.minimum(idx, len(hay) - 1)] != query)
    if bad.any():
        raise UnknownId(f"ids not present: {query[bad][:5].tolist()}")
    return order[idx]
