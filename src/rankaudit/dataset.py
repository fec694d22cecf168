"""Tabular ingestion, benchmark schemas, and deterministic splits.

A Dataset holds one binary sensitive attribute (protected vs privileged),
one binary target (1 = favorable), and a numeric feature matrix in which
categorical columns are stored as small integer codes.  A Dataset is its
columns: ingestion reads the file once, codes every non-numeric feature
column in first-seen order and fills the feature matrix in place as blocks
are read, with sensitive and target filled as 0/1, so its peak is about the
dataset plus one 2,048-row block.  Asked for an export, it
writes each kept row's cells back out as it reads them, so the export
reproduces every ingested cell exactly and no cell text is held;
`Dataset.export_csv` writes values instead.  An instance id is a row number:
row i of every column belongs to instance i, counted from 0 over the rows
ingestion keeps.
"""

from __future__ import annotations

import csv
import gc
import json
import logging
import os
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import asdict, dataclass, field
from importlib import resources
from itertools import chain, compress, islice, repeat
from pathlib import Path

import numpy as np

from . import prng
from .errors import (
    DuplicateColumn,
    EmptyFile,
    MisalignedIds,
    MissingColumn,
    NonBinarySensitive,
    NonBinaryTarget,
    UnknownId,
    require,
)

log = logging.getLogger(__name__)

PROTECTED = 1
PRIVILEGED = 0
GROUP_NAMES = {PROTECTED: "protected", PRIVILEGED: "privileged"}

BASE_RATE_TOLERANCE = 5e-4

# cells treated as missing; rows containing one in a used column are dropped
_MISSING_CELLS = {"", "?"}

_TEXT_BLOCK = 1 << 11  # rows read, or values turned into CSV text, per step


@contextmanager
def _gc_paused():
    """Pause cyclic garbage collection, then restore the caller's setting."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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


def _field(cell: str) -> str:
    """cell as csv's QUOTE_MINIMAL writes it: in quotes, inner quotes doubled,
    when it holds a comma, a quote or a line break."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _fields(cells: list[str]) -> list[str]:
    """_field of each cell; the cells themselves when none needs quotes."""
    joined = "".join(cells)
    return list(map(_field, cells)) if any(c in joined for c in ',"\r\n') else cells


def _lines(block: list, end: str = "\r\n") -> str:
    """CSV lines of a block: per column, a list of quoted cells or a repeat;
    end closes each line, after any cells that every line ends with."""
    if len(block) == 1 and end == "\r\n":  # csv.writer quotes a lone empty field
        block = [[c or '""' for c in block[0]]]
    return end.join(map(",".join, zip(*block))) + end


class CsvText(list):
    """A column whose cells are already in CSV form: write_csv does not quote
    them again.  A row's text may hold several cells, with their commas."""


def write_csv(path: str | Path, header, columns) -> None:
    """Atomically write a header line and then one line per row of columns.

    Each column is an iterable of str, one str that every row holds (quoted
    once), or a CsvText; the others must be equally long.  The bytes are
    those csv.writer writes: a cell holding a comma, a quote or a line break
    is quoted, and lines end in \\r\\n.  Columns are read _TEXT_BLOCK rows at
    a time, so no long column exists as text all at once, and each block is
    one _lines join; one-str columns that end a row are part of its line end.
    """
    columns = list(columns)
    if all(isinstance(c, str) for c in columns):
        raise ValueError("write_csv needs at least one column that is not one str")
    end = "\r\n"
    while isinstance(columns[-1], str):
        end = "," + _field(columns.pop()) + end
    sources = [repeat(_field(c)) if isinstance(c, str) else iter(c) for c in columns]
    with atomic_open(path) as fh:
        fh.write(_lines([[_field(h)] for h in header]))
        while True:
            block = [src if isinstance(c, str) else
                     list(islice(src, _TEXT_BLOCK)) if isinstance(c, CsvText) else
                     _fields(list(islice(src, _TEXT_BLOCK)))
                     for c, src in zip(columns, sources)]
            sizes = {len(cells) for cells in block if isinstance(cells, list)}
            if len(sizes) > 1:
                raise ValueError(f"columns differ in length: {sorted(sizes)}")
            if sizes == {0}:
                break
            fh.write(_lines(block, end))


def float_text(values):
    """repr of each value as a Python float, made lazily a block at a time so
    that a long column never exists as Python objects all at once: a column
    for write_csv."""
    values = np.asarray(values, dtype=np.float64)
    return chain.from_iterable(map(repr, values[i:i + _TEXT_BLOCK].tolist())
                               for i in range(0, len(values), _TEXT_BLOCK))


def group_names(sensitive: np.ndarray) -> np.ndarray:
    """Per-row group name of 0/1 sensitive codes, sharing two str objects."""
    table = np.array([GROUP_NAMES[PRIVILEGED], GROUP_NAMES[PROTECTED]], dtype=object)
    return table[sensitive]


class ColumnText:
    """CSV text of whole arrays, each made once and reused while this object
    lives.  An array is matched by identity and kept alive with its text, so
    its id cannot pass to another array; callers must not change it in place."""

    def __init__(self):
        self._made = {}  # (kind, ids of the arrays) -> (the arrays, their text)

    def _once(self, kind: str, arrays: tuple, make):
        key = (kind, *map(id, arrays))
        if key not in self._made:
            self._made[key] = (arrays, make())
        return self._made[key][1]

    def floats(self, values: np.ndarray) -> CsvText:
        """float_text of values; a float's repr needs no quotes."""
        return self._once("floats", (values,), lambda: CsvText(float_text(values)))

    def ids(self, ids: np.ndarray) -> CsvText:
        """The text of each id, which needs no quotes."""
        return self._once("ids", (ids,), lambda: CsvText(map(str, ids.tolist())))

    def heads(self, d: "Dataset", ids: np.ndarray) -> CsvText:
        """`<id>,<group>`, each id's first two cells, its group named as in d."""
        return self._once("heads", (d, ids), lambda: CsvText(map(
            "{},{}".format, self.ids(ids), group_names(d.sensitive[d.positions_of(ids)]))))


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
        require(self.expected_base_rate, "expected_base_rate", "null or a number in [0, 1]")

    @property
    def used_columns(self) -> list[str]:
        return (
            [c.name for c in self.feature_columns]
            + [self.protected_attribute_column, self.target_column]
        )

    def to_dict(self) -> dict:
        return asdict(self)

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

    features: np.ndarray      # float64 matrix, categoricals as codes
    sensitive: np.ndarray     # int8, 1 = protected, 0 = privileged
    label: np.ndarray         # int8, 1 = favorable
    schema: DatasetSpec
    categories: dict = field(default_factory=dict)     # column -> code table
    sensitive_values: tuple = ("protected", "privileged")
    target_values: tuple = ("1", "0")                  # (favorable, other)
    dropped_rows: int = 0

    def __post_init__(self):
        n = len(self.label)
        if n < 1:
            raise ValueError("dataset must contain at least one row")
        for name, vec in (("features", self.features), ("sensitive", self.sensitive)):
            if len(vec) != n:
                raise ValueError(f"{name} length {len(vec)} != {n}")
        if not ((self.sensitive == PROTECTED) | (self.sensitive == PRIVILEGED)).all():
            raise ValueError("sensitive values must be 0/1")
        if not ((self.label == 0) | (self.label == 1)).all():
            raise ValueError("labels must be 0/1")

    @property
    def n(self) -> int:
        return len(self.label)

    @property
    def instance_ids(self) -> np.ndarray:
        """0..n-1: an instance id is its row number."""
        return np.arange(self.n, dtype=np.int64)

    @property
    def protected_mask(self) -> np.ndarray:
        return self.sensitive == PROTECTED

    def group_sizes(self) -> tuple[int, int]:
        """(n_protected, n_privileged)."""
        n_prot = int(self.protected_mask.sum())
        return n_prot, self.n - n_prot

    def positions_of(self, ids) -> np.ndarray:
        """Row positions of the given instance ids, which are the ids
        themselves as int64; raises UnknownId for an id outside 0..n-1."""
        ids = np.asarray(ids, dtype=np.int64)
        bad = (ids < 0) | (ids >= self.n)
        if bad.any():
            raise UnknownId(f"ids not in dataset: {ids[bad][:5].tolist()}")
        return ids

    def cohort(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """(protected mask, truth) of the rows of the given ids, in their
        order; raises UnknownId as positions_of does."""
        pos = self.positions_of(ids)
        return self.sensitive[pos] == PROTECTED, self.label[pos]

    def feature_index(self, column: str) -> int:
        for i, c in enumerate(self.schema.feature_columns):
            if c.name == column:
                return i
        raise MissingColumn(f"no feature column named {column!r}")

    def export_csv(self, path: str | Path) -> None:
        """Write the used columns: a categorical cell as its code's text, a
        number as the repr of its float.  ingest(..., export=) is what writes
        the ingested cells back exactly."""
        columns = []
        for j, col in enumerate(self.schema.feature_columns):
            v = self.features[:, j]
            if col.kind == "categorical" and col.name in self.categories:
                table = np.array(self.categories[col.name], dtype=object)
                columns.append(table[v.astype(np.int64)].tolist())
            else:
                columns.append(float_text(v))
        for codes, raw in ((self.sensitive, self.sensitive_values),
                           (self.label, self.target_values)):
            # raw holds the text of code 1, then of code 0
            columns.append(np.array(raw[::-1], dtype=object)[codes].tolist())
        write_csv(path, self.schema.used_columns, columns)


@dataclass(frozen=True)
class Split:
    """Disjoint train/validation/test id sets (stored ascending)."""

    train_ids: np.ndarray
    validation_ids: np.ndarray
    test_ids: np.ndarray
    seed: int

    def sizes(self) -> tuple[int, int, int]:
        return len(self.train_ids), len(self.validation_ids), len(self.test_ids)


def plain_number(text: str) -> bool:
    """Whether text may be a number: Python's int and float also read digit
    grouping (`1_000`) and non-ASCII digits, which a CSV number never has."""
    return text.isascii() and "_" not in text


def _parse_floats(cells) -> np.ndarray:
    """float of each cell; nan where a cell is not a plain number."""
    if plain_number("".join(cells)):
        with suppress(ValueError):
            return np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    values = np.full(len(cells), np.nan)
    for i, cell in enumerate(cells):
        if plain_number(cell):
            with suppress(ValueError):
                values[i] = float(cell)
    return values


def _codes(table: dict, cells: list) -> np.ndarray:
    """The code of each cell in table, as float64."""
    return np.fromiter(map(table.__getitem__, cells), dtype=np.float64, count=len(cells))


def _binarize(column: str, table: dict, wanted: str, what: str, error) -> tuple[str, str]:
    """(wanted, the other value) of a column whose distinct values are table's
    keys; raises error when the column holds more than one other value."""
    others = sorted(set(table) - {wanted})
    if len(others) > 1:
        raise error(f"{what} column {column!r} has values {sorted(table)}; "
                    f"expected {wanted!r} plus one other")
    return wanted, others[0] if others else wanted


def ingest(csv_path: str | Path, spec: DatasetSpec,
           export: str | Path | None = None) -> Dataset:
    """Read a CSV into a Dataset, binarizing sensitive and target columns.

    One pass reads `_TEXT_BLOCK` (2,048) rows at a time, with cyclic GC
    paused.  Rows that are short or have a missing value ("" or "?") in any
    used column are dropped and counted, and so are rows with a numeric cell
    that is not a finite plain_number; only then are the other columns
    coded, in first-seen order.  The feature matrix grows by each block's
    kept rows and is filled in place, and sensitive and target are filled
    as 0/1 (int8), each cell compared with the protected or favorable value,
    so the peak is about the dataset plus one 2,048-row block.  Raises
    MissingColumn, DuplicateColumn (a used column named twice in the
    header), NonBinarySensitive, NonBinaryTarget, or EmptyFile on contract
    violations.

    With export, the used columns of the kept rows are written to that path
    as each block is read, with their cells stripped, as csv.writer quotes
    them; the file appears only if ingest returns.
    """
    csv_path = Path(csv_path)
    used = spec.used_columns
    numeric = [c.name for c in spec.feature_columns if c.kind == "numeric"]
    tables = {name: {} for name in used if name not in numeric}  # cell -> code
    sens, targ = spec.protected_attribute_column, spec.target_column
    # Grown by resize(refcheck=False), a realloc that may move the buffer and
    # free the old one: no view of these arrays may live across a resize, so
    # each block indexes them afresh.  (refcheck=True would raise whenever a
    # debugger or profiler holds the frame's locals.)
    features = np.empty((0, len(spec.feature_columns)), dtype=np.float64)
    # (column, the value filled as 1, its 0/1 vector): sensitive, then target
    binary = [(sens, spec.protected_value, np.empty(0, dtype=np.int8)),
              (targ, spec.favorable_value, np.empty(0, dtype=np.int8))]
    n = n_read = n_bad = 0
    with _gc_paused(), open(csv_path, "r", encoding="utf-8-sig", newline="") as fh, \
            (atomic_open(export) if export is not None else nullcontext()) as sink:
        reader = csv.reader(fh)
        try:
            file_header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise EmptyFile(f"{csv_path} has no header row")
        for col in used:
            count = file_header.count(col)
            if not count:
                raise MissingColumn(f"{csv_path} lacks column {col!r}")
            if count > 1:
                raise DuplicateColumn(f"{csv_path} names column {col!r} {count} times")
        if sink:
            sink.write(_lines([[_field(h)] for h in used]))

        while block := list(islice(reader, _TEXT_BLOCK)):
            n_read += len(block)
            if min(map(len, block)) < len(file_header):
                block = [row for row in block if len(row) >= len(file_header)]
                if not block:
                    continue
            file_columns = list(zip(*block))
            cells = {name: list(map(str.strip, file_columns[file_header.index(name)]))
                     for name in used}
            parsed = {name: _parse_floats(cells[name]) for name in numeric}
            finite = np.all([np.isfinite(v) for v in parsed.values()], axis=0)
            seen = {name: dict.fromkeys(cells[name]) for name in tables}  # first-seen
            drop = np.zeros(len(block), dtype=bool)
            # a missing coded cell is a seen one; a missing number is not finite
            for name in [*tables, *(numeric if not finite.all() else [])]:
                if not _MISSING_CELLS.isdisjoint(seen.get(name, cells[name])):
                    drop |= np.fromiter(map(_MISSING_CELLS.__contains__, cells[name]),
                                        dtype=bool, count=len(block))
            bad = ~drop & ~finite
            n_bad += int(bad.sum())
            keep = ~(drop | bad)
            if not keep.any():
                continue
            if not keep.all():
                cells = {name: list(compress(col, keep)) for name, col in cells.items()}
                parsed = {name: v[keep] for name, v in parsed.items()}
                seen = {name: dict.fromkeys(cells[name]) for name in tables}
            if sink:
                sink.write(_lines([_fields(cells[name]) for name in used]))
            for name, table in tables.items():
                for cell in seen[name]:
                    table.setdefault(cell, len(table))
            m = len(cells[targ])
            features.resize((n + m, features.shape[1]), refcheck=False)
            for j, col in enumerate(spec.feature_columns):
                features[n:, j] = (parsed[col.name] if col.kind == "numeric" else
                                   _codes(tables[col.name], cells[col.name]))
            for name, wanted, vec in binary:
                vec.resize(n + m, refcheck=False)
                vec[n:] = np.fromiter(map(wanted.__eq__, cells[name]), bool, count=m)
            n += m

        n_missing = n_read - n_bad - n
        if n_missing == n_read:
            raise EmptyFile(f"{csv_path} has no usable data rows ({n_missing} dropped)")
        if n_missing:
            log.warning("%s: dropped %d rows with missing values", csv_path.name, n_missing)
        if n_bad:
            log.warning("%s: dropped %d rows with non-numeric cells", csv_path.name, n_bad)
        if not n:
            raise EmptyFile(f"{csv_path} has no rows with parseable numeric cells")

        (_, _, sensitive), (_, _, label) = binary
        return Dataset(
            features=features,
            sensitive=sensitive,
            label=label,
            schema=spec,
            categories={c.name: tuple(tables[c.name]) for c in spec.feature_columns
                        if c.kind == "categorical"},
            sensitive_values=_binarize(sens, tables[sens], spec.protected_value,
                                       "sensitive", NonBinarySensitive),
            target_values=_binarize(targ, tables[targ], spec.favorable_value,
                                    "target", NonBinaryTarget),
            dropped_rows=n_missing + n_bad,
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
    require(seed, "seed", "an integer")
    require(fractions, "fractions", "three numbers >= 0 that sum to 1")
    n = d.n
    shuffled = prng.permutation(seed, n)
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
