"""Ingestion, base rates, splits, and round-trip export."""

import csv
import gc
import logging
import math
import tracemalloc

import numpy as np
import pytest

import rankaudit.dataset
from rankaudit import prng
from rankaudit.dataset import (
    Dataset,
    DatasetSpec,
    FeatureColumn,
    builtin_specs,
    ingest,
    split,
    verify_base_rate,
    write_csv,
)
from rankaudit.errors import (
    DuplicateColumn,
    EmptyFile,
    MissingColumn,
    NonBinarySensitive,
    NonBinaryTarget,
    UnknownId,
)
from rankaudit.mitigate import disparate_impact_remove
from rankaudit.synthetic import (
    biased_benchmark, write_biased_benchmark_csv, write_exact_rate_csv,
)

from conftest import make_dataset, make_spec


def test_ingest_six_row_fixture(six_row_csv):
    d = ingest(six_row_csv, make_spec())
    assert d.n == 6
    assert d.instance_ids.tolist() == [0, 1, 2, 3, 4, 5]
    assert d.group_sizes() == (3, 3)
    assert verify_base_rate(d) == 0.5
    assert d.label.tolist() == [1, 0, 1, 0, 0, 1]
    assert d.sensitive.tolist() == [1, 1, 1, 0, 0, 0]


def test_ingest_single_protected_row(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("f0,group,outcome\n1.0,protected,favorable\n", encoding="utf-8")
    d = ingest(path, make_spec())
    assert d.n == 1
    assert verify_base_rate(d) == 1.0


def test_ingest_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,outcome\n1.0,favorable\n", encoding="utf-8")
    with pytest.raises(MissingColumn):
        ingest(path, make_spec())


def test_ingest_used_column_named_twice_raises(tmp_path):
    """A used column named twice is an error naming it, not a silent pick of
    the first copy; an unused column named twice is harmless."""
    path = tmp_path / "dup.csv"
    path.write_text("f0,f0,group,outcome\n1,5,protected,favorable\n"
                    "2,6,privileged,unfavorable\n", encoding="utf-8")
    with pytest.raises(DuplicateColumn, match="'f0' 2 times"):
        ingest(path, make_spec())
    path.write_text("note,f0,note,group,outcome\na,1,b,protected,favorable\n"
                    "c,2,d,privileged,unfavorable\n", encoding="utf-8")
    assert ingest(path, make_spec()).features[:, 0].tolist() == [1.0, 2.0]


def test_ingest_three_sensitive_values(tmp_path):
    path = tmp_path / "tri.csv"
    path.write_text(
        "f0,group,outcome\n1,protected,favorable\n2,other,favorable\n3,third,favorable\n",
        encoding="utf-8",
    )
    with pytest.raises(NonBinarySensitive):
        ingest(path, make_spec())


def test_ingest_three_target_values(tmp_path):
    path = tmp_path / "tri.csv"
    path.write_text(
        "f0,group,outcome\n1,protected,favorable\n2,protected,b\n3,protected,c\n",
        encoding="utf-8",
    )
    with pytest.raises(NonBinaryTarget):
        ingest(path, make_spec())


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmptyFile):
        ingest(path, make_spec())
    path.write_text("f0,group,outcome\n", encoding="utf-8")
    with pytest.raises(EmptyFile):
        ingest(path, make_spec())


def test_ingest_drops_missing_rows_with_count(tmp_path, caplog):
    path = tmp_path / "gaps.csv"
    path.write_text(
        "f0,group,outcome\n"
        "1.0,protected,favorable\n"
        ",protected,favorable\n"
        "2.0,?,unfavorable\n"
        "3.0,privileged,unfavorable\n",
        encoding="utf-8",
    )
    with caplog.at_level(logging.WARNING):
        d = ingest(path, make_spec())
    assert d.n == 2
    assert d.dropped_rows == 2
    assert any("dropped 2 rows" in r.message for r in caplog.records)


@pytest.mark.parametrize("text_block", [None, 2])
def test_ingest_drops_short_rows_with_count(tmp_path, monkeypatch, text_block):
    """A row with fewer cells than the header is dropped and counted, also
    when every row of a block is short."""
    if text_block is not None:
        monkeypatch.setattr(rankaudit.dataset, "_TEXT_BLOCK", text_block)
    path = tmp_path / "short.csv"
    path.write_text(
        "f0,group,outcome\n"
        "1.0,protected,favorable\n"
        "2.0,privileged,unfavorable\n"
        "3.0,protected\n"
        "4.0\n"
        "5.0,privileged,favorable\n",
        encoding="utf-8",
    )
    d = ingest(path, make_spec())
    assert d.features[:, 0].tolist() == [1.0, 2.0, 5.0]
    assert d.dropped_rows == 2


def test_ingest_no_parseable_numeric_cells_raises(tmp_path):
    path = tmp_path / "words.csv"
    path.write_text("f0,group,outcome\nabc,protected,favorable\n"
                    "1_0,privileged,unfavorable\n", encoding="utf-8")
    with pytest.raises(EmptyFile, match="no rows with parseable numeric cells"):
        ingest(path, make_spec())


def test_instance_ids_are_rows_kept_by_ingest(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text(
        "f0,group,outcome\n"
        ",protected,favorable\n"
        "1.0,protected,favorable\n"
        "x,privileged,favorable\n"
        "2.0,privileged,unfavorable\n"
        "3.0,protected,unfavorable\n",
        encoding="utf-8",
    )
    d = ingest(path, make_spec())
    assert d.dropped_rows == 2
    assert d.features[:, 0].tolist() == [1.0, 2.0, 3.0]
    assert d.instance_ids.tolist() == [0, 1, 2]
    assert disparate_impact_remove(d, 1.0).instance_ids.tolist() == [0, 1, 2]


def test_ingest_skips_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbff0,group,outcome\n"
                     b"1.0,protected,favorable\n2.0,privileged,unfavorable\n")
    out = tmp_path / "out.csv"
    d = ingest(path, make_spec(), export=out)
    assert d.features[:, 0].tolist() == [1.0, 2.0]
    assert d.sensitive.tolist() == [1, 0]
    assert out.read_bytes() == path.read_bytes()[3:].replace(b"\n", b"\r\n")


def test_ingest_categorical_codes(tmp_path):
    path = tmp_path / "cats.csv"
    path.write_text(
        "f0,group,outcome\nred,protected,favorable\nblue,privileged,unfavorable\n"
        "red,privileged,favorable\n",
        encoding="utf-8",
    )
    d = ingest(path, make_spec(kinds=["categorical"]))
    assert d.categories["f0"] == ("red", "blue")
    assert d.features[:, 0].tolist() == [0.0, 1.0, 0.0]


def test_export_round_trip_exact(tmp_path, six_row_csv):
    out = tmp_path / "out.csv"
    ingest(six_row_csv, make_spec(), export=out)
    with open(six_row_csv, newline="") as fh:
        original = list(csv.reader(fh))
    with open(out, newline="") as fh:
        exported = list(csv.reader(fh))
    assert exported == original


def test_export_round_trip_quoted_cells(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text(
        'f0,group,outcome\n"a,b",protected,favorable\nplain,privileged,unfavorable\n',
        encoding="utf-8",
    )
    out = tmp_path / "out.csv"
    ingest(path, make_spec(kinds=["categorical"]), export=out)
    with open(path, newline="") as fh:
        original = list(csv.reader(fh))
    with open(out, newline="") as fh:
        exported = list(csv.reader(fh))
    assert exported == original


@pytest.mark.parametrize("text_block", [None, 2])
def test_export_round_trip_bytes(tmp_path, monkeypatch, text_block):
    """Cells repr does not rebuild and csv-quoted cells come back byte for
    byte, also when codes and text cross block boundaries; a row whose
    numeric cell is a non-ASCII digit is dropped."""
    if text_block is not None:
        monkeypatch.setattr(rankaudit.dataset, "_TEXT_BLOCK", text_block)
    path = tmp_path / "cells.csv"
    rows = [("39", "a,b", "protected", "favorable"),
            ("1e5", "plain", "privileged", "unfavorable"),
            ("-0", "a,b", "privileged", "favorable"),
            ("007", 'say "x"', "protected", "unfavorable"),
            ("\u0663", "plain", "protected", "favorable")]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f0", "f1", "group", "outcome"])
        writer.writerows(rows)
    out = tmp_path / "out.csv"
    d = ingest(path, make_spec(n_features=2, kinds=["numeric", "categorical"]), export=out)
    assert d.features[:, 0].tolist() == [39.0, 1e5, -0.0, 7.0]
    assert d.dropped_rows == 1
    assert d.categories["f1"] == ("a,b", "plain", 'say "x"')
    dropped = "\u0663,plain,protected,favorable\r\n".encode()
    assert out.read_bytes() == path.read_bytes().removesuffix(dropped)


def test_write_csv_matches_csv_writer(tmp_path, monkeypatch):
    """For any equally long str columns, write_csv writes csv.writer's bytes,
    also when a cell that needs quotes first appears in a later block."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    monkeypatch.setattr(rankaudit.dataset, "_TEXT_BLOCK", 2)
    cell = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "\u00e9", "\u2603"]),
                   max_size=4) | st.text(max_size=4)

    @st.composite
    def tables(draw):
        n, k = draw(st.integers(0, 7)), draw(st.integers(1, 4))
        column = st.lists(cell, min_size=n, max_size=n)
        return draw(st.lists(cell, min_size=k, max_size=k)), [draw(column) for _ in range(k)]

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(tables())
    def check(table):
        header, columns = table
        with open(tmp_path / "want.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(zip(*columns))
        write_csv(tmp_path / "got.csv", header, columns)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    check()


def test_write_csv_quotes_a_lone_empty_cell_and_refuses_unequal_columns(tmp_path,
                                                                        monkeypatch):
    """A line of one empty cell is csv.writer's `""`; columns of different
    lengths raise ValueError, also when the difference shows in a later block."""
    monkeypatch.setattr(rankaudit.dataset, "_TEXT_BLOCK", 2)
    path = tmp_path / "t.csv"
    write_csv(path, ["only"], [["", "1"]])
    assert path.read_bytes() == b'only\r\n""\r\n1\r\n'
    with pytest.raises(ValueError, match="columns differ in length"):
        write_csv(path, ["a", "b"], [["1", "2", "3"], ["x", "y"]])


def test_write_csv_needs_a_column(tmp_path):
    # with no column there are no rows to count
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="at least one column"):
        write_csv(path, [], [])
    assert not path.exists()


def test_ingest_codes_after_dropped_row(tmp_path, caplog):
    """A dropped unparseable row leaves dense, first-seen codes without its value."""
    path = tmp_path / "bad_number.csv"
    path.write_text(
        "f0,f1,group,outcome\n"
        "oops,gone,protected,favorable\n"
        "1,red,privileged,unfavorable\n"
        "2,blue,protected,favorable\n"
        "3,red,privileged,favorable\n",
        encoding="utf-8",
    )
    with caplog.at_level(logging.WARNING):
        d = ingest(path, make_spec(n_features=2, kinds=["numeric", "categorical"]))
    assert d.n == 3
    assert d.dropped_rows == 1
    assert d.categories["f1"] == ("red", "blue")
    assert d.features[:, 1].tolist() == [0.0, 1.0, 0.0]
    assert d.sensitive.tolist() == [0, 1, 0]
    assert any("dropped 1 rows with non-numeric" in r.message for r in caplog.records)


def test_ingest_drops_non_finite_numeric_cells(tmp_path, caplog):
    path = tmp_path / "non_finite.csv"
    path.write_text(
        "f0,group,outcome\n"
        "1.0,protected,favorable\n"
        "nan,protected,favorable\n"
        "inf,privileged,unfavorable\n"
        "-Infinity,privileged,favorable\n"
        "2.0,privileged,unfavorable\n",
        encoding="utf-8",
    )
    with caplog.at_level(logging.WARNING):
        d = ingest(path, make_spec())
    assert d.features[:, 0].tolist() == [1.0, 2.0]
    assert d.dropped_rows == 3
    assert any("dropped 3 rows with non-numeric" in r.message for r in caplog.records)


@pytest.mark.parametrize("cell", ["1_000", "\uff11", "\u0663"])
def test_ingest_drops_numbers_only_python_reads(tmp_path, caplog, cell):
    """float() also reads digit grouping and non-ASCII digits; a CSV number
    has neither, so the row is dropped and counted as non-numeric."""
    path = tmp_path / "grammar.csv"
    path.write_text(f"f0,group,outcome\n1,protected,favorable\n{cell},protected,"
                    "favorable\n2,privileged,unfavorable\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        d = ingest(path, make_spec())
    assert d.features[:, 0].tolist() == [1.0, 2.0]
    assert d.dropped_rows == 1
    assert any("dropped 1 rows with non-numeric" in r.message for r in caplog.records)


def _plain_float(cell):
    """float of a plain number, nan for anything else."""
    try:
        return float(cell) if cell.isascii() and "_" not in cell else math.nan
    except ValueError:
        return math.nan


def _ingest_row_at_a_time(path, spec):
    """What ingest keeps of path, one row at a time: the kept rows' stripped
    used cells, and the counts of rows dropped as missing and as non-numeric."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    header = [h.strip() for h in header]
    numeric = [c.kind == "numeric" for c in spec.feature_columns] + [False, False]
    kept, n_missing, n_bad = [], 0, 0
    for row in rows:
        if len(row) < len(header):
            n_missing += 1
            continue
        cells = [row[header.index(name)].strip() for name in spec.used_columns]
        if any(cell in ("", "?") for cell in cells):
            n_missing += 1
        elif not all(math.isfinite(_plain_float(cell))
                     for cell, is_number in zip(cells, numeric) if is_number):
            n_bad += 1
        else:
            kept.append(cells)
    return kept, n_missing, n_bad


@pytest.mark.parametrize("text_block", [1, 2, 3, None])
def test_ingest_matches_row_at_a_time_reading(tmp_path, monkeypatch, caplog, text_block):
    """On random small CSVs, ingest keeps, codes, counts and exports what a
    row-at-a-time reading does, for any block size."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    if text_block is not None:
        monkeypatch.setattr(rankaudit.dataset, "_TEXT_BLOCK", text_block)
    spec = make_spec(n_features=3, kinds=["numeric", "categorical", "numeric"])

    def mostly(good, bad):  # a good cell four times as likely as a bad one
        return st.sampled_from(good * 4 + bad)

    number = mostly(["1", "-0", "2.5", "1e3", "007", " 4 ", "\t5\u00a0", "1e308"],
                    ["", "?", " ", "nan", "inf", "-Infinity", "1e999", "1_0", "\u0663",
                     "\uff11", "x"])
    cells = {"f0": number, "f2": number,
             "f1": mostly(["red", " red ", "a,b", 'say "x"', "line\nbreak"], ["", "?", " ? "]),
             "group": mostly(["protected", "privileged", " protected"], ["", "?"]),
             "outcome": mostly(["favorable", "unfavorable"], ["?", ""]),
             "unused": st.sampled_from(["", "?", "z", "1_0"])}

    @st.composite
    def tables(draw):
        header = draw(st.permutations(list(cells)))
        rows = []
        for _ in range(draw(st.integers(0, 12))):
            row = [draw(cells[name]) for name in header]
            rows.append(row[:draw(mostly([len(row)] * 6, list(range(len(row)))))])
        return header, rows

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(tables())
    def check(table):
        header, rows = table
        path, out = tmp_path / "in.csv", tmp_path / "out.csv"
        out.unlink(missing_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
        kept, n_missing, n_bad = _ingest_row_at_a_time(path, spec)
        caplog.clear()
        if not kept:
            with pytest.raises(EmptyFile):
                ingest(path, spec, export=out)
            assert not out.exists() and not (tmp_path / "out.csv.tmp").exists()
            return
        with caplog.at_level(logging.WARNING, logger="rankaudit.dataset"):
            d = ingest(path, spec, export=out)
        categories = tuple(dict.fromkeys(row[1] for row in kept))
        assert d.categories == {"f1": categories}
        assert d.features.tolist() == [[float(row[0]), categories.index(row[1]),
                                        float(row[2])] for row in kept]
        assert d.sensitive.tolist() == [row[3] == "protected" for row in kept]
        assert d.label.tolist() == [row[4] == "favorable" for row in kept]
        assert d.dropped_rows == n_missing + n_bad
        assert caplog.messages == (
            [f"in.csv: dropped {n_missing} rows with missing values"] * (n_missing > 0)
            + [f"in.csv: dropped {n_bad} rows with non-numeric cells"] * (n_bad > 0))
        with open(tmp_path / "want.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([spec.used_columns, *kept])
        assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()

    check()


def test_ingest_pauses_cyclic_gc_and_restores_it(tmp_path, monkeypatch, six_row_csv):
    """The block loop runs without cyclic GC; the caller's setting comes back
    after a return and after an error raised inside the loop."""
    assert gc.isenabled()
    ingest(six_row_csv, make_spec())
    assert gc.isenabled()

    enabled_in_loop = []

    def failing_parse(cells):
        enabled_in_loop.append(gc.isenabled())
        raise RuntimeError("parse failed")

    monkeypatch.setattr(rankaudit.dataset, "_parse_floats", failing_parse)
    with pytest.raises(RuntimeError, match="parse failed"):
        ingest(six_row_csv, make_spec())
    assert enabled_in_loop == [False]
    assert gc.isenabled()
    monkeypatch.undo()

    gc.disable()
    try:
        ingest(six_row_csv, make_spec())
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_ingest_peak_is_about_the_dataset(tmp_path, monkeypatch):
    """The feature matrix and the 0/1 sensitive and target vectors are filled
    in place as blocks are read, so ingest's traced peak stays under twice
    the arrays it returns."""
    path = tmp_path / "bench.csv"
    spec = write_biased_benchmark_csv(path, n=10_000, seed=5)
    monkeypatch.setattr(rankaudit.dataset, "_TEXT_BLOCK", 128)
    tracemalloc.start()
    try:
        d = ingest(path, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (d.features.nbytes + d.sensitive.nbytes + d.label.nbytes)
    assert d.features.flags.owndata and d.features.flags.c_contiguous
    assert d.features.shape == (d.n, len(spec.feature_columns)) == (10_000, 4)


def test_ingest_peak_is_the_dataset_plus_one_block(tmp_path):
    """At the module's own block size, ingest holds one block of cells beside
    the arrays it returns, and fills sensitive and target as 0/1 directly."""
    path = tmp_path / "bench.csv"
    spec = write_biased_benchmark_csv(path, n=50_000, seed=5)
    tracemalloc.start()
    try:
        d = ingest(path, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - (d.features.nbytes + d.sensitive.nbytes + d.label.nbytes) < 3_000_000


@pytest.mark.parametrize("groups, outcomes, sensitive_values, target_values", [
    # each value of 1 first appears in a later block
    (["privileged"] * 3 + ["protected", "privileged"], ["unfavorable"] * 4 + ["favorable"],
     ("protected", "privileged"), ("favorable", "unfavorable")),
    (["protected"] * 5, ["favorable"] * 5,  # only the value of 1
     ("protected", "protected"), ("favorable", "favorable")),
    (["privileged"] * 5, ["unfavorable"] * 5,  # only the other value
     ("protected", "privileged"), ("favorable", "unfavorable")),
])
def test_ingest_binarizes_across_blocks(tmp_path, monkeypatch, groups, outcomes,
                                        sensitive_values, target_values):
    monkeypatch.setattr(rankaudit.dataset, "_TEXT_BLOCK", 2)
    path = tmp_path / "t.csv"
    path.write_text("f0,group,outcome\n" + "".join(
        f"{i},{g},{o}\n" for i, (g, o) in enumerate(zip(groups, outcomes))), encoding="utf-8")
    d = ingest(path, make_spec())
    assert d.sensitive.dtype == d.label.dtype == np.int8
    assert d.sensitive.tolist() == [int(g == "protected") for g in groups]
    assert d.label.tolist() == [int(o == "favorable") for o in outcomes]
    assert d.sensitive_values == sensitive_values
    assert d.target_values == target_values


def test_export_of_repaired_dataset_writes_repaired_values(tmp_path):
    path = tmp_path / "ints.csv"
    path.write_text(
        "f0,group,outcome\n1,protected,favorable\n2,protected,unfavorable\n"
        "30,privileged,favorable\n40,privileged,unfavorable\n",
        encoding="utf-8",
    )
    repaired = disparate_impact_remove(ingest(path, make_spec()), 1.0)
    out = tmp_path / "out.csv"
    repaired.export_csv(out)
    with open(out, newline="") as fh:
        exported = [row[0] for row in list(csv.reader(fh))[1:]]
    assert exported == [repr(v) for v in repaired.features[:, 0].tolist()]
    assert exported != ["1", "2", "30", "40"]


def test_base_rate_mismatch_warns(tmp_path, caplog):
    path = tmp_path / "t.csv"
    path.write_text(
        "f0,group,outcome\n1,protected,favorable\n2,privileged,unfavorable\n",
        encoding="utf-8",
    )
    spec = make_spec(expected_base_rate=0.9)
    d = ingest(path, spec)
    with caplog.at_level(logging.WARNING):
        rate = verify_base_rate(d)
    assert rate == 0.5
    assert any("base rate" in r.message for r in caplog.records)


def test_group_partition_exhaustive(six_row_csv):
    d = ingest(six_row_csv, make_spec())
    n_prot, n_priv = d.group_sizes()
    assert n_prot + n_priv == d.n


# --- splits -----------------------------------------------------------------------

def test_split_sizes_exact_fractions():
    d = make_dataset([0, 1] * 5, [0, 1] * 5)
    s = split(d, (0.6, 0.2, 0.2), seed=7)
    assert s.sizes() == (6, 2, 2)


def test_split_all_train():
    d = make_dataset([0, 1] * 5, [0, 1] * 5)
    s = split(d, (1.0, 0.0, 0.0), seed=3)
    assert s.sizes() == (10, 0, 0)


def test_split_remainder_goes_to_train():
    d = make_dataset([0, 1, 0, 1, 0, 1, 0], [0, 1] * 3 + [0])
    s = split(d, (0.6, 0.2, 0.2), seed=1)
    assert s.sizes() == (5, 1, 1)  # floors (4,1,1), remainder 1 -> train


def test_split_partitions_disjoint_and_exhaustive():
    d = make_dataset([0, 1] * 25, [0, 1] * 25)
    s = split(d, (0.5, 0.25, 0.25), seed=11)
    combined = np.concatenate([s.train_ids, s.validation_ids, s.test_ids])
    assert sorted(combined.tolist()) == d.instance_ids.tolist()
    assert len(set(combined.tolist())) == d.n


def test_split_reproducible():
    d = make_dataset([0, 1] * 25, [0, 1] * 25)
    a = split(d, (0.6, 0.2, 0.2), seed=5)
    b = split(d, (0.6, 0.2, 0.2), seed=5)
    assert a.train_ids.tolist() == b.train_ids.tolist()
    assert a.validation_ids.tolist() == b.validation_ids.tolist()
    assert a.test_ids.tolist() == b.test_ids.tolist()
    c = split(d, (0.6, 0.2, 0.2), seed=6)
    assert c.train_ids.tolist() != a.train_ids.tolist()


@pytest.mark.parametrize("n", [0, 1, 2, 1000])
def test_permutation_equals_stable_argsort(n):
    """The hash keys are distinct, so any sort gives the stable sort's order."""
    for seed in (0, 1, 7, 2024, 2**64 - 1):
        keys = prng.hash64(seed, np.arange(n))
        assert len(np.unique(keys)) == n
        assert np.array_equal(prng.permutation(seed, n), np.argsort(keys, kind="stable"))


def test_split_rejects_bad_fractions():
    d = make_dataset([0, 1], [0, 1])
    with pytest.raises(ValueError):
        split(d, (0.5, 0.3, 0.3), seed=0)
    with pytest.raises(ValueError):
        split(d, (-0.1, 0.6, 0.5), seed=0)


def test_split_rejects_a_bool_seed():
    d = make_dataset([0, 1], [0, 1])
    with pytest.raises(ValueError, match="seed"):
        split(d, (0.5, 0.25, 0.25), seed=True)


def test_split_rejects_a_seed_that_is_not_an_int():
    d = make_dataset([0, 1], [0, 1])
    with pytest.raises(ValueError, match="seed"):
        split(d, (0.5, 0.25, 0.25), seed=2.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_split_rejects_non_finite_fractions(bad):
    d = make_dataset([0, 1], [0, 1])
    with pytest.raises(ValueError, match="fractions"):
        split(d, (bad, 0.5, 0.5), seed=0)


def test_split_peak_is_about_two_id_vectors():
    """split holds one id-sized vector at a time, the keys and then the three
    partitions, beside one block's hash temporaries: at n = 50,000 those
    weigh about as much as the vector, at 200,000 about a quarter of it."""
    for n, bound in ((50_000, 2.5), (200_000, 1.5)):
        d = make_dataset(np.zeros(n), np.zeros(n))
        tracemalloc.start()
        try:
            s = split(d, (0.6, 0.2, 0.2), seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(s.sizes()) == d.n
        assert peak <= bound * d.n * np.dtype(np.int64).itemsize, n


def test_group_sizes_counts_without_a_row_mask():
    """group_sizes counts the 0/1 sensitive column as it stands: at n = 1M
    its traced peak is far below the 1 MB a bool mask of the rows takes."""
    n = 1_000_000
    d = make_dataset(np.arange(n) % 3 == 0, np.zeros(n), np.zeros(n))
    tracemalloc.start()
    try:
        sizes = d.group_sizes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == (333_334, 666_666)
    assert peak <= 64_000


def test_split_is_the_sorted_slices_of_the_permutation(monkeypatch):
    """split finds by two cut keys what sorting the slices of
    prng.permutation gives: the same ids, ascending, as int64, for any block
    size, also with an empty partition."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    twentieths = st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(
        lambda t: sum(t) <= 20).map(lambda t: (t[0] / 20, t[1] / 20, (20 - sum(t)) / 20))
    fractions = st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                                 (0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)]) | twentieths
    seeds = st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.integers(1, 3_000), seeds, fractions,
                      st.sampled_from([1, 7, 256, rankaudit.dataset._SPLIT_BLOCK]))
    def check(n, seed, fractions, block):
        monkeypatch.setattr(rankaudit.dataset, "_SPLIT_BLOCK", block)
        s = split(make_dataset(np.zeros(n), np.zeros(n)), fractions, seed)
        n_train, n_val, n_test = (int(np.floor(f * n + 1e-9)) for f in fractions)
        n_train += n - (n_train + n_val + n_test)
        shuffled = prng.permutation(seed, n)
        for got, want in zip((s.train_ids, s.validation_ids, s.test_ids),
                             np.split(shuffled, [n_train, n_train + n_val])):
            assert got.dtype == np.int64
            assert np.array_equal(got, np.sort(want))

    check()


# --- lookups and registry -----------------------------------------------------------

def test_positions_of_and_unknown_id():
    d = make_dataset([0, 1, 0], [1, 0, 1])
    assert d.positions_of([2, 0]).tolist() == [2, 0]
    with pytest.raises(UnknownId):
        d.positions_of([99])
    for outside in (-1, d.n):
        with pytest.raises(UnknownId, match="ids not in dataset"):
            d.positions_of([0, outside])


def test_cohort_reads_group_and_truth_at_the_ids_in_their_order():
    d = make_dataset([1, 0, 1, 0], [0, 0, 1, 1])
    prot, truth = d.cohort([3, 0, 2])
    assert prot.tolist() == [False, True, True]
    assert truth.tolist() == [1, 0, 1]
    with pytest.raises(UnknownId, match="ids not in dataset"):
        d.cohort([0, 4])


def test_builtin_specs_ship_table_rates():
    specs = builtin_specs()
    expected = {
        "adult": 0.2393,
        "compas": 0.5216,
        "dutch": 0.5239,
        "law": 0.8897,
        "student": 0.5362,
    }
    assert {k: specs[k].expected_base_rate for k in expected} == expected
    # declared special columns never appear among features
    for spec in specs.values():
        names = {c.name for c in spec.feature_columns}
        assert spec.protected_attribute_column not in names
        assert spec.target_column not in names


def test_spec_json_round_trip(tmp_path):
    spec = builtin_specs()["adult"]
    path = tmp_path / "adult.json"
    import json
    path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    assert DatasetSpec.from_json(path) == spec


@pytest.mark.parametrize("spec", [*builtin_specs().values(),
                                  biased_benchmark(n=20, seed=2024).schema],
                         ids=lambda spec: spec.name)
def test_spec_dict_round_trip(spec):
    assert DatasetSpec.from_dict(spec.to_dict()) == spec


def test_feature_column_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown column kind 'text'"):
        FeatureColumn("f0", "text")


@pytest.mark.parametrize("features, special, message", [
    (("f0", "f0"), "group", "duplicate feature columns"),
    (("f0", "group"), "group", "column 'group' cannot be both special and a feature"),
    (("f0", "outcome"), "group", "column 'outcome' cannot be both special and a feature"),
], ids=["duplicate", "protected-column", "target-column"])
def test_spec_refuses_a_column_used_twice(features, special, message):
    with pytest.raises(ValueError, match=message):
        DatasetSpec(name="s", protected_attribute_column=special, protected_value="p",
                    target_column="outcome", favorable_value="y",
                    feature_columns=tuple(FeatureColumn(f, "numeric") for f in features))


@pytest.mark.parametrize("fields, message", [
    ({"features": np.zeros((0, 1)), "sensitive": [], "label": []},
     "at least one row"),
    ({"features": np.zeros((3, 1))}, "features length 3 != 2"),
    ({"sensitive": [1, 2]}, "sensitive values must be 0/1"),
    ({"label": [0, -1]}, "labels must be 0/1"),
], ids=["no-rows", "length", "sensitive", "label"])
def test_dataset_refuses_arrays_that_are_not_one_table(fields, message):
    arrays = {"features": np.zeros((2, 1)), "sensitive": [1, 0], "label": [1, 0], **fields}
    with pytest.raises(ValueError, match=message):
        Dataset(features=arrays["features"], sensitive=np.asarray(arrays["sensitive"], np.int8),
                label=np.asarray(arrays["label"], np.int8), schema=make_spec())


def test_feature_index_of_an_unknown_column_raises_missing_column():
    d = make_dataset([1, 0], [1, 0])
    assert d.feature_index("f0") == 0
    with pytest.raises(MissingColumn, match="no feature column named 'f9'"):
        d.feature_index("f9")


@pytest.mark.parametrize("positives", [-1, 11])
def test_write_exact_rate_csv_refuses_positives_outside_0_to_n(tmp_path, positives):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"positives must lie in \[0, n\]"):
        write_exact_rate_csv(path, 10, positives)
    assert not path.exists()
