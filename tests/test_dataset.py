"""Ingestion, base rates, splits, and round-trip export."""

import csv
import logging

import numpy as np
import pytest

import rankaudit.dataset
from rankaudit.dataset import (
    Dataset,
    DatasetSpec,
    FeatureColumn,
    builtin_specs,
    ingest,
    positions_in,
    split,
    verify_base_rate,
    write_csv,
)
from rankaudit.errors import (
    EmptyFile,
    MissingColumn,
    NonBinarySensitive,
    NonBinaryTarget,
    UnknownId,
)
from rankaudit.mitigate import disparate_impact_remove

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
    d = ingest(path, make_spec())
    assert d.features[:, 0].tolist() == [1.0, 2.0]
    assert d.sensitive.tolist() == [1, 0]
    out = tmp_path / "out.csv"
    d.export_csv(out)
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
    d = ingest(six_row_csv, make_spec())
    out = tmp_path / "out.csv"
    d.export_csv(out)
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
    d = ingest(path, make_spec(kinds=["categorical"]))
    out = tmp_path / "out.csv"
    d.export_csv(out)
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
    d = ingest(path, make_spec(n_features=2, kinds=["numeric", "categorical"]))
    assert d.features[:, 0].tolist() == [39.0, 1e5, -0.0, 7.0]
    assert d.dropped_rows == 1
    assert d.categories["f1"] == ("a,b", "plain", 'say "x"')
    out = tmp_path / "out.csv"
    d.export_csv(out)
    dropped = "\u0663,plain,protected,favorable\r\n".encode()
    assert out.read_bytes() == path.read_bytes().removesuffix(dropped)


def test_write_csv_matches_csv_writer(tmp_path, monkeypatch):
    """For any str columns, some of them one str for every row, write_csv
    writes csv.writer's bytes, also when a cell that needs quotes first
    appears in a later block."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    monkeypatch.setattr(rankaudit.dataset, "_TEXT_BLOCK", 2)
    cell = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "\u00e9", "\u2603"]),
                   max_size=4) | st.text(max_size=4)

    @st.composite
    def tables(draw):
        n, k = draw(st.integers(0, 7)), draw(st.integers(1, 4))
        column = st.lists(cell, min_size=n, max_size=n)
        columns = draw(st.permutations(
            [draw(column)] + [draw(cell | column) for _ in range(k - 1)]))
        return draw(st.lists(cell, min_size=k, max_size=k)), columns, n

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(tables())
    def check(table):
        header, columns, n = table
        with open(tmp_path / "want.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(zip(*[[c] * n if isinstance(c, str) else c
                                   for c in columns]))
        write_csv(tmp_path / "got.csv", header, columns)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    check()


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


def test_split_rejects_bad_fractions():
    d = make_dataset([0, 1], [0, 1])
    with pytest.raises(ValueError):
        split(d, (0.5, 0.3, 0.3), seed=0)
    with pytest.raises(ValueError):
        split(d, (-0.1, 0.6, 0.5), seed=0)


# --- lookups and registry -----------------------------------------------------------

def test_positions_of_and_unknown_id():
    d = make_dataset([0, 1, 0], [1, 0, 1])
    assert d.positions_of([2, 0]).tolist() == [2, 0]
    with pytest.raises(UnknownId):
        d.positions_of([99])
    for outside in (-1, d.n):
        with pytest.raises(UnknownId, match="ids not in dataset"):
            d.positions_of([0, outside])


def test_positions_in_unsorted_haystack():
    assert positions_in([5, 2, 9], [9, 5]).tolist() == [2, 0]
    with pytest.raises(UnknownId):
        positions_in([5, 2, 9], [3])


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
