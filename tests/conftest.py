import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rankaudit.dataset import Dataset, DatasetSpec, FeatureColumn
from rankaudit.scorer import ScoreSet


def make_spec(n_features=1, expected_base_rate=None, kinds=None):
    kinds = kinds or ["numeric"] * n_features
    return DatasetSpec(
        name="fixture",
        protected_attribute_column="group",
        protected_value="protected",
        target_column="outcome",
        favorable_value="favorable",
        expected_base_rate=expected_base_rate,
        feature_columns=tuple(
            FeatureColumn(f"f{i}", kinds[i]) for i in range(n_features)
        ),
    )


def make_dataset(sensitive, label, features=None):
    sensitive = np.asarray(sensitive, dtype=np.int8)
    label = np.asarray(label, dtype=np.int8)
    n = len(sensitive)
    if features is None:
        features = np.arange(n, dtype=np.float64)[:, None]
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    return Dataset(
        features=features,
        sensitive=sensitive,
        label=label,
        schema=make_spec(n_features=features.shape[1]),
    )


def make_scores(values, method="baseline", ids=None):
    values = np.asarray(values, dtype=np.float64)
    if ids is None:
        ids = np.arange(len(values), dtype=np.int64)
    return ScoreSet(method=method, instance_ids=np.asarray(ids, dtype=np.int64),
                    scores=values)


@pytest.fixture
def six_row_csv(tmp_path):
    """3 protected / 3 privileged rows, labels 1,0,1,0,0,1 in file order."""
    path = tmp_path / "six.csv"
    rows = [
        ("0.5", "protected", "favorable"),
        ("1.5", "protected", "unfavorable"),
        ("2.5", "protected", "favorable"),
        ("3.5", "privileged", "unfavorable"),
        ("4.5", "privileged", "unfavorable"),
        ("5.5", "privileged", "favorable"),
    ]
    lines = ["f0,group,outcome"] + [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
