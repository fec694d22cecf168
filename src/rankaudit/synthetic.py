"""Synthetic benchmark generators for development and CI.

Two flavors: exact-rate tables whose favorable rate hits a requested value
to the digit (no randomness involved), and a group-biased benchmark whose
labels depend on a proxy feature, so a fairness-agnostic scorer picks up
the bias.  Everything derives from counter-based hashing; the same seed
always yields the same table.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import prng
from .dataset import Dataset, DatasetSpec, FeatureColumn, float_text, write_csv

BIAS = 0.9  # biased_benchmark's weight on the group-shifted proxy feature


def exact_rate_spec(name: str, expected_base_rate: float) -> DatasetSpec:
    return DatasetSpec(
        name=name,
        protected_attribute_column="group",
        protected_value="protected",
        target_column="outcome",
        favorable_value="favorable",
        expected_base_rate=expected_base_rate,
        feature_columns=(
            FeatureColumn("x1", "numeric"),
            FeatureColumn("x2", "numeric"),
        ),
    )


def write_exact_rate_csv(path: str | Path, n: int, positives: int) -> None:
    """Table with exactly `positives` favorable rows out of n.

    Favorable rows are spread evenly over the file (Bresenham-style), and
    every other row (the even ones) is protected: a protected share of 1/2.
    The two patterns can line up so that a group sees one outcome only
    (with 10 positives in 100 rows, every favorable row is protected).
    """
    if not 0 <= positives <= n:
        raise ValueError("positives must lie in [0, n]")
    i = np.arange(n)
    favorable = (i * positives) % n < positives
    protected = i % 2 == 0
    write_csv(path, ["x1", "x2", "group", "outcome"],
              [float_text((i % 97) / 96.0), float_text((i % 31) / 30.0),
               np.where(protected, "protected", "privileged").tolist(),
               np.where(favorable, "favorable", "unfavorable").tolist()])


def biased_benchmark(n: int = 2400, seed: int = 2024) -> Dataset:
    """Group-biased table: a proxy feature carries the group signal.

    Labels follow a logistic model over (x1, x2, proxy) where the proxy is
    shifted by group, so the protected group has genuinely lower base rates
    and a scorer trained without the sensitive column still scores it lower.
    """
    x1 = prng.normal(prng.derive(seed, 1), n)
    x2 = prng.normal(prng.derive(seed, 2), n)
    protected = prng.uniform01(prng.derive(seed, 3), np.arange(n)) < 0.5
    sign = np.where(protected, -1.0, 1.0)
    proxy = 0.9 * sign + prng.normal(prng.derive(seed, 4), n)
    tier = (prng.uniform01(prng.derive(seed, 5), np.arange(n)) * 4).astype(int)
    logit = (1.0 * x1 + 0.7 * x2 + BIAS * proxy + 0.15 * (tier - 1.5) - 0.3)
    p = 1.0 / (1.0 + np.exp(-logit))
    label = (prng.uniform01(prng.derive(seed, 6), np.arange(n)) < p)

    spec = DatasetSpec(
        name=f"biased-benchmark-{seed}",
        protected_attribute_column="group",
        protected_value="protected",
        target_column="outcome",
        favorable_value="favorable",
        feature_columns=(
            FeatureColumn("x1", "numeric"),
            FeatureColumn("x2", "numeric"),
            FeatureColumn("proxy", "numeric"),
            FeatureColumn("tier", "categorical"),
        ),
    )
    features = np.column_stack([x1, x2, proxy, tier.astype(np.float64)])
    return Dataset(
        features=features,
        sensitive=protected.astype(np.int8),
        label=label.astype(np.int8),
        schema=spec,
        categories={"tier": ("0", "1", "2", "3")},
        sensitive_values=("protected", "privileged"),
        target_values=("favorable", "unfavorable"),
    )


def write_biased_benchmark_csv(path: str | Path, n: int = 2400, seed: int = 2024) -> DatasetSpec:
    """CSV form of biased_benchmark, for exercising ingestion and the CLI."""
    d = biased_benchmark(n=n, seed=seed)
    d.export_csv(path)
    return d.schema
