"""Every value a caller sets is judged by one rule of errors.RULES.

One table: each entry point that takes a scalar, the name its error gives
the value, the rule and the exception type.  Each entry is given a bool,
nan, inf, a value out of range and one of a wrong type, as its rule lists
them in BAD, and must refuse each with `<name> must be <rule>, got <repr>`.
"""

import argparse
import os
import re

import numpy as np
import pytest

from rankaudit.audit import kendall_tau
from rankaudit.cli import cmd_theory
from rankaudit.dataset import split
from rankaudit.decide import DecisionPolicy
from rankaudit.errors import RULES, ConfigError, RateOutOfRange, require
from rankaudit.mitigate import (
    CriticalRegion,
    MixingRates,
    disparate_impact_remove,
    fit_threshold_optimizer,
    reject_option_classify,
)
from rankaudit.scorer import ScorerConfig
from rankaudit.worlds import (
    anti_monotone_world,
    decomposition_check,
    monotonicity_check,
    wage_gap_world,
)

from conftest import make_dataset, make_scores, make_spec

NAN, INF = float("nan"), float("inf")

# each rule's refused values: a bool, nan, inf, one out of range, one of a wrong type
BAD = {
    "a finite number": [True, NAN, INF, "0.5"],  # no value is out of its range
    "a finite number > 0": [True, NAN, INF, 0.0, "0.1"],
    "a finite number >= 0": [True, NAN, INF, -0.5, "0"],
    "a number in [0, 1]": [True, NAN, INF, 1.5, "0.5"],
    "a number in (0, 1)": [True, NAN, INF, 1.0, "0.5"],
    "a number in [0, 0.5]": [True, NAN, INF, 0.6, "0.1"],
    "null or a number in [0, 1]": [True, NAN, INF, -0.1, "0.5"],
    "an integer": [True, NAN, INF, 2.5, "7"],  # no integer is out of its range
    "an integer >= 1": [True, NAN, INF, 0, 3.0],
    "an integer >= 2": [True, NAN, INF, 1, 2.5],
    "true or false": [NAN, INF, 1, "true", None],  # a bool is what it asks for
    '"tau-a" or "tau-b"': [True, NAN, INF, "tau-c", None],
    "three numbers >= 0 that sum to 1": [(True, 0, 0), (NAN, 0.5, 0.5), (INF, 0, 0),
                                         (-0.5, 0.5, 1.0), "0.6,0.2,0.2"],
}

D = make_dataset([1, 1, 0, 0], [1, 0, 1, 0])
S = make_scores([0.2, 0.7, 0.4, 0.9])
W = wage_gap_world(11)
MIXING = {"p_protected_given0": 0.0, "p_protected_given1": 1.0,
          "p_privileged_given0": 0.0, "p_privileged_given1": 1.0, "seed": 11}


def _theory(**flags):
    """`theory example`'s parsed flags; out is a file, so a flag let through
    fails at the mkdir and writes nothing."""
    args = {"check": "example", "world": "wage-gap", "grid_size": 11, "tau": [0.5],
            "tolerance": 0.0, "cut": 0.5, "out": os.devnull}
    return argparse.Namespace(**{**args, **flags})


# (entry point, how it is called with the value, the value's name, rule, error[, values])
ENTRY_POINTS = [
    *[(f"ScorerConfig.{key}", lambda v, key=key: ScorerConfig(**{key: v}), key, what, ValueError)
      for key, what in ScorerConfig.FIELD_RULES.items()],
    ("DatasetSpec.expected_base_rate", lambda v: make_spec(expected_base_rate=v),
     "expected_base_rate", "null or a number in [0, 1]", ValueError),
    ("split.seed", lambda v: split(D, (0.5, 0.25, 0.25), v), "seed", "an integer", ValueError),
    ("split.fractions", lambda v: split(D, v, 0), "fractions",
     "three numbers >= 0 that sum to 1", ValueError),
    *[(f"DecisionPolicy.{field}", call, field, what, error, values)
      for field, call in (
          ("threshold", lambda v: DecisionPolicy("fixed-threshold", threshold=v)),
          ("rate", lambda v: DecisionPolicy("global-top-rate", rate=v)),
          ("group_rates", lambda v: DecisionPolicy("per-group-rates", group_rates=(0.5, v))))
      for what, error, values in (("a finite number", ValueError, BAD["a finite number"]),
                                  ("a number in [0, 1]", RateOutOfRange, [-0.1, 1.5]))],
    ("disparate_impact_remove", lambda v: disparate_impact_remove(D, v), "repair_level",
     "a number in [0, 1]", ValueError),
    ("fit_threshold_optimizer", lambda v: fit_threshold_optimizer(S, D, v), "rate",
     "a number in [0, 1]", RateOutOfRange),
    ("CriticalRegion", lambda v: CriticalRegion(theta=v), "theta", "a number in [0, 0.5]",
     ValueError),
    ("reject_option_classify", lambda v: reject_option_classify(S, D, v), "epsilon",
     "a finite number > 0", ValueError),
    *[(f"MixingRates.{key}", lambda v, key=key: MixingRates(**{**MIXING, key: v}), key,
       "an integer" if key == "seed" else "a number in [0, 1]", ValueError) for key in MIXING],
    ("wage_gap_world", wage_gap_world, "grid_size", "an integer >= 2", ValueError),
    ("anti_monotone_world", anti_monotone_world, "grid_size", "an integer >= 2", ValueError),
    ("monotonicity_check", lambda v: monotonicity_check(W, v), "tolerance",
     "a finite number >= 0", ValueError),
    ("decomposition_check", lambda v: decomposition_check(W, v), "tau", "a number in (0, 1)",
     ValueError),
    ("kendall_tau", lambda v: kendall_tau([1.0, 3.0, 2.0], [2.0, 1.0, 3.0], v), "variant",
     '"tau-a" or "tau-b"', ValueError),
    ("theory --grid-size", lambda v: cmd_theory(_theory(grid_size=v)), "--grid-size",
     "an integer >= 2", ConfigError),
    ("theory --tau", lambda v: cmd_theory(_theory(tau=[0.5, v])), "--tau",
     "a number in (0, 1)", ConfigError),
    ("theory --tolerance", lambda v: cmd_theory(_theory(tolerance=v)), "--tolerance",
     "a finite number >= 0", ConfigError),
    ("theory --cut", lambda v: cmd_theory(_theory(cut=v)), "--cut", "a finite number",
     ConfigError),
]

CASES = [pytest.param(call, name, what, error, value, id=f"{entry}-{what}-{value!r}")
         for entry, call, name, what, error, *values in ENTRY_POINTS
         for value in (values[0] if values else BAD[what])]


@pytest.mark.parametrize("call, name, what, error, value", CASES)
def test_each_entry_point_refuses_what_its_rule_refuses(call, name, what, error, value):
    with pytest.raises(error, match=re.escape(f"{name} must be {what}, got {value!r}")) as exc:
        call(value)
    assert exc.type is error  # RateOutOfRange and ConfigError are not ValueErrors


def test_each_refused_value_is_refused_by_its_rule():
    # the table's values are bad for the rule itself, not only at one entry point
    assert [(what, v) for what, values in BAD.items() for v in values if RULES[what](v)] == []


@pytest.mark.parametrize("what, value", [
    ("a finite number", np.float64(0.5)), ("a number in [0, 1]", np.float32(1.0)),
    ("a finite number > 0", 7), ("a number in (0, 1)", 0.5),
    ("three numbers >= 0 that sum to 1", [0.6, 0.2, 0.2]),
    ("three numbers >= 0 that sum to 1", (1, 0, 0)),
    ("true or false", False), ("null or a number in [0, 1]", None),
])
def test_a_rule_accepts_what_it_names(what, value):
    require(value, "value", what)  # numpy floats are numbers; a tuple is a list of fractions


def test_library_entry_points_take_numpy_floats():
    assert ScorerConfig(l2_penalty=np.float64(0.5)).l2_penalty == 0.5
    repaired = disparate_impact_remove(D, np.float64(0.5))
    np.testing.assert_array_equal(repaired.features, disparate_impact_remove(D, 0.5).features)
    assert fit_threshold_optimizer(S, D, np.float64(0.5)).rate == 0.5
