"""Baseline scorer training, scoring, persistence, external ingestion."""

import warnings

import numpy as np
import pytest

from rankaudit.dataset import Dataset, Split, split
from rankaudit.errors import (
    EmptyTrain,
    IdMismatch,
    NonFiniteLoss,
    ScoreOutOfRange,
    UnknownId,
)
from rankaudit.audit import kendall_tau
from rankaudit.scorer import (
    ScorerConfig,
    _fit_logistic,
    fit,
    ingest_external_scores,
    load_scorer,
    relabel,
    save_scorer,
    score,
)
from rankaudit.synthetic import biased_benchmark

from conftest import make_dataset, make_scores, make_spec


def _all_train_split(d):
    return Split(train_ids=d.instance_ids, validation_ids=np.array([], dtype=np.int64),
                 test_ids=np.array([], dtype=np.int64), seed=0)


def test_fit_separable_fixture_reaches_perfect_accuracy():
    # 20 points, single feature, labels split cleanly at zero
    x = np.concatenate([np.linspace(-2.0, -0.5, 10), np.linspace(0.5, 2.0, 10)])
    y = np.array([0] * 10 + [1] * 10)
    d = make_dataset([0, 1] * 10, y, features=x)
    model = fit(d, _all_train_split(d), ScorerConfig())
    s = score(model, d, d.instance_ids)
    assert (((s.scores > 0.5) == (y == 1)).all())


def test_fit_constant_labels_scores_on_majority_side():
    d = make_dataset([0, 1, 0, 1], [1, 1, 1, 1], features=[0.0, 1.0, 2.0, 3.0])
    model = fit(d, _all_train_split(d), ScorerConfig(epochs=200))
    s = score(model, d, d.instance_ids)
    assert (s.scores > 0.5).all()


def test_fit_empty_train_raises():
    d = make_dataset([0, 1], [0, 1])
    empty = Split(train_ids=np.array([], dtype=np.int64),
                  validation_ids=d.instance_ids,
                  test_ids=np.array([], dtype=np.int64), seed=0)
    with pytest.raises(EmptyTrain):
        fit(d, empty, ScorerConfig())


def test_fit_loss_history_finite_and_settling():
    d = biased_benchmark(n=400, seed=5)
    model = fit(d, _all_train_split(d), ScorerConfig(epochs=300))
    losses = np.array(model.loss_history)
    assert np.isfinite(losses).all()
    tail = losses[-30:]
    assert (np.diff(tail) <= 1e-9).all()


def _penalized_loss_and_grad(X, y, l2_penalty):
    """Mean BCE + l2_penalty * |w|^2 and its gradient at theta = (w, b)."""
    def f(theta):
        w, b = theta[:-1], theta[-1]
        z = X @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        loss = np.mean(np.logaddexp(0.0, z) - y * z) + l2_penalty * (w @ w)
        return loss, np.append(X.T @ (p - y) / len(y) + 2.0 * l2_penalty * w, np.mean(p - y))
    return f


def _fit_problem(d, cfg):
    model = fit(d, _all_train_split(d), cfg)
    X = model.design_matrix(d, d.positions_of(d.instance_ids))
    theta = np.append(model.weights["w"], model.weights["b"])
    return model, _penalized_loss_and_grad(X, d.label.astype(np.float64), cfg.l2_penalty), theta


def test_fit_reaches_zero_penalized_gradient():
    d = biased_benchmark(n=2000, seed=2024)
    model, f, theta = _fit_problem(d, ScorerConfig())
    assert np.linalg.norm(f(theta)[1]) <= 1e-9
    assert len(model.loss_history) <= 20
    assert (np.diff(model.loss_history) <= 1e-15).all()  # the loss never rises beyond rounding


def test_fit_halves_newton_steps_on_an_unstandardized_offset():
    # x near 1e4: near the optimum a full Newton step loses to rounding, so
    # the fit halves steps to keep the loss from rising; taking every full
    # step leaves the loss rising by ~1e-12 and the gradient near 1e-8
    X = np.array([[10000.3], [10000.2], [10000.2]])
    y = np.array([0.0, 1.0, 1.0])
    cfg = ScorerConfig()
    with np.errstate(over="ignore"):  # as in fit
        weights, history = _fit_logistic(cfg, X, y)
    theta = np.append(weights["w"], weights["b"])
    assert np.linalg.norm(_penalized_loss_and_grad(X, y, cfg.l2_penalty)(theta)[1]) <= 1e-9
    assert (np.diff(history) <= 0.0).all()


def test_fit_agrees_with_bfgs():
    optimize = pytest.importorskip("scipy.optimize")
    d = biased_benchmark(n=300, seed=17)
    cfg = ScorerConfig(l2_penalty=1e-2)
    model, f, theta = _fit_problem(d, cfg)
    ref = optimize.minimize(f, np.zeros_like(theta), jac=True, method="BFGS",
                            options={"gtol": 1e-12, "maxiter": 10_000})
    assert np.abs(theta - ref.x).max() <= 1e-6


@pytest.mark.parametrize("labels, features, l2_penalty", [
    ([0] * 10 + [1] * 10,
     np.concatenate([np.linspace(-2.0, -0.5, 10), np.linspace(0.5, 2.0, 10)]), 0.0),
    ([1, 1, 1, 1], [0.0, 1.0, 2.0, 3.0], 1e-4),
], ids=["separable", "one-class"])
def test_fit_without_optimum_stops_at_the_cap_and_warns(caplog, labels, features, l2_penalty):
    d = make_dataset([0, 1] * (len(labels) // 2), labels, features=features)
    with caplog.at_level("WARNING", logger="rankaudit.scorer"):
        model = fit(d, _all_train_split(d), ScorerConfig(epochs=30, l2_penalty=l2_penalty))
    assert caplog.messages == ["logistic fit did not converge within 30 iterations"]
    assert len(model.loss_history) == 30
    assert np.isfinite(model.weights["w"]).all() and np.isfinite(model.weights["b"]).all()
    s = score(model, d, d.instance_ids)
    assert ((s.scores > 0.5) == (np.asarray(labels) == 1)).all()


def test_fit_diverging_loss_raises():
    d = biased_benchmark(n=200, seed=3)
    cfg = ScorerConfig(learning_rate=1e300, epochs=5, model_kind="one-hidden-layer")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no numpy overflow warning first
        with pytest.raises(NonFiniteLoss):
            fit(d, _all_train_split(d), cfg)


def test_fit_on_overflowing_features_raises():
    """The train mean of two cells at 1e308 overflows: fit names the column,
    and numpy prints no RuntimeWarning first."""
    features = [[0.0, 1e308], [1.0, 1e308], [2.0, 0.0], [3.0, 1.0]]
    d = make_dataset([0, 1, 0, 1], [0, 1, 0, 1], features=features)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteLoss, match="column 'f1' is not finite"):
            fit(d, _all_train_split(d), ScorerConfig())


def test_fit_deterministic():
    d = biased_benchmark(n=300, seed=9)
    s = split(d, (0.8, 0.1, 0.1), seed=2)
    m1 = fit(d, s, ScorerConfig())
    m2 = fit(d, s, ScorerConfig())
    assert np.array_equal(m1.weights["w"], m2.weights["w"])
    assert np.array_equal(m1.weights["b"], m2.weights["b"])


def test_score_zero_weight_model_gives_half():
    d = make_dataset([0, 1, 0], [0, 1, 1], features=[1.0, 2.0, 3.0])
    model = fit(d, _all_train_split(d), ScorerConfig(epochs=1, learning_rate=1e-12))
    model.weights["w"][:] = 0.0
    model.weights["b"][:] = 0.0
    s = score(model, d, d.instance_ids)
    assert (s.scores == 0.5).all()


def test_score_repeatable_and_order_equivariant():
    d = biased_benchmark(n=200, seed=3)
    model = fit(d, _all_train_split(d), ScorerConfig(epochs=50))
    a = score(model, d, d.instance_ids)
    b = score(model, d, d.instance_ids)
    assert np.array_equal(a.scores, b.scores)
    subset = np.array([7, 3, 11], dtype=np.int64)
    got = score(model, d, subset)
    assert got.scores.tolist() == [a.scores[7], a.scores[3], a.scores[11]]


def test_score_monotone_single_feature():
    x = np.linspace(0.0, 1.0, 15)
    y = (x > 0.5).astype(int)
    d = make_dataset([0, 1] * 7 + [0], y, features=x)
    model = fit(d, _all_train_split(d), ScorerConfig(epochs=300))
    s = score(model, d, d.instance_ids)
    assert (np.diff(s.scores) > 0).all()


def test_score_unknown_id():
    d = make_dataset([0, 1], [0, 1])
    model = fit(d, _all_train_split(d), ScorerConfig(epochs=5))
    with pytest.raises(UnknownId):
        score(model, d, [17])


def test_standardization_uses_train_stats_only():
    d = biased_benchmark(n=300, seed=21)
    s = split(d, (0.5, 0.25, 0.25), seed=4)
    model = fit(d, s, ScorerConfig(epochs=50))
    test_scores = score(model, d, s.test_ids).scores
    # permuting test labels changes nothing the scorer saw
    shuffled_label = d.label.copy()
    pos = d.positions_of(s.test_ids)
    shuffled_label[pos] = shuffled_label[pos][::-1]
    d2 = Dataset(
        features=d.features, sensitive=d.sensitive,
        label=shuffled_label, schema=d.schema, categories=d.categories,
        sensitive_values=d.sensitive_values, target_values=d.target_values,
    )
    model2 = fit(d2, s, ScorerConfig(epochs=50))
    assert np.array_equal(score(model2, d2, s.test_ids).scores, test_scores) or \
        np.allclose(score(model2, d2, s.test_ids).scores, test_scores)


def test_sensitive_excluded_by_default_included_on_request():
    d = biased_benchmark(n=300, seed=33)
    sp = _all_train_split(d)
    base = fit(d, sp, ScorerConfig(epochs=50))
    assert len(base.weights["w"]) == 6  # 3 numerics + 3 one-hot levels
    with_sens = fit(d, sp, ScorerConfig(epochs=50, include_sensitive=True))
    assert len(with_sens.weights["w"]) == 7


def test_mlp_model_kind_runs_and_is_deterministic():
    d = biased_benchmark(n=300, seed=41)
    sp = _all_train_split(d)
    cfg = ScorerConfig(learning_rate=0.001, epochs=8, model_kind="one-hidden-layer",
                       seed=13)
    m1 = fit(d, sp, cfg)
    m2 = fit(d, sp, cfg)
    s1 = score(m1, d, d.instance_ids).scores
    s2 = score(m2, d, d.instance_ids).scores
    assert np.array_equal(s1, s2)
    assert np.isfinite(m1.loss_history).all()
    assert m1.loss_history[-1] < m1.loss_history[0]


def test_scorer_persistence_round_trip(tmp_path):
    d = biased_benchmark(n=200, seed=8)
    model = fit(d, _all_train_split(d), ScorerConfig(epochs=40))
    path = tmp_path / "scorer.txt"
    save_scorer(model, path)
    loaded = load_scorer(path)
    assert loaded.config == model.config
    assert np.array_equal(loaded.weights["w"], model.weights["w"])
    a = score(model, d, d.instance_ids).scores
    b = score(loaded, d, d.instance_ids).scores
    assert np.array_equal(a, b)


def test_load_scorer_skips_blank_lines(tmp_path):
    d = biased_benchmark(n=200, seed=8)
    model = fit(d, _all_train_split(d), ScorerConfig(epochs=40))
    path = tmp_path / "scorer.txt"
    save_scorer(model, path)
    # a blank line before each array's header line, and two at the end
    text = "".join(f"\n{line}\n" if line[0].isalpha() else f"{line}\n"
                   for line in path.read_text(encoding="utf-8").splitlines())
    path.write_text(text + "\n\n", encoding="utf-8")
    loaded = load_scorer(path)
    assert loaded.config == model.config
    assert np.array_equal(score(loaded, d, d.instance_ids).scores,
                          score(model, d, d.instance_ids).scores)


def test_load_scorer_skips_a_blank_line_after_every_line(tmp_path):
    d = biased_benchmark(n=200, seed=8)
    model = fit(d, _all_train_split(d), ScorerConfig(epochs=40))
    path = tmp_path / "scorer.txt"
    save_scorer(model, path)
    path.write_text(path.read_text(encoding="utf-8").replace("\n", "\n\n"), encoding="utf-8")
    loaded = load_scorer(path)
    assert loaded.config == model.config
    assert np.array_equal(score(loaded, d, d.instance_ids).scores,
                          score(model, d, d.instance_ids).scores)


def test_load_scorer_names_the_file_and_line_of_a_bad_value(tmp_path):
    d = biased_benchmark(n=200, seed=8)
    path = tmp_path / "scorer.txt"
    save_scorer(fit(d, _all_train_split(d), ScorerConfig(epochs=40)), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    last_header = max(i for i, line in enumerate(lines) if line[0].isalpha())
    path.write_text("".join(lines[:-1]), encoding="utf-8")  # the last value cut off
    with pytest.raises(ValueError, match=rf"scorer.txt, line {last_header + 1}: array "
                                         r"'b' needs 1 values, the file holds 0"):
        load_scorer(path)
    lines[1] = "0.5x\n"  # the first value of the first array
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=r"scorer.txt, line 2: '0.5x' is not a number"):
        load_scorer(path)
    lines[0] = lines[0].replace(" ", " two ")  # a dimension that is not a number
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=r"scorer.txt, line 1: 'two' is not a number"):
        load_scorer(path)


def test_categorical_only_spec_fits_scores_and_round_trips(tmp_path):
    # no numeric column: the standardized block is (n, 0), mean and std empty
    rng = np.random.default_rng(12)
    codes = rng.integers(0, 3, (60, 2)).astype(np.float64)
    label = (codes[:, 0] + rng.integers(0, 2, 60) >= 2).astype(np.int8)
    d = Dataset(features=codes, sensitive=rng.integers(0, 2, 60).astype(np.int8),
                label=label, schema=make_spec(2, kinds=["categorical"] * 2))
    model = fit(d, _all_train_split(d), ScorerConfig())
    assert model.mean.shape == model.std.shape == (0,)
    assert model.design_matrix(d, d.positions_of(d.instance_ids)).shape == (60, 4)
    path = tmp_path / "scorer.txt"
    save_scorer(model, path)
    a = score(model, d, d.instance_ids).scores
    assert np.array_equal(score(load_scorer(path), d, d.instance_ids).scores, a)
    assert len(np.unique(a)) > 1


@pytest.mark.parametrize("seed", [2**53, -2**53])
def test_scorer_persistence_keeps_the_widest_seed(tmp_path, seed):
    d = biased_benchmark(n=200, seed=8)
    model = fit(d, _all_train_split(d), ScorerConfig(epochs=5, seed=seed))
    path = tmp_path / "scorer.txt"
    save_scorer(model, path)
    assert load_scorer(path).config == model.config


@pytest.mark.parametrize("seed", [2**53 + 1, -2**60 - 3, 2**64 + 5])
def test_scorer_config_rejects_a_seed_scorer_txt_cannot_hold(seed):
    with pytest.raises(ValueError, match=r"seed must be an integer in \[-2\*\*53, 2\*\*53\]"):
        ScorerConfig(seed=seed)


@pytest.mark.parametrize("value", [2.5, 3.0, True, "7", None])
def test_scorer_config_rejects_a_seed_that_is_not_an_integer(value):
    with pytest.raises(ValueError, match="seed must be an integer"):
        ScorerConfig(seed=value)


@pytest.mark.parametrize("value", ["no", 0, 1, None])
def test_scorer_config_rejects_an_include_sensitive_that_is_not_a_bool(value):
    with pytest.raises(ValueError, match="include_sensitive must be true or false"):
        ScorerConfig(include_sensitive=value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -0.1, True, False])
def test_scorer_config_rejects_a_learning_rate_fit_cannot_use(value):
    with pytest.raises(ValueError, match="learning_rate must be a finite number > 0"):
        ScorerConfig(learning_rate=value)


@pytest.mark.parametrize("value", [2.5, True, 3.0, 0])
def test_scorer_config_rejects_epochs_that_are_not_a_positive_integer(value):
    with pytest.raises(ValueError, match="epochs must be an integer >= 1"):
        ScorerConfig(epochs=value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-4, True, False])
def test_scorer_config_rejects_an_l2_penalty_fit_cannot_use(value):
    with pytest.raises(ValueError, match="l2_penalty must be a finite number >= 0"):
        ScorerConfig(l2_penalty=value)


def test_scorer_persistence_keeps_include_sensitive(tmp_path):
    d = biased_benchmark(n=200, seed=8)
    model = fit(d, _all_train_split(d), ScorerConfig(epochs=40, include_sensitive=True))
    path = tmp_path / "scorer.txt"
    save_scorer(model, path)
    loaded = load_scorer(path)
    assert loaded.config == model.config
    assert loaded.config.include_sensitive
    assert len(loaded.weights["w"]) == 7  # the sensitive column is a feature
    a = score(model, d, d.instance_ids).scores
    b = score(loaded, d, d.instance_ids).scores
    assert np.array_equal(a, b)


# --- external scores ----------------------------------------------------------------

def _write_scores(path, rows):
    lines = ["instance_id,score"] + [f"{i},{s}" for i, s in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_external_scores_echoing_baseline_gives_tau_one(tmp_path):
    d = make_dataset([0, 1, 0, 1], [0, 1, 0, 1])
    base = make_scores([0.1, 0.4, 0.6, 0.9])
    path = tmp_path / "ext.csv"
    _write_scores(path, zip(base.instance_ids, base.scores))
    ext = ingest_external_scores(path, d, d.instance_ids, "echo")
    assert kendall_tau(base.scores, ext.scores) == 1.0


def test_external_scores_reversed_gives_tau_minus_one(tmp_path):
    d = make_dataset([0, 1, 0, 1], [0, 1, 0, 1])
    base = make_scores([0.1, 0.4, 0.6, 0.9])
    path = tmp_path / "ext.csv"
    _write_scores(path, zip(base.instance_ids, 1.0 - base.scores))
    ext = ingest_external_scores(path, d, d.instance_ids, "reversed")
    assert kendall_tau(base.scores, ext.scores) == -1.0


def test_external_scores_skip_byte_order_mark(tmp_path):
    d = make_dataset([0, 1], [0, 1])
    path = tmp_path / "ext.csv"
    path.write_bytes(b"\xef\xbb\xbfinstance_id,score\n1,0.25\n0,0.75\n")
    ext = ingest_external_scores(path, d, d.instance_ids, "bom")
    assert ext.instance_ids.tolist() == [0, 1]
    assert ext.scores.tolist() == [0.75, 0.25]


def test_external_scores_out_of_range(tmp_path):
    d = make_dataset([0, 1], [0, 1])
    path = tmp_path / "ext.csv"
    _write_scores(path, [(0, 1.2), (1, 0.5)])
    with pytest.raises(ScoreOutOfRange):
        ingest_external_scores(path, d, d.instance_ids, "bad")


def test_external_scores_clamps_tiny_excursions(tmp_path):
    d = make_dataset([0, 1], [0, 1])
    path = tmp_path / "ext.csv"
    _write_scores(path, [(0, 1.0 + 5e-10), (1, -5e-10)])
    ext = ingest_external_scores(path, d, d.instance_ids, "clamped")
    assert ext.scores.tolist() == [1.0, 0.0]


def test_external_scores_id_contract(tmp_path):
    d = make_dataset([0, 1], [0, 1])
    path = tmp_path / "ext.csv"
    _write_scores(path, [(0, 0.5), (9, 0.5)])
    with pytest.raises(UnknownId):
        ingest_external_scores(path, d, d.instance_ids, "foreign")
    _write_scores(path, [(0, 0.5), (0, 0.6)])
    with pytest.raises(IdMismatch):
        ingest_external_scores(path, d, d.instance_ids, "dupes")


@pytest.mark.parametrize("header", ["id,score", "instance_id", ""])
def test_external_scores_refuse_a_bad_header(tmp_path, header):
    d = make_dataset([0, 1], [0, 1])
    path = tmp_path / "ext.csv"
    path.write_text(f"{header}\n0,0.5\n1,0.5\n", encoding="utf-8")
    with pytest.raises(IdMismatch, match="expected header instance_id,score"):
        ingest_external_scores(path, d, d.instance_ids, "bad")


def test_external_scores_skip_a_blank_row(tmp_path):
    d = make_dataset([0, 1], [0, 1])
    path = tmp_path / "ext.csv"
    path.write_text("instance_id,score\n0,0.25\n\n1,0.75\n", encoding="utf-8")
    ext = ingest_external_scores(path, d, d.instance_ids, "blank")
    assert ext.scores.tolist() == [0.25, 0.75]


def test_external_scores_come_in_the_order_of_the_requested_ids(tmp_path):
    d = make_dataset([0, 1, 0, 1], [0, 1, 0, 1])
    path = tmp_path / "ext.csv"
    _write_scores(path, [(2, 0.3), (0, 0.1), (3, 0.4), (1, 0.2)])
    ext = ingest_external_scores(path, d, [3, 0, 2], "ordered")
    assert ext.instance_ids.tolist() == [3, 0, 2]
    assert ext.scores.tolist() == [0.4, 0.1, 0.3]


def test_external_scores_may_hold_ids_not_requested(tmp_path):
    d = make_dataset([0, 1, 0, 1], [0, 1, 0, 1])
    path = tmp_path / "ext.csv"
    _write_scores(path, [(0, 0.1), (1, 0.2), (2, 0.3), (3, 0.4)])
    ext = ingest_external_scores(path, d, [1, 3], "subset")
    assert ext.instance_ids.tolist() == [1, 3]
    assert ext.scores.tolist() == [0.2, 0.4]


def test_external_scores_lacking_requested_ids_name_them(tmp_path):
    d = make_dataset([0, 1] * 5, [0, 1] * 5)
    path = tmp_path / "ext.csv"
    _write_scores(path, [(0, 0.1), (9, 0.9)])
    with pytest.raises(UnknownId, match=r"lacks ids \[2, 3, 4, 5, 6\]$"):
        ingest_external_scores(path, d, [9, 2, 3, 4, 0, 5, 6, 7], "partial")


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_external_scores_reject_non_finite_cells(tmp_path, cell):
    d = make_dataset([0, 1], [0, 1])
    path = tmp_path / "ext.csv"
    _write_scores(path, [(0, cell), (1, 0.5)])
    with pytest.raises(ScoreOutOfRange):
        ingest_external_scores(path, d, d.instance_ids, "bad")


def test_score_set_rejects_nan():
    with pytest.raises(ScoreOutOfRange):
        make_scores([0.1, float("nan"), 0.6, 0.9])


def test_score_set_refuses_ids_of_another_length():
    with pytest.raises(ValueError, match="scores and ids differ in length"):
        make_scores([0.1, 0.9], ids=[0, 1, 2])


@pytest.mark.parametrize("bad", [-0.01, 1.01])
def test_score_set_refuses_scores_outside_0_1(bad):
    with pytest.raises(ScoreOutOfRange, match=r"scores outside \[0, 1\]"):
        make_scores([0.5, bad])


def test_relabel_shares_values():
    base = make_scores([0.2, 0.8])
    other = relabel(base, "other")
    assert other.method == "other"
    assert np.array_equal(other.scores, base.scores)
