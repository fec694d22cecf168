"""Synthetic world rates, Pareto checks, monotonicity, decomposition."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import rankaudit.worlds
from rankaudit.audit import _count_exceeding_pairs
from rankaudit.errors import ZeroMassDenominator
from rankaudit.worlds import (
    PARETO_MARGIN,
    WITNESS_LIMIT,
    FairWorld,
    anti_monotone_world,
    decomposition_check,
    monotonicity_check,
    pareto_check,
    rates,
    threshold_decision,
    wage_gap_world,
)

from oracles import brute_exceeding_pairs, brute_witnesses, reference_pareto, reference_rates


# --- the running world -----------------------------------------------------------

def test_wage_gap_world_pinned_values():
    w = wage_gap_world(501)
    female = (w.group == 1) & (w.x == 25.0)
    assert w.fair_p[female][0] == 0.5
    assert w.score_s[female][0] == 0.45
    male_top = (w.group == 0) & (w.x == 50.0)
    assert w.score_s[male_top][0] == 1.0
    assert abs(w.weight.sum() - 1.0) <= 1e-12


def test_rates_constant_decisions():
    w = wage_gap_world(101)
    all_one = np.ones(w.m, dtype=np.int8)
    all_zero = np.zeros(w.m, dtype=np.int8)
    for basis in ("fair", "unfair"):
        r1 = rates(w, all_one, basis)
        assert (r1.tpr, r1.tnr) == (1.0, 0.0)
        r0 = rates(w, all_zero, basis)
        assert (r0.tpr, r0.tnr) == (0.0, 1.0)


def test_rates_zero_mass_denominator():
    w = FairWorld(
        x=np.array([0.0, 1.0]),
        group=np.array([0, 1], dtype=np.int8),
        weight=np.array([0.5, 0.5]),
        fair_p=np.array([0.0, 0.0]),  # no positive mass on the fair basis
        score_s=np.array([0.2, 0.8]),
    )
    with pytest.raises(ZeroMassDenominator):
        rates(w, np.ones(2, dtype=np.int8), "fair")


@pytest.mark.parametrize("field", ["weight", "fair_p", "score_s"])
def test_world_rejects_nan(field):
    values = {
        "weight": np.array([0.5, 0.5]),
        "fair_p": np.array([0.2, 0.8]),
        "score_s": np.array([0.3, 0.7]),
    }
    values[field] = np.array([np.nan, values[field][1]])
    with pytest.raises(ValueError, match="finite"):
        FairWorld(x=np.array([0.0, 1.0]), group=np.array([0, 0], dtype=np.int8),
                  **values)


@pytest.mark.parametrize("x", [[np.nan, 1.0, np.inf], [0.0, 1.0, np.inf], [0.0, -np.inf, 2.0],
                               np.array([0.0, np.nan, 2.0])])
def test_world_rejects_a_non_finite_x(x):
    # a nan or inf x would come back as a monotonicity witness
    with pytest.raises(ValueError, match="x must be finite"):
        FairWorld(x=x, group=np.array([0, 0, 1], dtype=np.int8), weight=np.array([0.5, 0.25, 0.25]),
                  fair_p=np.array([0.2, 0.8, 0.5]), score_s=np.array([0.3, 0.7, 0.5]))


@pytest.mark.parametrize("field", ["x", "group", "weight", "fair_p", "score_s"])
@pytest.mark.parametrize("shape", ["2-D", "0-D"])
def test_world_rejects_an_array_that_is_not_one_dimensional(field, shape):
    values = {"x": np.array([0.0, 1.0]), "group": np.array([0, 1], dtype=np.int8),
              "weight": np.array([0.5, 0.5]), "fair_p": np.array([0.2, 0.8]),
              "score_s": np.array([0.3, 0.7])}
    # 2-D: both rows stacked, so the first dimension still matches the grid
    values[field] = np.stack([values[field]] * 2) if shape == "2-D" else values[field][0]
    with pytest.raises(ValueError, match=f"{field} must be 1-D"):
        FairWorld(**values)


@pytest.mark.parametrize("field, value, message", [
    ("group", np.array([0, 1, 1], dtype=np.int8), "group length 3 != 2"),
    ("weight", np.array([0.5, 0.6]), "weights sum to 1.1, not 1"),
    ("weight", np.array([1.5, -0.5]), "weights must be nonnegative"),
    ("fair_p", np.array([0.2, 1.2]), r"fair_p outside \[0, 1\]"),
    ("score_s", np.array([-0.1, 0.7]), r"score_s outside \[0, 1\]"),
], ids=["length", "weight-sum", "weight-negative", "fair_p", "score_s"])
def test_world_refuses_values_that_are_not_a_weighted_grid(field, value, message):
    values = {"x": np.array([0.0, 1.0]), "group": np.array([0, 1], dtype=np.int8),
              "weight": np.array([0.5, 0.5]), "fair_p": np.array([0.2, 0.8]),
              "score_s": np.array([0.3, 0.7]), field: value}
    with pytest.raises(ValueError, match=message):
        FairWorld(**values)


def test_basis_values_refuses_an_unknown_basis():
    with pytest.raises(ValueError, match="basis must be 'fair' or 'unfair', got 'biased'"):
        wage_gap_world(11).basis_values("biased")


def test_rates_refuses_a_decision_of_another_length():
    w = wage_gap_world(11)
    with pytest.raises(ValueError, match="decision length does not match the world grid"):
        rates(w, np.ones(w.m - 1, dtype=np.int8), "fair")


def test_rates_match_monte_carlo_on_unfair_basis():
    w = wage_gap_world(201)
    dec = threshold_decision(w, "unfair", 0.5)
    analytic = rates(w, dec, "unfair")
    rng = np.random.default_rng(7)
    n = 1_000_000
    idx = rng.choice(w.m, size=n, p=w.weight)
    labels = rng.random(n) < w.score_s[idx]
    picked = dec[idx].astype(bool)
    tpr_mc = picked[labels].mean()
    tnr_mc = (~picked[~labels]).mean()
    for got, mc, denom in ((analytic.tpr, tpr_mc, labels.sum()),
                           (analytic.tnr, tnr_mc, (~labels).sum())):
        se = np.sqrt(got * (1 - got) / denom)
        assert abs(got - mc) <= 3 * se + 1e-9


def test_rates_linear_in_single_point_flips():
    w = wage_gap_world(51)
    dec = threshold_decision(w, "fair", 0.4)
    base = rates(w, dec, "fair")
    q = w.fair_p
    pos_mass = float((q * w.weight).sum())
    neg_mass = float(((1 - q) * w.weight).sum())
    rng = np.random.default_rng(11)
    for i in rng.integers(0, w.m, size=12):
        flipped = dec.copy()
        flipped[i] = 1 - flipped[i]
        r = rates(w, flipped, "fair")
        sign = 1.0 if flipped[i] else -1.0
        assert r.tpr == pytest.approx(base.tpr + sign * q[i] * w.weight[i] / pos_mass, abs=1e-12)
        assert r.tnr == pytest.approx(base.tnr - sign * (1 - q[i]) * w.weight[i] / neg_mass, abs=1e-12)


# --- threshold decisions -------------------------------------------------------------

def test_threshold_decision_boundaries():
    w = wage_gap_world(101)
    dec0 = threshold_decision(w, "fair", 0.0)
    assert np.array_equal(dec0.astype(bool), w.fair_p > 0)
    per_group = threshold_decision(w, "unfair", 0.5, per_group={0: 0.5, 1: 0.45})
    fair = threshold_decision(w, "fair", 0.5)
    assert np.array_equal(per_group, fair)


def test_single_unfair_threshold_excludes_qualified_women():
    w = wage_gap_world(501)
    dec = threshold_decision(w, "unfair", 0.5)
    # females with x in (25, 27.78] score below 0.5 despite fair_p > 0.5
    excluded = (w.group == 1) & (w.fair_p > 0.5) & (dec == 0)
    xs = np.sort(w.x[excluded])
    assert xs.min() == 25.1
    assert xs.max() == pytest.approx(27.7)
    males_same_merit = (w.group == 0) & np.isin(w.x, xs)
    assert dec[males_same_merit].all()


# --- Pareto dominance ------------------------------------------------------------------

def test_threshold_decisions_maximal_on_own_basis():
    w = wage_gap_world(301)
    for basis in ("fair", "unfair"):
        for tau in (0.2, 0.5, 0.8):
            dec = threshold_decision(w, basis, tau)
            assert pareto_check(w, dec, basis).maximal


def test_biased_cut_maximal_unfair_dominated_fair():
    w = wage_gap_world(501)
    dec = threshold_decision(w, "unfair", 0.5)
    assert pareto_check(w, dec, "unfair").maximal
    res = pareto_check(w, dec, "fair")
    assert not res.maximal
    assert res.dominating_rates.tpr >= res.decision_rates.tpr - 1e-12
    assert res.dominating_rates.tnr >= res.decision_rates.tnr - 1e-12
    better = (res.dominating_rates.tpr > res.decision_rates.tpr + 1e-9
              or res.dominating_rates.tnr > res.decision_rates.tnr + 1e-9)
    assert better
    # the returned dominator is a real decision whose rates check out
    rr = rates(w, res.dominated_by, "fair")
    assert rr.tpr == pytest.approx(res.dominating_rates.tpr, abs=1e-12)
    assert rr.tnr == pytest.approx(res.dominating_rates.tnr, abs=1e-12)


def test_interior_flip_is_dominated():
    w = wage_gap_world(201)
    dec = threshold_decision(w, "fair", 0.5)
    # flip a selected point well inside the selection (p far above 0.5)
    interior = np.flatnonzero((dec == 1) & (w.fair_p > 0.6) & (w.fair_p < 0.9))[3]
    flipped = dec.copy()
    flipped[interior] = 0
    assert not pareto_check(w, flipped, "fair").maximal


def _tied_world(rng):
    """A small world whose values repeat, include 0, -0.0 and 1, and whose
    weights include 0 and -0.0."""
    m = int(rng.integers(1, 30))
    values = np.array([0.0, -0.0, 0.125, 0.5, 0.5, 0.75, 1.0])
    weight = rng.choice(np.array([0.0, -0.0, 1.0, 2.0, 3.0]), size=m)
    weight[0] = 1.0  # some mass
    return FairWorld(x=np.arange(m, dtype=np.float64), group=rng.integers(0, 2, m).astype(np.int8),
                     weight=weight / weight.sum(), fair_p=rng.choice(values, m),
                     score_s=rng.choice(values, m))


def _long_run_world(rng, block):
    """A world whose 0.5 run, on either basis, spans three blocks of the given size."""
    m = 3 * block + 4
    values = np.full(m, 0.5)
    values[rng.choice(m, 4, replace=False)] = [0.0, 0.25, 0.75, 1.0]
    weight = rng.integers(1, 4, m).astype(np.float64)
    return FairWorld(x=np.arange(m, dtype=np.float64), group=rng.integers(0, 2, m).astype(np.int8),
                     weight=weight / weight.sum(), fair_p=values, score_s=values[::-1].copy())


def _bits(rate_pair):
    return None if rate_pair is None else tuple(float(r).hex() for r in rate_pair)


BLOCKS = [1, 2, 3, 7, rankaudit.worlds._BLOCK]


@pytest.mark.parametrize("block", BLOCKS)
def test_pareto_check_matches_the_whole_grid_reference_bitwise(monkeypatch, block):
    monkeypatch.setattr(rankaudit.worlds, "_BLOCK", block)
    rng = np.random.default_rng(28)
    compared = 0
    for w in [_tied_world(rng) for _ in range(120)] + [_long_run_world(rng, block)]:
        decisions = [rng.integers(0, 2, w.m).astype(np.int8), rng.random(w.m),
                     np.zeros(w.m), np.ones(w.m, dtype=np.int8),
                     threshold_decision(w, "unfair", float(rng.choice([0.0, 0.25, 0.5])))]
        for basis in ("fair", "unfair"):
            q = w.basis_values(basis)
            for dec in decisions:
                try:
                    want = reference_pareto(q, w.weight, dec, PARETO_MARGIN)
                except ZeroDivisionError:  # a basis with no mass on one side
                    with pytest.raises(ZeroMassDenominator):
                        pareto_check(w, dec, basis)
                    continue
                got = pareto_check(w, dec, basis)
                r = rates(w, dec, basis)
                assert _bits((r.tpr, r.tnr)) == _bits(reference_rates(q, w.weight, dec))
                assert got.maximal == want[0]
                d, dom = got.decision_rates, got.dominating_rates
                assert _bits((d.tpr, d.tnr)) == _bits(want[1])
                assert _bits(None if dom is None else (dom.tpr, dom.tnr)) == _bits(want[3])
                if want[2] is None:
                    assert got.dominated_by is None
                else:
                    assert got.dominated_by.dtype == want[2].dtype
                    assert np.array_equal(got.dominated_by, want[2])
                compared += 1
    assert compared > 1000


def test_rates_leaves_a_float_decision_unchanged():
    w = wage_gap_world(51)
    dec = np.random.default_rng(3).random(w.m)
    kept = dec.copy()
    rates(w, dec, "fair")
    pareto_check(w, dec, "unfair")
    assert np.array_equal(dec, kept)


# --- memory: each check holds the world plus one sort index -----------------------------

def _peak_over_world(call):
    """(peak bytes traced while call() runs, above those traced before it;
    call's result).  numpy reports its arrays to tracemalloc."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before, result


def _world_bytes(w):
    return sum(a.nbytes for a in (w.x, w.group, w.weight, w.fair_p, w.score_s))


@pytest.fixture(scope="module")
def worlds_200k():
    return {"wage-gap": wage_gap_world(200_000), "anti-monotone": anti_monotone_world(200_000)}


@pytest.mark.parametrize("basis", ["unfair", "fair"])
def test_pareto_check_holds_one_sort_index(worlds_200k, basis):
    w = worlds_200k["anti-monotone"]
    dec = threshold_decision(w, "unfair", 0.5)
    peak, _ = _peak_over_world(lambda: pareto_check(w, dec, basis))
    assert peak / _world_bytes(w) <= 0.5


def test_rates_holds_one_grid_vector(worlds_200k):
    w = worlds_200k["anti-monotone"]
    dec = threshold_decision(w, "unfair", 0.5)
    peak, _ = _peak_over_world(lambda: rates(w, dec, "fair"))
    assert peak / _world_bytes(w) <= 0.35


def test_wage_gap_world_holds_no_weight_vector():
    # world bytes count the weight view's nominal 8 bytes per point; none are allocated
    peak, w = _peak_over_world(lambda: wage_gap_world(200_000))
    assert not w.weight.flags.writeable
    assert peak / _world_bytes(w) <= 0.85


def test_anti_monotone_world_builds_without_full_grid_temporaries():
    peak, w = _peak_over_world(lambda: anti_monotone_world(200_000))
    assert peak / _world_bytes(w) <= 1.1


def test_monotonicity_check_holds_one_sort_index(worlds_200k):
    w = worlds_200k["wage-gap"]
    peak, res = _peak_over_world(lambda: monotonicity_check(w))
    assert res.holds
    assert peak / _world_bytes(w) <= 0.75


# --- monotonicity -----------------------------------------------------------------------

def test_exceeding_pair_count_matches_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(2, 90))
        seq = np.round(rng.random(n), 2)
        tol = float(rng.choice([0.0, 0.05, 0.2]))
        assert _count_exceeding_pairs(seq, tol) == brute_exceeding_pairs(seq, tol)


@pytest.mark.parametrize("seq, tol, want", [
    ([0.0, -0.0, 0.0, 0.25, 0.25, 0.5, 0.5, 1.0], 0.0, 0),  # ties, signed zeros
    ([0.1, 0.2, 0.3, 0.4, 0.35], 0.0, 1),                    # lone drop at the last row
    ([1, 2, 2, 3], 0.0, 0),                                   # a plain list of ints
    ([3, 1, 2], 0.0, 2),
])
def test_exceeding_pair_shortcut_edges(seq, tol, want):
    assert _count_exceeding_pairs(seq, tol) == brute_exceeding_pairs(seq, tol) == want


@pytest.mark.parametrize("tol", [0.0, 0.05, 1e-300, 0.3])
def test_exceeding_pair_shortcut_at_exactly_tol(tol):
    # a single descent of exactly tol does not count; one ulp more does
    exact = [tol, 0.0]
    assert _count_exceeding_pairs(exact, tol) == brute_exceeding_pairs(exact, tol) == 0
    over = [np.nextafter(tol, np.inf), 0.0, 1.0]
    assert _count_exceeding_pairs(over, tol) == brute_exceeding_pairs(over, tol) == 1
    for top, want in ((tol, 0), (np.nextafter(tol, np.inf), 200)):
        # 200 rows at top, then a last row of 0 after them, across blocks
        long = np.r_[np.linspace(-1.0, 0.0, 100), np.full(200, top), 0.0]
        assert _count_exceeding_pairs(long, tol) == brute_exceeding_pairs(long, tol) == want


@pytest.mark.parametrize("tol", [0.0, 0.05])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 323, 705, 1500])
def test_exceeding_pair_count_across_merge_levels(n, tol):
    # padded to 64-row blocks, these lengths leave a run with no right
    # neighbour at one or more merge levels (323: at 128; 1500: at 256 and 512)
    rng = np.random.default_rng(n)
    seq = np.round(rng.random(n), 1)  # ties at every level
    assert _count_exceeding_pairs(seq, tol) == brute_exceeding_pairs(seq, tol)


def test_exceeding_pair_count_leaves_its_input_unchanged():
    # float64, so asarray makes no copy; 320 rows fill whole blocks, so no padding either
    seq = np.round(np.random.default_rng(4).random(320), 1)
    before = seq.copy()
    want = brute_exceeding_pairs(seq, 0.0)
    assert _count_exceeding_pairs(seq) == want
    assert np.array_equal(seq, before)
    as_list = seq.tolist()
    assert _count_exceeding_pairs(as_list) == want
    assert as_list == before.tolist()


@pytest.mark.parametrize("tol", [0.0, 0.5, 1e-300])
def test_exceeding_pair_count_of_non_increasing_sequences(tol):
    # counted by one search of the reversal, not by the merge
    rng = np.random.default_rng(17)
    for n in (2, 3, 63, 64, 65, 200):
        for digits in (0, 1, 3):  # few levels, so long runs of ties
            seq = np.sort(np.round(rng.random(n), digits))[::-1]
            assert _count_exceeding_pairs(seq, tol) == brute_exceeding_pairs(seq, tol)
    tiny = [3e-300, 2e-300, 1e-300, 1e-300, 0.0, -0.0, -1e-300]
    assert _count_exceeding_pairs(tiny, tol) == brute_exceeding_pairs(tiny, tol)


def test_exceeding_pair_count_bounds_its_block_compare():
    # the in-block compare takes 256 blocks of 64 at a time: two 1 MB masks, whatever n is
    seq = np.random.default_rng(5).random(200_000)
    peak, count = _peak_over_world(lambda: _count_exceeding_pairs(seq))
    assert count > 0
    assert peak <= 3 * seq.nbytes


def test_groups_are_sorted_codes_kept_per_world():
    w = wage_gap_world(5)
    codes = np.array([2, 0] * 5, dtype=np.int8)  # unsorted
    w2 = FairWorld(x=w.x, group=codes, weight=w.weight, fair_p=w.fair_p,
                   score_s=w.score_s)
    assert w2.groups() == sorted(np.unique(codes).tolist()) == [0, 2]
    assert all(type(g) is int for g in w2.groups())
    assert w2.groups() == w2.groups()
    w3 = replace(w2, group=np.where(codes == 2, 5, 1).astype(np.int8))
    assert w3.groups() == [1, 5]
    assert w2.groups() == [0, 2]
    assert w.groups() == [0, 1]


def test_wage_gap_world_is_within_group_monotone():
    res = monotonicity_check(wage_gap_world(501))
    assert res.holds
    assert res.violation_count == 0


def test_identity_bias_is_monotone():
    w = wage_gap_world(101)
    identity = FairWorld(x=w.x, group=w.group, weight=w.weight,
                         fair_p=w.fair_p, score_s=w.fair_p,
                         group_names=dict(w.group_names))
    assert monotonicity_check(identity).holds


def test_anti_monotone_world_counts_all_cross_pairs():
    w = anti_monotone_world(101)
    res = monotonicity_check(w)
    assert not res.holds
    # in the reversed group every strictly-ordered pair violates
    assert res.violations_by_group["female"] == 101 * 100 // 2
    assert res.violations_by_group["male"] == 0
    assert 0 < len(res.witnesses) <= 10
    first = res.witnesses[0]
    assert first["group"] == "female"
    assert first["lower_p"] < first["higher_p"]  # lower x got the higher score


def test_anti_monotone_world_witnesses_pinned():
    res = monotonicity_check(anti_monotone_world(5))
    assert res.witnesses == [
        {"group": "female", "lower_p": 0.0, "higher_p": x}
        for x in (12.5, 25.0, 37.5, 50.0)
    ]


@pytest.mark.parametrize("tolerance", [-0.01, float("nan"), float("inf")])
def test_monotonicity_rejects_a_negative_or_non_finite_tolerance(tolerance):
    # at -0.01 tied-p pairs would count; at nan or inf nothing would
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
        monotonicity_check(anti_monotone_world(5), tolerance)


def test_monotonicity_refuses_a_bool_tolerance():
    # True would run at tolerance 1, and the anti-monotone world would pass
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0, got True"):
        monotonicity_check(anti_monotone_world(5), True)


def test_witnesses_and_count_match_brute_force_on_tied_worlds():
    """Two-group worlds on coarse p and s grids, so tied-p runs, tied scores
    and ties within the tolerance all occur."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rows = st.tuples(st.integers(0, 1), st.integers(0, 4), st.integers(0, 10))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.lists(rows, min_size=1, max_size=40),
                      st.sampled_from([0.0, 0.05, 0.2]))
    def check(cells, tol):
        group, p, s = (np.array(c) for c in zip(*cells))
        m = len(cells)
        w = FairWorld(x=np.arange(m, dtype=np.float64), group=group.astype(np.int8),
                      weight=np.full(m, 1.0 / m), fair_p=p / 4.0, score_s=s / 10.0)
        res = monotonicity_check(w, tol)
        want, count = [], 0
        for g in w.groups():
            mask = w.group == g
            fp, sc, keys = w.fair_p[mask], w.score_s[mask], w.x[mask].tolist()
            count += brute_exceeding_pairs(sc[np.lexsort((sc, fp))], tol)
            want += [{"group": w.name_of(g), "lower_p": lo, "higher_p": hi}
                     for lo, hi in brute_witnesses(fp, sc, keys, tol,
                                                   WITNESS_LIMIT - len(want))]
        assert res.violation_count == count
        assert res.witnesses == want
        assert res.holds == (count == 0)

    check()


# --- decomposition ------------------------------------------------------------------------

def test_decomposition_running_world_pinned_thresholds():
    w = wage_gap_world(501)
    res = decomposition_check(w, 0.5)
    assert res.decomposable
    assert res.thresholds["male"] == 0.5
    assert res.thresholds["female"] == 0.45


def test_decomposition_scaled_thresholds_across_taus():
    w = wage_gap_world(501)
    for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
        res = decomposition_check(w, tau)
        assert res.decomposable
        assert res.thresholds["male"] == tau
        assert res.thresholds["female"] == 0.9 * tau
        rebuilt = threshold_decision(
            w, "unfair", tau, per_group={0: res.thresholds["male"],
                                         1: res.thresholds["female"]})
        assert np.array_equal(rebuilt.astype(bool), w.fair_p > tau)


def test_decomposition_fails_on_anti_monotone_world():
    res = decomposition_check(anti_monotone_world(501), 0.5)
    assert not res.decomposable
    assert "female" in res.failed_groups
    assert res.thresholds["female"] is None


def test_decomposition_near_zero_tau():
    w = wage_gap_world(101)
    res = decomposition_check(w, 1e-9)
    assert res.decomposable
    assert res.thresholds["male"] == 0.0
    assert res.thresholds["female"] == 0.0


def test_decomposition_rejects_tau_outside_open_interval():
    w = wage_gap_world(11)
    for tau in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            decomposition_check(w, tau)


def test_decomposition_matches_brute_force_cutoff_search_on_tied_worlds():
    # few levels, zero included: ties across the cut, empty and full
    # selections and all-selected groups holding a zero score all occur
    rng = np.random.default_rng(29)
    levels = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    outcomes = set()
    for _ in range(500):
        m = int(rng.integers(1, 9))
        group = rng.integers(0, 2, size=m).astype(np.int8)
        w = FairWorld(x=np.arange(m, dtype=np.float64), group=group,
                      weight=np.full(m, 1.0 / m), fair_p=rng.choice(levels, size=m),
                      score_s=rng.choice(levels, size=m), group_names={0: "g0", 1: "g1"})
        tau = float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        res = decomposition_check(w, tau)
        for g in w.groups():
            s, sel = w.score_s[w.group == g], w.fair_p[w.group == g] > tau
            # brute force: some cutoff t in {0} and the group's scores gives s > t == sel
            cuts = [t for t in np.r_[0.0, np.unique(s)] if np.array_equal(s > t, sel)]
            got = res.thresholds[w.name_of(g)]
            assert (got is not None) == bool(cuts)
            assert (w.name_of(g) in res.failed_groups) == (not cuts)
            if cuts:  # the largest unselected score, or 0 when all are selected
                assert got == (0.0 if sel.all() else float(s[~sel].max()))
                assert np.array_equal(s > got, sel)
            outcomes.add((bool(cuts), bool(sel.any()), bool(sel.all())))
        assert res.decomposable == (not res.failed_groups)
    # every case of the old three-branch rule was reached, passing and failing
    assert outcomes >= {(True, False, False), (True, True, True), (False, True, True),
                        (True, True, False), (False, True, False)}


# --- the equivalence, both directions ----------------------------------------------------

def _random_world(rng, comonotone):
    sizes = rng.integers(5, 101, size=2)
    xs, gs, ps, ss = [], [], [], []
    pool = np.linspace(0.01, 0.99, 4001)
    for g, m in enumerate(sizes):
        p = np.sort(rng.choice(pool, size=m, replace=False))
        if comonotone:
            s = np.sort(rng.choice(pool, size=m, replace=False))  # same order as p
        else:
            s = rng.permutation(rng.choice(pool, size=m, replace=False))
        xs.append(np.arange(m, dtype=np.float64))
        gs.append(np.full(m, g, dtype=np.int8))
        ps.append(p)
        ss.append(s)
    weight = rng.uniform(0.5, 1.5, size=int(sizes.sum()))
    weight = weight / weight.sum()
    return FairWorld(
        x=np.concatenate(xs), group=np.concatenate(gs), weight=weight,
        fair_p=np.concatenate(ps), score_s=np.concatenate(ss),
        group_names={0: "g0", 1: "g1"},
    )


def test_monotonicity_equivalent_to_decomposability_everywhere():
    rng = np.random.default_rng(101)
    checked_holds = checked_fails = 0
    for trial in range(200):
        w = _random_world(rng, comonotone=trial % 2 == 0)
        mono = monotonicity_check(w)
        taus = np.unique(w.fair_p)
        all_decompose = all(
            decomposition_check(w, float(t)).decomposable for t in taus
        )
        assert mono.holds == all_decompose, f"trial {trial}"
        checked_holds += mono.holds
        checked_fails += not mono.holds
    assert checked_holds >= 50 and checked_fails >= 50  # both directions exercised


def test_violating_world_fails_at_a_witness_bracketing_tau():
    w = anti_monotone_world(101)
    res = monotonicity_check(w)
    assert not res.holds
    witness = res.witnesses[0]
    x_low = witness["lower_p"]
    mask = (w.group == 1) & (w.x == x_low)
    tau = float(w.fair_p[mask][0])
    if not 0.0 < tau < 1.0:
        tau = 0.5
    assert not decomposition_check(w, tau).decomposable


def test_fair_rates_monotone_in_tau():
    w = wage_gap_world(201)
    taus = np.linspace(0.05, 0.95, 19)
    tprs, tnrs = [], []
    for tau in taus:
        r = rates(w, threshold_decision(w, "fair", float(tau)), "fair")
        tprs.append(r.tpr)
        tnrs.append(r.tnr)
    assert (np.diff(tprs) <= 1e-12).all()
    assert (np.diff(tnrs) >= -1e-12).all()


def test_world_csv_round_trip(tmp_path):
    w = wage_gap_world(11)
    path = tmp_path / "world.csv"
    w.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,a,weight,fair_p,score_s"
    assert len(lines) == 1 + w.m
