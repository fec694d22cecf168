"""Brute-force reference implementations the fast paths are held to.

The rank metrics here are O(n^2) pair enumeration, kept deliberately
independent of the library's rank-based algorithms; the hash is SplitMix64
in Python ints, independent of numpy's uint64 arithmetic.
"""

import math

import numpy as np


def brute_tau(x, y, variant="tau-b"):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    prod = dx * dy
    conc = int(((prod > 0) & upper).sum())
    disc = int(((prod < 0) & upper).sum())
    ties_x = int(((dx == 0) & upper).sum())
    ties_y = int(((dy == 0) & upper).sum())
    ties_both = int(((dx == 0) & (dy == 0) & upper).sum())
    n0 = n * (n - 1) // 2
    if variant == "tau-a":
        return float(conc - disc) / float(n0)
    denom = math.sqrt(float(n0 - ties_x) * float(n0 - ties_y))
    if denom == 0.0:
        return float("nan")
    return float(conc - disc) / denom


def brute_auc(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (float(wins) + 0.5 * float(ties)) / (len(pos) * len(neg))


def brute_inversions(seq):
    seq = np.asarray(seq)
    n = len(seq)
    return int(sum(seq[i] > seq[j] for i in range(n) for j in range(i + 1, n)))


def brute_exceeding_pairs(seq, tol):
    seq = np.asarray(seq, dtype=np.float64)
    n = len(seq)
    return int(sum(seq[i] > seq[j] + tol
                   for i in range(n) for j in range(i + 1, n)))


def group_threshold_labels(s, ids, prot, t_protected, t_privileged, rate):
    """Per group, label score > t_g, then fill boundary ties (score == t_g)
    by ascending id up to ceil(rate * n_g)."""
    labels = np.zeros(len(s), dtype=bool)
    for m, t in ((prot, t_protected), (~prot, t_privileged)):
        chosen = s[m] > t
        short = min(len(chosen), math.ceil(rate * len(chosen) - 1e-9)) - int(chosen.sum())
        if short > 0:
            chosen |= np.isin(ids[m], np.sort(ids[m][s[m] == t])[:short])
        labels[m] = chosen
    return labels


def brute_witnesses(p, s, keys, tol, limit):
    """Up to limit (lower-p key, higher-p key) pairs of one group, straight
    from the definition: for each row in (p, s) order, the first row holding
    the highest score among rows of strictly lower p, kept when that score
    exceeds the row's own score by more than tol."""
    order = sorted(range(len(p)), key=lambda i: (p[i], s[i]))  # stable on ties
    pairs = []
    for j in order:
        lower = [i for i in order if p[i] < p[j]]
        if len(pairs) < limit and lower:
            top = max(s[i] for i in lower)
            first = next(i for i in lower if s[i] == top)
            if top > s[j] + tol:
                pairs.append((keys[first], keys[j]))
    return pairs


def reference_rates(q, weight, decision):
    """(tpr, tnr) of a decision, from whole-grid products: the formula as written."""
    dec = np.asarray(decision, dtype=np.float64)
    pos_mass = float((q * weight).sum())
    neg_mass = float(((1.0 - q) * weight).sum())
    tpr = float((dec * q * weight).sum()) / pos_mass
    tnr = float(((1.0 - dec) * (1.0 - q) * weight).sum()) / neg_mass
    return tpr, tnr


def reference_pareto(q, weight, decision, margin):
    """The whole-grid Pareto search: every top-k candidate's rates at once.

    Returns (maximal, decision rates, dominating labels or None, their
    rates or None); the first dominating k in (q desc, position asc) wins.
    """
    tpr, tnr = reference_rates(q, weight, decision)
    pos_mass = float((q * weight).sum())
    neg_mass = float(((1.0 - q) * weight).sum())
    order = np.argsort(-q, kind="stable")
    sel_pos = np.concatenate([[0.0], np.cumsum(q[order] * weight[order])])
    sel_neg = np.concatenate([[0.0], np.cumsum((1.0 - q[order]) * weight[order])])
    tpr_k = sel_pos / pos_mass
    tnr_k = (neg_mass - sel_neg) / neg_mass
    at_least = (tpr_k >= tpr - 1e-12) & (tnr_k >= tnr - 1e-12)
    strictly = (tpr_k > tpr + margin) | (tnr_k > tnr + margin)
    dominating = np.flatnonzero(at_least & strictly)
    if len(dominating) == 0:
        return True, (tpr, tnr), None, None
    k = int(dominating[0])
    labels = np.zeros(len(q), dtype=np.int8)
    labels[order[:k]] = 1
    return False, (tpr, tnr), labels, (float(tpr_k[k]), float(tnr_k[k]))


_MOD64 = 2**64


def _splitmix64_mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % _MOD64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % _MOD64
    return z ^ (z >> 31)


def splitmix64(seed, counter):
    """SplitMix64 hash of (seed, counter), both taken mod 2**64: the mixed
    seed plus (counter + 1) golden gammas, then mixed twice."""
    z = ((counter + 1) * 0x9E3779B97F4A7C15 + _splitmix64_mix(seed % _MOD64)) % _MOD64
    return _splitmix64_mix(_splitmix64_mix(z))
