"""Deterministic counter-based random draws (SplitMix64 hashing).

Every stochastic step in the package derives its draws from hashes of
(seed, counter) pairs instead of a stateful generator, so results never
depend on call order, platform, or numpy generator internals.  Re-running
with the same seeds reproduces every artifact bit for bit.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on z (a uint64 array), which it returns."""
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def _hash_in_place(seed: int, z: np.ndarray) -> np.ndarray:
    """hash64(seed, z), written over z (a uint64 array), which it returns."""
    z += np.uint64(1)
    z *= _GOLDEN
    z += _mix(np.full(1, seed & _MASK, dtype=np.uint64))
    return _mix(_mix(z))


def hash64(seed: int, counter) -> np.ndarray:
    """Hash (seed, counter) to uint64. counter may be a scalar or an array;
    the hash is made in a fresh array, so an array counter is left as it is."""
    z = np.atleast_1d(np.asarray(counter)).astype(np.int64, copy=False).astype(np.uint64)
    return _hash_in_place(seed, z)


def derive(seed: int, tag: int) -> int:
    """Derive an independent stream seed from (seed, tag)."""
    return int(hash64(seed, np.asarray([tag]))[0])


def uniform01(seed: int, counter) -> np.ndarray:
    """Uniforms in [0, 1), one per counter, keyed by (seed, counter)."""
    return (hash64(seed, counter) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def permutation(seed: int, n: int) -> np.ndarray:
    """Deterministic permutation of range(n): argsort of per-index hashes.
    hash64 is a bijection of the counter mod 2**64 (adding a constant, odd
    multiplies and xorshifts each are), so the keys are distinct and any
    sort, stable or not, gives the same permutation.  The keys are hashed
    in place over one counter array."""
    return np.argsort(_hash_in_place(seed, np.arange(n, dtype=np.uint64)))


def normal(seed: int, n: int) -> np.ndarray:
    """n standard normals via Box-Muller on counter-based uniforms."""
    c = np.arange(n, dtype=np.int64)
    u1 = (hash64(seed, 2 * c) >> np.uint64(11)).astype(np.float64)
    u1 = (u1 + 0.5) * 2.0**-53  # keep strictly inside (0, 1)
    u2 = uniform01(seed, 2 * c + 1)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
