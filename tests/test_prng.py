"""Counter-based draws: the hash against a SplitMix64 reference."""

import numpy as np
import pytest

from rankaudit import prng

from oracles import splitmix64


@pytest.mark.parametrize("seed", [0, 7, 2024, 2**64 - 1, -3])
@pytest.mark.parametrize("counter", [
    5,
    np.array([0, 1, 2, 2**31 - 1, -2**31], dtype=np.int32),
    np.array([-1, -2, -12345, -2**63, 2**63 - 1], dtype=np.int64),
    np.array([0, 2**63, 2**64 - 1], dtype=np.uint64),
], ids=["scalar", "int32", "negative-int64", "uint64"])
def test_hash64_is_splitmix64(seed, counter):
    """hash64 works in place on its own copy: it equals the reference and
    leaves the caller's counter array as it was."""
    before = np.array(counter, copy=True)
    want = [splitmix64(seed, int(c)) for c in np.atleast_1d(counter)]
    assert prng.hash64(seed, counter).tolist() == want
    assert np.array_equal(counter, before) and np.asarray(counter).dtype == before.dtype
