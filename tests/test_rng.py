import numpy as np
import pytest

from oracles import splitmix64_ref

from firedet.rng import Rng


def test_reference_matches_published_splitmix64_vectors():
    assert splitmix64_ref(1234567, 3) == [6457827717110365317, 3203168211198807973,
                                          9817491932198370423]


def test_sequential_matches_block():
    for seed in (0, 42, 2**63 + 5, 2**64 - 1):
        want = splitmix64_ref(seed, 257)
        r1 = Rng(seed)
        seq = [int(r1._block(1)[0]) for _ in range(257)]
        r2 = Rng(seed)
        blk = list(r2._block(257))
        assert seq == blk == want
        bits = np.array(want, dtype=np.uint64) >> np.uint64(11)
        assert Rng(seed).uniform64(257, -3.0, 5.0).tobytes() == (-3.0 + 8.0 * (bits * 2.0 ** -53)).tobytes()
    long = (1 << 17) + 5  # spans several mixing passes
    assert Rng(7)._block(long).tolist() == splitmix64_ref(7, long)


def test_determinism_and_seed_sensitivity():
    a = Rng(7).uniform64(64)
    b = Rng(7).uniform64(64)
    c = Rng(8).uniform64(64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniform_bounds_and_spread():
    u = Rng(0).uniform64(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02
    lo, hi = -3.0, 5.0
    v = Rng(1).uniform64(10_000, lo, hi)
    assert v.min() >= lo and v.max() < hi
    assert abs(v.mean() - 1.0) < 0.1


def test_integers_cover_range():
    z = Rng(3).integers(5_000, 0, 7)
    assert set(np.unique(z)) == set(range(7))


def test_stream_continues_not_restarts():
    r = Rng(9)
    first = r.uniform64(4)
    second = r.uniform64(4)
    assert not np.array_equal(first, second)
    both = Rng(9).uniform64(8)
    assert np.array_equal(np.concatenate([first, second]), both)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7])
def test_seed_outside_64_bits_is_rejected_not_masked(seed):
    with pytest.raises(ValueError, match="seed"):
        Rng(seed)
