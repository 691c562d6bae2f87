"""Named substream derivation."""

import numpy as np
import pytest

from conftest import reseed
from qaoabench.seeding import (STREAM_VERSION, derive_seed, point,
                               seed_sequence, stream_keys, stream_rng)


def test_same_path_same_stream():
    a = stream_rng(7, "episode", 3).random(5)
    b = stream_rng(7, "episode", 3).random(5)
    np.testing.assert_array_equal(a, b)


def test_distinct_paths_distinct_streams():
    draws = {
        "base": tuple(stream_rng(7, "episode", 3).random(3)),
        "other-label": tuple(stream_rng(7, "episodes", 3).random(3)),
        "other-index": tuple(stream_rng(7, "episode", 4).random(3)),
        "other-root": tuple(stream_rng(8, "episode", 3).random(3)),
        "nested": tuple(stream_rng(7, "episode", 3, 0).random(3)),
    }
    assert len(set(draws.values())) == len(draws)


def test_path_elements_do_not_collide_when_joined():
    # ("ab", "c") and ("a", "bc") must not map to the same stream
    a = stream_rng(1, "ab", "c").random(3)
    b = stream_rng(1, "a", "bc").random(3)
    assert not np.array_equal(a, b)


def test_derive_seed_stable_and_nonnegative():
    s = derive_seed(42, "bench")
    assert s == derive_seed(42, "bench")
    assert 0 <= s < 2**63
    assert s != derive_seed(42, "bench", 0)


def test_seed_sequence_spawns_generator():
    seq = seed_sequence(0, "x")
    rng = np.random.default_rng(seq)
    assert rng.random() == np.random.default_rng(seed_sequence(0, "x")).random()


def test_stream_version_pinned():
    # changing the derivation scheme must be an explicit, versioned decision
    assert STREAM_VERSION == "qaoabench.philox.sha256.v1"


def test_streams_pinned_to_literal_draws():
    # recorded when the entropy was still passed as a list of Python ints;
    # any faster derivation must reproduce them bit for bit
    assert stream_rng(0, "shots").random(3).tolist() == [
        0.056193931920701434, 0.9742714666303143, 0.828552215559272]
    assert stream_rng(7, "bench", "L-n4", 1, "nm", 3).integers(
        0, 2**32, 4).tolist() == [1493682922, 1261446974, 4294105368,
                                  1936669887]
    assert stream_rng(123456789, "landscape", 3, 5).normal(size=2).tolist() \
        == [-0.49985258453341536, -1.0742970678163724]
    assert seed_sequence(42, "episode", 3).generate_state(4).tolist() == [
        2873017895, 543599135, 2633153182, 1705930799]
    assert derive_seed(42, "bench") == 428562869691680205
    assert derive_seed(7, "bench", "L-n4", 1, "nm", 3) == 8348866121812021824
    assert derive_seed(0, "norm", 2) == 2251543623465876587


def test_reseed_draws_like_a_fresh_stream():
    # the objective re-points one generator per evaluation; its first
    # draws must be those of the stream it stands for
    rng = np.random.Generator(np.random.Philox(0))
    rng.random(7)                       # a used generator, mid-buffer
    for root, path in ((0, ("metered", 0)), (9, ("metered", 191)),
                       (2**40 + 3, ("landscape", 3, 5)), (7, ())):
        fresh = stream_rng(root, *path)
        assert reseed(rng, root, *path) is rng
        assert rng.random() == fresh.random()
        assert rng.multinomial(1000, [0.2, 0.5, 0.3]).tolist() == \
            fresh.multinomial(1000, [0.2, 0.5, 0.3]).tolist()
        assert rng.integers(0, 2**32, 3).tolist() == \
            fresh.integers(0, 2**32, 3).tolist()


@pytest.mark.parametrize("root", [0, 7, 2**40 + 3, 2**63 - 1])
@pytest.mark.parametrize("path", [(), ("metered",), ("landscape", 3)])
def test_stream_keys_are_numpys_seed_sequence_keys(root, path):
    # the vectorized mixing must reproduce SeedSequence word for word
    for count in (0, 1, 200):
        keys = stream_keys(root, path, count)
        assert keys.shape == (count, 2) and keys.dtype == np.uint64
        for i, key in enumerate(keys):
            np.testing.assert_array_equal(
                key, seed_sequence(root, *path, i).generate_state(4).view(
                    "<u8"))


def test_a_pointed_generator_draws_its_stream():
    rng = np.random.Generator(np.random.Philox(0))
    rng.random(3)
    for i, key in enumerate(stream_keys(11, ("metered",), 4)):
        assert point(rng, key) is rng
        assert rng.random(5).tolist() == \
            stream_rng(11, "metered", i).random(5).tolist()
