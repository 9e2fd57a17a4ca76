import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matprod import experiments as E
from matprod.rng import RngStream, as_generator, philox_generator, philox_keys

# each path the runners derive streams from, without its last index: every
# experiment's chunk and reference streams and the factorization checks' (at
# d = 4, their 4-word path); then a path word of two uint32 words, and the empty path
RUNNER_PATHS = [(E._EXP_EQUALITY, 0), (E._EXP_EQUALITY, 1), (E._EXP_FLUCT, 0), (E._EXP_FLUCT, 1),
                (E._EXP_REALPROB, 1), (E._EXP_LYAPUNOV, 0), (E._EXP_LYAPUNOV, 1), (E._EXP_MINOR, 1),
                (E._EXP_FACTOR, 1), (E._EXP_FACTOR, 2, 4), (E._EXP_FACTOR, 3)]
PATHS = RUNNER_PATHS + [(5, 2**33), ()]
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1] + [int(s) for s in np.random.default_rng(2027).integers(0, 2**63, 4)]
# the last two are two uint32 words
INDICES = [0, 255, 3906, 2**32 - 1, 2**32, 2**40]


def seed_sequence_key(seed, path, index):
    return np.random.SeedSequence(seed, spawn_key=tuple(path) + (index,)).generate_state(2, np.uint64)


def same_state(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def test_identical_seed_path_bit_identical():
    a = RngStream(123, (4, 5)).generator().standard_normal(1000)
    b = RngStream(123, (4, 5)).generator().standard_normal(1000)
    assert np.array_equal(a, b)


def test_distinct_paths_differ():
    a = RngStream(123).derive(0).generator().standard_normal(100)
    b = RngStream(123).derive(1).generator().standard_normal(100)
    c = RngStream(124).derive(0).generator().standard_normal(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_appends_path():
    s = RngStream(7).derive(1, 2).derive(3)
    assert s.path == (1, 2, 3)
    assert s.seed == 7


def test_derived_streams_uncorrelated():
    base = RngStream(99)
    x = base.derive(0).generator().standard_normal(200_000)
    y = base.derive(1).generator().standard_normal(200_000)
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 3 / np.sqrt(len(x))


def test_seed_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2**64)
    with pytest.raises(ValueError):
        RngStream(1, (-2,))


def test_as_generator_accepts_both():
    s = RngStream(5)
    gen = s.generator()
    assert as_generator(gen) is gen
    assert isinstance(as_generator(s), np.random.Generator)
    with pytest.raises(TypeError):
        as_generator(42)


def test_generator_restarts_at_origin():
    s = RngStream(11, (3,))
    first = s.generator().standard_normal(10)
    again = s.generator().standard_normal(10)
    assert np.array_equal(first, again)


@pytest.mark.parametrize("path", PATHS, ids=str)
def test_philox_keys_match_seed_sequence(path):
    for seed in SEEDS:
        stream = RngStream(seed, path)
        keys = philox_keys(stream, INDICES)
        assert keys.dtype == np.uint64 and keys.shape == (len(INDICES), 2)
        for key, index in zip(keys, INDICES):
            np.testing.assert_array_equal(key, seed_sequence_key(seed, path, index))
            # a lone index takes numpy's own SeedSequence
            np.testing.assert_array_equal(philox_keys(stream, [index])[0], key)
    assert philox_keys(RngStream(1, (3, 1)), []).shape == (0, 2)
    with pytest.raises(ValueError):
        philox_keys(RngStream(1, (3, 1)), [0, -1])


@pytest.mark.parametrize("path", [(3, 1), (5, 1), (4, 2, 4, 3), ()], ids=str)
def test_philox_generator_draws_as_the_stream_generator(path):
    for seed in SEEDS:
        stream = RngStream(seed, path)
        for key, index in zip(philox_keys(stream, INDICES), INDICES):
            got, want = philox_generator(key), stream.derive(index).generator()
            for draw in (lambda g: g.standard_normal(7), lambda g: g.random(3),
                         lambda g: g.chisquare(3.0, 5), lambda g: g.lognormal(0.0, 1.0, 5)):
                np.testing.assert_array_equal(draw(got), draw(want))
            assert same_state(got.bit_generator.state, want.bit_generator.state)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 2**70), max_size=5),
       st.lists(st.integers(0, 2**34), min_size=1, max_size=6))
def test_philox_keys_match_seed_sequence_everywhere(seed, path, indices):
    keys = philox_keys(RngStream(seed, tuple(path)), indices)
    np.testing.assert_array_equal(keys, [seed_sequence_key(seed, path, i) for i in indices])
