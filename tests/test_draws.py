"""The sweeps' trial draws: one SeedSequence hash per cell must give every
trial the bits of its own SeedSequence(seed, spawn_key=(li, di, t)) PCG64
stream.  Run alone at the oldest supported numpy, too."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from collardiff.errors import ValidationError
from collardiff.sweeps import _pcg64_states, draw_coefficients

EDGE_SEEDS = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1)


def _per_trial(seed, li, di, trial):
    return np.random.SeedSequence(seed, spawn_key=(li, di, trial))


seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2 ** 64 - 1))
# up to 2**33: spawn words of one and of two uint32 words
indices = st.one_of(st.integers(0, 40), st.integers(0, 2 ** 33))


@given(seed=seeds, li=indices, di=indices, trials=st.integers(1, 130),
       count=st.integers(1, 128))
@example(seed=0, li=0, di=0, trials=1, count=1)
@example(seed=2 ** 32 - 1, li=2 ** 32, di=1, trials=3, count=2)
@example(seed=2 ** 32, li=1, di=2 ** 33, trials=2, count=5)
@example(seed=2 ** 64 - 1, li=24, di=15, trials=130, count=128)
def test_cell_draws_are_the_per_trial_streams(seed, li, di, trials, count):
    got = draw_coefficients(seed, li, di, trials, count)
    want = np.stack([np.random.default_rng(_per_trial(seed, li, di, t))
                     .standard_normal(2 * count).view(complex)
                     for t in range(trials)])
    assert got.shape == (trials, count)
    assert got.tobytes() == want.tobytes()


@given(seed=seeds, li=indices, di=indices, trials=st.integers(1, 70))
def test_cell_seeding_is_the_per_trial_generator_state(seed, li, di, trials):
    # the whole PCG64 state, has_uint32 and uinteger included, so that a
    # generator re-seeded from it is one made from the SeedSequence
    want = [np.random.PCG64(_per_trial(seed, li, di, t)).state
            for t in range(trials)]
    assert _pcg64_states(seed, li, di, trials) == want


def test_draws_reject_words_the_hash_cannot_take():
    # a trial index of two words would need a second tail pass: refuse it
    # before anything is drawn or allocated
    with pytest.raises(ValidationError):
        draw_coefficients(0, 0, 0, 2 ** 32 + 1, 1)
    with pytest.raises(ValidationError):
        draw_coefficients(-1, 0, 0, 1, 1)
    with pytest.raises(ValidationError):
        draw_coefficients(0, 0, -1, 1, 1)
    # no trials, no draws
    assert len(_pcg64_states(5, 1, 2, 0)) == 0
    assert draw_coefficients(5, 1, 2, 0, 3).shape == (0, 3)
