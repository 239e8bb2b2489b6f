"""Property: batched RNG draws match scalar draws element-for-element.

This is the invariant that lets the channel loss models consume their
streams through pre-drawn blocks (see ``repro.simulator.channel``)
without perturbing a single loss decision: ``random_block(n)`` must
yield exactly the values ``n`` successive ``random()`` calls would,
``lognormal_block`` (the per-packet jitter) must replicate the scalar
rejection loop bit for bit, and the loss models' buffered consumption
must reproduce the scalar draw sequence.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import RngStream

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=0, max_value=300)


class TestRandomBlock:
    @given(seed=seeds, n=sizes)
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_element_for_element(self, seed, n):
        scalar = RngStream(seed)
        batched = RngStream(seed)
        assert list(batched.random_block(n)) == [scalar.random() for _ in range(n)]

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_stream_position_identical_afterwards(self, seed):
        scalar = RngStream(seed)
        batched = RngStream(seed)
        for _ in range(7):
            scalar.random()
        batched.random_block(7)
        assert scalar.random() == batched.random()

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1).random_block(-1)


class TestLognormalBlock:
    @given(
        seed=seeds,
        n=sizes,
        mu=st.floats(min_value=-5.0, max_value=5.0),
        sigma=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_bit_identical_to_scalar(self, seed, n, mu, sigma):
        scalar = RngStream(seed)
        batched = RngStream(seed)
        expected = [scalar.lognormal(mu, sigma) for _ in range(n)]
        assert list(batched.lognormal_block(mu, sigma, n)) == expected

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_stream_position_identical_afterwards(self, seed):
        scalar = RngStream(seed)
        batched = RngStream(seed)
        for _ in range(9):
            scalar.lognormal(-3.5, 1.0)
        batched.lognormal_block(-3.5, 1.0, 9)
        assert scalar.random() == batched.random()

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1).lognormal_block(0.0, 1.0, -1)


class TestBufferedLossEquivalence:
    """The channel models' block-buffered consumption must reproduce
    the scalar draw sequence decision-for-decision."""

    @given(seed=seeds, rate=st.floats(min_value=0.0, max_value=0.9))
    @settings(max_examples=25, deadline=None)
    def test_bernoulli_loss_matches_scalar_stream(self, seed, rate):
        from repro.simulator.channel import BernoulliLoss

        model = BernoulliLoss(rate, RngStream(seed))
        scalar = RngStream(seed)
        for step in range(500):
            assert model.is_lost(step * 0.01) == scalar.bernoulli(rate)

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_gilbert_elliott_matches_scalar_replica(self, seed):
        from repro.simulator.channel import GilbertElliottLoss

        model = GilbertElliottLoss(
            RngStream(seed),
            mean_good_duration=0.5,
            mean_bad_duration=0.1,
            loss_good=0.01,
            loss_bad=0.8,
        )
        # Scalar replica of the same process, driven off an identical
        # stream with the pre-optimization scalar calls.
        rng = RngStream(seed)
        in_bad = False
        expires = rng.expovariate(1.0 / 0.5)
        for step in range(500):
            now = step * 0.01
            while now >= expires:
                in_bad = not in_bad
                expires += rng.expovariate(1.0 / (0.1 if in_bad else 0.5))
            expected = rng.bernoulli(0.8 if in_bad else 0.01)
            assert model.is_lost(now) == expected
