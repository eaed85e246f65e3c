import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmon.diffusion import (
    BehaviorParams,
    DeltaDistribution,
    delta_distribution,
    effective_repost_prob,
    sample_delta,
    transition_probability,
)

from _oracles import delta_probs


def const_params(p_like, p_repost, **kw):
    return BehaviorParams.constant(p_s=0.0, e0=1, p_like=p_like, p_repost=p_repost, **kw)


class TestDeltaDistribution:
    def test_symmetric_half_probs(self):
        d = delta_distribution(1, const_params(0.5, 0.5))
        assert d.p_plus2 == pytest.approx(0.25)
        assert d.p_plus1 == pytest.approx(0.25)
        assert d.p_zero == pytest.approx(0.25)
        assert d.p_minus1 == pytest.approx(0.25)

    def test_certain_like_and_repost(self):
        d = delta_distribution(1, const_params(1.0, 1.0))
        assert (d.p_plus2, d.p_plus1, d.p_zero, d.p_minus1) == (1.0, 0.0, 0.0, 0.0)

    def test_link_boost_doubles_repost_prob(self):
        params = const_params(0.2, 0.4, link_boost=2.0)
        d = delta_distribution(3, params, has_link=True)
        assert d.p_plus2 == pytest.approx(0.16)
        assert d.p_plus1 == pytest.approx(0.64)
        assert d.p_zero == pytest.approx(0.04)
        assert d.p_minus1 == pytest.approx(0.16)

    def test_boost_ignored_without_link(self):
        params = const_params(0.2, 0.4, link_boost=2.0)
        d = delta_distribution(3, params, has_link=False)
        assert d.p_plus1 == pytest.approx((1 - 0.2) * 0.4)

    def test_boosted_prob_clamped_to_one(self):
        params = const_params(0.5, 0.9, link_boost=5.0)
        assert effective_repost_prob(1, params, has_link=True) == 1.0

    def test_rich_get_richer_term(self):
        params = const_params(0.5, 0.1, link_boost=2.0, rich_get_richer_gamma=0.5)
        # 2 * 0.1 * (1 + 0.5*3) = 0.5
        assert effective_repost_prob(1, params, True, reposts_spawned=3) == pytest.approx(0.5)
        # gamma only applies to link carriers
        assert effective_repost_prob(1, params, False, reposts_spawned=3) == pytest.approx(0.1)

    def test_dead_agent_has_no_distribution(self):
        with pytest.raises(ValueError):
            delta_distribution(0, const_params(0.5, 0.5))
        with pytest.raises(ValueError):
            delta_distribution(-2, const_params(0.5, 0.5))

    def test_matches_product_form_oracle(self):
        for p_like, p_repost in [(0.1, 0.9), (0.33, 0.41), (0.0, 1.0)]:
            d = delta_distribution(5, const_params(p_like, p_repost))
            expected = delta_probs(p_like, p_repost)
            assert d.p_plus2 == pytest.approx(expected[2])
            assert d.p_plus1 == pytest.approx(expected[1])
            assert d.p_zero == pytest.approx(expected[0])
            assert d.p_minus1 == pytest.approx(expected[-1])

    @given(
        p_like=st.floats(0.0, 1.0),
        p_repost=st.floats(0.0, 1.0),
        energy=st.integers(1, 500),
        boost=st.floats(1.0, 10.0),
        gamma=st.floats(0.0, 2.0),
        n_reposts=st.integers(0, 50),
        has_link=st.booleans(),
    )
    @settings(max_examples=200)
    def test_probs_nonnegative_and_sum_to_one(
        self, p_like, p_repost, energy, boost, gamma, n_reposts, has_link
    ):
        params = const_params(
            p_like, p_repost, link_boost=boost, rich_get_richer_gamma=gamma
        )
        d = delta_distribution(energy, params, has_link, n_reposts)
        for p in (d.p_plus2, d.p_plus1, d.p_zero, d.p_minus1):
            assert 0.0 <= p <= 1.0
        assert d.p_plus2 + d.p_plus1 + d.p_zero + d.p_minus1 == pytest.approx(1.0, abs=1e-12)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            DeltaDistribution(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            DeltaDistribution(1.2, -0.2, 0.0, 0.0)


class TestTransitionProbability:
    def test_zero_state_is_absorbing(self):
        params = const_params(0.5, 0.5)
        assert transition_probability(0, 0, params) == 1.0
        assert transition_probability(0, 1, params) == 0.0
        for j in range(1, 10):
            assert transition_probability(0, j, params) == 0.0

    def test_unreachable_jump(self):
        assert transition_probability(2, 5, const_params(0.5, 0.5)) == 0.0
        assert transition_probability(5, 3, const_params(0.5, 0.5)) == 0.0

    def test_rows_are_stochastic(self):
        params = const_params(0.37, 0.61)
        for i in range(0, 101):
            total = sum(transition_probability(i, j, params) for j in range(0, 104))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_delta_distribution(self):
        params = const_params(0.3, 0.2)
        d = delta_distribution(4, params)
        assert transition_probability(4, 6, params) == d.p_plus2
        assert transition_probability(4, 5, params) == d.p_plus1
        assert transition_probability(4, 4, params) == d.p_zero
        assert transition_probability(4, 3, params) == d.p_minus1


class TestSampleDelta:
    def test_degenerate_distributions(self):
        rng = random.Random(1)
        assert sample_delta(DeltaDistribution(1.0, 0.0, 0.0, 0.0), rng) == 2
        assert sample_delta(DeltaDistribution(0.0, 0.0, 0.0, 1.0), rng) == -1
        assert sample_delta(DeltaDistribution(0.0, 1.0, 0.0, 0.0), rng) == 1
        assert sample_delta(DeltaDistribution(0.0, 0.0, 1.0, 0.0), rng) == 0

    def test_consumes_exactly_one_draw(self):
        dist = DeltaDistribution(0.25, 0.25, 0.25, 0.25)
        rng_a = random.Random(7)
        rng_b = random.Random(7)
        sample_delta(dist, rng_a)
        rng_b.random()
        assert rng_a.getstate() == rng_b.getstate()

    def test_same_stream_state_same_result(self):
        dist = DeltaDistribution(0.1, 0.2, 0.3, 0.4)
        rng = random.Random(13)
        state = rng.getstate()
        first = sample_delta(dist, rng)
        rng.setstate(state)
        assert sample_delta(dist, rng) == first

    def test_uniform_frequencies(self):
        dist = DeltaDistribution(0.25, 0.25, 0.25, 0.25)
        rng = random.Random(20160501)
        n = 10**6
        counts = {2: 0, 1: 0, 0: 0, -1: 0}
        for _ in range(n):
            counts[sample_delta(dist, rng)] += 1
        for delta in (-1, 0, 1, 2):
            assert counts[delta] / n == pytest.approx(0.25, abs=0.002)


class TestMarkovProperty:
    def test_replay_from_midpoint_gives_identical_suffix(self):
        params = const_params(0.4, 0.35)
        rng = random.Random(99)
        energy = 5
        walk = [energy]
        states = []
        for _ in range(200):
            if energy == 0:
                break
            states.append(rng.getstate())
            energy += sample_delta(delta_distribution(energy, params), rng)
            walk.append(energy)
        assert len(walk) > 20
        mid = len(states) // 2
        replay_rng = random.Random()
        replay_rng.setstate(states[mid])
        energy = walk[mid]
        for expected in walk[mid + 1 :]:
            energy += sample_delta(delta_distribution(energy, params), replay_rng)
            assert energy == expected


class TestParams:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            BehaviorParams.constant(p_s=1.5, e0=1, p_like=0.5, p_repost=0.5)
        with pytest.raises(ValueError):
            BehaviorParams.constant(p_s=0.5, e0=0, p_like=0.5, p_repost=0.5)
        with pytest.raises(ValueError):
            BehaviorParams.constant(p_s=0.5, e0=1, p_like=0.5, p_repost=0.5, link_boost=0.5)
        with pytest.raises(ValueError):
            BehaviorParams.constant(
                p_s=0.5, e0=1, p_like=0.5, p_repost=0.5, rich_get_richer_gamma=-1.0
            )
