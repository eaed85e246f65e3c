import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmon.diffusion import (
    BehaviorParams,
    effective_repost_prob,
    repost_probs,
    step_thresholds,
)
from netmon.simulator import (
    EVENT_DEATH,
    SimulationConfig,
    _draw_words,
    _StepTables,
    _uniforms,
    run_simulation,
)

from _oracles import delta_probs


def const_params(p_like, p_repost, **kw):
    return BehaviorParams.constant(p_s=0.0, e0=1, p_like=p_like, p_repost=p_repost, **kw)


def row(thresholds):
    """The step probabilities (+2, +1, 0, -1) that thresholds (c2, c21, c210) encode."""
    c2, c21, c210 = thresholds
    return c2, c21 - c2, c210 - c21, 1 - c210


def table_rows(params, top):
    """The engine's step-table rows for energies 1..top."""
    tables = _StepTables(params, horizon=top)
    tables.cover(top)
    assert tables.low == 1
    return np.column_stack(row((tables.c2[:top], tables.c21[:top], tables.c210[:top])))


def engine_deltas(params, energy, u, linked=None, reposts=None):
    """The energy moves the engine makes from draws ``u`` at ``energy``."""
    tables = _StepTables(params, horizon=energy)
    tables.cover(energy)
    both, reposted, kept = tables.outcomes(u, np.full(len(u), energy, dtype=np.int32),
                                           linked, reposts)
    # the engine adds the three masks and subtracts 1
    return both.astype(int) + reposted + kept - 1


class TestDeltaDistribution:
    def test_symmetric_half_probs(self):
        assert row(step_thresholds(0.5, 0.5)) == pytest.approx((0.25, 0.25, 0.25, 0.25))

    def test_certain_like_and_repost(self):
        assert row(step_thresholds(1.0, 1.0)) == (1.0, 0.0, 0.0, 0.0)

    def test_link_boost_doubles_repost_prob(self):
        params = const_params(0.2, 0.4, link_boost=2.0)
        p_repost = repost_probs(effective_repost_prob(3, params), params, True, 0)
        assert row(step_thresholds(0.2, p_repost)) == pytest.approx((0.16, 0.64, 0.04, 0.16))

    def test_boost_ignored_without_link(self):
        params = const_params(0.2, 0.4, link_boost=2.0)
        p_repost = repost_probs(effective_repost_prob(3, params), params, False, 0)
        assert row(step_thresholds(0.2, p_repost))[1] == pytest.approx((1 - 0.2) * 0.4)

    def test_boosted_prob_clamped_to_one(self):
        params = const_params(0.5, 0.9, link_boost=5.0)
        assert repost_probs(effective_repost_prob(1, params), params, True, 0) == 1.0

    def test_rich_get_richer_term(self):
        params = const_params(0.5, 0.1, link_boost=2.0, rich_get_richer_gamma=0.5)
        # 2 * 0.1 * (1 + 0.5*3) = 0.5; gamma only applies to link carriers
        p = repost_probs(0.1, params, np.array([True, False]), np.array([3, 3]))
        assert p == pytest.approx([0.5, 0.1])

    def test_dead_agent_has_no_distribution(self):
        # An agent loses at most 1 per tick, so the tables start at
        # max(1, e0 - horizon) and hold no row for energy 0 or below.
        for e0, horizon in [(1, 1), (1, 50), (3, 2), (3, 3), (3, 10), (10, 4)]:
            params = BehaviorParams.constant(p_s=0.0, e0=e0, p_like=0.5, p_repost=0.5)
            assert _StepTables(params, horizon).low == max(1, e0 - horizon) >= 1

    def test_matches_product_form_oracle(self):
        for p_like, p_repost in [(0.1, 0.9), (0.33, 0.41), (0.0, 1.0)]:
            params = const_params(p_like, p_repost)
            got = row(step_thresholds(params.p_like, effective_repost_prob(5, params)))
            expected = delta_probs(p_like, p_repost)
            assert got == pytest.approx(tuple(expected[d] for d in (2, 1, 0, -1)))

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
        p = repost_probs(effective_repost_prob(energy, params), params, has_link, n_reposts)
        probs = row(step_thresholds(params.p_like, p))
        for q in probs:
            assert 0.0 <= q <= 1.0
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            const_params(1.2, 0.5)
        with pytest.raises(ValueError):
            const_params(0.5, -0.2)
        # Probabilities out of [0, 1], a float or a table's last value
        # holding above its end, are clamped before use.
        params = BehaviorParams(p_s=0.0, e0=1, p_like=1.5, p_repost=[0.5, -0.2])
        assert params.p_repost == (0.5, -0.2)
        assert table_rows(params, 4).tolist() == [
            [0.5, 0.0, 0.5, 0.0], *[[0.0, 0.0, 1.0, 0.0]] * 3]


class TestTransitionProbability:
    def test_zero_state_is_absorbing(self):
        # An agent whose energy reaches 0 takes no further step.
        params = BehaviorParams.constant(p_s=0.3, e0=2, p_like=0.35, p_repost=0.12)
        result = run_simulation(SimulationConfig(params, horizon=40, seed=3), runs=50)
        deaths = 0
        for events in result.events.runs():
            dead = set()
            for _, kind, agent_id, _ in events:
                assert agent_id not in dead
                if kind == EVENT_DEATH:
                    dead.add(agent_id)
            deaths += len(dead)
        assert deaths > 100

    def test_unreachable_jump(self):
        # The masks nest (u < c2 implies u < c21 implies u < c210), so a
        # draw makes exactly one of the moves -1, 0, +1, +2.
        u = _uniforms(_draw_words(random.Random(5), 10_000))
        for energy in (2, 5):
            deltas = engine_deltas(const_params(0.5, 0.5), energy, u)
            assert set(deltas.tolist()) == {-1, 0, 1, 2}

    def test_rows_are_stochastic(self):
        rows = table_rows(const_params(0.37, 0.61), 100)
        assert (rows >= 0.0).all()
        assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12

    def test_matches_delta_distribution(self):
        params = const_params(0.3, 0.2)
        rows = table_rows(params, 4)
        assert tuple(rows[3]) == row(step_thresholds(0.3, 0.2))
        expected = delta_probs(0.3, 0.2)
        assert tuple(rows[3]) == pytest.approx(tuple(expected[d] for d in (2, 1, 0, -1)))


class TestSampleDelta:
    """The engine's draw: one uniform compared against the step thresholds."""

    def test_degenerate_distributions(self):
        # the extremes random() can return, then a stream of draws
        u = np.concatenate(([0.0, 1.0 - 2.0**-53],
                            _uniforms(_draw_words(random.Random(1), 1000))))
        for p_like, p_repost, delta in [(1.0, 1.0, 2), (0.0, 0.0, -1), (0.0, 1.0, 1),
                                        (1.0, 0.0, 0)]:
            assert set(engine_deltas(const_params(p_like, p_repost), 3, u).tolist()) == {delta}

    def test_uniform_frequencies(self):
        n = 10**6
        u = _uniforms(_draw_words(random.Random(20160501), n))
        counts = np.bincount(engine_deltas(const_params(0.5, 0.5), 1, u) + 1, minlength=4)
        for freq in counts / n:
            assert freq == pytest.approx(0.25, abs=0.002)


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
        # A non-finite boost or gamma would give NaN thresholds, or inf * 0.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="link_boost"):
                BehaviorParams.constant(p_s=0.5, e0=1, p_like=0.5, p_repost=0.5, link_boost=bad)
            with pytest.raises(ValueError, match="rich_get_richer_gamma"):
                BehaviorParams.constant(
                    p_s=0.5, e0=1, p_like=0.5, p_repost=0.5, rich_get_richer_gamma=bad
                )

    def test_integer_too_large_for_a_float_is_a_value_error(self):
        # math.isfinite would raise OverflowError converting it.
        for field in ("link_boost", "rich_get_richer_gamma"):
            with pytest.raises(ValueError, match=field):
                BehaviorParams.constant(p_s=0.5, e0=1, p_like=0.5, p_repost=0.5,
                                        **{field: 10**400})
