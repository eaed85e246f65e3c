"""Hypothesis strategies shared by several test modules."""

from hypothesis import strategies as st

# Arbitrary Unicode, lone surrogates included, with the characters that
# JSON escapes (quotes, backslashes, controls, non-ASCII, astral) made likely.
JSON_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\udfff\U0001f600 a')),
)

# netmon simulate config fields: self-generation on and off, links on and
# off, the link boost and rich-get-richer terms on and off, and max_agents
# truncation, down to a run halted at tick 0.  Short horizons keep every
# run small.
SIM_FIELDS = st.fixed_dictionaries({
    "p_s": st.sampled_from([0.0, 0.3]),
    "e0": st.integers(1, 4),
    "p_like": st.sampled_from([0.0, 0.3, 0.6]),
    "p_repost": st.sampled_from([0.0, 0.15, 0.35]),
    "link_carrier_fraction": st.sampled_from([0.0, 0.5, 1.0]),
    "link_boost": st.sampled_from([1.0, 1.5]),
    "rich_get_richer_gamma": st.sampled_from([0.0, 0.4]),
    "horizon": st.integers(1, 15),
    "max_agents": st.none() | st.integers(1, 40),
    "initial_agents": st.integers(1, 2),
})


def sim_config(fields: dict, seed: int):
    """The SimulationConfig of SIM_FIELDS ``fields`` and ``seed``."""
    from netmon.diffusion import BehaviorParams
    from netmon.simulator import SimulationConfig

    run_keys = ("horizon", "max_agents", "initial_agents")
    params = BehaviorParams.constant(**{k: v for k, v in fields.items() if k not in run_keys})
    return SimulationConfig(params, seed=seed, **{k: fields[k] for k in run_keys})
