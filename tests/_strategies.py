"""Hypothesis strategies shared by several test modules."""

from hypothesis import strategies as st

# Arbitrary Unicode, lone surrogates included, with the characters that
# JSON escapes (quotes, backslashes, controls, non-ASCII, astral) made likely.
JSON_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\udfff\U0001f600 a')),
)
