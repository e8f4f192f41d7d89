"""Property test: ``parse_entry`` inverts ``render_entry`` on the largest tables.

At D = 10 and 11 the ground set has more than nine points, so every arc
prints hyphenated (``i-j``); the entries are drawn from ``table_data``.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from secondbasis.tables import parse_entry, render_entry, table_data  # noqa: E402


def entries(d):
    return [e for _, piece in table_data(d) for e in piece]


@pytest.mark.parametrize("d", [10, 11])
def test_render_then_parse_is_the_identity(d):
    pool = entries(d)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(pool))
    def round_trip(entry):
        text = render_entry(entry)
        assert "-" in text or not entry.matching.arcs
        assert parse_entry(text, entry.matching.n) == entry

    round_trip()
