"""Property tests: the interval tilings against a brute force over arc subsets.

``cover_interval`` and ``coverings_ok`` share one tiling recursion; here both
are compared, on random matchings of [1, N <= 11], with a search that tries
every subset of the primed arcs inside the interval.
"""

from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from secondbasis.arcs import Matching  # noqa: E402
from secondbasis.family import (  # noqa: E402
    cover_interval,
    covering_requirements,
    coverings_ok,
    ground_size,
    nested_pairing,
)


@st.composite
def matchings(draw):
    n = draw(st.sampled_from(range(1, 12, 2)))
    points = draw(st.permutations(range(1, n + 1)))
    k = draw(st.integers(0, n // 2))
    return Matching.from_pairs([points[2 * r : 2 * r + 2] for r in range(k)], n)


def brute_cover(b, lo, hi, skip):
    """Whether some set of disjoint primed-arc intervals inside [lo, hi]
    leaves exactly `skip` of its points uncovered."""
    size = max(0, hi - lo + 1)
    inside = [a for a in b.primed() if lo <= a.i and a.j <= hi]
    for k in range(len(inside) + 1):
        for chosen in combinations(inside, k):
            covered = [p for a in chosen for p in range(a.i, a.j + 1)]
            if len(covered) == len(set(covered)) == size - skip:
                return True
    return False


@settings(max_examples=400, deadline=None)
@given(matchings(), st.data())
def test_cover_interval_against_brute_force(b, data):
    lo = data.draw(st.integers(1, b.n + 1))
    hi = data.draw(st.integers(lo - 1, b.n))
    skip = data.draw(st.sampled_from((0, 1)))
    w = cover_interval(b, lo, hi, skip)
    assert (w is not None) == brute_cover(b, lo, hi, skip)
    if w is not None:
        covered = [p for a in w.arcs for p in range(a.i, a.j + 1)]
        assert set(w.arcs) <= set(b.primed())
        assert len(covered) == len(set(covered))
        assert sorted(covered + list(w.leftover)) == list(range(lo, hi + 1))
        assert len(w.leftover) == skip


@settings(max_examples=400, deadline=None)
@given(matchings(), st.booleans())
def test_coverings_ok_against_brute_force(b, odd):
    seq = nested_pairing(b)
    assume(seq is not None)
    d = b.n - 2 if odd else b.n - 1  # the two D that live on [1, N]
    assume(d >= 0 and ground_size(d) == b.n)
    want = all(
        brute_cover(b, lo, hi, e) for lo, hi, e in covering_requirements(b, d, seq)
    )
    assert coverings_ok(b, d, seq) == want
    assert coverings_ok(b, d) == want
