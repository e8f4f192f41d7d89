"""Property tests: the interval tilings against a brute force over arc subsets.

``coverings_ok`` and ``distinguished_element`` share one forced walk: a
matching starts at most one arc at a point, so a cover that leaves nothing
out is forced (``family._covered``), and one backward pass finds every point
a cover can leave out alone (``family._leftovers``).  Here the walk and both
predicates are compared, on random matchings of [1, N <= 11], with a search
that tries every subset of the primed arcs inside the interval.
``tests/test_family.py`` compares them exhaustively with the depth-first
tiling search.
"""

from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from secondbasis.arcs import Matching  # noqa: E402
from secondbasis.errors import FalsificationError  # noqa: E402
import secondbasis.family as family  # noqa: E402
from secondbasis.family import (  # noqa: E402
    coverings_ok,
    distinguished_element,
    ground_size,
    nested_pairing,
)
from tests.conftest import covering_requirements  # noqa: E402


@st.composite
def matchings(draw):
    n = draw(st.sampled_from(range(1, 12, 2)))
    points = draw(st.permutations(range(1, n + 1)))
    k = draw(st.integers(0, n // 2))
    return Matching.from_pairs([points[2 * r : 2 * r + 2] for r in range(k)], n)


def brute_leftovers(b, lo, hi, skip):
    """The uncovered points of every set of disjoint primed-arc intervals
    inside [lo, hi] that leaves exactly `skip` of its points uncovered."""
    size = max(0, hi - lo + 1)
    inside = [a for a in b.primed() if lo <= a.i and a.j <= hi]
    for k in range(len(inside) + 1):
        for chosen in combinations(inside, k):
            covered = [p for a in chosen for p in range(a.i, a.j + 1)]
            if len(covered) == len(set(covered)) == size - skip:
                yield sorted(set(range(lo, hi + 1)) - set(covered))


def brute_cover(b, lo, hi, skip):
    return next(brute_leftovers(b, lo, hi, skip), None) is not None


@settings(max_examples=400, deadline=None)
@given(matchings(), st.data())
def test_cover_interval_against_brute_force(b, data):
    lo = data.draw(st.integers(1, b.n + 1))
    hi = data.draw(st.integers(lo - 1, b.n))
    ends = family._ends(b)
    assert family._covered(ends, lo, hi) == brute_cover(b, lo, hi, 0)
    leftovers = sorted({p for (p,) in brute_leftovers(b, lo, hi, 1)})
    assert family._leftovers(ends, lo, hi) == leftovers


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


@st.composite
def boundary_cases(draw):
    """Matchings of [1, N] that pass the guard of ``distinguished_element``
    at D = N - 2: a non-empty nested double-primed part, N unmatched, and
    primed arcs on some of the other points."""
    n = draw(st.sampled_from(range(5, 12, 2)))
    pairs, first, last = [], 1, n - 1
    while first + 2 <= last and (not pairs or draw(st.booleans())):
        lo = draw(st.integers(first, last - 2))
        hi = draw(st.sampled_from(range(lo + 2, last + 1, 2)))
        pairs.append((hi, lo))
        first, last = lo + 1, hi - 1
    taken = {p for pair in pairs for p in pair}
    free = draw(st.permutations([p for p in range(1, n) if p not in taken]))
    k = draw(st.integers(0, len(free) // 2))
    pairs += [free[2 * r : 2 * r + 2] for r in range(k) if (free[2 * r] - free[2 * r + 1]) % 2]
    return Matching.from_pairs(pairs, n)


@settings(max_examples=400, deadline=None)
@given(boundary_cases())
def test_distinguished_element_against_brute_force(b):
    seq = nested_pairing(b)
    # the 1-covered boundary segment: above i_2s when i_2s is odd, else below i_1
    lo, hi = (seq[-1] + 1, b.n - 1) if seq[-1] % 2 else (1, seq[0] - 1)
    leftovers = {p for (p,) in brute_leftovers(b, lo, hi, 1)}
    if len(leftovers) == 1:
        assert distinguished_element(b, b.n - 2) == leftovers.pop()
    else:
        with pytest.raises(FalsificationError) as exc:
            distinguished_element(b, b.n - 2)
        assert str(exc.value).endswith(f"admits leftovers {sorted(leftovers)}")
