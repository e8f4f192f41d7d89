"""Property tests: the verify sweep's int kernels against brute force.

The sector-order screen marks the codes a span reaches with one subset sum
over its generators' codes (4·gamma + 2·[N ∈ q] + [D+1 ∈ q]).  Here random
pairwise-disjoint generators, pairs or wider even sets as
``tests.conftest.doctor`` allows, are compared with the codes of all 2^k
unions, each read off its own even set.  The bit-sliced triangular form is
compared with the counts of ``tests/oracles.py`` on random arc sets, members
of X_D or not.
"""

from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from secondbasis.arcs import Matching  # noqa: E402
from secondbasis.f2 import EvenSet  # noqa: E402
from secondbasis.variants import (  # noqa: E402
    _code,
    _subset_sums,
    triangle_identity_ok,
    triangular_epsilon,
)
from tests import oracles  # noqa: E402


@st.composite
def disjoint_generators(draw):
    """(odd D <= 9, disjoint even sets of [1, N]), pairs or wider."""
    d = draw(st.sampled_from(range(1, 10, 2)))
    points = draw(st.permutations(range(1, d + 3)))
    generators, at = [], 0
    while at + 2 <= len(points) and draw(st.booleans()):
        size = draw(st.sampled_from([2, 2, 4, 6]))
        block = points[at : at + size]
        if len(block) % 2:
            break
        generators.append(sum(1 << i for i in block))
        at += size
    return d, generators


def brute_codes(generators, d):
    n = d + 2
    codes = set()
    for k in range(len(generators) + 1):
        for chosen in combinations(generators, k):
            x = EvenSet.from_mask(sum(chosen), n)
            codes.add(4 * x.gamma() + 2 * (n in x) + (d + 1 in x))
    return codes


@settings(max_examples=400, deadline=None)
@given(disjoint_generators())
def test_the_subset_sum_reaches_the_codes_of_every_union(case):
    d, generators = case
    zero = 4 * (d + 2) + 4
    reach = _subset_sums([_code(q, d) for q in generators], zero)
    reached = {i - zero for i in range(reach.bit_length()) if reach >> i & 1}
    assert reached == brute_codes(generators, d)


@st.composite
def arc_sets(draw):
    """(even D <= 12, a matching of [1, D+1]): any disjoint arcs."""
    d = draw(st.sampled_from(range(0, 13, 2)))
    n = d + 1
    points = draw(st.permutations(range(1, n + 1)))
    k = draw(st.integers(0, n // 2))
    return d, Matching.from_pairs([points[2 * r : 2 * r + 2] for r in range(k)], n)


@settings(max_examples=400, deadline=None)
@given(arc_sets())
def test_the_bit_sliced_core_equals_the_counts(case):
    d, b = case
    assert triangular_epsilon(b, d) == oracles.triangular_epsilon(b, d)
    assert triangle_identity_ok(b, d) == oracles.triangle_identity_ok(b, d)
