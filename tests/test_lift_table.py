"""The lift grid is walked once per D, and images come from the epsilon table.

``lift_images(d)`` is checked against a direct recomputation; once the
tables exist, the lift checks, ``piece_bijections`` and
``triangular_closed_form`` run with the lift and epsilon functions
disabled.  A doctored lift that leaves X_D makes all three lift checks FAIL
with a message naming D, the member and the slot.  The spliced
``lift_matching`` is checked against the lift computed arc by arc.
"""

import pytest

import secondbasis.basis as basis
import secondbasis.verify as verify
from secondbasis.arcs import (
    Arc,
    Matching,
    classify_pair,
    embed_index,
    iter_matchings,
    lift_matching,
)
from secondbasis.basis import epsilon, epsilon_pairs, lift_images
from secondbasis.errors import FalsificationError
from secondbasis.family import enumerate_family, ground_size

LIFT_CHECKS = ["lifting_recursion", "gamma_invariance", "n_membership_transport"]
TABLE_READERS = LIFT_CHECKS + ["piece_bijections", "triangular_closed_form"]


@pytest.fixture
def fresh_lifts():
    lift_images.cache_clear()
    yield
    lift_images.cache_clear()


def oracle_lift(k, bp):
    """The lift arc by arc: embed both endpoints, re-canonicalise, validate."""
    n = bp.n + 2
    arcs = [
        classify_pair(embed_index(k, a.i, n), embed_index(k, a.j, n)) for a in bp.arcs
    ]
    return Matching(arcs + [Arc(k, k + 1)], n)


def assert_lifts_match_the_oracle(bps, slots, d=None):
    for bp in bps:
        for k in slots:
            got, want = lift_matching(k, bp, d), oracle_lift(k, bp)
            assert (got.n, got.arcs, got.support_mask) == (
                want.n, want.arcs, want.support_mask
            ), (bp, k)


def test_lift_equals_the_oracle_on_every_small_matching():
    for n in (1, 3, 5, 7):
        assert_lifts_match_the_oracle(iter_matchings(n), range(1, n + 2))


@pytest.mark.parametrize("d", range(2, 12))
def test_lift_equals_the_oracle_on_the_lift_grid(d):
    assert_lifts_match_the_oracle(enumerate_family(d - 2), range(1, d + 1), d)


@pytest.mark.slow
def test_lift_equals_the_oracle_on_the_lift_grid_d13():
    assert_lifts_match_the_oracle(enumerate_family(11), range(1, 14), 13)


def test_rows_are_the_lifted_images(fresh_lifts):
    for d in range(2, 10):
        want = tuple(
            tuple(epsilon(lift_matching(k, bp, d), d).mask for k in range(1, d + 1))
            for bp in enumerate_family(d - 2)
        )
        assert lift_images(d) == want


def test_checks_read_the_tables(monkeypatch, fresh_lifts):
    ranges = verify._ranges(7, False)
    for d in range(8):
        epsilon_pairs(d)
        if d >= 2:
            lift_images(d)

    def disabled(*args):
        raise AssertionError("recomputed instead of read from a table")

    monkeypatch.setattr(basis, "lift_matching", disabled)
    monkeypatch.setattr(basis, "epsilon", disabled)
    monkeypatch.setattr(verify, "epsilon", disabled)
    for name in TABLE_READERS:
        assert verify._CHECKS[name](ranges[name]) is None, name


D, K = 5, 2  # an odd D, so all three lift checks sweep it


@pytest.fixture
def stray_lift(monkeypatch, fresh_lifts):
    """One lift at (D, member 0 of X_{D-2}, K) replaced by a non-member."""
    bp = enumerate_family(D - 2)[0]
    members = set(enumerate_family(D))
    stray = next(b for b in iter_matchings(ground_size(D)) if b not in members)

    def doctored(k, b, d=None):
        return stray if (d, b, k) == (D, bp, K) else lift_matching(k, b, d)

    monkeypatch.setattr(basis, "lift_matching", doctored)
    return bp


def test_a_stray_lift_is_a_falsification(stray_lift):
    with pytest.raises(FalsificationError) as exc:
        lift_images(D)
    assert str(exc.value) == f"lift k={K} of {stray_lift!r} is not in X_{D}"


def test_run_checks_fails_the_three_lift_checks(stray_lift):
    reports = verify.run_checks(D)
    assert [r.name for r in reports] == verify.CHECK_NAMES
    assert [r.name for r in reports if not r.passed] == LIFT_CHECKS
    message = f"lift k={K} of {stray_lift!r} is not in X_{D}"
    for r in reports:
        if not r.passed:
            assert r.detail == {"kind": "falsification", "message": message}
