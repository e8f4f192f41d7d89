"""The triangular closed form and the odd-D involution structures."""

from array import array

import pytest

import secondbasis.variants as variants
import secondbasis.verify as verify
from secondbasis.arcs import Matching
from secondbasis.basis import (
    Order,
    build_order,
    epsilon,
    epsilon_masks,
    sector_label,
)
from secondbasis.errors import DomainError, FalsificationError
from secondbasis.f2 import EvenSet
from secondbasis.family import (
    PieceLabel,
    enumerate_family,
    ground_size,
    lift_positions,
    piece_of,
    pieces,
)
from secondbasis.variants import (
    in_primed_zero_piece,
    in_primed_zero_piece_set,
    involution,
    matching_involution,
    orbit_representatives,
    sector_matrix,
    sector_order_check,
    triangle_identity_ok,
    triangular_epsilon,
)
from tests import oracles
from tests.conftest import below, doctor, elements, position


def m(pairs, n):
    return Matching.from_pairs(pairs, n)


def test_interval_counts_example():
    b = m([(2, 3), (1, 4)], 5)
    assert oracles.interval_counts(b, 4) == [1, 2, 1, 0, 0]
    assert triangular_epsilon(b, 4) == EvenSet([1, 4], 5)


def test_triangular_epsilon_equals_epsilon():
    for d in (0, 2, 4, 6):
        for b in enumerate_family(d):
            assert triangular_epsilon(b, d) == epsilon(b, d)
            assert triangle_identity_ok(b, d)
    with pytest.raises(DomainError):
        triangular_epsilon(m([], 5), 3)


def test_the_point_identity_refuses_odd_d():
    with pytest.raises(DomainError):
        triangle_identity_ok(m([], 5), 3)


def assert_the_core_matches_the_counts(d):
    for b in enumerate_family(d):
        assert triangular_epsilon(b, d) == oracles.triangular_epsilon(b, d)
        assert oracles.triangle_identity_ok(b, d)
        assert triangle_identity_ok(b, d)


@pytest.mark.parametrize("d", range(0, 11, 2))
def test_the_bit_sliced_core_matches_the_counts(d):
    assert_the_core_matches_the_counts(d)


@pytest.mark.slow
@pytest.mark.parametrize("d", [12, 14])
def test_the_bit_sliced_core_matches_the_counts_slow(d):
    assert_the_core_matches_the_counts(d)


def test_a_doctored_image_fails_the_closed_form(monkeypatch):
    d, r = 6, 5
    doctored = array("I", epsilon_masks(d))
    doctored[r] ^= 1 << 2 | 1 << 4
    real = epsilon_masks
    monkeypatch.setattr(verify, "epsilon_masks", lambda dd: doctored if dd == d else real(dd))
    b = enumerate_family(d)[r]
    assert verify._check_triangular_form(d) == {"kind": "closed-form", "member": b.to_pairs()}


def test_a_doctored_image_fails_piece_bijections(monkeypatch):
    # the first piece in display order with a stray image is named, with its
    # first stray image by position, though a later piece's comes first
    d = 5
    family, masks = enumerate_family(d), epsilon_masks(d)
    flip = 1 << 2 | 1 << 4  # 2 and 4 join an image: gamma rises by 2
    free = {}
    for r, b in enumerate(family):
        if not masks[r] & flip:
            free.setdefault(piece_of(b, d), []).append(r)
    first, later = PieceLabel(0, "+"), PieceLabel(-2, "-")
    assert list(pieces(d)).index(first) < list(pieces(d)).index(later)
    strays = free[first][1:3] + free[later][:1]
    assert strays[2] < strays[0]
    doctored = array("I", masks)
    for r in strays:
        doctored[r] ^= flip
    monkeypatch.setattr(verify, "epsilon_masks", lambda dd: doctored if dd == d else masks)
    want = {"piece": "0,+", "image": list(EvenSet.from_mask(doctored[strays[0]], 7))}
    assert verify._check_piece_bijections(d) == want


def test_a_doctored_lift_fails_the_three_lift_checks(monkeypatch):
    # {1, N} joins or leaves a lift's image: not one {k, k+1}, gamma moves
    # by 2 and N flips
    d = 5
    n = ground_size(d)
    masks, grid = list(epsilon_masks(d)), lift_positions(d)
    at = next(i for i, p in enumerate(grid) if not masks[p] & (2 | 1 << n))
    doctored = array("I", grid)
    doctored[at] = masks.index(masks[grid[at]] ^ (2 | 1 << n))  # epsilon is onto E_N
    real = lift_positions
    monkeypatch.setattr(verify, "lift_positions", lambda dd: doctored if dd == d else real(dd))
    want = {"member": enumerate_family(d - 2)[at // d].to_pairs(), "k": at % d + 1}
    checks = (verify._check_recursion, verify._check_gamma_invariance, verify._check_n_transport)
    for check in checks:
        assert check(d) == want, check.__name__


def test_involution_basics():
    assert involution(EvenSet([], 3), 1) == EvenSet([1, 2], 3)
    for d in (1, 3, 5, 7):
        for x in elements(build_order(d)):
            bang = involution(x, d)
            assert bang != x
            assert involution(bang, d) == x
            if x.n in x:
                assert bang.gamma() == -x.gamma() - 2
            else:
                assert bang.gamma() == -x.gamma()
    with pytest.raises(DomainError):
        involution(EvenSet([], 5), 4)


@pytest.mark.parametrize("d", [1, 3, 5, 7, 9])
def test_involution_over_every_even_set(d):
    # every even subset of [1, N], listed without the order or the family
    n = d + 2
    evens = [m for m in range(0, 1 << (n + 1), 2) if m.bit_count() % 2 == 0]
    assert len(evens) == 1 << (n - 1)
    for m in evens:
        x = EvenSet.from_mask(m, n)
        bang = involution(x, d)
        assert bang != x  # no fixed point
        assert (n in bang) == (n in x)  # the N-sector is kept
        assert (d + 1 in bang) != (d + 1 in x)  # D+1 is flipped


@pytest.mark.parametrize("d", range(1, 42, 2))
def test_the_block_flips_d_plus_1_and_keeps_n(d):
    # the involution adds this constant block, so these three facts are its
    # whole fixed-point, sector and primed-half behaviour at this D
    block = variants._block(d)
    assert block != 0  # no fixed point
    assert not block >> (d + 2) & 1  # N = D+2 is kept, so is the sector
    assert block >> (d + 1) & 1  # D+1 is flipped, so the primed halves swap


def test_matching_involution():
    assert matching_involution(m([], 3), 1) == m([(1, 2)], 3)
    assert matching_involution(m([(3, 1)], 5), 3) == m([(4, 2)], 5)
    for d in (1, 3, 5, 7):
        for b in enumerate_family(d):
            bang = matching_involution(b, d)
            assert epsilon(bang, d) == involution(epsilon(b, d), d)
            lb, lbang = piece_of(b, d), piece_of(bang, d)
            assert lb.sign == lbang.sign
            want = -lb.t if lb.sign == "+" else -lb.t - 2
            assert lbang.t == want


def test_matching_involution_reads_the_tables(monkeypatch):
    from tests.conftest import rebind_everywhere

    members = {d: enumerate_family(d) for d in (1, 3, 5, 7)}
    want = {
        d: [matching_involution(b, d) for b in family] for d, family in members.items()
    }

    def disabled(*args):
        raise AssertionError("epsilon recomputed instead of read from the table")

    rebind_everywhere(monkeypatch, epsilon, disabled)
    for d, family in members.items():
        assert [matching_involution(b, d) for b in family] == want[d]


def test_primed_classes():
    assert in_primed_zero_piece(m([], 5), 3)
    b = m([(2, 3), (1, 4)], 5)  # support contains D+1 = 4
    assert not in_primed_zero_piece(b, 3)
    assert not in_primed_zero_piece_set(epsilon(b, 3), 3)
    with pytest.raises(DomainError):
        in_primed_zero_piece(m([(4, 5)], 5), 3)  # wrong piece
    for d in (1, 3, 5, 7):
        zero_plus = PieceLabel(0, "+")
        members = pieces(d)[zero_plus]
        primed = [b for b in members if in_primed_zero_piece(b, d)]
        assert len(primed) * 2 == len(members)  # the involution swaps the halves
        for b in members:
            assert in_primed_zero_piece(b, d) == in_primed_zero_piece_set(
                epsilon(b, d), d
            )


@pytest.mark.parametrize("d", [3, 5, 7])
def test_order_readers_do_not_relabel(monkeypatch, d):
    # the sector order check, the orbit transversals and the involution suite
    # read each element's label from the order; only the primed-class clause,
    # which holds no label for a member's image, labels it: once per member
    from secondbasis.basis import epsilon_images
    from secondbasis.verify import _check_involution_suite
    from tests.conftest import rebind_everywhere

    build_order(d), epsilon_images(d)  # built before counting
    calls = []

    def counted(x, dd):
        calls.append(x)
        return sector_label(x, dd)

    rebind_everywhere(monkeypatch, sector_label, counted)
    assert _check_involution_suite(d) is None
    assert len(calls) == len(pieces(d)[PieceLabel(0, "+")])


def test_sector_order_properties():
    for d in (1, 3, 5, 7):
        assert sector_order_check(d) is None


def reference_sector_order_check(order, d):
    """The direct reading of every clause: every y, every x in its down-set."""
    labels = {x.mask: sector_label(x, d) for x in elements(order)}
    for y in elements(order):
        ly = labels[y.mask]
        for x in below(order, y):
            lx = labels[x.mask]
            if lx.sign == "-" and ly.sign == "+":
                return {"kind": "sector-crossing", "x": x.to_json(), "y": y.to_json()}
            if lx.sign != ly.sign or x == y:
                continue
            if lx.t != ly.t and variants._rank(lx) >= variants._rank(ly):
                return {
                    "kind": "rank-violation",
                    "x": x.to_json(),
                    "y": y.to_json(),
                    "pieces": [str(lx), str(ly)],
                }
            if (
                ly == PieceLabel(0, "+")
                and in_primed_zero_piece_set(y, d)
                and not in_primed_zero_piece_set(x, d)
            ):
                return {"kind": "primed-violation", "x": x.to_json(), "y": y.to_json()}
    return None


@pytest.mark.parametrize("d", [1, 3, 5, 7, 9])
def test_sector_order_check_matches_reference(d):
    assert sector_order_check(d) == reference_sector_order_check(build_order(d), d)


@pytest.mark.slow
def test_sector_order_check_matches_reference_d11():
    assert sector_order_check(11) == reference_sector_order_check(build_order(11), 11)


def assert_the_screen_stays_silent(monkeypatch, d):
    # a fired screen reads the down-sets, which a fresh order builds on first read
    order = Order(d)
    monkeypatch.setattr(variants, "build_order", lambda dd: order)
    assert sector_order_check(d) is None
    assert "down" not in order.__dict__


@pytest.mark.parametrize("d", [1, 3, 5, 7, 9, 11])
def test_the_screen_stays_silent_on_a_real_order(monkeypatch, d):
    assert_the_screen_stays_silent(monkeypatch, d)


@pytest.mark.slow
def test_the_screen_stays_silent_on_a_real_order_d13(monkeypatch):
    assert_the_screen_stays_silent(monkeypatch, 13)


def test_a_doctored_edge_fires_the_screen(monkeypatch):
    # y is the first set with a faulty edge, so the down-sets are built and
    # the payload is the edge scan's
    order = Order(D_DOCTOR)
    y = elements(order)[1]
    x = next(x for x, label in zip(elements(order), order.labels) if label.sign == "-")
    order = _doctored(monkeypatch, D_DOCTOR, y, {y: [x]})
    assert "down" not in order.__dict__
    got = sector_order_check(D_DOCTOR)
    assert got == reference_sector_order_check(order, D_DOCTOR)
    assert got == {"kind": "sector-crossing", "x": x.to_json(), "y": y.to_json()}
    assert "down" in order.__dict__


def _doctored(monkeypatch, d, y, spans):
    """A fresh order in which each set z of ``spans`` has the span of the
    given sets alone; the checks read it at D=d.

    Each doctored z had the span {0, z}, so z's span {0, x} puts x and x's
    down-set below z, as adding x to z's span did; that z leaves its own
    span is a self-edge, which the sector checks skip.  Each x after y
    moves to just before it, keeping their order, and the result must
    still be a linear extension of the doctored spans.
    """
    order = Order(d)
    xs = [x for gens in spans.values() for x in gens]
    after = elements(order)[position(order, y.mask) + 1 :]
    late = [x for x in after if x in xs]
    kept = [x for x in elements(order) if x not in late]
    at = kept.index(y)
    for z in spans:
        assert order.gen_spans[z.mask].pairs == (z.mask,)
    doctor(
        order,
        {z.mask: [x.mask for x in gens] for z, gens in spans.items()},
        kept[:at] + late + kept[at:],
    )
    for m, span in order.gen_spans.items():
        assert all(position(order, z) <= position(order, m) for z in span)

    def doctored(dd):
        return order if dd == d else build_order(dd)

    for module in (variants, verify):
        monkeypatch.setattr(module, "build_order", doctored)
    return order


def _zero_plus(order, d, primed):
    return [
        x
        for x in elements(order)
        if sector_label(x, d) == PieceLabel(0, "+")
        and in_primed_zero_piece_set(x, d) == primed
    ]


def _rank_offender(order, d, y):
    """A same-sign set of another piece whose rank is not below y's."""
    ly = sector_label(y, d)
    for x in elements(order):
        lx = sector_label(x, d)
        if lx.sign == ly.sign and lx.t != ly.t and variants._rank(lx) >= variants._rank(ly):
            return x


D_DOCTOR = 5


def test_doctored_rank_violation(monkeypatch):
    order = Order(D_DOCTOR)
    y = elements(order)[order.labels.index(PieceLabel(2, "+"))]
    x = _rank_offender(order, D_DOCTOR, y)  # of the (-2,+) piece: equal rank
    order = _doctored(monkeypatch, D_DOCTOR, y, {y: [x]})
    got = sector_order_check(D_DOCTOR)
    assert got == reference_sector_order_check(order, D_DOCTOR)
    assert got["kind"] == "rank-violation" and got["y"] == y.to_json()
    assert got["pieces"] == ["-2,+", "2,+"]


def test_doctored_primed_violation(monkeypatch):
    # every primed set precedes every unprimed one in the canonical extension,
    # so the unprimed x moves to just before y
    order = Order(D_DOCTOR)
    y = _zero_plus(order, D_DOCTOR, primed=True)[1]
    x = _zero_plus(order, D_DOCTOR, primed=False)[0]
    order = _doctored(monkeypatch, D_DOCTOR, y, {y: [x]})
    got = sector_order_check(D_DOCTOR)
    assert got == reference_sector_order_check(order, D_DOCTOR)
    assert got == {"kind": "primed-violation", "x": x.to_json(), "y": y.to_json()}


def test_doctored_clauses_report_the_lowest_position(monkeypatch):
    order = Order(D_DOCTOR)
    y = _zero_plus(order, D_DOCTOR, primed=True)[1]
    ranked = _rank_offender(order, D_DOCTOR, y)
    unprimed = _zero_plus(order, D_DOCTOR, primed=False)[0]
    assert position(order, unprimed.mask) < position(order, ranked.mask)
    # ranked and unprimed overlap, so no disjoint generators hold both; the
    # chain unprimed < ranked < y puts both below y, as adding both to y's
    # span did
    order = _doctored(monkeypatch, D_DOCTOR, y, {y: [ranked], ranked: [unprimed]})
    got = sector_order_check(D_DOCTOR)
    assert got == reference_sector_order_check(order, D_DOCTOR)
    assert got["kind"] == "primed-violation" and got["x"] == unprimed.to_json()


def test_doctored_sector_crossing_fails_the_involution_suite(monkeypatch):
    order = Order(D_DOCTOR)
    y = elements(order)[1]
    x = next(x for x, label in zip(elements(order), order.labels) if label.sign == "-")
    order = _doctored(monkeypatch, D_DOCTOR, y, {y: [x]})
    got = sector_order_check(D_DOCTOR)
    assert got == reference_sector_order_check(order, D_DOCTOR)
    assert got == {"kind": "sector-crossing", "x": x.to_json(), "y": y.to_json()}
    failed = {r.name: r.detail for r in verify.run_checks(D_DOCTOR) if not r.passed}
    assert failed == {"involution_suite": {"D": D_DOCTOR, **got}}


def test_orbit_representatives():
    assert [tuple(x.members) for x in orbit_representatives(1, "-+")] == [(2, 3)]
    assert [tuple(x.members) for x in orbit_representatives(1, "++")] == [()]
    assert [tuple(x.members) for x in orbit_representatives(1, "+-")] == [()]
    for d in (1, 3, 5, 7):
        n = d + 2
        order = build_order(d)
        plus = [x for x in elements(order) if n not in x]
        minus = [x for x in elements(order) if n in x]
        for which, sector in (("++", plus), ("+-", plus), ("-+", minus), ("--", minus)):
            reps = orbit_representatives(d, which)
            assert len(reps) * 2 == len(sector)
            seen = set()
            for x in reps:
                orbit = frozenset({x.mask, involution(x, d).mask})
                assert orbit not in seen
                seen.add(orbit)
            # transversal: every orbit of the sector is hit
            assert len(seen) == len(sector) // 2


def test_pp_pm_differ_exactly_on_nonzero_pieces():
    for d in (1, 3, 5, 7):
        pp = set(orbit_representatives(d, "++"))
        pm = set(orbit_representatives(d, "+-"))
        both = pp & pm
        for x in both:
            assert sector_label(x, d).t == 0
        for x in pp ^ pm:
            assert sector_label(x, d).t != 0


def test_sector_matrix_d1():
    matrix = sector_matrix(1, "-+")
    assert matrix.rows == [[1]]
    assert [tuple(x.members) for x in matrix.labels] == [(2, 3)]


def test_sector_matrix_bounds():
    for d in (1, 3, 5, 7):
        for which in ("++", "+-", "-+", "--"):
            matrix = sector_matrix(d, which)  # raises if not unitriangular
            flat = [v for row in matrix.rows for v in row]
            assert set(flat) <= {0, 1, 2}
            # observed at desk scale: no doubled entry occurs through D=7
            assert 2 not in flat


def test_sector_matrix_refuses_a_transversal_that_meets_an_orbit_twice(monkeypatch):
    reps = orbit_representatives(5, "++")
    doubled = reps + (involution(reps[-1], 5),)
    monkeypatch.setattr(variants, "orbit_representatives", lambda d, which: doubled)
    with pytest.raises(FalsificationError) as exc:
        sector_matrix(5, "++")
    want = "orbit matrix D=5 sector=++: the transversal meets an orbit twice"
    assert str(exc.value) == want
