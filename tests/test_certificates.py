"""The order is the one span build and the one acyclicity certificate.

Fault injection doctors the spans into a 2-cycle and shows that both the
uniqueness and the antisymmetry checks FAIL with an explicit closed cycle;
a span that lists a member later in the extension fails antisymmetry too.
A doctored 3-cycle at D=5 stalls the order build itself, which names
exactly the three doctored images as a closed cycle.  The cycles are
doctored into the order's input, the family's pair masks, after the images
are built from the real ones.
"""

from array import array

import pytest

import secondbasis.basis as basis
import secondbasis.verify as verify
from secondbasis.basis import (
    CycleError,
    build_order,
    epsilon_masks,
    epsilon_pairs,
    unique_bijection_check,
)
from secondbasis.errors import FalsificationError
from secondbasis.f2 import in_span
from secondbasis.family import enumerate_family
from secondbasis.verify import CHECK_NAMES, _check_antisymmetry, run_checks
from tests.conftest import doctor, elements, sweep

D = 2  # N = 3: every nonzero member is one arc, its span {0, image}


def doctor_spans(monkeypatch, ds, extra):
    """``basis.family_pairs`` at each D in ``ds``, with ``extra(run)`` appended
    to each member's run of pair masks.  Each D's images are built first,
    from the real arrays, so only the order's spans change."""
    real = basis.family_pairs
    doctored = {}
    for d in ds:
        epsilon_masks(d)
        pairs, starts = array("I"), array("I", [0])
        real_pairs, real_starts = real(d)
        for i, j in zip(real_starts, real_starts[1:]):
            run = list(real_pairs[i:j])
            pairs.extend(run + extra(run))
            starts.append(len(pairs))
        doctored[d] = pairs, starts
    monkeypatch.setattr(basis, "family_pairs", lambda d: doctored.get(d) or real(d))


@pytest.fixture
def two_cycle(monkeypatch, cold_store):
    """Spans at N = 3 in which two images lie in each other's span."""
    a, b = sorted(m for m in epsilon_masks(D) if m)[:2]
    # any two pairs of [1, 3] meet, so Kahn's Gray walk over the pairs (a, b)
    # meets a ^ b, the third nonzero mask, where a union would not; D=1
    # shares N = 3, so the odd-D involution suite meets the cycle too
    doctor_spans(
        monkeypatch,
        (1, D),
        lambda run: [b] if in_span(a, run) else [a] if in_span(b, run) else [],
    )
    real = basis.span_masks  # it refuses pairs that meet, so they pass at N = 3
    monkeypatch.setattr(basis, "span_masks", lambda masks, n: masks if n == 3 else real(masks, n))
    return a, b


def assert_closed_cycle(cycle, d=D):
    """First mask = last, and each next mask is in the previous one's span,
    read off the (doctored) pair masks the order adopts."""
    pairs, starts = basis.family_pairs(d)
    position = {m: i for i, m in enumerate(epsilon_masks(d))}
    assert len(cycle) >= 3 and cycle[0] == cycle[-1]
    for m, z in zip(cycle, cycle[1:]):
        i = position[m]
        assert z != m and in_span(z, pairs[starts[i] : starts[i + 1]])


def test_uniqueness_reports_the_alternating_cycle(two_cycle):
    bad = unique_bijection_check(D)
    assert bad is not None and bad["kind"] == "alternating-cycle"
    assert_closed_cycle(bad["masks"])
    assert set(bad["masks"]) == set(two_cycle)


def test_antisymmetry_reports_the_cycle(two_cycle):
    bad = sweep(_check_antisymmetry, [0, D])
    assert bad is not None and bad["D"] == D and set(bad) == {"D", "cycle"}
    assert_closed_cycle(bad["cycle"])
    assert set(bad["cycle"]) == set(two_cycle)


def test_run_checks_fails_both_and_runs_the_rest(two_cycle):
    reports = {r.name: r for r in run_checks(D)}
    assert list(reports) == CHECK_NAMES
    assert reports["unique_bijection"].detail["kind"] == "alternating-cycle"
    assert "cycle" in reports["order_antisymmetry"].detail
    # D=1 shares N = 3, so the odd-D involution suite meets the cycle too
    assert reports["involution_suite"].detail["kind"] == "falsification"
    failed = {name for name, r in reports.items() if not r.passed}
    assert failed == {"unique_bijection", "order_antisymmetry", "involution_suite"}


def test_a_later_span_member_fails_antisymmetry(monkeypatch, cold_store):
    d = 4
    order = basis.Order(d)
    sets = elements(order)
    early, late = sets[3].mask, sets[10].mask
    # late, disjoint from early's one pair, joins it as a generator: the span
    # lists late before early | late, both later than early
    assert order.gen_spans[early].pairs == (early,) and not early & late
    doctor(order, {early: [early, late]})
    monkeypatch.setattr(verify, "build_order", lambda dd: order if dd == d else build_order(dd))
    failed = {r.name: r.detail for r in run_checks(d) if not r.passed}
    message = f"linear extension at D={d} puts mask {late} after {early}"
    assert failed == {"order_antisymmetry": {"kind": "falsification", "message": message}}


def test_an_image_outside_its_span_fails_uniqueness(monkeypatch, cold_store):
    d = 4
    order = basis.Order(d)
    y = next(x.mask for x in elements(order) if x.mask)
    # with no pair inside y left, y is no union of the rest
    doctor(order, {y: [g for g in order.gen_spans[y].pairs if g & y != g]})
    monkeypatch.setattr(basis, "build_order", lambda dd: order if dd == d else build_order(dd))
    member = next(b for b, x in epsilon_pairs(d) if x.mask == y)
    bad = unique_bijection_check(d)
    assert bad == {"kind": "image-outside-span", "member": member.to_pairs()}


@pytest.mark.parametrize("d", [4, 5])
def test_checks_reuse_the_order_spans(monkeypatch, cold_store, d):
    build_order(d)
    calls = []
    monkeypatch.setattr(basis, "span_masks", lambda *args: calls.append(args))
    assert unique_bijection_check(d) is None
    assert _check_antisymmetry(d) is None
    assert calls == []


def test_a_three_cycle_stalls_the_order_build(monkeypatch, cold_store):
    d = 5
    # pairwise-disjoint single-arc members whose image is their own pair:
    # each span is {0, image}, so the doctored edges a -> b -> c -> a are
    # the only cycle, and each doctored span is still one of disjoint pairs
    chosen: list[int] = []
    for b, x in sorted(epsilon_pairs(d), key=lambda pair: pair[1].mask):
        if len(b) == 1 and b.support_mask == x.mask:
            if all(x.mask & m == 0 for m in chosen):
                chosen.append(x.mask)
    a, b, c = chosen[:3]
    extra = {a: b, b: c, c: a}
    doctor_spans(
        monkeypatch, (d,), lambda run: [extra[run[0]]] if len(run) == 1 and run[0] in extra else []
    )
    with pytest.raises(CycleError) as exc:
        build_order(d)
    cycle = exc.value.cycle
    assert len(cycle) == 4 and set(cycle) == {a, b, c}
    assert_closed_cycle(cycle, d)
    message = f"generating digraph at D={d} has a cycle through masks {cycle}"
    assert str(exc.value) == message


def test_a_shared_image_fails_piece_bijections(monkeypatch, cold_store):
    # piece_bijections reads the images off epsilon_masks, which refuses the
    # collision before any piece is read
    d = 3
    first, second = enumerate_family(d)[:2]
    real = basis._image

    def doctored(arcs, n, dd):  # epsilon's int core on arcs, which epsilon also wraps
        return real(first.arcs if (tuple(arcs), n) == (second.arcs, second.n) else arcs, n, dd)

    monkeypatch.setattr(basis, "_image", doctored)
    image = basis.epsilon(first, d)
    message = f"epsilon collision at D={d}: {first!r} and {second!r} -> {image!r}"
    reports = {r.name: r.detail for r in run_checks(d)}
    assert reports["piece_bijections"] == {"kind": "falsification", "message": message}


def test_an_odd_image_is_refused(monkeypatch, cold_store):
    d = 3
    odd = enumerate_family(d)[1]
    real = basis._image

    def doctored(arcs, n, dd):  # point 1 flipped in one member's image
        flip = 2 if (tuple(arcs), n) == (odd.arcs, odd.n) else 0
        return real(arcs, n, dd) ^ flip

    monkeypatch.setattr(basis, "_image", doctored)
    with pytest.raises(FalsificationError) as exc:
        basis.epsilon_masks(d)
    assert str(exc.value) == f"epsilon of {odd!r} at D={d} has odd size"
