"""Table entries read each member's span from the order and nowhere else."""

from functools import reduce
from itertools import combinations
from operator import xor

import pytest

import secondbasis.f2 as f2
from secondbasis.arcs import Matching, pair_masks
from secondbasis.basis import build_order, epsilon_pairs
from secondbasis.cli import main
from secondbasis.errors import DecompositionError
from secondbasis.f2 import EvenSet, span_masks
from secondbasis.tables import table_data, table_entry
from tests.conftest import doctor, elements, rebind_everywhere


def pairs_of(b):
    return span_masks(pair_masks(b.arcs), b.n)


def entry_for(pairs, n, image):
    b = Matching.from_pairs(pairs, n)
    return table_entry(b, EvenSet(image, n).mask, pairs_of(b))


def test_table_entry_examples():
    assert entry_for([(2, 3), (1, 4)], 5, [1, 4]).bracketed == ((1, 4),)
    assert entry_for([(1, 2)], 5, []).bracketed == ()
    assert entry_for([(3, 5), (1, 2)], 5, [3, 5]).bracketed == ((5, 3),)  # as classified


def test_table_entry_refuses_an_image_outside_the_span():
    with pytest.raises(DecompositionError) as exc:
        entry_for([(1, 2)], 5, [2, 3])
    assert str(exc.value) == "EvenSet([2, 3], n=5) is not in the span of the generators"


def test_table_entry_brackets_the_unique_decomposition():
    for d in range(0, 8):
        for b, x in epsilon_pairs(d):
            entry = table_entry(b, x.mask, pairs_of(b))
            vectors = pair_masks(b.arcs)
            part = [g for a, g in zip(b.arcs, vectors) if a in entry.bracketed]
            assert reduce(xor, part, 0) == x.mask
            # no other sub-collection of the arcs sums to the image
            hits = sum(
                reduce(xor, combo, 0) == x.mask
                for r in range(len(b) + 1)
                for combo in combinations(vectors, r)
            )
            assert hits == 1


@pytest.mark.parametrize("d", [5, 7])
def test_table_data_reads_the_order_spans(monkeypatch, cold_store, d):
    build_order(d)
    calls = []
    real = f2.span_masks

    def counted(masks, n):
        calls.append(masks)
        return real(masks, n)

    rebind_everywhere(monkeypatch, real, counted)
    assert table_data(d)
    assert calls == []


def test_a_span_that_misses_its_image_fails_the_table(capsys, cold_store):
    order = build_order(5)
    m = next(x.mask for x in elements(order) if x.mask)
    # with no pair inside m left, m is no union of the rest
    doctor(order, {m: [g for g in order.gen_spans[m].pairs if g & m != g]})
    assert main(["table", "--D", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: EvenSet(") and "is not in the span" in err
