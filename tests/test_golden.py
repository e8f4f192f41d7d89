"""The reference tables and verify text: exact reproduction, decompositions,
monotone order."""

import re

import pytest

from secondbasis.basis import build_order, epsilon
from secondbasis.cli import main
from secondbasis.f2 import f2_sum
from secondbasis.family import ground_size
from secondbasis.tables import table_data
from tests.conftest import GOLDEN, below, load_corpus


def entry_images(entries, d):
    return [epsilon(e.matching, d) for e in entries]


def assert_monotone(images, order, context):
    for i in range(len(images)):
        lower = set(below(order, images[i]))
        for j in range(i + 1, len(images)):
            if images[i] != images[j]:
                assert images[j] not in lower, (
                    f"{context}: entry {j} is below entry {i} but printed later"
                )


@pytest.mark.parametrize("d", range(1, 8))
def test_tables_match_reference(d):
    corpus = load_corpus(d)
    computed = {str(label): list(entries) for label, entries in table_data(d)}
    assert list(corpus) == list(computed)  # same pieces, same display order
    for label in computed:
        assert {e.key() for e in corpus[label]} == {
            e.key() for e in computed[label]
        }, f"D={d} piece {label}"
        assert len({e.key() for e in corpus[label]}) == len(corpus[label])


@pytest.mark.parametrize("d", range(1, 8))
def test_bracket_sums_are_the_image(d):
    n = ground_size(d)
    from secondbasis.arcs import pair_evenset

    for label, entries in table_data(d):
        for e in entries:
            total = f2_sum((pair_evenset(a, n) for a in e.bracketed), n)
            assert total == epsilon(e.matching, d)


@pytest.mark.parametrize("d", range(1, 8))
def test_reference_order_is_monotone(d):
    corpus = load_corpus(d)
    order = build_order(d)
    flat = [e for entries in corpus.values() for e in entries]
    assert_monotone(entry_images(flat, d), order, f"corpus D={d}")


@pytest.mark.parametrize("d", range(1, 8))
def test_rendered_order_is_monotone(d):
    order = build_order(d)
    flat = [e for _, entries in table_data(d) for e in entries]
    assert_monotone(entry_images(flat, d), order, f"rendered D={d}")


def verify_text(capsys, *argv):
    """Every line of the verify output but the seconds column, whose
    7-character width stays pinned."""
    assert main(["verify", *argv]) == 0
    out = capsys.readouterr().out
    return re.sub(r"[ \d]{4}\.\d\ds$", "   #.##s", out, flags=re.M)


def test_verify_d11_text_matches_the_golden(capsys):
    assert verify_text(capsys, "--max-D", "11") == (GOLDEN / "verify_d11.txt").read_text()


@pytest.mark.slow
def test_verify_d13_slow_text_matches_the_golden(capsys):
    # the only pin on the --slow ranges, which raise the filter's cap to 13
    want = (GOLDEN / "verify_d13_slow.txt").read_text()
    assert verify_text(capsys, "--max-D", "13", "--slow") == want
