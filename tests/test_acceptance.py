"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
Criterion 3 also has a slow-mode variant extending the sweep to D=11
(`pytest -m slow`).
"""

import random
import time
from contextlib import contextmanager

import pytest

from secondbasis.basis import (
    build_order,
    piece_cardinality,
    unique_bijection_check,
)
from secondbasis.f2 import EvenSet
from secondbasis.family import (
    enumerate_family,
    filter_family,
    ground_size,
    pieces,
)
from secondbasis.tables import table_data
from secondbasis.verify import (
    _check_antisymmetry,
    _check_gamma_invariance,
    _check_involution_suite,
    _check_laminarity,
    _check_n_transport,
    _check_piece_bijections,
    _check_primitive_forms,
    _check_recursion,
    _check_triangular_form,
)
from tests.conftest import below, empty_store, load_corpus, sweep


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_golden_tables():
    with criterion(1, "tables D=1..7 match the reference corpus, under 2 s"):
        empty_store()  # the 2 s gate times a cold build
        start = time.perf_counter()
        rendered = {d: table_data(d) for d in range(1, 8)}
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"table generation took {elapsed:.2f}s"
        for d, data in rendered.items():
            corpus = load_corpus(d)
            computed = {str(label): list(entries) for label, entries in data}
            assert list(corpus) == list(computed)
            for label in computed:
                got = {e.key() for e in computed[label]}
                want = {e.key() for e in corpus[label]}
                assert got == want, f"D={d} piece {label}"
            # printed order of both corpus and output is monotone
            order = build_order(d)
            for source in (corpus, computed):
                flat = [e for entries in source.values() for e in entries]
                from secondbasis.basis import epsilon

                images = [epsilon(e.matching, d) for e in flat]
                for i in range(len(images)):
                    lower = set(below(order, images[i]))
                    for j in range(i + 1, len(images)):
                        if images[i] != images[j]:
                            assert images[j] not in lower


def test_criterion_2_cardinalities():
    with criterion(2, "family sizes 2^(N-1) and binomial piece sizes, D<=11"):
        for d in range(0, 12):
            fam = enumerate_family(d)
            assert len(fam) == 1 << (ground_size(d) - 1)
            for label, members in pieces(d).items():
                assert piece_cardinality(d, label) == len(members), (d, str(label))
        assert len(enumerate_family(6)) == 64
        assert len(enumerate_family(7)) == 256
        assert {str(l): len(v) for l, v in pieces(6).items()}["0"] == 35
        assert {str(l): len(v) for l, v in pieces(7).items()}["0,+"] == 70


def test_criterion_3_construction_equivalence():
    with criterion(3, "inductive and filtered constructions agree, D<=9, under 30 s"):
        start = time.perf_counter()
        for d in range(0, 10):
            assert set(enumerate_family(d)) == set(filter_family(d)), f"D={d}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"equivalence sweep took {elapsed:.2f}s"


@pytest.mark.slow
def test_criterion_3_construction_equivalence_slow():
    with criterion(3, "inductive and filtered constructions agree, D<=11 (slow)"):
        for d in (10, 11):
            assert set(enumerate_family(d)) == set(filter_family(d)), f"D={d}"


def test_criterion_4_bijection_theorem_suite():
    with criterion(4, "piece bijections D<=9, unique-matching certificate D<=9, "
                      "antisymmetry D<=11"):
        assert sweep(_check_piece_bijections, list(range(0, 10))) is None
        for d in range(0, 10):
            assert unique_bijection_check(d) is None, f"D={d}"
        assert sweep(_check_antisymmetry, list(range(0, 12))) is None


def test_criterion_5_triangular_equality():
    with criterion(5, "triangular closed form equals epsilon, even D<=10, "
                      "with the pointwise identity"):
        assert sweep(_check_triangular_form, [0, 2, 4, 6, 8, 10]) is None


def test_criterion_6_involution_suite():
    with criterion(6, "involution piece transport and equivariance, primed classes, "
                      "order properties, orbit matrices in {0,1,2}, odd D<=9"):
        assert sweep(_check_involution_suite, [1, 3, 5, 7, 9]) is None


def test_criterion_7_invariant_properties():
    with criterion(7, "laminarity, lifting recursion, gamma invariance, primitive "
                      "closed forms, N-transport, symbol defect identity"):
        assert sweep(_check_laminarity, list(range(0, 10))) is None
        assert sweep(_check_recursion, list(range(2, 10))) is None
        assert sweep(_check_gamma_invariance, list(range(2, 10))) is None
        assert sweep(_check_primitive_forms, list(range(0, 12))) is None
        assert sweep(_check_n_transport, [3, 5, 7, 9]) is None
        rng = random.Random(41)
        for d in (2, 4, 5, 7, 9, 11):
            n = ground_size(d)
            for _ in range(50):
                size = rng.choice(range(0, n + 1, 2))
                x = EvenSet(rng.sample(range(1, n + 1), size), n)
                members = set(x.members)
                star = {i for i in members if i % 2} | {
                    i for i in range(2, n + 1, 2) if i not in members
                }
                assert n - 2 * len(star) == 2 * x.gamma() + 1


@pytest.mark.slow
def test_full_verify_suite_slow():
    from secondbasis.verify import run_checks

    reports = run_checks(11, slow=True)
    for report in reports:
        print(report.line())
    assert all(r.passed for r in reports)
