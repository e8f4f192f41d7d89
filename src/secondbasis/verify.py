"""The exhaustive verification suite behind `secondbasis verify`.

Twelve checks, each a function of one D.  The runner sweeps D outermost: every
applicable check at D, in ``_CHECKS`` order, then the tables below D-2 are
released.  It stops a check at its first failing D and reports one
machine-readable result per check.  Any failure carries a reproducer payload;
the suite never weakens a check to make it pass.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator

from .arcs import _splice, cyclic_interval_mask
from .basis import (
    CycleError,
    _mask_label,
    build_order,
    epsilon,
    epsilon_images,
    epsilon_masks,
    piece_cardinality,
    primitive_image,
    unique_bijection_check,
)
from .errors import DomainError, FalsificationError, Record
from .f2 import _mask_gamma, members_of
from .family import (
    PieceLabel,
    enumerate_family,
    filter_family,
    ground_size,
    labeled_primitives,
    lift_positions,
    piece_of,
    pieces,
)
from .limits import guard_d, release
from .variants import (
    _block,
    _triangle_masks,
    in_primed_zero_piece,
    in_primed_zero_piece_set,
    involution,
    matching_involution,
    sector_matrix,
    sector_order_check,
)

__all__ = ["RunReport", "run_checks", "CHECK_NAMES"]


class RunReport(Record):
    """One check's result over its sweep of D; mutable, so unhashable."""

    __slots__ = ("name", "d_values", "passed", "detail", "seconds")

    def __init__(
        self,
        name: str,
        d_values: list[int],
        passed: bool,
        detail: dict | None = None,
        seconds: float = 0.0,
    ):
        self.name = name
        self.d_values = d_values
        self.passed = passed
        self.detail = detail
        self.seconds = seconds

    __setattr__ = object.__setattr__
    __hash__ = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if self.d_values:
            span = f"D={self.d_values[0]}..{self.d_values[-1]}"
        else:
            span = "D=(none)"
        out = f"{status} {self.name:28s} {span:12s} {self.seconds:7.2f}s"
        if not self.passed:
            out += f"  counterexample: {self.detail}"
        return out

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "d_values": self.d_values,
            "passed": self.passed,
            "detail": self.detail,
            "seconds": round(self.seconds, 4),
        }


def _check_construction_equivalence(d: int) -> dict | None:
    filtered, inductive = set(filter_family(d)), set(enumerate_family(d))
    if filtered != inductive:
        extra, missing = filtered - inductive, inductive - filtered
        return {
            "filter_only": [b.to_pairs() for b in sorted(extra, key=lambda b: b.arcs)[:3]],
            "inductive_only": [b.to_pairs() for b in sorted(missing, key=lambda b: b.arcs)[:3]],
        }
    return None


def _check_laminarity(d: int) -> dict | None:
    for b in enumerate_family(d):
        ivals = [cyclic_interval_mask(a, b.n) for a in b.arcs]
        for i in range(len(ivals)):
            for j in range(i + 1, len(ivals)):
                meet = ivals[i] & ivals[j]
                if meet and meet != ivals[i] and meet != ivals[j]:
                    return {"member": b.to_pairs()}
    return None


def _lifts(d: int) -> Iterator[tuple[int, int, Iterator[int]]]:
    """Each position of X_{D-2}, its image mask and the masks of its D lifts."""
    masks, grid = epsilon_masks(d), lift_positions(d)
    for r, ex in enumerate(epsilon_masks(d - 2)):
        yield r, ex, map(masks.__getitem__, grid[r * d : r * d + d])


def _check_recursion(d: int) -> dict | None:
    # a lifted member's image is the embedded image, up to one copy of {k, k+1}
    for r, ex, row in _lifts(d):
        for k, lifted in enumerate(row, start=1):
            diff = lifted ^ _splice(ex, k)
            if diff and diff != (1 << k) | (1 << (k + 1)):
                return {"member": enumerate_family(d - 2)[r].to_pairs(), "k": k}
    return None


def _check_gamma_invariance(d: int) -> dict | None:
    n = ground_size(d)
    for r, ex, row in _lifts(d):
        g = _mask_gamma(ex, n)
        for k, lifted in enumerate(row, start=1):
            if _mask_gamma(lifted, n) != g:
                return {"member": enumerate_family(d - 2)[r].to_pairs(), "k": k}
    return None


def _check_primitive_forms(d: int) -> dict | None:
    for label, q in labeled_primitives(d):
        want = primitive_image(d, label)
        if epsilon(q, d) != want:
            return {"piece": str(label), "primitive": q.to_pairs()}
        if want.gamma() != label.t:
            return {"piece": str(label), "gamma": want.gamma()}
    return None


def _check_n_transport(d: int) -> dict | None:
    n = ground_size(d)
    for r, ex, row in _lifts(d):
        inner = ex >> (n - 2) & 1  # the top point of [1, N-2]
        for k, lifted in enumerate(row, start=1):
            if lifted >> n & 1 != inner:
                return {"member": enumerate_family(d - 2)[r].to_pairs(), "k": k}
    return None


def _check_piece_bijections(d: int) -> dict | None:
    # epsilon_masks refuses a shared image first; each image is labelled on its own
    sizes: dict[PieceLabel, int] = {}
    bad: dict[PieceLabel, int] = {}  # the first stray image of each piece
    for b, m in zip(enumerate_family(d), epsilon_masks(d)):
        label = piece_of(b, d)
        sizes[label] = sizes.get(label, 0) + 1
        if label != _mask_label(m, d):
            bad.setdefault(label, m)
    for label in sorted(sizes, key=PieceLabel.sort_key):
        if label in bad:
            return {"piece": str(label), "image": list(members_of(bad[label]))}
        want = piece_cardinality(d, label)
        if sizes[label] != want:
            return {"piece": str(label), "size": sizes[label], "expected": want}
    return None


def _check_uniqueness(d: int) -> dict | None:
    return unique_bijection_check(d)


def _check_antisymmetry(d: int) -> dict | None:
    try:
        order = build_order(d)
    except CycleError as exc:
        return {"cycle": exc.cycle}
    # every generating edge points backwards, so the order's closure does too
    rank, low, masks = order.rank, order.low, order.masks
    for i, p in enumerate(order.extension):
        m = masks[p]
        for z in order.members(m):
            if z != m and rank[z >> 1 & low] >= i:
                raise FalsificationError(f"linear extension at D={d} puts mask {z} after {m}")
    return None


def _check_counting(d: int) -> dict | None:
    fam = enumerate_family(d)
    n = ground_size(d)
    if len(fam) != 1 << (n - 1):
        return {"size": len(fam), "expected": 1 << (n - 1)}
    by_piece = pieces(d)
    for label, members in by_piece.items():
        if piece_cardinality(d, label) != len(members):
            return {"piece": str(label), "size": len(members)}
    # formulas for absent labels must give zero (n odd, so -n-1 is even)
    for t in range(-n - 1, n + 2, 2):
        labels = [PieceLabel(t)] if d % 2 == 0 else [PieceLabel(t, "+"), PieceLabel(t, "-")]
        for label in labels:
            if label not in by_piece and piece_cardinality(d, label) != 0:
                return {"piece": str(label), "kind": "phantom"}
    return None


def _check_triangular_form(d: int) -> dict | None:
    for b, m in zip(enumerate_family(d), epsilon_masks(d)):
        form, defect = _triangle_masks(b, d)
        if form != m:
            return {"member": b.to_pairs(), "kind": "closed-form"}
        if defect:
            return {"member": b.to_pairs(), "kind": "point-identity"}
    return None


def _check_involution_suite(d: int) -> dict | None:
    order = build_order(d)
    zero_plus = PieceLabel(0, "+")
    # no fixed point, N kept and D+1 flipped are properties of the block
    # [1, D+1] the involution adds, unit-tested at every odd D <= 41
    labels, rank, low, masks = order.labels, order.rank, order.low, order.masks
    block = _block(d)
    for p, lx in zip(order.extension, labels):
        lb = labels[rank[(masks[p] ^ block) >> 1 & low]]
        want_t = -lx.t if lx.sign == "+" else -lx.t - 2
        if lb.t != want_t:
            return {"kind": "piece-transport", "x": list(members_of(masks[p]))}
    image = epsilon_images(d)
    for b, x in image.items():
        if image[matching_involution(b, d)] != involution(x, d):
            return {"kind": "not-equivariant", "member": b.to_pairs()}
    for b in pieces(d).get(zero_plus, ()):
        if in_primed_zero_piece(b, d) != in_primed_zero_piece_set(image[b], d):
            return {"kind": "primed-class", "member": b.to_pairs()}
    bad = sector_order_check(d)
    if bad is not None:
        return bad
    # _span_matrix refuses any entry outside [0, 2] as it builds the matrix
    for which in ("++", "+-", "-+", "--"):
        try:
            sector_matrix(d, which)
        except FalsificationError as exc:
            return {"kind": "orbit-matrix", "detail": str(exc)}
    return None


# name -> (check at one D, first D, step); the top is the requested bound
_CHECKS: dict[str, tuple[Callable[[int], dict | None], int, int]] = {
    "construction_equivalence": (_check_construction_equivalence, 0, 1),
    "laminarity": (_check_laminarity, 0, 1),
    "lifting_recursion": (_check_recursion, 2, 1),
    "gamma_invariance": (_check_gamma_invariance, 2, 1),
    "primitive_closed_forms": (_check_primitive_forms, 0, 1),
    "n_membership_transport": (_check_n_transport, 3, 2),
    "piece_bijections": (_check_piece_bijections, 0, 1),
    "unique_bijection": (_check_uniqueness, 0, 1),
    "order_antisymmetry": (_check_antisymmetry, 0, 1),
    "piece_counts": (_check_counting, 0, 1),
    "triangular_closed_form": (_check_triangular_form, 0, 2),
    "involution_suite": (_check_involution_suite, 1, 2),
}


def _ranges(max_d: int, slow: bool) -> dict[str, list[int]]:
    ranges = {}
    for name, (_, first, step) in _CHECKS.items():
        # the filter enumerates raw matchings, so its sweep has a lower cap
        top = min(max_d, 13 if slow else 9) if name == "construction_equivalence" else max_d
        ranges[name] = list(range(first, top + 1, step))
    return ranges


CHECK_NAMES = list(_CHECKS)


def run_checks(max_d: int, slow: bool = False) -> list[RunReport]:
    """Run the twelve checks up to max_d; per-check caps keep the sweep sane."""
    if max_d < 0:
        raise DomainError(f"max-D must be >= 0, got {max_d}")
    guard_d(max_d, 13 if slow else 11, "verification")
    reports = [RunReport(name, ds, True) for name, ds in _ranges(max_d, slow).items()]
    for d in range(max_d + 1):
        for report in reports:
            if not report.passed or d not in report.d_values:
                continue  # a check stops at its first failing D
            start = time.perf_counter()
            try:
                detail = _CHECKS[report.name][0](d)
                report.detail = None if detail is None else {"D": d, **detail}
            except FalsificationError as exc:
                report.detail = {"kind": "falsification", "message": str(exc)}
            except Exception as exc:  # a check that raises fails alone; the suite goes on
                report.detail = {"kind": "error", "type": type(exc).__name__, "message": str(exc)}
            report.passed = report.detail is None
            report.seconds += time.perf_counter() - start
        release(d - 2)
    return reports
