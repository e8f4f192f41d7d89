"""The exhaustive verification suite behind `secondbasis verify`.

Twelve checks, each sweeping every applicable D up to the requested bound and
reporting one machine-readable result.  Any failure carries a reproducer
payload; the suite never weakens a check to make it pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .arcs import cyclic_interval_mask
from .basis import (
    CycleError,
    build_order,
    epsilon,
    epsilon_images,
    epsilon_pairs,
    lift_images,
    piece_cardinality,
    primitive_image,
    recursion_check,
    sector_label,
    unique_bijection_check,
)
from .errors import DomainError, FalsificationError
from .f2 import EvenSet
from .family import (
    PieceLabel,
    enumerate_family,
    filter_family,
    ground_size,
    labeled_primitives,
    pieces,
)
from .limits import guard_d
from .variants import (
    in_primed_zero_piece,
    in_primed_zero_piece_set,
    involution,
    matching_involution,
    sector_matrix,
    sector_order_check,
    triangle_identity_ok,
    triangular_epsilon,
)

__all__ = ["RunReport", "run_checks", "CHECK_NAMES"]


@dataclass
class RunReport:
    name: str
    d_values: list[int]
    passed: bool
    detail: dict | None = None
    seconds: float = 0.0

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


def _check_construction_equivalence(ds: list[int]) -> dict | None:
    for d in ds:
        filtered, inductive = set(filter_family(d)), set(enumerate_family(d))
        if filtered != inductive:
            extra, missing = filtered - inductive, inductive - filtered
            return {
                "D": d,
                "filter_only": [b.to_pairs() for b in sorted(extra, key=lambda b: b.arcs)[:3]],
                "inductive_only": [b.to_pairs() for b in sorted(missing, key=lambda b: b.arcs)[:3]],
            }
    return None


def _check_laminarity(ds: list[int]) -> dict | None:
    for d in ds:
        for b in enumerate_family(d):
            ivals = [cyclic_interval_mask(a, b.n) for a in b.arcs]
            for i in range(len(ivals)):
                for j in range(i + 1, len(ivals)):
                    meet = ivals[i] & ivals[j]
                    if meet and meet != ivals[i] and meet != ivals[j]:
                        return {"D": d, "member": b.to_pairs()}
    return None


def _check_recursion(ds: list[int]) -> dict | None:
    for d in ds:
        bad = recursion_check(d)
        if bad is not None:
            return {"D": d, "member": bad[0].to_pairs(), "k": bad[1]}
    return None


def _check_gamma_invariance(ds: list[int]) -> dict | None:
    for d in ds:
        n = ground_size(d)
        for (bp, ex), row in zip(epsilon_pairs(d - 2), lift_images(d)):
            g = ex.gamma()
            for k, lifted in enumerate(row, start=1):
                if EvenSet.from_mask(lifted, n).gamma() != g:
                    return {"D": d, "member": bp.to_pairs(), "k": k}
    return None


def _check_primitive_forms(ds: list[int]) -> dict | None:
    for d in ds:
        for label, q in labeled_primitives(d):
            want = primitive_image(d, label)
            if epsilon(q, d) != want:
                return {"D": d, "piece": str(label), "primitive": q.to_pairs()}
            expect_gamma = label.t
            if want.gamma() != expect_gamma:
                return {"D": d, "piece": str(label), "gamma": want.gamma()}
    return None


def _check_n_transport(ds: list[int]) -> dict | None:
    for d in ds:
        n = ground_size(d)
        for (bp, ex), row in zip(epsilon_pairs(d - 2), lift_images(d)):
            inner = n - 2 in ex  # the top point of [1, N-2]
            for k, lifted in enumerate(row, start=1):
                if bool(lifted >> n & 1) != inner:
                    return {"D": d, "member": bp.to_pairs(), "k": k}
    return None


def _check_piece_bijections(ds: list[int]) -> dict | None:
    for d in ds:
        image = epsilon_images(d)
        for label, members in pieces(d).items():
            images = {image[b] for b in members}
            if len(images) != len(members):
                return {"D": d, "piece": str(label), "kind": "collision"}
            for x in images:
                if sector_label(x, d) != label:
                    return {"D": d, "piece": str(label), "image": x.to_json()}
            if len(members) != piece_cardinality(d, label):
                return {
                    "D": d,
                    "piece": str(label),
                    "size": len(members),
                    "expected": piece_cardinality(d, label),
                }
    return None


def _check_uniqueness(ds: list[int]) -> dict | None:
    for d in ds:
        bad = unique_bijection_check(d)
        if bad is not None:
            return {"D": d, **bad}
    return None


def _check_antisymmetry(ds: list[int]) -> dict | None:
    for d in ds:
        try:
            build_order(d).down  # the down-set pass re-checks every edge
        except CycleError as exc:
            return {"D": d, "cycle": exc.cycle}
    return None


def _check_counting(ds: list[int]) -> dict | None:
    for d in ds:
        fam = enumerate_family(d)
        n = ground_size(d)
        if len(fam) != 1 << (n - 1):
            return {"D": d, "size": len(fam), "expected": 1 << (n - 1)}
        by_piece = pieces(d)
        for label, members in by_piece.items():
            if piece_cardinality(d, label) != len(members):
                return {"D": d, "piece": str(label), "size": len(members)}
        # formulas for absent labels must give zero (n odd, so -n-1 is even)
        for t in range(-n - 1, n + 2, 2):
            labels = (
                [PieceLabel(t)] if d % 2 == 0 else [PieceLabel(t, "+"), PieceLabel(t, "-")]
            )
            for label in labels:
                if label not in by_piece and piece_cardinality(d, label) != 0:
                    return {"D": d, "piece": str(label), "kind": "phantom"}
    return None


def _check_triangular_form(ds: list[int]) -> dict | None:
    for d in ds:
        for b, x in epsilon_pairs(d):
            if triangular_epsilon(b, d) != x:
                return {"D": d, "member": b.to_pairs(), "kind": "closed-form"}
            if not triangle_identity_ok(b, d):
                return {"D": d, "member": b.to_pairs(), "kind": "point-identity"}
    return None


def _check_involution_suite(ds: list[int]) -> dict | None:
    for d in ds:
        order = build_order(d)
        zero_plus = PieceLabel(0, "+")
        # no fixed point, N kept and D+1 flipped are properties of the block
        # [1, D+1] the involution adds, unit-tested at every odd D <= 41
        for x, lx in zip(order.elements, order.labels):
            lb = order.labels[order.position[involution(x, d).mask]]
            want_t = -lx.t if lx.sign == "+" else -lx.t - 2
            if lb.t != want_t:
                return {"D": d, "kind": "piece-transport", "x": x.to_json()}
        image = epsilon_images(d)
        for b, x in image.items():
            if image[matching_involution(b, d)] != involution(x, d):
                return {"D": d, "kind": "not-equivariant", "member": b.to_pairs()}
        for b in pieces(d).get(zero_plus, ()):
            if in_primed_zero_piece(b, d) != in_primed_zero_piece_set(image[b], d):
                return {"D": d, "kind": "primed-class", "member": b.to_pairs()}
        bad = sector_order_check(d)
        if bad is not None:
            return {"D": d, **bad}
        for which in ("++", "+-", "-+", "--"):
            try:
                m = sector_matrix(d, which)
            except FalsificationError as exc:
                return {"D": d, "kind": "orbit-matrix", "detail": str(exc)}
            values = m.entry_values
            if values and (min(values) < 0 or max(values) > 2):
                return {"D": d, "kind": "orbit-entries", "sector": which}
    return None


def _ranges(max_d: int, slow: bool) -> dict[str, list[int]]:
    all_d = list(range(0, max_d + 1))
    even_d = [d for d in all_d if d % 2 == 0]
    odd_d = [d for d in all_d if d % 2 == 1]
    filter_cap = 13 if slow else 9
    return {
        "construction_equivalence": [d for d in all_d if d <= filter_cap],
        "laminarity": all_d,
        "lifting_recursion": [d for d in all_d if d >= 2],
        "gamma_invariance": [d for d in all_d if d >= 2],
        "primitive_closed_forms": all_d,
        "n_membership_transport": [d for d in odd_d if d >= 3],
        "piece_bijections": all_d,
        "unique_bijection": all_d,
        "order_antisymmetry": all_d,
        "piece_counts": all_d,
        "triangular_closed_form": even_d,
        "involution_suite": odd_d,
    }


_CHECKS: dict[str, Callable[[list[int]], dict | None]] = {
    "construction_equivalence": _check_construction_equivalence,
    "laminarity": _check_laminarity,
    "lifting_recursion": _check_recursion,
    "gamma_invariance": _check_gamma_invariance,
    "primitive_closed_forms": _check_primitive_forms,
    "n_membership_transport": _check_n_transport,
    "piece_bijections": _check_piece_bijections,
    "unique_bijection": _check_uniqueness,
    "order_antisymmetry": _check_antisymmetry,
    "piece_counts": _check_counting,
    "triangular_closed_form": _check_triangular_form,
    "involution_suite": _check_involution_suite,
}

CHECK_NAMES = list(_CHECKS)


def run_checks(max_d: int, slow: bool = False) -> list[RunReport]:
    """Run the twelve checks up to max_d; per-check caps keep the sweep sane."""
    if max_d < 0:
        raise DomainError(f"max-D must be >= 0, got {max_d}")
    guard_d(max_d, 13 if slow else 11, "verification")
    ranges = _ranges(max_d, slow)
    reports = []
    for name in CHECK_NAMES:
        ds = ranges[name]
        start = time.perf_counter()
        try:
            detail = _CHECKS[name](ds)
        except FalsificationError as exc:
            detail = {"kind": "falsification", "message": str(exc)}
        except Exception as exc:  # a check that raises fails alone; the suite goes on
            detail = {"kind": "error", "type": type(exc).__name__, "message": str(exc)}
        reports.append(
            RunReport(
                name=name,
                d_values=ds,
                passed=detail is None,
                detail=detail,
                seconds=time.perf_counter() - start,
            )
        )
    return reports
