"""Desk-scale resource guards and the one store of per-D tables.

Exhaustive enumerations are capped so a stray argument cannot wedge the
process.  The environment variable SBL_MAX_D replaces every default cap.
Each table built for one D (``per_d``) is kept under D until ``release``.
"""

from __future__ import annotations

import os
from functools import wraps

from .errors import ResourceGuardError

ENV_VAR = "SBL_MAX_D"

_store: dict[int, dict] = {}  # D -> {builder: its table at D}


def max_d_cap(default: int) -> int:
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from None


def guard_d(d: int, default_cap: int, what: str) -> None:
    cap = max_d_cap(default_cap)
    if d > cap:
        raise ResourceGuardError(
            f"{what} is guarded at D <= {cap} (requested D={d}); "
            f"set {ENV_VAR} to override"
        )


def per_d(build):
    """``build(d)`` built once and stored under D; a build that raises stores nothing."""

    @wraps(build)
    def stored(d: int):
        tables = _store.setdefault(d, {})
        if build not in tables:
            tables[build] = build(d)
        return tables[build]

    return stored


def release(below: int) -> None:
    """Drop the tables of every D below ``below``."""
    for d in [d for d in list(_store) if d < below]:
        _store.pop(d, None)
