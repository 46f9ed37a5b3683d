"""Deterministic seed derivation.

Every randomized stage (example sampling, Monte Carlo baseline, each
table row) gets its own child seed derived from the master seed and a
stable label. Adding a new consumer therefore never shifts the random
streams of existing ones.
"""

from __future__ import annotations

import hashlib

from .errors import check_int

__all__ = ["derive_seed"]


def derive_seed(master: int, label: str) -> int:
    """A 64-bit child seed, a pure function of (master, label); the
    master seed is any int."""
    check_int("seed", master)
    digest = hashlib.sha256(f"{master}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
