"""Seeded random generators.

All sampling routines in this package take an explicit numpy Generator
(PCG64).  The same seed always reproduces the same draws; independent
substreams are derived with spawn(), which keys children off the parent's
seed sequence rather than its consumed state.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

Rng = np.random.Generator
_BLOCK = 1 << 12  # bounds per numpy call: a long run's draws take bounded memory


def make_rng(seed: int | None = None) -> Rng:
    """Fresh PCG64 generator.  seed=None draws OS entropy (not reproducible)."""
    return np.random.default_rng(seed)


def split_rng(rng: Rng, n: int) -> list[Rng]:
    """n independent child generators, deterministic given the parent's seed."""
    return list(rng.spawn(n))


def _check_int64(n: int, bound: int) -> None:
    if bound >= 2**63:  # past numpy's int64
        raise ValueError(f"n = {n} is too large: its draws need bounds past int64")


def _integers(rng: Rng, table: np.ndarray, count: int, offset: int = 0) -> Iterator:
    """rng.integers(h) for the first `count` rows h of offset + table, in order.

    Rows past the table continue the arithmetic progression it starts.  One
    numpy call per len(table) rows gives the values and rng state of scalar calls."""
    for start in range(0, count, len(table)):
        rows = table[: count - start]
        if offset or start:
            rows = rows + offset + start * (table[1] - table[0])
        yield from rng.integers(rows).tolist()
