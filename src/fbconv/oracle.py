"""Brute-force exact optima for tiny instances.

Enumerate every deterministic encoder map; the optimal decoder for a fixed
encoder is a per-output argmax, so each map is scored in closed form.  The
minimum error over maps is the exact operational optimum the LP relaxations
are validated against.  Guarded by a cap on the number of maps.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .relaxations import ScInstance, SwInstance

DEFAULT_MAP_CAP = 10_000_000


class EnumerationTooLarge(ValueError):
    """Encoder map count exceeds the enumeration cap."""


def _guard(count: int) -> None:
    if count > DEFAULT_MAP_CAP:
        raise EnumerationTooLarge(
            f"{count} encoder maps exceed the cap of {DEFAULT_MAP_CAP}")


def exact_opt_sc(inst: ScInstance) -> float:
    """Exact minimum error of the point-to-point problem."""
    n, M = inst.n, inst.M
    _guard(M ** n)
    gain = inst.source.mass[:, None] * inst.distortion.within()  # (s, sh)
    nh = gain.shape[1]
    best = -1.0
    for f in product(range(M), repeat=n):
        agg = np.zeros((M, nh))
        np.add.at(agg, np.asarray(f), gain)
        best = max(best, float(agg.max(axis=1).sum()))
    return 1.0 - best


def exact_opt_sid(inst: SwInstance, which: int = 1) -> float:
    """Exact minimum error of recovering one source with the other known at
    the decoder: encoder 1's problem of inst.oriented(which)."""
    sw = inst.oriented(which)
    ne, _, M, _ = sw.dims
    P = sw.joint.mass
    _guard(M ** ne)
    best = -1.0
    for f in product(range(M), repeat=ne):
        farr = np.asarray(f)
        got = 0.0
        for y in range(M):
            block = P[farr == y, :]
            if block.size:
                got += float(block.max(axis=0).sum())
        best = max(best, got)
    return 1.0 - best


def exact_opt_sw(inst: SwInstance) -> float:
    """Exact minimum error of the two-encoder problem: the decoder maps each
    output pair to the heaviest source pair in the product preimage."""
    n1, n2, m1, m2 = inst.dims
    _guard((m1 ** n1) * (m2 ** n2))
    P = inst.joint.mass
    best = -1.0
    for f1 in product(range(m1), repeat=n1):
        i1 = np.broadcast_to(np.asarray(f1)[:, None], (n1, n2))
        for f2 in product(range(m2), repeat=n2):
            i2 = np.broadcast_to(np.asarray(f2)[None, :], (n1, n2))
            agg = np.zeros((m1, m2))
            np.maximum.at(agg, (i1, i2), P)
            best = max(best, float(agg.sum()))
    return 1.0 - best
