"""Deterministic instance generators and tightness verifiers.

The two extremal families that make the Helly numbers sharp:

* the simplex-like set e_1, ..., e_d, -(e_1+...+e_d): it sums to zero,
  every d of the d+1 vectors are linearly independent, and its positive
  hull is all of R^d while every proper subset is pointed.  (True regular
  simplex vertices are irrational; this rational stand-in has every
  combinatorial property that matters.)
* the axis pairs +-e_1, ..., +-e_k, whose lineality dimension drops as
  soon as any single vector is removed.

Random instances come from SplitMix64, spelled out below so that seeds
mean the same thing on any platform or implementation:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state; z <- (z xor z>>30) * 0xBF58476D1CE4E5B9 mod 2^64
    z <- (z xor z>>27) * 0x94D049BB133111EB mod 2^64
    output <- z xor z>>31

Coordinates are output mod (2*bound+1) minus bound; a vector drawn as all
zeros is discarded and redrawn.

Every generator writes integer rows straight into a vector set's integer
form, with scale 1, and builds no Fraction.
"""

from __future__ import annotations

from .cone import HalfspaceSystem, max_cone_dim
from .ratlin import VectorSet

__all__ = [
    "SplitMix64",
    "gen_simplex_like",
    "gen_axis_pairs",
    "gen_example2",
    "gen_random",
    "verify_tightness_example1",
    "verify_tightness_example2",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """The SplitMix64 generator; tiny, well mixed, and easy to port."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def skip(self, n: int) -> "SplitMix64":
        """Pass over the next n outputs in O(1): the state is a counter
        that each output advances by the golden gamma."""
        self.state = (self.state + n * _GOLDEN) & _MASK64
        return self

    def next_in_range(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] via modulo (bias is irrelevant
        here; determinism is the contract)."""
        return lo + self.next_u64() % (hi - lo + 1)


def _int_set(d: int, rows) -> VectorSet:
    """The vector set of integer rows, each its own integer form."""
    return VectorSet.from_int_form(d, ((1, r) for r in rows))


def gen_simplex_like(d: int) -> VectorSet:
    """e_1, ..., e_d followed by -(e_1 + ... + e_d)."""
    if d < 1:
        raise ValueError("d must be positive")
    rows = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    return _int_set(d, rows + [(-1,) * d])


def gen_axis_pairs(k: int, d: int) -> VectorSet:
    """+-e_1, ..., +-e_k embedded in dimension d, interleaved as
    +e_1, -e_1, +e_2, -e_2, ..."""
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in [1, {d}], got {k}")
    return _int_set(d, [tuple(sign * (i == j) for j in range(d))
                        for i in range(k) for sign in (1, -1)])


def gen_example2(d: int, k: int) -> HalfspaceSystem:
    """Halfspace system with normals +-e_i for i <= d-k+1; its
    intersection is a copy of R^(k-1), one halfspace short of holding a
    k-dimensional cone."""
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in [1, {d}], got {k}")
    return HalfspaceSystem(gen_axis_pairs(d - k + 1, d))


def gen_random(d: int, n: int, bound: int, seed: int) -> VectorSet:
    """n nonzero integer vectors with entries in [-bound, bound], drawn
    from SplitMix64(seed); identical across runs and platforms."""
    if d < 1 or n < 1 or bound < 1:
        raise ValueError("d, n, bound must all be positive")
    rng = SplitMix64(seed)
    rows = []
    while len(rows) < n:
        v = tuple(rng.next_in_range(-bound, bound) for _ in range(d))
        if any(v):
            rows.append(v)
    return _int_set(d, rows)


def verify_tightness_example1(d: int) -> bool:
    """The simplex-like system pins m(k,d) >= d+1: the full intersection
    is the origin alone, yet dropping any one halfspace leaves a
    d-dimensional cone."""
    if d < 1:
        raise ValueError("d must be positive")
    full = HalfspaceSystem(gen_simplex_like(d))
    if max_cone_dim(full) != 0:
        return False
    n = len(full)
    for j in range(n):
        sub = full.subsystem([i for i in range(n) if i != j])
        if max_cone_dim(sub) != d:
            return False
    return True


def verify_tightness_example2(d: int, k: int) -> bool:
    """The axis-pair system pins m(k,d) >= 2(d-k+1): the full intersection
    holds only a (k-1)-dimensional cone, yet dropping any one halfspace
    makes room for a k-dimensional one."""
    full = gen_example2(d, k)
    if max_cone_dim(full) != k - 1:
        return False
    n = len(full)
    for j in range(n):
        sub = full.subsystem([i for i in range(n) if i != j])
        if max_cone_dim(sub) < k:
            return False
    return True
