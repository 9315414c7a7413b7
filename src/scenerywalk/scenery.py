"""Deterministic heavy-tailed i.i.d. scenery on Z^d.

A scenery attaches a value z(x) >= 1 to every lattice site.  Site values are
pure functions of ``(seed, alpha, x)``: they are produced by a counter-based
hash of the packed coordinates, mapped through the exact Pareto inverse CDF

    P(z > r) = r^(-alpha)   for r >= 1.

Nothing is stored, so fields of any extent cost O(1) memory and are safe to
query concurrently and out of order.

Hash scheme (needed to reproduce fields elsewhere; integers are uint64, mod 2^64):

1. each signed coordinate c is zig-zag encoded to uint64:
   ``enc(c) = (c << 1) ^ (c >> 63)`` on two's-complement int64;
2. starting from ``h = splitmix64(seed)`` (the seed is mixed first so that
   nearby seeds give unrelated fields), fold coordinates in order with
   ``h = splitmix64(h XOR enc(c))`` where splitmix64 is the standard
   Steele-Lea-Flood finalizer;
3. the top 53 bits give a uniform ``u = ((h >> 11) + 1) * 2**-53`` in (0, 1];
4. the site value is ``u ** (-1/alpha)`` (u = 1 maps to the lower endpoint 1).

Steps 1-3 are exact, so the uniforms are portable bit for bit (the tests
check them against a pure-Python reference); step 4 is numpy's ``power``,
whose SIMD and scalar loops differ by an ulp on some inputs, so site values
are bit-exact only within one numpy SIMD dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MUL2 = np.uint64(0x94D049BB133111EB)

#: Enumeration guard above which :func:`grid_sites` refuses to materialise a box.
SITE_BUDGET = 1 << 24

#: Expected-jump guard above which the walk kernels refuse to run: the
#: layered VSRW simulators on their expected jumps, the skeleton kernels on
#: their expected sojourns count (rate t + 1).
JUMP_BUDGET = 1 << 32


class SiteBudgetError(RuntimeError):
    """Raised when a site enumeration would exceed :data:`SITE_BUDGET`."""


class JumpBudgetError(RuntimeError):
    """Raised when a walk kernel's cost exceeds its budget.

    The layered VSRW simulators refuse runs expected to exceed
    :data:`JUMP_BUDGET` jumps.  The skeleton kernels refuse calls whose
    replicas expect more than :data:`JUMP_BUDGET` sojourns in all, and
    sub-batches with more jump cells than their memory cap.  Every refusal
    comes before the first draw.
    """


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 on uint64 arrays, wrapping mod 2^64 (0-d inputs are numpy scalars, which warn)."""
    with np.errstate(over="ignore"):
        z = x + _SM_GAMMA
        z = (z ^ (z >> np.uint64(30))) * _SM_MUL1
        z = (z ^ (z >> np.uint64(27))) * _SM_MUL2
        return z ^ (z >> np.uint64(31))


def _zigzag(c: np.ndarray) -> np.ndarray:
    """Injective signed -> unsigned encoding, 0,-1,1,-2,2 -> 0,1,2,3,4."""
    c = c.astype(np.int64, copy=False)
    return ((c << np.int64(1)) ^ (c >> np.int64(63))).view(np.uint64)


def site_uniforms(seed, sites) -> np.ndarray:
    """Uniform (0, 1] draws attached to lattice sites.

    ``sites`` is an integer array whose last axis runs over coordinates;
    ``seed`` is a uint64 scalar or an array broadcastable against the leading
    axes of ``sites`` (an array of seeds yields independent fields).
    """
    coords = _zigzag(np.asarray(sites))
    h = _splitmix64(np.asarray(seed, dtype=np.uint64))
    for i in range(coords.shape[-1]):
        h = _splitmix64(h ^ coords[..., i])
    return ((h >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


def pareto_from_uniform(u, alpha: float):
    """Inverse CDF of the exact Pareto law: u in (0, 1] -> u**(-1/alpha) >= 1."""
    return np.asarray(u, dtype=np.float64) ** (-1.0 / alpha)


@dataclass(frozen=True)
class SceneryField:
    """Lazily evaluated i.i.d. Pareto(alpha) field on Z^dim.

    Every site value is >= 1, finite, and bit-exactly reproducible from
    ``(seed, alpha, site)``.
    """

    alpha: float
    dim: int
    seed: int

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")

    def values(self, sites) -> np.ndarray:
        """Field values at an array of sites (last axis = coordinates)."""
        sites = np.asarray(sites, dtype=np.int64)
        if sites.shape[-1] != self.dim:
            raise ValueError(f"expected sites with last axis {self.dim}, got {sites.shape}")
        return pareto_from_uniform(site_uniforms(np.uint64(self.seed), sites), self.alpha)


@dataclass(frozen=True)
class ConstantField:
    """Degenerate scenery z == value, used for law overrides in oracles."""

    value: float
    dim: int

    def values(self, sites) -> np.ndarray:
        return np.full(np.shape(sites)[:-1], float(self.value))


def _count_sites(ranges) -> int:
    """Sites of a product of inclusive (lo, hi) ranges; refuses more than :data:`SITE_BUDGET`."""
    n = math.prod(int(hi) - int(lo) + 1 for lo, hi in ranges)
    if n > SITE_BUDGET:
        raise SiteBudgetError(f"box with {n} sites exceeds budget {SITE_BUDGET}")
    return n


def box_sites(radius: int, dim: int) -> np.ndarray:
    """All lattice sites with sup-norm <= radius, lexicographically ordered."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return grid_sites([(-radius, radius)] * dim)


def grid_sites(ranges) -> np.ndarray:
    """Sites of a product of inclusive (lo, hi) ranges, lexicographically ordered.

    Refuses a product of more than :data:`SITE_BUDGET` sites with
    :class:`SiteBudgetError` before allocating anything.
    """
    ranges = [(int(lo), int(hi)) for lo, hi in ranges]
    _count_sites(ranges)
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in ranges]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def exceedance_prob(alpha: float, dim: int, radius: int, threshold: float) -> float:
    """Exact P(max of z over the box >= s) = 1 - (1 - s^(-alpha))^N.

    ``N = (2 radius + 1)^dim`` is the number of box sites; requires s >= 1.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if threshold == 1:
        return 1.0
    n_sites = (2 * radius + 1) ** dim
    # expm1/log1p keep precision when s^(-alpha) is tiny
    return float(-np.expm1(n_sites * np.log1p(-threshold ** (-alpha))))
