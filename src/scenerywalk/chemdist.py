"""Chemical distance on the layered conductance graph of Z^(1+d).

Sites are written (x1, x2) with x1 in Z (the fast direction) and x2 in Z^d.
Edges along e_1 carry conductance z(x2), transverse edges conductance 1;
the chemical distance weighs an edge by 1/(sqrt(conductance) v 1), so
vertical edges cost z(x2)^(-1/2) <= 1 and transverse edges cost exactly 1.

Three evaluation routes of increasing speed, each checked against the one
below it:

* ``brute_force_distance`` enumerates all simple paths (tiny boxes only);
* ``chemical_distance`` runs Dijkstra on an explicit box;
* ``detour_distance`` uses the layered structure: the weight depends only on
  the transverse coordinate, so some optimal path does all its vertical
  moves at a single transverse site w, giving the exact closed search
      min over w of  |x2 - w|_1 + |w - y2|_1 + |x1 - y1| * z(w)^(-1/2).
  Any w whose transverse excess exceeds |x1 - y1| is dominated by the
  straight path, which bounds the search region.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .scenery import SceneryField, _count_sites, grid_sites
from .stats import loglog_slope


def edge_weight(conductance):
    """Chemical edge weight 1/(sqrt(conductance) v 1), elementwise on arrays."""
    c = np.asarray(conductance, dtype=np.float64)
    if np.any(c <= 0):
        raise ValueError(f"conductance must be positive, got {c.min()}")
    return 1.0 / np.maximum(np.sqrt(c), 1.0)


@dataclass(frozen=True)
class LayeredGraphSpec:
    """Field plus a finite box of Z^(1+d) on which searches run.

    ``box`` is a tuple of (lo, hi) inclusive coordinate ranges, one per
    coordinate of Z^(1+d) (so len(box) == 1 + field.dim).

    A vertical edge's weight depends only on its transverse site x2, so the
    spec evaluates the field once, with one ``field.values`` call over the
    transverse sites of the box, the first time a vertical edge is weighed;
    every later :meth:`weight` call reads that table.  The field must not
    change while the spec is in use.
    """

    field: object
    box: tuple

    def __post_init__(self):
        if len(self.box) != 1 + self.field.dim:
            raise ValueError("box must have one (lo, hi) range per coordinate of Z^(1+d)")
        for lo, hi in self.box:
            if lo > hi:
                raise ValueError(f"empty box range ({lo}, {hi})")

    def contains(self, site) -> bool:
        return all(lo <= c <= hi for c, (lo, hi) in zip(site, self.box))

    @cached_property
    def _vertical_weights(self) -> dict:
        """Vertical edge weight per transverse site of the box (x2 tuple -> weight)."""
        sites = grid_sites(self.box[1:])
        weights = edge_weight(self.field.values(sites))
        return dict(zip(map(tuple, sites.tolist()), weights.tolist()))

    def weight(self, a: tuple, b: tuple) -> float:
        """Weight of the edge between nearest neighbours a and b of the box."""
        if a[0] != b[0]:
            return self._vertical_weights[a[1:]]
        return 1.0


@dataclass(frozen=True)
class ChemDistance:
    """Distance value plus whether the search box provably contains a geodesic."""

    value: float
    box_sufficient: bool


def l1(x, y) -> int:
    return int(np.sum(np.abs(np.asarray(x, dtype=np.int64) - np.asarray(y, dtype=np.int64))))


def sufficient_box(x, y) -> tuple:
    """Box whose restriction provably attains the unrestricted infimum.

    Extends the bounding box of {x, y} by 2 * |x - y|_1 in every direction;
    since all weights are <= 1, any path leaving it is longer than the
    straight monotone path.
    """
    margin = 2 * l1(x, y)
    return tuple((min(a, b) - margin, max(a, b) + margin) for a, b in zip(x, y))


def _box_contains_box(outer: tuple, inner: tuple) -> bool:
    return all(ol <= il and ih <= oh for (ol, oh), (il, ih) in zip(outer, inner))


def _neighbours(site: tuple, box: tuple):
    for i in range(len(site)):
        for s in (1, -1):
            c = site[i] + s
            lo, hi = box[i]
            if lo <= c <= hi:
                yield site[:i] + (c,) + site[i + 1 :]


def _dijkstra_settle(box: tuple, weight: Callable[[tuple, tuple], float], x: tuple):
    """Yield (site, distance from x) for the box sites in settle order."""
    dist = {x: 0.0}
    heap = [(0.0, x)]
    while heap:
        d, site = heapq.heappop(heap)
        if d > dist[site]:
            continue
        yield site, d
        for nb in _neighbours(site, box):
            nd = d + weight(site, nb)
            if nd < dist.get(nb, np.inf):
                dist[nb] = nd
                heapq.heappush(heap, (nd, nb))


def dijkstra_distance(box: tuple, weight: Callable[[tuple, tuple], float], x: tuple, y: tuple) -> float:
    """Shortest weighted path between x and y restricted to the box."""
    y = tuple(y)
    for site, d in _dijkstra_settle(box, weight, tuple(x)):
        if site == y:
            return d
    return float("inf")


def dijkstra_all(box: tuple, weight: Callable[[tuple, tuple], float], x: tuple) -> dict:
    """Single-source distances from x to every box site (for metric checks)."""
    return dict(_dijkstra_settle(box, weight, tuple(x)))


def chemical_distance(spec: LayeredGraphSpec, x, y) -> ChemDistance:
    """Exact chemical distance on the box graph of ``spec``.

    The value is the infimum over nearest-neighbour paths inside the box;
    ``box_sufficient`` is False when the box does not contain the
    safety margin of :func:`sufficient_box`, in which case the unrestricted
    infimum might be smaller.
    """
    x, y = tuple(int(c) for c in x), tuple(int(c) for c in y)
    if not (spec.contains(x) and spec.contains(y)):
        raise ValueError("x and y must lie inside the search box")
    _count_sites(spec.box)
    value = dijkstra_distance(spec.box, spec.weight, x, y)
    return ChemDistance(value=value, box_sufficient=_box_contains_box(spec.box, sufficient_box(x, y)))


_BRUTE_FORCE_MAX_SITES = 12


def brute_force_distance(spec: LayeredGraphSpec, x, y) -> float:
    """Minimum over all simple paths by exhaustive search (oracle, tiny boxes)."""
    if _count_sites(spec.box) > _BRUTE_FORCE_MAX_SITES:
        raise ValueError(f"brute force is limited to boxes with <= {_BRUTE_FORCE_MAX_SITES} sites")
    x, y = tuple(int(c) for c in x), tuple(int(c) for c in y)
    best = [np.inf]

    def walk(site, seen, cost):
        if cost >= best[0]:
            return
        if site == y:
            best[0] = cost
            return
        for nb in _neighbours(site, spec.box):
            if nb not in seen:
                walk(nb, seen | {nb}, cost + spec.weight(site, nb))

    walk(x, {x}, 0.0)
    return float(best[0])


#: margin of the first box that :func:`detour_distance` searches
_DETOUR_FIRST_MARGIN = 16


def detour_distance(field, x, y) -> float:
    """Exact unrestricted chemical distance via the single-detour reduction.

    Valid because edge weights depend only on the transverse coordinate and
    vertical weights never exceed transverse ones (z >= 1); see module
    docstring.  The search region is the box of the transverse sites within
    ``margin = |x1 - y1| // 2 + 1`` of the bounding box of x2 and y2, and
    inputs whose region exceeds ``SITE_BUDGET`` are refused before any site
    is evaluated.  A site outside the smaller box of margin m costs at least
    ``|x2 - y2|_1 + 2 (m + 1)``, so the boxes m = 16, 32, ... are searched in
    turn, and the search stops at the first whose minimum is within that
    bound.  Every site's cost is the same expression in every box, so the
    value is the minimum over the whole region, bit for bit.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    d = field.dim
    if x.size != 1 + d or y.size != 1 + d:
        raise ValueError("sites must live in Z^(1+d)")
    dx1 = abs(int(x[0] - y[0]))
    x2, y2 = x[1:], y[1:]
    base = int(np.abs(x2 - y2).sum())
    if dx1 == 0:
        return float(base)
    margin = dx1 // 2 + 1
    lo, hi = np.minimum(x2, y2), np.maximum(x2, y2)
    _count_sites(zip(lo - margin, hi + margin))
    m = min(_DETOUR_FIRST_MARGIN, margin)
    while True:
        w = grid_sites(zip(lo - m, hi + m))
        z = field.values(w)
        excess = np.abs(w - x2).sum(axis=-1) + np.abs(w - y2).sum(axis=-1)
        best = float((excess + dx1 / np.sqrt(z)).min())
        if m == margin or best <= base + 2 * (m + 1):
            return best
        m = min(2 * m, margin)


def round_half_away(v: float) -> int:
    """Closest lattice point with half-integers rounded away from zero."""
    return int(np.sign(v) * np.floor(abs(v) + 0.5))


def target_site(t: float, delta: float, gamma: float, dim: int) -> np.ndarray:
    """t^delta e_1 + t^gamma e rounded half away from zero, e the first transverse direction."""
    target = np.zeros(1 + dim, dtype=np.int64)
    target[0] = round_half_away(t**delta)
    target[1] = round_half_away(t**gamma)
    return target


@dataclass(frozen=True)
class ScalingFit:
    """Log-log slope of chemical distances over a t grid."""

    slope: float
    stderr: float
    rows: tuple  # (t, seed, distance) triples


def chemdist_scaling(
    alpha: float,
    dim: int,
    delta: float,
    gamma: float,
    t_grid: Sequence[float],
    seeds: Sequence[int],
) -> ScalingFit:
    """Fit the growth exponent of d(0, t^delta e_1 + t^gamma e) in t.

    Targets are the lattice points of :func:`target_site`.  Requires delta > 1/2 and a
    geometric grid with at least 5 points; returns the pooled log-log
    regression over all (t, seed) distances.
    """
    if delta <= 0.5:
        raise ValueError("chemdist_scaling requires delta > 1/2")
    t_grid = [float(t) for t in t_grid]
    if len(t_grid) < 5:
        raise ValueError("t_grid must contain at least 5 points")
    rows = []
    origin = np.zeros(1 + dim, dtype=np.int64)
    for t in t_grid:
        target = target_site(t, delta, gamma, dim)
        for seed in seeds:
            dist = detour_distance(SceneryField(alpha=alpha, dim=dim, seed=int(seed)), origin, target)
            rows.append((t, int(seed), dist))
    fit = loglog_slope([r[0] for r in rows], [r[2] for r in rows])
    return ScalingFit(slope=fit.slope, stderr=fit.stderr, rows=tuple(rows))
