"""Vectorised replica-batch kernels behind the Monte Carlo estimators.

A continuous-time simple random walk up to time t is built here as its jump
skeleton only: the jump count N ~ Poisson(rate t) and the N uniform
neighbour steps.  The holding times are never drawn one by one.  Given N,
the N+1 sojourn lengths are t times uniform spacings, i.e. t Dirichlet(1,
..., 1), independent of the steps, and every quantity the estimators use
depends on them only through the time spent at each visited site.  By
Dirichlet aggregation (Devroye 1986, *Non-Uniform Random Variate
Generation*, ch. V):

* the time spent in a set the skeleton visits k times is t Beta(k, N+1-k);
* the local times of the visited sites are t G_x / sum G with independent
  G_x ~ Gamma(k_x), k_x the number of visits to x.

The reducers draw exactly these variables after the skeleton, so per jump
only a step, an int32 position and a visit count remain.  In d = 1 a step
is one random bit, the positions come eight at a time from the drawn bytes
through one 256-entry table of within-byte prefix positions
(:data:`_BYTE_PREFIX`), and the visits of all rows are counted by one
``bincount``.  The explicit-sojourn kernel in ``tests/test_kernels.py`` and
the event-driven ``simulate_vsrw`` in ``tests/oracles.py`` sample the laws of
the skeleton and VSRW kernels and serve as their oracles.

Randomness comes from Philox streams keyed by (master seed, *tag, chunk
index) with a fixed chunk size, where ``tag`` is an int or a tuple of ints;
:func:`_chunks` is the one loop that keys them.  :func:`skeletons` is the
one sub-batch loop: it draws the rows of one stream in memory-bounded
sub-batches, and every reducer consumes the stream in a fixed order
(skeleton, then the reducer's draws).  Results are
therefore bit-reproducible and independent of the parallelism degree.
Field values at batched positions come from one lookup, which for d = 1
evaluates the strip of sites a batch spans once and gathers from it.
"""

from __future__ import annotations

import numpy as np

from . import scenery
from .streams import CHUNK, chunk_ranges, philox

#: cap on rows*jumps elements held per sub-batch (keeps peak memory bounded)
_ELEMENT_BUDGET = 2_500_000

#: jump cells of one sub-batch above which :func:`skeletons` refuses to run;
#: the 16-row floor lets a sub-batch outgrow ``_ELEMENT_BUDGET`` past t of
#: about 1.5e5.  Measured peaks of ``additive_functional_batch`` are about
#: 15 bytes per cell in d = 1 and 64 to 91 in d = 2 and 3 (``tools/bench.py``),
#: so the cap holds a sub-batch near 0.15 GB in d = 1 and 0.9 GB in d = 3
_CELL_CAP = 4 * _ELEMENT_BUDGET

#: replicas per Philox stream of :func:`vsrw_endpoints_batch` (fixed: results depend on it)
_VSRW_CHUNK = 16384

#: for each byte value, the walk's position after each of its eight steps
#: (bits most significant first, bit 1 meaning +1), as eight int8 packed in
#: one int64 word; the last of them is the byte's step sum
_BYTE_PREFIX = (
    np.cumsum(
        np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(np.int8) * 2 - 1,
        axis=1,
        dtype=np.int8,
    )
    .view(np.int64)
    .ravel()
)


def _jump_capacity(rate: float, t: float) -> int:
    """Jump columns that a Poisson(rate t) count exceeds with negligible probability."""
    mean_jumps = rate * t
    return int(np.ceil(mean_jumps + 12.0 * np.sqrt(mean_jumps + 1.0) + 30.0))


def _chunks(master_seed: int, tag, count: int, size: int = CHUNK, *suffix: int):
    """Yield ``(lo, hi, rng)`` per replica chunk: the one place a kernel keys a stream.

    Chunk c covers replicas lo:hi of ``chunk_ranges(count, size)``, and
    ``rng`` is the Philox stream keyed by (master_seed, *tag, c, *suffix),
    where ``tag`` is an int or a tuple of ints.
    """
    key = tag if isinstance(tag, tuple) else (tag,)
    for c, (lo, hi) in enumerate(chunk_ranges(count, size)):
        yield lo, hi, philox(master_seed, *key, c, *suffix)


def srw_paths_batch(
    dim: int, rate: float, t: float, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Batch of CTSRW jump skeletons up to time t.

    Returns ``(pos, live)``: the sites in visiting order ``pos int32
    (count, m, dim)``, starting at the origin, and the bool mask ``live
    (count, m)`` of the N+1 sojourns made before t, where N ~ Poisson(rate t)
    is the row's jump count (``live.sum(1) - 1 == N``).  ``m`` is the largest
    N + 1 of the batch; cells past a row's mask carry no time.  Only N and
    the steps are drawn: the reducers draw the time spent at each site.

    In d = 1 the steps are the bits of ``(m + 6) // 8`` drawn bytes per row,
    most significant first, bit 1 meaning +1.  Byte i of a row covers
    positions 1 + 8i ... 8 + 8i: each is the byte's base (the summed steps
    of bytes 0 ... i-1, one cumsum over the bytes) plus a prefix position
    read from :data:`_BYTE_PREFIX`.  ``pos`` is then a view of the first m
    columns of that array, not contiguous.
    """
    jumps = rng.poisson(rate * t, size=count)
    m = int(jumps.max(initial=0)) + 1
    live = np.arange(m) <= jumps[:, None]
    if dim == 1:
        nbytes = (m + 6) // 8
        raw = rng.integers(0, 256, size=(count, nbytes), dtype=np.uint8)
        prefix = _BYTE_PREFIX[raw].view(np.int8).reshape(count, nbytes, 8)
        base = np.zeros((count, nbytes, 1), dtype=np.int32)
        np.cumsum(prefix[:, :-1, 7], axis=1, dtype=np.int32, out=base[:, 1:, 0])
        walk = np.empty((count, 1 + 8 * nbytes), dtype=np.int32)
        walk[:, 0] = 0
        np.add(base, prefix, out=walk[:, 1:].reshape(count, nbytes, 8))
        pos = walk[:, :m, None]
    else:
        coords = rng.integers(0, dim, size=(count, m - 1))
        signs = rng.integers(0, 2, size=(count, m - 1), dtype=np.int8).astype(np.int32) * 2 - 1
        steps = np.zeros((count, m - 1, dim), dtype=np.int32)
        np.put_along_axis(steps, coords[:, :, None], signs[:, :, None], axis=2)
        pos = np.zeros((count, m, dim), dtype=np.int32)
        np.cumsum(steps, axis=1, out=pos[:, 1:, :])
    return pos, live


def endpoints(pos: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Sites ``(rows, dim)`` the skeletons occupy at the horizon (last live sojourn)."""
    return pos[np.arange(pos.shape[0]), live.sum(axis=1) - 1]


def skeletons(dim: int, rate: float, t: float, count: int, rng: np.random.Generator):
    """Yield ``(rows, pos, live)`` for ``count`` skeletons drawn from one stream.

    The replicas come in sub-batches of at most ``_ELEMENT_BUDGET`` jump
    cells, but at least 16 rows, which bounds peak memory; ``rows`` is the
    slice of replicas that ``pos, live`` (see :func:`srw_paths_batch`) cover.
    A sub-batch over ``_CELL_CAP`` cells raises
    :class:`~scenerywalk.scenery.JumpBudgetError` before the first draw.
    """
    capacity = _jump_capacity(rate, t)
    size = max(16, _ELEMENT_BUDGET // capacity)
    if min(count, size) * capacity > _CELL_CAP:
        raise scenery.JumpBudgetError(
            f"walk sub-batch of {min(count, size)} rows x {capacity} jumps (rate {rate:g}, "
            f"t {t:g}) exceeds the cap of {_CELL_CAP} cells"
        )
    for lo, hi in chunk_ranges(count, size):
        pos, live = srw_paths_batch(dim, rate, t, hi - lo, rng)
        yield slice(lo, hi), pos, live


def _skeletons(dim: int, rate: float, t: float, master_seed: int, count: int, tag):
    """Yield ``(rows, rng, pos, live)`` per sub-batch of the keyed replica chunks.

    ``rows`` is the slice of replicas covered; the caller draws its reducer
    variables from ``rng`` before the next sub-batch, which fixes the order
    in which each chunk's stream is consumed.
    """
    for lo, hi, rng in _chunks(master_seed, tag, count):
        for rows, pos, live in skeletons(dim, rate, t, hi - lo, rng):
            yield slice(lo + rows.start, lo + rows.stop), rng, pos, live


def local_times(pos: np.ndarray, live: np.ndarray, t: float, rng: np.random.Generator):
    """Sites and the time spent at each, drawn given the skeletons.

    Returns ``(sites, times)`` with ``sites (rows, k, dim)`` and ``times
    (rows, k)``, each row of ``times`` summing to t.  For d = 1 the live
    visits are counted on the strip of sites the batch spans (all its
    cells, live or not), and a site visited k_x > 0 times gets t G_x / sum G
    with G_x ~ Gamma(k_x).  For d >= 2 each live sojourn gets t E_j / sum E
    with E_j ~ Exp(1), the same Dirichlet(1, ..., 1) law sojourn by sojourn.
    """
    rows, m, dim = pos.shape
    if dim == 1:
        lo = int(pos.min())
        width = int(pos.max()) - lo + 1
        # histogram cell row * width + x - lo, and one trash cell past the
        # last row for the sojourns after the horizon
        trash = rows * width
        cells = np.add(pos[..., 0], (width * np.arange(rows) - lo)[:, None], dtype=np.intp)
        np.copyto(cells, trash, where=~live)
        visits = np.bincount(cells.ravel(), minlength=trash + 1)[:trash].reshape(rows, width)
        del cells  # 8 bytes per sojourn, not needed by the draws below
        times = np.zeros((rows, width))
        visited = visits > 0
        times[visited] = rng.standard_gamma(visits[visited])
        strip = np.arange(lo, lo + width, dtype=np.int32)
        sites = np.broadcast_to(strip[None, :, None], (rows, width, 1))
    else:
        times = rng.standard_exponential((rows, m))
        times *= live
        sites = pos
    times *= t / times.sum(axis=1, keepdims=True)
    return sites, times


def _values_at(values, pos: np.ndarray) -> np.ndarray:
    """``values(sites)`` at batched positions ``pos (rows, k, dim)``.

    For d = 1 the strip of sites the batch spans is evaluated once, as a
    ``(1, w, 1)`` site array, and every position gathers its value from it,
    which is much cheaper than evaluating every sojourn; higher dimensions
    evaluate the positions directly.
    """
    if pos.shape[-1] != 1:
        return values(pos)
    lo = int(pos.min())
    strip = values(np.arange(lo, int(pos.max()) + 1, dtype=np.int64)[None, :, None])
    return np.take_along_axis(strip, pos[..., 0].astype(np.int64) - lo, axis=1)


def pareto_values_at(seeds, pos: np.ndarray, alpha: float) -> np.ndarray:
    """Pareto(alpha) field values at batched positions, one field per row seed."""
    seeds = np.asarray(seeds, dtype=np.uint64)[:, None]
    return _values_at(
        lambda sites: scenery.pareto_from_uniform(scenery.site_uniforms(seeds, sites), alpha), pos
    )


def field_values_at(field, pos: np.ndarray) -> np.ndarray:
    """Values of a fixed field at batched positions."""
    return _values_at(field.values, pos)


def additive_functional_batch(
    alpha: float,
    dim: int,
    rate: float,
    t: float,
    master_seed: int,
    count: int,
    tag,
    site_weight=None,
) -> np.ndarray:
    """A_t = integral of z along the walk, one fresh scenery per replica.

    Walk randomness and field seeds both derive from (master_seed, tag,
    chunk).  ``site_weight(sites) -> (rows, k)``, applied to the sites of
    :func:`local_times`, overrides the Pareto field (degenerate-law oracles).
    """
    field_seeds = np.empty(count, dtype=np.uint64)
    for lo, hi, rng in _chunks(master_seed, tag, count, CHUNK, 0xF1E1D):
        field_seeds[lo:hi] = rng.integers(0, 2**63, size=hi - lo, dtype=np.uint64)
    out = np.empty(count)
    for rows, rng, pos, live in _skeletons(dim, rate, t, master_seed, count, tag):
        sites, times = local_times(pos, live, t, rng)
        if site_weight is not None:
            z = site_weight(sites)
        else:
            z = pareto_values_at(field_seeds[rows], sites, alpha)
        out[rows] = np.einsum("ij,ij->i", z, times)
    return out


def occupation_batch(
    dim: int, rate: float, t: float, master_seed: int, count: int, tag, indicator
) -> np.ndarray:
    """Occupation times int_0^t f(S_u) du per replica for an indicator f.

    ``indicator(pos)`` maps the (rows, m, dim) position array of the walk
    started at the origin to sojourn weights in {0, 1}.  A row whose N+1
    sojourns include k in the set gets t Beta(k, N+1-k): exactly 0 when
    k = 0 and exactly t when k = N+1.
    """
    out = np.empty(count)
    for rows, rng, pos, live in _skeletons(dim, rate, t, master_seed, count, tag):
        hits = np.logical_and(indicator(pos), live).sum(axis=1)
        sojourns = live.sum(axis=1)
        share = (hits == sojourns).astype(np.float64)
        mixed = (hits > 0) & (hits < sojourns)
        share[mixed] = rng.beta(hits[mixed], sojourns[mixed] - hits[mixed])
        out[rows] = t * share
    return out


def srw_endpoints_batch(
    dim: int, rate: float, t: float, master_seed: int, count: int, tag
) -> np.ndarray:
    """Positions S_t of the CTSRW for ``count`` replicas, shape (count, dim)."""
    out = np.empty((count, dim), dtype=np.int64)
    for rows, _, pos, live in _skeletons(dim, rate, t, master_seed, count, tag):
        out[rows] = endpoints(pos, live)
    return out


def _vsrw_radius(dim: int, t: float) -> int:
    """Sup-norm radius that the VSRW's transverse walk leaves by time t with negligible probability."""
    return int(np.ceil(6.0 * np.sqrt(2.0 * dim * t)))


def _ball(field, radius: int) -> np.ndarray:
    """z on the sup-norm ball of given radius, flat in the lexicographic site order."""
    return field.values(scenery.box_sites(radius, field.dim))


def check_vsrw_budget(field, t: float, count: int) -> tuple[int, np.ndarray]:
    """Refuse a layered VSRW run whose expected jump count exceeds ``JUMP_BUDGET``.

    The walk jumps at rate 2 z(x2) + 2d, and its transverse part (total rate
    2d) stays in the sup-norm ball of radius ceil(6 sqrt(2d t)) but with
    negligible probability, so count (2 z_max + 2d) t, with z_max the largest
    z on that ball, estimates the jumps of ``count`` walks up to time t.
    The field is evaluated once on the ball; returns ``(radius, z)`` with z
    flat in the lexicographic order of the ball's sites.
    """
    d = field.dim
    radius = _vsrw_radius(d, t)
    z = _ball(field, radius)
    z_max = float(z.max())
    expected = count * (2.0 * z_max + 2.0 * d) * t
    if expected > scenery.JUMP_BUDGET:
        raise scenery.JumpBudgetError(
            f"VSRW expects about {expected:.3g} jumps (count {count}, t {t:g}, "
            f"max z {z_max:.6g} within radius {radius}), budget {scenery.JUMP_BUDGET}"
        )
    return radius, z


def _recentre(cells: np.ndarray, radius: int, new_radius: int, dim: int) -> np.ndarray:
    """Flat ball indices of the same sites in the ball of ``new_radius >= radius``."""
    coords = np.unravel_index(cells, (2 * radius + 1,) * dim)
    shift = new_radius - radius
    return np.ravel_multi_index(tuple(c + shift for c in coords), (2 * new_radius + 1,) * dim)


def vsrw_endpoints_batch(field, t: float, master_seed: int, count: int, tag) -> np.ndarray:
    """Endpoints X_t of the layered VSRW for ``count`` replicas (fixed field).

    Synchronous event-driven stepping: all active replicas advance one jump
    per iteration with site-dependent exponential clocks (one exponential,
    then one uniform per active row); rows are dropped as they pass the
    horizon.  The field is evaluated once, on the ball of
    :func:`check_vsrw_budget`, which also refuses the run before the first
    draw when its expected cost is too large.  A row carries x1 and the flat
    index of x2 in that ball, and z, 2z and the exit rate 2z + 2d are
    gathered from tables over the ball.  A row about to leave the ball first
    regrows it to radius 2 r + 1 and re-indexes every row, which changes no
    value, since field values are pure functions of the site.
    """
    radius, z_ball = check_vsrw_budget(field, t, count)
    d = field.dim
    side = 2 * radius + 1
    z2_ball, rate_ball = 2.0 * z_ball, 2.0 * z_ball + 2.0 * d
    out = np.empty((count, 1 + d), dtype=np.int64)
    for lo, hi, rng in _chunks(master_seed, tag, count, _VSRW_CHUNK):
        n = hi - lo
        x1 = np.zeros(n, dtype=np.int64)
        cell = np.full(n, z_ball.size // 2)  # the origin, centre of the ball
        clock = np.zeros(n)
        idx = np.arange(n)
        final_x1 = np.empty(n, dtype=np.int64)
        final_cell = np.zeros(n, dtype=np.intp)
        while True:
            rate = rate_ball.take(cell)
            clock += rng.exponential(1.0, size=idx.size) / rate
            done = clock > t
            if np.any(done):
                final_x1[idx[done]] = x1[done]
                final_cell[idx[done]] = cell[done]
                keep = ~done
                x1, cell, clock, idx = x1[keep], cell[keep], clock[keep], idx[keep]
                if not idx.size:
                    break
                rate = rate_ball.take(cell)
            u = rng.random(idx.size) * rate
            z = z_ball.take(cell)
            transverse = u >= z2_ball.take(cell)
            # +1 on u < z, -1 on z <= u < 2z, 0 on a transverse jump
            x1 += 2 * (u < z) - 1 + transverse
            trans = np.flatnonzero(transverse)
            if not trans.size:
                continue
            v = u[trans] - 2.0 * z[trans]
            k = 0 if d == 1 else np.minimum((v // 2.0).astype(np.intp), d - 1)
            sign = np.where(v - 2.0 * k < 1.0, 1, -1)
            while True:
                stride = side ** (d - 1 - k)
                moved = cell[trans] // stride % side + sign
                if moved.min() >= 0 and moved.max() < side:
                    break
                new_radius = 2 * radius + 1
                cell, final_cell = (_recentre(a, radius, new_radius, d) for a in (cell, final_cell))
                radius, side = new_radius, 2 * new_radius + 1
                z_ball = _ball(field, radius)
                z2_ball, rate_ball = 2.0 * z_ball, 2.0 * z_ball + 2.0 * d
            cell[trans] += sign * stride
        out[lo:hi, 0] = final_x1
        out[lo:hi, 1:] = np.stack(np.unravel_index(final_cell, (side,) * d), axis=-1) - radius
    return out


def composed_endpoints_batch(field, t: float, master_seed: int, count: int, tag) -> np.ndarray:
    """Endpoints of (S1 at clock A2_t, S2_t): the time-change representation.

    The transverse walk S2 (per-edge rate 1, total 2d) is built as a jump
    skeleton, and its local times weighted by the field give the clock value
    A2_t; the vertical rate-2 walk at clock time A is then placed exactly by
    thinning its jumps into independent Poisson(A) up and down counts.
    """
    d = field.dim
    out = np.empty((count, 1 + d), dtype=np.int64)
    for rows, rng, pos, live in _skeletons(d, 2.0 * d, t, master_seed, count, tag):
        sites, times = local_times(pos, live, t, rng)
        a2 = np.einsum("ij,ij->i", field_values_at(field, sites), times)
        out[rows, 0] = rng.poisson(a2) - rng.poisson(a2)
        out[rows, 1:] = endpoints(pos, live)
    return out
