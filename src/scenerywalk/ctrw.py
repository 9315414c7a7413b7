"""Continuous-time walks: simple random walk, layered VSRW, heat kernels.

Two rate conventions coexist deliberately.  The standalone scenery results
use the total-rate-1 walk (generator (2d)^-1 Delta); the time-change
representation of the layered conductance walk needs component walks with
per-edge rate 1 (total rate 2 vertically, 2d transversally) so that the
composed process has exactly the conductance rates z and 1 per edge.  Rates
are explicit parameters everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ive

from . import _kernels
from .stats import TailEstimate, tail_estimate


class InsufficientHorizonError(RuntimeError):
    """Vertical path too short for the requested clock value; extend and retry."""


@dataclass(frozen=True)
class WalkPath:
    """Event-list trajectory of a continuous-time nearest-neighbour walk.

    ``jump_times`` are strictly increasing and <= horizon; ``sites[j]`` is the
    position entered at ``jump_times[j]``.  The position is a right-continuous
    step function of time, defined on all of [0, horizon].
    """

    dim: int
    start: tuple
    jump_times: np.ndarray
    sites: np.ndarray  # shape (n_jumps, dim)
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "jump_times", np.asarray(self.jump_times, dtype=np.float64))
        sites = np.asarray(self.sites, dtype=np.int64).reshape(-1, self.dim)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "start", tuple(int(c) for c in self.start))

    @property
    def n_jumps(self) -> int:
        return int(self.jump_times.size)

    def site_sequence(self) -> np.ndarray:
        """Occupied sites in order, starting site included: shape (n_jumps+1, dim)."""
        return np.vstack([np.asarray(self.start, dtype=np.int64), self.sites])

    def position(self, u: float) -> tuple:
        """Position at time u in [0, horizon] (right-continuous)."""
        if not 0 <= u <= self.horizon:
            raise ValueError(f"time {u} outside [0, {self.horizon}]")
        k = int(np.searchsorted(self.jump_times, u, side="right"))
        if k == 0:
            return self.start
        return tuple(int(c) for c in self.sites[k - 1])

    def validate(self) -> None:
        """Check the path invariants; raises ValueError on violation."""
        t = self.jump_times
        if t.size and (np.any(np.diff(t) <= 0) or t[0] <= 0 or t[-1] > self.horizon):
            raise ValueError("jump times must be strictly increasing in (0, horizon]")
        seq = self.site_sequence()
        if t.size and np.any(np.abs(np.diff(seq, axis=0)).sum(axis=1) != 1):
            raise ValueError("consecutive sites must be lattice nearest neighbours")

    def write_csv(self, fh) -> None:
        """Debug dump of the event list (time, coordinates); format not stable."""
        fh.write("time," + ",".join(f"x{i + 1}" for i in range(self.dim)) + "\n")
        fh.write("0," + ",".join(str(c) for c in self.start) + "\n")
        for u, s in zip(self.jump_times, self.sites):
            fh.write(f"{u!r}," + ",".join(str(int(c)) for c in s) + "\n")


@dataclass(frozen=True)
class HKConstants:
    """Envelope constants c1..c4; fitted artifacts, not universal values."""

    c1: float
    c2: float
    c3: float
    c4: float

    def __post_init__(self):
        if min(self.c1, self.c2, self.c3, self.c4) <= 0:
            raise ValueError("heat-kernel constants must be strictly positive")


def simulate_srw(dim: int, total_rate: float, horizon: float, rng: np.random.Generator) -> WalkPath:
    """Continuous-time simple random walk started at the origin.

    Exponential(total_rate) holding times; each jump moves a uniformly random
    coordinate by +-1.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if total_rate <= 0:
        raise ValueError("total_rate must be positive")
    times = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / total_rate)
        if t > horizon:
            break
        times.append(t)
    n = len(times)
    coords = rng.integers(0, dim, size=n)
    signs = rng.integers(0, 2, size=n) * 2 - 1
    steps = np.zeros((n, dim), dtype=np.int64)
    steps[np.arange(n), coords] = signs
    sites = np.cumsum(steps, axis=0)
    return WalkPath(dim=dim, start=(0,) * dim, jump_times=np.array(times), sites=sites, horizon=horizon)


def simulate_vsrw(field, horizon: float, rng: np.random.Generator) -> WalkPath:
    """Variable speed random walk on Z^(1+d) in the layered conductance field.

    At (x1, x2) the exit rate is 2 z(x2) + 2 d: each vertical edge carries
    rate z(x2), each transverse edge rate 1.  Simulated by per-site
    exponential clocks (no uniformisation; the rates are unbounded), after
    the expected cost has passed ``_kernels.check_vsrw_budget``.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    _kernels.check_vsrw_budget(field, horizon, 1)
    d = field.dim
    pos = np.zeros(1 + d, dtype=np.int64)
    t = 0.0
    times, sites = [], []
    while True:
        z = field.value_at(pos[1:])
        rate = 2.0 * z + 2.0 * d
        t += rng.exponential(1.0 / rate)
        if t > horizon:
            break
        u = rng.random() * rate
        if u < 2.0 * z:
            pos[0] += 1 if u < z else -1
        else:
            k = int((u - 2.0 * z) // 2.0)
            pos[1 + k] += 1 if (u - 2.0 * z - 2.0 * k) < 1.0 else -1
        times.append(t)
        sites.append(pos.copy())
    sites_arr = np.array(sites, dtype=np.int64).reshape(-1, 1 + d)
    return WalkPath(dim=1 + d, start=(0,) * (1 + d), jump_times=np.array(times), sites=sites_arr, horizon=horizon)


def time_change_compose(vertical: WalkPath, clock, transverse: WalkPath, t: float) -> tuple:
    """Layered-walk position at time t from its time-change representation.

    Returns (S1 at the clock value A(t), S2 at t) in Z^(1+d).  ``clock`` must
    be the clock process built from ``transverse`` (see functional.clock).
    The component walks must have per-edge rate 1 (vertical total rate 2,
    transverse total rate 2d) for the composition to carry the conductance
    rates z and 1.
    """
    a_t = clock.value(t)
    if vertical.horizon < a_t:
        raise InsufficientHorizonError(
            f"vertical path simulated to {vertical.horizon}, clock requires {a_t}"
        )
    return vertical.position(a_t) + transverse.position(t)


def hk_envelope(t: float, x, constants: HKConstants, dim: int) -> tuple[float, float]:
    """Gaussian/Poissonian heat-kernel envelope as (lower, upper) log-probs.

    For |x| <= t (Euclidean norm): log c - (d/2) log t - c |x|^2 / t with
    (c1, c2) below and (c3, c4) above.  For |x| > t: -c |x| (1 v log(|x|/t)).
    The boundary |x| = t belongs to the Gaussian branch.
    """
    if t < 1:
        raise ValueError("hk_envelope requires t >= 1")
    r = float(np.linalg.norm(np.asarray(x, dtype=np.float64)))
    if r <= t:
        base = -(dim / 2.0) * np.log(t)
        lower = np.log(constants.c1) + base - constants.c2 * r * r / t
        upper = np.log(constants.c3) + base - constants.c4 * r * r / t
    else:
        drift = r * max(1.0, np.log(r / t))
        lower = -constants.c2 * drift
        upper = -constants.c4 * drift
    return float(lower), float(upper)


def transition_prob_exact(dim: int, total_rate: float, t: float, x) -> float:
    """Exact p_t(0, x) for the CTSRW via the Bessel/Skellam series.

    Coordinates of a total-rate-R walk are independent rate-R/d walks on Z,
    and a rate-r walk at time t sits at k with probability e^(-rt) I_k(rt).
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.int64))
    if x.size != dim:
        raise ValueError(f"x must have {dim} coordinates")
    u = total_rate * t / dim
    return float(np.prod([ive(abs(int(k)), u) for k in x]))


def transition_prob_mc(
    dim: int, total_rate: float, t: float, x, replicas: int, rng: np.random.Generator
) -> TailEstimate:
    """Unbiased frequency estimate of p_t(0, x) with a Wilson interval.

    Simulates the jump skeleton (Poisson jump count, uniform neighbour
    choices) and counts endpoint hits, so it is an independent check of the
    Bessel-series value.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if t <= 0:
        raise ValueError("t must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=np.int64))
    if x.size != dim:
        raise ValueError(f"x must have {dim} coordinates")
    hits = 0
    for _, pos, live in _kernels.skeletons(dim, total_rate, t, replicas, rng):
        hits += int(np.sum(np.all(_kernels.endpoints(pos, live) == x, axis=-1)))
    return tail_estimate(hits, replicas, log_t=float(np.log(t)))
