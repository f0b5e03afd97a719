"""Independent ground truth for the SED system.

Two generators that share nothing with the series solver:

* :func:`oracle_solve` builds the generator of the original ``(q1, q2)``
  chain on a finite box (arrivals that would overflow are suppressed, so the
  boundary acts as loss) and solves the stationary equations by sparse LU.
  The probability within one step of the box edge is reported so callers can
  certify that the truncation does not pollute the interior.
* :func:`simulate` runs the arrival/routing/service dynamics event by event
  with a self-contained xorshift64* generator, drawn in bulk by jump-ahead,
  so runs are reproducible to the bit from the seed alone, across platforms
  and implementations.

Both export plain ``(q1, q2) -> probability`` maps; :func:`compare` diffs two
such maps over a window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress

import numpy as np

from .errors import BoxTooSmall, InvalidParam, SingularGenerator
from .model import ModelParams

__all__ = [
    "TruncationBox",
    "SimConfig",
    "OracleResult",
    "SimResult",
    "CompareReport",
    "oracle_solve",
    "simulate",
    "sim_standard_errors",
    "compare",
    "XorShift64Star",
]


@dataclass(frozen=True)
class TruncationBox:
    """Inclusive state-space box ``[0, q1max] x [0, q2max]``."""

    q1max: int
    q2max: int


@dataclass(frozen=True)
class SimConfig:
    events: int
    seed: int = 0
    warmup: int = 0

    def __post_init__(self):
        if self.warmup < 0 or self.events <= self.warmup:
            raise InvalidParam("need events > warmup >= 0")


@dataclass
class OracleResult:
    """Stationary probabilities on the box plus the edge-mass diagnostic."""

    probs: dict[tuple[int, int], float]
    boundary_mass: float


@dataclass
class SimResult:
    """Time-weighted state frequencies; batches support error estimates."""

    freq: dict[tuple[int, int], float]
    total_time: float
    batches: list[tuple[float, dict[tuple[int, int], float]]] = field(
        default_factory=list
    )


@dataclass
class CompareReport:
    max_rel_err: float
    max_abs_err: float
    worst_state: tuple[int, int] | None


def _route_arrival(q1, q2, s):
    """-1: join queue 1, +1: join queue 2, 0: tie; for ints or integer arrays."""
    gap = s * (q1 + 1) - (q2 + 1)
    return (gap > 0) * 1 - (gap < 0) * 1


def oracle_solve(
    p: ModelParams, box: TruncationBox, mass_tol: float = 1e-6
) -> OracleResult:
    """Direct stationary solve of the queue-length chain on a finite box.

    Raises :class:`BoxTooSmall` if the box cannot hold a full diagonal band
    (either side below ``4*s``) or if the stationary mass within one step of
    the edge exceeds ``mass_tol``.
    """
    # scipy costs about 0.3 s to import; no other command needs it
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    s, q = p.s, p.q
    lam = p.arrival_rate
    n1, n2 = box.q1max + 1, box.q2max + 1
    if box.q1max < 4 * s or box.q2max < 4 * s:
        raise BoxTooSmall(
            f"box {box.q1max}x{box.q2max} is below the minimum extent {4 * s}"
        )

    q1, q2 = np.indices((n1, n2))
    side = _route_arrival(q1, q2, s)
    here = q1 * n2 + q2
    # (allowed, index step, rate) of each move, in the order the outflow of a
    # state sums them; a tie allows both joins, one of them at rate 0 when q
    # is 0 or 1, and that zero stays an explicit entry of the generator
    moves = (
        ((side <= 0) & (q1 < box.q1max), n2, lam * np.where(side == 0, q, 1.0)),
        ((side >= 0) & (q2 < box.q2max), 1, lam * np.where(side == 0, 1 - q, 1.0)),
        (q1 > 0, -n2, np.ones((n1, n2))),
        (q2 > 0, -1, np.full((n1, n2), float(s))),
    )
    outflow = sum(np.where(allowed, rate, 0.0) for allowed, _, rate in moves)
    src = [here[allowed] for allowed, _, _ in moves] + [here.ravel()]
    dst = [here[allowed] + step for allowed, step, _ in moves] + [here.ravel()]
    val = [rate[allowed] for allowed, _, rate in moves] + [-outflow.ravel()]
    src, dst, val = (np.concatenate(x) for x in (src, dst, val))
    # balance rows A @ pi = 0 with row 0 replaced by pi[0] = 1: one unit entry
    # instead of a row of ones, which would fill the LU factors
    keep = dst > 0
    size = n1 * n2
    dst = np.append(dst[keep], 0)
    src = np.append(src[keep], 0)
    val = np.append(val[keep], 1.0)
    A = sp.coo_matrix((val, (dst, src)), shape=(size, size))
    b = np.zeros(size)
    b[0] = 1.0
    try:
        pi = spla.spsolve(A.tocsc(), b)
    except Exception as exc:  # superlu reports singularity via RuntimeError
        raise SingularGenerator(f"sparse solve failed: {exc}") from exc
    if not np.all(np.isfinite(pi)):
        raise SingularGenerator("sparse solve produced non-finite entries")
    pi /= pi.sum()
    if pi.min() < -1e-9:
        raise SingularGenerator(f"stationary solve went negative: {pi.min():.3e}")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()

    # cumsum adds the edge states one after another in row-major order
    edge = (q1 >= box.q1max - 1) | (q2 >= box.q2max - 1)
    boundary = float(np.cumsum(pi[edge.ravel()])[-1])
    if boundary > mass_tol:
        raise BoxTooSmall(
            f"boundary mass {boundary:.3e} exceeds {mass_tol:.1e}; enlarge the box"
        )
    probs = dict(zip(zip(q1.ravel().tolist(), q2.ravel().tolist()), pi.tolist()))
    return OracleResult(probs=probs, boundary_mass=boundary)


LANES = 256
CHUNK = 1 << 12  # events per bulk draw; larger chunks cost memory, not time
_BITS = np.arange(64, dtype=np.uint64)


def _gf2_apply(cols: np.ndarray, x) -> np.ndarray:
    """Apply 64x64 GF(2) matrices, given by their columns as words, to ``x``."""
    bits = (np.asarray(x, dtype=np.uint64)[..., None] >> _BITS) & np.uint64(1)
    return np.bitwise_xor.reduce(cols * bits, axis=-1)


def _step(x: np.ndarray) -> np.ndarray:
    x = x ^ (x >> np.uint64(12))
    x ^= x << np.uint64(25)
    return x ^ (x >> np.uint64(27))


@lru_cache(maxsize=8)
def _lane_jumps(length: int) -> np.ndarray:
    """Columns of ``T**(j * length)`` for each lane ``j``, shape ``(LANES, 64)``."""
    jump = basis = np.uint64(1) << _BITS
    for _ in range(length):
        jump = _step(jump)
    out = [basis]
    for _ in range(1, LANES):
        out.append(_gf2_apply(jump, out[-1]))
    return np.array(out)


class XorShift64Star:
    """xorshift64* PRNG: shifts (12, 25, 27), multiplier 2685821657736338717.

    The seed is whitened through one splitmix64 step (increment
    0x9E3779B97F4A7C15, mixers 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB) so
    that seed 0 yields a nonzero state.  ``uniform`` returns the top 53 bits
    of the scrambled output scaled to [0, 1).

    :meth:`states` makes the stream in bulk.  The step ``T`` is linear over
    GF(2), so the state ``k`` draws ahead is a product with the 64x64 bit
    matrix ``T**k`` (jump-ahead).  ``LANES`` lanes, each a stretch of the
    stream, start from jumped states and step side by side on a ``uint64``
    array; end to end they are the states :meth:`next_u64` steps through.
    """

    MASK = (1 << 64) - 1
    MULT = 0x2545F4914F6CDD1D

    def __init__(self, seed: int):
        x = (seed + 0x9E3779B97F4A7C15) & self.MASK
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & self.MASK
        x ^= x >> 31
        self.state = x or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & self.MASK
        x ^= x >> 27
        self.state = x
        return (x * self.MULT) & self.MASK

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def states(self, n: int) -> np.ndarray:
        """The next ``n >= 1`` states as ``uint64``; the generator moves past them."""
        length = -(-n // LANES)
        x = _gf2_apply(_lane_jumps(length), self.state)
        out = np.empty((length, LANES), dtype=np.uint64)
        for k in range(length):
            x = out[k] = _step(x)
        out = out.T.ravel()[:n]
        self.state = int(out[-1])
        return out

    @classmethod
    def uniforms(cls, states: np.ndarray) -> np.ndarray:
        """:meth:`uniform` of each state: ``uint64`` products wrap mod 2**64."""
        return ((states * np.uint64(cls.MULT)) >> np.uint64(11)) * 2.0**-53


def simulate(p: ModelParams, cfg: SimConfig, n_batches: int = 100) -> SimResult:
    """Event-driven simulation of the SED dynamics.

    Exponential clocks via inversion; SED routing with tie probability ``q``.
    Sojourn times after the warmup are accumulated per state and split into
    ``n_batches`` consecutive batches for standard-error estimation.

    Each chunk of ``CHUNK`` events takes one bulk draw of three uniforms per
    event (the most one uses) and resumes the generator after the last draw
    used.  Sojourns use ``math.log`` (``np.log`` can differ in the last bit);
    ``np.add.at`` adds them into a ``(batch, state)`` array in event order, so
    each sum has the terms and order of a per-event walk and the bits agree.
    """
    if n_batches < 1:
        raise InvalidParam(f"n_batches must be at least 1, got {n_batches}")
    s, q, lam = p.s, p.q, p.arrival_rate
    rng = XorShift64Star(cfg.seed)

    # state code q1 * WIDE + q2 -> (column, total rate, lam + r1, routing side)
    WIDE = 1 << 32
    info: dict[int, tuple[int, float, float, int]] = {}
    acc, seen = np.zeros((n_batches, 0)), np.zeros((n_batches, 0), dtype=bool)
    batch_time = np.zeros(n_batches)
    code = 0
    for first in range(0, cfg.events, CHUNK):
        n = min(CHUNK, cfg.events - first)
        states = rng.states(3 * CHUNK)
        uniforms = XorShift64Star.uniforms(states)
        draws = iter(uniforms.tolist()).__next__
        cols, ties = [], []
        for k in range(n):
            try:
                col, total, lam_r1, side = info[code]
            except KeyError:  # first visit of the state
                q1, q2 = divmod(code, WIDE)
                r1 = 1.0 if q1 > 0 else 0.0
                r2 = float(s) if q2 > 0 else 0.0
                col, total, lam_r1 = len(info), lam + r1 + r2, lam + r1
                side = _route_arrival(q1, q2, s)
                info[code] = (col, total, lam_r1, side)
            cols.append(col)
            draws()  # the sojourn's draw
            u = draws() * total
            if u < lam:
                if side == 0:
                    ties.append(k)
                    side = -1 if draws() < q else 1
                code += WIDE if side < 0 else 1
            elif u < lam_r1:
                code -= WIDE
            else:
                code -= 1
        rng.state = int(states[2 * n + len(ties) - 1])

        # event k's sojourn is the draw after 2 k draws and the ties before k
        k = np.arange(max(cfg.warmup - first, 0), n)
        col = np.array(cols, dtype=np.intp)[k]
        u = uniforms[2 * k + np.searchsorted(ties, k)]
        totals = np.array([total for _, total, _, _ in info.values()])
        dt = -np.array(list(map(math.log, (1.0 - u).tolist()))) / totals[col]
        bi = (first + k - cfg.warmup) * n_batches // (cfg.events - cfg.warmup)
        grow = ((0, 0), (0, len(info) - acc.shape[1]))
        acc, seen = np.pad(acc, grow), np.pad(seen, grow)
        np.add.at(acc, (bi, col), dt)
        np.add.at(batch_time, bi, dt)
        seen[bi, col] = True

    keys = [divmod(code, WIDE) for code in info]

    def by_state(visited, values):
        return dict(zip(compress(keys, visited), values[visited].tolist()))

    total_time = sum(batch_time.tolist())
    freq = by_state(seen.any(axis=0), np.add.accumulate(acc)[-1] / total_time)
    batch_out = [
        (t, by_state(seen[i], acc[i] / t))
        for i, t in enumerate(batch_time.tolist())
        if t > 0
    ]
    return SimResult(freq=freq, total_time=total_time, batches=batch_out)


def sim_standard_errors(res: SimResult) -> dict[tuple[int, int], float]:
    """Per-state standard error of the mean from batch means."""
    B = len(res.batches)
    if B < 2:
        raise InvalidParam("need at least two batches for standard errors")
    batches = [fr for _, fr in res.batches]
    return {
        st: float(np.std([fr.get(st, 0.0) for fr in batches], ddof=1) / np.sqrt(B))
        for st in set().union(*batches)
    }


def compare(
    a: dict[tuple[int, int], float],
    b: dict[tuple[int, int], float],
    window: TruncationBox,
    floor: float = 1e-12,
) -> CompareReport:
    """Elementwise diff of two state maps over the window.

    Relative error is measured against ``b`` and only where ``b`` exceeds
    ``floor``; absolute error covers every window state.
    """
    max_rel, max_abs, worst = 0.0, 0.0, None
    for q1 in range(window.q1max + 1):
        for q2 in range(window.q2max + 1):
            st = (q1, q2)
            va, vb = a.get(st, 0.0), b.get(st, 0.0)
            diff = abs(va - vb)
            max_abs = max(max_abs, diff)
            if vb > floor:
                rel = diff / vb
                if rel > max_rel:
                    max_rel, worst = rel, st
    return CompareReport(max_rel_err=max_rel, max_abs_err=max_abs, worst_state=worst)
