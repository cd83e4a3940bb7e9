"""Label-mean estimators built from query logs.

Three families: the naive per-coordinate average, inverse-propensity
scoring, and the multi-scale feasibility (chaining) estimator that
intersects pairwise confidence slabs over an admissible sequence of the
hypothesis set. The ridge-shifted IPS pair estimate (per-direction
shrinkage with a prescribed shift) lives inside the chaining estimator:
it is the centre of each slab. A ChainingPlan keeps the slabs' sparse rows,
ridge weights and signs (13 bytes per nonzero) and the fallback's
denominator: with it, an estimate is two segment sums, and a projection if
the fallback breaks a slab.

A query log is columnar (QueryLog: round, index, prob and label as
parallel arrays). Every estimator reads the columns and accepts only a
QueryLog; any other log, a list of QueryRecords included, is a TypeError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, starmap
from typing import NamedTuple

import numpy as np

from .core import check_integer, plugin_errors


class InvalidDesignError(ValueError):
    """A direction is supported where the sampling distribution has no mass."""


@dataclass(frozen=True)
class QueryRecord:
    """One logged query: round, pool index, sampling probability, observed
    label. The element type of a QueryLog, which stores none of them."""

    round: int
    index: int
    prob: float
    label: int


class QueryLog:
    """A query log as four parallel 1-d columns: round and index (int64),
    prob (float64) and label (int64), one entry per query in query order.

    Iteration gives QueryRecords; a slice or an index array of a log,
    and the sum of two logs, is a QueryLog; two logs are equal when their
    columns are. The algorithms build logs from the arrays they draw and
    the estimators read the columns, so no per-query object is made.
    """

    __slots__ = ("round", "index", "prob", "label")

    def __init__(self, round=(), index=(), prob=(), label=()):
        self.round = np.asarray(round, dtype=np.int64)
        self.index = np.asarray(index, dtype=np.int64)
        self.prob = np.asarray(prob, dtype=float)
        self.label = np.asarray(label, dtype=np.int64)
        if self.round.ndim != 1 or not (
                self.round.shape == self.index.shape == self.prob.shape == self.label.shape):
            raise ValueError("query log columns must be 1-d and of one length")

    @classmethod
    def from_rows(cls, rows) -> "QueryLog":
        """The log of (round, index, prob, label) rows."""
        rows = list(rows)
        return cls(*zip(*rows)) if rows else cls()

    def _columns(self):
        return self.round, self.index, self.prob, self.label

    def rows(self) -> list:
        """The (round, index, prob, label) rows as Python scalars, in query
        order: the inverse of from_rows."""
        return list(zip(*(col.tolist() for col in self._columns())))

    def __len__(self) -> int:
        return self.index.size

    def __iter__(self):
        return starmap(QueryRecord, self.rows())

    def __getitem__(self, key) -> "QueryLog":
        return QueryLog(*(col[key] for col in self._columns()))

    @classmethod
    def concat(cls, logs) -> "QueryLog":
        """The logs one after another, as one log; no logs give the empty log."""
        return cls(*(np.concatenate(col) for col in zip(*(log._columns() for log in logs))))

    def __add__(self, other: "QueryLog") -> "QueryLog":
        return QueryLog.concat((self, other))

    def __eq__(self, other):
        if not isinstance(other, QueryLog):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self._columns(), other._columns()))

    def __repr__(self) -> str:
        return f"QueryLog({len(self)} queries)"


@dataclass(eq=False)
class EtaEstimate:
    """An estimate of the label means: values is the eta-hat vector (in
    [0,1] for the naive and chaining families, unclipped for IPS), counts
    the per-coordinate query counts, flags what the estimator reports."""

    values: np.ndarray
    counts: np.ndarray
    flags: dict = field(default_factory=dict)


def naive_estimate(log: QueryLog, n: int) -> EtaEstimate:
    """Per-coordinate average of observed labels; unqueried default to 0.5."""
    counts = _query_counts(log, n)
    sums = np.bincount(log.index, weights=log.label, minlength=n)
    values = np.full(n, 0.5)
    seen = counts > 0
    values[seen] = sums[seen] / counts[seen]
    return EtaEstimate(values=values, counts=counts)


def ips_estimate(log: QueryLog, n: int) -> EtaEstimate:
    """Unbiased importance-weighted estimate (1/T) sum_t y_t / lambda_{I_t}."""
    counts = _query_counts(log, n)
    if np.any(log.prob <= 0):
        raise InvalidDesignError("logged probability must be positive")
    t = max(len(log), 1)  # an empty log estimates zeros
    values = np.bincount(log.index, weights=log.label / log.prob, minlength=n) / t
    return EtaEstimate(values=values, counts=counts)


def _query_counts(log: QueryLog, n):
    """Per-coordinate query counts; a log that is not a QueryLog raises
    TypeError, and a logged index outside [0, n) raises IndexError."""
    if not isinstance(log, QueryLog):
        raise TypeError(f"expected a QueryLog, got {type(log).__name__}")
    try:
        counts = np.bincount(log.index, minlength=n)
    except ValueError:  # bincount refuses a negative index
        counts = None
    if counts is None or counts.size > n:
        raise IndexError(f"logged index out of range for a pool of size {n}")
    return counts


def _query_counts_and_sums(log: QueryLog, n):
    """Per-coordinate query counts and sums of +/-1 labels (the X^T y
    vector)."""
    return (_query_counts(log, n),
            np.bincount(log.index, weights=2.0 * log.label - 1.0, minlength=n))


def ridge_shift(v, lam, t: int, delta: float) -> float:
    """The prescribed shift s = sqrt(log(2/delta) / (3 ||v||^2_{A(t lam)^-1}))."""
    v = np.asarray(v, dtype=float)
    lam = np.asarray(lam, dtype=float)
    support = v != 0
    if np.any(lam[support] <= 0):
        raise InvalidDesignError("direction supported outside the design")
    norm_sq = float(np.sum(v[support] ** 2 / (t * lam[support])))
    if norm_sq == 0:
        raise ValueError("zero direction has no prescribed shift")
    return math.sqrt(math.log(2.0 / delta) / (3.0 * norm_sq))


@dataclass(eq=False)
class AdmissibleSequence:
    """Nested refinement levels of a hypothesis set under a fixed metric.

    levels[k] holds the indices added at scale k; level 0 is a singleton
    and level k may add at most 2^(2^k) points. cumulative(k) is the union
    of levels 0..k; the final union covers the whole set.
    """

    levels: list
    dist: np.ndarray  # pairwise metric matrix over the set

    def __post_init__(self):
        if len(self.levels[0]) != 1:
            raise ValueError("level 0 must be a singleton")
        for k, lv in enumerate(self.levels[1:], start=1):
            if len(lv) > 2 ** (2**k):
                raise ValueError(f"level {k} exceeds its cardinality cap")

    def cumulative(self, k: int) -> np.ndarray:
        return np.concatenate(self.levels[: k + 1])

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def pair_distance_matrix(labelings, lam, t: int) -> np.ndarray:
    """||h - h'||_{A(t lam)^-1} for all pairs of rows."""
    G = np.asarray(labelings, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        # distances are only needed on coordinates where rows differ;
        # zero-mass coordinates shared by all rows are harmless
        diff_support = np.any(G != G[0], axis=0)
        if np.any(lam[diff_support] <= 0):
            raise InvalidDesignError("design has no mass on a disagreement coordinate")
        lam = np.where(lam > 0, lam, 1.0)
    W = G / np.sqrt(t * lam)
    sq = (W**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (W @ W.T)
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


def build_admissible_sequence(labelings, lam, t: int) -> AdmissibleSequence:
    """Farthest-point-greedy admissible sequence from row 0 under the design metric."""
    m = np.asarray(labelings).shape[0]
    dist = pair_distance_matrix(labelings, lam, t)
    closest = dist[0].copy()
    closest[0] = -1.0
    levels = [np.array([0])]
    placed = 1
    k = 0
    while placed < m:
        k += 1
        batch = []
        for _ in range(min(2 ** (2**k), m - placed)):
            nxt = int(closest.argmax())
            batch.append(nxt)
            np.minimum(closest, dist[nxt], out=closest)
            closest[nxt] = -1.0
        placed += len(batch)
        levels.append(np.array(batch, dtype=int))
    return AdmissibleSequence(levels=levels, dist=dist)


# radius multiplier of the pairwise confidence slabs: the ridge tail bound
# evaluated at the level shift gives 2*(sqrt(2/3)+1)*(u + 2^{k/2})*dist
SLAB_RADIUS_COEFF = 2.0 * (math.sqrt(2.0 / 3.0) + 1.0)
# entries (pairs x pool size) per chunk of the slab build: bounds the
# dense row-difference block and every per-chunk intermediate
SLAB_CHUNK_ENTRIES = 1 << 18
# a chaining plan holds 13 bytes per nonzero of its slab rows (an int32
# column, a float64 ridge weight and an int8 sign), so 2^28 bytes (256 MiB)
# of rows allow (1 << 28) // 13 = 20,648,881 nonzeros; a plan that needs
# more is refused while its rows are built, at most one chunk past the cap
MAX_PLAN_NONZEROS = (1 << 28) // 13
# the cyclic projection gives up after MAX_SWEEPS sweeps; a point is
# feasible when no slab is exceeded by more than FEAS_TOL
MAX_SWEEPS = 10_000
FEAS_TOL = 1e-9


def _pair_chunks(pairs: int, n: int) -> list:
    """Slices covering range(pairs), each at most SLAB_CHUNK_ENTRIES // n
    pairs long (and at least one); no pairs give one slice."""
    step = max(1, SLAB_CHUNK_ENTRIES // n)
    return [slice(lo, lo + step) for lo in range(0, max(pairs, 1), step)]


def _slab_rows(G, seq: AdmissibleSequence, lam, t: int, u: float):
    """A ChainingPlan's slabs (idx, ptr, ridge, sign, radii): one per level
    k >= 1 and pair (a, b) of differing rows at nonzero distance in
    cumulative(k), in level, then lexicographic position order, with ridge
    weights (G[a] - G[b]) / (t lam + s_pair) and signs G[a] - G[b] (int8)
    where the rows differ. Built a chunk of pairs at a time: a dense block
    holds at most max(n, SLAB_CHUNK_ENTRIES) entries. Rows with more than
    MAX_PLAN_NONZEROS nonzeros are a ValueError, raised at the first chunk
    that passes the cap."""
    order = seq.cumulative(seq.depth)
    sizes = list(accumulate(len(lv) for lv in seq.levels))
    pos = np.arange(order.size)
    pairs = np.array(np.nonzero(pos[:, None] < pos))  # np.triu_indices(m, 1), cheaper
    # cumulative(k) is a prefix of order: its pairs are those whose second
    # position is below sizes[k], and selecting them keeps the order
    earlier = [pairs[:, pairs[1] < c] for c in sizes[1:-1]]
    a, b = order[np.concatenate(earlier + [pairs], axis=1)]
    scale = np.repeat([u + 2 ** (k / 2.0) for k in range(1, seq.depth + 1)],
                      [c * (c - 1) // 2 for c in sizes[1:]])
    dist = seq.dist[a, b]
    keep = dist != 0.0
    a, b, dist, scale = a[keep], b[keep], dist[keep], scale[keep]
    s_pair = math.sqrt(1.0 / 3.0) * scale / dist
    t_lam, idx, ridge, sign, nnz, total = t * lam, [], [], [], [], 0
    for chunk in _pair_chunks(a.size, G.shape[1]):
        diff = G[a[chunk]] - G[b[chunk]]
        differ = diff != 0
        cols = np.empty(diff.shape, dtype=np.int32)
        cols[:] = np.arange(diff.shape[1])
        idx.append(cols[differ])
        total += idx[-1].size
        if total > MAX_PLAN_NONZEROS:
            raise ValueError(f"chaining plan needs {total} nonzeros or more, "
                             f"over MAX_PLAN_NONZEROS={MAX_PLAN_NONZEROS}")
        ridge.append((diff / (t_lam + s_pair[chunk, None]))[differ])
        sign.append(diff[differ])
        nnz.append(differ.sum(axis=1))
    nnz = np.concatenate(nnz)
    keep = nnz > 0  # identical rows at a roundoff distance give no slab
    ptr = np.zeros(np.count_nonzero(keep) + 1, dtype=np.int64)
    np.cumsum(nnz[keep], out=ptr[1:])
    return (np.concatenate(idx), ptr, np.concatenate(ridge), np.concatenate(sign),
            SLAB_RADIUS_COEFF * scale[keep] * dist[keep])


def _project(plan, betas, res, start):
    """Cyclic projection onto the plan's slabs (values its signs, centres
    betas) intersected with [-1,1]^n, from the point start whose residuals
    are res. Returns (point, feasible, sweeps); the point is start itself
    if no sweep ends feasible."""
    idx, ptr, radii = plan.idx, plan.ptr, plan.radii
    z = start
    sweeps = 0
    for sweeps in range(1, MAX_SWEEPS + 1):
        excess = np.abs(res) - radii
        if float(excess.max()) <= FEAS_TOL:
            return z, True, sweeps
        if z is start:  # first projection
            z = start.copy()
            nsq, val = np.diff(ptr), plan.sign.astype(float)
        for j in np.flatnonzero(excess > FEAS_TOL):
            sl = slice(ptr[j], ptr[j + 1])
            r = float(val[sl] @ z[idx[sl]]) - betas[j]
            if r > radii[j]:
                z[idx[sl]] -= val[sl] * ((r - radii[j]) / nsq[j])
            elif r < -radii[j]:
                z[idx[sl]] += val[sl] * ((-radii[j] - r) / nsq[j])
        np.clip(z, -1.0, 1.0, out=z)
        res = np.add.reduceat(val * z[idx], ptr[:-1]) - betas
    return start, False, sweeps


class ChainingPlan(NamedTuple):
    """The label-free part of chaining_estimate, tied to one design: it
    serves only the (m, n) shape, t, delta, rows (as int8 bytes) and lam
    (as bytes) it was built for. depth is the admissible sequence's, and
    fallback_denom the fallback's denominator t lam + s_diam, s_diam being
    the shift at the diameter scale. Slab j has radius radii[j], ridge
    weights ridge[ptr[j]:ptr[j+1]] and signs sign[ptr[j]:ptr[j+1]] (int8,
    the pair difference) on the coordinates idx[ptr[j]:ptr[j+1]] (int32):
    13 bytes per nonzero, at most MAX_PLAN_NONZEROS of them, and no dense
    block."""

    shape: tuple
    t: int
    delta: float
    rows_bytes: bytes
    lam_bytes: bytes
    depth: int
    fallback_denom: np.ndarray
    idx: np.ndarray
    ptr: np.ndarray
    ridge: np.ndarray
    sign: np.ndarray
    radii: np.ndarray


def _check_delta(delta) -> None:
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta!r}")


def chaining_plan(labelings, lam, t: int, delta: float) -> ChainingPlan:
    """The ChainingPlan of chaining_estimate for a log of t queries (an
    integer t >= 1) drawn from lam, at confidence delta in (0, 1). Slab rows
    past MAX_PLAN_NONZEROS nonzeros are a ValueError."""
    check_integer("t", t, 1)
    _check_delta(delta)
    G = np.asarray(labelings, dtype=np.int8)
    if G.shape[0] > 4096:
        raise ValueError("feasibility program capped at 4096 hypotheses")
    lam = np.asarray(lam, dtype=float)
    u = math.sqrt(math.log(2.0 / delta) / 2.0)
    seq = build_admissible_sequence(G, lam, t)
    diam = float(seq.dist.max())
    s_diam = (math.sqrt(1.0 / 3.0) * (u + 2 ** (seq.depth / 2.0)) / diam) if diam > 0 else 1.0
    return ChainingPlan(G.shape, t, delta, G.tobytes(), lam.tobytes(), seq.depth,
                        t * lam + s_diam, *_slab_rows(G, seq, lam, t, u))


def chaining_estimate(labelings, log: QueryLog, lam, delta: float,
                      plan: ChainingPlan | None = None) -> EtaEstimate:
    """Multi-scale feasibility estimator over a hypothesis subset.

    Builds an admissible sequence, computes a ridge-IPS pair estimate with
    a level-dependent shift for every pair inside each cumulative level,
    and returns a point of the intersection of the induced slabs with
    [-1,1]^n (found by cyclic projection). If the program is infeasible
    within MAX_SWEEPS sweeps, falls back to the single ridge-IPS vector at the
    diameter scale and flags it.

    Everything but the label sums is in the plan, chaining_plan(labelings,
    lam, max(len(log), 1), delta), built here when none is given; a plan
    built for another shape, sample size, delta, rows or lam is a
    ValueError, and so is a delta outside (0, 1). Identical rows give no
    slab, nor do rows at zero distance under the design metric. The slab
    centres and the fallback's residuals are segment sums over the plan's
    nonzeros, and the fallback divides the label sums by the plan's
    denominator.
    """
    _check_delta(delta)
    G = np.asarray(labelings, dtype=np.int8)
    lam = np.asarray(lam, dtype=float)
    t = max(len(log), 1)
    counts, sums = _query_counts_and_sums(log, G.shape[1])
    if plan is None:
        plan = chaining_plan(G, lam, t, delta)
    else:
        for name, built, given in (("shape", plan.shape, G.shape), ("t", plan.t, t),
                                   ("delta", plan.delta, delta)):
            if built != given:
                raise ValueError(f"chaining plan built for {name}={built}, called with {name}={given}")
        if plan.rows_bytes != G.tobytes():
            raise ValueError("chaining plan built for other rows")
        if plan.lam_bytes != lam.tobytes():
            raise ValueError("chaining plan built for another lam")
    fallback = (sums / plan.fallback_denom).clip(-1.0, 1.0)

    mu, feasible, sweeps = fallback, True, 0
    if plan.radii.size:
        starts = plan.ptr[:-1]
        betas = np.add.reduceat(plan.ridge * sums[plan.idx], starts)
        res = np.add.reduceat(plan.sign * fallback[plan.idx], starts) - betas
        mu, feasible, sweeps = _project(plan, betas, res, fallback)
    return EtaEstimate(values=(1.0 + mu) / 2.0, counts=counts,
                       flags={"feasible": feasible, "levels": plan.depth, "sweeps": sweeps})


def estimated_errors_all(labelings, est: EtaEstimate) -> np.ndarray:
    """Plug-in error of every row of labelings under the estimate."""
    return plugin_errors(labelings, est.values)
