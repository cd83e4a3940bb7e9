"""Pool-based binary classification primitives.

Pools of unlabeled examples, Bernoulli label models (optionally with
persistent realizations), finite hypothesis classes given as labeling
matrices, and pool error / gap computation.
"""
from __future__ import annotations

import numbers
import threading
from dataclasses import dataclass

import numpy as np


class ImplicitClassError(TypeError):
    """Raised when an operation needs an explicitly enumerated class."""


def check_integer(name: str, value, low: int):
    """value, when it is an integer (a bool is not) of at least low; else a
    ValueError whose message starts with name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class Pool:
    """A pool of n examples, optionally with a feature matrix (n x p)."""

    n: int
    features: np.ndarray | None = None
    ids: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("pool needs at least one example")
        if self.features is not None:
            feats = np.asarray(self.features, dtype=float)
            if feats.ndim != 2 or feats.shape[0] != self.n:
                raise ValueError(f"features must be {self.n} x p")
            object.__setattr__(self, "features", feats)
        if not self.ids:
            object.__setattr__(self, "ids", tuple(str(i) for i in range(self.n)))
        elif len(self.ids) != self.n:
            raise ValueError("ids length must equal n")


class LabelModel:
    """Bernoulli(eta_i) label source over a pool.

    In persistent mode every coordinate's label is realized once (from the
    seed, at construction) and cached, so repeated queries of the same
    index always return the same value. Queries mutate the internal RNG in
    non-persistent mode; access is serialized with a lock.
    """

    def __init__(self, eta, persistent: bool = False, seed: int = 0):
        eta = np.asarray(eta, dtype=float)
        if eta.ndim != 1 or eta.size < 1:
            raise ValueError("eta must be a non-empty 1-d vector")
        if not ((eta >= 0) & (eta <= 1)).all():  # NaN lies in no interval
            raise ValueError("eta entries must lie in [0, 1]")
        self.eta = eta
        self.persistent = persistent
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        if persistent:
            self._realized = (self._rng.random(eta.size) < eta).astype(np.int8)
        else:
            self._realized = None

    @property
    def n(self) -> int:
        return self.eta.size

    def restart(self) -> None:
        """Rewind a non-persistent model to its seeded label stream; a
        persistent model's labels are fixed, so it stays as it is."""
        if not self.persistent:
            with self._lock:
                self._rng = np.random.default_rng(self.seed)

    def query(self, i: int) -> int:
        """Observe a label for example i. An index that is a bool or not an
        integer is an IndexError, raised before any draw, as in query_many."""
        if isinstance(i, bool) or not isinstance(i, numbers.Integral):
            raise IndexError(f"query index must be an integer, got {i!r}")
        if not 0 <= i < self.n:
            raise IndexError(f"index {i} out of range for pool of size {self.n}")
        with self._lock:
            if self.persistent:
                return int(self._realized[i])
            return int(self._rng.random() < self.eta[i])

    def query_many(self, indices) -> np.ndarray:
        """Vectorized query; persistent mode returns the cached labels. An
        index array of floats or bools is an IndexError, as in query."""
        idx = np.asarray(indices)
        if idx.size and idx.dtype.kind not in "iu":
            raise IndexError(f"query indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(int, copy=False)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise IndexError("query index out of range")
        with self._lock:
            if self.persistent:
                return self._realized[idx].astype(np.int8)
            return (self._rng.random(idx.size) < self.eta[idx]).astype(np.int8)

    def realized_labels(self) -> np.ndarray:
        """The cached realization (persistent mode only)."""
        if not self.persistent:
            raise ValueError("realized labels exist only in persistent mode")
        return self._realized.copy()


class HypothesisClass:
    """A set of binary labelings over the pool.

    Explicit mode stores a deduplicated |H| x n {0,1} matrix (first
    occurrence kept, so index-based tie-breaking is deterministic).
    Implicit mode wraps a weighted-ERM oracle over its features; every
    operation that enumerates the class reads the matrix through
    enumerated, which raises ImplicitClassError there.
    """

    def __init__(self, labelings=None, oracle=None, dedup: bool = True):
        if (labelings is None) == (oracle is None):
            raise ValueError("provide exactly one of labelings / oracle")
        self.oracle = oracle
        if labelings is not None:
            mat = np.asarray(labelings)
            if mat.ndim != 2 or mat.shape[0] < 1:
                raise ValueError("labelings must be a non-empty 2-d matrix")
            if not np.isin(mat, (0, 1)).all():
                raise ValueError("labelings entries must be 0/1")
            mat = mat.astype(np.int8)
            if dedup:
                _, first = np.unique(mat, axis=0, return_index=True)
                mat = mat[np.sort(first)]
            self.labelings = mat
        else:
            self.labelings = None

    @property
    def explicit(self) -> bool:
        return self.labelings is not None

    def enumerated(self, what: str) -> np.ndarray:
        """The |H| x n labeling matrix, for the operation named by what; an
        oracle-backed class has none, so there it raises ImplicitClassError."""
        if not self.explicit:
            raise ImplicitClassError(f"{what} needs an explicitly enumerated class, "
                                     "not an oracle-backed one")
        return self.labelings

    @property
    def size(self) -> int:
        return self.enumerated("the class size").shape[0]

    @property
    def n(self) -> int:
        return self.labelings.shape[1] if self.explicit else self.oracle.features.shape[0]

    def labeling(self, h) -> np.ndarray:
        """Labeling vector for a hypothesis handle (index or model)."""
        if isinstance(h, (int, np.integer)):
            L = self.enumerated("an integer hypothesis handle")
            if not 0 <= h < L.shape[0]:
                raise ValueError(f"hypothesis index {h} out of range")
            return L[int(h)]
        return np.asarray(h.predict(self.oracle.features), dtype=np.int8)


@dataclass(frozen=True, eq=False)
class Instance:
    """A pool, a hypothesis class over it, and a label model."""

    pool: Pool
    hypotheses: HypothesisClass
    labels: LabelModel

    @property
    def n(self) -> int:
        return self.pool.n


@dataclass(frozen=True, eq=False)
class GapTable:
    h_star: int
    nu: float
    gaps: np.ndarray
    delta_min: float


def plugin_errors(labelings, eta) -> np.ndarray:
    """Pool error (sum_i eta_i + L (1 - 2 eta)) / n of every row of L."""
    L = np.asarray(labelings, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return (eta.sum() + L @ (1.0 - 2.0 * eta)) / L.shape[1]


def errors_all(hclass: HypothesisClass, labels: LabelModel) -> np.ndarray:
    """Pool error of every hypothesis in an explicit class."""
    return plugin_errors(hclass.enumerated("errors_all"), labels.eta)


def gap_table(hclass: HypothesisClass, labels: LabelModel) -> GapTable:
    """Exact gaps; ties for the best hypothesis break to the lowest index."""
    errs = errors_all(hclass, labels)
    h_star = int(np.argmin(errs))
    gaps = errs - errs[h_star]
    gaps[h_star] = 0.0
    positive = gaps[gaps > 0]
    delta_min = float(positive.min()) if positive.size else 0.0
    return GapTable(h_star=h_star, nu=float(errs[h_star]), gaps=gaps, delta_min=delta_min)


def disagreement_region(labelings) -> np.ndarray:
    """Coordinates where some pair of the given labelings disagrees."""
    L = np.asarray(labelings)
    if L.shape[0] <= 1:
        return np.array([], dtype=int)
    return np.flatnonzero(np.any(L != L[0][None, :], axis=0))

