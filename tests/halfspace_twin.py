"""The exact halfspace class of a pool in the plane, as an explicit twin of
a LinearOracleClass.

n points in the plane in general position (no three on a line) have
exactly n^2 - n + 2 labelings 1{u.x >= t} (Cover, 1965). Between two
consecutive critical directions, where u is perpendicular to some
x_i - x_j, the order of the projections u.x is fixed, and the labelings
of that cell of directions are the n + 1 sets of its top-k points. One
direction inside each cell therefore enumerates the class.
"""
import numpy as np

from aced.core import HypothesisClass


def halfspace_labelings(X) -> np.ndarray:
    """Every halfspace labeling of the rows of X (n x 2, general position),
    empty and full included, as a sorted 0/1 int8 matrix; the count is
    checked against n^2 - n + 2."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    i, j = np.triu_indices(n, 1)
    d = X[i] - X[j]
    crit = np.arctan2(d[:, 1], d[:, 0]) + np.pi / 2
    crit = np.sort(np.mod(np.concatenate([crit, crit + np.pi]), 2 * np.pi))
    mids = (crit + np.append(crit[1:], crit[0] + 2 * np.pi)) / 2
    proj = X @ np.stack([np.cos(mids), np.sin(mids)])  # (n, directions)
    ranks = np.argsort(np.argsort(-proj, axis=0), axis=0)  # 0 = largest projection
    labs = ranks.T[:, None, :] < np.arange(n + 1)[None, :, None]  # (directions, k, n)
    L = np.unique(labs.reshape(-1, n).astype(np.int8), axis=0)
    if L.shape[0] != n * n - n + 2:
        raise ValueError(f"{L.shape[0]} labelings, not n^2 - n + 2 = {n * n - n + 2}: "
                         "the points are not in general position")
    return L


def explicit_twin(oracle) -> HypothesisClass:
    """The explicit class of every halfspace labeling of a LinearOracleClass's
    two-feature pool."""
    return HypothesisClass(labelings=halfspace_labelings(oracle.features))
