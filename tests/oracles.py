"""Independent test oracles shared across test modules."""

import itertools
import math

import numpy as np
from scipy.spatial import ConvexHull

from smmn import mesh


def permutation_p_mid(a, b, max_exact=100000, n_resample=100000, seed=0):
    """Two-group permutation mid-p value for the one-way F test.

    Enumerates every assignment of the pooled values into groups of the
    given sizes (or draws 1e5 random assignments when the split count
    exceeds ``max_exact``).  With the pooled data fixed, the F statistic
    is monotone increasing in |sum_A - n_A * grand mean|, so splits are
    compared by their group-A sums.  Ties at the observed statistic
    (which always include the observed split itself) count half, the
    standard mid-p convention for discrete permutation distributions.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pooled = np.concatenate([a, b])
    n, n_a = len(pooled), len(a)
    grand = pooled.mean()
    dev_obs = abs(a.sum() - n_a * grand)
    n_comb = math.comb(n, n_a)
    if n_comb <= max_exact:
        idx = np.fromiter(
            (i for combo in itertools.combinations(range(n), n_a) for i in combo),
            dtype=np.int64,
            count=n_comb * n_a,
        ).reshape(n_comb, n_a)
        sums = pooled[idx].sum(axis=1)
    else:
        rng = np.random.default_rng(seed)
        keys = rng.random((n_resample, n))
        order = np.argsort(keys, axis=1)[:, :n_a]
        sums = pooled[order].sum(axis=1)
    dev = np.abs(sums - n_a * grand)
    tol = 1e-12 * max(1.0, dev_obs)
    return float(
        np.mean(dev > dev_obs + tol) + 0.5 * np.mean(np.abs(dev - dev_obs) <= tol)
    )


def random_hull_mesh(n, seed):
    """Irregular closed sphere mesh: the convex hull of n seeded random unit
    vectors, every facet wound outward.  Vertex degrees spread well beyond
    the icosphere's 5 and 6."""
    points = np.random.default_rng(seed).standard_normal((n, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    facets = ConvexHull(points).simplices.copy()
    a, b, c = (points[facets[:, j]] for j in range(3))
    inward = np.einsum("ij,ij->i", np.cross(b - a, c - a), a + b + c) < 0
    facets[inward] = facets[inward][:, ::-1]
    return mesh.TriMesh(points, facets)
