"""The Gram-matrix determinant check that the oracle and acceptance tests share."""

import numpy as np

from hellcert.shifts import DiscreteDistribution


def gram_determinant(p: DiscreteDistribution, q: DiscreteDistribution, f) -> float:
    """Determinant of the 3x3 Gram matrix of sqrt-densities and the loss-weighted density.

    Rows/columns correspond to (sqrt(q), sqrt(p), f * sqrt(p)) on the common
    support; positive semidefiniteness of any Gram matrix makes this
    determinant non-negative up to float rounding, which is the property the
    certificates rest on.
    """
    f = np.asarray(f, dtype=float)
    k = max(len(p), len(q), f.size)
    pv = np.zeros(k)
    qv = np.zeros(k)
    fv = np.zeros(k)
    pv[: len(p)] = p.probs
    qv[: len(q)] = q.probs
    fv[: f.size] = f
    root_pq = np.sqrt(qv * pv)
    g01 = float(root_pq.sum())
    g02 = float((fv * root_pq).sum())
    g12 = float((fv * pv).sum())
    g22 = float((fv * fv * pv).sum())
    gram = np.array(
        [
            [1.0, g01, g02],
            [g01, 1.0, g12],
            [g02, g12, g22],
        ]
    )
    return float(np.linalg.det(gram))
