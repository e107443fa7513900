"""Dense product-space operators, built in the tests as the reference for the factor form.

The oracle never forms these: it applies every operator through the
single-oscillator factors x and q of a solved system.  Here each bare operator
is np.kron of a factor with the identity, and each normal-mode operator is
(first ± second) / sqrt(2) of two dense bare ones.
"""

import numpy as np

NAMES = ("x1", "x2", "q1", "q2", "xp", "xm", "qp", "qm")


def dense_bare(x, q):
    """(x1, x2, q1, q2) = (kron(x, 1), kron(1, x), kron(q, 1), kron(1, q)) as dense arrays."""
    eye = np.eye(len(x))
    return np.kron(x, eye), np.kron(eye, x), np.kron(q, eye), np.kron(eye, q)


def dense_operators(system):
    """The eight lifted operators of a solved system as dense real arrays, keyed by NAMES."""
    x1, x2, q1, q2 = dense_bare(system.x, system.q)
    inv = 1.0 / np.sqrt(2.0)
    normal = (inv * (x1 + x2), inv * (x1 - x2), inv * (q1 + q2), inv * (q1 - q2))
    return dict(zip(NAMES, (x1, x2, q1, q2) + normal))
