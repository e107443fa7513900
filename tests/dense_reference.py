"""Dense product-space operators, built in the tests as the reference for the factor form.

The oracle never forms these: it applies every operator through the
single-oscillator factors x and q of a solved system.  Here each bare operator
is np.kron of a factor with the identity, and each normal-mode operator is
(first ± second) / sqrt(2) of two dense bare ones.  The commutator check's
deviations are likewise formed here from dense (c^2 x c^2) kron blocks, and
the dense Hamiltonian from five Kronecker products, with its projections onto
the (parity, swap) blocks that the oracle builds directly, and the block
eigensystem carried to the product basis.
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


def kron_commutator_deviations(system):
    """Each commutator line's deviation max |a q + (a q)^T - delta 1| from a dense kron block.

    a q sums the factor products x1 q1 = kron(x q, 1), x1 q2 = kron(x, q),
    x2 q1 = kron(q, x) and x2 q2 = kron(1, x q), each cut below the cutoff and
    weighted by the line's oscillator weights.  Keyed by the lines' pair labels.
    """
    c = system.basis.cutoff
    x, q = system.x, system.q
    xq, xc, qc, eye = (x @ q)[:c, :c], x[:c, :c], q[:c, :c], np.eye(c)
    products = {(0, 0): (xq, eye), (0, 1): (xc, qc), (1, 0): (qc, xc), (1, 1): (eye, xq)}
    inv = 1.0 / np.sqrt(2.0)
    weights = {"1": (1.0, 0.0), "2": (0.0, 1.0), "+": (inv, inv), "-": (inv, -inv)}
    devs = {}
    for pair in ("x1,p1", "x2,p2", "x1,p2", "x2,p1", "X+,P+", "X-,P-", "X+,P-", "X-,P+"):
        (a, b), delta = (weights[pair[1]], weights[pair[4]]), float(pair[1] == pair[4])
        aq = sum(np.kron(a[i] * b[j] * f, g) for (i, j), (f, g) in products.items() if a[i] * b[j])
        sym = aq + aq.T
        sym.flat[:: c * c + 1] -= delta
        devs[pair] = float(np.max(np.abs(sym)))
    return devs


def dense_hamiltonian(system):
    """H = (p1^2 + p2^2 + w^2 (x1^2 + x2^2) + W^2 (x1 - x2)^2) / 2 as a dense dim x dim array.

    Every square is the single-mode product lifted by np.kron, x1^2 = kron(x @ x, 1)
    and x1 x2 = kron(x, x), with p^2 = -q q; accumulated as
    ((pp1 + pp2) + w^2 x_sq) + W^2 diff_sq, then halved.
    """
    params, x, q = system.params, system.x, system.q
    xx, pp, eye = x @ x, -(q @ q), np.eye(len(x))
    x_sq = np.kron(xx, eye) + np.kron(eye, xx)
    h = np.kron(pp, eye) + np.kron(eye, pp)
    diff_sq = x_sq - np.kron(2.0 * x, x)
    h += params.omega**2 * x_sq
    h += (params.coupling_ratio * params.omega) ** 2 * diff_sq
    return 0.5 * h


def block_isometries(basis):
    """Each (parity, swap) block's states as the columns of a dense (dim, size) array."""
    out = []
    for (a, b), sign in zip(basis.swap_blocks(), (1.0, -1.0, 1.0, -1.0)):
        u = np.zeros((basis.dim, a.size))
        cols = np.arange(a.size)
        u[a * basis.levels + b, cols] += np.where(a == b, 0.5, np.sqrt(0.5))
        u[b * basis.levels + a, cols] += sign * np.where(a == b, 0.5, np.sqrt(0.5))
        out.append(u)
    return out


def projected_blocks(system):
    """u^T H u of the dense kron H for each block's isometry u, in block order."""
    h = dense_hamiltonian(system)
    return [u.T @ h @ u for u in block_isometries(system.basis)]


def dense_eigensystem(system):
    """Ascending energies and the dim x dim eigenvectors (columns) of a system's blocks.

    Each block's eigenvectors are carried to the product basis through its
    isometry; a stable sort keeps equal energies in block order.
    """
    energies = np.concatenate(system.energies)
    isometries = block_isometries(system.basis)
    vectors = np.hstack([u @ v for u, v in zip(isometries, system.vectors)])
    order = np.argsort(energies, kind="stable")
    return energies[order], vectors[:, order]
