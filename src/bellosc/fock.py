"""Two coupled oscillators on a truncated Fock space, in single-oscillator factors.

The verification oracle works in the product number basis |n1, n2> of the two
bare oscillators (each factor built at the basis frequency det(K)^(1/4), see
:func:`basis_frequency`), diagonalizes the coupled Hamiltonian exactly, and
prepares the entangled states from the numerical ground state.  No
closed-form amplitude result enters; the one model input is the pair of
normal-mode frequencies omega and eta * omega (``model.mode_frequency``) at
which the Bell-state ladder operators are built.

Every observable except H is kron(m, 1) or kron(1, m) of a single-oscillator
matrix m, and :func:`lift` applies it through m alone.  H is never formed as
a dense product-space matrix: each of its terms changes n1 + n2 by 0 or 2 and
it commutes with the swap |n1, n2> -> |n2, n1>, so :func:`coupled_hamiltonian`
assembles its four (parity, swap) blocks straight from the L x L factors
(:meth:`TwoModeBasis.swap_blocks`), and each block is diagonalized on its
own.  :func:`solve` builds the factors, the blocks and the eigensystem once
per ``(params, basis)`` as plain arrays and returns a :class:`SolvedSystem`,
the one place that checks and freezes them; every oracle check reads it.
The eigenvectors are held in the product basis, the one dense dim x dim
array.  Each momentum p = i q is held as its real q.

Truncation corrupts only the top Fock levels, so operator identities are
meaningful on the low-lying subspace where every occupation stays well below
the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BellState, ModeIndex, SystemParams, mode_frequency

__all__ = [
    "ConvergenceError",
    "OperatorMatrix",
    "SolvedSystem",
    "TwoModeBasis",
    "basis_frequency",
    "bare_quadratures",
    "lift",
    "normal_mode_quadratures",
    "coupled_hamiltonian",
    "hamiltonian_eigensystem",
    "solve",
    "bell_vector",
]

HERMITICITY_TOL = 1e-12

# Largest accepted cutoff.  dim = (cutoff + 1)^2, and the eigenvectors of H
# are the one dense dim x dim array: at 40 it holds 1681^2 entries (22.6 MB);
# at 100 it would be 0.8 GB.
MAX_CUTOFF = 40


class ConvergenceError(RuntimeError):
    """Raised when an eigensolve fails or a prepared state is visibly truncated."""


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Validator of one observable matrix: square, dim >= 2 and Hermitian.

    Construction freezes the array read-only.  :func:`solve` does not use it;
    it stays as the hook of the benchmark's ``fock.operator_matrix.*`` metrics.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        if m.shape[0] < 2:
            raise ValueError(f"operator matrix dimension must be >= 2, got {m.shape[0]}")
        dev = np.max(np.abs(m - m.conj().T))
        if dev >= HERMITICITY_TOL:
            raise ValueError(f"operator matrix deviates from hermitian by {dev:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class TwoModeBasis:
    """Product number basis |n1, n2> with per-oscillator occupations 0..cutoff.

    Basis states are ordered lexicographically with n2 fastest, i.e. the state
    |n1, n2> sits at index n1 * (cutoff + 1) + n2.  A cutoff of at least 3 is
    required: quadratic observables on the single-excitation states reach
    occupation 3.  At most MAX_CUTOFF is accepted, which bounds the size of
    the eigenvectors of H.
    """

    cutoff: int

    def __post_init__(self) -> None:
        if not 3 <= self.cutoff <= MAX_CUTOFF:
            raise ValueError(f"cutoff must be between 3 and {MAX_CUTOFF}, got {self.cutoff}")

    @property
    def levels(self) -> int:
        """Number of retained levels per oscillator, cutoff + 1."""
        return self.cutoff + 1

    @property
    def dim(self) -> int:
        return self.levels * self.levels

    def occupations(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (n1, n2) of per-state occupations, aligned with basis indices."""
        n1, n2 = np.divmod(np.arange(self.dim), self.levels)
        return n1, n2

    def swap_blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Occupations (a, b) of the states of the four (parity, swap) blocks of H.

        The blocks come in the order (even, +), (even, -), (odd, +), (odd, -):
        the parity of n1 + n2, then the sign under the swap |a, b> -> |b, a>.
        A block state is (|a, b> ± |b, a>) / sqrt(2) with a < b, or |a, a> in
        the (even, +) block, where it follows the pairs a < b; so the (even, -)
        block's pairs are the first ones of the (even, +) block.  The state's
        product-basis indices are a * L + b and b * L + a.  At cutoff 12 the
        block sizes are 49, 36, 42 and 42.
        """
        a, b = np.triu_indices(self.levels, 1)
        even = (a + b) % 2 == 0
        diagonal = np.arange(self.levels)
        pairs_even, pairs_odd = (a[even], b[even]), (a[~even], b[~even])
        with_diagonal = tuple(np.concatenate((n, diagonal)) for n in pairs_even)
        return with_diagonal, pairs_even, pairs_odd, pairs_odd

    def swap_block_sizes(self) -> tuple[int, int, int, int]:
        """Sizes of the four blocks of :meth:`swap_blocks`, counted without building them."""
        evens, odds = (self.levels + 1) // 2, self.levels // 2
        same = evens * (evens - 1) // 2 + odds * (odds - 1) // 2  # pairs a < b, a + b even
        return same + self.levels, same, evens * odds, evens * odds

    def mask_total_at_most(self, total: int) -> np.ndarray:
        """Boolean mask of basis states with n1 + n2 <= total."""
        n1, n2 = self.occupations()
        return n1 + n2 <= total


def basis_frequency(params: SystemParams) -> float:
    """Frequency det(K)^(1/4) at which each oscillator's number basis is built.

    K is the stiffness matrix read off the Hamiltonian: w^2 + W^2 on the
    diagonal and -W^2 off it (W = g * w), so det(K) = w^2 (w^2 + 2 W^2).  Its
    fourth root lies between the two normal-mode frequencies, so the
    truncated basis keeps more of the coupled ground state than one built at
    w.  Taken as sqrt(w * hypot(w, W, W)): finite for every accepted
    ``SystemParams``, and exactly w at g = 0.
    """
    w = params.omega
    big_omega = params.coupling_ratio * w
    return math.sqrt(w * math.hypot(w, big_omega, big_omega))


def bare_quadratures(params: SystemParams, basis: TwoModeBasis) -> tuple[np.ndarray, np.ndarray]:
    """Single-oscillator position x and momentum part q on levels 0..cutoff.

    With the lowering matrix a (entries sqrt(n) at (n - 1, n)) and w the
    :func:`basis_frequency`, x = (a^dag + a) / sqrt(2 w) is symmetric and
    q = sqrt(w / 2) (a^dag - a) antisymmetric, so x and the momentum p = i q
    are Hermitian (hbar = 1).  The bare operators are x1 = kron(x, 1),
    x2 = kron(1, x), p1 = i kron(q, 1) and p2 = i kron(1, q).  Truncation
    makes [a, a^dag] the identity except for its last diagonal entry, -cutoff.
    """
    w = basis_frequency(params)
    a = np.diag(np.sqrt(np.arange(1, basis.levels, dtype=float)), k=1)
    return (a.T + a) / np.sqrt(2.0 * w), np.sqrt(w / 2.0) * (a.T - a)


def lift(m: np.ndarray, v: np.ndarray, oscillator: int) -> np.ndarray:
    """kron(m, 1) @ v for oscillator 1, kron(1, m) @ v for oscillator 2, without the kron.

    m is a real L x L factor and v a real or complex block of shape (dim,) or
    (dim, k), dim = L^2, read as (n1, n2, columns): oscillator 1 multiplies
    along n1 as one product, oscillator 2 along n2 as L stacked products.  A
    complex v is multiplied through its float64 view, so every product is real.
    """
    levels = m.shape[0]
    block = np.ascontiguousarray(v).view(np.float64).reshape(levels, levels, -1)
    out = m @ block.reshape(levels, -1) if oscillator == 1 else np.matmul(m, block)
    return out.view(v.dtype).reshape(v.shape)


def normal_mode_quadratures(
    x1: np.ndarray, x2: np.ndarray, q1: np.ndarray, q2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Normal-mode images (X+, X-, Q+, Q-) v = (x1 ± x2, q1 ± q2) v / sqrt(2), P± = i Q±."""
    inv = 1.0 / np.sqrt(2.0)
    return inv * (x1 + x2), inv * (x1 - x2), inv * (q1 + q2), inv * (q1 - q2)


def coupled_hamiltonian(
    params: SystemParams,
    x: np.ndarray,
    q: np.ndarray,
    states: tuple[tuple[np.ndarray, np.ndarray], ...],
) -> tuple[np.ndarray, ...]:
    """The four (parity, swap) blocks of (p1^2 + p2^2 + w^2 (x1^2 + x2^2) + W^2 (x1 - x2)^2) / 2.

    x and q are the factors of :func:`bare_quadratures` and ``states`` the
    block states of :meth:`TwoModeBasis.swap_blocks`, as :func:`solve` makes
    them once.  W = g * w is the coupling strength.  With x and q
    (p^2 = (i q)^2 = -q q) and the single-oscillator A = (-q q + (w^2 + W^2) x x) / 2,
    the product-basis entries are
    H(ab, cd) = A[a, c] δ[b, d] + δ[a, c] A[b, d] - W^2 x[a, c] x[b, d],
    and no dense H is formed.  The entry of a block between its states of pairs
    (a, b) and (c, d) (see :meth:`TwoModeBasis.swap_blocks`) is
    2 α_ab α_cd (H(ab, cd) ± H(ab, dc)), with α = 1/sqrt(2) for a != b and
    1/2 for a = b.  x, x x and q q are exactly symmetric (x is tridiagonal, so
    an entry of x x or q q sums the same products as its mirror), so a block
    entry and its mirror add and multiply the same numbers in the same
    grouping: every block is exactly symmetric, by construction.
    """
    big_sq = (params.coupling_ratio * params.omega) ** 2
    single = 0.5 * ((params.omega**2 + big_sq) * (x @ x) - q @ q)
    same = np.equal.outer

    def terms(rows, cols, r2, c2):
        """A[rows, cols] δ[r2, c2] + δ[rows, cols] A[r2, c2] - W^2 x[rows, cols] x[r2, c2]."""
        one = single[np.ix_(rows, cols)] * same(r2, c2)
        one += same(rows, cols) * single[np.ix_(r2, c2)]
        one -= big_sq * (x[np.ix_(rows, cols)] * x[np.ix_(r2, c2)])
        return one

    plus_even, minus_even, plus_odd, _ = states
    blocks = []
    # the first `pairs` states of a block have a < b; the (even, +) block ends with the |a, a>
    for (a, b), pairs in ((plus_even, minus_even[0].size), (plus_odd, plus_odd[0].size)):
        direct, swapped = terms(a, a, b, b), terms(a, b, b, a)  # H(ab, cd) and H(ab, dc)
        plus = direct + swapped
        plus[pairs:, :pairs] *= math.sqrt(0.5)
        plus[:pairs, pairs:] *= math.sqrt(0.5)
        plus[pairs:, pairs:] *= 0.5
        blocks += [plus, direct[:pairs, :pairs] - swapped[:pairs, :pairs]]
    return tuple(blocks)


def hamiltonian_eigensystem(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of one real-symmetric block of H (ascending, vectors as columns)."""
    try:
        energies, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    return energies, vectors


@dataclass(frozen=True, eq=False)
class SolvedSystem:
    """The oracle arrays of one ``(params, basis)``, built once by :func:`solve`.

    Every array is real float64 and read-only, so a system can be shared
    between threads.  ``x`` and ``q`` are the L x L factors of
    :func:`bare_quadratures` (L = cutoff + 1, p = i q), through which
    :meth:`bare_images` and :meth:`normal_modes` apply every observable.
    ``h_blocks`` holds the four (parity, swap) blocks of H of
    :func:`coupled_hamiltonian`, and ``energies, vectors`` is the eigensystem
    of H in the product basis (ascending, eigenvectors as columns, each
    exactly zero off its parity sector of n1 + n2); ``ground`` is the lowest
    eigenvector.  Construction is the one check of the oracle's arrays: it
    freezes each one and raises ``ValueError``, naming the field, unless every
    array is float64, x and q are L x L, each block has the size of its
    state list (:meth:`TwoModeBasis.swap_block_sizes`), and x and each block equal
    their transpose and q minus its transpose, exactly; so every lifted x and
    i q is Hermitian, and so is H, which couples no two blocks by construction.
    """

    params: SystemParams
    basis: TwoModeBasis
    x: np.ndarray
    q: np.ndarray
    h_blocks: tuple[np.ndarray, ...]
    energies: np.ndarray
    vectors: np.ndarray
    ground: np.ndarray

    def __post_init__(self) -> None:
        sizes = self.basis.swap_block_sizes()
        if not isinstance(self.h_blocks, tuple) or len(self.h_blocks) != len(sizes):
            raise ValueError(f"h_blocks must be a tuple of {len(sizes)} arrays")
        levels = self.basis.levels
        # (name, array, side of its square shape, +1 symmetric / -1 antisymmetric)
        checked = [("x", self.x, levels, 1), ("q", self.q, levels, -1)]
        checked += [
            (f"h_blocks[{k}]", h, n, 1) for k, (h, n) in enumerate(zip(self.h_blocks, sizes))
        ]
        checked += [(n, getattr(self, n), None, 0) for n in ("energies", "vectors", "ground")]
        for name, m, side, sign in checked:
            if getattr(m, "dtype", None) != np.float64:
                raise ValueError(f"{name} must be a real float64 array")
            m.setflags(write=False)
            if side is not None and m.shape != (side, side):
                raise ValueError(f"{name} must have shape ({side}, {side}), got {m.shape}")
            if sign and not np.array_equal(m.T, sign * m):
                raise ValueError(f"{name} must be {'symmetric' if sign > 0 else 'antisymmetric'}")

    def bare_images(self, v: np.ndarray):
        """Generator of x1 v, x2 v, q1 v and q2 v (see :func:`lift`), each made when asked for."""
        return (lift(m, v, oscillator) for m in (self.x, self.q) for oscillator in (1, 2))

    def normal_modes(self, v: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray, float], ...]:
        """(X v, Q v, frequency) of the slow + mode, then of the fast - mode; P = i Q.

        The frequencies omega and eta * omega come from ``model.mode_frequency``.
        """
        xp, xm, qp, qm = normal_mode_quadratures(*self.bare_images(v))
        wp, wm = (mode_frequency(self.params, mode) for mode in (ModeIndex.PLUS, ModeIndex.MINUS))
        return (xp, qp, wp), (xm, qm, wm)


def solve(params: SystemParams, basis: TwoModeBasis) -> SolvedSystem:
    """Build the factors and the blocks of H of ``(params, basis)``; diagonalize each block once.

    Each block eigenvector is written into its ascending-energy column of
    ``vectors`` as the product-basis vector it stands for: its entry for the
    pair (a, b) at rows a * L + b and, times the block's swap sign, b * L + a,
    both over sqrt(2) unless a = b.  Every other row of the column is exactly zero.
    """
    x, q = bare_quadratures(params, basis)
    states = basis.swap_blocks()
    h_blocks = coupled_hamiltonian(params, x, q, states)
    vectors = np.zeros((basis.dim, basis.dim))  # made after the eigensolves, it raised peak RSS
    parts = [hamiltonian_eigensystem(h) for h in h_blocks]
    energies = np.concatenate([e for e, _ in parts])
    columns = np.argsort(np.argsort(energies, kind="stable"))  # ascending-energy column of each
    start, levels = 0, basis.levels
    for (a, b), sign, (e, v) in zip(states, (1.0, -1.0, 1.0, -1.0), parts):
        cols, start = columns[start : start + e.size], start + e.size
        v = np.where((a == b)[:, None], v, math.sqrt(0.5) * v)
        vectors[np.ix_(a * levels + b, cols)] = v
        vectors[np.ix_(b * levels + a, cols)] = sign * v  # rewrites |a, a> with the same v
    return SolvedSystem(params, basis, x, q, h_blocks, np.sort(energies), vectors, vectors[:, 0])


def bell_vector(system: SolvedSystem, state: BellState) -> np.ndarray:
    """Entangled single-excitation state (A-^dag |g> ± A+^dag |g>) / sqrt(2).

    |g> is the numerically exact ground state.  Each raising operator
    A^dag = sqrt(w/2) (X - i P / w) = sqrt(w/2) (X + Q / w), at its mode's
    frequency w, is applied through the images X|g> and Q|g>, which are real,
    so the vector is real float64.  The raw vector must come out
    normalized up to truncation noise; a deviation beyond 1e-3 signals a
    basis too small for the requested coupling (the tests pin the much
    tighter norms reached at the supported cutoffs).
    """
    ap_g, am_g = (
        np.sqrt(w / 2.0) * (xg + qg / w) for xg, qg, w in system.normal_modes(system.ground)
    )
    sign = 1.0 if state is BellState.PSI_PLUS else -1.0
    raw = (am_g + sign * ap_g) / np.sqrt(2.0)
    norm = float(np.linalg.norm(raw))
    if abs(norm - 1.0) > 1e-3:
        raise ConvergenceError(
            f"entangled-state norm {norm:.9f} deviates from 1; increase the cutoff"
        )
    return raw / norm
