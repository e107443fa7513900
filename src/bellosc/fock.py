"""Two coupled oscillators on a truncated Fock space, in single-oscillator factors.

The verification oracle works in the product number basis |n1, n2> of the two
bare oscillators (each factor built at the basis frequency det(K)^(1/4), see
:func:`basis_frequency`), diagonalizes the coupled Hamiltonian exactly, and
prepares the entangled states from the numerical ground state.  No
closed-form amplitude result enters; the one model input is the pair of
normal-mode frequencies omega and eta * omega (``model.mode_frequency``) at
which the Bell-state ladder operators are built.

Every observable except H is kron(m, 1) or kron(1, m) of a single-oscillator
matrix m, and :func:`lift` applies it through m alone; only H is held as a
dense product-space matrix, so np.kron runs only in :func:`coupled_hamiltonian`.
Each term of H changes n1 + n2 by 0 or 2, so H is diagonalized per parity
block of n1 + n2.  :func:`solve` builds the factors, H and its eigensystem
once per ``(params, basis)`` as plain arrays and returns a
:class:`SolvedSystem`, the one place that checks and freezes them; every
oracle check reads it.  Each momentum p = i q is held as its real q.

Truncation corrupts only the top Fock levels, so operator identities are
meaningful on the low-lying subspace where every occupation stays well below
the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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

# Largest accepted cutoff.  dim = (cutoff + 1)^2, and H and its eigenvectors
# are the two dense dim x dim arrays: at 40 each holds 1681^2 entries
# (22.6 MB); at 100 each would be 0.8 GB.
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
    H and its eigenvectors.
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

    def index(self, n1: int, n2: int) -> int:
        if not (0 <= n1 <= self.cutoff and 0 <= n2 <= self.cutoff):
            raise ValueError(f"occupations ({n1}, {n2}) outside cutoff {self.cutoff}")
        return n1 * self.levels + n2

    def occupations(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (n1, n2) of per-state occupations, aligned with basis indices."""
        n1, n2 = np.divmod(np.arange(self.dim), self.levels)
        return n1, n2

    def parity_sectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the basis states with n1 + n2 even, then with n1 + n2 odd."""
        return tuple(np.flatnonzero(np.add(*self.occupations()) % 2 == p) for p in (0, 1))

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


def coupled_hamiltonian(params: SystemParams, basis: TwoModeBasis) -> np.ndarray:
    """Hamiltonian (p1^2 + p2^2 + w^2 (x1^2 + x2^2) + W^2 (x1 - x2)^2) / 2, real symmetric.

    W = g * w is the coupling strength.  Every square is the truncated
    single-mode product lifted onto the product space, x1^2 = kron(x @ x, 1)
    and x1 x2 = kron(x, x), which equals the product of the lifted matrices,
    and p^2 = (i q)^2 = -q q, with x and q of :func:`bare_quadratures`.  They
    are tridiagonal, so an entry of x @ x or q @ q sums the same products as
    its mirror, and H is exactly symmetric.  H is accumulated in place, at most
    three dim x dim arrays at a time, as ((pp1 + pp2) + w^2 x_sq) + W^2 diff_sq.
    These Kronecker products are the only np.kron calls of the oracle.
    """
    x, q = bare_quadratures(params, basis)
    xx, pp = x @ x, -(q @ q)
    eye = np.eye(basis.levels)
    x_sq = np.kron(xx, eye)
    x_sq += np.kron(eye, xx)
    h = np.kron(pp, eye)
    h += np.kron(eye, pp)
    diff_sq = np.kron(2.0 * x, x)  # 2 x1 x2, exactly: doubling rounds nothing
    np.subtract(x_sq, diff_sq, out=diff_sq)
    x_sq *= params.omega**2
    h += x_sq
    diff_sq *= (params.coupling_ratio * params.omega) ** 2
    h += diff_sq
    h *= 0.5
    return h


def hamiltonian_eigensystem(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of a real-symmetric H or parity block of it (ascending, vectors as columns)."""
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
    ``h`` is the dense Hamiltonian and ``energies, vectors`` its eigensystem
    (ascending, eigenvectors as columns); ``ground`` is the lowest
    eigenvector.  Construction is the one check of the oracle's arrays: it
    freezes each one and raises ``ValueError``, naming the field, unless every
    array is float64, x and q are L x L and h is L^2 x L^2, x and h equal their
    transpose and q minus its transpose, h is zero between the parity sectors,
    exactly; so every lifted x and i q is Hermitian and H is block-diagonal.
    """

    params: SystemParams
    basis: TwoModeBasis
    x: np.ndarray
    q: np.ndarray
    h: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray
    ground: np.ndarray

    def __post_init__(self) -> None:
        levels = self.basis.levels
        for field in fields(self)[2:]:  # every field after params and basis is an array
            name, m = field.name, getattr(self, field.name)
            if getattr(m, "dtype", None) != np.float64:
                raise ValueError(f"{name} must be a real float64 array")
            m.setflags(write=False)
            side = {"x": levels, "q": levels, "h": self.basis.dim}.get(name)
            if side is not None and m.shape != (side, side):
                raise ValueError(f"{name} must have shape ({side}, {side}), got {m.shape}")
            if name in ("x", "h") and not np.array_equal(m.T, m):
                raise ValueError(f"{name} must be symmetric")
            if name == "h" and np.any(m[np.ix_(*self.basis.parity_sectors())]):
                raise ValueError(f"{name} must not couple the parity sectors of n1 + n2")
            if name == "q" and not np.array_equal(m.T, -m):
                raise ValueError(f"{name} must be antisymmetric")

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
    """Build the factors and H of ``(params, basis)``; diagonalize H once, per parity sector,
    into the ascending-energy columns of ``vectors``, each exactly zero off its sector's rows."""
    x, q = bare_quadratures(params, basis)
    h = coupled_hamiltonian(params, basis)
    sectors = basis.parity_sectors()
    vectors = np.zeros((basis.dim, basis.dim))  # made after the eigensolves, it raised peak RSS
    parts = [hamiltonian_eigensystem(h[np.ix_(rows, rows)]) for rows in sectors]
    energies = np.concatenate([e for e, _ in parts])
    columns = np.argsort(np.argsort(energies, kind="stable"))  # ascending-energy column of each
    for rows, cols, (_, v) in zip(sectors, np.split(columns, [sectors[0].size]), parts):
        vectors[np.ix_(rows, cols)] = v
    return SolvedSystem(params, basis, x, q, h, np.sort(energies), vectors, vectors[:, 0])


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
