"""Dense operator matrices on a truncated two-oscillator Fock space.

The verification oracle represents every observable as a dense matrix in the
product number basis |n1, n2> of the two bare oscillators (each factor built
at the basis frequency det(K)^(1/4), see :func:`basis_frequency`),
diagonalizes the coupled Hamiltonian exactly, and prepares the entangled
states from the numerical ground state.  No closed-form amplitude result
enters; the one model input is the pair of normal-mode frequencies omega and
eta * omega (``model.mode_frequency``) at which the Bell-state ladder
operators are built.

:func:`solve` builds all of this once per ``(params, basis)`` as plain arrays
and returns a :class:`SolvedSystem`, the one place that checks and freezes
them; every oracle check reads it.  Each momentum p = i q is held as its real q.

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
    "normal_mode_quadratures",
    "coupled_hamiltonian",
    "hamiltonian_eigensystem",
    "solve",
    "bell_vector",
]

HERMITICITY_TOL = 1e-12

# Largest accepted cutoff.  dim = (cutoff + 1)^2, so at 40 one dense real
# operator holds 1681^2 entries (22.6 MB); at 100 it would be 0.8 GB.
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
    every dense operator.
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

    def mask_total_at_most(self, total: int) -> np.ndarray:
        """Boolean mask of basis states with n1 + n2 <= total."""
        n1, n2 = self.occupations()
        return n1 + n2 <= total

    def mask_below_cutoff(self) -> np.ndarray:
        """Boolean mask of states with every occupation strictly below the cutoff."""
        n1, n2 = self.occupations()
        return (n1 < self.cutoff) & (n2 < self.cutoff)


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


def _mode_quadratures(cutoff: int, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Real position matrix x and momentum part q of one oscillator on levels 0..cutoff.

    With the lowering matrix a (entries sqrt(n) at (n - 1, n)),
    x = (a^dag + a) / sqrt(2 w) is symmetric and q = sqrt(w / 2) (a^dag - a)
    antisymmetric, so x and the momentum p = i q are Hermitian (hbar = 1).
    Truncation makes [a, a^dag] the identity except for its last diagonal entry, -cutoff.
    """
    a = np.diag(np.sqrt(np.arange(1, cutoff + 1, dtype=float)), k=1)
    x = (a.T + a) / np.sqrt(2.0 * omega)
    q = np.sqrt(omega / 2.0) * (a.T - a)
    return x, q


def bare_quadratures(
    params: SystemParams, basis: TwoModeBasis
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bare coordinates and momentum parts (x1, x2, q1, q2) on the product space.

    Each factor is represented in its own number basis at
    :func:`basis_frequency`; each momentum p = i q is returned as its real q.
    kron copies entries, so each x is exactly symmetric and each q antisymmetric.
    """
    x, q = _mode_quadratures(basis.cutoff, basis_frequency(params))
    eye = np.eye(basis.levels)
    return np.kron(x, eye), np.kron(eye, x), np.kron(q, eye), np.kron(eye, q)


def normal_mode_quadratures(
    x1: np.ndarray, x2: np.ndarray, q1: np.ndarray, q2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collective (X+, X-, Q+, Q-) = (x1 ± x2, q1 ± q2)/sqrt(2) with P± = i Q±, as plain arrays."""
    inv = 1.0 / np.sqrt(2.0)
    return inv * (x1 + x2), inv * (x1 - x2), inv * (q1 + q2), inv * (q1 - q2)


def coupled_hamiltonian(params: SystemParams, basis: TwoModeBasis) -> np.ndarray:
    """Hamiltonian (p1^2 + p2^2 + w^2 (x1^2 + x2^2) + W^2 (x1 - x2)^2) / 2, real symmetric.

    W = g * w is the coupling strength.  Every square is the truncated
    single-mode product lifted onto the product space, x1^2 = kron(x @ x, 1)
    and x1 x2 = kron(x, x), which equals the product of the lifted matrices,
    and p^2 = (i q)^2 = -q q.  Both factors use the number basis of
    :func:`bare_quadratures`.  x and q are tridiagonal, so an entry of x @ x or
    q @ q sums the same products as its mirror, and H is exactly symmetric.
    """
    x, q = _mode_quadratures(basis.cutoff, basis_frequency(params))
    xx, pp = x @ x, -(q @ q)
    eye = np.eye(basis.levels)
    x_sq = np.kron(xx, eye) + np.kron(eye, xx)
    diff_sq = x_sq - 2.0 * np.kron(x, x)
    w2 = params.omega**2
    big_omega2 = (params.coupling_ratio * params.omega) ** 2
    return 0.5 * (np.kron(pp, eye) + np.kron(eye, pp) + w2 * x_sq + big_omega2 * diff_sq)


def hamiltonian_eigensystem(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real-symmetric H (eigenvalues ascending, eigenvectors as columns)."""
    try:
        energies, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    return energies, vectors


@dataclass(frozen=True, eq=False)
class SolvedSystem:
    """Every oracle matrix of one ``(params, basis)``, built once by :func:`solve`.

    Every array is real float64 and read-only, so a system can be shared
    between threads.  ``x1, x2`` are the bare coordinates and ``xp, xm`` the
    normal-mode X+, X-.  Each momentum is stored as its real antisymmetric
    part q: p1 = i q1, p2 = i q2, P+ = i qp and P- = i qm.  ``h`` is real
    symmetric and ``energies, vectors`` its eigensystem (ascending,
    eigenvectors as columns); ``ground`` is the lowest eigenvector.
    Construction is the one check of the oracle's arrays: it freezes each one
    and raises ``ValueError``, naming the field, unless every array is
    float64, x1, x2, xp, xm and h equal their transpose and q1, q2, qp, qm
    minus their transpose, exactly; so every x and every i q is Hermitian.
    """

    params: SystemParams
    basis: TwoModeBasis
    x1: np.ndarray
    x2: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    xp: np.ndarray
    xm: np.ndarray
    qp: np.ndarray
    qm: np.ndarray
    h: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray
    ground: np.ndarray

    def __post_init__(self) -> None:
        for field in fields(self)[2:]:  # every field after params and basis is an array
            name, m = field.name, getattr(self, field.name)
            if getattr(m, "dtype", None) != np.float64:
                raise ValueError(f"{name} must be a real float64 array")
            m.setflags(write=False)
            if name in ("x1", "x2", "xp", "xm", "h") and not np.array_equal(m.T, m):
                raise ValueError(f"{name} must be symmetric")
            if name in ("q1", "q2", "qp", "qm") and not np.array_equal(m.T, -m):
                raise ValueError(f"{name} must be antisymmetric")

    def normal_modes(self) -> tuple[tuple[np.ndarray, np.ndarray, float], ...]:
        """(X, Q, frequency) of the slow + mode, then of the fast - mode; P = i Q.

        The frequencies omega and eta * omega come from ``model.mode_frequency``.
        """
        return (
            (self.xp, self.qp, mode_frequency(self.params, ModeIndex.PLUS)),
            (self.xm, self.qm, mode_frequency(self.params, ModeIndex.MINUS)),
        )


def solve(params: SystemParams, basis: TwoModeBasis) -> SolvedSystem:
    """Build the quadratures and H of ``(params, basis)`` and diagonalize H, once."""
    x1, x2, q1, q2 = bare_quadratures(params, basis)
    xp, xm, qp, qm = normal_mode_quadratures(x1, x2, q1, q2)
    h = coupled_hamiltonian(params, basis)
    energies, vectors = hamiltonian_eigensystem(h)
    return SolvedSystem(
        params, basis, x1, x2, q1, q2, xp, xm, qp, qm, h, energies, vectors, vectors[:, 0]
    )


def bell_vector(system: SolvedSystem, state: BellState) -> np.ndarray:
    """Entangled single-excitation state (A-^dag |g> ± A+^dag |g>) / sqrt(2).

    |g> is the numerically exact ground state.  Each raising operator
    A^dag = sqrt(w/2) (X - i P / w) = sqrt(w/2) (X + Q / w), at its mode's
    frequency w, is applied as two real operator-times-vector products, so
    the vector is real float64.  The raw vector must come out
    normalized up to truncation noise; a deviation beyond 1e-3 signals a
    basis too small for the requested coupling (the tests pin the much
    tighter norms reached at the supported cutoffs).
    """
    gs = system.ground
    ap_g, am_g = (
        np.sqrt(w / 2.0) * (x @ gs + (q @ gs) / w) for x, q, w in system.normal_modes()
    )
    sign = 1.0 if state is BellState.PSI_PLUS else -1.0
    raw = (am_g + sign * ap_g) / np.sqrt(2.0)
    norm = float(np.linalg.norm(raw))
    if abs(norm - 1.0) > 1e-3:
        raise ConvergenceError(
            f"entangled-state norm {norm:.9f} deviates from 1; increase the cutoff"
        )
    return raw / norm
