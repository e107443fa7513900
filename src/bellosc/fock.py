"""Dense operator matrices on a truncated two-oscillator Fock space.

The verification oracle represents every observable as a dense matrix in the
product number basis |n1, n2> of the two bare oscillators (each factor built
at the basis frequency det(K)^(1/4), see :func:`basis_frequency`),
diagonalizes the coupled Hamiltonian exactly, and prepares the entangled
states from the numerical ground state.  No closed-form amplitude result
enters; the one model input is the pair of normal-mode frequencies omega and
eta * omega (``model.mode_frequency``) at which the Bell-state ladder
operators are built.

:func:`solve` builds all of this once per ``(params, basis)`` and returns a
:class:`SolvedSystem` of read-only arrays, which every oracle check reads.

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
    "normal_mode_quadratures",
    "coupled_hamiltonian",
    "hamiltonian_eigensystem",
    "solve",
    "bell_vector",
]

HERMITICITY_TOL = 1e-12

# Largest accepted cutoff.  dim = (cutoff + 1)^2, so at 40 one dense complex
# operator holds 1681^2 entries (45 MB); at 100 it would be 1.7 GB.
MAX_CUTOFF = 40


class ConvergenceError(RuntimeError):
    """Raised when an eigensolve fails or a prepared state is visibly truncated."""


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Validator of one observable matrix: square, dim >= 2 and Hermitian.

    Construction freezes the array read-only; the builders below keep only
    ``.matrix``.
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
    """Position and momentum matrices of one oscillator on levels 0..cutoff.

    With the lowering matrix a (entries sqrt(n) at (n - 1, n)),
    X = (a^dag + a) / sqrt(2 w) and P = i sqrt(w / 2) (a^dag - a), both
    Hermitian (hbar = 1): X is real and P purely imaginary.  Truncation makes
    [a, a^dag] the identity except for its last diagonal entry, -cutoff.
    """
    a = np.diag(np.sqrt(np.arange(1, cutoff + 1, dtype=float)), k=1)
    x = (a.T + a) / np.sqrt(2.0 * omega)
    p = 1j * np.sqrt(omega / 2.0) * (a.T - a)
    return x, p


def bare_quadratures(
    params: SystemParams, basis: TwoModeBasis
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bare coordinates and momenta (x1, x2, p1, p2) on the product space.

    Each factor is represented in its own number basis at
    :func:`basis_frequency`.
    """
    x, p = _mode_quadratures(basis.cutoff, basis_frequency(params))
    eye = np.eye(basis.levels)
    x1, x2, p1, p2 = (
        OperatorMatrix(m).matrix
        for m in (np.kron(x, eye), np.kron(eye, x), np.kron(p, eye), np.kron(eye, p))
    )
    return x1, x2, p1, p2


def normal_mode_quadratures(
    x1: np.ndarray, x2: np.ndarray, p1: np.ndarray, p2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collective coordinates (X+, X-, P+, P-) with X± = (x1 ± x2)/sqrt(2)."""
    inv = 1.0 / np.sqrt(2.0)
    xp = OperatorMatrix(inv * (x1 + x2)).matrix
    xm = OperatorMatrix(inv * (x1 - x2)).matrix
    pp = OperatorMatrix(inv * (p1 + p2)).matrix
    pm = OperatorMatrix(inv * (p1 - p2)).matrix
    return xp, xm, pp, pm


def coupled_hamiltonian(params: SystemParams, basis: TwoModeBasis) -> np.ndarray:
    """Hamiltonian (p1^2 + p2^2 + w^2 (x1^2 + x2^2) + W^2 (x1 - x2)^2) / 2, real symmetric.

    W = g * w is the coupling strength.  Every square is the truncated
    single-mode product lifted onto the product space, x1^2 = kron(x @ x, 1)
    and x1 x2 = kron(x, x), which equals the product of the lifted matrices.
    p^2 is real because p is purely imaginary.  Both factors use the number
    basis of :func:`bare_quadratures`.
    """
    x, p = _mode_quadratures(basis.cutoff, basis_frequency(params))
    xx, pp = x @ x, (p @ p).real
    eye = np.eye(basis.levels)
    x_sq = np.kron(xx, eye) + np.kron(eye, xx)
    diff_sq = x_sq - 2.0 * np.kron(x, x)
    w2 = params.omega**2
    big_omega2 = (params.coupling_ratio * params.omega) ** 2
    h = 0.5 * (np.kron(pp, eye) + np.kron(eye, pp) + w2 * x_sq + big_omega2 * diff_sq)
    return OperatorMatrix(h).matrix


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

    All arrays are read-only, so a system can be shared between threads.
    ``xp, xm, pp, pm`` are X+, X-, P+, P-; ``h`` is real symmetric and
    ``energies, vectors`` its eigensystem (ascending, eigenvectors as
    columns); ``ground`` is the lowest eigenvector.

    Structure, which the oracle kernels use to run in real arithmetic:
    ``x1, x2, xp, xm, h, energies, vectors, ground`` are real float64, and
    ``p1, p2, pp, pm`` are complex128 with a real part that is exactly zero,
    so each momentum is i times the real matrix in its ``.imag``.
    Construction checks this and raises ``ValueError`` otherwise.
    """

    params: SystemParams
    basis: TwoModeBasis
    x1: np.ndarray
    x2: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    xp: np.ndarray
    xm: np.ndarray
    pp: np.ndarray
    pm: np.ndarray
    h: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray
    ground: np.ndarray

    def __post_init__(self) -> None:
        for name in ("x1", "x2", "xp", "xm", "h", "energies", "vectors", "ground"):
            dtype = getattr(self, name).dtype
            if dtype != np.float64:
                raise ValueError(f"{name} must be real float64, got {dtype}")
        for name in ("p1", "p2", "pp", "pm"):
            m = getattr(self, name)
            if m.dtype != np.complex128 or m.real.any():
                raise ValueError(f"{name} must be complex128 with a zero real part")

    def normal_modes(self) -> tuple[tuple[np.ndarray, np.ndarray, float], ...]:
        """(X, P, frequency) of the slow + mode, then of the fast - mode.

        The frequencies omega and eta * omega come from ``model.mode_frequency``.
        """
        return (
            (self.xp, self.pp, mode_frequency(self.params, ModeIndex.PLUS)),
            (self.xm, self.pm, mode_frequency(self.params, ModeIndex.MINUS)),
        )


def solve(params: SystemParams, basis: TwoModeBasis) -> SolvedSystem:
    """Build the quadratures and H of ``(params, basis)`` and diagonalize H, once."""
    x1, x2, p1, p2 = bare_quadratures(params, basis)
    xp, xm, pp, pm = normal_mode_quadratures(x1, x2, p1, p2)
    h = coupled_hamiltonian(params, basis)
    energies, vectors = hamiltonian_eigensystem(h)
    energies.setflags(write=False)
    vectors.setflags(write=False)
    return SolvedSystem(
        params, basis, x1, x2, p1, p2, xp, xm, pp, pm, h, energies, vectors, vectors[:, 0]
    )


def bell_vector(system: SolvedSystem, state: BellState) -> np.ndarray:
    """Entangled single-excitation state (A-^dag |g> ± A+^dag |g>) / sqrt(2).

    |g> is the numerically exact ground state.  Each raising operator
    A^dag = sqrt(w/2) (X - i P / w), at its mode's frequency w, is applied as
    two operator-times-vector products.  The raw vector must come out
    normalized up to truncation noise; a deviation beyond 1e-3 signals a
    basis too small for the requested coupling (the tests pin the much
    tighter norms reached at the supported cutoffs).
    """
    gs = system.ground
    ap_g, am_g = (
        np.sqrt(w / 2.0) * (x @ gs - 1j * (p @ gs) / w) for x, p, w in system.normal_modes()
    )
    sign = 1.0 if state is BellState.PSI_PLUS else -1.0
    raw = (am_g + sign * ap_g) / np.sqrt(2.0)
    norm = float(np.linalg.norm(raw))
    if abs(norm - 1.0) > 1e-3:
        raise ConvergenceError(
            f"entangled-state norm {norm:.9f} deviates from 1; increase the cutoff"
        )
    return raw / norm
