"""Dense operator matrices on a truncated two-oscillator Fock space.

The verification oracle represents every observable as a dense matrix in the
product number basis |n1, n2> of the two bare oscillators (each factor built
at the natural frequency omega), diagonalizes the coupled Hamiltonian exactly,
and prepares the entangled states from the numerical ground state.  Nothing
here relies on the closed-form amplitude results; this module is the
independent leg of every cross-check.

Truncation corrupts only the top Fock levels, so operator identities are
meaningful on the low-lying subspace where every occupation stays well below
the cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BellState, ModeIndex, SystemParams, mode_frequency

__all__ = [
    "ConvergenceError",
    "OperatorMatrix",
    "TwoModeBasis",
    "ladder_matrices",
    "quadrature_matrices",
    "bare_quadratures",
    "coupled_hamiltonian",
    "coupled_hamiltonian_shifted_form",
    "normal_mode_quadratures",
    "normal_mode_ladders",
    "hamiltonian_eigensystem",
    "ground_state",
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
    """A dense complex matrix representing an observable or unitary.

    The wrapped array is validated (square, dim >= 2, hermiticity when hinted)
    and frozen read-only at construction, so instances are safe to share
    between threads.
    """

    matrix: np.ndarray
    hermitian_hint: bool = False

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        if m.shape[0] < 2:
            raise ValueError(f"operator matrix dimension must be >= 2, got {m.shape[0]}")
        if self.hermitian_hint:
            dev = np.max(np.abs(m - m.conj().T))
            if dev >= HERMITICITY_TOL:
                raise ValueError(f"matrix hinted hermitian deviates by {dev:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dagger(self) -> "OperatorMatrix":
        return OperatorMatrix(self.matrix.conj().T, hermitian_hint=self.hermitian_hint)

    def expectation(self, vec: np.ndarray) -> complex:
        """<vec| M |vec> for a (not necessarily normalized) state vector."""
        return complex(np.vdot(vec, self.matrix @ vec))


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

    def mask_below_cutoff(self, margin: int = 1) -> np.ndarray:
        """Boolean mask of states with every occupation <= cutoff - margin."""
        n1, n2 = self.occupations()
        keep = self.cutoff - margin
        return (n1 <= keep) & (n2 <= keep)


def ladder_matrices(cutoff: int) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Single-mode lowering and raising matrices on levels 0..cutoff.

    The lowering matrix has entries sqrt(n) at positions (n - 1, n); the
    raising matrix is its conjugate transpose.  Their commutator equals the
    identity except for the last diagonal entry, -cutoff, a known exact
    artifact of the truncation.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    lowering = np.diag(np.sqrt(np.arange(1, cutoff + 1, dtype=float)), k=1).astype(complex)
    return OperatorMatrix(lowering), OperatorMatrix(lowering.conj().T)


def quadrature_matrices(cutoff: int, mode_freq: float) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Position and momentum matrices of a single mode at frequency mode_freq.

    X = (a^dag + a) / sqrt(2 w) and P = i sqrt(w / 2) (a^dag - a), both
    Hermitian (hbar = 1).
    """
    if mode_freq <= 0:
        raise ValueError(f"mode_freq must be > 0, got {mode_freq}")
    low, raise_ = ladder_matrices(cutoff)
    a, adag = low.matrix, raise_.matrix
    x = (adag + a) / np.sqrt(2.0 * mode_freq)
    p = 1j * np.sqrt(mode_freq / 2.0) * (adag - a)
    return OperatorMatrix(x, hermitian_hint=True), OperatorMatrix(p, hermitian_hint=True)


def _embed(single: np.ndarray, basis: TwoModeBasis, which: int) -> np.ndarray:
    """Lift a single-mode matrix onto oscillator 1 or 2 of the product space."""
    eye = np.eye(basis.levels, dtype=complex)
    if which == 1:
        return np.kron(single, eye)
    return np.kron(eye, single)


def bare_quadratures(
    params: SystemParams, basis: TwoModeBasis
) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """Bare coordinates and momenta (x1, x2, p1, p2) on the product space.

    Each factor is represented in its own frequency-omega number basis.
    """
    x, p = quadrature_matrices(basis.cutoff, params.omega)
    return (
        OperatorMatrix(_embed(x.matrix, basis, 1), hermitian_hint=True),
        OperatorMatrix(_embed(x.matrix, basis, 2), hermitian_hint=True),
        OperatorMatrix(_embed(p.matrix, basis, 1), hermitian_hint=True),
        OperatorMatrix(_embed(p.matrix, basis, 2), hermitian_hint=True),
    )


def coupled_hamiltonian(params: SystemParams, basis: TwoModeBasis) -> OperatorMatrix:
    """Hamiltonian (p1^2 + p2^2 + w^2 (x1^2 + x2^2) + W^2 (x1 - x2)^2) / 2.

    W = g * w is the coupling strength.  Hermitian by construction.
    """
    x1, x2, p1, p2 = (op.matrix for op in bare_quadratures(params, basis))
    w2 = params.omega**2
    big_omega2 = (params.coupling_ratio * params.omega) ** 2
    diff = x1 - x2
    h = 0.5 * (p1 @ p1 + p2 @ p2 + w2 * (x1 @ x1 + x2 @ x2) + big_omega2 * (diff @ diff))
    return OperatorMatrix(h, hermitian_hint=True)


def coupled_hamiltonian_shifted_form(params: SystemParams, basis: TwoModeBasis) -> OperatorMatrix:
    """Algebraically identical arrangement with shifted single-oscillator frequency.

    (p1^2 + p2^2 + w'^2 (x1^2 + x2^2) - 2 W^2 x1 x2) / 2 with w'^2 = w^2 + W^2,
    which makes the position-position character of the coupling explicit.
    Kept separate so the identity of the two assemblies is testable.
    """
    x1, x2, p1, p2 = (op.matrix for op in bare_quadratures(params, basis))
    big_omega2 = (params.coupling_ratio * params.omega) ** 2
    wprime2 = params.omega**2 + big_omega2
    h = 0.5 * (
        p1 @ p1 + p2 @ p2 + wprime2 * (x1 @ x1 + x2 @ x2) - 2.0 * big_omega2 * (x1 @ x2)
    )
    return OperatorMatrix(h, hermitian_hint=True)


def normal_mode_quadratures(
    params: SystemParams, basis: TwoModeBasis
) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """Collective coordinates (X+, X-, P+, P-) with X± = (x1 ± x2)/sqrt(2)."""
    x1, x2, p1, p2 = (op.matrix for op in bare_quadratures(params, basis))
    inv = 1.0 / np.sqrt(2.0)
    return (
        OperatorMatrix(inv * (x1 + x2), hermitian_hint=True),
        OperatorMatrix(inv * (x1 - x2), hermitian_hint=True),
        OperatorMatrix(inv * (p1 + p2), hermitian_hint=True),
        OperatorMatrix(inv * (p1 - p2), hermitian_hint=True),
    )


def normal_mode_ladders(
    params: SystemParams, basis: TwoModeBasis
) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """Normal-mode ladder operators (A+, A+^dag, A-, A-^dag).

    Built from the collective quadratures as A = sqrt(w/2) (X + i P / w) at the
    mode's own frequency, so [A_a, A_b^dag] = delta_ab holds on low-lying
    states up to truncation artifacts.
    """
    xp, xm, pp, pm = (op.matrix for op in normal_mode_quadratures(params, basis))
    out = []
    for x, p, mode in ((xp, pp, ModeIndex.PLUS), (xm, pm, ModeIndex.MINUS)):
        w = mode_frequency(params, mode)
        a = np.sqrt(w / 2.0) * (x + 1j * p / w)
        out.append(OperatorMatrix(a))
        out.append(OperatorMatrix(a.conj().T))
    return out[0], out[1], out[2], out[3]


def hamiltonian_eigensystem(
    params: SystemParams, basis: TwoModeBasis
) -> tuple[np.ndarray, np.ndarray]:
    """Full Hermitian eigendecomposition (eigenvalues ascending, eigenvectors as columns)."""
    h = coupled_hamiltonian(params, basis).matrix
    try:
        energies, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    return energies, vectors


def ground_state(params: SystemParams, basis: TwoModeBasis) -> tuple[float, np.ndarray]:
    """Ground energy and ground-state vector of the coupled Hamiltonian."""
    energies, vectors = hamiltonian_eigensystem(params, basis)
    return float(energies[0]), vectors[:, 0]


def bell_vector(state: BellState, params: SystemParams, basis: TwoModeBasis) -> np.ndarray:
    """Entangled single-excitation state (A-^dag |g> ± A+^dag |g>) / sqrt(2).

    |g> is the numerically exact ground state, so the construction carries no
    closed-form input.  The raw vector must come out normalized up to
    truncation noise; a deviation beyond 1e-3 signals a basis too small for
    the requested coupling (the tests pin the much tighter norms reached at
    the supported cutoffs).
    """
    _, gs = ground_state(params, basis)
    _, ap_dag, _, am_dag = normal_mode_ladders(params, basis)
    sign = 1.0 if state is BellState.PSI_PLUS else -1.0
    raw = (am_dag.matrix @ gs + sign * (ap_dag.matrix @ gs)) / np.sqrt(2.0)
    norm = float(np.linalg.norm(raw))
    if abs(norm - 1.0) > 1e-3:
        raise ConvergenceError(
            f"entangled-state norm {norm:.9f} deviates from 1; increase the cutoff"
        )
    return raw / norm
