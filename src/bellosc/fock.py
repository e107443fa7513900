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
own.  :func:`solve` builds the factors, the blocks and their eigensystems
once per ``(params, basis)`` as plain arrays and returns a
:class:`SolvedSystem`, the one place that checks and freezes them; every
oracle check reads it.  The eigensystem stays in the blocks, in block
coordinates, and :meth:`SolvedSystem.evolve` applies exp(-i H t) through it,
so no held array has dim x dim entries.  Each momentum p = i q is held as
its real q.

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

# Largest accepted cutoff.  dim = (cutoff + 1)^2, and the largest held array
# is one (parity, swap) block of H or of its eigenvectors, about dim / 4 on a
# side: 441^2 entries (1.6 MB) at 40.  The four block eigensolves cost ~1/16 of a dense one.
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
    occupation 3.  At most MAX_CUTOFF is accepted, which bounds the blocks of
    H and their eigensolves.
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


def _embeddings(states, levels: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per block of ``states``: the product-basis rows a * L + b and mirrors b * L + a,
    and their weights as (n, 1) columns, 1/sqrt(2) and ±1/sqrt(2) (the block's
    swap sign), or 1/2 on each for a = b, whose two rows coincide."""
    tables = []
    for (a, b), sign in zip(states, (1.0, -1.0, 1.0, -1.0)):
        weights = np.where(a == b, 0.5, math.sqrt(0.5))[:, None]
        tables.append((a * levels + b, b * levels + a, weights, sign * weights))
    return tuple(tables)


def _add_block(out: np.ndarray, table, columns: np.ndarray) -> None:
    """Add a block's columns (block coordinates) into the product-basis ``out`` in place."""
    rows, mirrors, weights, mirror_weights = table
    out[rows] += weights * columns
    out[mirrors] += mirror_weights * columns


@dataclass(frozen=True, eq=False)
class SolvedSystem:
    """The oracle arrays of one ``(params, basis)``, built once by :func:`solve`.

    Every array is read-only, so a system can be shared between threads.
    ``x`` and ``q`` are the L x L factors of :func:`bare_quadratures`
    (L = cutoff + 1, p = i q), through which :meth:`bare_images` and
    :meth:`normal_modes` apply every observable.  Each tuple holds one entry per
    (parity, swap) block, in :meth:`TwoModeBasis.swap_blocks` order: its index
    tables (:func:`_embeddings`), its block of H (:func:`coupled_hamiltonian`)
    and its eigensystem in block coordinates (ascending, vectors as columns).
    ``ground`` is the lowest eigenvector, in the product basis.  Construction
    is the one check of the oracle's arrays: it freezes each one and raises
    ``ValueError``, naming the field, unless each tuple has 4 blocks, every
    float array is float64 of its shape (a block's side is its tables' length),
    and x and each block of H equal their transpose and q minus its transpose,
    exactly; so every lifted x and i q is Hermitian, and so is H.
    """

    params: SystemParams
    basis: TwoModeBasis
    x: np.ndarray
    q: np.ndarray
    embeddings: tuple[tuple[np.ndarray, ...], ...]
    h_blocks: tuple[np.ndarray, ...]
    energies: tuple[np.ndarray, ...]
    vectors: tuple[np.ndarray, ...]
    ground: np.ndarray

    def __post_init__(self) -> None:
        for name in ("embeddings", "h_blocks", "energies", "vectors"):
            if not isinstance(getattr(self, name), tuple) or len(getattr(self, name)) != 4:
                raise ValueError(f"{name} must be a tuple of 4 blocks")
        for m in (m for table in self.embeddings for m in table):
            m.setflags(write=False)
        levels, dim = self.basis.levels, self.basis.dim
        # (name, array, shape, +1 symmetric / -1 antisymmetric / 0 neither)
        checked = [("x", self.x, (levels, levels), 1), ("q", self.q, (levels, levels), -1)]
        checked.append(("ground", self.ground, (dim,), 0))
        for k, n in enumerate(rows.size for rows, *_ in self.embeddings):
            checked += [(f"h_blocks[{k}]", self.h_blocks[k], (n, n), 1)]
            checked += [(f"energies[{k}]", self.energies[k], (n,), 0)]
            checked += [(f"vectors[{k}]", self.vectors[k], (n, n), 0)]
        for name, m, shape, sign in checked:
            if getattr(m, "dtype", None) != np.float64:
                raise ValueError(f"{name} must be a real float64 array")
            m.setflags(write=False)
            if m.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {m.shape}")
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

    def evolve(self, v: np.ndarray, times) -> np.ndarray:
        """exp(-i H t) v in the product basis, as complex columns (dim, m).

        v is a state (dim,) or states (dim, k) whose columns broadcast against
        the 1-d times: one state at m times, or k states at one time.  v is
        projected onto each block through its index tables, phased on the
        block's eigenvectors by cos(E t) - i sin(E t) (bitwise exp(-i E t)) and
        added into the output in place; each matrix product is real, over float views.
        A block on which v has no component is skipped: it adds exactly nothing.
        """
        v = v.reshape(self.basis.dim, -1)
        out = np.zeros((self.basis.dim, max(v.shape[1], np.size(times))), dtype=np.complex128)
        for table, energies, vectors in zip(self.embeddings, self.energies, self.vectors):
            rows, mirrors, weights, mirror_weights = table
            part = weights * v[rows] + mirror_weights * v[mirrors]
            if not part.any():
                continue
            arg = np.multiply.outer(energies, times)
            phases = np.empty(arg.shape, dtype=np.complex128)  # no complex exp
            np.cos(arg, out=phases.real)
            np.sin(arg, out=phases.imag)
            np.negative(phases.imag, out=phases.imag)
            coeffs = (vectors.T @ part) * phases
            _add_block(out, table, (vectors @ coeffs.view(np.float64)).view(np.complex128))
        return out


def solve(params: SystemParams, basis: TwoModeBasis) -> SolvedSystem:
    """Build the factors and the blocks of H of ``(params, basis)``; diagonalize each block once.

    The ground state is the lowest block eigenvector, carried to the product
    basis through its block's index tables: exactly zero off its block's rows.
    """
    x, q = bare_quadratures(params, basis)
    states = basis.swap_blocks()
    h_blocks = coupled_hamiltonian(params, x, q, states)
    energies, vectors = zip(*[hamiltonian_eigensystem(h) for h in h_blocks])
    embeddings = _embeddings(states, basis.levels)
    lowest = int(np.argmin([e[0] for e in energies]))
    ground = np.zeros(basis.dim)
    _add_block(ground[:, None], embeddings[lowest], vectors[lowest][:, :1])
    return SolvedSystem(params, basis, x, q, embeddings, h_blocks, energies, vectors, ground)


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
        if system.basis.cutoff < MAX_CUTOFF:
            remedy = "increase the cutoff"
        else:
            remedy = f"the largest accepted cutoff, {MAX_CUTOFF}, cannot represent this coupling"
        raise ConvergenceError(f"entangled-state norm {norm:.9g} deviates from 1; {remedy}")
    return raw / norm
