"""First-principles numerical verification of every closed-form result.

Reads states and observables from one :class:`bellosc.fock.SolvedSystem`,
evolves them with :meth:`~bellosc.fock.SolvedSystem.evolve`, through the exact
block eigendecomposition of the coupled Hamiltonian, and compares against the
closed-form matrix elements and amplitude formulas.
Each comparison is returned as an :class:`OracleReport`; failures are
reported, never thrown.

Two adjudication probes are included for closed forms that circulate in two
variants: the cross-mode momentum correlation (whose value scales with omega,
not 1/omega) and the momentum evolution law (whose sine term must carry the
coordinate, as Hamilton's equations demand).  The rejected variants are kept
as negative controls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic import FluctuationTrace
from .model import BellState, ModeIndex, SystemParams, eta, mode_frequency
from . import fock
from .fock import SolvedSystem, TwoModeBasis

__all__ = [
    "OracleReport",
    "table1_check",
    "commutator_check",
    "heisenberg_evolution_check",
    "evolve_expectations",
    "cross_momentum_scaling_probe",
]

EVOLVE_TIME_BLOCK = 2048  # grid points evolved together by evolve_expectations


@dataclass(frozen=True)
class OracleReport:
    """One analytic-versus-oracle comparison record."""

    label: str
    analytic_value: complex
    oracle_value: complex
    abs_diff: float
    tolerance: float
    passed: bool

    @classmethod
    def compare(cls, label: str, analytic: complex, oracle: complex, tol: float) -> "OracleReport":
        diff = abs(complex(analytic) - complex(oracle))
        return cls(
            label=label,
            analytic_value=complex(analytic),
            oracle_value=complex(oracle),
            abs_diff=diff,
            tolerance=tol,
            passed=diff <= tol,
        )

    def line(self) -> str:
        """Single fixed-width report line for terminal output."""
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.label:<44s} analytic={_fmt_complex(self.analytic_value):>24s} "
            f"oracle={_fmt_complex(self.oracle_value):>24s} |diff|={self.abs_diff:.3e} "
            f"tol={self.tolerance:.1e}"
        )


def _fmt_complex(z: complex) -> str:
    z = complex(z.real + 0.0, z.imag + 0.0)  # normalize -0.0 for display
    if z.imag == 0:
        return f"{z.real:.9g}"
    return f"{z.real:.6g}{z.imag:+.6g}j"


def table1_check(system: SolvedSystem, tol: float) -> list[OracleReport]:
    """Check all normal-mode matrix elements on both entangled states.

    Eight families per state: first moments of X and P (zero), diagonal second
    moments 1/w_a and w_a, symmetrized cross correlations +-1/(2 sqrt(eta) w)
    and +-sqrt(eta) w / 2, and the ordered XP / PX products +-i/2.  Each
    <psi|AB|psi> is taken as the inner product of A|psi> and B|psi>.
    """
    params, cutoff = system.params, system.basis.cutoff
    if cutoff < 6:
        raise ValueError(f"matrix-element checks need cutoff >= 6, got {cutoff}")
    e = eta(params)
    w = params.omega
    wp = mode_frequency(params, ModeIndex.PLUS)
    wm = mode_frequency(params, ModeIndex.MINUS)

    reports: list[OracleReport] = []
    for state in (BellState.PSI_PLUS, BellState.PSI_MINUS):
        psi = fock.bell_vector(system, state)
        (xp, qp, _), (xm, qm, _) = system.normal_modes(psi)
        image = {"": psi, "X+": xp, "X-": xm, "P+": 1j * qp, "P-": 1j * qm}  # ("", A) gives <A>
        sign = 1.0 if state is BellState.PSI_PLUS else -1.0
        x_cross = sign / (2.0 * math.sqrt(e) * w)
        p_cross = sign * math.sqrt(e) * w / 2.0
        for a, b, expected in (
            ("", "X+", 0.0), ("", "X-", 0.0), ("", "P+", 0.0), ("", "P-", 0.0),
            ("X+", "X+", 1.0 / wp), ("X-", "X-", 1.0 / wm), ("P+", "P+", wp), ("P-", "P-", wm),
            ("X+", "X-", x_cross), ("X-", "X+", x_cross),
            ("X+", "P+", 0.5j), ("X-", "P-", 0.5j), ("P+", "X+", -0.5j), ("P-", "X-", -0.5j),
            ("P+", "P-", p_cross), ("P-", "P+", p_cross),
        ):
            name = f"<{a}^2>" if a == b else f"<{a}{b}>"
            value = np.vdot(image[a], image[b])
            reports.append(
                OracleReport.compare(f"table[{state.value}] {name}", expected, value, tol)
            )
    return reports


def cross_momentum_scaling_probe(
    params: SystemParams, basis: TwoModeBasis, tol: float
) -> tuple[OracleReport, OracleReport]:
    """Adjudicate the omega-scaling of the cross-mode momentum correlation.

    <P+P-> on the entangled states equals +-sqrt(eta) omega / 2 and therefore
    grows linearly with omega.  A dimensionally X-like variant,
    +-sqrt(eta) / (2 omega), coincides with it at omega = 1, so the probe
    solves its own system at doubled omega to separate the two; it needs
    nothing from the system at ``params``.  Returns (accepted, rejected)
    reports; the rejected one is a negative control and is expected to fail.
    """
    doubled = fock.solve(replace(params, omega=2.0 * params.omega), basis)
    e = eta(doubled.params)
    w = doubled.params.omega
    (_, qp, _), (_, qm, _) = doubled.normal_modes(fock.bell_vector(doubled, BellState.PSI_PLUS))
    value = np.vdot(qp, qm)  # the i of P+ = i Q+ and P- = i Q- cancel
    accepted = OracleReport.compare(
        f"<P+P-> momentum-type form sqrt(eta)*w/2 at w={w:g}",
        math.sqrt(e) * w / 2.0,
        value,
        tol,
    )
    rejected = OracleReport.compare(
        f"<P+P-> X-type variant sqrt(eta)/(2w) at w={w:g}",
        math.sqrt(e) / (2.0 * w),
        value,
        tol,
    )
    return accepted, rejected


def commutator_check(system: SolvedSystem) -> list[OracleReport]:
    """Verify canonical commutators away from the truncation corner.

    [x_i, p_j] = i delta_ij and [X_a, P_b] = i delta_ab on all basis states
    whose occupations are strictly below the cutoff (ladder truncation only
    corrupts the top level of each mode).  The commutators do not depend on
    the frequency; deviations are exact zeros up to float rounding, so the
    tolerance is fixed at 1e-12.

    What is tested is the single-oscillator relation [a, a^dag] = 1 below the
    cutoff, carried to each mode by its weights.  With a_n the weight of
    oscillator n in A's mode and b_n in B's, the pair (A, B) gives oscillator n
    the weight s_n = a_n b_n.  The system holds each momentum p = i q as its
    real q, and :class:`~bellosc.fock.SolvedSystem` enforces x exactly
    symmetric and q exactly antisymmetric.  So the cross-oscillator
    products x1 q2 = kron(x, q) and x2 q1 = kron(q, x) cancel their
    transposes entry by entry, and [A, B] = i (S_1 kron 1 + 1 kron S_2) with
    S_n = s_n x q + (s_n x q)^T cut below the cutoff.  The deviation from
    i delta 1 is the larger of max |S_1[i, i] + S_2[k, k] - delta| over pairs
    of diagonal entries and the largest off-diagonal |S_n|.  That is one c x c
    matrix per oscillator in place of a dense (c^2 x c^2) block, and bit for
    bit the same deviation.
    """
    c = system.basis.cutoff
    xq = (system.x @ system.q)[:c, :c]
    inv = 1.0 / np.sqrt(2.0)
    # weights of oscillators 1 and 2 in each mode, shared by its coordinate and momentum
    weights = {"1": (1.0, 0.0), "2": (0.0, 1.0), "+": (inv, inv), "-": (inv, -inv)}
    reports = []
    for pair in ("x1,p1", "x2,p2", "x1,p2", "x2,p1", "X+,P+", "X-,P-", "X+,P-", "X-,P+"):
        (a, b), delta = (weights[pair[1]], weights[pair[4]]), float(pair[1] == pair[4])
        s1, s2 = (sq + sq.T for sq in (a[0] * b[0] * xq, a[1] * b[1] * xq))
        diag = np.add.outer(np.diag(s1), np.diag(s2)) - delta
        np.fill_diagonal(s1, 0.0)
        np.fill_diagonal(s2, 0.0)
        dev = max(float(np.max(np.abs(m))) for m in (diag, s1, s2))
        reports.append(OracleReport.compare(f"commutator [{pair}] - i*{delta:g}", 0.0, dev, 1e-12))
    return reports


def heisenberg_evolution_check(
    system: SolvedSystem, t: float, tol: float
) -> tuple[OracleReport, OracleReport]:
    """Adjudicate the momentum evolution law by comparing U(t)^dag Y U(t) with both forms.

    The coordinate law is X(t) = X cos(wt) + (P/w) sin(wt) and the canonical
    momentum law P(t) = P cos(wt) - w X sin(wt), for each normal mode.  The
    non-canonical variant replaces X by P in the sine term, violates
    Hamilton's equations, and serves as a negative control.  Each U^dag Y U
    is formed once; the coordinate deviation enters both reports.  Deviations
    are measured entrywise on basis states with total occupation <= 2, so
    only those columns U(t)|n> are formed (:meth:`SolvedSystem.evolve`), and
    <m| U^dag Y U |n> = (U|m>)^dag Y (U|n>).
    Returns (accepted, rejected) reports; the rejected one is expected to fail.
    """
    mask = system.basis.mask_total_at_most(2)
    # the unit columns |n> of the masked n; the laws' blocks <m|Y|n> are rows of their images
    units = np.equal.outer(np.arange(system.basis.dim), np.flatnonzero(mask)).astype(float)
    u_cols = system.evolve(units, (t,))  # U(t)|n>
    u_dag = u_cols.conj().T
    x_dev, dev = 0.0, {"canonical": 0.0, "non-canonical": 0.0}
    for (xu, qu, w), (xn, qn, _) in zip(system.normal_modes(u_cols), system.normal_modes(units)):
        c, s = math.cos(w * t), math.sin(w * t)
        heis_x = u_dag @ xu
        heis_p = 1j * (u_dag @ qu)
        xs, ps = xn[mask], 1j * qn[mask]  # the laws act entrywise, so only on the block
        x_dev = max(x_dev, float(np.max(np.abs(heis_x - (xs * c + ps * (s / w))))))
        for form, sine_op in (("canonical", xs), ("non-canonical", ps)):
            dev[form] = max(dev[form], float(np.max(np.abs(heis_p - (ps * c - w * sine_op * s)))))
    accepted, rejected = (
        OracleReport.compare(
            f"evolution[{form}] max dev (n1+n2<=2) at t={t:g}", 0.0, max(x_dev, d), tol
        )
        for form, d in dev.items()
    )
    return accepted, rejected


def evolve_expectations(
    system: SolvedSystem,
    state: BellState,
    times: np.ndarray,
) -> FluctuationTrace:
    """Schrodinger-evolve the entangled state and collect normalized std devs.

    |psi(t)> = exp(-i H t) |psi> comes from :meth:`SolvedSystem.evolve`,
    EVOLVE_TIME_BLOCK times at a time so that memory is O(dim x block).  An
    entangled state lies in the two odd-parity blocks, so psi(t) is exactly
    zero on the rows with n1 + n2 even, and each image x psi(t) and q psi(t)
    (p = i q) on the others: every first moment is exactly 0, and a variance
    is the image's squared norm, one real dot product over its float view
    (re^2 + im^2 summed over the rows).  The returned columns are the
    standard deviations of the bare coordinates and momenta, divided by the
    single-oscillator ground-state values; no closed form enters.  Times at
    which a phase E * t overflows are rejected.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a nonempty 1-d grid")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    # max|E| * max|t| is the largest phase; as Python floats it overflows without a warning
    top = max(float(np.max(np.abs(e))) for e in system.energies)
    if not math.isfinite(top * float(np.max(np.abs(times)))):
        raise ValueError("times overflow the phases E * t: max|E| * max|t| is not finite")

    psi0 = fock.bell_vector(system, state)
    w = system.params.omega
    norms_sq = (2.0 * w, 2.0 * w, 2.0 / w, 2.0 / w)  # of x1, x2, q1, q2
    dx1, dx2, dp1, dp2 = stds = [np.empty(times.size) for _ in norms_sq]
    for start in range(0, times.size, EVOLVE_TIME_BLOCK):
        block = slice(start, start + EVOLVE_TIME_BLOCK)
        evolved = system.evolve(psi0, times[block])  # (dim, block size)
        for out, image, norm_sq in zip(stds, system.bare_images(evolved), norms_sq):
            flat = image.view(np.float64)  # columns alternate re and im
            squares = np.einsum("it,it->t", flat, flat)
            out[block] = np.sqrt((squares[0::2] + squares[1::2]) * norm_sq)
    return FluctuationTrace(
        times=times,
        dx1=dx1,
        dx2=dx2,
        dp1=dp1,
        dp2=dp2,
        up1=dx1 * dp1,
        up2=dx2 * dp2,
    )
