"""First-principles numerical verification of every closed-form result.

Reads states and observables from one :class:`bellosc.fock.SolvedSystem`,
evolves them through the exact eigendecomposition of the coupled Hamiltonian,
and compares against the closed-form matrix elements and amplitude formulas.
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
        image = {"": psi, "X+": system.xp @ psi, "X-": system.xm @ psi}  # ("", A) gives <A>
        image["P+"], image["P-"] = 1j * (system.qp @ psi), 1j * (system.qm @ psi)  # P = i Q
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
    psi = fock.bell_vector(doubled, BellState.PSI_PLUS)
    value = np.vdot(doubled.qp @ psi, doubled.qm @ psi)  # the i of P+ = i Q+ and P- = i Q- cancel
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
    tolerance is fixed at 1e-12.  The system holds each momentum b = i q as
    its real antisymmetric q (see :class:`~bellosc.fock.SolvedSystem`) and
    each coordinate a is symmetric, so [a, b] = i (a q + (a q)^T).  The
    deviation is max |a q + (a q)^T - delta 1| on the checked block, whose
    a q is one real product of the rows a[mask] with the columns q[:, mask].
    """
    s = system
    mask = s.basis.mask_below_cutoff()
    eye = np.eye(np.count_nonzero(mask))
    cases = [
        ("[x1,p1]", s.x1, s.q1, 1.0),
        ("[x2,p2]", s.x2, s.q2, 1.0),
        ("[x1,p2]", s.x1, s.q2, 0.0),
        ("[x2,p1]", s.x2, s.q1, 0.0),
        ("[X+,P+]", s.xp, s.qp, 1.0),
        ("[X-,P-]", s.xm, s.qm, 1.0),
        ("[X+,P-]", s.xp, s.qm, 0.0),
        ("[X-,P+]", s.xm, s.qp, 0.0),
    ]
    reports = []
    for name, a, q, delta in cases:
        aq = a[mask] @ q[:, mask]
        dev = float(np.max(np.abs(aq + aq.T - delta * eye)))
        reports.append(
            OracleReport.compare(f"commutator {name} - i*{delta:g}", 0.0, dev, 1e-12)
        )
    return reports


def _real_times(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a @ z for a real matrix a and a complex block z, as one real product over z's float view."""
    return (a @ np.ascontiguousarray(z).view(np.float64)).view(np.complex128)


def _evolve(system: SolvedSystem, coeffs: np.ndarray, times) -> np.ndarray:
    """exp(-i H t) applied to states given by their eigenbasis coefficients (rows)."""
    arg = np.multiply.outer(system.energies, times)
    phases = np.empty(arg.shape, dtype=np.complex128)  # cos(E t) - i sin(E t), no complex exp
    np.cos(arg, out=phases.real)
    np.sin(arg, out=phases.imag)
    np.negative(phases.imag, out=phases.imag)
    return _real_times(system.vectors, phases * coeffs)


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
    only those columns of U(t) are formed: in the eigenbasis U(t) is the
    elementwise phase exp(-i E t), and <m| U^dag Y U |n> = (U|m>)^dag Y (U|n>).
    Returns (accepted, rejected) reports; the rejected one is expected to fail.
    """
    mask = system.basis.mask_total_at_most(2)
    u_cols = _evolve(system, system.vectors[mask].T, (t,))  # U(t)|n> for the masked n
    u_dag = u_cols.conj().T
    sub = np.ix_(mask, mask)
    x_dev, dev = 0.0, {"canonical": 0.0, "non-canonical": 0.0}
    for x, q, w in system.normal_modes():
        c, s = math.cos(w * t), math.sin(w * t)
        heis_x = u_dag @ _real_times(x, u_cols)
        heis_p = 1j * (u_dag @ _real_times(q, u_cols))
        xs, ps = x[sub], 1j * q[sub]  # the laws act entrywise, so they are formed on the block only
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

    |psi(t)> = exp(-i H t) |psi>, computed through the eigendecomposition of
    H, EVOLVE_TIME_BLOCK times at a time so that memory is O(dim x block).
    First moments are <psi(t)|A|psi(t)> and second moments ||A psi(t)||^2.
    Every operator acts as a real matrix on the float view of the complex
    states: the system holds each momentum p = i q as its real q, with
    ||p psi|| = ||q psi|| and <p> = -Im <psi|q|psi>.
    The returned columns are the standard deviations
    of the bare coordinates and momenta on the evolved state, divided by the
    single-oscillator ground-state values; none of the closed-form amplitude
    results enter.  Times at which a phase E * t overflows are rejected.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a nonempty 1-d grid")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    # max|E| * max|t| is the largest phase; as Python floats it overflows without a warning
    if not math.isfinite(float(np.max(np.abs(system.energies))) * float(np.max(np.abs(times)))):
        raise ValueError("times overflow the phases E * t: max|E| * max|t| is not finite")

    psi0 = fock.bell_vector(system, state)
    coeffs = system.vectors.T @ psi0  # the eigenvectors are real
    w = system.params.omega
    # (real operator, part of <psi|op|psi> that is <A>, normalization); A = op or i op
    observables = (
        (system.x1, np.real, 2.0 * w),
        (system.x2, np.real, 2.0 * w),
        (system.q1, lambda z: -z.imag, 2.0 / w),
        (system.q2, lambda z: -z.imag, 2.0 / w),
    )
    dx1, dx2, dp1, dp2 = stds = [np.empty(times.size) for _ in observables]
    for start in range(0, times.size, EVOLVE_TIME_BLOCK):
        block = slice(start, start + EVOLVE_TIME_BLOCK)
        evolved = _evolve(system, coeffs[:, None], times[block])  # (dim, block size)
        for out, (op, mean_part, norm_sq) in zip(stds, observables):
            image = _real_times(op, evolved)
            first = mean_part(np.einsum("it,it->t", evolved.conj(), image))
            second = np.einsum("it,it->t", image.conj(), image).real
            out[block] = np.sqrt(np.maximum(second - first**2, 0.0) * norm_sq)
    return FluctuationTrace(
        times=times,
        dx1=dx1,
        dx2=dx2,
        dp1=dp1,
        dp2=dp2,
        up1=dx1 * dp1,
        up2=dx2 * dp2,
    )
