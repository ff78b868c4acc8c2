"""Multi-photon states and field expectation values.

Exact photon-number states have vanishing mean fields; superpositions of
different photon numbers develop a classical plane-wave expectation.  The
canonical instance shipped here is the Poissonian (coherent) coefficient
profile C_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!), whose mean field is a
circularly polarized wave of amplitude set by alpha.

Every closed-form expectation is backed by a matrix path (state vector
against the operator matrices); the two must agree to 1e-10.  A grid of
mean fields is one stacked evaluation (mean_field_table) over one amplitude
profile, and its CSV formats each distinct value of a column once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .fock import BasisMismatchError, FockBasis, Mode, ModeKey, SparseOperator, float_reprs
from .fields import FieldKind, SpacetimePoint, field_mode_coefficients, mode_coefficients


@dataclass(frozen=True, eq=False)
class FockState:
    """Normalized coefficient vector on a FockBasis.

    norm_deficit records the probability mass lost to truncation before
    normalization (zero for states that fit the caps exactly).
    """

    basis: FockBasis
    coefficients: np.ndarray
    norm_deficit: float = 0.0

    def __post_init__(self) -> None:
        c = np.asarray(self.coefficients, dtype=complex)
        if c.shape != (self.basis.dim,):
            raise ValueError(f"coefficient vector must have length {self.basis.dim}")
        # Squares that overflow make the norm inf, and c / inf the zero vector.
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(c)
        if not 0 < norm < np.inf:
            raise ValueError(f"state vector must have a finite nonzero norm, got {float(norm)!r}")
        c = np.ascontiguousarray(c / norm)
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)


@dataclass(frozen=True)
class ModeProfile:
    """Single-mode occupation-number coefficients C_n for n = 0..cap."""

    mode: ModeKey
    amplitudes: tuple[complex, ...]
    norm_deficit: float = 0.0


@dataclass(frozen=True, eq=False)
class AmplitudeProfile:
    """Per-mode ladder expectation <a_m> extracted from a state."""

    amplitudes: np.ndarray  # complex, one entry per basis mode


def vacuum(basis: FockBasis) -> FockState:
    c = np.zeros(basis.dim, dtype=complex)
    c[0] = 1.0
    return FockState(basis=basis, coefficients=c)


def number_state(basis: FockBasis, occupancies: Sequence[int]) -> FockState:
    c = np.zeros(basis.dim, dtype=complex)
    c[basis.index(occupancies)] = 1.0
    return FockState(basis=basis, coefficients=c)


def coherent_profile(alpha: complex, mode: Mode | ModeKey, cap: int) -> ModeProfile:
    """Poissonian coefficient profile for one mode, truncated at cap quanta.

    The recorded norm_deficit is the Poisson tail beyond the cap.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    key = mode.key if isinstance(mode, Mode) else (int(mode[0]), tuple(int(v) for v in mode[1]))
    alpha = complex(alpha)
    weight = math.exp(-abs(alpha) ** 2 / 2.0)
    amps = tuple(
        weight * alpha**n / math.sqrt(math.factorial(n)) for n in range(cap + 1)
    )
    kept = sum(abs(a) ** 2 for a in amps)
    return ModeProfile(mode=key, amplitudes=amps, norm_deficit=max(0.0, 1.0 - kept))


def superposition(
    basis: FockBasis,
    coeff_map: Mapping[tuple[int, ...], complex] | ModeProfile,
) -> FockState:
    """State from occupancy-tuple coefficients or a single-mode profile."""
    if isinstance(coeff_map, ModeProfile):
        if len(coeff_map.amplitudes) - 1 > basis.n_max:
            raise ValueError(
                f"profile cap {len(coeff_map.amplitudes) - 1} exceeds n_max = {basis.n_max}"
            )
        j = basis.mode_index(coeff_map.mode)
        expanded: dict[tuple[int, ...], complex] = {}
        for n, amp in enumerate(coeff_map.amplitudes):
            occ = [0] * basis.n_modes
            occ[j] = n
            expanded[tuple(occ)] = amp
        coeff_map = expanded
    c = np.zeros(basis.dim, dtype=complex)
    for occ, amp in coeff_map.items():
        c[basis.index(occ)] = amp
    with np.errstate(over="ignore"):
        deficit = max(0.0, 1.0 - float(np.linalg.norm(c) ** 2))
    return FockState(basis=basis, coefficients=c, norm_deficit=deficit)


def expectation(op: SparseOperator, state: FockState) -> complex:
    """<psi, Op psi>; real up to roundoff when Op is flagged hermitian."""
    if op.basis is not state.basis:
        raise BasisMismatchError("operator and state live on different bases")
    c = state.coefficients
    return complex(np.vdot(c, op.matrix @ c))


def amplitude_profile(state: FockState) -> AmplitudeProfile:
    """<a_m> for every mode, computed from coefficient ladder sums.

    <a_m> = sum_src conj(C[dst]) C[src] amp over the basis's lowering table
    (a_m |src> = amp |dst>); this is the coefficient-weighted form and
    agrees with the matrix expectation.
    """
    src, dst, amp = state.basis.lowering
    c = state.coefficients
    amps = np.sum(np.conj(c[dst]) * c[src] * amp, axis=1)
    return AmplitudeProfile(amplitudes=amps)


def _mean_field(coeffs: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """sum_m ( coef_m <a_m> + c.c. ) for coefficients of shape (..., n_modes, 3)."""
    return 2.0 * np.real(np.swapaxes(coeffs, -1, -2) @ amps)


def field_expectation_closed_form(
    state: FockState, kind: FieldKind, x: SpacetimePoint
) -> np.ndarray:
    """Mean field from the per-mode amplitude sums (no operator matrices).

    <F(r,t)> = sum_m ( coef_m(r,t) <a_m> + c.c. ), with the same mode
    coefficients that define the field operators.
    """
    coeffs = field_mode_coefficients(state.basis, kind, x)
    return _mean_field(coeffs, amplitude_profile(state).amplitudes)


def mean_field_table(
    state: FockState, kind: FieldKind, r: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """(N, 7) rows (t, x, y, z, Fx, Fy, Fz) of the closed-form mean field.

    r of shape (N, 3) and t of shape (N,) are stacked points, which the
    caller has checked to be finite.  The amplitudes <a_m> and the mode
    coefficients of all points are computed once each; every row equals
    field_expectation_closed_form at its point.
    """
    amps = amplitude_profile(state).amplitudes
    means = _mean_field(mode_coefficients(state.basis, kind, r, t), amps)
    return np.column_stack([t, r, means])


def expectation_grid(
    state: FockState, kind: FieldKind, points: Iterable[SpacetimePoint]
) -> list[tuple[float, float, float, float, float, float, float]]:
    """Rows (t, x, y, z, Fx, Fy, Fz) of the closed-form mean field at points.

    The points are stacked into one mean_field_table call.
    """
    points = list(points)
    r = np.reshape([pt.r for pt in points], (-1, 3))
    t = np.array([pt.t for pt in points], dtype=float)
    return [tuple(row) for row in mean_field_table(state, kind, r, t).tolist()]


GRID_HEADER = "t,x,y,z,Fx,Fy,Fz"


def write_grid_csv(rows, stream: IO[str]) -> None:
    """CSV with shortest round-trip float formatting (bit-stable output).

    rows is a list of (t, x, y, z, Fx, Fy, Fz) tuples or an (N, 7) array;
    each column is formatted with fock.float_reprs.
    """
    stream.write(GRID_HEADER + "\n")
    table = np.asarray(rows, dtype=float)
    if len(table):
        columns = [float_reprs(column) for column in table.T]
        stream.writelines(",".join(texts) + "\n" for texts in zip(*columns))


def vacuum_field_square(basis: FockBasis) -> float:
    """Closed lattice sum for <E^2> in the vacuum over the configured modes.

    Each (helicity, momentum) mode contributes Delta3p omega/(2 pi hbar)^2;
    growing the momentum cutoff grows the sum without bound, which is the
    lattice rendering of the divergent point fluctuation.
    """
    return float(np.sum(basis.delta3p * basis.omega / (2.0 * np.pi * basis.config.hbar) ** 2))


def vacuum_field_square_scan(
    length: float, hbar: float, c: float, cutoffs: Sequence[int]
) -> list[tuple[int, float]]:
    """(cutoff, vacuum <E^2>) for momentum balls |n| <= cutoff, both helicities.

    Pure lattice sum over one table of n^2 for the largest cutoff; no Fock
    basis is built.  Each row adds its terms in (nx, ny, nz) lexicographic
    order.
    """
    if any(cutoff < 1 for cutoff in cutoffs):
        raise ValueError("cutoffs must be >= 1")
    if not cutoffs:
        return []
    dp3 = (2.0 * np.pi * hbar / length) ** 3
    # n^2 over the cube of the largest cutoff, flattened in (nx, ny, nz)
    # lexicographic order; every smaller ball is a subset in the same order.
    top = max(cutoffs)
    sq = np.arange(-top, top + 1) ** 2
    n2 = (sq[:, None, None] + sq[None, :, None] + sq[None, None, :]).ravel()
    terms = 2.0 * dp3 * (c * (2.0 * np.pi / length) * np.sqrt(n2)) / (2.0 * np.pi * hbar) ** 2
    # cumsum adds the terms one after another, as a running total would.
    return [
        (cutoff, float(np.cumsum(terms[(n2 > 0) & (n2 <= cutoff * cutoff)])[-1]))
        for cutoff in cutoffs
    ]
