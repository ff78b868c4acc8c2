"""Multi-photon states and field expectation values.

Exact photon-number states have vanishing mean fields; superpositions of
different photon numbers develop a classical plane-wave expectation.  The
canonical instance shipped here is the Poissonian (coherent) coefficient
profile C_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!), whose mean field is a
circularly polarized wave of amplitude set by alpha.  Every state vector
is built by superposition from {occupancies: amplitude} terms; a profile
gives its terms once (ModeProfile.terms), for superposition and for the
CLI's scenario parser alike.

Every closed-form expectation is backed by a matrix path; the two must
agree to 1e-10.  The matrix path of a mean field takes <a_m> and
<a-dagger_m> on the assembled per-mode ladder operators
(ladder_expectations) and sums them over the mode coefficients
(ladder_mean_field); verify ties that sum to one assembled field operator
per kind.  A grid of mean fields is one stacked evaluation
(mean_field_table) over one amplitude profile, and its CSV formats each
distinct value of a column once.

The vacuum <E^2> is a sum of the per-mode terms fock.dispersion gives: over
the mode table (vacuum_field_square) or over momentum balls
(vacuum_field_square_scan), whose totals check_vacuum_scan bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .fock import BasisMismatchError, FockBasis, ModeKey, ModeTable, SparseOperator, dispersion, float_reprs, mode_key
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

    def terms(self, modes: Sequence[ModeKey]) -> dict[tuple[int, ...], complex]:
        """{occupancies: C_n} over the given modes: n quanta in this mode, none in the others."""
        j = modes.index(self.mode)
        return {tuple(n if i == j else 0 for i in range(len(modes))): a for n, a in enumerate(self.amplitudes)}


def vacuum(basis: FockBasis) -> FockState:
    return superposition(basis, {(0,) * basis.n_modes: 1.0})


def number_state(basis: FockBasis, occupancies: Sequence[int]) -> FockState:
    return superposition(basis, {tuple(occupancies): 1.0})


def coherent_profile(alpha: complex, mode: ModeKey, cap: int) -> ModeProfile:
    """Poissonian coefficient profile for one mode, truncated at cap quanta.

    The recorded norm_deficit is the Poisson tail beyond the cap.  The
    coefficients follow C_n = C_(n-1) alpha / sqrt(n), which never forms n!.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    key = mode_key(mode)
    alpha = complex(alpha)
    amps = [complex(math.exp(-abs(alpha) ** 2 / 2.0))]
    for n in range(1, cap + 1):
        amps.append(amps[-1] * alpha / math.sqrt(n))
    amps = tuple(amps)
    kept = sum(abs(a) ** 2 for a in amps)
    return ModeProfile(mode=key, amplitudes=amps, norm_deficit=max(0.0, 1.0 - kept))


def superposition(
    basis: FockBasis,
    coeff_map: Mapping[tuple[int, ...], complex] | ModeProfile,
) -> FockState:
    """State from occupancy-tuple coefficients or a single-mode profile.

    The one builder of a state vector: vacuum and number_state are single
    terms of weight 1.0.
    """
    if isinstance(coeff_map, ModeProfile):
        if len(coeff_map.amplitudes) - 1 > basis.n_max:
            raise ValueError(
                f"profile cap {len(coeff_map.amplitudes) - 1} exceeds n_max = {basis.n_max}"
            )
        basis.mode_index(coeff_map.mode)  # KeyError for a mode off the lattice
        coeff_map = coeff_map.terms(basis.modes)
    c = np.zeros(basis.dim, dtype=complex)
    for occ, amp in coeff_map.items():
        c[basis.index(occ)] = amp
    with np.errstate(over="ignore"):
        deficit = max(0.0, 1.0 - float(np.linalg.norm(c) ** 2))
    return FockState(basis=basis, coefficients=c, norm_deficit=deficit)


def expectation(op: SparseOperator, state: FockState) -> complex:
    """<psi, Op psi>; real up to roundoff when Op is hermitian."""
    if op.basis is not state.basis:
        raise BasisMismatchError("operator and state live on different bases")
    c = state.coefficients
    return complex(np.vdot(c, op.apply(c)))


def ladder_expectations(
    state: FockState, ladders: Sequence[tuple[SparseOperator, SparseOperator]]
) -> np.ndarray:
    """(<a_m>, <a-dagger_m>) of every mode, shape (2, n_modes).

    ladders holds the assembled (a_m, a-dagger_m) pair of each mode.  Both
    expectations are taken on the matrices, so <a-dagger_m> is not assumed
    to be conj(<a_m>) and neither comes from amplitude_profile.
    """
    return np.array([[expectation(op, state) for op in pair] for pair in ladders]).T


def ladder_mean_field(coeffs: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Re sum_m ( coef_m <a_m> + conj(coef_m) <a-dagger_m> ) for coefficients (..., n_modes, 3).

    means is the (2, n_modes) array of ladder_expectations.
    """
    coeffs_t = np.swapaxes(coeffs, -1, -2)
    return np.real(coeffs_t @ means[0] + np.conj(coeffs_t) @ means[1])


def amplitude_profile(state: FockState) -> np.ndarray:
    """<a_m> for every mode, a complex (n_modes,) array in mode order.

    <a_m> = sum_s conj(C[target]) C[s] amplitude over the live entries of
    row m of the basis's ladder table (a_m |s> = amplitude |target>,
    amplitude > 0); this is the coefficient-weighted form and agrees with
    the matrix expectation.
    """
    basis, c = state.basis, state.coefficients
    amplitude = basis.amplitude[: basis.n_modes]
    live = amplitude > 0
    terms = np.conj(c[basis.target[: basis.n_modes][live]]) * c[np.nonzero(live)[1]] * amplitude[live]
    return np.sum(terms.reshape(basis.n_modes, -1), axis=1)


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
    return _mean_field(coeffs, amplitude_profile(state))


def mean_field_table(state: FockState, kind: FieldKind, r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(N, 7) rows (t, x, y, z, Fx, Fy, Fz) of the closed-form mean field.

    r of shape (N, 3) and t of shape (N,) are stacked points, which the
    caller has checked to be finite.  The amplitudes <a_m> and the mode
    coefficients of all points are computed once each; every row equals
    field_expectation_closed_form at its point.
    """
    means = _mean_field(mode_coefficients(state.basis, kind, r, t), amplitude_profile(state))
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


def vacuum_field_square(basis: ModeTable) -> float:
    """Closed lattice sum for <E^2> in the vacuum over the configured modes.

    Each (helicity, momentum) mode contributes its term basis.vacuum_e2;
    growing the momentum cutoff grows the sum without bound, which is the
    lattice rendering of the divergent point fluctuation.
    """
    return float(np.sum(basis.vacuum_e2))


def vacuum_field_square_scan(
    length: float, hbar: float, c: float, cutoffs: Sequence[int]
) -> list[tuple[int, float]]:
    """(cutoff, vacuum <E^2>) for momentum balls |n| <= cutoff, both helicities.

    A pure lattice sum; no mode table or Fock basis is built.  fock.dispersion
    gives the vacuum <E^2> term of every n in the largest ball, in (nx, ny,
    nz) lexicographic order, and each cutoff's value adds twice that term
    (two helicities) per momentum of its ball, one term after another.
    """
    if any(cutoff < 1 for cutoff in cutoffs):
        raise ValueError("cutoffs must be >= 1")
    if not cutoffs:
        return []
    # Every smaller ball is a subset of the largest in the same order.
    top = max(cutoffs)
    n = np.indices((2 * top + 1,) * 3, dtype=np.int32).reshape(3, -1).T - top
    n2 = np.vecdot(n, n)
    ball = (n2 > 0) & (n2 <= top * top)
    n, n2 = n[ball], n2[ball]
    terms = 2.0 * dispersion(n, length, hbar, c)[3]
    # cumsum adds the terms one after another, as a running total would.
    return [(cutoff, float(np.cumsum(terms[n2 <= cutoff * cutoff])[-1])) for cutoff in cutoffs]


def check_vacuum_scan(length: float, hbar: float, c: float, cutoffs: Sequence[int]) -> None:
    """ValueError if the scan to top = max(cutoffs) can overflow: < (2 top + 1)^3 terms, none above |n| = top's."""
    top = max(cutoffs)
    with np.errstate(over="ignore"):
        term = 2.0 * dispersion([[top, 0, 0]], length, hbar, c)[3][0]
        bound = (2 * top + 1) ** 3 * term
    if not bound < np.inf:
        raise ValueError(
            f"the sum to cutoff {top} can overflow: "
            f"(2 * {top} + 1)^3 terms of up to {float(term)!r} exceed the float range"
        )
