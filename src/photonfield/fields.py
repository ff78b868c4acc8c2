"""Electromagnetic field operators on the Fock basis and their identities.

A field is an (n_modes, 3) array of coefficients of a_m, one row per mode:

    E(r,t) = (1/(2 pi hbar)) sum_modes sqrt(Delta3p) sqrt(omega)
             ( i a eps exp(i(p.r - E t)/hbar) + h.c. ),

the magnetic field uses k x eps in place of eps, and the transverse
potential uses weight c/sqrt(omega) and no factor i; each component is one
fock.ladder_sum.  mode_coefficients evaluates the coefficients at N
stacked points at once, (N, 3) positions and (N,) times to an
(N, n_modes, 3) array; field_mode_coefficients is that core on one point.
Coefficients, commutator closed forms and zero-point constants read only
the mode table (fock.ModeTable, which needs no Fock space).
A derivative is the coefficients times one per-mode factor, (-i omega) per
time derivative and (i p_j / hbar) per derivative along axis j.  Every linear
operator is built by one function, linear_forms, from an (n_modes, C)
coefficient array: one operator per column.
The total energy, momentum and spin are box integrals of quadratic
densities: the box keeps only mode pairs of equal or opposite momentum, so
each is a coefficient array over mode pairs, assembled by fock.ladder_products
with no quadrature and exact up to floating point and truncation at the
occupancy cap.  The Maxwell and potential residuals are array expressions over
the distinct values each field operator stores, c_m sqrt(k) for k = 1..n_max
(_stored_values); none is assembled, and a ModeTable is enough.
Ladder operators of different modes commute exactly, even when truncated, so
two fields with coefficients u, v have the diagonal commutator [F_i, G_j] =
sum_m (u_mi conj(v_mj) - conj(u_mi) v_mj) [a_m, a-dagger_m] (commutator_weights).
The closed forms reduce that sum by the helicity completeness relation, so they
need both helicities of every momentum n, and -n too (else CompletenessError).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fock import (
    FockBasis,
    ModeTable,
    SparseOperator,
    diagonal_operator,
    ladder_products,
    ladder_sum,
)


class CompletenessError(ValueError):
    """A closed-form result needs both helicities of every lattice momentum n, and -n too."""


class FieldKind(enum.Enum):
    E = "E"
    B = "B"
    A = "A"


@dataclass(frozen=True, eq=False)
class SpacetimePoint:
    r: np.ndarray
    t: float = 0.0

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float)
        if r.shape != (3,):
            raise ValueError(f"position must be a 3-vector, got shape {r.shape}")
        if not (np.all(np.isfinite(r)) and np.isfinite(self.t)):
            raise ValueError("spacetime point must be finite")
        r = np.ascontiguousarray(r)
        r.setflags(write=False)
        object.__setattr__(self, "r", r)


@dataclass(frozen=True, eq=False)
class ZeroPointConstants:
    """Finite lattice remnants of the half-quantum per mode."""

    E0: float
    P0: np.ndarray
    S0: np.ndarray


def zero_point(basis: ModeTable) -> ZeroPointConstants:
    hbar = basis.config.hbar
    e0 = 0.5 * np.sum(hbar * basis.omega)
    p0 = 0.5 * basis.p.sum(axis=0)
    s0 = 0.5 * basis.spin.sum(axis=0)
    return ZeroPointConstants(E0=float(e0), P0=p0, S0=s0)


# ---------------------------------------------------------------------------
# mode coefficients and linear operators


def _amplitudes(basis: ModeTable, kind: FieldKind, t) -> np.ndarray:
    """Per-mode coefficient 3-vectors at r = 0 (the a-side of each field).

    Row m is the coefficient of a_m; the conjugate multiplies a-dagger.
    The position factor exp(i p.r / hbar) is _phase.  A scalar t gives
    shape (n_modes, 3); times of shape (...) give (..., n_modes, 3).
    """
    kind = FieldKind(kind)
    hbar, c = basis.config.hbar, basis.config.c
    scale = np.sqrt(basis.delta3p) / (2.0 * np.pi * hbar)
    phase = np.exp(-1j * basis.omega * np.asarray(t)[..., None])[..., None]
    if kind is FieldKind.A:
        return scale * (c / np.sqrt(basis.omega))[:, None] * basis.eps * phase
    pol = basis.eps if kind is FieldKind.E else basis.k_cross_eps
    return scale * 1j * np.sqrt(basis.omega)[:, None] * pol * phase


def _phase(basis: ModeTable, r) -> np.ndarray:
    """exp(i p.r / hbar) per mode at stacked positions: r of shape (..., 3) gives (..., n_modes)."""
    return np.exp(1j * np.vecdot(basis.p, np.asarray(r)[..., None, :]) / basis.config.hbar)


def _derivative_factors(basis: ModeTable, phase: np.ndarray, dt: int, dr) -> np.ndarray:
    """Per-mode factors of d_t^dt d_r^dr: phase (-i omega)^dt prod_j (i p_j / hbar)^dr_j, in that order."""
    return phase * (-1j * basis.omega) ** dt * np.prod((1j * basis.p / basis.config.hbar) ** np.asarray(dr), axis=1)


def mode_coefficients(basis: ModeTable, kind: FieldKind, r: np.ndarray, t) -> np.ndarray:
    """Coefficient of a_m for each field component at stacked spacetime points.

    r of shape (N, 3) and t of shape (N,) give an (N, n_modes, 3) array whose
    row i holds the coefficients at (r[i], t[i]); r of shape (3,) and a
    scalar t give the (n_modes, 3) array of one point.  Every element is
    computed by the same operations as for that point alone.  The points
    are not validated; SpacetimePoint checks one.  A derivative of the field
    is these coefficients times one per-mode factor (field_derivative).
    """
    return _amplitudes(basis, kind, t) * _phase(basis, r)[..., None]


def field_mode_coefficients(basis: ModeTable, kind: FieldKind, x: SpacetimePoint) -> np.ndarray:
    """Coefficient of a_m for each field component at one spacetime point, (n_modes, 3)."""
    return mode_coefficients(basis, kind, x.r, x.t)


def _ladder_weights(coeffs: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """Stack a-side coefficients c over (c, sign * conj(c)), the a-dagger side."""
    return np.concatenate([coeffs, sign * np.conj(coeffs)])


def linear_forms(basis: FockBasis, coeffs, sign: float = 1.0) -> tuple[SparseOperator, ...]:
    """sum_m ( c_m a_m + sign * conj(c_m) a-dagger_m ), one operator per column c of coeffs.

    A linear form is its coefficient vector: coeffs is an (n_modes, C)
    array, row m the coefficients of a_m; any other shape is refused.
    sign = 1 gives hermitian observables, sign = -1 antihermitian ones.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 2 or coeffs.shape[0] != basis.n_modes:
        raise ValueError(f"expected {basis.n_modes} mode coefficients, got shape {coeffs.shape}")
    weights = _ladder_weights(coeffs, sign)
    return tuple(ladder_sum(basis, weights[:, i]) for i in range(weights.shape[1]))


def field(
    basis: FockBasis, kind: FieldKind, x: SpacetimePoint
) -> tuple[SparseOperator, SparseOperator, SparseOperator]:
    """The three cartesian component operators of E, B or A at x."""
    return linear_forms(basis, field_mode_coefficients(basis, kind, x))


def field_derivative(
    basis: FockBasis, kind: FieldKind, x: SpacetimePoint, dt: int = 0, dr: tuple[int, int, int] = (0, 0, 0)
) -> tuple[SparseOperator, SparseOperator, SparseOperator]:
    """Exact derivative d_t^dt d_r^dr of a field at x: its coefficients times one per-mode factor."""
    factors = _derivative_factors(basis, _phase(basis, x.r), dt, dr)
    return linear_forms(basis, _amplitudes(basis, kind, x.t) * factors[:, None])


def field_number_commutator(
    basis: FockBasis, kind: FieldKind, x: SpacetimePoint
) -> tuple[SparseOperator, SparseOperator, SparseOperator]:
    """Closed form of [field, N]: the field with its h.c. part sign-flipped.

    [a, N] = a and [a-dagger, N] = -a-dagger hold exactly even on the
    truncated space, so the matrix commutator equals this antihermitian
    operator everywhere, not just on a safe subspace.
    """
    return linear_forms(basis, field_mode_coefficients(basis, kind, x), -1.0)


# ---------------------------------------------------------------------------
# diagonal observables


def observable_diagonals(basis: FockBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonals of H, P and S in the occupation basis, shapes (dim,), (3, dim) and (3, dim).

    Each is the occupancy table times a per-mode value: hbar omega, the
    components of p and the components of the spin.
    """
    occ = basis.occupancy_table()
    return (
        occ @ (basis.config.hbar * basis.omega),
        np.stack([occ @ basis.p[:, i] for i in range(3)]),
        np.stack([occ @ basis.spin[:, i] for i in range(3)]),
    )


def observable_H(basis: FockBasis) -> SparseOperator:
    return diagonal_operator(basis, observable_diagonals(basis)[0])


def observable_P(basis: FockBasis) -> tuple[SparseOperator, SparseOperator, SparseOperator]:
    return tuple(diagonal_operator(basis, d) for d in observable_diagonals(basis)[1])


def observable_S(basis: FockBasis) -> tuple[SparseOperator, SparseOperator, SparseOperator]:
    return tuple(diagonal_operator(basis, d) for d in observable_diagonals(basis)[2])


# ---------------------------------------------------------------------------
# quadratic observables via the analytic box integral


def _box_integral(basis: ModeTable, u: np.ndarray, v: np.ndarray, cross: bool) -> np.ndarray:
    """Box integral of field_u . field_v (or x) as weights over ladder pairs.

    u, v are the per-mode a-side coefficient 3-vectors.  With ladder
    operators L = (a, a-dagger) carrying momenta q = (p, -p), integrating
    exp(i(q_k + q_l).r/hbar) over the box leaves its volume where q_k + q_l = 0:
    equal momenta for a a-dagger and a-dagger a, opposite momenta for a a
    and a-dagger a-dagger.  The time-dependent opposite-momentum terms are
    kept and cancel between the paired orderings of the physical densities.
    Returns shape (2 n_modes, 2 n_modes, components).
    """
    q = np.concatenate([basis.n, -basis.n])
    paired = np.all(q[:, None, :] + q[None, :, :] == 0, axis=-1)
    f, g = _ladder_weights(u)[:, None, :], _ladder_weights(v)[None, :, :]
    terms = np.cross(f, g) if cross else np.sum(f * g, axis=-1, keepdims=True)
    return basis.config.length**3 * np.where(paired[..., None], terms, 0.0)


def quadratic_H_from_fields(basis: FockBasis, t: float = 0.0) -> SparseOperator:
    """(1/8 pi) Integral (E^2 + B^2) d^3r, reduced analytically.

    On the margin-1 safe subspace this equals H + E0 * identity; the time
    argument only enters terms that cancel, so the result is conserved.
    """
    u_e = _amplitudes(basis, FieldKind.E, t)
    u_b = _amplitudes(basis, FieldKind.B, t)
    weights = _box_integral(basis, u_e, u_e, False) + _box_integral(basis, u_b, u_b, False)
    return ladder_products(basis, weights[..., 0] / (8.0 * np.pi))


def _cross_observable(basis: FockBasis, u: np.ndarray, v: np.ndarray):
    """(1/8 pi c) Integral (F_u x F_v - F_v x F_u) d^3r, one operator per component."""
    weights = _box_integral(basis, u, v, True) - _box_integral(basis, v, u, True)
    weights /= 8.0 * np.pi * basis.config.c
    return tuple(ladder_products(basis, weights[..., i]) for i in range(3))


def quadratic_P_from_fields(
    basis: FockBasis, t: float = 0.0
) -> tuple[SparseOperator, SparseOperator, SparseOperator]:
    """(1/8 pi c) Integral (E x B - B x E) d^3r; equals P + P0 on the safe subspace."""
    return _cross_observable(
        basis, _amplitudes(basis, FieldKind.E, t), _amplitudes(basis, FieldKind.B, t)
    )


def quadratic_S_from_fields(
    basis: FockBasis, t: float = 0.0
) -> tuple[SparseOperator, SparseOperator, SparseOperator]:
    """(1/8 pi c) Integral (E x A - A x E) d^3r; equals S + S0 on the safe subspace."""
    return _cross_observable(
        basis, _amplitudes(basis, FieldKind.E, t), _amplitudes(basis, FieldKind.A, t)
    )


# ---------------------------------------------------------------------------
# derivative relations and Maxwell's equations


def _check_step(h: float, method: str) -> None:
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"step h must be finite and positive, got {h!r}")
    if method not in ("fd", "analytic"):
        raise ValueError(f"method must be 'fd' or 'analytic', got {method!r}")


def _stored_values(basis: ModeTable, coeffs: np.ndarray) -> np.ndarray:
    """Distinct a-side values of sum_m (c_m a_m + h.c.) for each column of coeffs.

    coeffs (..., n_modes, C) give (..., C, n_modes, n_max): c_m sqrt(k) for
    k = 1..n_max.  Each entry of a_m that an operator on a FockBasis stores
    has the magnitude of one of these, bit for bit, and every k occurs (the
    ladder table holds sqrt(k) at occupancy k); the a-dagger side holds their
    conjugates.  So a maximum over them is the maximum over the stored entries.
    """
    return np.swapaxes(coeffs, -1, -2)[..., None] * np.sqrt(np.arange(1, basis.config.n_max + 1), dtype=float)


def _derivatives(basis: ModeTable, kind: FieldKind, x: SpacetimePoint, h: float, method: str) -> np.ndarray:
    """Values of d_t F_i, d_x F_i, d_y F_i, d_z F_i at x, shape (4, 3, n_modes, n_max).

    "analytic" differentiates each mode exactly; "fd" takes O(h^2) central
    differences over the 8 points x +/- h e_(t, x, y, z).
    """
    if method == "analytic":
        amplitudes, phase = _amplitudes(basis, kind, x.t), _phase(basis, x.r)
        factors = [_derivative_factors(basis, phase, dt, dr) for dt, *dr in np.eye(4, dtype=int)]
        return _stored_values(basis, amplitudes * np.stack(factors)[..., None])
    steps = h * np.eye(4)
    t = np.concatenate([x.t + steps[:, 0], x.t - steps[:, 0]])
    r = np.concatenate([x.r + steps[:, 1:], x.r - steps[:, 1:]])
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
        raise ValueError("stencil points must be finite")
    values = _stored_values(basis, mode_coefficients(basis, kind, r, t))
    return (values[:4] - values[4:]) * (0.5 / h)


def _curl(grad: np.ndarray) -> np.ndarray:
    """Curl from grad[j, i] = d_j F_i: (d_y F_z - d_z F_y, d_z F_x - d_x F_z, d_x F_y - d_y F_x)."""
    return grad[[1, 2, 0], [2, 0, 1]] - grad[[2, 0, 1], [1, 2, 0]]


def _max_abs(values: np.ndarray) -> float:
    return float(np.max(np.abs(values)))


def check_derivative_relations(
    basis: ModeTable, x: SpacetimePoint, h: float, method: str = "fd"
) -> dict[str, float]:
    """Residuals of E = -(1/c) dA/dt and B = curl A.

    method "fd" uses central differences with step h (O(h^2) accurate);
    method "analytic" uses exact per-mode differentiation and serves as
    the oracle for the finite-difference path.  Each residual is a maximum
    over the distinct values the operators store (_stored_values), so a
    ModeTable is enough.
    """
    _check_step(h, method)
    c = basis.config.c
    coeffs = [field_mode_coefficients(basis, kind, x) for kind in (FieldKind.E, FieldKind.B)]
    e, b = _stored_values(basis, np.stack(coeffs))
    d_a = _derivatives(basis, FieldKind.A, x, h, method)
    return {
        "potential_time": _max_abs(e + d_a[0] * (1.0 / c)),
        "potential_curl": _max_abs(b - _curl(d_a[1:])),
    }


def check_maxwell(
    basis: ModeTable, x: SpacetimePoint, h: float, method: str = "fd"
) -> dict[str, float]:
    """Residuals of the four source-free Maxwell equations at x.

    Each is a maximum over the distinct values the operators store
    (_stored_values), as in check_derivative_relations; a ModeTable is enough.
    """
    _check_step(h, method)
    c = basis.config.c
    d_e = _derivatives(basis, FieldKind.E, x, h, method)
    d_b = _derivatives(basis, FieldKind.B, x, h, method)
    return {
        "faraday": _max_abs(-1.0 * _curl(d_e[1:]) - d_b[0] * (1.0 / c)),
        "ampere": _max_abs(_curl(d_b[1:]) - d_e[0] * (1.0 / c)),
        "div_e": _max_abs(d_e[1, 0] + d_e[2, 1] + d_e[3, 2]),
        "div_b": _max_abs(d_b[1, 0] + d_b[2, 1] + d_b[3, 2]),
    }


# ---------------------------------------------------------------------------
# commutator closed forms


def _momentum_sum(basis: ModeTable, rho: np.ndarray):
    """First mode, omega and exp(i p.rho / hbar) of each momentum; CompletenessError unless -n is there too."""
    if not basis.momentum_symmetric():
        n = next(n for n in basis.momenta() if tuple(-v for v in n) not in basis.momenta())
        raise CompletenessError(
            "commutator closed forms need a momentum set closed under n -> -n; "
            f"-n = {tuple(-v for v in n)} of n = {n} is missing"
        )
    first = basis.momentum_modes()
    return first, basis.omega[first], _phase(basis, rho)[..., first]


def commutator_weights(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-mode weights w[..., i, j, m] = u_mi conj(v_mj) - conj(u_mi) v_mj, shape (..., 3, 3, n_modes).

    u, v of shape (..., n_modes, 3) are the a-side coefficients of fields F, G.
    As [a_m, a_l] = [a_m, a-dagger_l] = 0 for l != m hold exactly on the
    truncated space, [F_i, G_j] = sum_m w_ijm D_m with D_m = [a_m, a-dagger_m]
    diagonal: 1 below the occupancy cap, -n_max at it.  On the margin-1 safe
    subspace that is the scalar w.sum(-1); for the (dim, n_modes) table D of
    the D_m, D @ w[..., i, j, :] is the whole diagonal.
    """
    u = np.swapaxes(u, -1, -2)[..., :, None, :]
    v = np.swapaxes(v, -1, -2)[..., None, :, :]
    return u * np.conj(v) - np.conj(u) * v


def field_commutator_kernel(
    basis: ModeTable, kind1: FieldKind, kind2: FieldKind, rho: np.ndarray, tau
) -> np.ndarray:
    """Scalar 3x3 commutator kernels [F1_i(x1), F2_j(x2)] for F in {E, B}, at stacked point pairs.

    rho = r1 - r2 of shape (N, 3) and tau = t1 - t2 of shape (N,) give an
    (N, 3, 3) array; rho of shape (3,) and a scalar tau give one (3, 3)
    kernel.  Each kernel is the sum over modes of commutator_weights(F1(x1),
    F2(x2)), with the helicity sum collapsed to the transverse projector and
    the n, -n terms paired into a pure lattice momentum sum: every momentum
    n needs both helicities and -n on the lattice, else CompletenessError.
    Every element is computed by the same operations as for its pair alone.
    The matrix path equals this kernel times the identity on the safe subspace.
    """
    kind1, kind2 = FieldKind(kind1), FieldKind(kind2)
    if kind1 is FieldKind.A or kind2 is FieldKind.A:
        raise ValueError("closed-form commutators are provided for the E and B fields only")
    if not basis.helicities_complete():
        raise CompletenessError(
            "field commutator closed forms need both helicities for every lattice "
            "momentum (the helicity completeness sum is used in the reduction)"
        )
    first, omega, phase = _momentum_sum(basis, rho)
    hbar, dp3, tau = basis.config.hbar, basis.delta3p, np.asarray(tau)[..., None, None, None]
    kv, omega, phase = basis.k[first], omega[:, None, None], phase[..., None, None]
    if kind1 is kind2:
        proj = np.eye(3) - kv[:, :, None] * kv[:, None, :]
        terms = (-2j / (2.0 * np.pi * hbar) ** 2) * dp3 * omega * proj * phase * np.sin(omega * tau)
    else:
        eps_k = np.cross(kv[:, None, :], np.eye(3))  # eps_k[m, i, j] = epsilon_ijl k_l
        sign = 1.0 if kind1 is FieldKind.E else -1.0
        terms = sign * (2.0 / (2.0 * np.pi * hbar) ** 2) * dp3 * omega * eps_k * phase * np.cos(omega * tau)
    return terms.sum(axis=-3)


def field_commutator_closed_form(
    basis: ModeTable,
    kind1: FieldKind,
    kind2: FieldKind,
    x1: SpacetimePoint,
    x2: SpacetimePoint,
) -> np.ndarray:
    """Scalar 3x3 commutator kernel [F1_i(x1), F2_j(x2)] of one point pair (field_commutator_kernel)."""
    return field_commutator_kernel(basis, kind1, kind2, x1.r - x2.r, x1.t - x2.t)
