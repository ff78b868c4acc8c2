"""Spin-1 matrices, helicity eigenvectors, and plane-wave momentum states.

The helicity eigenvectors of S.k are computed for N directions at once,
stacked as the rows of an (N, 3) array (`helicity_vectors`), with the
closed-form/fallback switch made per row; `helicity_states` wraps the same
core on one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polarization import Direction, triads, unit_rows

# At or below this value of the normalization sqrt(1 - kx ky - ky kz - kz kx)
# the closed-form eigenvector expression is not used (it is exactly singular
# at k = +/-(1,1,1)/sqrt(3)) and we fall back to the circular polarization
# vectors, which are helicity eigenvectors for every k.
SINGULAR_CUTOFF = 1e-6

# k @ _CROSS is k x (1, 1, 1) = (ky - kz, kz - kx, kx - ky); the products are
# by 0 and +-1 only, so each entry is one rounded difference.
_CROSS = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])


@dataclass(frozen=True, eq=False)
class SpinMatrices:
    """Cartesian spin-1 operators, (S_j)_{kl} = -i hbar epsilon_{jkl}."""

    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray

    def dotted(self, k: np.ndarray) -> np.ndarray:
        """Spin projected on a direction: S . k."""
        return k[0] * self.sx + k[1] * self.sy + k[2] * self.sz


@dataclass(frozen=True, eq=False)
class HelicityPair:
    """Unit eigenvectors of S.k with eigenvalues +hbar and -hbar."""

    chi_plus: np.ndarray
    chi_minus: np.ndarray

    def chi(self, s: int) -> np.ndarray:
        if s == 1:
            return self.chi_plus
        if s == -1:
            return self.chi_minus
        raise ValueError(f"helicity must be +1 or -1, got {s}")


def spin_matrices(hbar: float = 1.0) -> SpinMatrices:
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    levi = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        levi[i, j, k] = 1.0
        levi[i, k, j] = -1.0
    return SpinMatrices(
        sx=-1j * hbar * levi[0],
        sy=-1j * hbar * levi[1],
        sz=-1j * hbar * levi[2],
    )


def _phase_fixed(k: np.ndarray) -> np.ndarray:
    """Circular vectors eps_s of unit rows k, each with a fixed global phase, as (N, 2, 3).

    eps_s is an eigenvector of S.k with eigenvalue s; the phase makes the
    first component of largest modulus real and positive.
    """
    _, _, eps_plus, eps_minus = triads(k)
    v = np.stack([eps_plus, eps_minus], axis=1)
    mods = np.abs(v)
    lead = np.argmax(mods > np.max(mods, axis=2, keepdims=True) - 1e-15, axis=2)[..., None]
    return v * np.conj(np.take_along_axis(v, lead, axis=2)) / np.take_along_axis(mods, lead, axis=2)


def _helicity_rows(k: np.ndarray) -> np.ndarray:
    """(chi_plus, chi_minus) of unit rows k as (N, 2, 3); see `helicity_vectors`."""
    # Closed form  chi_s = (1 - k (kx + ky + kz) + i s c) / (2 denom)  with
    # c = k x (1, 1, 1) on every row; rows at or below the cutoff are replaced
    # after it.  For unit k, 1 - k (kx + ky + kz) = c x k and
    # denom^2 = 1 - kx ky - ky kz - kz kx = |c|^2 / 2.  Both are evaluated from
    # the differences c, so they keep their relative accuracy near the
    # singular set, where the textbook forms cancel against 1.
    c = k @ _CROSS
    denom = np.sqrt(0.5 * np.vecdot(c, c))
    chi = np.empty((len(k), 2, 3), dtype=complex)
    chi.real = (c[:, [1, 2, 0]] * k[:, [2, 0, 1]] - c[:, [2, 0, 1]] * k[:, [1, 2, 0]])[:, None]
    chi.imag[:, 0] = c
    chi.imag[:, 1] = -c
    chi /= 2.0 * np.maximum(denom, SINGULAR_CUTOFF)[:, None, None]
    if denom.min() <= SINGULAR_CUTOFF:
        singular = denom <= SINGULAR_CUTOFF
        chi[singular] = _phase_fixed(k[singular])
    return chi


def helicity_vectors(k) -> tuple[np.ndarray, np.ndarray]:
    """Helicity eigenvectors (chi_plus, chi_minus) for stacked unit directions k.

    Each is an (N, 3) read-only array whose row i belongs to k[i].  Rows
    whose normalization exceeds SINGULAR_CUTOFF get the closed-form
    expression; rows on and near the singular set get the
    phase-fixed circular polarization vectors instead.  The switch is made
    per row.
    """
    chi = _helicity_rows(unit_rows(k))
    chi.setflags(write=False)
    return chi[:, 0], chi[:, 1]


def helicity_states(k: Direction) -> HelicityPair:
    """Helicity eigenvectors for propagation direction k (one row of `helicity_vectors`)."""
    chi = _helicity_rows(k.k[None])[0]
    return HelicityPair(chi_plus=chi[0], chi_minus=chi[1])


def momentum_wavefunction(p: np.ndarray, r: np.ndarray, hbar: float = 1.0) -> complex:
    """Plane-wave momentum eigenfunction (2 pi hbar)^(-3/2) exp(i p.r / hbar)."""
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    return (2.0 * np.pi * hbar) ** -1.5 * np.exp(1j * np.dot(p, r) / hbar)
