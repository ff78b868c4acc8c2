"""Classical relativistic photon: rotating field vectors, field tensor, boosts.

A helicity-s photon of angular frequency omega propagating along k is
pictured as a unit vector rotating in the transverse plane.  The rotating
vectors

    e_s(t) = (omega/sqrt(2)) eps_s exp(-i(omega t + theta)) + c.c.
    b_s(t) = k x e_s(t)

are packed into a real antisymmetric 4x4 tensor whose Lorentz boosts
describe the photon in other frames.  e and b are *not* the space parts of
four-vectors; only the tensor transforms linearly.  b is taken with the
row-wise polarization.cross, equal bit for bit to np.cross and far cheaper
on one 3-vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .polarization import Direction, PolarizationTriad, cross, make_triad

ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class ClassicalPhoton:
    """One classical photon: frequency, direction, helicity, initial phase."""

    omega: float
    k: Direction
    s: int
    theta: float = 0.0
    hbar: float = 1.0
    c: float = 1.0
    triad: PolarizationTriad = field(init=False)

    def __post_init__(self) -> None:
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.s not in (1, -1):
            raise ValueError(f"helicity must be +1 or -1, got {self.s}")
        if self.hbar <= 0 or self.c <= 0:
            raise ValueError("hbar and c must be positive")
        object.__setattr__(self, "triad", make_triad(self.k))


@dataclass(frozen=True, eq=False)
class PhotonTensor:
    """Real antisymmetric 4x4 matrix holding the six components (e, b)."""

    f: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.f, dtype=float)
        if f.shape != (4, 4):
            raise ValueError(f"field tensor must be 4x4, got shape {f.shape}")
        asym = np.max(np.abs(f + f.T))
        if asym > ATOL * max(1.0, np.max(np.abs(f))):
            raise ValueError(f"field tensor must be antisymmetric; |f + f^T| = {asym!r}")
        f = np.ascontiguousarray(f)
        f.setflags(write=False)
        object.__setattr__(self, "f", f)


def rotating_vectors(photon: ClassicalPhoton, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The rotating field pair (e_s(t), b_s(t)); both have length omega."""
    phase = np.exp(-1j * (photon.omega * t + photon.theta))
    e = np.sqrt(2.0) * photon.omega * np.real(photon.triad.eps(photon.s) * phase)
    b = cross(photon.k.k, e)
    return e, b


def build_tensor(e: np.ndarray, b: np.ndarray) -> PhotonTensor:
    """Pack (e, b) into the antisymmetric tensor.

    Row/column layout (upper triangle):  f[0,i] = e_i,
    f[1,2] = b_3, f[1,3] = -b_2, f[2,3] = b_1.
    """
    e = np.asarray(e, dtype=float)
    b = np.asarray(b, dtype=float)
    f = np.zeros((4, 4))
    f[0, 1:] = e
    f[1:, 0] = -e
    f[1, 2], f[1, 3], f[2, 3] = b[2], -b[1], b[0]
    f[2, 1], f[3, 1], f[3, 2] = -b[2], b[1], -b[0]
    return PhotonTensor(f=f)


def extract_fields(tensor: PhotonTensor) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of build_tensor: recover (e, b) from the tensor components."""
    f = tensor.f
    e = f[0, 1:].copy()
    b = np.array([f[2, 3], -f[1, 3], f[1, 2]])
    return e, b


def null_residuals(tensor: PhotonTensor) -> tuple[float, float]:
    """The two invariant signatures of a radiation field: (e.b, |e|^2 - |b|^2)."""
    e, b = extract_fields(tensor)
    return float(np.dot(e, b)), float(np.dot(e, e) - np.dot(b, b))


def boost_matrix(beta: np.ndarray) -> np.ndarray:
    """Standard pure boost for velocity beta (units of c), |beta| < 1.

    Metric signature (+,-,-,-); a photon four-momentum p transforms with
    p'^0 = gamma (p^0 - beta . p), i.e. a boost along the propagation
    direction redshifts.
    """
    beta = np.asarray(beta, dtype=float)
    b2 = float(np.dot(beta, beta))
    if b2 >= (1.0 - 1e-9) ** 2:
        raise ValueError(f"boost speed must satisfy |beta| < 1 - 1e-9, got |beta| = {np.sqrt(b2)!r}")
    lam = np.eye(4)
    if b2 == 0.0:
        return lam
    gamma = 1.0 / np.sqrt(1.0 - b2)
    lam[0, 0] = gamma
    lam[0, 1:] = -gamma * beta
    lam[1:, 0] = -gamma * beta
    lam[1:, 1:] = np.eye(3) + (gamma - 1.0) * np.outer(beta, beta) / b2
    return lam


def boost(tensor: PhotonTensor, beta: np.ndarray) -> PhotonTensor:
    """Boost the tensor:  f' = Lambda f Lambda^T.

    Antisymmetry and the null-field invariants are preserved; the extracted
    (e', b') are reported in the new frame without re-fixing any gauge.
    """
    lam = boost_matrix(beta)
    return PhotonTensor(f=lam @ tensor.f @ lam.T)


def kinematics(photon: ClassicalPhoton) -> tuple[float, np.ndarray, np.ndarray]:
    """(energy, momentum, spin) of the photon: E = hbar omega = c |P|, S = s hbar k."""
    energy = photon.hbar * photon.omega
    momentum = (energy / photon.c) * photon.k.k
    spin = photon.s * photon.hbar * photon.k.k
    return energy, momentum, spin
