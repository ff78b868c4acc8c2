"""Classical relativistic photon: rotating field vectors, field tensor, boosts.

A helicity-s photon of angular frequency omega propagating along k is
pictured as a unit vector rotating in the transverse plane.  The rotating
vectors

    e_s(t) = (omega/sqrt(2)) eps_s exp(-i(omega t + theta)) + c.c.
    b_s(t) = k x e_s(t)

are packed into a real antisymmetric 4x4 tensor whose Lorentz boosts
describe the photon in other frames.  e and b are *not* the space parts of
four-vectors; only the tensor transforms linearly.

Every function here takes one photon, one tensor or one velocity, so the
work is on a handful of floats and per-call overhead is most of the cost.
The phase is taken with math.cos and math.sin, and eps_s is read from
polarization's float row (`_eps_row`): a photon builds its triad only when
`triad` is read.  b = k x e and the entries of the tensor and of the boost
matrix are formed from Python floats, each by the same products, sums and
quotients as the numpy expression it stands for (np.exp, np.cross, and
np.eye and np.outer blocks for the boost), so their bits are those of that
expression.  The null invariants are plain sums over `f.tolist()`, equal
to the np.dot forms up to rounding.  A PhotonTensor is accepted by one
float pass over `f.tolist()` (the sum of |f_ij + f_ji| over i <= j) when
that sum is within ATOL, and otherwise by the numpy check against the
tensor's scale.  On 2 vCPUs with Python 3.11 and numpy 2.4, ClassicalPhoton
takes about 2 us, rotating_vectors 6 us, build_tensor 4 us and boost 7 us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .polarization import Direction, PolarizationTriad, _eps_row, make_triad

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

    def __post_init__(self) -> None:
        if not isinstance(self.k, Direction):
            raise TypeError(f"k must be a Direction, got {type(self.k).__name__}")
        if not (self.omega > 0 and math.isfinite(self.omega)):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        # A bool or a float equal to 1 would pass `in (1, -1)`; fock.mode_key refuses them too.
        if isinstance(self.s, bool) or not isinstance(self.s, (int, np.integer)) or self.s not in (1, -1):
            raise ValueError(f"helicity must be +1 or -1, got {self.s}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if not (self.hbar > 0 and self.c > 0 and math.isfinite(self.hbar) and math.isfinite(self.c)):
            raise ValueError(f"hbar and c must be positive and finite, got {self.hbar} and {self.c}")
        # On Python floats, so that an overflow is an inf and not a numpy warning.
        energy = float(self.hbar) * float(self.omega)
        if not (math.isfinite(energy) and math.isfinite(energy / float(self.c))):
            raise ValueError(
                f"the energy hbar omega and the momentum hbar omega / c must be finite, "
                f"got hbar = {self.hbar!r}, omega = {self.omega!r} and c = {self.c!r}"
            )

    @cached_property
    def triad(self) -> PolarizationTriad:
        """The polarization triad of k, built on first read and kept."""
        return make_triad(self.k)


@dataclass(frozen=True, eq=False)
class PhotonTensor:
    """Real antisymmetric 4x4 matrix holding the six components (e, b)."""

    f: np.ndarray

    def __post_init__(self) -> None:
        f = np.array(self.f, dtype=float, order="C")  # a copy: the caller's array stays writeable
        if f.shape != (4, 4):
            raise ValueError(f"field tensor must be 4x4, got shape {f.shape}")
        # One float pass first: the sum of |f_ij + f_ji| over i <= j is at
        # least their maximum, so a sum within ATOL passes the numpy check
        # below too.  A NaN or inf entry makes the sum NaN or inf.
        (f00, f01, f02, f03), (f10, f11, f12, f13), (f20, f21, f22, f23), (f30, f31, f32, f33) = f.tolist()
        diagonal = abs(f00 + f00) + abs(f11 + f11) + abs(f22 + f22) + abs(f33 + f33)
        upper = abs(f01 + f10) + abs(f02 + f20) + abs(f03 + f30) + abs(f12 + f21) + abs(f13 + f31) + abs(f23 + f32)
        if not diagonal + upper <= ATOL:
            # The numpy check decides: max |f_ij + f_ji| within ATOL, or
            # within ATOL times a finite scale.  A NaN or inf entry makes
            # asym NaN or inf and fails, an inf - inf pair without a warning.
            with np.errstate(invalid="ignore"):
                asym = float(np.abs(f + f.T).max())
            scale = float(np.abs(f).max())
            if not (asym <= ATOL or (math.isfinite(scale) and asym <= ATOL * max(1.0, scale))):
                raise ValueError(f"field tensor must be finite and antisymmetric; |f + f^T| = {asym!r}")
        f.setflags(write=False)
        object.__setattr__(self, "f", f)


def rotating_vectors(photon: ClassicalPhoton, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The rotating field pair (e_s(t), b_s(t)); both have length omega.

    Raises ValueError unless the phase omega t + theta is finite.
    """
    x = float(photon.omega) * float(t) + float(photon.theta)
    if not math.isfinite(x):
        raise ValueError(f"the phase omega t + theta must be finite, got {x!r} at t = {t!r}")
    phase = complex(math.cos(x), -math.sin(x))  # exp(-i x)
    # numpy's complex product, not Python's: the two differ in the last bit.
    e = math.sqrt(2.0) * photon.omega * (_eps_row(photon.k.k, photon.s) * phase).real
    (kx, ky, kz), (ex, ey, ez) = photon.k.k.tolist(), e.tolist()
    b = np.array([ky * ez - kz * ey, kz * ex - kx * ez, kx * ey - ky * ex])
    return e, b


def build_tensor(e: np.ndarray, b: np.ndarray) -> PhotonTensor:
    """Pack (e, b) into the antisymmetric tensor.

    Row/column layout (upper triangle):  f[0,i] = e_i,
    f[1,2] = b_3, f[1,3] = -b_2, f[2,3] = b_1.
    """
    e = np.asarray(e, dtype=float)
    b = np.asarray(b, dtype=float)
    if e.shape != (3,) or b.shape != (3,):
        raise ValueError(f"e and b must be 3-vectors, got shapes {e.shape} and {b.shape}")
    (ex, ey, ez), (bx, by, bz) = e.tolist(), b.tolist()
    # PhotonTensor makes the one array of these rows.
    f = [
        [0.0, ex, ey, ez],
        [-ex, 0.0, bz, -by],
        [-ey, -bz, 0.0, bx],
        [-ez, by, -bx, 0.0],
    ]
    return PhotonTensor(f=f)


def null_residuals(tensor: PhotonTensor) -> tuple[float, float]:
    """The two invariant signatures of a radiation field: (e.b, |e|^2 - |b|^2)."""
    (_, ex, ey, ez), (_, _, bz, minus_by), (_, _, _, bx), _ = tensor.f.tolist()
    by = -minus_by
    return ex * bx + ey * by + ez * bz, (ex * ex + ey * ey + ez * ez) - (bx * bx + by * by + bz * bz)


def boost_matrix(beta: np.ndarray) -> np.ndarray:
    """Standard pure boost for velocity beta (units of c), |beta| < 1.

    Metric signature (+,-,-,-); a photon four-momentum p transforms with
    p'^0 = gamma (p^0 - beta . p), i.e. a boost along the propagation
    direction redshifts.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (3,):
        raise ValueError(f"boost velocity must be a 3-vector, got shape {beta.shape}")
    b2 = float(np.dot(beta, beta))
    if not b2 < (1.0 - 1e-9) ** 2:
        raise ValueError(f"boost speed must satisfy |beta| < 1 - 1e-9, got |beta| = {math.sqrt(b2)!r}")
    if b2 == 0.0:
        return np.eye(4)
    gamma = 1.0 / math.sqrt(1.0 - b2)
    g = gamma - 1.0
    bx, by, bz = beta.tolist()
    # Entry by entry as  lam[0, 1:] = lam[1:, 0] = -gamma beta  and
    # lam[1:, 1:] = np.eye(3) + (gamma - 1) np.outer(beta, beta) / b2;
    # the 0.0 + of the off-diagonal keeps eye's sign of zero.
    tx, ty, tz = -gamma * bx, -gamma * by, -gamma * bz
    xy, xz, yz = 0.0 + g * (bx * by) / b2, 0.0 + g * (bx * bz) / b2, 0.0 + g * (by * bz) / b2
    # One flat list makes the array faster than four nested rows.
    return np.array(
        [
            gamma, tx, ty, tz,
            tx, 1.0 + g * (bx * bx) / b2, xy, xz,
            ty, xy, 1.0 + g * (by * by) / b2, yz,
            tz, xz, yz, 1.0 + g * (bz * bz) / b2,
        ]
    ).reshape(4, 4)


def boost(tensor: PhotonTensor, beta: np.ndarray) -> PhotonTensor:
    """Boost the tensor:  f' = Lambda f Lambda^T.

    Antisymmetry and the null-field invariants are preserved; the (e', b')
    the boosted tensor holds are those of the new frame, with no gauge re-fixed.
    """
    lam = boost_matrix(beta)
    return PhotonTensor(f=lam @ tensor.f @ lam.T)


def kinematics(photon: ClassicalPhoton) -> tuple[float, np.ndarray, np.ndarray]:
    """(energy, momentum, spin) of the photon: E = hbar omega = c |P|, S = s hbar k."""
    energy = photon.hbar * photon.omega
    momentum = (energy / photon.c) * photon.k.k
    spin = photon.s * photon.hbar * photon.k.k
    return energy, momentum, spin
