"""Circular polarization algebra over stacked propagation directions.

For a unit vector k we build the right-handed orthonormal frame
(e_hat, b_hat, k) and the circular polarization complex vectors

    eps_plus  = (e_hat + i b_hat) / sqrt(2)
    eps_minus = (i e_hat + b_hat) / sqrt(2)

together with numerical checks of the orthogonality, cross-product and
completeness relations they satisfy.  The core works on N directions at
once, stacked as the rows of an (N, 3) array: `triads`,
`relation_residuals` and `completeness_matrices` return one row (or one
3x3 block) per direction, with every per-row choice made row by row.  The
single-direction API (`Direction`, `make_triad`, `check_relations`,
`completeness_matrix`) wraps the same core on one row, except that
`make_triad` without a reference builds its one row on Python floats
(`_frame_row`): the same elementwise products, differences and quotients
as `triads`, with the norm's dot product left to np.vecdot, so its bits
are those of the row of `triads`.  `_eps_row` forms eps_s on that row as
numpy does, and `classical.rotating_vectors` reads it without a triad.  On
2 vCPUs with Python 3.11 and numpy 2.4, `triads` takes about 43 us for one
row, `make_triad` 4.5 us and `_eps_row` 3.3 us.  A `PolarizationTriad`
computes eps_plus and eps_minus on first use and keeps them read-only.
All residuals are expected at the 1e-12 level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

ATOL = 1e-12

# Reference axis used to fix the transverse gauge.  The direction of e_hat
# in the plane orthogonal to k is a free choice; we project a fixed axis
# onto that plane, switching axes when k is too close to the primary one.
# Row 0 is the primary axis, row 1 the secondary one.
_AXES = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
_AXIS_SWITCH = 0.9

_SQRT2 = np.sqrt(2.0)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_HELICITIES = np.array([1.0, -1.0])


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row; equal bit for bit to np.linalg.norm of the row."""
    return np.sqrt(np.vecdot(v, v))


def unit_rows(k) -> np.ndarray:
    """Stacked propagation directions as a read-only (N, 3) float array.

    Raises ValueError unless k has shape (N, 3) and every row is unit
    length to ATOL, the rule `Direction` applies to one vector.
    """
    k = np.array(k, dtype=float)  # a copy: the caller's array stays writeable
    if k.ndim != 2 or k.shape[1] != 3:
        raise ValueError(f"directions must be stacked as (N, 3), got shape {k.shape}")
    norms = row_norms(k)
    bad = ~(np.abs(norms - 1.0) <= ATOL)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"direction must be unit length, row {row} has |k| = {norms[row]!r}")
    return _readonly(k)


@dataclass(frozen=True, eq=False)
class Direction:
    """Unit propagation vector."""

    k: np.ndarray

    def __post_init__(self) -> None:
        k = np.array(self.k, dtype=float, order="C")  # a copy: the caller's array stays writeable
        if k.shape != (3,):
            raise ValueError(f"direction must be a 3-vector, got shape {k.shape}")
        # The bits of np.linalg.norm on a 1-D real array, at a third of its cost.
        norm = math.sqrt(k @ k)
        if not abs(norm - 1.0) <= ATOL:
            raise ValueError(f"direction must be unit length, |k| = {norm!r}")
        k.setflags(write=False)
        object.__setattr__(self, "k", k)


def _circular(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x + i y) / sqrt(2) for real frame vectors, one row or a stack.

    eps_plus is _circular(e, b) and eps_minus is _circular(b, e); complex
    sums commute, so the latter has the bits of (1j e + b) / sqrt(2).
    """
    return (x + 1j * y) / _SQRT2


@dataclass(frozen=True, eq=False)
class PolarizationTriad:
    """Right-handed frame (e_hat, b_hat, k) and the circular vectors eps_+/-.

    eps_plus and eps_minus are computed on first use and kept.
    """

    k: Direction
    e_hat: np.ndarray
    b_hat: np.ndarray

    def __post_init__(self) -> None:
        # Copies, so the caller's arrays stay writeable.
        object.__setattr__(self, "e_hat", _readonly(np.array(self.e_hat, dtype=float)))
        object.__setattr__(self, "b_hat", _readonly(np.array(self.b_hat, dtype=float)))

    @cached_property
    def eps_plus(self) -> np.ndarray:
        return _readonly(_circular(self.e_hat, self.b_hat))

    @cached_property
    def eps_minus(self) -> np.ndarray:
        return _readonly(_circular(self.b_hat, self.e_hat))

    def eps(self, s: int) -> np.ndarray:
        """Circular polarization vector for helicity s = +1 or -1."""
        if s == 1:
            return self.eps_plus
        if s == -1:
            return self.eps_minus
        raise ValueError(f"helicity must be +1 or -1, got {s}")


def _frames(k: np.ndarray, reference) -> tuple[np.ndarray, np.ndarray]:
    """(e_hat, b_hat) rows for unit rows k; see `make_triad` for the gauge choice."""
    if reference is None:
        # The switch as a row index of _AXES: 1, the secondary axis, where |k_x| > 0.9.
        a = _AXES.take(np.abs(k[:, 0]) > _AXIS_SWITCH, axis=0)
    else:
        a = np.asarray(reference, dtype=float)
        a = (a / np.linalg.norm(a))[None]
    e = a - np.vecdot(a, k, keepdims=True) * k
    norm = np.sqrt(np.vecdot(e, e, keepdims=True))  # row_norms, as a column
    if not norm.min() >= 1e-6:
        raise ValueError("reference axis is (nearly) parallel to k or not finite; pick another gauge reference")
    e = e / norm
    return e, np.cross(k, e)


def triads(k, reference=None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(e_hat, b_hat, eps_plus, eps_minus) for stacked unit directions k.

    Each is an (N, 3) read-only array whose row i is the triad of k[i]; the
    reference-axis switch is made per row, and a reference, when given, is
    shared by all rows.
    """
    e, b = _frames(unit_rows(k), reference)
    return tuple(_readonly(v) for v in (e, b, _circular(e, b), _circular(b, e)))


def _frame_row(k: np.ndarray) -> tuple[list[float], list[float]]:
    """(e_hat, b_hat) of one unit k on Python floats: the row of `_frames` without a reference.

    The same elementwise products, differences and quotients as `_frames`.
    Of the default axis a, a . k is exactly the component k_x (or k_y):
    every other term is a product with zero.  The norm's dot product stays
    np.vecdot, whose rounding is numpy's.  On either axis a unit k leaves
    |e| >= sqrt(1 - 0.9^2) > 0.43, so this path has no degenerate case.
    """
    kx, ky, kz = k.tolist()
    if abs(kx) > _AXIS_SWITCH:
        ex, ey, ez = 0.0 - ky * kx, 1.0 - ky * ky, 0.0 - ky * kz
    else:
        ex, ey, ez = 1.0 - kx * kx, 0.0 - kx * ky, 0.0 - kx * kz
    e = np.array((ex, ey, ez))
    norm = math.sqrt(np.vecdot(e, e))
    ex, ey, ez = ex / norm, ey / norm, ez / norm
    return [ex, ey, ez], [ky * ez - kz * ey, kz * ex - kx * ez, kx * ey - ky * ex]


def _eps_row(k: np.ndarray, s: int) -> np.ndarray:
    """eps_s of one unit k, with the bits of the row of `triads` without a reference.

    Replays numpy's (x + 1j y) / sqrt(2) on `_frame_row`'s floats, component
    by component and signs of zero included: 1j y is (0 y - 1 0, 0 0 + 1 y),
    x enters as x + 0j, and numpy divides a complex by the real sqrt(2) as a
    product with 1 / sqrt(2).
    """
    e, b = _frame_row(k)
    eps = []
    for x, y in zip(*((e, b) if s == 1 else (b, e))):
        real, imag = x + 0.0 * y, 0.0 + y
        eps.append(complex((real + imag * 0.0) * _INV_SQRT2, (imag - real * 0.0) * _INV_SQRT2))
    return np.array(eps)


def make_triad(k: Direction, reference: np.ndarray | None = None) -> PolarizationTriad:
    """Deterministic triad for direction k.

    e_hat is the normalized projection of a reference axis onto the plane
    orthogonal to k.  By default the x axis is used, with a switch to the
    y axis when |k . x| > 0.9, which keeps the construction well away from
    the degenerate (reference parallel to k) case.  A caller-supplied
    reference axis selects a different transverse gauge; physical
    observables must not depend on this choice.

    Without a reference the one row is `_frame_row`'s, built on Python
    floats with the bits of the row of `triads`.
    """
    if reference is not None:
        e, b = _frames(k.k[None], reference)
        return PolarizationTriad(k=k, e_hat=e[0], b_hat=b[0])
    e, b = _frame_row(k.k)
    return PolarizationTriad(k=k, e_hat=e, b_hat=b)


def relation_residuals(k, eps_plus, eps_minus) -> dict[str, np.ndarray]:
    """Per-row residual of every algebraic relation the circular vectors satisfy.

    k, eps_plus and eps_minus are (N, 3) stacks (as returned by `triads`).
    Returns a map from relation name to an (N,) array of the worst absolute
    deviation of each row; the caller decides what to assert.  The
    relations, for s, s' in {+1, -1}:

        conj(eps_s) . k        = 0
        conj(eps_s) . eps_s'   = delta_{s,s'}
        conj(eps_s) x eps_s'   = s i k delta_{s,s'}
        k x eps_s              = s conj(eps_{-s})
        eps_minus              = i conj(eps_plus)
        eps_s . eps_s'         = i delta_{s,-s'}
        eps_s x eps_s'         = s k delta_{s,-s'}
        sum_s conj(eps_s)_i (eps_s)_j = delta_ij - k_i k_j
    """
    k = np.asarray(k, dtype=float)
    eps = np.stack([eps_plus, eps_minus], axis=1)  # (N, s, 3)
    conj = np.conj(eps)
    same = np.eye(2)
    opposite = same[::-1]
    sign = _HELICITIES[:, None]  # s, indexed like the first helicity axis

    def rowmax(v: np.ndarray) -> np.ndarray:
        return np.max(np.abs(v).reshape(len(v), -1), axis=1)

    kk = k[:, None, None, :]
    res = {
        "transversality": rowmax(np.vecdot(eps, k[:, None])),
        "orthonormality": rowmax(np.vecdot(eps[:, :, None], eps[:, None]) - same),
        "conjugate_cross": rowmax(
            np.cross(conj[:, :, None], eps[:, None]) - (same * sign * 1j)[..., None] * kk
        ),
        "propagation_cross": rowmax(np.cross(k[:, None], eps) - sign * conj[:, ::-1]),
        "minus_from_plus": rowmax(eps[:, 1] - 1j * conj[:, 0]),
        "plain_dot": rowmax(np.vecdot(conj[:, :, None], eps[:, None]) - 1j * opposite),
        "plain_cross": rowmax(np.cross(eps[:, :, None], eps[:, None]) - (opposite * sign)[..., None] * kk),
    }
    target = np.eye(3) - k[:, :, None] * k[:, None, :]
    res["completeness"] = rowmax(completeness_matrices(eps_plus, eps_minus) - target)
    return res


def check_relations(triad: PolarizationTriad) -> dict[str, float]:
    """Max residual of every relation of `relation_residuals` for one triad."""
    res = relation_residuals(triad.k.k[None], triad.eps_plus[None], triad.eps_minus[None])
    return {name: float(v[0]) for name, v in res.items()}


def completeness_matrices(eps_plus, eps_minus) -> np.ndarray:
    """The helicity sums  sum_s conj(eps_s)_i (eps_s)_j  of (N, 3) stacks, shape (N, 3, 3).

    Each is real symmetric and equals the transverse projector delta_ij - k_i k_j.
    """
    plus = np.conj(eps_plus)[:, :, None] * eps_plus[:, None, :]
    return np.real(plus + np.conj(eps_minus)[:, :, None] * eps_minus[:, None, :])


def completeness_matrix(triad: PolarizationTriad) -> np.ndarray:
    """The helicity sum  sum_s conj(eps_s)_i (eps_s)_j,  a real symmetric 3x3.

    Equals the transverse projector delta_ij - k_i k_j.
    """
    return completeness_matrices(triad.eps_plus[None], triad.eps_minus[None])[0]
