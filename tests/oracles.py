"""Independent oracles used by the tests.

The ladder oracle builds a_j as a Kronecker product of single-mode
matrices, independent of the library's lowering table.

The quadrature oracle integrates the quadratic field densities over the
box on a uniform grid.  The integrands are trigonometric polynomials whose
per-axis frequencies are bounded by twice the largest lattice momentum
component, so a uniform rule with enough points per axis is *exact* (up to
roundoff) and independent of the analytic pair reduction in the library.
"""

import numpy as np
import scipy.sparse as sp

import photonfield as pf
from photonfield.fields import FieldKind, SpacetimePoint


def kron_lowering(basis, j):
    """a_j = 1_(local^j) (x) a (x) 1_(local^(n_modes - 1 - j)) as a CSR matrix."""
    local = basis.n_max + 1
    single = sp.diags(np.sqrt(np.arange(1, local)), offsets=1, format="csr", dtype=complex)
    left = sp.identity(local**j, format="csr", dtype=complex)
    right = sp.identity(local ** (basis.n_modes - 1 - j), format="csr", dtype=complex)
    return sp.kron(sp.kron(left, single), right).tocsr()


def _grid(basis):
    length = basis.config.length
    sizes = []
    for axis in range(3):
        top = max(abs(m.n[axis]) for m in basis.modes)
        sizes.append(2 * top + 1)
    axes = [np.arange(m) * (length / m) for m in sizes]
    weight = length**3 / (sizes[0] * sizes[1] * sizes[2])
    return axes, weight


def _cross_sum(f_ops, g_ops, comp):
    i, j = [(1, 2), (2, 0), (0, 1)][comp]
    return f_ops[i] @ g_ops[j] - f_ops[j] @ g_ops[i]


def quadrature_energy(basis, t=0.0):
    """(1/8 pi) grid integral of E^2 + B^2 as a dense matrix."""
    axes, weight = _grid(basis)
    acc = np.zeros((basis.dim, basis.dim), dtype=complex)
    for rx in axes[0]:
        for ry in axes[1]:
            for rz in axes[2]:
                x = SpacetimePoint(r=np.array([rx, ry, rz]), t=t)
                e_ops = pf.field(basis, FieldKind.E, x)
                b_ops = pf.field(basis, FieldKind.B, x)
                for op in (*e_ops, *b_ops):
                    acc += weight * (op @ op).to_dense()
    return acc / (8.0 * np.pi)


def quadrature_momentum(basis, t=0.0):
    """(1/8 pi c) grid integral of (E x B - B x E), three dense matrices."""
    axes, weight = _grid(basis)
    acc = [np.zeros((basis.dim, basis.dim), dtype=complex) for _ in range(3)]
    for rx in axes[0]:
        for ry in axes[1]:
            for rz in axes[2]:
                x = SpacetimePoint(r=np.array([rx, ry, rz]), t=t)
                e_ops = pf.field(basis, FieldKind.E, x)
                b_ops = pf.field(basis, FieldKind.B, x)
                for comp in range(3):
                    term = _cross_sum(e_ops, b_ops, comp) - _cross_sum(b_ops, e_ops, comp)
                    acc[comp] += weight * term.to_dense()
    return [a / (8.0 * np.pi * basis.config.c) for a in acc]


def quadrature_spin(basis, t=0.0):
    """(1/8 pi c) grid integral of (E x A - A x E), three dense matrices."""
    axes, weight = _grid(basis)
    acc = [np.zeros((basis.dim, basis.dim), dtype=complex) for _ in range(3)]
    for rx in axes[0]:
        for ry in axes[1]:
            for rz in axes[2]:
                x = SpacetimePoint(r=np.array([rx, ry, rz]), t=t)
                e_ops = pf.field(basis, FieldKind.E, x)
                a_ops = pf.field(basis, FieldKind.A, x)
                for comp in range(3):
                    term = _cross_sum(e_ops, a_ops, comp) - _cross_sum(a_ops, e_ops, comp)
                    acc[comp] += weight * term.to_dense()
    return [a / (8.0 * np.pi * basis.config.c) for a in acc]


def poisson_tail(alpha, cap):
    """Probability mass of a Poisson(|alpha|^2) distribution beyond cap."""
    lam = abs(alpha) ** 2
    term = np.exp(-lam)
    kept = 0.0
    for n in range(cap + 1):
        kept += term
        term *= lam / (n + 1)
    return 1.0 - kept
