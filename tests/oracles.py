"""Independent oracles used by the tests.

The ladder oracle builds a_j as a Kronecker product of single-mode
matrices, independent of the library's lowering table.

The quadrature oracle integrates the quadratic field densities over the
box on a uniform grid.  The integrands are trigonometric polynomials whose
per-axis frequencies are bounded by twice the largest lattice momentum
component, so a uniform rule with enough points per axis is *exact* (up to
roundoff) and independent of the analytic pair reduction in the library.

The direction oracles build triads, helicity vectors and random directions
one 3-vector at a time, and the vacuum-scan oracle sums the lattice by a
running total, independent of the library's stacked (N, 3) and table code.

The Maxwell oracle takes every derivative, curl and divergence on
assembled sparse operators, one component at a time, independent of the
library's arithmetic on stored ladder values.

The writer oracles format every value with its own repr call, one line at
a time, independent of the library's once-per-distinct-value formatting.
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


# Per-direction polarization and helicity construction, one 3-vector at a
# time: an independent reference for the batched direction core.

_PRIMARY_AXIS = np.array([1.0, 0.0, 0.0])
_SECONDARY_AXIS = np.array([0.0, 1.0, 0.0])


def triad_oracle(k, reference=None):
    """(e_hat, b_hat, eps_plus, eps_minus) for one unit 3-vector k."""
    if reference is None:
        a = _PRIMARY_AXIS if abs(np.dot(k, _PRIMARY_AXIS)) <= 0.9 else _SECONDARY_AXIS
    else:
        a = np.asarray(reference, dtype=float)
        a = a / np.linalg.norm(a)
    e = a - np.dot(a, k) * k
    norm = np.linalg.norm(e)
    if norm < 1e-6:
        raise ValueError("reference axis is (nearly) parallel to k")
    e = e / norm
    b = np.cross(k, e)
    return e, b, (e + 1j * b) / np.sqrt(2.0), (1j * e + b) / np.sqrt(2.0)


def helicity_oracle(k, cutoff=1e-6):
    """(chi_plus, chi_minus) for one unit 3-vector k: closed form or phase-fixed eps_s."""
    # 1 - k (kx + ky + kz) = c x k and 1 - kx ky - ky kz - kz kx = |c|^2 / 2
    # for unit k, with c = k x (1, 1, 1) = (ky - kz, kz - kx, kx - ky).
    kx, ky, kz = k
    c = np.array([ky - kz, kz - kx, kx - ky])
    denom = np.linalg.norm(c) / np.sqrt(2.0)
    out = []
    for sign in (1, -1):
        if denom > cutoff:
            out.append((np.cross(c, k) + sign * 1j * c) / (2.0 * denom))
        else:
            v = triad_oracle(k)[2 if sign == 1 else 3]
            mods = np.abs(v)
            lead = int(np.argmax(mods > np.max(mods) - 1e-15))
            out.append(v * np.conj(v[lead]) / mods[lead])
    return tuple(out)


def random_directions_oracle(rng, count):
    """count unit 3-vectors drawn one standard_normal(3) at a time, near-zero draws skipped."""
    out = []
    while len(out) < count:
        v = rng.standard_normal(3)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            out.append(v / norm)
    return np.array(out)


def expectation_points_oracle(rng, count):
    """count points drawn one at a time: r = uniform(-1, 1, size=3), then t = uniform(-1, 1)."""
    r, t = [], []
    for _ in range(count):
        r.append(rng.uniform(-1, 1, size=3))
        t.append(rng.uniform(-1, 1))
    return np.array(r), np.array(t)


def vacuum_scan_oracle(length, hbar, c, cutoff):
    """Vacuum <E^2> summed over |n| <= cutoff by a running total in (nx, ny, nz) order."""
    dp3 = (2.0 * np.pi * hbar / length) ** 3
    total = 0.0
    rng = range(-cutoff, cutoff + 1)
    for nx in rng:
        for ny in rng:
            for nz in rng:
                norm = np.sqrt(nx * nx + ny * ny + nz * nz)
                if 0 < norm <= cutoff:
                    omega = c * (2.0 * np.pi / length) * norm
                    total += 2.0 * dp3 * omega / (2.0 * np.pi * hbar) ** 2
    return total


def export_operator_oracle(op, stream):
    """Coordinate-list text of an operator, written entry by entry."""
    basis = op.basis
    coo = op.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    stream.write(f"{basis.dim} {basis.n_modes} {basis.n_max}\n")
    for i in order:
        v = coo.data[i]
        stream.write(f"{coo.row[i]} {coo.col[i]} {float(v.real)!r} {float(v.imag)!r}\n")


def grid_csv_oracle(rows, stream):
    """Grid CSV text, each row joined from per-value reprs."""
    stream.write("t,x,y,z,Fx,Fy,Fz\n")
    for row in rows:
        stream.write(",".join(repr(float(v)) for v in row) + "\n")


def maxwell_oracle(basis, x, h, method):
    """The four Maxwell and two potential residuals from tuples of assembled operators."""

    def derivative(kind, dt=0, dr=(0, 0, 0)):
        if method == "analytic":
            return pf.field_derivative(basis, kind, x, dt=dt, dr=dr)
        step_r, step_t = h * np.asarray(dr, dtype=float), h * dt
        plus = pf.field(basis, kind, SpacetimePoint(r=x.r + step_r, t=x.t + step_t))
        minus = pf.field(basis, kind, SpacetimePoint(r=x.r - step_r, t=x.t - step_t))
        return tuple((p - m) * (0.5 / h) for p, m in zip(plus, minus))

    def grad(kind):
        return [derivative(kind, dr=axis) for axis in np.eye(3, dtype=int)]

    def curl(g):
        return (g[1][2] - g[2][1], g[2][0] - g[0][2], g[0][1] - g[1][0])

    def divergence(g):
        return g[0][0] + g[1][1] + g[2][2]

    def max_over(ops):
        return max(op.max_abs() for op in ops)

    c = basis.config.c
    grad_e, grad_b = grad(FieldKind.E), grad(FieldKind.B)
    de_dt, db_dt, da_dt = (derivative(kind, dt=1) for kind in (FieldKind.E, FieldKind.B, FieldKind.A))
    e_ops, b_ops = pf.field(basis, FieldKind.E, x), pf.field(basis, FieldKind.B, x)
    return {
        "faraday": max_over(-1.0 * ce - db * (1.0 / c) for ce, db in zip(curl(grad_e), db_dt)),
        "ampere": max_over(cb - de * (1.0 / c) for cb, de in zip(curl(grad_b), de_dt)),
        "div_e": divergence(grad_e).max_abs(),
        "div_b": divergence(grad_b).max_abs(),
        "potential_time": max_over(e + da * (1.0 / c) for e, da in zip(e_ops, da_dt)),
        "potential_curl": max_over(b - ca for b, ca in zip(b_ops, curl(grad(FieldKind.A)))),
    }
