"""Independent oracles used by the tests.

The ladder oracle builds a_j as a Kronecker product of single-mode
matrices, independent of the library's derived ladder rows.  The ladder
table oracle stores what the basis derives: target and amplitude of every
ladder operator on every state, built by unravelling the state index, and
the table amplitude profile reads <a_m> off its live entries.

The quadrature oracle integrates the quadratic field densities over the
box on a uniform grid.  The integrands are trigonometric polynomials whose
per-axis frequencies are bounded by twice the largest lattice momentum
component, so a uniform rule with enough points per axis is *exact* (up to
roundoff) and independent of the analytic pair reduction in the library.

The direction oracles build triads, helicity vectors and random directions
one 3-vector at a time, and the vacuum-scan oracle sums the lattice by a
running total, independent of the library's stacked (N, 3) and table code.

The derivative-coefficient oracle evaluates each derivative's coefficients
at one point by the per-point expression, with its own amplitudes, in place
of the library's coefficients times a per-mode factor.

The Maxwell oracle takes every derivative, curl and divergence on
assembled sparse operators, one component at a time, independent of the
library's arithmetic on stored ladder values.

The expectations oracle takes each mean field as the expectation of one
assembled field operator per point and component, independent of the
library's per-mode ladder expectations.

The writer oracles format every value with its own repr call, one line at
a time, independent of the library's once-per-distinct-value formatting.

The boost oracle assembles the pure boost from numpy blocks (np.eye and
np.outer), independent of the library's entry-by-entry assembly from
Python floats.

extract_fields reads (e, b) back out of a classical photon tensor; it is
test tooling, the inverse of build_tensor.

The mode-table oracle builds each mode's kinematics and polarization one
mode at a time (a Direction, make_triad and 1-D norms), independent of the
basis's stacked mode table.  The adjoint residual reads hermiticity off the
matrix itself.

from_scipy is test tooling: the SparseOperator of a scipy matrix, built
from the arrays of its complex CSR.
"""

import math

import numpy as np
import scipy.sparse as sp

import photonfield as pf
from photonfield.fields import FieldKind, SpacetimePoint


def from_scipy(m, basis):
    """The SparseOperator of m, a scipy sparse matrix or a dense array: m as a complex CSR, then its arrays."""
    m = sp.csr_matrix(m, dtype=complex)
    return pf.SparseOperator((m.data, m.indices, m.indptr), basis)


def kron_lowering(basis, j):
    """a_j = 1_(local^j) (x) a (x) 1_(local^(n_modes - 1 - j)) as a CSR matrix."""
    local = basis.n_max + 1
    single = sp.diags(np.sqrt(np.arange(1, local)), offsets=1, format="csr", dtype=complex)
    left = sp.identity(local**j, format="csr", dtype=complex)
    right = sp.identity(local ** (basis.n_modes - 1 - j), format="csr", dtype=complex)
    matrix = sp.kron(sp.kron(left, single), right).tocsr()
    matrix.eliminate_zeros()  # with a 2x2 right factor sp.kron builds a BSR whose dense blocks store zeros
    return matrix


def ladder_table(basis):
    """(target, amplitude, occupancies) of the basis, as stored tables.

    Row k of target and amplitude is L_k in the order a_1..a_n,
    a-dagger_1..a-dagger_n: L_k |s> = amplitude[k, s] |target[k, s]>,
    amplitude 0 and target s where L_k annihilates s; both have shape
    (2 n_modes, dim), target int32.  occupancies is (dim, n_modes) int64,
    row i = basis state i.
    """
    dim, local = basis.dim, basis.n_max + 1
    occ = np.unravel_index(np.arange(dim), (local,) * basis.n_modes)
    occupancies = np.stack(occ, axis=1)
    by_mode, states = np.stack(occ).astype(np.int32), np.arange(dim, dtype=np.int32)
    step = np.asarray(basis.strides, dtype=np.int32)[:, None]
    up = by_mode < basis.n_max
    target = np.concatenate([states - step * (by_mode > 0), states + step * up])
    amplitude = np.sqrt(np.concatenate([by_mode, (by_mode + 1) * up]), dtype=float)
    return target, amplitude, occupancies


def table_amplitude_profile(state):
    """<a_m> of every mode from the live entries (amplitude > 0) of the ladder table's a rows."""
    basis, c = state.basis, state.coefficients
    target, amplitude, _ = ladder_table(basis)
    amplitude, target = amplitude[: basis.n_modes], target[: basis.n_modes]
    live = amplitude > 0
    terms = np.conj(c[target[live]]) * c[np.nonzero(live)[1]] * amplitude[live]
    return np.sum(terms.reshape(basis.n_modes, -1), axis=1)


def _grid(basis):
    length = basis.config.length
    sizes = []
    for axis in range(3):
        top = max(abs(n[axis]) for _, n in basis.modes)
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
                    acc += weight * (op @ op).matrix.toarray()
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
                    acc[comp] += weight * term.matrix.toarray()
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
                    acc[comp] += weight * term.matrix.toarray()
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


def mode_table_oracle(config):
    """The basis's mode arrays (p, omega, k, eps, k_cross_eps, spin, vacuum_e2), built mode by mode."""
    reference = None if config.gauge_reference is None else np.asarray(config.gauge_reference)
    rows = []
    for s, n in config.modes:
        nv = np.asarray(n, dtype=float)
        p = (2.0 * np.pi * config.hbar / config.length) * nv
        k = pf.Direction(k=nv / np.linalg.norm(nv))
        omega = float(config.c * np.linalg.norm(p) / config.hbar)
        rows.append((p, omega, k.k, pf.make_triad(k, reference=reference).eps(s), s * config.hbar))
    p, omega, k, eps, s_hbar = zip(*rows)
    k, eps = np.stack(k), np.stack(eps)
    return {
        "p": np.stack(p),
        "omega": np.array(omega),
        "k": k,
        "eps": eps,
        "k_cross_eps": np.cross(k, eps),
        "spin": np.array(s_hbar)[:, None] * k,
        # x * x is the correctly rounded square; Python's x ** 2 (C pow) is not always.
        "vacuum_e2": np.array([
            (2.0 * np.pi * config.hbar / config.length) ** 3
            * (w / ((2.0 * np.pi * config.hbar) * (2.0 * np.pi * config.hbar)))
            for w in omega
        ]),
    }


def adjoint_residual(op, sign=1.0):
    """max |M - sign M^H| of an operator's matrix: 0 for hermitian (sign 1) or antihermitian (-1)."""
    diff = (op.matrix - sign * op.matrix.conj().T).tocsr()
    return float(np.max(np.abs(diff.data), initial=0.0))


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


def boost_matrix_oracle(beta):
    """The pure boost for velocity beta: gamma, -gamma beta and eye(3) + (gamma - 1) beta beta^T / beta^2."""
    beta = np.asarray(beta, dtype=float)
    b2 = float(np.dot(beta, beta))
    lam = np.eye(4)
    if b2 == 0.0:
        return lam
    gamma = 1.0 / np.sqrt(1.0 - b2)
    lam[0, 0] = gamma
    lam[0, 1:] = -gamma * beta
    lam[1:, 0] = -gamma * beta
    lam[1:, 1:] = np.eye(3) + (gamma - 1.0) * np.outer(beta, beta) / b2
    return lam


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


def expectations_oracle(state, kind, r, t):
    """(N, 3) mean fields: Re <psi|F_i(r[n], t[n])|psi> of one assembled field tuple per point."""
    out = []
    for row, v in zip(r, t):
        ops = pf.field(state.basis, kind, SpacetimePoint(r=row, t=float(v)))
        out.append([np.real(pf.expectation(op, state)) for op in ops])
    return np.array(out)


def coherent_amplitude_oracle(alpha, n):
    """exp(-|alpha|^2 / 2) alpha^n / sqrt(n!) from logarithms, for a real alpha > 0."""
    return math.exp(-alpha * alpha / 2.0 + n * math.log(alpha) - math.lgamma(n + 1) / 2.0)


def vacuum_scan_oracle(length, hbar, c, cutoff):
    """Vacuum <E^2> summed over |n| <= cutoff by a running total in (nx, ny, nz) order.

    Each momentum is p = (2 pi hbar / L) n with omega = c |p| / hbar, the
    norm taken by np.linalg.norm of that one p; the ball is |n|^2 <= cutoff^2
    on integers.
    """
    step = 2.0 * np.pi * hbar / length
    dp3 = step**3
    total = 0.0
    rng = range(-cutoff, cutoff + 1)
    for nx in rng:
        for ny in rng:
            for nz in rng:
                if 0 < nx * nx + ny * ny + nz * nz <= cutoff * cutoff:
                    omega = c * np.linalg.norm(step * np.array([nx, ny, nz], dtype=float)) / hbar
                    total += 2.0 * dp3 * (omega / (2.0 * np.pi * hbar) ** 2)
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


def derivative_coefficients_oracle(basis, kind, x, dt, dr):
    """Coefficients of the derivative d_t^dt d_r^dr of E, B or A at x, shape (n_modes, 3).

    The whole per-point expression: the amplitude at r = 0 times the product
    of exp(i p.r / hbar), (-i omega)^dt and prod_j (i p_j / hbar)^dr_j, taken
    in that order.  The library multiplies in the same order, so the bits
    agree and every derivative keeps its bytes.
    """
    hbar, c = basis.config.hbar, basis.config.c
    scale = np.sqrt(basis.delta3p) / (2.0 * np.pi * hbar)
    time_phase = np.exp(-1j * basis.omega * x.t)[:, None]
    if kind is FieldKind.A:
        amplitudes = scale * (c / np.sqrt(basis.omega))[:, None] * basis.eps * time_phase
    else:
        pol = basis.eps if kind is FieldKind.E else basis.k_cross_eps
        amplitudes = scale * 1j * np.sqrt(basis.omega)[:, None] * pol * time_phase
    factor = np.exp(1j * np.vecdot(basis.p, x.r[None, :]) / hbar)
    factor *= (-1j * basis.omega) ** dt
    factor *= np.prod((1j * basis.p / hbar) ** np.asarray(dr), axis=1)
    return amplitudes * factor[:, None]


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


def extract_fields(tensor: pf.PhotonTensor) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of build_tensor: recover (e, b) from the tensor components."""
    f = tensor.f
    e = f[0, 1:].copy()
    b = np.array([f[2, 3], -f[1, 3], f[1, 2]])
    return e, b
