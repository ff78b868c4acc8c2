import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photonfield as pf
from photonfield import fields
from photonfield.fields import CompletenessError, FieldKind, SpacetimePoint, commutator_weights, mode_coefficients

import oracles

ORIGIN = SpacetimePoint(r=np.zeros(3), t=0.0)


def point(rx, ry, rz, t=0.0):
    return SpacetimePoint(r=np.array([rx, ry, rz], dtype=float), t=t)


# ---------------------------------------------------------------------------
# field assembly


@pytest.mark.parametrize("kind", list(FieldKind))
def test_stacked_mode_coefficients_equal_pointwise(offaxis_basis, three_mode_basis, kind):
    rng = np.random.default_rng(3)
    r, t = rng.uniform(-4.0, 4.0, size=(25, 3)), rng.uniform(-2.0, 2.0, size=25)
    for basis in (offaxis_basis, three_mode_basis):
        stacked = mode_coefficients(basis, kind, r, t)
        assert stacked.shape == (25, basis.n_modes, 3)
        for row, ri, ti in zip(stacked, r, t):
            x = SpacetimePoint(r=ri, t=float(ti))
            assert (row == pf.field_mode_coefficients(basis, kind, x)).all()


@pytest.mark.parametrize("dt,dr", [(0, (0, 0, 0)), (1, (0, 0, 0)), (0, (1, 0, 0)), (2, (0, 1, 2)), (3, (2, 0, 1))])
@pytest.mark.parametrize("kind", list(FieldKind))
def test_field_derivative_equals_per_point_formula(offaxis_basis, three_mode_basis, kind, dt, dr):
    # Coefficients times one per-mode factor equal the per-point derivative
    # formula bit for bit, so every derivative and export keeps its bytes.
    rng = np.random.default_rng(4)
    r, t = rng.uniform(-4.0, 4.0, size=(4, 3)), rng.uniform(-2.0, 2.0, size=4)
    points = [ORIGIN] + [SpacetimePoint(r=ri, t=float(ti)) for ri, ti in zip(r, t)]
    for basis in (offaxis_basis, three_mode_basis):
        for x in points:
            expected = oracles.derivative_coefficients_oracle(basis, kind, x, dt, dr)
            factors = fields._derivative_factors(basis, fields._phase(basis, x.r), dt, dr)
            coeffs = fields._amplitudes(basis, kind, x.t) * factors[:, None]
            assert (coeffs.view(np.int64) == expected.view(np.int64)).all()
            if dt == 0 and not any(dr):
                assert (pf.field_mode_coefficients(basis, kind, x).view(np.int64) == expected.view(np.int64)).all()
            for i, op in enumerate(pf.field_derivative(basis, kind, x, dt=dt, dr=dr)):
                assert (op - pf.linear_functional(basis, expected[:, i])).max_abs() == 0.0


def test_field_components_are_hermitian(standard_basis):
    x = point(0.3, -0.8, 0.4, t=0.7)
    for kind in FieldKind:
        for op in pf.field(standard_basis, kind, x):
            assert oracles.adjoint_residual(op) < 1e-12


def test_single_mode_vacuum_column(single_mode_basis):
    # Only |0> <-> |1> amplitudes, magnitude 1/(2 pi sqrt 2).
    ey = pf.field(single_mode_basis, FieldKind.E, ORIGIN)[1]
    column = ey.to_dense()[:, 0]
    assert np.sum(np.abs(column) > 0) == 1
    assert abs(abs(column[1]) - 1.0 / (2.0 * np.pi * np.sqrt(2.0))) < 1e-15


def test_field_is_box_periodic(standard_basis):
    length = standard_basis.config.length
    x = point(0.2, -1.0, 0.5, t=0.3)
    for shift in (np.array([length, 0, 0]), np.array([0, 0, length])):
        shifted = SpacetimePoint(r=x.r + shift, t=x.t)
        for a, b in zip(
            pf.field(standard_basis, FieldKind.E, x),
            pf.field(standard_basis, FieldKind.E, shifted),
        ):
            assert (a - b).max_abs() < 1e-14


def test_linear_functional_zero_and_single(single_mode_basis):
    assert pf.linear_functional(single_mode_basis, np.zeros(1)).max_abs() == 0.0
    op = pf.linear_functional(single_mode_basis, np.ones(1))
    expected = np.diag(np.sqrt([1.0, 2.0, 3.0]), 1) + np.diag(np.sqrt([1.0, 2.0, 3.0]), -1)
    assert np.max(np.abs(op.to_dense() - expected)) < 1e-15


def test_field_factors_through_linear_functional(standard_basis):
    x = point(0.4, 0.1, -0.9, t=0.25)
    coeffs = pf.field_mode_coefficients(standard_basis, FieldKind.E, x)
    rebuilt = pf.linear_functional(standard_basis, coeffs[:, 0])
    direct = pf.field(standard_basis, FieldKind.E, x)[0]
    assert (rebuilt - direct).max_abs() == 0.0


@pytest.mark.parametrize("coeffs", [np.ones(3), np.ones((4, 1)), {0: 1.0}], ids=["short", "2-D", "mapping"])
def test_linear_functional_refuses_other_shapes(standard_basis, coeffs):
    with pytest.raises(ValueError, match="expected 4 mode coefficients"):
        pf.linear_functional(standard_basis, coeffs)


# ---------------------------------------------------------------------------
# diagonal observables and zero-point constants


def test_observable_examples(single_mode_basis, helicity_pair_basis):
    h = pf.observable_H(single_mode_basis)
    assert oracles.adjoint_residual(h) < 1e-12
    assert np.max(np.abs(np.imag(h.diagonal()))) == 0.0
    assert np.allclose(np.real(h.diagonal()), [0.0, 1.0, 2.0, 3.0], atol=0)
    pz = pf.observable_P(single_mode_basis)[2]
    assert np.allclose(np.real(pz.diagonal()), [0.0, 1.0, 2.0, 3.0], atol=1e-15)
    sz = pf.observable_S(helicity_pair_basis)[2]
    occ = helicity_pair_basis.occupancy_table()
    assert np.allclose(np.real(sz.diagonal()), occ[:, 0] - occ[:, 1], atol=1e-15)


def test_zero_point_constants(standard_basis, single_mode_basis, helicity_pair_basis):
    zp = pf.zero_point(standard_basis)
    assert abs(zp.E0 - 2.0) < 1e-14  # four modes at omega = 1, hbar = 1
    assert np.max(np.abs(zp.P0)) < 1e-14
    assert np.max(np.abs(zp.S0)) < 1e-14
    zp1 = pf.zero_point(single_mode_basis)
    assert abs(zp1.E0 - 0.5) < 1e-15
    assert np.allclose(zp1.P0, [0, 0, 0.5], atol=1e-15)
    assert np.allclose(zp1.S0, [0, 0, 0.5], atol=1e-15)
    # opposite helicities of one momentum: spin constants cancel pairwise
    zp2 = pf.zero_point(helicity_pair_basis)
    assert np.max(np.abs(zp2.S0)) == 0.0
    assert np.allclose(zp2.P0, [0, 0, 1.0], atol=1e-15)


# ---------------------------------------------------------------------------
# quadratic reductions


def test_single_mode_quadratic_energy(single_mode_basis):
    quad = pf.quadratic_H_from_fields(single_mode_basis)
    proj = pf.safe_projector(single_mode_basis, 1)
    projected = (proj @ quad @ proj).to_dense()
    assert np.allclose(np.diag(projected)[:3], [0.5, 1.5, 2.5], atol=1e-12)
    offdiag = projected - np.diag(np.diag(projected))
    assert np.max(np.abs(offdiag)) < 1e-14


def test_quadratic_energy_matches_quadrature_oracle(standard_basis):
    quad = pf.quadratic_H_from_fields(standard_basis, t=0.0)
    oracle = oracles.quadrature_energy(standard_basis, t=0.0)
    assert np.max(np.abs(quad.to_dense() - oracle)) < 1e-12


def test_quadratic_momentum_matches_quadrature_oracle(standard_basis):
    quad = pf.quadratic_P_from_fields(standard_basis, t=0.2)
    oracle = oracles.quadrature_momentum(standard_basis, t=0.2)
    for comp in range(3):
        assert np.max(np.abs(quad[comp].to_dense() - oracle[comp])) < 1e-12


def test_quadratic_spin_matches_quadrature_oracle(standard_basis):
    quad = pf.quadratic_S_from_fields(standard_basis, t=0.0)
    oracle = oracles.quadrature_spin(standard_basis, t=0.0)
    for comp in range(3):
        assert np.max(np.abs(quad[comp].to_dense() - oracle[comp])) < 1e-12


def assert_identity(basis, tol=1e-10):
    proj = pf.safe_projector(basis, 1)
    eye = pf.identity(basis)
    zp = pf.zero_point(basis)
    scale = max(np.max(np.abs(pf.observable_H(basis).diagonal())) + abs(zp.E0), 1.0)

    residual = (proj @ (pf.quadratic_H_from_fields(basis) - pf.observable_H(basis) - zp.E0 * eye) @ proj).max_abs()
    assert residual < tol * scale

    p_quad = pf.quadratic_P_from_fields(basis)
    p_diag = pf.observable_P(basis)
    s_quad = pf.quadratic_S_from_fields(basis)
    s_diag = pf.observable_S(basis)
    for comp in range(3):
        r_p = (proj @ (p_quad[comp] - p_diag[comp] - float(zp.P0[comp]) * eye) @ proj).max_abs()
        r_s = (proj @ (s_quad[comp] - s_diag[comp] - float(zp.S0[comp]) * eye) @ proj).max_abs()
        assert r_p < tol * scale
        assert r_s < tol * scale


def test_identities_on_symmetric_set(standard_basis):
    assert_identity(standard_basis)


def test_identities_on_asymmetric_sets():
    # The reductions hold mode pair by mode pair, so no momentum symmetry
    # or helicity completeness is needed.
    sets = [
        ((1, (0, 0, 1)),),
        ((1, (0, 0, 1)), (-1, (0, 0, 1)), (1, (1, 1, 0))),
        ((1, (1, 0, 0)), (-1, (0, 2, 1)), (1, (0, 0, 3)), (-1, (1, 1, 1))),
    ]
    for modes in sets:
        basis = pf.build_basis(pf.LatticeConfig(length=2 * np.pi, n_max=2, modes=modes))
        assert_identity(basis)


_mode_keys = st.lists(
    st.tuples(
        st.sampled_from([1, -1]),
        st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
    ),
    min_size=1,
    max_size=4,
    unique=True,
).filter(lambda ms: all(n != (0, 0, 0) for _, n in ms))


@given(_mode_keys)
@settings(max_examples=25, deadline=None)
def test_identities_hold_for_arbitrary_mode_sets(modes):
    basis = pf.build_basis(pf.LatticeConfig(length=2 * np.pi, n_max=2, modes=tuple(modes)))
    assert_identity(basis)


def test_identities_with_nonunit_constants():
    basis = pf.build_basis(
        pf.LatticeConfig(length=3.0, n_max=2, hbar=0.7, c=2.5, modes=((1, (0, 1, 1)), (-1, (0, -1, -1))))
    )
    assert_identity(basis)


def test_quadratic_observables_are_conserved(standard_basis):
    h0 = pf.quadratic_H_from_fields(standard_basis, t=0.0)
    h1 = pf.quadratic_H_from_fields(standard_basis, t=0.37)
    assert (h0 - h1).max_abs() < 1e-10
    for a, b in zip(
        pf.quadratic_P_from_fields(standard_basis, t=0.0),
        pf.quadratic_P_from_fields(standard_basis, t=0.37),
    ):
        assert (a - b).max_abs() < 1e-10
    for a, b in zip(
        pf.quadratic_S_from_fields(standard_basis, t=0.0),
        pf.quadratic_S_from_fields(standard_basis, t=0.37),
    ):
        assert (a - b).max_abs() < 1e-10


@pytest.mark.parametrize("t", [0.0, 0.37])
def test_quadratic_observables_are_hermitian(standard_basis, offaxis_basis, t):
    for basis in (standard_basis, offaxis_basis):
        ops = (
            pf.quadratic_H_from_fields(basis, t=t),
            *pf.quadratic_P_from_fields(basis, t=t),
            *pf.quadratic_S_from_fields(basis, t=t),
        )
        assert ops[0].max_abs() > 0.1
        for op in ops:
            assert oracles.adjoint_residual(op) < 1e-12


def test_quadratic_observables_are_gauge_independent():
    modes = ((1, (0, 0, 1)), (-1, (0, 0, 1)), (1, (0, 0, -1)), (-1, (0, 0, -1)))
    default = pf.build_basis(pf.LatticeConfig(length=2 * np.pi, n_max=3, modes=modes))
    rotated = pf.build_basis(
        pf.LatticeConfig(length=2 * np.pi, n_max=3, modes=modes, gauge_reference=(0.0, 1.0, 0.3))
    )
    h_d = pf.quadratic_H_from_fields(default).to_dense()
    h_r = pf.quadratic_H_from_fields(rotated).to_dense()
    assert np.max(np.abs(h_d - h_r)) < 1e-10
    for comp in range(3):
        p_d = pf.quadratic_P_from_fields(default)[comp].to_dense()
        p_r = pf.quadratic_P_from_fields(rotated)[comp].to_dense()
        assert np.max(np.abs(p_d - p_r)) < 1e-10
        s_d = pf.quadratic_S_from_fields(default)[comp].to_dense()
        s_r = pf.quadratic_S_from_fields(rotated)[comp].to_dense()
        assert np.max(np.abs(s_d - s_r)) < 1e-10


# ---------------------------------------------------------------------------
# derivative relations and Maxwell equations


def test_analytic_derivative_relations(standard_basis):
    res = pf.check_derivative_relations(standard_basis, point(0.3, -0.2, 0.15, t=0.1), 1e-3, method="analytic")
    assert max(res.values()) < 1e-12


def test_fd_derivative_relations_scale_quadratically(standard_basis):
    x = point(0.3, -0.2, 0.15, t=0.1)
    res_h = pf.check_derivative_relations(standard_basis, x, 1e-3, method="fd")
    res_half = pf.check_derivative_relations(standard_basis, x, 5e-4, method="fd")
    scale = max(op.max_abs() for op in pf.field(standard_basis, FieldKind.E, x))
    for name in res_h:
        assert res_h[name] < 1e-6 * scale
        ratio = res_h[name] / res_half[name]
        assert 3.2 < ratio < 4.8


def test_fd_residuals_same_at_random_points(standard_basis):
    rng = np.random.default_rng(11)
    values = []
    for _ in range(10):
        x = SpacetimePoint(r=rng.uniform(-2, 2, 3), t=float(rng.uniform(-1, 1)))
        values.append(pf.check_derivative_relations(standard_basis, x, 1e-3, method="fd")["potential_time"])
    assert np.max(values) < 2.0 * np.min(values) + 1e-12


def test_analytic_maxwell_residuals_vanish(standard_basis):
    res = pf.check_maxwell(standard_basis, point(0.5, 0.1, -0.7, t=0.2), 1e-3, method="analytic")
    assert max(res.values()) < 1e-12


def test_fd_maxwell_off_axis(offaxis_basis):
    x = point(0.3, -0.2, 0.15, t=0.1)
    res = pf.check_maxwell(offaxis_basis, x, 1e-3, method="fd")
    assert max(res.values()) < 1e-6
    res_half = pf.check_maxwell(offaxis_basis, x, 5e-4, method="fd")
    for name in res:
        ratio = res[name] / res_half[name]
        assert 3.2 < ratio < 4.8


def test_divergence_vanishes_for_transverse_mode(single_mode_basis):
    res = pf.check_maxwell(single_mode_basis, point(0.4, 0.0, 1.1), 1e-3, method="fd")
    scale = max(op.max_abs() for op in pf.field(single_mode_basis, FieldKind.E, ORIGIN))
    assert res["div_e"] < 1e-6 * scale


@pytest.mark.parametrize("method,h", [("analytic", 1e-3), ("analytic", 5e-4), ("fd", 1e-3), ("fd", 5e-4)])
def test_maxwell_residuals_equal_operator_oracle(standard_basis, offaxis_basis, three_mode_basis, method, h):
    points = (point(0.3, -0.2, 0.15, t=0.1), point(-2.1, 0.7, 1.3, t=-0.8), point(4.0, -3.5, 0.02, t=1.9))
    for basis in (standard_basis, offaxis_basis, three_mode_basis):
        for x in points:
            got = pf.check_maxwell(basis, x, h, method=method)
            got.update(pf.check_derivative_relations(basis, x, h, method=method))
            assert got == oracles.maxwell_oracle(basis, x, h, method)


def test_maxwell_residuals_assemble_no_operator(standard_basis, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a sparse operator was assembled")

    monkeypatch.setattr(pf.SparseOperator, "__init__", refuse)
    x = point(0.3, -0.2, 0.15, t=0.1)
    for method in ("analytic", "fd"):
        pf.check_maxwell(standard_basis, x, 1e-3, method=method)
        pf.check_derivative_relations(standard_basis, x, 1e-3, method=method)


def test_bad_method_rejected(standard_basis):
    with pytest.raises(ValueError):
        pf.check_maxwell(standard_basis, ORIGIN, 1e-3, method="spectral")
    with pytest.raises(ValueError):
        pf.check_derivative_relations(standard_basis, ORIGIN, -1.0)
    for method in ("fd", "analytic"):
        for h in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="step h"):
                pf.check_maxwell(standard_basis, ORIGIN, h, method=method)
            with pytest.raises(ValueError, match="step h"):
                pf.check_derivative_relations(standard_basis, ORIGIN, h, method=method)
    # A finite step whose stencil overflows is refused too.
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        pf.check_maxwell(standard_basis, point(1.7e308, 0.0, 0.0), 1e308)


# ---------------------------------------------------------------------------
# commutators


def test_equal_time_closed_form_vanishes(standard_basis):
    x1 = point(0.3, 0.3, -0.3, t=0.8)
    x2 = point(-0.5, 0.2, 0.9, t=0.8)
    closed = pf.field_commutator_closed_form(standard_basis, FieldKind.E, FieldKind.E, x1, x2)
    assert np.max(np.abs(closed)) < 1e-14


def test_commutator_matrix_path_matches_closed_form(standard_basis):
    rng = np.random.default_rng(5)
    proj = pf.safe_projector(standard_basis, 1)
    eye_p = proj @ pf.identity(standard_basis) @ proj
    for _ in range(5):
        x1 = SpacetimePoint(r=rng.uniform(-3, 3, 3), t=float(rng.uniform(-1, 1)))
        x2 = SpacetimePoint(r=rng.uniform(-3, 3, 3), t=float(rng.uniform(-1, 1)))
        for k1, k2 in ((FieldKind.E, FieldKind.E), (FieldKind.B, FieldKind.B), (FieldKind.E, FieldKind.B)):
            closed = pf.field_commutator_closed_form(standard_basis, k1, k2, x1, x2)
            f1 = pf.field(standard_basis, k1, x1)
            f2 = pf.field(standard_basis, k2, x2)
            for i in range(3):
                for j in range(3):
                    matrix = proj @ pf.commutator(f1[i], f2[j]) @ proj
                    assert (matrix - complex(closed[i, j]) * eye_p).max_abs() < 1e-10


@pytest.fixture(scope="module")
def capped_basis():
    """Both helicities of +/- z and +/- x momenta, n_max = 1: most states sit at the cap."""
    modes = tuple((s, n) for n in ((0, 0, 1), (0, 0, -1), (1, 0, 0), (-1, 0, 0)) for s in (1, -1))
    return pf.build_basis(pf.LatticeConfig(length=2 * np.pi, n_max=1, modes=modes))


@pytest.mark.parametrize("fixture", ["standard_basis", "offaxis_basis", "capped_basis"])
@pytest.mark.parametrize("kinds", ["EE", "BB", "EB", "AE"])
def test_commutator_weights_give_the_whole_truncated_commutator(request, fixture, kinds):
    basis = request.getfixturevalue(fixture)
    kinds = [FieldKind(k) for k in kinds]
    # [a_m, a-dagger_m] from the Kronecker-product ladder oracle, one column per mode.
    ladders = [oracles.kron_lowering(basis, m) for m in range(basis.n_modes)]
    cap = np.stack([(a @ a.conj().T - a.conj().T @ a).diagonal() for a in ladders], axis=1)
    x1, x2 = point(0.4, -1.1, 0.7, t=0.3), point(-0.9, 0.2, 1.5, t=-0.8)
    w = commutator_weights(
        pf.field_mode_coefficients(basis, kinds[0], x1), pf.field_mode_coefficients(basis, kinds[1], x2)
    )
    f1, f2 = pf.field(basis, kinds[0], x1), pf.field(basis, kinds[1], x2)
    for i in range(3):
        for j in range(3):
            matrix = pf.commutator(f1[i], f2[j]).to_dense()
            assert np.max(np.abs(matrix - np.diag(cap @ w[i, j]))) <= 1e-15


def test_commutator_weights_sum_to_the_closed_forms(standard_basis, offaxis_basis):
    rng = np.random.default_rng(11)
    for basis in (standard_basis, offaxis_basis):
        r, t = rng.uniform(-3, 3, size=(2, 6, 3)), rng.uniform(-1, 1, size=(2, 6))
        for k1, k2 in ((FieldKind.E, FieldKind.E), (FieldKind.B, FieldKind.B), (FieldKind.E, FieldKind.B)):
            sums = commutator_weights(mode_coefficients(basis, k1, r[0], t[0]), mode_coefficients(basis, k2, r[1], t[1]))
            sums = sums.sum(-1)
            for p in range(6):
                x1, x2 = SpacetimePoint(r=r[0, p], t=float(t[0, p])), SpacetimePoint(r=r[1, p], t=float(t[1, p]))
                closed = pf.field_commutator_closed_form(basis, k1, k2, x1, x2)
                assert np.max(np.abs(sums[p] - closed)) < 1e-15


def test_mode_table_without_a_fock_space():
    # Both helicities of every n with 0 < |n|^2 <= 4: 32 momenta and 64 modes,
    # with four distinct omega, far beyond any Fock space the guards admit.
    shells = [n for n in itertools.product(range(-2, 3), repeat=3) if 0 < np.dot(n, n) <= 4]
    modes = tuple((s, n) for n in shells for s in (1, -1))
    config = pf.LatticeConfig(length=5.0, n_max=1, modes=modes, hbar=0.7, c=1.3)
    with pytest.raises(pf.LatticeSizeError):
        pf.FockBasis(config)
    table = pf.ModeTable(config)
    assert table.n_modes == 64 and len(table.momenta()) == 32
    rng = np.random.default_rng(12)
    r, t = rng.uniform(-2.5, 2.5, size=(2, 20, 3)), rng.uniform(-1, 1, size=(2, 20))
    for k1, k2 in ((FieldKind.E, FieldKind.E), (FieldKind.B, FieldKind.B), (FieldKind.E, FieldKind.B)):
        sums = commutator_weights(mode_coefficients(table, k1, r[0], t[0]), mode_coefficients(table, k2, r[1], t[1]))
        for p, w in enumerate(sums.sum(-1)):
            x1, x2 = SpacetimePoint(r=r[0, p], t=float(t[0, p])), SpacetimePoint(r=r[1, p], t=float(t[1, p]))
            closed = pf.field_commutator_closed_form(table, k1, k2, x1, x2)
            assert np.max(np.abs(w - closed)) <= 1e-13 * np.max(np.abs(closed))
    ((_, scan),) = pf.vacuum_field_square_scan(5.0, 0.7, 1.3, (2,))
    assert abs(pf.vacuum_field_square(table) - scan) <= 1e-14 * scan


def _shell_table():
    """Mode table of both helicities of every n with 0 < |n|^2 <= 4 (32 momenta), L = 5, hbar = 0.7, c = 1.3."""
    shells = [n for n in itertools.product(range(-2, 3), repeat=3) if 0 < np.dot(n, n) <= 4]
    modes = tuple((s, n) for n in shells for s in (1, -1))
    return pf.ModeTable(pf.LatticeConfig(length=5.0, n_max=1, modes=modes, hbar=0.7, c=1.3))


@pytest.mark.parametrize("kinds", ["EE", "BB", "EB", "BE"])
def test_stacked_commutator_kernel_equals_per_pair(standard_basis, offaxis_basis, kinds):
    rng = np.random.default_rng(21)
    r, t = rng.uniform(-3.0, 3.0, size=(2, 15, 3)), rng.uniform(-1.0, 1.0, size=(2, 15))
    k1, k2 = FieldKind(kinds[0]), FieldKind(kinds[1])
    for table in (standard_basis, offaxis_basis, _shell_table()):
        stacked = pf.field_commutator_kernel(table, k1, k2, r[0] - r[1], t[0] - t[1])
        assert stacked.shape == (15, 3, 3)
        for p in range(15):
            x1, x2 = SpacetimePoint(r=r[0, p], t=float(t[0, p])), SpacetimePoint(r=r[1, p], t=float(t[1, p]))
            pair = pf.field_commutator_closed_form(table, k1, k2, x1, x2)
            assert stacked[p].tobytes() == pair.tobytes()


def test_ee_and_bb_closed_forms_agree(standard_basis):
    x1 = point(1.2, -0.3, 0.4, t=0.6)
    x2 = point(0.1, 0.8, -0.2, t=-0.4)
    c_ee = pf.field_commutator_closed_form(standard_basis, FieldKind.E, FieldKind.E, x1, x2)
    c_bb = pf.field_commutator_closed_form(standard_basis, FieldKind.B, FieldKind.B, x1, x2)
    assert np.max(np.abs(c_ee - c_bb)) < 1e-14


def test_eb_equal_time_nonzero_off_diagonal(standard_basis):
    x1 = point(0.0, 0.0, 0.9, t=0.5)
    x2 = point(0.0, 0.0, 0.0, t=0.5)
    c_eb = pf.field_commutator_closed_form(standard_basis, FieldKind.E, FieldKind.B, x1, x2)
    assert np.max(np.abs(c_eb)) > 1e-4
    assert np.max(np.abs(np.diag(c_eb))) < 1e-14
    c_be = pf.field_commutator_closed_form(standard_basis, FieldKind.B, FieldKind.E, x1, x2)
    assert np.max(np.abs(c_eb + c_be)) < 1e-14


def test_closed_form_requires_both_helicities():
    basis = pf.build_basis(
        pf.LatticeConfig(length=2 * np.pi, n_max=1, modes=((1, (0, 0, 1)), (1, (0, 0, -1))))
    )
    with pytest.raises(CompletenessError):
        pf.field_commutator_closed_form(basis, FieldKind.E, FieldKind.E, ORIGIN, ORIGIN)


def test_closed_form_requires_a_momentum_set_closed_under_negation():
    # Both helicities of +z and +x, no -z and no -x.
    modes = ((1, (0, 0, 1)), (-1, (0, 0, 1)), (1, (1, 0, 0)), (-1, (1, 0, 0)))
    basis = pf.build_basis(pf.LatticeConfig(length=2 * np.pi, n_max=1, modes=modes))
    for kinds in ((FieldKind.E, FieldKind.E), (FieldKind.E, FieldKind.B)):
        with pytest.raises(CompletenessError, match=r"-n = \(0, 0, -1\) of n = \(0, 0, 1\) is missing"):
            pf.field_commutator_closed_form(basis, *kinds, ORIGIN, ORIGIN)


def test_closed_form_rejects_potential(standard_basis):
    with pytest.raises(ValueError):
        pf.field_commutator_closed_form(standard_basis, FieldKind.E, FieldKind.A, ORIGIN, ORIGIN)


# ---------------------------------------------------------------------------
# commutator kernel (lattice sum)


def test_kernel_zero_at_equal_times(standard_basis):
    assert pf.discrete_pauli_jordan(np.array([0.3, 0.1, -0.4]), 0.0, standard_basis) == 0.0


def test_kernel_is_odd_in_time(standard_basis):
    rho = np.array([0.7, -0.1, 0.2])
    d_plus = pf.discrete_pauli_jordan(rho, 0.9, standard_basis)
    d_minus = pf.discrete_pauli_jordan(rho, -0.9, standard_basis)
    assert abs(d_plus + d_minus) < 1e-15


def test_kernel_two_term_hand_sum(standard_basis):
    value = pf.discrete_pauli_jordan(np.zeros(3), np.pi / 2, standard_basis)
    assert abs(value - (-2.0 / (2.0 * np.pi) ** 3)) < 1e-15


def test_kernel_rejects_asymmetric_momenta():
    basis = pf.build_basis(
        pf.LatticeConfig(length=2 * np.pi, n_max=1, modes=((1, (0, 0, 1)), (-1, (0, 0, 1))))
    )
    with pytest.raises(ValueError):
        pf.discrete_pauli_jordan(np.zeros(3), 0.5, basis)


# ---------------------------------------------------------------------------
# field-number commutators


def test_field_number_commutator_is_antihermitian(standard_basis):
    x = point(0.7, -0.4, 0.2, t=0.3)
    for kind in FieldKind:
        for op in pf.field_number_commutator(standard_basis, kind, x):
            assert oracles.adjoint_residual(op, -1.0) < 1e-12


def test_field_number_commutator_matches_matrix_path(standard_basis):
    x = point(0.7, -0.4, 0.2, t=0.3)
    n_op = pf.total_number(standard_basis)
    for kind in FieldKind:
        comps = pf.field(standard_basis, kind, x)
        closed = pf.field_number_commutator(standard_basis, kind, x)
        for i in range(3):
            assert (pf.commutator(comps[i], n_op) - closed[i]).max_abs() < 1e-12


def test_field_number_commutator_keeps_lowering_sign(single_mode_basis):
    # <0|[E_x, N]|1> keeps the annihilation amplitude of <0|E_x|1>.
    e_x = pf.field(single_mode_basis, FieldKind.E, ORIGIN)[0]
    closed = pf.field_number_commutator(single_mode_basis, FieldKind.E, ORIGIN)[0]
    assert abs(closed.to_dense()[0, 1] - e_x.to_dense()[0, 1]) < 1e-15


def test_potential_number_commutator_lacks_the_phase_factor(single_mode_basis):
    # At the origin the E-side amplitude is pure imaginary, the A-side real.
    e_entry = pf.field_number_commutator(single_mode_basis, FieldKind.E, ORIGIN)[0].to_dense()[0, 1]
    a_entry = pf.field_number_commutator(single_mode_basis, FieldKind.A, ORIGIN)[0].to_dense()[0, 1]
    assert abs(e_entry.real) < 1e-15 and abs(e_entry.imag) > 1e-3
    assert abs(a_entry.imag) < 1e-15 and abs(a_entry.real) > 1e-3
