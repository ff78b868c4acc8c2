import io

import numpy as np
import pytest

import photonfield as pf
from photonfield.fields import FieldKind, SpacetimePoint
from photonfield.fock import BasisMismatchError

import oracles

ORIGIN = SpacetimePoint(r=np.zeros(3), t=0.0)
ALPHA = 0.5
MODE_PLUS_Z = (1, (0, 0, 1))


@pytest.fixture(scope="module")
def coherent_basis():
    """Single mode with a cap deep enough for the alpha = 0.5 profile."""
    cfg = pf.LatticeConfig(length=2 * np.pi, n_max=8, modes=(MODE_PLUS_Z,))
    return pf.build_basis(cfg)


@pytest.fixture(scope="module")
def coherent_state(coherent_basis):
    profile = pf.coherent_profile(ALPHA, MODE_PLUS_Z, cap=8)
    return pf.superposition(coherent_basis, profile)


def matrix_field_expectation(state, kind, x):
    ops = pf.field(state.basis, kind, x)
    return np.array([np.real(pf.expectation(op, state)) for op in ops])


# ---------------------------------------------------------------------------
# states


def test_vacuum_mean_fields_vanish_exactly(standard_basis):
    vac = pf.vacuum(standard_basis)
    for kind in (FieldKind.E, FieldKind.B):
        ops = pf.field(standard_basis, kind, SpacetimePoint(r=np.array([0.4, 0.2, -1.0]), t=0.6))
        for op in ops:
            assert pf.expectation(op, vac) == 0.0


def test_number_state_mean_field_vanishes(standard_basis):
    state = pf.number_state(standard_basis, (2, 0, 1, 0))
    assert np.max(np.abs(matrix_field_expectation(state, FieldKind.E, ORIGIN))) == 0.0
    total = pf.total_number(standard_basis)
    assert abs(pf.expectation(total, state) - 3.0) < 1e-14


def test_number_state_occupancy_cap(standard_basis):
    with pytest.raises(ValueError):
        pf.number_state(standard_basis, (4, 0, 0, 0))


def test_coherent_profile_zero_alpha(single_mode_basis):
    profile = pf.coherent_profile(0.0, MODE_PLUS_Z, cap=3)
    assert profile.norm_deficit == 0.0
    state = pf.superposition(single_mode_basis, profile)
    vac = pf.vacuum(single_mode_basis)
    assert np.array_equal(state.coefficients, vac.coefficients)


def test_coherent_profile_tail(coherent_basis):
    profile = pf.coherent_profile(ALPHA, MODE_PLUS_Z, cap=8)
    assert profile.norm_deficit < 1e-10
    assert abs(profile.norm_deficit - oracles.poisson_tail(ALPHA, 8)) < 1e-15
    # C_n = exp(-|a|^2/2) a^n / sqrt(n!)
    assert abs(profile.amplitudes[2] - np.exp(-0.125) * 0.25 / np.sqrt(2.0)) < 1e-15


def test_coherent_profile_above_170_quanta():
    # sqrt(n!) overflows for n >= 171; the recursion C_n = C_(n-1) alpha / sqrt(n) does not.
    profile = pf.coherent_profile(10.0, MODE_PLUS_Z, cap=200)
    assert len(profile.amplitudes) == 201 and profile.norm_deficit < 1e-12
    for n, amp in enumerate(profile.amplitudes):
        want = oracles.coherent_amplitude_oracle(10.0, n)
        assert amp.imag == 0.0 and abs(amp.real - want) <= 1e-12 * want
    basis = pf.build_basis(pf.LatticeConfig(length=2 * np.pi, n_max=200, modes=(MODE_PLUS_Z,)))
    assert abs(pf.amplitude_profile(pf.superposition(basis, profile))[0] - 10.0) < 1e-12


def test_superposition_half_half_amplitude(single_mode_basis):
    state = pf.superposition(
        single_mode_basis, {(0,): 1 / np.sqrt(2), (1,): 1 / np.sqrt(2)}
    )
    amps = pf.amplitude_profile(state)
    assert abs(amps[0] - 0.5) < 1e-14
    a = pf.annihilation(single_mode_basis, single_mode_basis.modes[0])
    assert abs(pf.expectation(a, state) - 0.5) < 1e-14


def test_norm_deficit_bookkeeping(single_mode_basis):
    state = pf.superposition(single_mode_basis, {(0,): 0.6, (1,): 0.6})
    assert abs(state.norm_deficit - (1.0 - 0.72)) < 1e-14
    assert abs(np.linalg.norm(state.coefficients) - 1.0) < 1e-14


def test_amplitude_profile_matches_matrix_path(standard_basis, three_mode_basis):
    rng = np.random.default_rng(21)
    for basis in (standard_basis, three_mode_basis):
        coeff = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        state = pf.FockState(basis=basis, coefficients=coeff)
        amps = pf.amplitude_profile(state)
        for j, mode in enumerate(basis.modes):
            a = pf.annihilation(basis, mode)
            assert abs(amps[j] - pf.expectation(a, state)) < 1e-12


# ---------------------------------------------------------------------------
# expectation values


def test_hermitian_expectation_is_real(standard_basis):
    rng = np.random.default_rng(2)
    coeff = rng.standard_normal(standard_basis.dim) + 1j * rng.standard_normal(standard_basis.dim)
    state = pf.FockState(basis=standard_basis, coefficients=coeff)
    op = pf.field(standard_basis, FieldKind.E, ORIGIN)[0]
    value = pf.expectation(op, state)
    assert abs(value.imag) < 1e-12


def test_basis_mismatch_rejected(standard_basis, single_mode_basis):
    op = pf.total_number(standard_basis)
    state = pf.vacuum(single_mode_basis)
    with pytest.raises(BasisMismatchError):
        pf.expectation(op, state)


def test_vacuum_field_square_reference(helicity_pair_basis):
    vac = pf.vacuum(helicity_pair_basis)
    e_ops = pf.field(helicity_pair_basis, FieldKind.E, ORIGIN)
    matrix = sum(np.real(pf.expectation(op @ op, vac)) for op in e_ops)
    closed = pf.vacuum_field_square(helicity_pair_basis)
    assert closed == float(np.sum(helicity_pair_basis.vacuum_e2))
    assert abs(matrix - closed) < 1e-12 * closed
    assert abs(closed - 1.0 / (2.0 * np.pi**2)) < 1e-15


def test_number_state_energy(single_mode_basis):
    # counting form gives n * hbar * omega; the field-built (unordered)
    # form adds the zero-point constant, away from the occupancy cap
    h = pf.observable_H(single_mode_basis)
    h_quad = pf.quadratic_H_from_fields(single_mode_basis)
    e0 = pf.zero_point(single_mode_basis).E0
    for n in range(4):
        state = pf.number_state(single_mode_basis, (n,))
        assert abs(pf.expectation(h, state) - n) < 1e-14
        if n < single_mode_basis.n_max:
            assert abs(pf.expectation(h_quad, state) - (n + e0)) < 1e-12


def test_empty_superposition_rejected(single_mode_basis):
    with pytest.raises(ValueError):
        pf.superposition(single_mode_basis, {})


@pytest.mark.parametrize("value", [1e308, np.inf, np.nan])
def test_state_with_nonfinite_norm_rejected(single_mode_basis, value):
    # 1e308 is finite, but its square overflows, so the norm is inf.
    c = np.zeros(single_mode_basis.dim, dtype=complex)
    c[:2] = value
    with pytest.raises(ValueError, match="finite nonzero norm"):
        pf.FockState(basis=single_mode_basis, coefficients=c)
    with pytest.raises(ValueError, match="finite nonzero norm"):
        pf.superposition(single_mode_basis, {(0,): value, (1,): value})


# ---------------------------------------------------------------------------
# closed-form field expectations


def test_coherent_mean_field_reference_value(coherent_state):
    # alpha = 0.5 in the +z mode: <E(0,0)> = (0, -alpha/(sqrt(2) pi), 0).
    expected = np.array([0.0, -ALPHA / (np.sqrt(2.0) * np.pi), 0.0])
    closed = pf.field_expectation_closed_form(coherent_state, FieldKind.E, ORIGIN)
    matrix = matrix_field_expectation(coherent_state, FieldKind.E, ORIGIN)
    assert np.max(np.abs(matrix - expected)) < 1e-8
    assert np.max(np.abs(closed - expected)) < 1e-8
    assert np.max(np.abs(closed - matrix)) < 1e-12


def test_coherent_trace_is_circular(coherent_state):
    omega = coherent_state.basis.omega[0]
    period = 2.0 * np.pi / omega
    radii = []
    for t in np.linspace(0.0, period, 16, endpoint=False):
        f = pf.field_expectation_closed_form(
            coherent_state, FieldKind.E, SpacetimePoint(r=np.zeros(3), t=float(t))
        )
        assert abs(f[2]) < 1e-15
        radii.append(np.hypot(f[0], f[1]))
    assert np.max(radii) - np.min(radii) < 1e-10


def test_exact_number_state_closed_form_zero(coherent_basis):
    state = pf.number_state(coherent_basis, (3,))
    for t in (0.0, 0.4, 1.1):
        f = pf.field_expectation_closed_form(
            state, FieldKind.E, SpacetimePoint(r=np.array([0.3, 0.0, 1.0]), t=t)
        )
        assert np.max(np.abs(f)) == 0.0


def test_two_path_agreement_random_states(standard_basis):
    rng = np.random.default_rng(17)
    for _ in range(50):
        coeff = rng.standard_normal(standard_basis.dim) + 1j * rng.standard_normal(standard_basis.dim)
        state = pf.FockState(basis=standard_basis, coefficients=coeff)
        for _ in range(10):
            x = SpacetimePoint(r=rng.uniform(-2, 2, 3), t=float(rng.uniform(-1, 1)))
            for kind in FieldKind:
                closed = pf.field_expectation_closed_form(state, kind, x)
                matrix = matrix_field_expectation(state, kind, x)
                assert np.max(np.abs(closed - matrix)) < 1e-10


def test_coherent_phase_shifts_the_trace_in_time(coherent_basis):
    delta = 0.9
    omega = coherent_basis.omega[0]
    shifted = pf.superposition(
        coherent_basis, pf.coherent_profile(ALPHA * np.exp(1j * delta), MODE_PLUS_Z, cap=8)
    )
    plain = pf.superposition(coherent_basis, pf.coherent_profile(ALPHA, MODE_PLUS_Z, cap=8))
    for t in np.linspace(0.0, 2.0 * np.pi, 7):
        f_shifted = pf.field_expectation_closed_form(
            shifted, FieldKind.E, SpacetimePoint(r=np.zeros(3), t=float(t))
        )
        f_plain = pf.field_expectation_closed_form(
            plain, FieldKind.E, SpacetimePoint(r=np.zeros(3), t=float(t - delta / omega))
        )
        assert np.max(np.abs(f_shifted - f_plain)) < 1e-9


def test_variance_nonnegativity(standard_basis):
    rng = np.random.default_rng(8)
    e_ops = pf.field(standard_basis, FieldKind.E, ORIGIN)
    for _ in range(20):
        coeff = rng.standard_normal(standard_basis.dim) + 1j * rng.standard_normal(standard_basis.dim)
        state = pf.FockState(basis=standard_basis, coefficients=coeff)
        for op in e_ops:
            mean_sq = np.real(pf.expectation(op @ op, state))
            mean = np.real(pf.expectation(op, state))
            assert mean_sq >= mean**2 - 1e-12


# ---------------------------------------------------------------------------
# grids and scans


def test_expectation_grid_vacuum_rows(standard_basis):
    vac = pf.vacuum(standard_basis)
    points = [SpacetimePoint(r=np.array([0.1 * i, 0.0, 0.0]), t=0.2 * i) for i in range(5)]
    rows = pf.expectation_grid(vac, FieldKind.E, points)
    assert len(rows) == 5
    for row in rows:
        assert row[4] == row[5] == row[6] == 0.0


def test_expectation_grid_empty(standard_basis):
    vac = pf.vacuum(standard_basis)
    out = io.StringIO()
    pf.write_grid_csv(pf.expectation_grid(vac, FieldKind.E, []), out)
    assert out.getvalue() == "t,x,y,z,Fx,Fy,Fz\n"


def test_grid_csv_round_trip_formatting(coherent_state):
    rows = pf.expectation_grid(
        coherent_state, FieldKind.E, [SpacetimePoint(r=np.zeros(3), t=0.123456789)]
    )
    out = io.StringIO()
    pf.write_grid_csv(rows, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "t,x,y,z,Fx,Fy,Fz"
    parsed = [float(v) for v in lines[1].split(",")]
    assert parsed == [float(v) for v in rows[0]]


def test_vacuum_scan_matches_direct_sum_and_grows():
    rows = pf.vacuum_field_square_scan(length=2 * np.pi, hbar=1.0, c=1.0, cutoffs=(1, 2, 3, 4))
    values = [v for _, v in rows]
    assert all(b > a for a, b in zip(values, values[1:]))
    # cutoff 1: six unit momenta, both helicities, omega = 1
    assert abs(values[0] - 6.0 / (2.0 * np.pi**2)) < 1e-15


def test_vacuum_scan_consistent_with_basis_sum():
    modes = []
    for n in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
        modes.append((1, n))
        modes.append((-1, n))
    basis = pf.build_basis(pf.LatticeConfig(length=2 * np.pi, n_max=1, modes=tuple(modes)))
    scan = pf.vacuum_field_square_scan(length=2 * np.pi, hbar=1.0, c=1.0, cutoffs=(1,))
    assert abs(pf.vacuum_field_square(basis) - scan[0][1]) < 1e-15


def test_scan_term_divides_before_it_multiplies():
    # At c = 1e308 the cutoff-1 terms 2 Delta3p omega / (2 pi)^2 are 5.1e306, but
    # 2 Delta3p omega alone overflows.
    ((_, value),) = pf.vacuum_field_square_scan(2 * np.pi, 1.0, 1e308, (1,))
    assert value == oracles.vacuum_scan_oracle(2 * np.pi, 1.0, 1e308, 1)
    assert value == 6 * 2.0 * (1e308 / (2.0 * np.pi) ** 2)


def test_scan_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        pf.vacuum_field_square_scan(length=1.0, hbar=1.0, c=1.0, cutoffs=(0,))


# On the non-unit lattices the cutoffs include those where omega = c (2 pi / L) |n|
# rounds differently from c |p| / hbar: 20 and 21, and 1, 2, 6, 10, 11 and 12.
SCAN_CUTOFFS = {
    (2 * np.pi, 1.0, 1.0): (1, 2, 3, 5, 8),
    (1.7, 0.3, 2.5): (1, 2, 3, 5, 8, 20, 21),
    (5.0, 0.7, 1.3): (1, 2, 3, 5, 6, 8, 10, 11, 12),
}


@pytest.mark.parametrize("length,hbar,c", list(SCAN_CUTOFFS))
def test_vacuum_scan_matches_running_total_oracle(length, hbar, c):
    cutoffs = SCAN_CUTOFFS[length, hbar, c]
    rows = pf.vacuum_field_square_scan(length=length, hbar=hbar, c=c, cutoffs=cutoffs)
    assert [cutoff for cutoff, _ in rows] == list(cutoffs)
    for cutoff, value in rows:
        assert value == oracles.vacuum_scan_oracle(length, hbar, c, cutoff)


def test_expectation_grid_rows_equal_pointwise_closed_form(coherent_state, monkeypatch):
    from photonfield import ensembles

    points = [SpacetimePoint(r=np.array([0.3, -0.2, 0.1]), t=t) for t in np.linspace(0.0, 1.0, 5)]
    expected = [ensembles.field_expectation_closed_form(coherent_state, FieldKind.B, pt) for pt in points]
    calls = []
    profile = ensembles.amplitude_profile
    monkeypatch.setattr(ensembles, "amplitude_profile", lambda state: calls.append(state) or profile(state))
    rows = ensembles.expectation_grid(coherent_state, FieldKind.B, points)
    assert len(calls) == 1
    for pt, row, f in zip(points, rows, expected):
        assert row == (pt.t, *pt.r, *f)


def _grid_text(rows, writer):
    out = io.StringIO()
    writer(rows, out)
    return out.getvalue()


def test_grid_csv_matches_per_value_oracle():
    rng = np.random.default_rng(11)
    table = rng.choice(np.array([0.0, -0.0, 0.25, -1.5, 1.0 / 3.0]), size=(50, 7))
    table[::7] = rng.standard_normal((8, 7))
    rows = [tuple(row) for row in table]
    expected = _grid_text(rows, oracles.grid_csv_oracle)
    assert ",-0.0," in expected
    assert _grid_text(rows, pf.write_grid_csv) == expected
    assert _grid_text(table, pf.write_grid_csv) == expected


def test_grid_csv_empty_matches_oracle(standard_basis):
    rows = pf.expectation_grid(pf.vacuum(standard_basis), FieldKind.E, [])
    assert rows == []
    for empty in (rows, np.empty((0, 7))):
        assert _grid_text(empty, pf.write_grid_csv) == _grid_text([], oracles.grid_csv_oracle)


def test_mean_field_table_rows_equal_pointwise_closed_form(coherent_state):
    from photonfield import ensembles

    rng = np.random.default_rng(12)
    r, t = rng.uniform(-3.0, 3.0, size=(40, 3)), rng.uniform(-5.0, 5.0, size=40)
    for kind in FieldKind:
        table = ensembles.mean_field_table(coherent_state, kind, r, t)
        assert table.shape == (40, 7)
        for row, ri, ti in zip(table, r, t):
            pt = SpacetimePoint(r=ri, t=float(ti))
            f = ensembles.field_expectation_closed_form(coherent_state, kind, pt)
            assert tuple(row) == (pt.t, *pt.r, *f)


@pytest.mark.parametrize("basis_name", ["standard_basis", "offaxis_basis", "three_mode_basis"])
def test_ladder_mean_field_matches_per_point_field_oracle(request, basis_name):
    from photonfield import ensembles, fields

    basis = request.getfixturevalue(basis_name)
    rng = np.random.default_rng(31)
    z = rng.standard_normal((2, basis.dim))
    coherent = pf.superposition(basis, pf.coherent_profile(complex(0.4, -0.7), basis.modes[0], basis.n_max))
    random_state = pf.FockState(basis=basis, coefficients=z[0] + 1j * z[1])
    length = basis.config.length
    r, t = rng.uniform(-length / 2, length / 2, size=(12, 3)), rng.uniform(-1.0, 1.0, size=12)
    ladders = [(pf.annihilation(basis, m), pf.creation(basis, m)) for m in basis.modes]
    for state in (coherent, random_state):
        means = ensembles.ladder_expectations(state, ladders)
        for kind in FieldKind:
            matrix = ensembles.ladder_mean_field(fields.mode_coefficients(basis, kind, r, t), means)
            assert np.max(np.abs(matrix - oracles.expectations_oracle(state, kind, r, t))) <= 1e-15
