import io
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import photonfield as pf
from photonfield import cli, ensembles, fields, fock
from photonfield.fields import FieldKind, SpacetimePoint
from photonfield.fock import BasisMismatchError, LatticeSizeError, float_reprs

import oracles
from conftest import DUMP_OPERATORS


def small_config(**kwargs):
    defaults = dict(length=2 * np.pi, n_max=3, modes=((1, (0, 0, 1)),))
    defaults.update(kwargs)
    return pf.LatticeConfig(**defaults)


def test_single_mode_dimension():
    basis = pf.build_basis(small_config())
    assert basis.dim == 4
    assert basis.occupancy_table().tolist() == [[0], [1], [2], [3]]


def test_two_mode_ordering():
    basis = pf.build_basis(small_config(n_max=1, modes=((1, (0, 0, 1)), (-1, (0, 0, 1)))))
    assert basis.dim == 4
    assert basis.occupancy_table().tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert [basis.index(o) for o in [(0, 0), (0, 1), (1, 0), (1, 1)]] == [0, 1, 2, 3]


@pytest.mark.parametrize("occupancies", [(1.7, 0, 0, 0), (True, 0, 0, 0), (np.float64(1.0), 0, 0, 0)])
def test_index_refuses_non_integer_occupancies(standard_basis, occupancies):
    with pytest.raises(ValueError, match="must be integers"):
        standard_basis.index(occupancies)
    assert standard_basis.index(np.array([1, 0, 0, 0])) == standard_basis.index((1, 0, 0, 0))


def test_states_refuse_non_integer_occupancies(standard_basis):
    # Truncated, (1.5, 0, 0, 0) would alias (1, 0, 0, 0) and silently keep
    # one term, coefficient 1.0 with norm_deficit 0.36.
    with pytest.raises(ValueError, match="must be integers"):
        pf.superposition(standard_basis, {(1, 0, 0, 0): 0.6, (1.5, 0, 0, 0): 0.8})
    with pytest.raises(ValueError, match="must be integers"):
        pf.number_state(standard_basis, (2.9, 0, 0, 0))


def test_four_mode_dimension(standard_basis):
    assert standard_basis.dim == 256


def test_mode_kinematics():
    basis = pf.build_basis(small_config(length=np.pi, modes=((1, (0, 3, 4)),), hbar=2.0, c=3.0))
    assert np.allclose(basis.p[0], (2 * np.pi * 2.0 / np.pi) * np.array([0, 3, 4]), atol=0)
    assert abs(basis.omega[0] - 3.0 * np.linalg.norm(basis.p[0]) / 2.0) < 1e-12
    assert abs(np.dot(basis.eps[0], basis.k[0])) < 1e-12


MODE_TABLE = ("p", "omega", "k", "eps", "k_cross_eps", "spin", "vacuum_e2")
SCENARIOS = Path(__file__).resolve().parent.parent / "benchmarks" / "scenarios"


def assert_mode_table_matches_oracle(basis):
    expected = oracles.mode_table_oracle(basis.config)
    for name in MODE_TABLE:
        got = getattr(basis, name)
        assert got.dtype == expected[name].dtype and got.shape == expected[name].shape, name
        assert got.tobytes() == expected[name].tobytes(), name
        assert not got.flags.writeable, name


def test_mode_table_is_bit_identical_to_per_mode_oracle(standard_basis, offaxis_basis, three_mode_basis):
    benchmark_lattices = [
        cli.load_scenario(path).lattice
        for path in (None, str(SCENARIOS / "verify-12m.json"), str(SCENARIOS / "emit-8m.json"))
    ]
    gauged = pf.LatticeConfig(
        length=3.0, n_max=1, modes=((1, (1, 2, 2)), (-1, (0, -1, 3))), gauge_reference=(1.0, 2.0, 0.5)
    )
    built = [pf.build_basis(config) for config in (*benchmark_lattices, gauged)]
    for basis in (standard_basis, offaxis_basis, three_mode_basis, *built):
        assert_mode_table_matches_oracle(basis)


@settings(max_examples=100, deadline=None)
@given(
    length=st.floats(0.01, 1e3),
    hbar=st.floats(1e-3, 1e3),
    c=st.floats(1e-3, 1e3),
    modes=st.lists(
        st.tuples(st.sampled_from([1, -1]), st.tuples(*[st.integers(-4, 4)] * 3)).filter(lambda m: any(m[1])),
        min_size=1,
        max_size=4,
        unique=True,
    ),
)
def test_mode_table_is_bit_identical_on_random_lattices(length, hbar, c, modes):
    basis = pf.build_basis(pf.LatticeConfig(length=length, n_max=1, modes=tuple(modes), hbar=hbar, c=c))
    assert basis.modes == tuple(modes)
    assert_mode_table_matches_oracle(basis)


@pytest.mark.parametrize(
    "bad", [1.7, 1.0, np.float64(1.0), True, np.bool_(True)],
    ids=["float", "integral_float", "numpy_float", "bool", "numpy_bool"],
)
def test_mode_keys_refuse_floats_and_bools(standard_basis, bad):
    for key in ((1, (0, 0, bad)), (bad, (0, 0, 1))):
        with pytest.raises(ValueError, match="integers"):
            small_config(modes=(key,))
        with pytest.raises(ValueError, match="integers"):
            standard_basis.mode_index(key)
        with pytest.raises(ValueError, match="integers"):
            pf.coherent_profile(0.5, key, cap=2)


def test_mode_keys_accept_numpy_integers(standard_basis):
    key = (np.int64(-1), np.array([0, 0, -1]))
    assert standard_basis.mode_index(key) == 3
    assert pf.coherent_profile(0.5, key, cap=2).mode == (-1, (0, 0, -1))
    config = small_config(modes=(key,))
    assert config.modes == ((-1, (0, 0, -1)),)
    assert all(type(v) is int for v in (config.modes[0][0], *config.modes[0][1]))


@pytest.mark.parametrize("component", [10**20, -(2**64), 2**53 + 1, -(2**53) - 1])
def test_lattice_config_refuses_momentum_components_beyond_2_to_53(component):
    # Beyond 2**53 a component is not exact as a float, and beyond 2**63 the
    # momenta make an object array that numpy's ufuncs refuse.
    with pytest.raises(ValueError, match=re.escape("-2**53..2**53")):
        small_config(modes=((1, (component, 0, -1)),))


def test_lattice_config_accepts_momentum_components_at_2_to_53():
    for component in (2**53, -(2**53), np.int64(2**53)):
        config = small_config(modes=((1, (component, 0, -1)),), n_max=1)
        assert config.modes[0][1][0] == int(component)
        assert pf.build_basis(config).n.dtype == np.int64


def test_creation_ladder_factor():
    basis = pf.build_basis(small_config())
    adag = pf.creation(basis, basis.modes[0])
    state = np.zeros(4, dtype=complex)
    state[2] = 1.0
    raised = adag.matrix @ state
    assert abs(raised[3] - np.sqrt(3.0)) < 1e-15
    assert np.sum(np.abs(raised) > 0) == 1


def test_annihilation_kills_vacuum():
    basis = pf.build_basis(small_config())
    a = pf.annihilation(basis, basis.modes[0])
    vacuum = np.zeros(4, dtype=complex)
    vacuum[0] = 1.0
    assert np.max(np.abs(a.matrix @ vacuum)) == 0.0


def test_creation_annihilates_top_state():
    basis = pf.build_basis(small_config())
    adag = pf.creation(basis, basis.modes[0])
    top = np.zeros(4, dtype=complex)
    top[3] = 1.0
    assert np.max(np.abs(adag.matrix @ top)) == 0.0


def test_ladder_operators_match_kron_oracle(three_mode_basis):
    for j, mode in enumerate(three_mode_basis.modes):
        ref = oracles.kron_lowering(three_mode_basis, j)
        a = pf.annihilation(three_mode_basis, mode).matrix
        adag = pf.creation(three_mode_basis, mode).matrix
        assert abs(a - ref).max() == 0.0
        assert abs(adag - ref.conj().T).max() == 0.0
        assert a.nnz == ref.nnz == adag.nnz


LADDER_CONFIGS = [
    small_config(n_max=1, modes=((1, (0, 0, 1)), (-1, (1, 0, 0)), (1, (0, -1, 1)))),
    small_config(n_max=2, modes=((1, (0, 0, 1)), (-1, (1, 0, 0)), (1, (0, -1, 1)))),
    small_config(n_max=3, modes=((1, (0, 0, 1)), (-1, (0, 0, 1)), (1, (0, 0, -1)))),
]


def every_ladder_row(basis):
    """fock._ladder_rows of every ladder operator on every basis state, in order."""
    ladder = np.arange(2 * basis.n_modes)
    states = np.arange(basis.dim, dtype=np.int32)
    return fock._ladder_rows(basis, ladder, states, basis._digits(ladder % basis.n_modes))


@pytest.mark.parametrize("config", LADDER_CONFIGS, ids=["n_max1", "n_max2", "n_max3"])
def test_ladder_table_matches_kron_oracle(config):
    basis = pf.build_basis(config)
    n = basis.n_modes
    target, amplitude = every_ladder_row(basis)
    assert target.shape == amplitude.shape == (2 * n, basis.dim)
    assert target.dtype == np.int32 and amplitude.dtype == np.float64
    lowering = [oracles.kron_lowering(basis, j) for j in range(n)]
    for k, ref in enumerate(lowering + [op.conj().T for op in lowering]):
        ref = ref.tocsc()
        for s in range(basis.dim):
            rows = ref.indices[ref.indptr[s] : ref.indptr[s + 1]]
            values = ref.data[ref.indptr[s] : ref.indptr[s + 1]]
            if len(rows) == 0:
                assert (amplitude[k, s], target[k, s]) == (0.0, s), (k, s)
            else:
                assert len(rows) == 1 and values[0].imag == 0.0
                assert (amplitude[k, s], target[k, s]) == (values[0].real, rows[0]), (k, s)


@pytest.mark.parametrize("lattice", ["standard", "three_mode", "emit-8m", "verify-12m"])
def test_derived_ladder_rows_occupancies_and_profile_equal_the_stored_table(request, lattice):
    """The basis stores no table: what it derives equals the table oracle bit for bit."""
    if lattice in ("standard", "three_mode"):
        basis = request.getfixturevalue(f"{lattice}_basis")
    else:
        basis = pf.build_basis(cli.load_scenario(str(SCENARIOS / f"{lattice}.json")).lattice)
    target, amplitude, occupancies = oracles.ladder_table(basis)
    n = basis.n_modes
    got_target, got_amplitude = every_ladder_row(basis)
    assert got_target.dtype == target.dtype and got_target.tobytes() == target.tobytes()
    assert got_amplitude.dtype == amplitude.dtype and got_amplitude.tobytes() == amplitude.tobytes()
    # Rows in any order and on any states: those of the table, read at those states.
    rng = np.random.default_rng(11)
    ladder = rng.integers(0, 2 * n, 5)
    states = rng.integers(0, basis.dim, (5, 7)).astype(np.int32)
    got_target, got_amplitude = fock._ladder_rows(basis, ladder, states, occupancies[states, ladder[:, None] % n])
    assert np.array_equal(got_target, np.take_along_axis(target[ladder], states, axis=1))
    assert got_amplitude.tobytes() == np.take_along_axis(amplitude[ladder], states, axis=1).tobytes()
    # int64, not a narrower type: d_j - d_i of a row sum must not wrap (diagonal_commutator).
    table = basis.occupancy_table()
    assert table.dtype == np.int64 and table.flags.c_contiguous and np.array_equal(table, occupancies)
    assert np.array_equal(basis._digits(), occupancies.T)
    assert np.array_equal(basis._digits([n - 1, 0]), occupancies.T[[n - 1, 0]])
    assert np.array_equal(basis.occupancy_table(float), occupancies) and basis.occupancy_table(float).flags.c_contiguous
    for seed in range(3):
        rng = np.random.default_rng(seed)
        state = ensembles.FockState(basis, rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim))
        got = ensembles.amplitude_profile(state)
        assert got.dtype == complex and got.tobytes() == oracles.table_amplitude_profile(state).tobytes()


def _coo_ladder_sum(basis, weights):
    """sum_k weights[k] L_k through a coordinate list summed into CSR, with L_k from the kron oracle."""
    lowering = [oracles.kron_lowering(basis, j).tocoo() for j in range(basis.n_modes)]
    moves = [(m.row, m.col, m.data.real) for m in lowering] + [(m.col, m.row, m.data.real) for m in lowering]
    k = np.flatnonzero(weights)
    rows, cols = (np.concatenate([moves[i][axis] for i in k] + [np.zeros(0, int)]) for axis in (0, 1))
    data = np.concatenate([weights[i] * moves[i][2] for i in k] + [np.zeros(0)])
    keep = data != 0
    matrix = sp.csr_matrix((data[keep] + 0.0, (rows[keep], cols[keep])), shape=(basis.dim, basis.dim))
    matrix.eliminate_zeros()
    return oracles.from_scipy(matrix, basis).matrix


def _ladder_weights(n):
    rng = np.random.default_rng(5)
    complex_weights = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    complex_weights[[1, n]] = 0.0
    # Products of these with a positive amplitude have -0.0 real or imaginary parts.
    signed_zeros = np.array([complex(-0.0, 1.0), complex(-1.5, -0.0), -0.0, 0j] + [complex(-0.0, -2.0)] * (2 * n - 4))
    return {
        **{f"unit{k}": np.eye(2 * n)[k] for k in range(2 * n)},
        "ones": np.ones(2 * n),
        "complex_with_zeros": complex_weights,
        "signed_zeros": signed_zeros,
        "all_zero": np.zeros(2 * n, dtype=complex),
    }


@pytest.mark.parametrize("config", LADDER_CONFIGS, ids=["n_max1", "n_max2", "n_max3"])
def test_ladder_sum_writes_the_csr_of_the_coordinate_recipe(config):
    basis = pf.build_basis(config)
    for name, weights in _ladder_weights(basis.n_modes).items():
        got = fock.ladder_sum(basis, weights).matrix
        want = _coo_ladder_sum(basis, weights)
        for field in ("indptr", "indices", "data"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, field)
        assert got.has_canonical_format and want.has_canonical_format, name
    # The signed-zero case is not vacuous: before 0.0 is added, its products carry -0.0 parts.
    _, amplitude, _ = oracles.ladder_table(basis)
    raw = _ladder_weights(basis.n_modes)["signed_zeros"][:, None] * amplitude
    parts = np.concatenate([raw.real[amplitude > 0], raw.imag[amplitude > 0]])
    assert np.any((parts == 0) & np.signbit(parts))


def _masked_ladder_sum(basis, weights):
    """(data, indices, indptr, amplitude per entry) of sum_k weights[k] L_k by the masked recipe.

    Whole table rows of the nonzero weights are multiplied out, and every
    product that is not 0 is stored: this is how ladder_sum wrote its
    arrays before it read a cached pattern.
    """
    n = basis.n_modes
    target, amplitude, _ = oracles.ladder_table(basis)
    order = np.r_[n : 2 * n, n - 1 : -1 : -1]
    order = order[weights[order] != 0]
    rows = (order + n) % (2 * n)
    values = (weights[order, None] * amplitude[rows] + 0.0).T
    stored = values != 0
    indptr = np.zeros(basis.dim + 1, dtype=np.int32)
    np.cumsum(stored.sum(axis=1), out=indptr[1:])
    return values[stored], target[rows].T[stored], indptr, amplitude[rows].T[stored]


def _special_weights(n, seed):
    """Seeded complex weights with random zeros, NaN and +-inf parts."""
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    weights[rng.random(2 * n) < 0.3] = 0.0
    finite = weights.copy()
    k = rng.permutation(2 * n)[:3]
    weights[k[0]] = complex(np.nan, 1.0)
    weights[k[1]] = complex(-np.inf, 0.5)
    weights[k[2]] = complex(0.0, np.inf)
    return finite, weights


@pytest.mark.parametrize("fixture", ["standard_basis", "three_mode_basis"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_ladder_sum_stores_what_the_masked_recipe_stores(request, fixture, seed):
    basis = request.getfixturevalue(fixture)
    for weights in _special_weights(basis.n_modes, seed):
        with np.errstate(invalid="ignore"):
            got = fock.ladder_sum(basis, weights)
            data, indices, indptr, amplitude = _masked_ladder_sum(basis, weights)
        # A non-finite weight times the zero amplitude of an annihilated state is NaN, which the
        # masked recipe stored on the diagonal; ladder_sum stores no entry there.
        dropped = amplitude == 0
        assert np.isnan(data[dropped]).all() and (indices[dropped] == fock._row_indices(indptr)[dropped]).all()
        assert dropped.any() == (not np.isfinite(weights).all())
        want = (data[~dropped], indices[~dropped], np.concatenate([[0], np.cumsum(~dropped)])[indptr].astype(np.int32))
        for name, a, b in zip(("data", "indices", "indptr"), (got.data, got.indices, got.indptr), want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_ladder_sum_reuses_one_read_only_pattern_per_live_set(standard_basis):
    basis = pf.build_basis(standard_basis.config)
    rng = np.random.default_rng(4)
    weights = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    weights[[2, 5]] = 0.0
    first, again = fock.ladder_sum(basis, weights), fock.ladder_sum(basis, 3.0 * weights)
    other = fock.ladder_sum(basis, np.where(weights == 0, 1.0, 0.0))
    assert len(basis._linear_patterns) == 2
    assert again.indices is first.indices and again.indptr is first.indptr
    assert other.indices is not first.indices
    for pattern in basis._linear_patterns.values():
        assert not any(arr.flags.writeable for arr in pattern)
    assert not pf.build_basis(standard_basis.config)._linear_patterns


def test_built_in_verify_caches_at_most_ten_patterns(tmp_path, monkeypatch):
    bases, build_basis = [], fock.build_basis
    monkeypatch.setattr(fock, "build_basis", lambda config: bases.append(build_basis(config)) or bases[-1])
    assert cli.main(["verify", "--out", str(tmp_path)]) == 0
    assert len(bases) == 1 and 0 < len(bases[0]._linear_patterns) <= 10


@pytest.mark.parametrize("fixture", ["standard_basis", "three_mode_basis"])
def test_diagonal_commutator_with_n_is_the_field_number_closed_form(request, fixture):
    basis = request.getfixturevalue(fixture)
    rng = np.random.default_rng(6)
    x = SpacetimePoint(r=rng.uniform(-2.0, 2.0, 3), t=float(rng.uniform(-1.0, 1.0)))
    n = basis.occupancy_table().sum(axis=1)
    for kind in FieldKind:
        for op, closed in zip(pf.field(basis, kind, x), pf.field_number_commutator(basis, kind, x)):
            got = fock.diagonal_commutator(op, n)
            assert np.array_equal(got.indices, closed.indices) and np.array_equal(got.indptr, closed.indptr)
            # == and not the bytes: -(+0.0) is -0.0, where the closed form stores +0.0.
            assert got.data.dtype == complex and (got.data == closed.data).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_diagonal_commutator_is_op_d_minus_d_op_on_the_same_pattern(standard_basis, seed):
    basis, rng = standard_basis, np.random.default_rng(seed)
    dim = basis.dim
    stored = rng.random((dim, dim)) < 0.05
    dense = np.where(stored, rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)), 0)
    op = oracles.from_scipy(dense, basis)
    d = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
    got = fock.diagonal_commutator(op, d)
    assert got.indices is op.indices and got.indptr is op.indptr and got.basis is basis
    diag = sp.diags(d.astype(complex), format="csr")
    want = (op.matrix @ diag - diag @ op.matrix).toarray()
    assert np.abs(got.matrix.toarray() - want).max() <= 4 * np.finfo(float).eps * op.max_abs() * np.abs(d).max()

    # A NaN entry stays NaN, also where d_i = d_j.
    data = op.data.copy()
    data[[0, -1]] = np.nan
    row = fock._row_indices(op.indptr)[-1]
    d[op.indices[-1]] = d[row]
    bad = fock.diagonal_commutator(pf.SparseOperator((data, op.indices, op.indptr), basis), d)
    assert np.isnan(bad.data[[0, -1]]).all() and not np.isnan(bad.data[1:-1]).any()
    for shape in [(dim + 1,), (dim, 1), ()]:
        with pytest.raises(ValueError, match="diagonal values"):
            fock.diagonal_commutator(op, np.ones(shape))


def _live_ladder_products(basis, weights):
    """sum_kl weights[k, l] L_k L_l from the coordinate list of the states L_l does not annihilate."""
    k, l = np.nonzero(weights)
    target, amplitude, _ = oracles.ladder_table(basis)
    src = np.nonzero(amplitude > 0)[1].reshape(2 * basis.n_modes, -1)[l]
    mid = target[l[:, None], src]
    data = weights[k, l][:, None] * (amplitude[k[:, None], mid] * amplitude[l[:, None], src])
    rows, cols, data = target[k[:, None], mid].ravel(), src.ravel(), data.ravel()
    keep = data != 0
    matrix = sp.csr_matrix((data[keep] + 0.0, (rows[keep], cols[keep])), shape=(basis.dim, basis.dim))
    matrix.eliminate_zeros()
    return matrix


@pytest.mark.parametrize("config", LADDER_CONFIGS, ids=["n_max1", "n_max2", "n_max3"])
def test_ladder_products_write_the_csr_of_the_live_entry_recipe(config, monkeypatch):
    basis = pf.build_basis(config)
    # The box-integral weights of H, P and S, as the quadratic forms pass them.
    weights, products = [], fields.ladder_products
    monkeypatch.setattr(fields, "ladder_products", lambda b, w: weights.append(w) or products(b, w))
    for t in (0.0, 0.37):
        fields.quadratic_H_from_fields(basis, t)
        fields.quadratic_P_from_fields(basis, t)
        fields.quadratic_S_from_fields(basis, t)
    assert len(weights) == 14
    rng = np.random.default_rng(8)
    size = (2 * basis.n_modes,) * 2
    for _ in range(3):
        random = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        random[rng.random(size) < 0.4] = 0.0
        weights.append(random)
    for i, w in enumerate(weights):
        got, want = fock.ladder_products(basis, w).matrix, _live_ladder_products(basis, w)
        for field in ("indptr", "indices", "data"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (i, field)


def test_canonical_commutator_on_safe_subspace(standard_basis):
    proj = pf.safe_projector(standard_basis, 1)
    eye = pf.identity(standard_basis)
    for mode in standard_basis.modes:
        a = pf.annihilation(standard_basis, mode)
        adag = pf.creation(standard_basis, mode)
        residual = proj @ (pf.commutator(a, adag) - eye) @ proj
        assert residual.max_abs() < 1e-14


def test_truncation_deviation_confined_to_top_states():
    basis = pf.build_basis(small_config())
    a = pf.annihilation(basis, basis.modes[0])
    deviation = (pf.commutator(a, a.dagger()) - pf.identity(basis)).matrix.toarray()
    nonzero = np.argwhere(np.abs(deviation) > 1e-14)
    assert nonzero.tolist() == [[3, 3]]
    assert abs(deviation[3, 3] + 4.0) < 1e-14  # 1 - (n_max + 1)


def test_cross_mode_commutators_vanish(standard_basis):
    a0 = pf.annihilation(standard_basis, standard_basis.modes[0])
    a1 = pf.annihilation(standard_basis, standard_basis.modes[1])
    ad1 = pf.creation(standard_basis, standard_basis.modes[1])
    assert pf.commutator(a0, a1).max_abs() == 0.0
    assert pf.commutator(a0, ad1).max_abs() == 0.0


def test_adjoint_is_exact(standard_basis):
    for mode in standard_basis.modes:
        a = pf.annihilation(standard_basis, mode)
        adag = pf.creation(standard_basis, mode)
        assert (adag - a.dagger()).max_abs() == 0.0


def test_number_operator_values():
    basis = pf.build_basis(small_config())
    n = pf.number_operator(basis, basis.modes[0])
    assert np.allclose(n.matrix.toarray(), np.diag([0.0, 1.0, 2.0, 3.0]), atol=0)


def test_total_number_two_modes():
    basis = pf.build_basis(small_config(n_max=1, modes=((1, (0, 0, 1)), (-1, (0, 0, 1)))))
    total = pf.total_number(basis)
    assert np.allclose(np.real(total.matrix.diagonal()), [0.0, 1.0, 1.0, 2.0], atol=0)


def test_number_operators_commute(standard_basis):
    n0 = pf.number_operator(standard_basis, standard_basis.modes[0])
    n1 = pf.number_operator(standard_basis, standard_basis.modes[1])
    assert pf.commutator(n0, n1).max_abs() == 0.0


def test_number_equals_adag_a(standard_basis):
    mode = standard_basis.modes[2]
    built = pf.creation(standard_basis, mode) @ pf.annihilation(standard_basis, mode)
    direct = pf.number_operator(standard_basis, mode)
    assert (built - direct).max_abs() < 1e-14


def test_safe_projector_cases():
    basis = pf.build_basis(small_config())
    assert (pf.safe_projector(basis, 0) - pf.identity(basis)).max_abs() == 0.0
    p1 = pf.safe_projector(basis, 1)
    assert np.allclose(np.real(p1.matrix.diagonal()), [1.0, 1.0, 1.0, 0.0], atol=0)
    for margin in (0, 1, 2, 3):
        p = pf.safe_projector(basis, margin)
        assert (p @ p - p).max_abs() == 0.0
    with pytest.raises(ValueError):
        pf.safe_projector(basis, 4)


def test_safe_states_mask_the_projector():
    basis = pf.build_basis(small_config(n_max=2, modes=((1, (0, 0, 1)), (-1, (0, 0, 1)))))
    for margin in (0, 1, 2):
        keep = pf.safe_states(basis, margin)
        assert keep.dtype == bool and keep.shape == (basis.dim,)
        assert np.array_equal(np.real(pf.safe_projector(basis, margin).matrix.diagonal()), keep.astype(float))
    # P X P keeps exactly the entries X_ij with i and j both kept.
    x = pf.creation(basis, basis.modes[0]) @ pf.annihilation(basis, basis.modes[1]) + pf.total_number(basis)
    proj, keep = pf.safe_projector(basis, 1), pf.safe_states(basis, 1)
    assert x.max_abs(keep) == (proj @ x @ proj).max_abs() < x.max_abs()
    assert x.max_abs(np.zeros(basis.dim, dtype=bool)) == 0.0


@pytest.mark.parametrize("values", [[0.0, 2.5, -0.0, 1.0 - 2.0j], [3.0, 0.0, 0.0, 1e-300], [0.0] * 4])
def test_diagonal_operator_is_the_csr_of_sp_diags(values):
    basis = pf.build_basis(small_config())
    got = fock.diagonal_operator(basis, np.array(values)).matrix
    want = sp.diags(np.array(values, dtype=complex)).tocsr()
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert fock.identity(basis).matrix.nnz == basis.dim
    with pytest.raises(ValueError, match="diagonal values"):
        fock.diagonal_operator(basis, np.ones(basis.dim + 1))


def test_sparse_operator_keeps_a_complex_csr():
    basis = pf.build_basis(small_config())
    matrix = sp.identity(basis.dim, dtype=complex, format="csr")
    converted = oracles.from_scipy(sp.identity(basis.dim, format="coo"), basis).matrix
    assert isinstance(converted, sp.csr_matrix) and converted.dtype == complex
    with pytest.raises(ValueError, match="basis dim"):
        pf.SparseOperator((matrix.data, matrix.indices, matrix.indptr[:-1]), basis)


def _raw_operator(basis, rng, nan=False):
    """Seeded CSR arrays as given: unsorted columns, repeated coordinates, two pairs of entries that cancel to 0."""
    dim = basis.dim
    rows, cols = rng.integers(0, dim, size=(2, 3 * dim))
    data = rng.standard_normal(3 * dim) + 1j * rng.standard_normal(3 * dim)
    twice = rng.choice(3 * dim, size=6, replace=False)
    rows, cols = np.r_[rows, rows[twice]], np.r_[cols, cols[twice]]
    data = np.r_[data, data[twice[:4]], -data[twice[4:]]]
    if nan:
        data[rng.integers(len(data))] = np.nan
    order = np.argsort(rows, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(dim + 1)).astype(np.int32)
    return pf.SparseOperator((data[order], cols[order].astype(np.int32), indptr), basis)


def _operator_zoo(basis, seed):
    """Raw operators (one with a NaN), library operators in canonical form, and an empty operator."""
    rng = np.random.default_rng(seed)
    x = SpacetimePoint(r=np.array([0.3, -0.2, 0.15]), t=0.1)
    empty = (np.zeros(0, dtype=complex), np.zeros(0, dtype=np.int32), np.zeros(basis.dim + 1, dtype=np.int32))
    return [
        _raw_operator(basis, rng),
        _raw_operator(basis, rng, nan=True),
        pf.annihilation(basis, basis.modes[0]),
        pf.field(basis, FieldKind.E, x)[0],
        pf.quadratic_H_from_fields(basis),
        fock.diagonal_operator(basis, rng.standard_normal(basis.dim)),
        pf.SparseOperator(empty, basis),
    ]


def _assert_same_csr(arrays, matrix, label):
    for name, got in zip(("data", "indices", "indptr"), arrays):
        want = getattr(matrix, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (label, name)


def _scipy_assemble(dim, rows, cols, data):
    """The coordinate recipe through scipy's public API: csr_matrix((data, (rows, cols))), then eliminate_zeros()."""
    keep = data != 0
    matrix = sp.csr_matrix((data[keep] + 0.0, (rows[keep], cols[keep])), shape=(dim, dim))
    matrix.eliminate_zeros()
    return matrix


def _scipy_maxima(matrix, keeps):
    """max |X_ij| over the entries with keep[i] and keep[j], for each keep; 0.0 for none, NaN kept."""
    coo = matrix.tocoo()
    return [np.max(np.abs(coo.data[keep[coo.row] & keep[coo.col]]), initial=0.0) for keep in keeps]


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("fixture", ["standard_basis", "three_mode_basis"])
def test_sparse_algebra_has_the_bits_of_scipy(request, fixture, seed):
    """Every sum, product, adjoint, scaling and expectation has the arrays scipy's public API gives on .matrix."""
    basis = request.getfixturevalue(fixture)
    ops = _operator_zoo(basis, seed)
    assert any(np.isnan(op.data).any() for op in ops) and ops[-1].nnz == 0
    # Repeated coordinates and unsorted columns reach the kernels.
    assert not ops[0].matrix.has_canonical_format and not ops[0].matrix.has_sorted_indices
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # NaN arithmetic in the scipy oracle
        for i, a in enumerate(ops):
            for j, b in enumerate(ops):
                _assert_same_csr((a @ b).arrays, a.matrix @ b.matrix, ("@", i, j))
                _assert_same_csr((a - b).arrays, a.matrix - b.matrix, ("-", i, j))
                _assert_same_csr((a + b).arrays, a.matrix + b.matrix, ("+", i, j))
            _assert_same_csr(a.dagger().arrays, a.matrix.conj().T.tocsr(), ("dagger", i))
            for z in (0.5 - 2.0j, -3.0):
                _assert_same_csr((a * z).arrays, a.matrix * z, ("*", i, z))
                _assert_same_csr((z * a).arrays, z * a.matrix, ("r*", i, z))
            z = np.random.default_rng(i).standard_normal((2, basis.dim))
            state = ensembles.FockState(basis, z[0] + 1j * z[1])
            c = state.coefficients
            got, want = ensembles.expectation(a, state), complex(np.vdot(c, a.matrix @ c))
            assert np.array(got).tobytes() == np.array(want).tobytes(), ("expectation", i)
    # The first two operators cancel: the sums and the difference store no zero.
    assert (ops[0] - ops[0]).nnz == 0 and (ops[0] + ops[0] * -1.0).nnz == 0


@pytest.mark.parametrize("fixture", ["standard_basis", "three_mode_basis"])
def test_coordinate_assembly_has_the_bits_of_scipy(request, fixture):
    """_assemble and ladder_products against csr_matrix((data, (rows, cols))) then eliminate_zeros()."""
    basis = request.getfixturevalue(fixture)
    dim, rng = basis.dim, np.random.default_rng(9)
    # Repeated coordinates out of order, pairs that cancel to 0, explicit zeros, a NaN, and no entry at all.
    rows, cols = rng.integers(0, dim, size=(2, 4 * dim))
    data = rng.standard_normal(4 * dim) + 1j * rng.standard_normal(4 * dim)
    twice = rng.choice(4 * dim, size=8, replace=False)
    rows, cols, data = np.r_[rows, rows[twice]], np.r_[cols, cols[twice]], np.r_[data, -data[twice]]
    data[rng.choice(len(data), size=5)] = 0.0
    data[7] = np.nan
    for label, keep in (("all", slice(None)), ("none", slice(0))):
        got = fock._assemble(basis, rows[keep], cols[keep], data[keep])
        _assert_same_csr(got.arrays, _scipy_assemble(dim, rows[keep], cols[keep], data[keep]), label)
    size = (2 * basis.n_modes,) * 2
    for nan in (False, True):
        w = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        w[rng.random(size) < 0.4] = 0.0
        if nan:
            w[0, -1] = np.nan
        # The table recipe: whole table rows as one coordinate list.
        k, l = np.nonzero(w)
        target, amplitude, _ = oracles.ladder_table(basis)
        mid = target[l]
        products = w[k, l][:, None] * (amplitude[k[:, None], mid] * amplitude[l])
        rows, cols = target[k[:, None], mid].ravel(), np.tile(np.arange(dim), len(l))
        want = _scipy_assemble(dim, rows, cols, products.ravel())
        _assert_same_csr(fock.ladder_products(basis, w).arrays, want, ("ladder_products", nan))
    # No nonzero weight: the empty coordinate list.
    nothing = np.zeros(0, dtype=int)
    want = _scipy_assemble(dim, nothing, nothing, np.zeros(0, dtype=complex))
    _assert_same_csr(fock.ladder_products(basis, np.zeros(size)).arrays, want, ("ladder_products", "zero"))


@pytest.mark.parametrize("limit", [0, np.inf], ids=["pair_by_pair", "stacked"])
@pytest.mark.parametrize("fixture", ["standard_basis", "three_mode_basis"])
def test_residual_tables_equal_scipy_commutators_and_differences(request, monkeypatch, fixture, limit):
    basis = request.getfixturevalue(fixture)
    monkeypatch.setattr(fock, "STACK_LIMIT", limit)
    ops = _operator_zoo(basis, 5)
    left, right = ops[:4], [ops[6], ops[1], ops[3], ops[0]]
    targets = {(0, 0): ops[5], (2, 1): ops[1], (3, 3): ops[4]}
    safe = fock.safe_states(basis, 1)
    everything = np.ones(basis.dim, dtype=bool)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for keep in (None, safe, np.stack([everything, safe])):
            keeps = [everything] if keep is None else np.reshape(keep, (-1, basis.dim))
            table = pf.commutator_residuals(left, right, targets, keep)
            want = np.zeros((len(keeps), len(left), len(right)))
            for k, l in np.ndindex(len(left), len(right)):
                residual = left[k].matrix @ right[l].matrix - right[l].matrix @ left[k].matrix
                if (k, l) in targets:
                    residual = residual - targets[k, l].matrix
                want[:, k, l] = _scipy_maxima(residual, keeps)
            assert np.array_equal(table, want.reshape(table.shape), equal_nan=True), keep
            if keep is None:
                assert np.isnan(table[2, 1]) and (table == 0).any() and (table > 0).any()
            table = fock.difference_residuals(left, right, keep)
            want = [_scipy_maxima(a.matrix - b.matrix, keeps) for a, b in zip(left, right)]
            assert np.array_equal(table, np.transpose(want).reshape(table.shape), equal_nan=True), keep


def _malformed_arrays(dim):
    """CSR arrays the kernels cannot read safely, each refused by SparseOperator."""
    data, indices = np.ones(dim, dtype=complex), np.arange(dim, dtype=np.int32)
    indptr = np.arange(dim + 1, dtype=np.int32)
    late, past, short, falling = indptr.copy(), indptr.copy(), indptr.copy(), indptr.copy()
    late[0] = 1
    past[-1] = dim + 10**7
    short[-1] = -1
    falling[1] = 3
    wide, negative = indices.copy(), indices.copy()
    wide[-1] = dim
    negative[0] = -1
    return {
        "float data": (data.real, indices, indptr),
        "int64 indices": (data, indices.astype(np.int64), indptr),
        "int64 indptr": (data, indices, indptr.astype(np.int64)),
        "2-D data": (data[:, None], indices, indptr),
        "2-D indptr": (data, indices, indptr[None, :]),
        "indptr not from 0": (data, indices, late),
        "indptr past the entries": (data, indices, past),
        "negative indptr end": (data, indices, short),
        "more values than indices": (np.ones(dim + 1, dtype=complex), indices, indptr),
        "short indptr": (data, indices, indptr[:-1]),
        "decreasing indptr": (data, indices, falling),
        "index past the basis": (data, wide, indptr),
        "negative index": (data, negative, indptr),
    }


def test_sparse_operator_refuses_arrays_the_kernels_cannot_read(three_mode_basis):
    dim = three_mode_basis.dim
    for label, arrays in _malformed_arrays(dim).items():
        with pytest.raises(ValueError):
            pf.SparseOperator(arrays, three_mode_basis)
    # Entries past indptr[-1] are dropped, as scipy's check_format drops them.
    data, indices, indptr = np.arange(5.0) + 0j, np.arange(5, dtype=np.int32), np.zeros(dim + 1, dtype=np.int32)
    indptr[1:] = 3
    op = pf.SparseOperator((data, indices, indptr), three_mode_basis)
    assert op.nnz == len(op.data) == len(op.indices) == len(op.matrix.data) == 3
    # The vector kernel reads as many entries as the basis has states.
    for shape in [(dim - 1,), (dim, 1)]:
        with pytest.raises(ValueError, match="vector of 27 entries"):
            op.apply(np.ones(shape))


def _refused_in_a_fresh_process(indices: str, indptr: str) -> None:
    # A fresh process, so that a crash fails the calling test alone.
    code = (
        "import numpy as np, photonfield as pf\n"
        "basis = pf.build_basis(pf.LatticeConfig(length=6.0, n_max=3, modes=((1, (0, 0, 1)),)))\n"
        f"indices, indptr = np.array({indices}, dtype=np.int32), np.array({indptr}, dtype=np.int32)\n"
        "try:\n"
        "    op = pf.SparseOperator((np.ones(4, dtype=complex), indices, indptr), basis)\n"
        "except ValueError:\n"
        "    print('refused')\n"
        "else:\n"
        "    print((op @ op).nnz, (op - op.dagger()).nnz)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pf.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "refused\n"), done.stderr


def test_malformed_arrays_never_reach_the_kernels():
    # Without the constructor's checks an indptr past the stored entries
    # sends the product kernel reading far outside its arrays.
    _refused_in_a_fresh_process("np.arange(4)", "[0, 1, 2, 3, 10**7]")


def test_index_past_the_basis_never_reaches_the_kernels():
    # Without the check of the index values, op @ op on this operator kills
    # the process with SIGSEGV: the kernels index their work arrays by column.
    _refused_in_a_fresh_process("[0, 1, 2, 10**7]", "np.arange(5)")


def test_kernels_refuse_to_write_into_the_shared_ladder_patterns(standard_basis):
    op = pf.creation(standard_basis, standard_basis.modes[1])
    indices, indptr = op.indices, op.indptr
    assert not indices.flags.writeable and not indptr.flags.writeable
    before = indices.copy()
    kernels = fock._sparsetools()
    dim = standard_basis.dim
    with pytest.raises(ValueError, match="read-only"):
        kernels.csr_sort_indices(dim, indptr, indices, op.data.copy())
    with pytest.raises(ValueError, match="read-only"):
        kernels.csr_eliminate_zeros(dim, dim, indptr.copy(), indices, op.data.copy())
    assert np.array_equal(indices, before)


def test_missing_kernel_file_names_the_directory_searched(monkeypatch):
    # Without scipy.sparse imported, fock looks for the kernels' file itself.
    import importlib.machinery

    import scipy

    monkeypatch.delitem(sys.modules, "scipy.sparse")
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    directory = str(Path(scipy.__file__).parent / "sparse")
    with pytest.raises(ImportError, match=re.escape(directory)):
        fock._sparsetools.__wrapped__()


# The compiled kernels fock calls, each named once in fock.py.  They are private
# to scipy, so a release that renames one fails here, not inside a verify run.
FOCK_KERNELS = {
    "coo_tocsr", "csr_eliminate_zeros", "csr_has_sorted_indices", "csr_hstack", "csr_matmat",
    "csr_matmat_maxnnz", "csr_matvec", "csr_minus_csr", "csr_plus_csr", "csr_sort_indices",
    "csr_sum_duplicates", "csr_tocsc",
}


def test_every_kernel_fock_calls_exists():
    # fock loads the kernels from scipy's file by name: a scipy that moves
    # the file fails here too.
    import scipy

    kernels = fock._sparsetools()
    path = Path(kernels.__file__)
    assert path.parent == Path(scipy.__file__).parent / "sparse" and path.name.split(".")[0] == "_sparsetools"
    source = Path(fock.__file__).read_text()
    called = set(re.findall(r'_kernel\("(\w+)"', source)) | set(re.findall(r"_sparsetools\(\)\.(\w+)\(", source))
    called |= set(re.findall(r'"(csr_\w+_csr)"', source))
    assert called == FOCK_KERNELS
    assert not [name for name in sorted(called) if not callable(getattr(kernels, name, None))]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_maximum_is_one_block_reduction(standard_basis, seed):
    """max_abs, masked or not, and the residual tables give the plain maximum, 0.0 for no entry, and NaN for a NaN."""
    dim = standard_basis.dim
    rng = np.random.default_rng(seed)
    stored = rng.random((dim, dim)) < 0.05
    dense = np.where(stored, rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)), 0)
    op = oracles.from_scipy(dense, standard_basis)
    assert op.max_abs() == float(np.max(np.abs(op.matrix.data)))
    assert oracles.from_scipy(sp.csr_matrix((dim, dim), dtype=complex), standard_basis).max_abs() == 0.0

    i, j = np.argwhere(stored)[rng.integers(stored.sum())]
    dense[i, j] = np.nan
    bad = oracles.from_scipy(dense, standard_basis)
    everything, without_i = np.ones(dim, dtype=bool), np.arange(dim) != i
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(bad.max_abs()) and np.isnan(bad.max_abs(everything))
        assert bad.max_abs(without_i) == op.max_abs(without_i)
        one = pf.identity(standard_basis)
        tables = [
            pf.commutator_residuals([one, one], [one], {(0, 0): op, (1, 0): bad}, keep)
            for keep in (None, everything, np.stack([everything, without_i]))
        ]
    for table in (tables[0], tables[1], tables[2][0]):
        assert table[0, 0] == op.max_abs() and np.isnan(table[1, 0])
    assert tables[2][1, 0, 0] == tables[2][1, 1, 0] == op.max_abs(without_i)

    # The difference table: entry k is (L_k - R_k).max_abs(keep), NaN kept, and 0.0 for L_k = R_k.
    other = np.where(rng.random((dim, dim)) < 0.05, rng.standard_normal((dim, dim)), 0)
    other = oracles.from_scipy(other, standard_basis)
    left, right = [op, bad, op, other], [other, other, op, op]
    for keep in (None, without_i, np.stack([everything, without_i])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fock.difference_residuals(left, right, keep)
            masks = [None] if keep is None else keep.reshape(-1, dim)
            want = np.reshape([[(a - b).max_abs(mask) for a, b in zip(left, right)] for mask in masks], got.shape)
        assert got.shape == np.shape(keep)[:-1] + (len(left),) and np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.isnan(got[..., 1]), True if keep is None else keep[..., i]) and not got[..., 2].any()
    with pytest.raises(BasisMismatchError):
        fock.difference_residuals([op], [pf.identity(pf.build_basis(small_config()))])
    with pytest.raises(ValueError, match="cannot pair 4 left operators with 3"):
        fock.difference_residuals(left, right[:3])


@pytest.fixture(scope="module")
def twelve_mode_basis():
    """Both helicities of +/- x, y and z, n_max = 1, dimension 4096."""
    axes = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
    modes = tuple((s, n) for n in axes for s in (1, -1))
    return pf.build_basis(pf.LatticeConfig(length=2 * np.pi, n_max=1, modes=modes))


def _commutator_tables(basis):
    """(left, right, targets) of verify's three tables: ladders, two E fields, fields against N."""
    a = [pf.annihilation(basis, m) for m in basis.modes]
    adag = [pf.creation(basis, m) for m in basis.modes]
    n = basis.n_modes
    ladder = (a, a + adag, {(i, n + i): pf.identity(basis) for i in range(n)})
    e1 = pf.field(basis, FieldKind.E, SpacetimePoint(r=np.array([0.3, -1.1, 0.4]), t=0.2))
    e2 = pf.field(basis, FieldKind.E, SpacetimePoint(r=np.array([-0.7, 0.5, 1.9]), t=-0.6))
    rng = np.random.default_rng(8)
    diagonals = {(i, j): fock.diagonal_operator(basis, rng.standard_normal(basis.dim)) for i, j in np.ndindex(3, 3)}
    x = SpacetimePoint(r=np.array([0.7, -0.4, 0.2]), t=0.3)
    kinds = (FieldKind.E, FieldKind.B, FieldKind.A)
    ops = [op for kind in kinds for op in pf.field(basis, kind, x)]
    flipped = [op for kind in kinds for op in pf.field_number_commutator(basis, kind, x)]
    number = (ops, [pf.total_number(basis)], {(k, 0): op for k, op in enumerate(flipped)})
    return ladder, (e1, e2, diagonals), number


@pytest.mark.parametrize("limit", [0, np.inf], ids=["pair_by_pair", "stacked"])
@pytest.mark.parametrize("fixture", ["standard_basis", "twelve_mode_basis"])
def test_commutator_residuals_equal_per_pair_commutators(request, monkeypatch, fixture, limit):
    basis = request.getfixturevalue(fixture)
    monkeypatch.setattr(fock, "STACK_LIMIT", limit)
    proj, safe = pf.safe_projector(basis, 1), pf.safe_states(basis, 1)
    keep = np.stack([np.ones(basis.dim, dtype=bool), safe])
    zero = oracles.from_scipy(sp.csr_matrix((basis.dim, basis.dim), dtype=complex), basis)
    for left, right, targets in _commutator_tables(basis):
        table = pf.commutator_residuals(left, right, targets)
        masked = pf.commutator_residuals(left, right, targets, keep)
        assert table.shape == (len(left), len(right)) and masked.shape == (2, len(left), len(right))
        for k, l in np.ndindex(table.shape):
            residual = pf.commutator(left[k], right[l]) - targets.get((k, l), zero)
            assert table[k, l] == masked[0, k, l] == residual.max_abs()
            assert masked[1, k, l] == (proj @ residual @ proj).max_abs() == residual.max_abs(safe)


@pytest.mark.parametrize("limit", [0, np.inf], ids=["pair_by_pair", "stacked"])
def test_commutator_residuals_localize_a_perturbed_operator(standard_basis, monkeypatch, limit):
    monkeypatch.setattr(fock, "STACK_LIMIT", limit)
    basis = standard_basis
    a = [pf.annihilation(basis, m) for m in basis.modes]
    adag = [pf.creation(basis, m) for m in basis.modes]
    n = basis.n_modes
    # Exact targets: every residual of the clean table is zero.
    targets = {(i, n + i): pf.commutator(a[i], adag[i]) for i in range(n)}
    assert not pf.commutator_residuals(a, a + adag, targets).any()
    matrix = a[2].matrix.copy()
    matrix.data[0] *= 1.5
    a[2] = oracles.from_scipy(matrix, basis)
    table = pf.commutator_residuals(a, a + adag, targets)
    nonzero = table != 0
    assert nonzero[2].any() and nonzero[:, 2].any()
    nonzero[2], nonzero[:, 2] = False, False
    assert not nonzero.any()


def test_commutator_residuals_refuse_mixed_bases(standard_basis, three_mode_basis):
    a = pf.annihilation(standard_basis, standard_basis.modes[0])
    b = pf.annihilation(three_mode_basis, three_mode_basis.modes[0])
    with pytest.raises(BasisMismatchError):
        pf.commutator_residuals([a], [b])
    with pytest.raises(ValueError, match="one flag per basis state"):
        pf.commutator_residuals([a], [a], keep=np.ones(3, dtype=bool))


def test_a_wrong_stride_is_an_internal_error_not_a_crash(tmp_path):
    # One quantum in mode j moves local^(n_modes - j) states instead of
    # local^(n_modes - 1 - j): the ladder targets leave the basis, and without
    # the bounds check verify on the built-in scenario ends in SIGSEGV inside
    # scipy.  A fresh process on a mutated copy of the package.
    src = tmp_path / "src"
    shutil.copytree(Path(pf.__file__).parent, src / "photonfield", ignore=shutil.ignore_patterns("__pycache__"))
    module = src / "photonfield" / "fock.py"
    text = module.read_text()
    assert text.count("local ** (self.n_modes - 1 - j)") == 1
    module.write_text(text.replace("local ** (self.n_modes - 1 - j)", "local ** (self.n_modes - j)"))
    env = {**os.environ, "PYTHONPATH": str(src)}
    command = [sys.executable, "-m", "photonfield.cli", "verify", "--out", "o"]
    done = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 1, (done.returncode, done.stderr)
    assert done.stderr.splitlines()[-1] == (
        "RuntimeError: ladder targets must lie in 0..255; the basis index arithmetic is wrong"
    )


@pytest.mark.parametrize("hbar", [1e-120, 4e-104, 1e200], ids=["zero", "subnormal", "infinite"])
def test_momentum_cell_must_be_a_normal_float(hbar):
    # (2 pi * 4e-104 / 2 pi)^3 = 6.4e-311 is subnormal.
    with pytest.raises(ValueError, match="momentum cell"):
        small_config(hbar=hbar)
    smallest = (np.finfo(float).tiny ** (1 / 3)) * 1.0001
    assert small_config(hbar=smallest).hbar == smallest


def test_zero_momentum_mode_rejected():
    with pytest.raises(ValueError):
        small_config(modes=((1, (0, 0, 0)),))


def test_empty_mode_list_rejected():
    with pytest.raises(ValueError):
        small_config(modes=())


def test_duplicate_mode_rejected():
    with pytest.raises(ValueError):
        small_config(modes=((1, (0, 0, 1)), (1, (0, 0, 1))))


@pytest.mark.parametrize("bad", [2.0, 2.5, np.float64(2.0), True, "2"])
def test_n_max_must_be_an_integer(bad):
    with pytest.raises(ValueError, match="integers"):
        small_config(n_max=bad)
    config = small_config(n_max=np.int64(2))
    assert type(config.n_max) is int and pf.build_basis(config).dim == 3


def test_bad_helicity_rejected():
    with pytest.raises(ValueError):
        small_config(modes=((2, (0, 0, 1)),))


def test_dimension_guard():
    cfg = small_config(n_max=3, modes=tuple((s, (0, 0, n)) for s in (1, -1) for n in range(1, 6)))
    # (3+1)^10 = 1048576 > 65536
    with pytest.raises(LatticeSizeError, match="dimension"):
        pf.build_basis(cfg)


def test_nnz_budget_guard():
    cfg = small_config(
        n_max=3,
        modes=tuple((s, (0, 0, n)) for s in (1, -1) for n in range(1, 5)),
    )
    with pytest.raises(LatticeSizeError, match="budget"):
        pf.build_basis(cfg)


def test_unknown_mode_rejected(standard_basis):
    with pytest.raises(KeyError):
        pf.annihilation(standard_basis, (1, (5, 5, 5)))


def test_basis_mismatch_rejected(standard_basis):
    other = pf.build_basis(small_config())
    a = pf.annihilation(standard_basis, standard_basis.modes[0])
    b = pf.annihilation(other, other.modes[0])
    with pytest.raises(BasisMismatchError):
        pf.commutator(a, b)


def test_helicity_and_symmetry_predicates(standard_basis):
    assert standard_basis.helicities_complete()
    assert standard_basis.momentum_symmetric()
    lopsided = pf.build_basis(small_config(modes=((1, (0, 0, 1)), (-1, (0, 0, 1)))))
    assert lopsided.helicities_complete()
    assert not lopsided.momentum_symmetric()
    single = pf.build_basis(small_config())
    assert not single.helicities_complete()


def test_export_format_golden():
    basis = pf.build_basis(small_config(n_max=1, modes=((1, (0, 0, 1)), (-1, (0, 0, 1)))))
    a = pf.annihilation(basis, basis.modes[1])
    out = io.StringIO()
    pf.export_operator(a, out)
    assert out.getvalue() == (
        "4 2 1\n"
        "0 1 1.0 0.0\n"
        "2 3 1.0 0.0\n"
    )


def test_export_is_bit_stable(standard_basis):
    op = pf.quadratic_H_from_fields(standard_basis)
    first, second = io.StringIO(), io.StringIO()
    pf.export_operator(op, first)
    pf.export_operator(op, second)
    assert first.getvalue() == second.getvalue()
    lines = first.getvalue().splitlines()
    assert lines[0] == "256 4 3"
    coords = [tuple(map(int, line.split()[:2])) for line in lines[1:]]
    assert coords == sorted(coords)


def _export_text(op, writer):
    out = io.StringIO()
    writer(op, out)
    return out.getvalue()


def _coordinate_operator(basis, rows, cols, data):
    """Operator holding exactly the given entries (signed zeros kept)."""
    matrix = sp.csr_matrix((np.asarray(data, dtype=complex), (rows, cols)), shape=(basis.dim, basis.dim))
    return oracles.from_scipy(matrix, basis)


def test_float_reprs_keep_signed_zeros_and_repeats():
    values = [0.0, -0.0, 1.5, -0.0, 1.5, 0.1 + 0.2, 1e-300, -2.5e17, 0.0]
    assert float_reprs(values) == [repr(float(v)) for v in values]
    assert float_reprs(np.array([])) == []


def test_export_matches_per_entry_oracle_signed_zeros_and_repeats(standard_basis):
    rng = np.random.default_rng(5)
    count = 400
    index = rng.choice(standard_basis.dim**2, size=count, replace=False)
    rows, cols = np.divmod(index, standard_basis.dim)
    parts = np.array([0.0, -0.0, 0.5, -0.5, 1.0 / 3.0, 2.0])
    data = np.empty(count, dtype=complex)
    data.real, data.imag = rng.choice(parts, count), rng.choice(parts, count)
    data[np.abs(data) == 0] = complex(-0.0, 0.25)
    op = _coordinate_operator(standard_basis, rows, cols, data)
    text = _export_text(op, pf.export_operator)
    assert " -0.0 " in text and " -0.0\n" in text  # signed zeros in both columns
    assert text == _export_text(op, oracles.export_operator_oracle)


def test_export_matches_per_entry_oracle_distinct_values(standard_basis):
    rng = np.random.default_rng(6)
    index = rng.choice(standard_basis.dim**2, size=300, replace=False)
    rows, cols = np.divmod(index, standard_basis.dim)
    data = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    op = _coordinate_operator(standard_basis, rows, cols, data)
    assert _export_text(op, pf.export_operator) == _export_text(op, oracles.export_operator_oracle)


def test_export_matches_per_entry_oracle_empty_and_library_operators(standard_basis):
    empty = _coordinate_operator(standard_basis, [], [], [])
    assert empty.matrix.nnz == 0
    assert _export_text(empty, pf.export_operator) == "256 4 3\n"
    assert _export_text(empty, oracles.export_operator_oracle) == "256 4 3\n"
    x = SpacetimePoint(r=np.array([0.3, -0.2, 0.15]), t=0.1)
    for op in (*pf.field(standard_basis, FieldKind.E, x), pf.quadratic_H_from_fields(standard_basis)):
        assert _export_text(op, pf.export_operator) == _export_text(op, oracles.export_operator_oracle)
    # Every family dump-operator names is written as CSR rows and exported
    # from its arrays, before its scipy matrix exists or after it is built.
    for name in DUMP_OPERATORS:
        build = cli._operator_builder(name, standard_basis.config)
        fresh, read = build(standard_basis), build(standard_basis)
        matrix = read.matrix
        assert read.nnz > 0, name  # empty arrays share no memory
        for field in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(matrix, field), getattr(read, field)), (name, field)
        text = _export_text(fresh, pf.export_operator)
        assert text == _export_text(read, pf.export_operator) == _export_text(read, oracles.export_operator_oracle)
        assert len(text.splitlines()) == 1 + read.nnz == 1 + matrix.nnz, name


def test_export_reads_a_non_canonical_csr_like_the_oracle(standard_basis):
    # Written from (data, indices, indptr) as given: unsorted columns,
    # repeated coordinates and explicit +0.0 and -0.0 entries stay stored.
    dim, rng = standard_basis.dim, np.random.default_rng(12)
    counts = rng.integers(0, 7, size=dim)
    indices = rng.integers(0, 12, size=counts.sum()).astype(np.int32)
    parts = np.array([0.0, -0.0, 0.5, -1.25, 1.0 / 3.0])
    data = rng.choice(parts, counts.sum()) + 1j * rng.choice(parts, counts.sum())
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    op = oracles.from_scipy(sp.csr_matrix((data, indices, indptr), shape=(dim, dim)), standard_basis)
    assert np.array_equal(op.matrix.indices, indices) and op.matrix.nnz == counts.sum()
    rows = np.repeat(np.arange(dim), counts)
    coords = rows * dim + indices
    assert len(np.unique(coords)) < len(coords)  # repeated coordinates
    assert np.any((np.diff(indices) < 0) & (np.diff(rows) == 0))  # unsorted columns
    assert np.any(np.signbit(data.real) & (data.real == 0)) and np.any(data == 0)
    assert not op.matrix.has_canonical_format
    text = _export_text(op, pf.export_operator)
    assert len(text.splitlines()) == 1 + counts.sum()
    assert text == _export_text(op, oracles.export_operator_oracle)


@pytest.mark.parametrize("chunk", [None, 1, 4000, "nnz"])
def test_export_spans_write_chunks_like_the_oracle(standard_basis, monkeypatch, chunk):
    count = 3 * fock.EXPORT_CHUNK - 5  # three chunks at the default size
    index = np.random.default_rng(13).choice(standard_basis.dim**2, size=count, replace=False)
    rows, cols = np.divmod(index, standard_basis.dim)
    data = np.exp(1j * np.arange(count)) * np.arange(1, count + 1)
    op = _coordinate_operator(standard_basis, rows, cols, data)
    assert op.matrix.nnz == count and op.matrix.has_canonical_format
    if chunk is not None:
        monkeypatch.setattr(fock, "EXPORT_CHUNK", count if chunk == "nnz" else chunk)
    assert _export_text(op, pf.export_operator) == _export_text(op, oracles.export_operator_oracle)


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
def test_export_block_edges_like_the_oracle(standard_basis, offset):
    # Canonical and sorted operators of EXPORT_CHUNK - 1, EXPORT_CHUNK and
    # EXPORT_CHUNK + 1 entries: the canonical check, the row lookup and the
    # formatting run one chunk at a time.
    dim, count = standard_basis.dim, fock.EXPORT_CHUNK + offset
    rng = np.random.default_rng(14)
    index = np.sort(rng.choice(dim**2, size=count, replace=False))
    rows, cols = np.divmod(index, dim)
    data = rng.standard_normal(count) + 1j * rng.choice([0.0, -0.0, 0.5], count)
    indptr = np.searchsorted(rows, np.arange(dim + 1)).astype(np.int32)
    canonical = pf.SparseOperator((data, cols.astype(np.int32), indptr), standard_basis)
    # Reversing the columns inside every row keeps the rows and makes the
    # operator non-canonical: it takes the sorted path.
    flipped = np.concatenate([cols[a:b][::-1] for a, b in zip(indptr[:-1], indptr[1:])]).astype(np.int32)
    reversed_rows = pf.SparseOperator((data, flipped, indptr), standard_basis)
    assert not reversed_rows.matrix.has_canonical_format
    for op in (canonical, reversed_rows):
        text = _export_text(op, pf.export_operator)
        assert len(text.splitlines()) == 1 + count
        assert text == _export_text(op, oracles.export_operator_oracle)


@pytest.mark.parametrize("swap", [0, 1], ids=["entries_chunk-1_chunk", "entries_chunk_chunk+1"])
def test_export_sees_a_column_order_broken_only_at_a_chunk_edge(standard_basis, swap):
    # Two neighbouring entries of one row at a chunk edge are the only ones
    # out of order: every chunk that does not hold both is canonical.
    dim, chunk = standard_basis.dim, fock.EXPORT_CHUNK
    rows = np.repeat(np.arange(dim), dim)[5 : chunk + 7]
    cols = np.tile(np.arange(dim), dim)[5 : chunk + 7].astype(np.int32)
    a, b = chunk - 1 + swap, chunk + swap
    assert rows[a] == rows[b]
    cols[[a, b]] = cols[[b, a]]
    indptr = np.searchsorted(rows, np.arange(dim + 1)).astype(np.int32)
    op = pf.SparseOperator((np.arange(1, chunk + 3) * (1 - 0.5j), cols, indptr), standard_basis)
    text = _export_text(op, pf.export_operator)
    assert text == _export_text(op, oracles.export_operator_oracle)
    assert text.splitlines()[a + 1 : b + 2] == [
        f"{rows[a]} {cols[b]} {float(b + 1)!r} {-(b + 1) / 2!r}",
        f"{rows[a]} {cols[a]} {float(a + 1)!r} {-(a + 1) / 2!r}",
    ]


def test_symmetry_flags(standard_basis):
    """Hermiticity read off the matrices: N and identity are hermitian, a is neither."""
    assert oracles.adjoint_residual(pf.total_number(standard_basis)) == 0.0
    assert oracles.adjoint_residual(pf.identity(standard_basis)) == 0.0
    a = pf.annihilation(standard_basis, standard_basis.modes[0])
    assert oracles.adjoint_residual(a) == np.sqrt(3.0)
    assert oracles.adjoint_residual(a, -1.0) == np.sqrt(3.0)
