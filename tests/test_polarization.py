import numpy as np
import pytest
from hypothesis import given, settings

import photonfield as pf
from photonfield import cli, polarization, spin

import oracles
from conftest import unit_vectors

SQRT2 = np.sqrt(2.0)


def direction(*v):
    a = np.asarray(v, dtype=float)
    return pf.Direction(k=a / np.linalg.norm(a))


def test_axis_gauge_is_cartesian():
    triad = pf.make_triad(pf.Direction(k=np.array([0.0, 0.0, 1.0])))
    assert np.allclose(triad.e_hat, [1.0, 0.0, 0.0], atol=0)
    assert np.allclose(triad.b_hat, [0.0, 1.0, 0.0], atol=0)


def test_axis_eps_plus():
    triad = pf.make_triad(pf.Direction(k=np.array([0.0, 0.0, 1.0])))
    assert np.allclose(triad.eps_plus, np.array([1.0, 1.0j, 0.0]) / SQRT2, atol=1e-15)


def test_x_axis_triad_invariants():
    k = direction(1, 0, 0)
    triad = pf.make_triad(k)
    assert abs(np.dot(triad.e_hat, k.k)) < 1e-12
    assert np.max(np.abs(np.cross(k.k, triad.e_hat) - triad.b_hat)) == 0.0


def test_non_unit_direction_rejected():
    with pytest.raises(ValueError):
        pf.Direction(k=np.array([0.0, 0.0, 2.0]))


def test_degenerate_gauge_reference_rejected():
    k = pf.Direction(k=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        pf.make_triad(k, reference=np.array([0.0, 0.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_direction_rejected(bad):
    with pytest.raises(ValueError, match="unit length"):
        pf.Direction(k=np.array([bad, 0.0, 0.0]))
    with pytest.raises(ValueError, match="row 1"):
        polarization.unit_rows(np.array([[0.0, 0.0, 1.0], [bad, 0.0, 0.0], [1.0, 0.0, 0.0]]))


def test_non_finite_gauge_reference_rejected():
    k = pf.Direction(k=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="not finite"):
        pf.make_triad(k, reference=np.array([np.nan, 1.0, 0.0]))


def test_cross_product_of_opposite_helicities():
    triad = pf.make_triad(direction(0, 0, 1))
    got = np.cross(triad.eps_plus, triad.eps_minus)
    assert np.allclose(got, [0.0, 0.0, 1.0], atol=1e-15)


def test_minus_is_i_conjugate_of_plus():
    triad = pf.make_triad(direction(0, 0, 1))
    assert np.allclose(triad.eps_minus, np.array([1.0j, 1.0, 0.0]) / SQRT2, atol=1e-15)
    assert np.allclose(triad.eps_minus, 1j * np.conj(triad.eps_plus), atol=1e-15)


def test_plus_normalization():
    triad = pf.make_triad(direction(0.3, -0.9, 0.8))
    assert abs(np.dot(np.conj(triad.eps_plus), triad.eps_plus) - 1.0) < 1e-14


def test_completeness_axis_cases():
    m_z = pf.completeness_matrix(pf.make_triad(direction(0, 0, 1)))
    assert np.allclose(m_z, np.diag([1.0, 1.0, 0.0]), atol=1e-14)
    m_x = pf.completeness_matrix(pf.make_triad(direction(1, 0, 0)))
    assert np.allclose(m_x, np.diag([0.0, 1.0, 1.0]), atol=1e-14)


def test_completeness_diagonal_direction():
    triad = pf.make_triad(direction(1, 1, 1))
    expected = np.eye(3) - np.full((3, 3), 1.0 / 3.0)
    assert np.allclose(pf.completeness_matrix(triad), expected, atol=1e-14)


@given(unit_vectors())
@settings(max_examples=200)
def test_all_relations_hold_for_random_directions(v):
    triad = pf.make_triad(pf.Direction(k=v))
    residuals = pf.check_relations(triad)
    assert len(residuals) == 8
    assert max(residuals.values()) < 1e-12


@given(unit_vectors())
@settings(max_examples=100)
def test_completeness_is_rank_two_projector(v):
    d = pf.Direction(k=v)
    m = pf.completeness_matrix(pf.make_triad(d))
    assert np.max(np.abs(m - m.T)) < 1e-14
    assert np.max(np.abs(m @ m - m)) < 1e-12
    assert np.max(np.abs(m @ d.k)) < 1e-12
    assert abs(np.trace(m) - 2.0) < 1e-12


@given(unit_vectors())
@settings(max_examples=50)
def test_triad_construction_is_deterministic(v):
    d1 = pf.Direction(k=v)
    d2 = pf.Direction(k=v.copy())
    t1, t2 = pf.make_triad(d1), pf.make_triad(d2)
    assert np.array_equal(t1.e_hat, t2.e_hat)
    assert np.array_equal(t1.b_hat, t2.b_hat)
    assert np.array_equal(t1.eps_plus, t2.eps_plus)


def test_custom_gauge_still_satisfies_relations():
    d = direction(0.2, 0.5, -0.6)
    triad = pf.make_triad(d, reference=np.array([0.0, 1.0, 0.0]))
    assert max(pf.check_relations(triad).values()) < 1e-12
    default = pf.make_triad(d)
    assert not np.allclose(triad.e_hat, default.e_hat)


def mixed_batch():
    """Axes, both sides of the |k.x| = 0.9 axis switch, the helicity-singular set, random rows."""
    rows = [*np.eye(3), *-np.eye(3)]
    for kx in (np.nextafter(0.9, 0.0), 0.9, np.nextafter(0.9, 1.0), 0.9 - 1e-9, 0.9 + 1e-9):
        for sign in (1.0, -1.0):
            rows.append(np.array([sign * kx, np.sqrt(1.0 - kx * kx), 0.0]))
    rows += [np.ones(3) / np.sqrt(3.0), -np.ones(3) / np.sqrt(3.0)]
    rows += list(cli._near_singular_directions(10))
    v = np.random.default_rng(77).standard_normal((40, 3))
    rows += list(v / np.linalg.norm(v, axis=1, keepdims=True))
    return np.array(rows)


@pytest.mark.parametrize("reference", [None, np.array([0.3, -0.5, 0.8])])
def test_batched_triads_match_oracle_row_by_row(reference):
    k = mixed_batch()
    assert np.any(np.abs(k[:, 0]) > 0.9) and np.any((np.abs(k[:, 0]) <= 0.9) & (np.abs(k[:, 0]) > 0.89))
    batch = polarization.triads(k, reference=reference)
    for i, row in enumerate(k):
        for got, want in zip(batch, oracles.triad_oracle(row, reference=reference)):
            assert np.array_equal(got[i], want), i
        triad = pf.make_triad(pf.Direction(k=row), reference=reference)
        for got, want in zip(batch, (triad.e_hat, triad.b_hat, triad.eps_plus, triad.eps_minus)):
            assert np.array_equal(got[i], want), i


def test_batched_triads_validate_rows():
    k = mixed_batch()
    assert all(not a.flags.writeable for a in polarization.triads(k))
    bad = k.copy()
    bad[5] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="row 5"):
        polarization.triads(bad)
    with pytest.raises(ValueError):
        polarization.triads(k[0])
    with pytest.raises(ValueError):
        polarization.triads(k, reference=k[7])


def test_constructors_keep_the_callers_arrays_writeable():
    k, rows = np.array([0.0, 0.0, 1.0]), mixed_batch()
    e_hat, b_hat = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    direction = pf.Direction(k=k)
    stored = polarization.unit_rows(rows)
    triad = pf.PolarizationTriad(k=direction, e_hat=e_hat, b_hat=b_hat)
    batch = [a.copy() for a in polarization.triads(rows)]
    spin.helicity_vectors(rows)
    assert all(a.flags.writeable for a in (k, rows, e_hat, b_hat))
    for a in (k, rows, e_hat, b_hat):
        a *= -1.0
    assert direction.k.tolist() == [0.0, 0.0, 1.0] and np.array_equal(stored, -rows)
    assert triad.e_hat.tolist() == [1.0, 0.0, 0.0] and triad.b_hat.tolist() == [0.0, 1.0, 0.0]
    assert all(np.array_equal(a, b) for a, b in zip(batch, polarization.triads(-rows)))


def test_relation_residuals_are_per_row():
    k = mixed_batch()
    _, _, eps_plus, eps_minus = polarization.triads(k)
    res = polarization.relation_residuals(k, eps_plus, eps_minus)
    assert sorted(res) == sorted(pf.check_relations(pf.make_triad(pf.Direction(k=k[0]))))
    assert all(r.shape == (len(k),) and r.max() < 1e-12 for r in res.values())
    broken = eps_plus.copy()
    broken[9] = eps_minus[9]
    res = polarization.relation_residuals(k, broken, eps_minus)
    worst = np.max(np.stack(list(res.values())), axis=0)
    assert worst[9] > 0.1 and np.delete(worst, 9).max() < 1e-12
    m = polarization.completeness_matrices(eps_plus, eps_minus)
    assert m.shape == (len(k), 3, 3)
    for i in (0, 9, len(k) - 1):
        assert np.array_equal(m[i], pf.completeness_matrix(pf.make_triad(pf.Direction(k=k[i]))))


def switch_neighbourhood(steps=16):
    """Unit rows with |k_x| within `steps` ulps of 0.9 on either side, both signs, at several azimuths."""
    rows = []
    for start in (0.9, -0.9):
        kx = [start]
        for toward in (2.0, -2.0):
            x = start
            for _ in range(steps):
                x = np.nextafter(x, toward)
                kx.append(x)
        for x in kx:
            r = np.sqrt(1.0 - x * x)
            for phi in np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False):
                rows.append([x, r * np.cos(phi), r * np.sin(phi)])
    return np.array(rows)


@pytest.mark.parametrize("reference", [None, np.array([0.3, -0.5, 0.8])])
def test_make_triad_is_the_row_of_triads_bit_for_bit(reference):
    v = np.random.default_rng(23).standard_normal((20000, 3))
    k = np.concatenate([v / np.linalg.norm(v, axis=1, keepdims=True), switch_neighbourhood()])
    assert np.any(np.abs(k[:, 0]) > 0.9) and np.any(np.abs(k[:, 0]) == 0.9)
    one = [pf.make_triad(pf.Direction(k=row), reference=reference) for row in k]
    rows = [np.array([getattr(t, name) for t in one]) for name in ("e_hat", "b_hat", "eps_plus", "eps_minus")]
    for got, want in zip(rows, polarization.triads(k, reference=reference)):
        assert got.tobytes() == want.tobytes()


def test_circular_vectors_are_kept_and_read_only():
    triad = pf.make_triad(direction(0.3, -0.9, 0.8))
    for name in ("eps_plus", "eps_minus"):
        first = getattr(triad, name)
        assert getattr(triad, name) is first and not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0
        with pytest.raises(AttributeError):
            setattr(triad, name, first.copy())
    assert triad.eps(1) is triad.eps_plus and triad.eps(-1) is triad.eps_minus


def test_the_float_rows_are_the_rows_of_triads_bit_for_bit():
    v = np.random.default_rng(23).standard_normal((20000, 3))
    axes = [sign * row for row in np.eye(3) for sign in (1.0, -1.0)]
    k = np.concatenate([v / np.linalg.norm(v, axis=1, keepdims=True), switch_neighbourhood(), axes])
    e_hat, b_hat, eps_plus, eps_minus = polarization.triads(k)
    for i, row in enumerate(k):
        e, b = polarization._frame_row(row)
        plus, minus = polarization._eps_row(row, 1), polarization._eps_row(row, -1)
        assert np.array(e).tobytes() == e_hat[i].tobytes() and np.array(b).tobytes() == b_hat[i].tobytes(), i
        assert plus.tobytes() == eps_plus[i].tobytes() and minus.tobytes() == eps_minus[i].tobytes(), i
