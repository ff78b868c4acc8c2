import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photonfield as pf

import oracles
from conftest import unit_vectors

Z = pf.Direction(k=np.array([0.0, 0.0, 1.0]))


def photon(omega=1.0, k=Z, s=1, theta=0.0, hbar=1.0, c=1.0):
    return pf.ClassicalPhoton(omega=omega, k=k, s=s, theta=theta, hbar=hbar, c=c)


def test_rotating_vector_at_time_zero():
    e, b = pf.rotating_vectors(photon(omega=2.0), 0.0)
    assert np.allclose(e, [2.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(b, [0.0, 2.0, 0.0], atol=1e-15)


def test_rotating_vector_quarter_period():
    e, _ = pf.rotating_vectors(photon(omega=1.0), np.pi / 2)
    assert np.allclose(e, [0.0, 1.0, 0.0], atol=1e-15)


def test_negative_helicity_starts_along_b_hat():
    # s = -1 rotates from b_hat toward e_hat.
    p = photon(s=-1)
    e0, _ = pf.rotating_vectors(p, 0.0)
    assert np.allclose(e0, p.triad.b_hat, atol=1e-15)
    e_small, _ = pf.rotating_vectors(p, 1e-3)
    assert np.dot(e_small, p.triad.e_hat) > 0


def test_positive_helicity_rotates_toward_b_hat():
    p = photon()
    e_small, _ = pf.rotating_vectors(p, 1e-3)
    assert np.dot(e_small, p.triad.b_hat) > 0


@given(st.floats(-20.0, 20.0), st.floats(0.0, 2 * np.pi), unit_vectors())
@settings(max_examples=100)
def test_rotating_pair_is_orthogonal_with_length_omega(t, theta, v):
    p = pf.ClassicalPhoton(omega=1.7, k=pf.Direction(k=v), s=1, theta=theta)
    e, b = pf.rotating_vectors(p, t)
    assert abs(np.linalg.norm(e) - p.omega) < 1e-12 * p.omega**2
    assert abs(np.linalg.norm(b) - p.omega) < 1e-12 * p.omega**2
    assert abs(np.dot(e, b)) < 1e-12 * p.omega**2
    assert abs(np.dot(b, p.k.k)) < 1e-12 * p.omega**2


def test_tensor_layout():
    f = pf.build_tensor(np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0])).f
    assert np.array_equal(f[0], [0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(f[3], [0.0, 1.0, 0.0, 0.0])
    assert f[1, 3] == -1.0
    assert np.max(np.abs(f + f.T)) == 0.0


def test_zero_tensor():
    f = pf.build_tensor(np.zeros(3), np.zeros(3))
    assert np.max(np.abs(f.f)) == 0.0
    e, b = oracles.extract_fields(f)
    assert np.max(np.abs(e)) == 0.0 and np.max(np.abs(b)) == 0.0


def test_round_trip_is_exact():
    e = np.array([0.3, -1.2, 0.7])
    b = np.array([1.1, 0.4, -0.6])
    e2, b2 = oracles.extract_fields(pf.build_tensor(e, b))
    assert np.array_equal(e, e2) and np.array_equal(b, b2)


@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=6, max_size=6))
def test_tensor_round_trip_property(vals):
    e, b = np.array(vals[:3]), np.array(vals[3:])
    tensor = pf.build_tensor(e, b)
    rebuilt = pf.build_tensor(*oracles.extract_fields(tensor))
    assert np.array_equal(tensor.f, rebuilt.f)


@pytest.mark.parametrize("e, b", [(1.0, np.ones(3)), (np.ones(2), np.ones(3)), (np.ones(3), np.ones((1, 3)))])
def test_build_tensor_rejects_non_3_vectors(e, b):
    with pytest.raises(ValueError, match="3-vectors"):
        pf.build_tensor(e, b)


def test_extract_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        pf.PhotonTensor(f=np.eye(4))


def test_identity_boost():
    tensor = pf.build_tensor(np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0]))
    boosted = pf.boost(tensor, np.zeros(3))
    assert np.array_equal(boosted.f, tensor.f)


def test_superluminal_boost_rejected():
    tensor = pf.build_tensor(np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0]))
    with pytest.raises(ValueError):
        pf.boost(tensor, np.array([0.0, 0.0, 1.0]))


def test_parallel_boost_doppler_factor():
    # Boost at beta = 0.6 along the propagation direction: gamma(1-beta) = 0.5.
    p = photon(omega=1.0)
    e, b = pf.rotating_vectors(p, 0.0)
    boosted = pf.boost(pf.build_tensor(e, b), np.array([0.0, 0.0, 0.6]))
    e2, b2 = oracles.extract_fields(boosted)
    gamma = 1.0 / np.sqrt(1.0 - 0.36)
    assert abs(np.linalg.norm(e2) - gamma * (1.0 - 0.6)) < 1e-10
    assert abs(np.linalg.norm(e2) - 0.5) < 1e-10
    assert abs(np.linalg.norm(b2) - 0.5) < 1e-10


@given(unit_vectors(), st.floats(-0.95, 0.95), st.floats(-0.95, 0.95))
@settings(max_examples=100)
def test_axis_boost_composition_matches_velocity_addition(v, b1, b2):
    tensor = pf.build_tensor(*pf.rotating_vectors(pf.ClassicalPhoton(omega=1.3, k=pf.Direction(k=v), s=1), 0.4))
    axis = np.array([0.0, 0.0, 1.0])
    two_step = pf.boost(pf.boost(tensor, b1 * axis), b2 * axis)
    combined = (b1 + b2) / (1.0 + b1 * b2)
    one_step = pf.boost(tensor, combined * axis)
    assert np.max(np.abs(two_step.f - one_step.f)) < 1e-10 * max(1.0, np.max(np.abs(tensor.f)))


@given(unit_vectors(), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_boost_preserves_null_invariants(v, seed):
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(3)
    beta = rng.uniform(0.0, 0.9) * axis / np.linalg.norm(axis)
    p = pf.ClassicalPhoton(omega=2.1, k=pf.Direction(k=v), s=-1)
    tensor = pf.build_tensor(*pf.rotating_vectors(p, 0.9))
    boosted = pf.boost(tensor, beta)
    e_dot_b, e2_minus_b2 = pf.null_residuals(boosted)
    scale = p.omega**2
    assert abs(e_dot_b) < 1e-9 * scale
    assert abs(e2_minus_b2) < 1e-9 * scale
    assert np.max(np.abs(boosted.f + boosted.f.T)) < 1e-9 * scale


def test_kinematics_examples():
    energy, momentum, spin = pf.kinematics(photon())
    assert energy == 1.0
    assert np.allclose(momentum, [0, 0, 1.0], atol=0)
    assert np.allclose(spin, [0, 0, 1.0], atol=0)

    _, _, spin_minus = pf.kinematics(photon(s=-1))
    assert np.allclose(spin_minus, [0, 0, -1.0], atol=0)
    assert np.max(np.abs(np.cross(spin_minus, momentum))) == 0.0

    energy, momentum, _ = pf.kinematics(photon(omega=2.5, hbar=1.0, c=2.0))
    assert abs(np.linalg.norm(momentum) - 1.25) < 1e-12
    assert abs(energy - 2.0 * np.linalg.norm(momentum)) < 1e-12


def test_photon_validation():
    with pytest.raises(ValueError):
        photon(omega=-1.0)
    with pytest.raises(ValueError):
        photon(s=0)


@pytest.mark.parametrize(
    "s", [True, np.bool_(True), 1.0, np.float64(1.0), -1.0],
    ids=["bool", "numpy_bool", "float", "numpy_float", "negative_float"],
)
def test_photon_refuses_bool_and_float_helicities(s):
    with pytest.raises(ValueError, match="helicity"):
        photon(s=s)


def test_photon_accepts_numpy_integer_helicity():
    assert pf.kinematics(photon(s=np.int64(-1)))[2].tolist() == [0.0, 0.0, -1.0]


@pytest.mark.parametrize(
    "field, value",
    [("omega", np.nan), ("omega", np.inf), ("theta", np.nan), ("theta", np.inf), ("hbar", np.nan), ("c", np.nan)],
)
def test_photon_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        photon(**{field: value})


@pytest.mark.parametrize("k", [np.array([0.0, 0.0, 1.0]), [0.0, 0.0, 1.0]], ids=["ndarray", "list"])
def test_photon_refuses_a_k_that_is_not_a_direction(k):
    with pytest.raises(TypeError, match=f"k must be a Direction, got {type(k).__name__}"):
        photon(k=k)


@pytest.mark.parametrize(
    "omega, hbar, c",
    [(1e300, 1e10, 1.0), (1e300, 1.0, 1e-10), (np.float64(1e300), np.float64(1e10), 1.0)],
    ids=["energy", "momentum", "numpy_floats"],
)
def test_photon_refuses_an_energy_or_momentum_that_is_not_finite(omega, hbar, c):
    with pytest.raises(ValueError, match="energy hbar omega and the momentum hbar omega / c must be finite"):
        photon(omega=omega, hbar=hbar, c=c)


@pytest.mark.parametrize(
    "omega, t", [(1.0, np.inf), (1.0, -np.inf), (1.0, np.nan), (1e300, 1e10)], ids=["inf", "-inf", "nan", "overflow"]
)
def test_rotating_vectors_refuses_a_phase_that_is_not_finite(omega, t):
    with pytest.raises(ValueError, match=f"phase omega t \\+ theta must be finite, got .* at t = {t!r}"):
        pf.rotating_vectors(photon(omega=omega), t)


def test_photon_builds_its_triad_on_first_read():
    p = photon(k=pf.Direction(k=np.array([0.6, 0.0, 0.8])))
    assert "triad" not in vars(p)
    assert "triad" not in [f.name for f in dataclasses.fields(p)] and "triad" not in repr(p)
    pf.rotating_vectors(p, 0.3)
    assert "triad" not in vars(p)
    triad = p.triad
    assert p.triad is triad and vars(p)["triad"] is triad
    assert triad.k is p.k and triad.e_hat.tolist() == pf.make_triad(p.k).e_hat.tolist()


def test_tensor_keeps_the_callers_array_writeable():
    f = np.array(pf.build_tensor(np.array([0.3, -1.2, 0.7]), np.array([1.1, 0.4, -0.6])).f)
    tensor = pf.PhotonTensor(f=f)
    assert f.flags.writeable
    f *= 2.0
    assert np.array_equal(tensor.f, 0.5 * f) and not tensor.f.flags.writeable


@pytest.mark.parametrize("where", [(0, 1), (2, 2)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tensor_rejects_non_finite(bad, where):
    f = np.array(pf.build_tensor(np.array([0.3, -1.2, 0.7]), np.array([1.1, 0.4, -0.6])).f)
    f[where] = bad
    with pytest.raises(ValueError, match="finite and antisymmetric"):
        pf.PhotonTensor(f=f)
    with pytest.raises(ValueError, match="finite and antisymmetric"):
        pf.PhotonTensor(f=np.full((4, 4), bad))


@pytest.mark.parametrize("beta", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [np.nan] * 3])
def test_boost_rejects_non_finite_velocity(beta):
    with pytest.raises(ValueError, match="boost speed"):
        pf.boost_matrix(np.array(beta))


@pytest.mark.parametrize("beta", [[0.5], [0.1, 0.2], [[0.1, 0.2, 0.3]], 0.5, np.zeros(4)])
def test_boost_rejects_velocity_that_is_not_a_3_vector(beta):
    with pytest.raises(ValueError, match="3-vector"):
        pf.boost_matrix(beta)


@st.composite
def velocities(draw):
    """Boost velocities up to speed 0.9, the sweep's, with exact and signed zero components."""
    v = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    norm = np.linalg.norm(v)
    return v if norm == 0.0 else draw(st.floats(0.0, 0.9)) * v / norm


METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


@given(velocities())
@settings(max_examples=300)
def test_boost_matrix_matches_oracle_bit_for_bit(beta):
    lam = pf.boost_matrix(beta)
    assert lam.tobytes() == oracles.boost_matrix_oracle(beta).tobytes()
    assert np.max(np.abs(lam @ METRIC @ lam.T - METRIC)) <= 1e-14


@given(unit_vectors(), st.floats(0.5, 3.0), st.sampled_from([1, -1]), st.floats(0.0, 6.0), velocities())
@settings(max_examples=200)
def test_null_residuals_match_dot_form(v, omega, s, t, beta):
    p = pf.ClassicalPhoton(omega=omega, k=pf.Direction(k=v), s=s, theta=0.3)
    tensor = pf.build_tensor(*pf.rotating_vectors(p, t))
    for f in (tensor, pf.boost(tensor, beta)):
        e, b = oracles.extract_fields(f)
        # The frequency in the tensor's frame: |e| = |b| = omega' for a photon.
        scale = 0.5 * (np.dot(e, e) + np.dot(b, b))
        want = (float(np.dot(e, b)), float(np.dot(e, e) - np.dot(b, b)))
        got = pf.null_residuals(f)
        assert all(abs(g - w) <= 1e-15 * scale for g, w in zip(got, want))


AXES = [pf.Direction(k=sign * row) for row in np.eye(3) for sign in (1.0, -1.0)]


def assert_rotating_bits(p, t):
    e, b = pf.rotating_vectors(p, t)
    assert (b == np.cross(p.k.k, e)).all()
    phase = np.exp(-1j * (p.omega * t + p.theta))
    assert e.tobytes() == (np.sqrt(2.0) * p.omega * np.real(p.triad.eps(p.s) * phase)).tobytes()


def test_rotating_b_is_np_cross_bit_for_bit():
    rng = np.random.default_rng(8)
    for _ in range(300):
        k = rng.standard_normal(3)
        p = photon(
            omega=float(rng.uniform(0.5, 3.0)),
            k=pf.Direction(k=k / np.linalg.norm(k)),
            s=int(rng.choice([1, -1])),
            theta=float(rng.uniform(0.0, 2.0 * np.pi)),
        )
        assert_rotating_bits(p, float(rng.uniform(0.0, 6.0)))
    # The six axis directions, whose frames hold signed zeros, with both helicities.
    for k in AXES:
        for s in (1, -1):
            p = photon(omega=float(rng.uniform(0.5, 3.0)), k=k, s=s, theta=float(rng.uniform(0.0, 2.0 * np.pi)))
            assert_rotating_bits(p, float(rng.uniform(0.0, 6.0)))


def numpy_rule(f):
    """The tensor check as one numpy expression: max |f + f^T| within ATOL, or within ATOL times a finite scale."""
    with np.errstate(invalid="ignore"):
        asym, scale = np.max(np.abs(f + f.T)), np.max(np.abs(f))
    return bool(asym <= 1e-12 or (np.isfinite(scale) and asym <= 1e-12 * max(1.0, scale)))


def accepted(f):
    try:
        pf.PhotonTensor(f=f)
    except ValueError:
        return False
    return True


def test_tensor_check_accepts_exactly_what_the_numpy_rule_accepts():
    base = pf.build_tensor(np.array([0.3, -1.2, 0.7]), np.array([1.1, 0.4, -0.6])).f
    cases = []
    for bad in (np.nan, np.inf, -np.inf):
        f = np.array(base)
        f[1, 3] = bad
        cases.append((f, False))
    for sign in (1.0, -1.0):
        f = np.array(base)
        f[0, 2], f[2, 0] = sign * np.inf, -sign * np.inf  # an antisymmetric inf pair: inf - inf is NaN
        cases.append((f, False))
    f = np.array(base)
    f[1, 2] += 2e-12  # at unit scale
    cases.append((f, False))
    f = 1e4 * base
    f[1, 2] += 1e-9  # within 1e-12 of entries of size 1e4
    cases.append((f, True))
    f = np.array(base)
    upper = np.triu_indices(4, 1)
    f[upper] += 0.9e-12  # six terms each within ATOL, their sum past it
    cases.append((f, True))
    for f, want in cases:
        assert numpy_rule(f) is want
        assert accepted(f) is want
    rng, seen = np.random.default_rng(31), set()
    for _ in range(2000):
        f = rng.standard_normal((4, 4)) * 10.0 ** rng.integers(-3, 6)
        f = f - f.T + rng.standard_normal((4, 4)) * 10.0 ** rng.integers(-16, -8)
        want = numpy_rule(f)
        assert accepted(f) is want
        seen.add((want, bool(np.abs(np.triu(f + f.T)).sum() <= 1e-12)))
    # Accepted within the one-pass sum, accepted past it, and refused.
    assert seen == {(True, True), (True, False), (False, False)}
