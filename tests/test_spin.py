import numpy as np
from hypothesis import given, settings

import photonfield as pf
from photonfield import spin
from photonfield.spin import SINGULAR_CUTOFF

import oracles
from conftest import unit_vectors
from test_polarization import mixed_batch

SQRT3 = np.sqrt(3.0)


def eigen_oracle(k, sign, hbar=1.0):
    """Eigenvector of S.k from a full eigendecomposition (independent path)."""
    mats = pf.spin_matrices(hbar)
    vals, vecs = np.linalg.eigh(mats.dotted(k))
    idx = int(np.argmin(np.abs(vals - sign * hbar)))
    return vecs[:, idx]


def test_spin_matrix_entries():
    mats = pf.spin_matrices(1.0)
    assert np.allclose(mats.sz[0], [0.0, -1.0j, 0.0], atol=0)
    levi = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1, (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
    for (j, k, l), sign in levi.items():
        s_j = [mats.sx, mats.sy, mats.sz][j]
        assert s_j[k, l] == -1.0j * sign


def test_spin_commutators_and_casimir():
    hbar = 0.7
    mats = pf.spin_matrices(hbar)
    triples = [(mats.sx, mats.sy, mats.sz), (mats.sy, mats.sz, mats.sx), (mats.sz, mats.sx, mats.sy)]
    for a, b, c in triples:
        assert np.max(np.abs(a @ b - b @ a - 1j * hbar * c)) < 1e-12
    casimir = mats.sx @ mats.sx + mats.sy @ mats.sy + mats.sz @ mats.sz
    assert np.max(np.abs(casimir - 2.0 * hbar**2 * np.eye(3))) < 1e-12


def test_helicity_states_along_z():
    pair = pf.helicity_states(pf.Direction(k=np.array([0.0, 0.0, 1.0])))
    assert np.allclose(pair.chi_plus, 0.5 * np.array([1 - 1j, 1 + 1j, 0.0]), atol=1e-15)
    assert np.allclose(pair.chi_minus, 0.5 * np.array([1 + 1j, 1 - 1j, 0.0]), atol=1e-15)
    sz = pf.spin_matrices(1.0).sz
    assert np.max(np.abs(sz @ pair.chi_plus - pair.chi_plus)) < 1e-14


def test_singular_direction_uses_fallback():
    k = pf.Direction(k=np.ones(3) / SQRT3)
    pair = pf.helicity_states(k)
    mats = pf.spin_matrices(1.0)
    sk = mats.dotted(k.k)
    for s in (1, -1):
        chi = pair.chi(s)
        assert abs(np.linalg.norm(chi) - 1.0) < 1e-12
        assert np.max(np.abs(sk @ chi - s * chi)) < 1e-10
        oracle = eigen_oracle(k.k, s)
        assert abs(abs(np.vdot(chi, oracle)) - 1.0) < 1e-10
    # phase fixing: the largest-modulus leading component is real positive
    lead = np.argmax(np.abs(pair.chi_plus) > np.max(np.abs(pair.chi_plus)) - 1e-15)
    assert pair.chi_plus[lead].imag == 0.0 and pair.chi_plus[lead].real > 0


@given(unit_vectors())
@settings(max_examples=200)
def test_helicity_invariants_random_directions(v):
    d = pf.Direction(k=v)
    pair = pf.helicity_states(d)
    sk = pf.spin_matrices(1.0).dotted(v)
    for s in (1, -1):
        chi = pair.chi(s)
        assert np.max(np.abs(sk @ chi - s * chi)) < 1e-10
        assert abs(np.linalg.norm(chi) - 1.0) < 1e-10
    assert abs(np.vdot(pair.chi_plus, pair.chi_minus)) < 1e-10


@given(unit_vectors())
@settings(max_examples=100)
def test_helicity_overlaps_polarization_vector(v):
    d = pf.Direction(k=v)
    pair = pf.helicity_states(d)
    triad = pf.make_triad(d)
    for s in (1, -1):
        assert abs(abs(np.vdot(pair.chi(s), triad.eps(s))) - 1.0) < 1e-10


def test_phase_against_polarization_along_z():
    d = pf.Direction(k=np.array([0.0, 0.0, 1.0]))
    pair = pf.helicity_states(d)
    triad = pf.make_triad(d)
    assert np.allclose(pair.chi_plus, np.exp(-1j * np.pi / 4) * triad.eps_plus, atol=1e-14)


def test_branch_continuity_near_singular_set():
    # For normalizations between the fallback cutoff and 1e-3 the closed
    # form must still match the eigendecomposition up to a phase.
    base = np.ones(3) / SQRT3
    u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    for delta in np.geomspace(3e-6, 7e-4, 12):
        v = base + delta * u
        v = v / np.linalg.norm(v)
        denom = np.sqrt(1.0 - v[0] * v[1] - v[1] * v[2] - v[2] * v[0])
        if not (SINGULAR_CUTOFF < denom < 1e-3):
            continue
        pair = pf.helicity_states(pf.Direction(k=v))
        for s in (1, -1):
            chi = pair.chi(s)
            chi = chi / np.linalg.norm(chi)
            oracle = eigen_oracle(v, s)
            assert abs(abs(np.vdot(chi, oracle)) - 1.0) < 1e-6


def test_batched_helicity_vectors_match_oracle_row_by_row():
    k = mixed_batch()
    denom = np.sqrt(np.maximum(1.0 - k[:, 0] * k[:, 1] - k[:, 1] * k[:, 2] - k[:, 2] * k[:, 0], 0.0))
    assert np.any(denom <= SINGULAR_CUTOFF) and np.any(denom > SINGULAR_CUTOFF)
    chi_plus, chi_minus = spin.helicity_vectors(k)
    assert not chi_plus.flags.writeable and not chi_minus.flags.writeable
    for i, row in enumerate(k):
        want_plus, want_minus = oracles.helicity_oracle(row, SINGULAR_CUTOFF)
        assert np.max(np.abs(chi_plus[i] - want_plus)) <= 1e-15, i
        assert np.max(np.abs(chi_minus[i] - want_minus)) <= 1e-15, i
        pair = pf.helicity_states(pf.Direction(k=row))
        assert np.array_equal(pair.chi_plus, chi_plus[i]) and np.array_equal(pair.chi_minus, chi_minus[i])
