"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with `pytest -s`) and
enforces the runtime budget of its criterion.
"""

import json
import time

import numpy as np

import photonfield as pf
from photonfield import cli
from photonfield.fields import FieldKind, SpacetimePoint
from photonfield.spin import SINGULAR_CUTOFF

ORIGIN = SpacetimePoint(r=np.zeros(3), t=0.0)


class Criterion:
    def __init__(self, number, budget_seconds):
        self.number = number
        self.budget = budget_seconds
        self.start = time.perf_counter()

    def finish(self, ok, detail):
        elapsed = time.perf_counter() - self.start
        in_budget = elapsed < self.budget
        verdict = "PASS" if (ok and in_budget) else "FAIL"
        print(f"{verdict} criterion {self.number}: {detail} [{elapsed:.2f}s / {self.budget:.0f}s]")
        assert ok, f"criterion {self.number}: {detail}"
        assert in_budget, f"criterion {self.number} exceeded its {self.budget}s budget ({elapsed:.2f}s)"


def _random_directions(rng, count):
    out = []
    while len(out) < count:
        v = rng.standard_normal(3)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            out.append(pf.Direction(k=v / norm))
    return out


def test_criterion_1_polarization_relations():
    crit = Criterion(1, budget_seconds=1.0)
    rng = np.random.default_rng(1001)
    worst = 0.0
    for d in _random_directions(rng, 1000):
        residuals = pf.check_relations(pf.make_triad(d))
        assert len(residuals) == 8  # seven vector relations plus completeness
        worst = max(worst, max(residuals.values()))
    crit.finish(worst < 1e-12, f"polarization relations over 1000 directions, worst residual {worst:.3e}")


def test_criterion_2_helicity_eigenvalue():
    crit = Criterion(2, budget_seconds=1.0)
    rng = np.random.default_rng(1002)
    base = np.ones(3) / np.sqrt(3.0)
    u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    near = []
    for delta in np.geomspace(1e-5, 6e-4, 10):
        v = base + delta * u
        near.append(pf.Direction(k=v / np.linalg.norm(v)))
    for d in near:
        k = d.k
        denom = np.sqrt(1.0 - k[0] * k[1] - k[1] * k[2] - k[2] * k[0])
        assert denom < 1e-3
    dirs = _random_directions(rng, 990) + near
    mats = pf.spin_matrices(1.0)
    worst = 0.0
    for d in dirs:
        pair = pf.helicity_states(d)
        sk = mats.dotted(d.k)
        for s in (1, -1):
            chi = pair.chi(s)
            worst = max(worst, float(np.max(np.abs(sk @ chi - s * chi))))
    crit.finish(
        worst < 1e-10,
        f"helicity eigenvalue relation over 1000 directions (10 near-singular), worst {worst:.3e}",
    )


def test_criterion_3_quadratic_reductions(standard_basis):
    crit = Criterion(3, budget_seconds=10.0)
    basis = standard_basis
    assert basis.dim == 256
    proj = pf.safe_projector(basis, 1)
    eye = pf.identity(basis)
    zp = pf.zero_point(basis)
    assert np.max(np.abs(zp.P0)) == 0.0 and np.max(np.abs(zp.S0)) == 0.0
    scale = float(np.max(np.abs(pf.observable_H(basis).diagonal()))) + zp.E0

    def residuals(t):
        worst = (
            proj @ (pf.quadratic_H_from_fields(basis, t=t) - pf.observable_H(basis) - zp.E0 * eye) @ proj
        ).max_abs() / scale
        for quad, diag in (
            (pf.quadratic_P_from_fields(basis, t=t), pf.observable_P(basis)),
            (pf.quadratic_S_from_fields(basis, t=t), pf.observable_S(basis)),
        ):
            for comp in range(3):
                worst = max(worst, (proj @ (quad[comp] - diag[comp]) @ proj).max_abs() / scale)
        return worst

    worst_0 = residuals(0.0)
    worst_t = residuals(0.37)
    drift = (
        pf.quadratic_H_from_fields(basis, t=0.0) - pf.quadratic_H_from_fields(basis, t=0.37)
    ).max_abs() / scale
    ok = worst_0 < 1e-10 and worst_t < 1e-10 and drift < 1e-10
    crit.finish(
        ok,
        f"H/P/S reductions at dim 256, residuals {worst_0:.3e} (t=0) {worst_t:.3e} (t=0.37), drift {drift:.3e}",
    )


def test_criterion_4_maxwell(offaxis_basis):
    crit = Criterion(4, budget_seconds=5.0)
    basis = offaxis_basis
    assert all(abs(omega - 1.0) < 1e-12 for omega in basis.omega)
    x = SpacetimePoint(r=np.array([0.3, -0.2, 0.15]), t=0.1)
    h = 1e-3
    fd = pf.check_maxwell(basis, x, h, method="fd")
    fd_half = pf.check_maxwell(basis, x, h / 2.0, method="fd")
    ratios = {name: fd[name] / fd_half[name] for name in fd}
    analytic = pf.check_maxwell(basis, x, h, method="analytic")
    analytic.update(pf.check_derivative_relations(basis, x, h, method="analytic"))
    ok = (
        max(fd.values()) < 1e-6
        and all(3.2 <= r <= 4.8 for r in ratios.values())
        and max(analytic.values()) < 1e-12
    )
    crit.finish(
        ok,
        "Maxwell residuals fd "
        + ", ".join(f"{k}={v:.2e}" for k, v in fd.items())
        + f"; ratios {min(ratios.values()):.2f}..{max(ratios.values()):.2f}"
        + f"; analytic worst {max(analytic.values()):.1e}",
    )


def test_criterion_5_commutators(standard_basis):
    crit = Criterion(5, budget_seconds=10.0)
    basis = standard_basis
    rng = np.random.default_rng(1005)
    proj = pf.safe_projector(basis, 1)
    eye_p = proj @ pf.identity(basis) @ proj
    length = basis.config.length
    worst_cross = 0.0
    worst_closed_eq = 0.0
    for _ in range(20):
        x1 = SpacetimePoint(r=rng.uniform(-length / 2, length / 2, 3), t=float(rng.uniform(-1, 1)))
        x2 = SpacetimePoint(r=rng.uniform(-length / 2, length / 2, 3), t=float(rng.uniform(-1, 1)))
        closed_ee = pf.field_commutator_closed_form(basis, FieldKind.E, FieldKind.E, x1, x2)
        closed_bb = pf.field_commutator_closed_form(basis, FieldKind.B, FieldKind.B, x1, x2)
        worst_closed_eq = max(worst_closed_eq, float(np.max(np.abs(closed_ee - closed_bb))))
        e1 = pf.field(basis, FieldKind.E, x1)
        e2 = pf.field(basis, FieldKind.E, x2)
        for i in range(3):
            for j in range(3):
                matrix = proj @ pf.commutator(e1[i], e2[j]) @ proj
                worst_cross = max(worst_cross, (matrix - complex(closed_ee[i, j]) * eye_p).max_abs())
    worst_equal = 0.0
    x1 = SpacetimePoint(r=np.array([0.2, 0.4, -0.3]), t=0.5)
    x2 = SpacetimePoint(r=np.array([-0.1, 0.8, 0.6]), t=0.5)
    for kind in (FieldKind.E, FieldKind.B):
        f1 = pf.field(basis, kind, x1)
        f2 = pf.field(basis, kind, x2)
        for i in range(3):
            for j in range(3):
                worst_equal = max(worst_equal, (proj @ pf.commutator(f1[i], f2[j]) @ proj).max_abs())
    n_op = pf.total_number(basis)
    worst_number = 0.0
    x = SpacetimePoint(r=np.array([0.7, -0.4, 0.2]), t=0.3)
    for kind in FieldKind:
        comps = pf.field(basis, kind, x)
        closed = pf.field_number_commutator(basis, kind, x)
        for i in range(3):
            worst_number = max(worst_number, (pf.commutator(comps[i], n_op) - closed[i]).max_abs())
    ok = (
        worst_cross < 1e-10
        and worst_equal < 1e-12
        and worst_closed_eq < 1e-12
        and worst_number < 1e-12
    )
    crit.finish(
        ok,
        f"commutators: matrix-vs-closed {worst_cross:.2e}, equal-time {worst_equal:.2e}, "
        f"[E,E]=[B,B] {worst_closed_eq:.2e}, [field,N] {worst_number:.2e}",
    )


def test_criterion_6_vacuum_fluctuations(helicity_pair_basis):
    crit = Criterion(6, budget_seconds=2.0)
    basis = helicity_pair_basis
    vac = pf.vacuum(basis)
    e_ops = pf.field(basis, FieldKind.E, ORIGIN)
    mean_exact = max(abs(pf.expectation(op, vac)) for op in e_ops)
    e2_matrix = sum(np.real(pf.expectation(op @ op, vac)) for op in e_ops)
    e2_closed = pf.vacuum_field_square(basis)
    rel = abs(e2_matrix - e2_closed) / e2_closed
    ref_ok = abs(e2_closed - 1.0 / (2.0 * np.pi**2)) < 1e-15
    scan = pf.vacuum_field_square_scan(length=2 * np.pi, hbar=1.0, c=1.0, cutoffs=(1, 2, 3, 4))
    monotone = all(b[1] > a[1] for a, b in zip(scan, scan[1:]))
    ok = mean_exact == 0.0 and rel < 1e-12 and ref_ok and monotone
    crit.finish(
        ok,
        f"vacuum: <E> = {mean_exact}, <E^2> rel dev {rel:.2e} "
        f"(ref {e2_closed:.7f} = 1/(2 pi^2)), cutoff scan monotone {monotone}",
    )


def test_criterion_7_plane_wave_emergence():
    crit = Criterion(7, budget_seconds=2.0)
    alpha = 0.5
    mode = (1, (0, 0, 1))
    basis = pf.build_basis(pf.LatticeConfig(length=2 * np.pi, n_max=8, modes=(mode,)))
    profile = pf.coherent_profile(alpha, mode, cap=8)
    deficit_ok = profile.norm_deficit < 1e-10
    state = pf.superposition(basis, profile)
    e_ops = pf.field(basis, FieldKind.E, ORIGIN)
    matrix = np.array([np.real(pf.expectation(op, state)) for op in e_ops])
    expected = np.array([0.0, -alpha / (np.sqrt(2.0) * np.pi), 0.0])
    mean_dev = float(np.max(np.abs(matrix - expected)))
    omega = basis.omega[0]
    radii = []
    fz_max = 0.0
    for t in np.linspace(0.0, 2.0 * np.pi / omega, 16, endpoint=False):
        f = pf.field_expectation_closed_form(state, FieldKind.E, SpacetimePoint(r=np.zeros(3), t=float(t)))
        radii.append(np.hypot(f[0], f[1]))
        fz_max = max(fz_max, abs(f[2]))
    circular = (max(radii) - min(radii) < 1e-10) and fz_max == 0.0
    number = pf.number_state(basis, (5,))
    number_zero = max(
        float(np.max(np.abs(pf.field_expectation_closed_form(number, FieldKind.E, SpacetimePoint(r=np.zeros(3), t=t)))))
        for t in (0.0, 0.3, 1.7)
    )
    ok = deficit_ok and mean_dev < 1e-8 and circular and number_zero == 0.0
    crit.finish(
        ok,
        f"coherent alpha=0.5: <E(0,0)> dev {mean_dev:.2e}, deficit {profile.norm_deficit:.1e}, "
        f"trace spread {max(radii) - min(radii):.1e}, number-state field {number_zero}",
    )


def test_criterion_8_classical_boosts():
    crit = Criterion(8, budget_seconds=1.0)
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(1000):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        omega = float(rng.uniform(0.5, 3.0))
        photon = pf.ClassicalPhoton(omega=omega, k=pf.Direction(k=v), s=int(rng.choice([1, -1])))
        tensor = pf.build_tensor(*pf.rotating_vectors(photon, float(rng.uniform(0, 6))))
        axis = rng.standard_normal(3)
        beta = rng.uniform(0.0, 0.9) * axis / np.linalg.norm(axis)
        boosted = pf.boost(tensor, beta)
        scale = omega**2
        asym = np.max(np.abs(boosted.f + boosted.f.T)) / scale
        e_dot_b, null = pf.null_residuals(boosted)
        worst = max(worst, asym, abs(e_dot_b) / scale, abs(null) / scale)
    photon = pf.ClassicalPhoton(omega=1.0, k=pf.Direction(k=np.array([0.0, 0.0, 1.0])), s=1)
    tensor = pf.build_tensor(*pf.rotating_vectors(photon, 0.0))
    e2, _ = pf.extract_fields(pf.boost(tensor, np.array([0.0, 0.0, 0.6])))
    doppler_dev = abs(np.linalg.norm(e2) - 0.5)
    ok = worst < 1e-9 and doppler_dev < 1e-10
    crit.finish(
        ok,
        f"1000 boosts: worst invariant deviation {worst:.2e}; "
        f"beta=0.6 parallel Doppler dev {doppler_dev:.2e}",
    )


def test_criterion_9_determinism(tmp_path):
    crit = Criterion(9, budget_seconds=60.0)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = cli.main(["verify", "--out", str(out1)])
    code2 = cli.main(["verify", "--out", str(out2)])
    identical = (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    lopsided = json.loads(json.dumps(cli.DEFAULT_SCENARIO))
    lopsided["lattice"]["modes"] = [{"s": 1, "n": [0, 0, 1]}, {"s": 1, "n": [0, 0, -1]}]
    lopsided["checks"] = ["commutators"]
    lopsided["state"] = {"kind": "vacuum"}
    del lopsided["grid"]
    config = tmp_path / "single_helicity.json"
    config.write_text(json.dumps(lopsided))
    code3 = cli.main(["verify", "--config", str(config), "--out", str(tmp_path / "c")])
    ok = code1 == 0 and code2 == 0 and identical and code3 == 2
    crit.finish(
        ok,
        f"verify exits {code1}/{code2}, byte-identical reports {identical}, "
        f"single-helicity commutator scenario exits {code3}",
    )
