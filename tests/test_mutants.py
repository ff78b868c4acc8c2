"""Mutants of the library, each applied by monkeypatch.

Each mutant is a deliberately wrong copy of one library function.  verify
on the built-in scenario must exit 1, and exactly the records named here
must fail: a check that still passes with the mutant in place would not
be testing what it claims.  The built-in lattice has L = 5, hbar = 0.7 and
c = 1.3, so a wrong power of any of those constants shows there, where
with L = 2 pi and hbar = c = 1 it would cancel.

The NaN mutants each put a NaN into a residual that is not the first one
of its record, where a reduction by Python's max would drop it.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from photonfield import cli, ensembles, fields, fock, polarization, spin
from photonfield.fields import FieldKind


def wrap(monkeypatch, module, name, make):
    """Replace module.<name> by make(original)."""
    monkeypatch.setattr(module, name, make(getattr(module, name)))


def mutate_basis(monkeypatch, name, change):
    """Every basis verify builds carries change(basis) in place of its own array basis.<name>."""

    def make(build_basis):
        def mutated(config):
            basis = build_basis(config)
            setattr(basis, name, change(basis))
            return basis

        return mutated

    wrap(monkeypatch, fock, "build_basis", make)


def scale_zero_point_energy(monkeypatch, factor):
    """E0 times factor(basis)."""

    def make(zero_point):
        def mutated(basis):
            constants = zero_point(basis)
            return replace(constants, E0=constants.E0 * factor(basis))

        return mutated

    wrap(monkeypatch, fields, "zero_point", make)


def scale_amplitudes(monkeypatch, factor, kinds=tuple(FieldKind)):
    """The a-side coefficients of the fields in kinds times factor(basis)."""

    def make(amplitudes):
        def mutated(basis, kind, t):
            value = amplitudes(basis, kind, t)
            return value * factor(basis) if FieldKind(kind) in kinds else value

        return mutated

    wrap(monkeypatch, fields, "_amplitudes", make)


def n_for_sqrt_n(monkeypatch):
    """The ladder table stores n where a_j |n> carries sqrt(n) (and n + 1 for sqrt(n + 1))."""
    mutate_basis(monkeypatch, "amplitude", lambda basis: np.square(basis.amplitude))


def eb_closed_form_sign(monkeypatch):
    """The E-B and B-E commutator kernels carry the wrong sign."""

    def make(kernel):
        def mutated(basis, kind1, kind2, rho, tau):
            value = kernel(basis, kind1, kind2, rho, tau)
            return value if kind1 is kind2 else -value

        return mutated

    wrap(monkeypatch, fields, "field_commutator_kernel", make)


def field_number_negated(monkeypatch):
    """The closed form of [field, N] is negated."""
    wrap(monkeypatch, fields, "field_number_commutator", lambda f: lambda basis, kind, x: tuple(
        (-1) * op for op in f(basis, kind, x)
    ))


def time_phase_sign(monkeypatch):
    """The mode coefficients run backwards in time: exp(+i omega t)."""
    wrap(monkeypatch, fields, "_amplitudes", lambda f: lambda basis, kind, t: f(basis, kind, -np.asarray(t)))


def space_phase_sign(monkeypatch):
    """The position factor is exp(-i p.r / hbar)."""
    wrap(monkeypatch, fields, "_phase", lambda f: lambda basis, r: f(basis, -np.asarray(r)))


def amplitude_profile_conj(monkeypatch):
    """<a_m> of the closed path is conjugated."""
    wrap(monkeypatch, ensembles, "amplitude_profile", lambda f: lambda state: np.conj(f(state)))


def mean_field_conj(monkeypatch):
    """The closed mean field sums coef_m conj(<a_m>) + c.c."""
    wrap(monkeypatch, ensembles, "_mean_field", lambda f: lambda coeffs, amps: f(coeffs, np.conj(amps)))


def box_volume_squared(monkeypatch):
    """The box integrals carry L^2 for the volume L^3."""
    wrap(monkeypatch, fields, "_box_integral", lambda f: lambda basis, *args: f(basis, *args) / basis.config.length)


def zero_point_energy_halved(monkeypatch):
    """E0 is a quarter quantum per mode."""
    scale_zero_point_energy(monkeypatch, lambda basis: 0.5)


def k_cross_eps_negated(monkeypatch):
    """B is built from -k x eps."""
    mutate_basis(monkeypatch, "k_cross_eps", lambda basis: -basis.k_cross_eps)


def omega_off(monkeypatch):
    """omega is off by 1e-7 relative in the fields, not in the stored vacuum <E^2> terms."""
    mutate_basis(monkeypatch, "omega", lambda basis: basis.omega * (1.0 + 1e-7))


def vacuum_term_off(monkeypatch):
    """fock.dispersion, the one source of the vacuum <E^2> terms, makes them 1e-9 too large."""

    def make(dispersion):
        def mutated(*args):
            p, omega, delta3p, vacuum_e2 = dispersion(*args)
            return p, omega, delta3p, vacuum_e2 * (1.0 + 1e-9)

        return mutated

    wrap(monkeypatch, fock, "dispersion", make)


def phase_without_hbar(monkeypatch):
    """The position factor is exp(i p.r), without 1/hbar."""
    monkeypatch.setattr(fields, "_phase", lambda basis, r: np.exp(1j * np.vecdot(basis.p, np.asarray(r)[..., None, :])))


def zero_point_energy_without_hbar(monkeypatch):
    """E0 is (1/2) sum omega, without hbar."""
    scale_zero_point_energy(monkeypatch, lambda basis: 1.0 / basis.config.hbar)


def cross_observables_without_c(monkeypatch):
    """The P and S box integrals lack their 1/c."""
    wrap(monkeypatch, fields, "_cross_observable", lambda f: lambda basis, u, v: tuple(
        op * basis.config.c for op in f(basis, u, v)
    ))


def potential_without_c(monkeypatch):
    """The A coefficients carry 1/sqrt(omega) for c/sqrt(omega)."""
    scale_amplitudes(monkeypatch, lambda basis: 1.0 / basis.config.c, [FieldKind.A])


def potential_over_omega(monkeypatch):
    """The A coefficients carry c/omega for c/sqrt(omega)."""
    scale_amplitudes(monkeypatch, lambda basis: 1.0 / np.sqrt(basis.omega)[:, None], [FieldKind.A])


def delta3p_for_its_root(monkeypatch):
    """Every field coefficient carries Delta3p for sqrt(Delta3p)."""
    scale_amplitudes(monkeypatch, lambda basis: np.sqrt(basis.delta3p))


def spin_without_hbar(monkeypatch):
    """The spin of a mode is s k, without hbar."""
    mutate_basis(monkeypatch, "spin", lambda basis: basis.spin / basis.config.hbar)


def spin_without_helicity(monkeypatch):
    """The spin of a mode is hbar k, without the helicity s."""
    mutate_basis(monkeypatch, "spin", lambda basis: basis.config.hbar * basis.k)


def ee_kernel_delta3p_squared(monkeypatch):
    """The E-E commutator kernel carries Delta3p^2 for Delta3p."""

    def make(kernel):
        def mutated(basis, kind1, kind2, rho, tau):
            value = kernel(basis, kind1, kind2, rho, tau)
            return value * basis.delta3p if FieldKind(kind1) is FieldKind(kind2) is FieldKind.E else value

        return mutated

    wrap(monkeypatch, fields, "field_commutator_kernel", make)


def ee_kernel_without_projector(monkeypatch):
    """The E-E and B-B commutator kernels sum the identity for the transverse projector 1 - k k."""

    def make(kernel):
        def mutated(basis, kind1, kind2, rho, tau):
            value = kernel(basis, kind1, kind2, rho, tau)
            if FieldKind(kind1) is not FieldKind(kind2):
                return value
            first, omega, phase = fields._momentum_sum(basis, rho)
            kv, omega, phase = basis.k[first], omega[:, None, None], phase[..., None, None]
            tau = np.asarray(tau)[..., None, None, None]
            kk = kv[:, :, None] * kv[:, None, :]
            prefactor = -2j / (2.0 * np.pi * basis.config.hbar) ** 2
            return value + (prefactor * basis.delta3p * omega * kk * phase * np.sin(omega * tau)).sum(axis=-3)

        return mutated

    wrap(monkeypatch, fields, "field_commutator_kernel", make)


def potential_time_without_c(monkeypatch):
    """E = -dA/dt without 1/c: the time derivative of A comes out c times too large."""

    def make(derivatives):
        def mutated(basis, kind, *args):
            values = derivatives(basis, kind, *args)
            if FieldKind(kind) is FieldKind.A:
                values = np.concatenate([values[:1] * basis.config.c, values[1:]])
            return values

        return mutated

    wrap(monkeypatch, fields, "_derivatives", make)


def spin_matrices_without_hbar(monkeypatch):
    """The spin matrices are those of hbar = 1 whatever hbar is asked for."""
    wrap(monkeypatch, spin, "spin_matrices", lambda f: lambda hbar=1.0: f(1.0))


def with_nan(values):
    """A copy of values with its last entry set to NaN."""
    values = np.array(values)
    values.flat[-1] = np.nan
    return values


def polarization_nan(monkeypatch):
    """The completeness relation, the last of the eight, reads NaN on every direction."""

    def make(relation_residuals):
        def mutated(k, eps_plus, eps_minus):
            res = relation_residuals(k, eps_plus, eps_minus)
            return {**res, "completeness": np.full_like(res["completeness"], np.nan)}

        return mutated

    wrap(monkeypatch, polarization, "relation_residuals", make)


def helicity_nan(monkeypatch):
    """chi_minus of the last direction (a singular one) carries a NaN."""

    def make(helicity_vectors):
        def mutated(k):
            chi_plus, chi_minus = helicity_vectors(k)
            return chi_plus, with_nan(chi_minus)

        return mutated

    wrap(monkeypatch, spin, "helicity_vectors", make)


def nan_entry(op):
    """A copy of op whose last stored entry is NaN."""
    matrix = op.matrix.copy()
    matrix.data[-1] = np.nan
    return fock.SparseOperator(matrix, op.basis)


def ladder_nan(monkeypatch):
    """Every adjoint after the first carries a NaN: ladder.adjoint is finite only for mode 0."""
    dagger = fock.SparseOperator.dagger
    calls = []

    def mutated(op):
        calls.append(op)
        return dagger(op) if len(calls) == 1 else nan_entry(dagger(op))

    monkeypatch.setattr(fock.SparseOperator, "dagger", mutated)


def observables_nan(monkeypatch):
    """The box integral of S_z at any t but 0 carries a NaN: only the conservation drift sees it."""

    def make(quadratic_s):
        def mutated(basis, t):
            sx, sy, sz = quadratic_s(basis, t=t)
            return (sx, sy, sz) if t == 0.0 else (sx, sy, nan_entry(sz))

        return mutated

    wrap(monkeypatch, fields, "quadratic_S_from_fields", make)


def maxwell_nan(monkeypatch):
    """div B, the last Maxwell residual, is NaN at every step."""
    wrap(monkeypatch, fields, "check_maxwell", lambda f: lambda *args, **kwargs: {
        **f(*args, **kwargs), "div_b": float("nan")
    })


def commutators_nan(monkeypatch):
    """The E-B commutator kernel, the last of the three kinds, carries a NaN at its last pair."""

    def make(kernel):
        def mutated(basis, kind1, kind2, rho, tau):
            value = kernel(basis, kind1, kind2, rho, tau)
            return value if kind1 is kind2 else with_nan(value)

        return mutated

    wrap(monkeypatch, fields, "field_commutator_kernel", make)


def zero_point_nan(monkeypatch):
    """The z component of the spin zero-point constant S0 is NaN: the masked spin residual sees it."""

    def make(zero_point):
        def mutated(basis):
            constants = zero_point(basis)
            return replace(constants, S0=with_nan(constants.S0))

        return mutated

    wrap(monkeypatch, fields, "zero_point", make)


def field_number_nan(monkeypatch):
    """The closed form of [A_x, N] carries a NaN (A_z stores no entry on the +-z lattice)."""

    def make(field_number_commutator):
        def mutated(basis, kind, x):
            ops = field_number_commutator(basis, kind, x)
            return (nan_entry(ops[0]), *ops[1:]) if FieldKind(kind) is FieldKind.A else ops

        return mutated

    wrap(monkeypatch, fields, "field_number_commutator", make)


def expectations_nan(monkeypatch):
    """The closed mean field of A carries a NaN at its last point."""

    def make(table):
        def mutated(state, kind, r, t):
            value = table(state, kind, r, t)
            return with_nan(value) if FieldKind(kind) is FieldKind.A else value

        return mutated

    wrap(monkeypatch, ensembles, "mean_field_table", make)


MAXWELL = ["maxwell.analytic", "maxwell.fd", "maxwell.richardson"]

MUTANTS = {
    "n_for_sqrt_n": (
        n_for_sqrt_n,
        [
            "commutators.matrix_vs_closed",
            "ladder.canonical",
            "observables.energy",
            "observables.momentum",
            "observables.spin",
        ],
    ),
    "eb_closed_form_sign": (eb_closed_form_sign, ["commutators.matrix_vs_closed"]),
    "field_number_negated": (field_number_negated, ["commutators.field_number"]),
    "time_phase_sign": (time_phase_sign, ["commutators.matrix_vs_closed", "maxwell.fd", "maxwell.richardson"]),
    "space_phase_sign": (space_phase_sign, ["maxwell.fd", "maxwell.richardson"]),
    "amplitude_profile_conj": (amplitude_profile_conj, ["expectations.two_path"]),
    "mean_field_conj": (mean_field_conj, ["expectations.two_path"]),
    "box_volume_squared": (box_volume_squared, ["observables.energy", "observables.momentum", "observables.spin"]),
    "zero_point_energy_halved": (zero_point_energy_halved, ["observables.energy"]),
    "k_cross_eps_negated": (k_cross_eps_negated, ["commutators.matrix_vs_closed", *MAXWELL, "observables.momentum"]),
    # The stored vacuum terms keep the true omega, so vacuum_square sees the mismatch too.
    "omega_off": (
        omega_off,
        ["expectations.vacuum_square", "maxwell.analytic", "maxwell.richardson", "observables.momentum"],
    ),
    "vacuum_term_off": (vacuum_term_off, ["expectations.vacuum_square"]),
    "spin_without_helicity": (spin_without_helicity, ["observables.spin"]),
    # E-E and B-B lose the projector alike, so ee_equals_bb still passes.
    "ee_kernel_without_projector": (ee_kernel_without_projector, ["commutators.matrix_vs_closed"]),
    # The nine below exit 0 on the same lattice with L = 2 pi and hbar = c = 1.
    "phase_without_hbar": (phase_without_hbar, ["maxwell.fd", "maxwell.richardson"]),
    "zero_point_energy_without_hbar": (zero_point_energy_without_hbar, ["observables.energy"]),
    "cross_observables_without_c": (cross_observables_without_c, ["observables.momentum", "observables.spin"]),
    "potential_without_c": (potential_without_c, [*MAXWELL, "observables.spin"]),
    "potential_over_omega": (potential_over_omega, [*MAXWELL, "observables.spin"]),
    "delta3p_for_its_root": (
        delta3p_for_its_root,
        [
            "commutators.matrix_vs_closed",
            "expectations.vacuum_square",
            "observables.energy",
            "observables.momentum",
            "observables.spin",
        ],
    ),
    "spin_without_hbar": (spin_without_hbar, ["observables.spin"]),
    "ee_kernel_delta3p_squared": (
        ee_kernel_delta3p_squared,
        ["commutators.ee_equals_bb", "commutators.matrix_vs_closed"],
    ),
    "potential_time_without_c": (potential_time_without_c, MAXWELL),
    "spin_matrices_without_hbar": (spin_matrices_without_hbar, ["helicity.eigenvalue"]),
    "polarization_nan": (polarization_nan, ["polarization.relations"]),
    "helicity_nan": (helicity_nan, ["helicity.eigenvalue"]),
    "ladder_nan": (ladder_nan, ["ladder.adjoint"]),
    "observables_nan": (observables_nan, ["observables.conservation"]),
    "maxwell_nan": (maxwell_nan, MAXWELL),
    "commutators_nan": (commutators_nan, ["commutators.matrix_vs_closed"]),
    "expectations_nan": (expectations_nan, ["expectations.two_path"]),
    # These two reach a residual through fock._block_maxima: masked in the difference table, and unmasked in the commutator table.
    "zero_point_nan": (zero_point_nan, ["observables.spin"]),
    "field_number_nan": (field_number_nan, ["commutators.field_number"]),
}


def failing_records(tmp_path):
    """verify's exit code and the checks of its failed records, in report order."""
    out = tmp_path / "o"
    code = cli.main(["verify", "--out", str(out)])
    records = json.loads((out / "report.json").read_text())["records"]
    return code, [r["check"] for r in records if not r["pass"]]


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_mutant_fails_verify(tmp_path, monkeypatch, mutant):
    apply, failing = MUTANTS[mutant]
    apply(monkeypatch)
    assert failing_records(tmp_path) == (1, failing)
