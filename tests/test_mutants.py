"""Mutants of the verify matrix path, each applied by monkeypatch.

Each mutant is a deliberately wrong copy of one library function.  verify
on the built-in scenario must exit 1, and exactly the records named here
must fail: a check that still passes with the mutant in place would not
be testing what it claims.
"""

import json

import pytest

from photonfield import cli, fields, fock


def n_for_sqrt_n(monkeypatch):
    """The ladder table stores n where a_j |n> carries sqrt(n) (and n + 1 for sqrt(n + 1))."""
    build_basis = fock.build_basis

    def mutated(config):
        basis = build_basis(config)
        basis.amplitude = basis.amplitude**2
        return basis

    monkeypatch.setattr(fock, "build_basis", mutated)


def eb_closed_form_sign(monkeypatch):
    """The E-B and B-E commutator kernels carry the wrong sign."""
    kernel = fields.field_commutator_kernel

    def mutated(basis, kind1, kind2, rho, tau):
        value = kernel(basis, kind1, kind2, rho, tau)
        return value if kind1 is kind2 else -value

    monkeypatch.setattr(fields, "field_commutator_kernel", mutated)


def field_number_negated(monkeypatch):
    """The closed form of [field, N] is negated."""
    closed = fields.field_number_commutator
    monkeypatch.setattr(fields, "field_number_commutator", lambda basis, kind, x: tuple(-op for op in closed(basis, kind, x)))


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
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_mutant_fails_verify(tmp_path, monkeypatch, mutant):
    apply, failing = MUTANTS[mutant]
    apply(monkeypatch)
    out = tmp_path / "o"
    assert cli.main(["verify", "--out", str(out)]) == 1
    records = json.loads((out / "report.json").read_text())["records"]
    assert [r["check"] for r in records if not r["pass"]] == failing
