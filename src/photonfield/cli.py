"""Configuration-driven verification suites and plot-data emission.

Subcommands:

    verify         run the selected identity checks, write report.json
    expect         evaluate the mean-field grid for the scenario state
    vacuum-scan    closed lattice sum of vacuum <E^2> against a momentum cutoff
    dump-operator  export one named operator in coordinate-list text form

parse_scenario checks every field before any work and returns the state as
the (occupancies, amplitude) terms of ensembles.superposition, so build_state
parses nothing.  --operator is parsed into a builder before any basis is built.

Each check runner hands its residual arrays to RunContext.record, the one
place where they are reduced to a verdict: the worst absolute value, with
NaN propagated, passes only when finite and within the record's fixed
tolerance.  report.json writes a non-finite worst value as null.  The
RunContext also builds the basis and each mode's ladder operators once per
run, for every check that reads them.

Exit codes: 0 all checks pass, 1 at least one residual exceeded its
tolerance or was not finite, 2 configuration or precondition error (ConfigError,
LatticeSizeError); any other exception is a defect and propagates.  The
commutators check's precondition (fields.closed_form_gap) is a ConfigError
of run_verify before its first check, so fields.CompletenessError is a
defect here.  Outputs are byte-stable across runs: all sampling is seeded
and the seed is recorded in the report.  Each check that samples draws from
its own standard-library Mersenne Twister (random.Random), seeded by the
string "<seed>/<stream id>", so its draws depend neither on the other checks
selected nor on PYTHONHASHSEED; only uniforms are drawn (_uniforms).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import ensembles, fields, fock, polarization, spin
from .fields import FieldKind, SpacetimePoint
from .fock import FockBasis, LatticeConfig

SCHEMA_VERSION = 1

CHECK_NAMES = (
    "polarization",
    "helicity",
    "ladder",
    "observables",
    "maxwell",
    "commutators",
    "expectations",
)

# Stable per-check stream ids so adding or re-ordering checks does not
# change the random draws of the others.
_CHECK_STREAMS = {name: i for i, name in enumerate(CHECK_NAMES)}


class ConfigError(ValueError):
    """Scenario file failed validation; message carries the field path."""


# ---------------------------------------------------------------------------
# scenario


@dataclass(frozen=True)
class GridSpec:
    t_start: float
    t_stop: float
    samples: int
    r: tuple[float, float, float]
    kind: FieldKind = FieldKind.E

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked sample positions (samples, 3) and times (samples,), all finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            t = np.linspace(self.t_start, self.t_stop, self.samples)
        r = np.tile(self.r, (self.samples, 1))
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise ConfigError("scenario.grid: every sample point must be finite")
        return r, t


SCAN_CUTOFFS = (1, 2, 3, 4)
# Bounds on the scenario's size fields, refused at parse time.  At the bound,
# on a 12-mode lattice (the most modes NNZ_BUDGET admits), expect took
# 0.25-0.45 s with a tracemalloc peak of 4.8 MiB, and the scan over cutoffs
# 1..64 took 0.13-0.19 s with a peak of 3.2 MiB (2-vCPU x86_64 host, whose
# speed varies by half from run to run).  Both stream fixed-size blocks
# (ensembles.GRID_BLOCK, ensembles.SCAN_BLOCK), so their memory stays flat as
# the grid or the cutoff grows; the bounds limit their run time.
GRID_SAMPLES_MAX = 1 << 16
SCAN_CUTOFF_MAX = 64


@dataclass(frozen=True)
class Scenario:
    lattice: LatticeConfig
    state: tuple[tuple[tuple[int, ...], complex], ...]  # (occupancies, amplitude) terms
    checks: tuple[str, ...]
    seed: int
    grid: GridSpec | None = None
    scan_cutoffs: tuple[int, ...] = SCAN_CUTOFFS


DEFAULT_SCENARIO = {
    "schema": SCHEMA_VERSION,
    "lattice": {
        "length": 5.0,
        "n_max": 3,
        "hbar": 0.7,
        "c": 1.3,
        "modes": [
            {"s": 1, "n": [0, 0, 1]},
            {"s": -1, "n": [0, 0, 1]},
            {"s": 1, "n": [0, 0, -1]},
            {"s": -1, "n": [0, 0, -1]},
        ],
    },
    "state": {
        "kind": "coherent",
        "alpha": [0.5, 0.0],
        "mode": {"s": 1, "n": [0, 0, 1]},
        "cap": 3,
    },
    "checks": list(CHECK_NAMES),
    "grid": {
        "t_start": 0.0,
        "t_stop": 2.0 * np.pi,
        "samples": 16,
        "r": [0.0, 0.0, 0.0],
        "kind": "E",
    },
    "seed": 20260808,
}


def _require_keys(data, path: str, required: set[str], optional: set[str] = frozenset()) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: must be an object, got {data!r}")
    for key in data:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}: unknown key {key!r}")
    for key in sorted(required):
        if key not in data:
            raise ConfigError(f"{path}: missing required key {key!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_mode_key(data, path: str) -> tuple[int, tuple[int, int, int]]:
    _require_keys(data, path, {"s", "n"})
    s = data["s"]
    n = data["n"]
    if not _is_int(s) or s not in (1, -1):
        raise ConfigError(f"{path}.s: helicity must be 1 or -1, got {s!r}")
    if not (isinstance(n, list) and len(n) == 3 and all(_is_int(v) for v in n)):
        raise ConfigError(f"{path}.n: lattice momentum must be a list of 3 integers")
    if any(abs(v) > fock.MODE_COMPONENT_MAX for v in n):
        raise ConfigError(
            f"{path}.n: each component must lie in -2**53..2**53 (exact as an int64 and as a float), got {n!r}"
        )
    return int(s), (n[0], n[1], n[2])


def _positive_int(value, path: str, top: int | None = None) -> int:
    if not _is_int(value) or value < 1:
        raise ConfigError(f"{path}: must be an integer >= 1, got {value!r}")
    if top is not None and value > top:
        raise ConfigError(f"{path}: must be at most {top}, got {value!r}")
    return value


def _finite(value, path: str) -> float:
    # abs(value) <= max float is False for NaN and infinities, and for
    # integers too large to convert.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}: must be a finite number, got {value!r}")
    return float(value)


def _finite_vector(data, path: str) -> tuple[float, float, float]:
    if not (isinstance(data, list) and len(data) == 3):
        raise ConfigError(f"{path}: must be a list of 3 numbers, got {data!r}")
    return tuple(_finite(v, f"{path}[{i}]") for i, v in enumerate(data))


def _parse_complex(data, path: str) -> complex:
    if not (isinstance(data, list) and len(data) == 2):
        raise ConfigError(f"{path}: complex values are [re, im] pairs")
    return complex(_finite(data[0], f"{path}[0]"), _finite(data[1], f"{path}[1]"))


def _check_gauge_reference(data, lattice: LatticeConfig, path: str) -> LatticeConfig:
    """The lattice with a nonzero reference axis that no mode's momentum is (nearly) parallel to."""
    reference = _finite_vector(data, path)
    if not any(reference):
        raise ConfigError(f"{path}: must be a nonzero vector")
    lattice = replace(lattice, gauge_reference=reference)
    try:
        fock.ModeTable(lattice)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err
    return lattice


def _parse_occupancies(data, lattice: LatticeConfig, path: str) -> tuple[int, ...]:
    if not (isinstance(data, list) and len(data) == len(lattice.modes)):
        raise ConfigError(f"{path}: must be a list of {len(lattice.modes)} occupancies, one per lattice mode")
    for i, v in enumerate(data):
        if not _is_int(v) or not 0 <= v <= lattice.n_max:
            raise ConfigError(f"{path}[{i}]: occupancy must be an integer in 0..{lattice.n_max} (n_max), got {v!r}")
    return tuple(data)


def _parse_state(state, lattice: LatticeConfig) -> dict[tuple[int, ...], complex]:
    """scenario.state as the {occupancies: amplitude} terms ensembles.superposition takes.

    FockState divides by the norm of the terms, so every kind's norm must be
    finite and nonzero: squares that underflow make it 0, squares that
    overflow make it inf.
    """
    if not isinstance(state, dict) or "kind" not in state:
        raise ConfigError("scenario.state: must be an object with a 'kind'")
    kind = state["kind"]
    path = "scenario.state"
    if kind == "vacuum":
        _require_keys(state, "scenario.state", {"kind"})
        terms = {(0,) * len(lattice.modes): 1.0}
    elif kind == "number":
        _require_keys(state, "scenario.state", {"kind", "occupancies"})
        terms = {_parse_occupancies(state["occupancies"], lattice, "scenario.state.occupancies"): 1.0}
    elif kind == "coherent":
        _require_keys(state, "scenario.state", {"kind", "alpha", "mode", "cap"})
        mode = _parse_mode_key(state["mode"], "scenario.state.mode")
        if mode not in lattice.modes:
            raise ConfigError(f"scenario.state.mode: mode {mode} is not on the lattice")
        alpha = _parse_complex(state["alpha"], "scenario.state.alpha")
        cap = state["cap"]
        if not _is_int(cap) or not 0 <= cap <= lattice.n_max:
            raise ConfigError(f"scenario.state.cap: must be an integer in 0..{lattice.n_max} (n_max), got {cap!r}")
        try:
            terms = ensembles.coherent_profile(alpha, mode, cap).terms(lattice.modes)
        except OverflowError:
            terms = {}
        path = "scenario.state.alpha"
    elif kind == "superposition":
        _require_keys(state, "scenario.state", {"kind", "terms"})
        if not isinstance(state["terms"], list) or not state["terms"]:
            raise ConfigError("scenario.state.terms: must be a nonempty list")
        terms = {}
        for i, term in enumerate(state["terms"]):
            term_path = f"scenario.state.terms[{i}]"
            _require_keys(term, term_path, {"occupancies", "amplitude"})
            occupancies = _parse_occupancies(term["occupancies"], lattice, f"{term_path}.occupancies")
            if occupancies in terms:
                raise ConfigError(f"{term_path}.occupancies: repeats an earlier term's occupancies")
            terms[occupancies] = _parse_complex(term["amplitude"], f"{term_path}.amplitude")
        path = "scenario.state.terms"
    else:
        raise ConfigError(f"scenario.state.kind: unknown state kind {kind!r}")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(np.array(list(terms.values()))))
    if not 0 < norm < np.inf:
        raise ConfigError(f"{path}: the amplitude norm must be finite and nonzero, got {norm!r}")
    return terms


def parse_scenario(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ConfigError("scenario: top level must be an object")
    _require_keys(data, "scenario", {"schema", "lattice", "state", "checks", "seed"}, {"grid", "vacuum_scan"})
    if data["schema"] != SCHEMA_VERSION:
        raise ConfigError(f"scenario.schema: expected {SCHEMA_VERSION}, got {data['schema']!r}")

    lat = data["lattice"]
    _require_keys(lat, "scenario.lattice", {"length", "n_max", "modes"}, {"hbar", "c", "gauge_reference"})
    if not isinstance(lat["modes"], list):
        raise ConfigError(f"scenario.lattice.modes: must be a list of modes, got {lat['modes']!r}")
    modes = tuple(
        _parse_mode_key(m, f"scenario.lattice.modes[{i}]") for i, m in enumerate(lat["modes"])
    )
    numbers = {
        "length": _finite(lat["length"], "scenario.lattice.length"),
        "n_max": _positive_int(lat["n_max"], "scenario.lattice.n_max"),
        "hbar": _finite(lat.get("hbar", 1.0), "scenario.lattice.hbar"),
        "c": _finite(lat.get("c", 1.0), "scenario.lattice.c"),
    }
    try:
        lattice = LatticeConfig(modes=modes, **numbers)
    except ValueError as err:
        raise ConfigError(f"scenario.lattice: {err}") from err
    if "gauge_reference" in lat:
        lattice = _check_gauge_reference(lat["gauge_reference"], lattice, "scenario.lattice.gauge_reference")

    state = _parse_state(data["state"], lattice)

    checks = data["checks"]
    if not isinstance(checks, list) or not checks:
        raise ConfigError("scenario.checks: must be a nonempty list")
    for name in checks:
        if name not in CHECK_NAMES:
            raise ConfigError(
                f"scenario.checks: unknown check {name!r}; registered checks: {', '.join(CHECK_NAMES)}"
            )
    repeated = next((name for i, name in enumerate(checks) if name in checks[:i]), None)
    if repeated is not None:
        raise ConfigError(f"scenario.checks: check {repeated!r} is listed more than once")

    grid = None
    if "grid" in data:
        g = data["grid"]
        _require_keys(g, "scenario.grid", {"t_start", "t_stop", "samples", "r"}, {"kind"})
        kind_name = g.get("kind", "E")
        if kind_name not in ("E", "B", "A"):
            raise ConfigError(f"scenario.grid.kind: must be one of E, B, A, got {kind_name!r}")
        grid = GridSpec(
            t_start=_finite(g["t_start"], "scenario.grid.t_start"),
            t_stop=_finite(g["t_stop"], "scenario.grid.t_stop"),
            samples=_positive_int(g["samples"], "scenario.grid.samples", GRID_SAMPLES_MAX),
            r=_finite_vector(g["r"], "scenario.grid.r"),
            kind=FieldKind(kind_name),
        )
        grid.arrays()  # finite ends can still overflow between them

    cutoffs = SCAN_CUTOFFS
    if "vacuum_scan" in data:
        vs = data["vacuum_scan"]
        _require_keys(vs, "scenario.vacuum_scan", {"cutoffs"})
        path = "scenario.vacuum_scan.cutoffs"
        if not isinstance(vs["cutoffs"], list) or not vs["cutoffs"]:
            raise ConfigError(f"{path}: must be a nonempty list of integers")
        cutoffs = tuple(_positive_int(v, f"{path}[{i}]", SCAN_CUTOFF_MAX) for i, v in enumerate(vs["cutoffs"]))
        if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
            raise ConfigError(f"{path}: must be strictly increasing, got {list(cutoffs)}")
    try:
        ensembles.check_vacuum_scan(lattice.length, lattice.hbar, lattice.c, cutoffs)
    except ValueError as err:
        raise ConfigError(f"scenario.vacuum_scan: {err}") from err

    seed = data["seed"]
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"scenario.seed: must be a nonnegative integer, got {seed!r}")

    return Scenario(
        lattice=lattice,
        state=tuple(state.items()),
        checks=tuple(checks),
        seed=seed,
        grid=grid,
        scan_cutoffs=cutoffs,
    )


def build_state(scenario: Scenario, basis: FockBasis) -> ensembles.FockState:
    return ensembles.superposition(basis, dict(scenario.state))


# ---------------------------------------------------------------------------
# checks


@dataclass(frozen=True)
class Record:
    check: str
    params: dict
    residual: float
    tolerance: float
    passed: bool

    def as_json(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "residual": self.residual if np.isfinite(self.residual) else None,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass
class RunContext:
    scenario: Scenario
    _basis: FockBasis | None = None

    @property
    def basis(self) -> FockBasis:
        if self._basis is None:
            self._basis = fock.build_basis(self.scenario.lattice)
        return self._basis

    @functools.cached_property
    def ladders(self) -> tuple[list[fock.SparseOperator], list[fock.SparseOperator]]:
        """(a_m of every mode, a-dagger_m of every mode), built once per run."""
        basis = self.basis
        return [fock.annihilation(basis, m) for m in basis.modes], [fock.creation(basis, m) for m in basis.modes]

    def rng(self, check: str) -> random.Random:
        """The check's own Mersenne Twister, seeded by the string "<seed>/<stream id>".

        A string seed is hashed by SHA-512 whatever PYTHONHASHSEED is, and the
        string maps (seed, stream) one-to-one for seeds of any size.
        """
        return random.Random(f"{self.scenario.seed}/{_CHECK_STREAMS[check]}")

    def record(self, check: str, params: dict, residuals, tolerance: float) -> Record:
        """The verdict on residuals: an array, or a sequence of arrays or floats.

        The worst value is the largest np.abs over them all, reduced by numpy
        so that a NaN anywhere is the worst value.  The record passes only
        when that value is finite and within tolerance; with no value at all
        it is -inf, and the record fails.
        """
        arrays = residuals if isinstance(residuals, (list, tuple)) else [residuals]
        worst = float(np.max([np.max(np.abs(a), initial=-np.inf) for a in arrays], initial=-np.inf))
        return Record(
            check=check,
            params=params,
            residual=worst,
            tolerance=float(tolerance),
            passed=bool(np.isfinite(worst) and worst <= tolerance),
        )


def _uniforms(rng: random.Random, shape: tuple[int, ...]) -> np.ndarray:
    """Uniforms in [0, 1) of the given shape, filled in C order.

    Each is the top 53 bits of one rng.getrandbits(64) word times 2**-53, so
    a stacked draw equals the same values drawn one row at a time.
    """
    words = np.frombuffer(rng.randbytes(8 * math.prod(shape)), dtype="<u8")
    return ((words >> 11) * 2.0**-53).reshape(shape)


def _random_directions(rng: random.Random, count: int) -> np.ndarray:
    """count unit rows, stacked (count, 3), uniform on the sphere.

    Archimedes' map of one (count, 2) uniform draw (u, v): z = 2u - 1,
    phi = 2 pi v, row (sqrt(1 - z^2) cos phi, sqrt(1 - z^2) sin phi, z).
    """
    u = _uniforms(rng, (count, 2))
    z, phi = 2.0 * u[:, 0] - 1.0, 2.0 * np.pi * u[:, 1]
    rho = np.sqrt(1.0 - z * z)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def _near_singular_directions(count: int) -> np.ndarray:
    """Directions with the closed-form helicity normalization almost vanishing, (count, 3)."""
    base = np.ones(3) / np.sqrt(3.0)
    u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    v = base + np.geomspace(1e-5, 6e-4, count)[:, None] * u
    return v / np.sqrt(np.vecdot(v, v))[:, None]


def check_polarization(ctx: RunContext) -> list[Record]:
    rng = ctx.rng("polarization")
    count = 1000
    axes = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0, 0, -1.0]])
    k = np.concatenate([axes, _random_directions(rng, count - len(axes))])
    _, _, eps_plus, eps_minus = polarization.triads(k)
    relations = list(polarization.relation_residuals(k, eps_plus, eps_minus).values())
    m = polarization.completeness_matrices(eps_plus, eps_minus)
    _, _, again_plus, again_minus = polarization.triads(k.copy())
    return [
        ctx.record("polarization.relations", {"directions": count}, relations, 1e-12),
        ctx.record("polarization.projector", {"directions": count}, [m @ m - m, m @ k[:, :, None]], 1e-12),
        ctx.record(
            "polarization.determinism", {"directions": count}, [again_plus - eps_plus, again_minus - eps_minus], 0.0
        ),
    ]


def check_helicity(ctx: RunContext) -> list[Record]:
    rng = ctx.rng("helicity")
    count = 1000
    near = 10
    singular = np.array([np.ones(3), -np.ones(3)]) / np.sqrt(3.0)
    generic = count - near - len(singular)
    k = np.concatenate([_random_directions(rng, generic), _near_singular_directions(near), singular])
    chi = np.stack(spin.helicity_vectors(k), axis=1)  # (direction, helicity, component)
    signs = np.array([1.0, -1.0])[:, None]
    hbar = ctx.scenario.lattice.hbar
    # S.k for every row with the scenario's hbar; same sums as SpinMatrices.dotted on one direction.
    sk = spin.spin_matrices(hbar).dotted(k.T[:, :, None, None])
    # S.k chi_s = s hbar chi_s, relative to hbar.  The eigenvalue relation is
    # insensitive to the overall scale of chi and is asserted for every
    # direction; the norm-sensitive checks run on the generic population,
    # where the closed form is well conditioned.
    eigen = (sk[:, None] @ chi[..., None] - hbar * (signs * chi)[..., None]) / hbar
    chi = chi[:generic]
    _, _, eps_plus, eps_minus = polarization.triads(k[:generic])
    norms = np.sqrt(np.vecdot(chi.real, chi.real) + np.vecdot(chi.imag, chi.imag))
    orth = np.vecdot(chi[:, 0], chi[:, 1])
    overlap = np.vecdot(chi, np.stack([eps_plus, eps_minus], axis=1))
    # Complex moduli via hypot, as the scalar abs() takes them; np.abs on an
    # array may round differently.
    orth, overlap = np.hypot(orth.real, orth.imag), np.hypot(overlap.real, overlap.imag)
    return [
        ctx.record("helicity.eigenvalue", {"directions": count, "near_singular": near}, eigen, 1e-10),
        ctx.record("helicity.unit_norm", {"directions": generic}, norms - 1.0, 1e-10),
        ctx.record("helicity.orthogonality", {"directions": generic}, orth, 1e-10),
        ctx.record("helicity.polarization_overlap", {"directions": generic}, overlap - 1.0, 1e-10),
    ]


def check_ladder(ctx: RunContext) -> list[Record]:
    basis = ctx.basis
    n_modes = basis.n_modes
    a_ops, adag_ops = ctx.ladders
    adjoint = fock.difference_residuals(adag_ops, [a.dagger() for a in a_ops])
    # Row i of the table: [a_i, a_j], then [a_i, a-dagger_j] less the identity for j = i;
    # reduced over every state, then over the margin-1 safe states.
    diag = np.arange(n_modes)
    eye = fock.identity(basis)
    keep = np.stack([np.ones(basis.dim, dtype=bool), fock.safe_states(basis, 1)])
    table = fock.commutator_residuals(a_ops, a_ops + adag_ops, {(i, n_modes + i): eye for i in diag}, keep)
    # Cross-mode pairs: [a_i, a_j] for j >= i and [a_i, a-dagger_j] for j > i.
    upper = np.triu(np.ones((n_modes, n_modes), dtype=bool))
    cross = table[0][np.concatenate([upper, upper & ~np.eye(n_modes, dtype=bool)], axis=1)]
    # [a, a-dagger] = (n + 1) - n carries the rounding of a a-dagger, whose largest
    # entry on the margin-1 states is n_max: the residual is relative to it.
    canonical = table[1][diag, n_modes + diag] / basis.n_max
    return [
        ctx.record("ladder.canonical", {"modes": n_modes, "margin": 1}, canonical, 1e-12),
        ctx.record("ladder.cross_mode", {"modes": n_modes}, cross, 1e-13),
        ctx.record("ladder.adjoint", {"modes": n_modes}, adjoint, 0.0),
    ]


def _quadratic_observables(basis: FockBasis, t: float) -> list[fock.SparseOperator]:
    """[H, Px, Py, Pz, Sx, Sy, Sz] as box integrals of the fields at time t."""
    return [
        fields.quadratic_H_from_fields(basis, t=t),
        *fields.quadratic_P_from_fields(basis, t=t),
        *fields.quadratic_S_from_fields(basis, t=t),
    ]


def check_observables(ctx: RunContext) -> list[Record]:
    basis = ctx.basis
    h_diag, p_diag, s_diag = fields.observable_diagonals(basis)
    zp = fields.zero_point(basis)
    # On the margin-1 safe states each box integral equals its diagonal plus
    # its zero-point constant, relative to the largest target entry of H and
    # to the largest diagonal entry (at least |E0|) of P and of S.
    targets = [h_diag + zp.E0, *(p_diag + zp.P0[:, None]), *(s_diag + zp.S0[:, None])]
    h_scale = np.maximum(abs(targets[0]).max(), 1e-300)
    p_scale, s_scale = (np.maximum(abs(d).max(), abs(zp.E0)) for d in (p_diag, s_diag))
    early = _quadratic_observables(basis, 0.0)
    diagonals = [fock.diagonal_operator(basis, target) for target in targets]
    table = fock.difference_residuals(early, diagonals, fock.safe_states(basis, 1))
    table /= np.repeat([h_scale, p_scale, s_scale], [1, 3, 3])
    records = [
        ctx.record(f"observables.{name}", {"margin": 1, "t": 0.0}, part, 1e-10)
        for name, part in zip(("energy", "momentum", "spin"), np.split(table, [1, 4]))
    ]
    # Conservation: the quadratic observables do not depend on the field
    # evaluation time.
    drift = fock.difference_residuals(early, _quadratic_observables(basis, 0.37)) / np.maximum(abs(h_diag).max(), 1.0)
    records.append(ctx.record("observables.conservation", {"t_other": 0.37}, drift, 1e-10))
    return records


def check_maxwell_suite(ctx: RunContext) -> list[Record]:
    basis = ctx.basis
    x = SpacetimePoint(r=np.array([0.3, -0.2, 0.15]), t=0.1)
    h = 1e-3
    analytic = fields.check_maxwell(basis, x, h, method="analytic")
    analytic.update(fields.check_derivative_relations(basis, x, h, method="analytic"))
    fd = fields.check_maxwell(basis, x, h, method="fd")
    fd.update(fields.check_derivative_relations(basis, x, h, method="fd"))
    fd_half = fields.check_maxwell(basis, x, h / 2.0, method="fd")
    fd_half.update(fields.check_derivative_relations(basis, x, h / 2.0, method="fd"))
    # Second-order stencils: halving h should divide the residual by ~4.
    # Residuals already at the roundoff floor (possible when stencil errors
    # cancel between the two sides of an equation) carry no ratio signal.
    # With no such ratio the order is not shown: the record fails, with the
    # deviation 3.0 of a residual that did not shrink at all (ratio 1).  A NaN
    # residual is not at the floor, so its ratio is kept.
    ratios = [fd[name] / fd_half[name] for name in fd_half if not fd_half[name] <= 1e-12]
    return [
        ctx.record("maxwell.analytic", {"h": h}, list(analytic.values()), 1e-12),
        ctx.record("maxwell.fd", {"h": h}, list(fd.values()), 1e-6),
        ctx.record("maxwell.richardson", {"h": h}, np.subtract(ratios, 4.0) if ratios else 3.0, 0.8),
    ]


def check_commutators(ctx: RunContext) -> list[Record]:
    basis = ctx.basis
    rng = ctx.rng("commutators")
    length = basis.config.length
    pairs = 20
    # Each row of the draw is one pair: r1, r2 in the box, then t1, t2 in [-1, 1).
    draws = _uniforms(rng, (pairs, 8))
    # Row `pairs` is an equal-time pair: its commutators vanish on the safe subspace.
    r = np.concatenate([length * (draws[:, :6] - 0.5).reshape(pairs, 2, 3), [[[0.2, 0.4, -0.3], [-0.1, 0.8, 0.6]]]])
    t = np.concatenate([2.0 * draws[:, 6:] - 1.0, [[0.5, 0.5]]])
    # The (B, E) kernel carries its own sign, so it is checked apart from (E, B).
    e, b = FieldKind.E, FieldKind.B
    kinds = ((e, e), (b, b), (e, b), (b, e))
    rho, tau = r[:pairs, 0] - r[:pairs, 1], t[:pairs, 0] - t[:pairs, 1]
    closed = [fields.field_commutator_kernel(basis, *k, rho, tau) for k in kinds]
    coeffs = {(f, s): fields.mode_coefficients(basis, f, r[:, s], t[:, s]) for f in (e, b) for s in (0, 1)}
    w = [fields.commutator_weights(coeffs[f1, 0], coeffs[f2, 1]) for f1, f2 in kinds]
    # On the margin-1 safe subspace each commutator is the sum of its weights.
    cross = [wk[:pairs].sum(-1) - c for wk, c in zip(w, closed)]
    # Anchor: the first pair's E-E commutators as assembled operators, over the
    # whole truncated space, against sum_m w_m [a_m, a-dagger_m] (1 below the cap, -n_max at it).
    d_table = np.where(basis.occupancy_table() < basis.n_max, 1.0, -float(basis.n_max))
    diagonals = np.einsum("ijm,sm->ijs", w[0][0], d_table)
    e1, e2 = (fields.field(basis, FieldKind.E, SpacetimePoint(r=r[0, s], t=float(t[0, s]))) for s in (0, 1))
    targets = {(i, j): fock.diagonal_operator(basis, diagonals[i, j]) for i, j in np.ndindex(3, 3)}
    cross.append(fock.commutator_residuals(e1, e2, targets))
    # [field, N] equals its sign-flipped closed form everywhere; N is diagonal,
    # so each commutator is formed on the field's own arrays.
    x = SpacetimePoint(r=np.array([0.7, -0.4, 0.2]), t=0.3)
    all_kinds = (FieldKind.E, FieldKind.B, FieldKind.A)
    ops = [op for kind in all_kinds for op in fields.field(basis, kind, x)]
    flipped = [op for kind in all_kinds for op in fields.field_number_commutator(basis, kind, x)]
    n = basis.occupancy_table().sum(axis=1)
    number = fock.difference_residuals([fock.diagonal_commutator(op, n) for op in ops], flipped)
    return [
        ctx.record("commutators.matrix_vs_closed", {"pairs": pairs, "margin": 1}, cross, 1e-10),
        ctx.record("commutators.equal_time", {"kinds": ["E", "B"]}, [w[0][pairs].sum(-1), w[1][pairs].sum(-1)], 1e-12),
        ctx.record("commutators.ee_equals_bb", {"pairs": pairs}, closed[0] - closed[1], 1e-12),
        ctx.record("commutators.field_number", {"kinds": ["E", "B", "A"]}, number, 1e-12),
    ]


def check_expectations(ctx: RunContext) -> list[Record]:
    basis = ctx.basis
    scenario = ctx.scenario
    rng = ctx.rng("expectations")
    if scenario.grid is not None:
        r, t = scenario.grid.arrays()
    else:
        # Each row of the draw is one point in [-1, 1)^4: r, then t.
        draws = 2.0 * _uniforms(rng, (8, 4)) - 1.0
        r, t = draws[:, :3], draws[:, 3]
    # The scenario state, then a complex random state: its <a_m> != <a-dagger_m>,
    # so a conjugation error cannot cancel.  Both parts are uniform in [-1, 1).
    z = 2.0 * _uniforms(rng, (2, basis.dim)) - 1.0
    states = (build_state(scenario, basis), ensembles.FockState(basis, z[0] + 1j * z[1]))
    # Matrix side: <a_m> and <a-dagger_m> on assembled ladder operators, summed
    # over the mode coefficients; closed side: amplitude_profile, mean_field_table.
    ladders = list(zip(*ctx.ladders))
    means = [ensembles.ladder_expectations(s, ladders) for s in states]
    first = SpacetimePoint(r=r[0], t=float(t[0]))
    residuals = []
    for kind in (FieldKind.E, FieldKind.B, FieldKind.A):
        coeffs = fields.mode_coefficients(basis, kind, r, t)
        matrix = [ensembles.ladder_mean_field(coeffs, m) for m in means]
        closed = [ensembles.mean_field_table(s, kind, r, t)[:, 4:] for s in states]
        residuals += [c - m for c, m in zip(closed, matrix)]
        # Anchor: the scenario state's assembled field operators at the first point.
        assembled = [ensembles.expectation(op, states[0]) for op in fields.field(basis, kind, first)]
        residuals.append(np.real(assembled) - matrix[0][0])
    vac = ensembles.vacuum(basis)
    x0 = SpacetimePoint(r=np.zeros(3), t=0.0)
    e_ops = fields.field(basis, FieldKind.E, x0)
    e2_matrix = sum(
        np.real(ensembles.expectation(op @ op, vac)) for op in e_ops
    )
    e2_closed = ensembles.vacuum_field_square(basis)
    return [
        ctx.record("expectations.two_path", {"points": len(t)}, residuals, 1e-10),
        ctx.record("expectations.vacuum_square", {"at": "origin"}, (e2_matrix - e2_closed) / e2_closed, 1e-12),
    ]


CHECK_RUNNERS = {
    "polarization": check_polarization,
    "helicity": check_helicity,
    "ladder": check_ladder,
    "observables": check_observables,
    "maxwell": check_maxwell_suite,
    "commutators": check_commutators,
    "expectations": check_expectations,
}


# ---------------------------------------------------------------------------
# commands


def run_verify(scenario: Scenario, out_dir: Path) -> int:
    # Refused before any check runs; the other commands ignore scenario.checks.
    if "commutators" in scenario.checks:
        gap = fields.closed_form_gap(fock.ModeTable(scenario.lattice))
        if gap is not None:
            raise ConfigError(f"scenario.lattice.modes: {gap} (needed by the commutators check)")
    ctx = RunContext(scenario)
    records: list[Record] = []
    for name in scenario.checks:
        records.extend(CHECK_RUNNERS[name](ctx))
    records.sort(key=lambda r: (r.check, json.dumps(r.params, sort_keys=True)))
    report = {
        "schema": SCHEMA_VERSION,
        "seed": scenario.seed,
        "records": [r.as_json() for r in records],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n")
    for r in records:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.check} residual={r.residual!r} tolerance={r.tolerance!r}")
    failed = sum(not r.passed for r in records)
    print(f"{len(records) - failed}/{len(records)} checks passed -> {path}")
    return 0 if failed == 0 else 1


def run_expect(scenario: Scenario, out_dir: Path) -> int:
    if scenario.grid is None:
        raise ConfigError("scenario.grid: required for the expect command")
    basis = fock.build_basis(scenario.lattice)
    state = build_state(scenario, basis)
    r, t = scenario.grid.arrays()
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "grid.csv"
    with path.open("w") as stream:
        ensembles.write_grid_csv(ensembles.mean_field_blocks(state, scenario.grid.kind, r, t), stream)
    print(f"{len(t)} grid rows -> {path}")
    return 0


def run_vacuum_scan(scenario: Scenario, out_dir: Path) -> int:
    lat = scenario.lattice
    rows = ensembles.vacuum_field_square_scan(lat.length, lat.hbar, lat.c, scenario.scan_cutoffs)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "vacuum_scan.csv"
    with path.open("w") as stream:
        stream.write("cutoff,E2\n")
        for cutoff, value in rows:
            stream.write(f"{cutoff},{value!r}\n")
    print(f"{len(rows)} scan rows -> {path}")
    return 0


def _operator_builder(name: str, lattice: LatticeConfig) -> Callable[[FockBasis], fock.SparseOperator]:
    """--operator as a builder on the scenario's basis; a bad name is refused before any basis exists."""
    head, at, tail = name.partition("@")
    axis = "xyz".find(head[1:]) if len(head) == 2 else -1
    # Built per call, not at import, so that module functions rebound by a
    # profiler are the ones called.
    observables = {"N": fock.total_number, "H": fields.observable_H, "P": fields.observable_P, "S": fields.observable_S}
    if not at and name in ("N", "H"):
        return observables[name]
    if not at and axis >= 0 and head[0] in "PS":
        return lambda basis: observables[head[0]](basis)[axis]
    if at and head in ("a", "adag", "N"):
        # int() also reads "00" and "01"; a mode index is written without leading zeros.
        plain = tail.isascii() and tail.isdigit() and (tail == "0" or tail[0] != "0")
        j = int(tail) if plain else -1
        if not 0 <= j < len(lattice.modes):
            raise ConfigError(f"operator {name!r}: mode index must be an integer in 0..{len(lattice.modes) - 1}")
        ladder = {"a": fock.annihilation, "adag": fock.creation, "N": fock.number_operator}[head]
        return lambda basis: ladder(basis, basis.modes[j])
    if at and axis >= 0 and head[0] in "EBA":
        # float() also reads "0_3", " 1" and non-ASCII digits; such a name is refused.
        plain = tail.isascii() and not any(ch == "_" or ch.isspace() for ch in tail)
        try:
            vals = [float(v) for v in tail.split(",")] if plain else []
        except ValueError:
            vals = []
        if len(vals) != 4 or not np.all(np.isfinite(vals)):
            raise ConfigError(f"operator {name!r}: expected '<F><c>@rx,ry,rz,t' with 4 finite numbers")
        x, kind = SpacetimePoint(r=np.array(vals[:3]), t=vals[3]), FieldKind(head[0])
        return lambda basis: fields.linear_forms(basis, fields.field_mode_coefficients(basis, kind, x)[:, [axis]])[0]
    raise ConfigError(
        f"unknown operator {name!r}; use N, H, Px/Py/Pz, Sx/Sy/Sz, a@<mode>, adag@<mode>, "
        f"N@<mode>, or Ex@rx,ry,rz,t (likewise B*, A*)"
    )


def run_dump_operator(scenario: Scenario, out_dir: Path, name: str) -> int:
    build = _operator_builder(name, scenario.lattice)
    op = build(fock.build_basis(scenario.lattice))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "operator.txt"
    with path.open("w") as stream:
        fock.export_operator(op, stream)
    print(f"operator {name} ({op.nnz} nonzeros) -> {path}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def load_scenario(path: str | None) -> Scenario:
    if path is None:
        return parse_scenario(DEFAULT_SCENARIO)
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"scenario file {path}: invalid JSON ({err})") from err
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"scenario file {path}: cannot be read ({err})") from err
    return parse_scenario(data)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args does not change it."""
    parser = argparse.ArgumentParser(
        prog="photonfield",
        description="Verification suites and data emission for lattice photon-field models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("verify", "expect", "vacuum-scan", "dump-operator"):
        p = sub.add_parser(cmd)
        p.add_argument("--config", default=None, help="scenario JSON (default: built-in scenario)")
        p.add_argument("--out", default="out", help="output directory")
        if cmd == "verify":
            p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        if cmd == "dump-operator":
            p.add_argument("--operator", required=True, help="operator name, e.g. H or a@0")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify" and args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed: must be a nonnegative integer, got {args.seed}")
        scenario = load_scenario(args.config)
        out_dir = Path(args.out)
        if args.command == "verify":
            if args.seed is not None:
                scenario = replace(scenario, seed=args.seed)
            return run_verify(scenario, out_dir)
        if args.command == "expect":
            return run_expect(scenario, out_dir)
        if args.command == "vacuum-scan":
            return run_vacuum_scan(scenario, out_dir)
        return run_dump_operator(scenario, out_dir, args.operator)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except fock.LatticeSizeError as err:
        # The size guards read the lattice: its mode count and n_max.
        print(f"error: scenario.lattice: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
