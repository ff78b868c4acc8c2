"""Configuration-driven verification suites and plot-data emission.

Subcommands:

    verify         run the selected identity checks, write report.json
    expect         evaluate the mean-field grid for the scenario state
    vacuum-scan    closed lattice sum of vacuum <E^2> against a momentum cutoff
    dump-operator  export one named operator in coordinate-list text form

Exit codes: 0 all checks pass, 1 at least one residual exceeded its
tolerance, 2 configuration or precondition error (ConfigError,
CompletenessError, LatticeSizeError); any other exception is a defect and
propagates.  Outputs are byte-stable across runs: all sampling is seeded
and the seed is recorded in the report.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

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
    kind: str = "E"

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked sample positions (samples, 3) and times (samples,), all finite."""
        t = np.linspace(self.t_start, self.t_stop, self.samples)
        r = np.tile(self.r, (self.samples, 1))
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise ConfigError("scenario.grid: every sample point must be finite")
        return r, t

    def points(self) -> list[SpacetimePoint]:
        r, t = self.arrays()
        return [SpacetimePoint(r=row, t=float(v)) for row, v in zip(r, t)]


@dataclass(frozen=True)
class Scenario:
    lattice: LatticeConfig
    state: dict
    checks: tuple[str, ...]
    seed: int
    grid: GridSpec | None = None
    scan_cutoffs: tuple[int, ...] = (1, 2, 3, 4)


DEFAULT_SCENARIO = {
    "schema": SCHEMA_VERSION,
    "lattice": {
        "length": 2.0 * np.pi,
        "n_max": 3,
        "hbar": 1.0,
        "c": 1.0,
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


def _require_keys(data, allowed: set[str], required: set[str], path: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: must be an object, got {data!r}")
    for key in data:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r}")
    for key in required:
        if key not in data:
            raise ConfigError(f"{path}: missing required key {key!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_mode_key(data, path: str) -> tuple[int, tuple[int, int, int]]:
    _require_keys(data, {"s", "n"}, {"s", "n"}, path)
    s = data["s"]
    n = data["n"]
    if not _is_int(s) or s not in (1, -1):
        raise ConfigError(f"{path}.s: helicity must be 1 or -1, got {s!r}")
    if not (isinstance(n, list) and len(n) == 3 and all(_is_int(v) for v in n)):
        raise ConfigError(f"{path}.n: lattice momentum must be a list of 3 integers")
    return int(s), (n[0], n[1], n[2])


def _positive_int(value, path: str) -> int:
    if not _is_int(value) or value < 1:
        raise ConfigError(f"{path}: must be an integer >= 1, got {value!r}")
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


def _check_gauge_reference(data, modes, path: str) -> tuple[float, float, float]:
    """A nonzero reference axis that no mode's momentum is (nearly) parallel to."""
    reference = _finite_vector(data, path)
    if not any(reference):
        raise ConfigError(f"{path}: must be a nonzero vector")
    n = np.array([n for _, n in modes], dtype=float)
    try:
        polarization.triads(n / np.linalg.norm(n, axis=1)[:, None], reference=np.array(reference))
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err
    return reference


def _check_occupancies(data, lattice: LatticeConfig, path: str) -> None:
    if not (isinstance(data, list) and len(data) == len(lattice.modes)):
        raise ConfigError(f"{path}: must be a list of {len(lattice.modes)} occupancies, one per lattice mode")
    for i, v in enumerate(data):
        if not _is_int(v) or not 0 <= v <= lattice.n_max:
            raise ConfigError(f"{path}[{i}]: occupancy must be an integer in 0..{lattice.n_max} (n_max), got {v!r}")


def _check_state(state, lattice: LatticeConfig) -> None:
    """Validate scenario.state against the lattice, whichever checks run."""
    if not isinstance(state, dict) or "kind" not in state:
        raise ConfigError("scenario.state: must be an object with a 'kind'")
    kind = state["kind"]
    if kind == "vacuum":
        _require_keys(state, {"kind"}, {"kind"}, "scenario.state")
    elif kind == "number":
        _require_keys(state, {"kind", "occupancies"}, {"kind", "occupancies"}, "scenario.state")
        _check_occupancies(state["occupancies"], lattice, "scenario.state.occupancies")
    elif kind == "coherent":
        _require_keys(state, {"kind", "alpha", "mode", "cap"}, {"kind", "alpha", "mode", "cap"}, "scenario.state")
        mode = _parse_mode_key(state["mode"], "scenario.state.mode")
        if mode not in lattice.modes:
            raise ConfigError(f"scenario.state.mode: mode {mode} is not on the lattice")
        alpha = _parse_complex(state["alpha"], "scenario.state.alpha")
        cap = state["cap"]
        if not _is_int(cap) or not 0 <= cap <= lattice.n_max:
            raise ConfigError(f"scenario.state.cap: must be an integer in 0..{lattice.n_max} (n_max), got {cap!r}")
        try:
            amplitudes = ensembles.coherent_profile(alpha, mode, cap).amplitudes
        except OverflowError:
            amplitudes = ()
        if not any(amplitudes):
            raise ConfigError(f"scenario.state.alpha: the coherent profile up to cap {cap} is zero in floating point")
    elif kind == "superposition":
        _require_keys(state, {"kind", "terms"}, {"kind", "terms"}, "scenario.state")
        if not isinstance(state["terms"], list) or not state["terms"]:
            raise ConfigError("scenario.state.terms: must be a nonempty list")
        seen, amplitudes = set(), []
        for i, term in enumerate(state["terms"]):
            path = f"scenario.state.terms[{i}]"
            _require_keys(term, {"occupancies", "amplitude"}, {"occupancies", "amplitude"}, path)
            _check_occupancies(term["occupancies"], lattice, f"{path}.occupancies")
            occupancies = tuple(term["occupancies"])
            if occupancies in seen:
                raise ConfigError(f"{path}.occupancies: repeats an earlier term's occupancies")
            seen.add(occupancies)
            amplitudes.append(_parse_complex(term["amplitude"], f"{path}.amplitude"))
        if not any(amplitudes):
            raise ConfigError("scenario.state.terms: the amplitudes must not all be zero")
    else:
        raise ConfigError(f"scenario.state.kind: unknown state kind {kind!r}")


def parse_scenario(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ConfigError("scenario: top level must be an object")
    _require_keys(
        data,
        {"schema", "lattice", "state", "checks", "grid", "vacuum_scan", "seed"},
        {"schema", "lattice", "state", "checks", "seed"},
        "scenario",
    )
    if data["schema"] != SCHEMA_VERSION:
        raise ConfigError(f"scenario.schema: expected {SCHEMA_VERSION}, got {data['schema']!r}")

    lat = data["lattice"]
    _require_keys(
        lat,
        {"length", "n_max", "hbar", "c", "modes", "gauge_reference"},
        {"length", "n_max", "modes"},
        "scenario.lattice",
    )
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
        path = "scenario.lattice.gauge_reference"
        lattice = replace(lattice, gauge_reference=_check_gauge_reference(lat["gauge_reference"], lattice.modes, path))

    state = data["state"]
    _check_state(state, lattice)

    checks = data["checks"]
    if not isinstance(checks, list) or not checks:
        raise ConfigError("scenario.checks: must be a nonempty list")
    for name in checks:
        if name not in CHECK_NAMES:
            raise ConfigError(
                f"scenario.checks: unknown check {name!r}; registered checks: {', '.join(CHECK_NAMES)}"
            )

    grid = None
    if "grid" in data:
        g = data["grid"]
        _require_keys(
            g,
            {"t_start", "t_stop", "samples", "r", "kind"},
            {"t_start", "t_stop", "samples", "r"},
            "scenario.grid",
        )
        kind_name = g.get("kind", "E")
        if kind_name not in ("E", "B", "A"):
            raise ConfigError(f"scenario.grid.kind: must be one of E, B, A, got {kind_name!r}")
        grid = GridSpec(
            t_start=_finite(g["t_start"], "scenario.grid.t_start"),
            t_stop=_finite(g["t_stop"], "scenario.grid.t_stop"),
            samples=_positive_int(g["samples"], "scenario.grid.samples"),
            r=_finite_vector(g["r"], "scenario.grid.r"),
            kind=kind_name,
        )

    cutoffs = (1, 2, 3, 4)
    if "vacuum_scan" in data:
        vs = data["vacuum_scan"]
        _require_keys(vs, {"cutoffs"}, {"cutoffs"}, "scenario.vacuum_scan")
        path = "scenario.vacuum_scan.cutoffs"
        if not isinstance(vs["cutoffs"], list) or not vs["cutoffs"]:
            raise ConfigError(f"{path}: must be a nonempty list of integers")
        cutoffs = tuple(_positive_int(v, f"{path}[{i}]") for i, v in enumerate(vs["cutoffs"]))
        if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
            raise ConfigError(f"{path}: must be strictly increasing, got {list(cutoffs)}")

    seed = data["seed"]
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"scenario.seed: must be a nonnegative integer, got {seed!r}")

    return Scenario(
        lattice=lattice,
        state=state,
        checks=tuple(checks),
        seed=seed,
        grid=grid,
        scan_cutoffs=cutoffs,
    )


def build_state(scenario: Scenario, basis: FockBasis) -> ensembles.FockState:
    state = scenario.state
    kind = state["kind"]
    if kind == "vacuum":
        return ensembles.vacuum(basis)
    if kind == "number":
        return ensembles.number_state(basis, state["occupancies"])
    if kind == "coherent":
        mode = _parse_mode_key(state["mode"], "scenario.state.mode")
        alpha = _parse_complex(state["alpha"], "scenario.state.alpha")
        profile = ensembles.coherent_profile(alpha, mode, state["cap"])
        return ensembles.superposition(basis, profile)
    if kind == "superposition":
        terms = {
            tuple(term["occupancies"]): _parse_complex(term["amplitude"], f"scenario.state.terms[{i}].amplitude")
            for i, term in enumerate(state["terms"])
        }
        return ensembles.superposition(basis, terms)
    raise ConfigError(f"scenario.state.kind: unknown state kind {kind!r}")


# ---------------------------------------------------------------------------
# checks


@dataclass
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
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass
class RunContext:
    scenario: Scenario
    tolerance_scale: float
    seed: int
    _basis: FockBasis | None = None

    @property
    def basis(self) -> FockBasis:
        if self._basis is None:
            self._basis = fock.build_basis(self.scenario.lattice)
        return self._basis

    def rng(self, check: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, _CHECK_STREAMS[check]])

    def record(self, check: str, params: dict, residual: float, tolerance: float) -> Record:
        tol = tolerance * self.tolerance_scale
        return Record(
            check=check,
            params=params,
            residual=float(residual),
            tolerance=float(tol),
            passed=bool(residual <= tol),
        )


def _random_directions(rng: np.random.Generator, count: int) -> np.ndarray:
    """count unit rows, stacked (count, 3).

    The draws are those of count successive rng.standard_normal(3) calls,
    each skipped (and redrawn after the others) when its norm is below 1e-6.
    """
    rows = np.empty((0, 3))
    while len(rows) < count:
        v = rng.standard_normal((count - len(rows), 3))
        norm = np.sqrt(np.vecdot(v, v))[:, None]
        keep = norm[:, 0] > 1e-6
        rows = np.concatenate([rows, v[keep] / norm[keep]])
    return rows


def _near_singular_directions(count: int) -> np.ndarray:
    """Directions with the closed-form helicity normalization almost vanishing, (count, 3)."""
    base = np.ones(3) / np.sqrt(3.0)
    u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    v = base + np.geomspace(1e-5, 6e-4, count)[:, None] * u
    return v / np.sqrt(np.vecdot(v, v))[:, None]


def _worst(*arrays: np.ndarray) -> float:
    return max(float(np.max(np.abs(a))) for a in arrays)


def check_polarization(ctx: RunContext) -> list[Record]:
    rng = ctx.rng("polarization")
    count = 1000
    axes = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0, 0, -1.0]])
    k = np.concatenate([axes, _random_directions(rng, count - len(axes))])
    _, _, eps_plus, eps_minus = polarization.triads(k)
    worst_rel = _worst(*polarization.relation_residuals(k, eps_plus, eps_minus).values())
    m = polarization.completeness_matrices(eps_plus, eps_minus)
    worst_proj = _worst(m @ m - m, m @ k[:, :, None])
    _, _, again_plus, again_minus = polarization.triads(k.copy())
    worst_det = _worst(again_plus - eps_plus, again_minus - eps_minus)
    return [
        ctx.record("polarization.relations", {"directions": count}, worst_rel, 1e-12),
        ctx.record("polarization.projector", {"directions": count}, worst_proj, 1e-12),
        ctx.record("polarization.determinism", {"directions": count}, worst_det, 0.0),
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
    # S.k for every row; same sums as SpinMatrices.dotted on one direction.
    sk = spin.spin_matrices(hbar=1.0).dotted(k.T[:, :, None, None])
    # The eigenvalue relation is insensitive to the overall scale and is
    # asserted for every direction; the norm-sensitive checks run on the
    # generic population, where the closed form is well conditioned.
    worst_eig = _worst(sk[:, None] @ chi[..., None] - (signs * chi)[..., None])
    chi = chi[:generic]
    _, _, eps_plus, eps_minus = polarization.triads(k[:generic])
    norms = np.sqrt(np.vecdot(chi.real, chi.real) + np.vecdot(chi.imag, chi.imag))
    orth = np.vecdot(chi[:, 0], chi[:, 1])
    overlap = np.vecdot(chi, np.stack([eps_plus, eps_minus], axis=1))
    # Complex moduli via hypot, as the scalar abs() takes them; np.abs on an
    # array may round differently.
    orth, overlap = np.hypot(orth.real, orth.imag), np.hypot(overlap.real, overlap.imag)
    return [
        ctx.record("helicity.eigenvalue", {"directions": count, "near_singular": near}, worst_eig, 1e-10),
        ctx.record("helicity.unit_norm", {"directions": generic}, _worst(norms - 1.0), 1e-10),
        ctx.record("helicity.orthogonality", {"directions": generic}, _worst(orth), 1e-10),
        ctx.record("helicity.polarization_overlap", {"directions": generic}, _worst(overlap - 1.0), 1e-10),
    ]


def check_ladder(ctx: RunContext) -> list[Record]:
    basis = ctx.basis
    proj = fock.safe_projector(basis, 1)
    eye = fock.identity(basis)
    worst_canonical = 0.0
    worst_cross = 0.0
    worst_adjoint = 0.0
    a_ops = [fock.annihilation(basis, mode) for mode in basis.modes]
    adag_ops = [fock.creation(basis, mode) for mode in basis.modes]
    for i, (a_i, ad_i) in enumerate(zip(a_ops, adag_ops)):
        worst_adjoint = max(worst_adjoint, (ad_i - a_i.dagger()).max_abs())
        canon = proj @ (fock.commutator(a_i, ad_i) - eye) @ proj
        worst_canonical = max(worst_canonical, canon.max_abs())
        for j in range(i, basis.n_modes):
            worst_cross = max(worst_cross, fock.commutator(a_i, a_ops[j]).max_abs())
            if j != i:
                worst_cross = max(worst_cross, fock.commutator(a_i, adag_ops[j]).max_abs())
    n_modes = basis.n_modes
    return [
        ctx.record("ladder.canonical", {"modes": n_modes, "margin": 1}, worst_canonical, 1e-12),
        ctx.record("ladder.cross_mode", {"modes": n_modes}, worst_cross, 1e-13),
        ctx.record("ladder.adjoint", {"modes": n_modes}, worst_adjoint, 0.0),
    ]


def _quadratic_observables(basis: FockBasis, t: float) -> tuple:
    """(H, (Px, Py, Pz), (Sx, Sy, Sz)) as box integrals of the fields at time t."""
    return (
        fields.quadratic_H_from_fields(basis, t=t),
        fields.quadratic_P_from_fields(basis, t=t),
        fields.quadratic_S_from_fields(basis, t=t),
    )


def _observable_residuals(basis: FockBasis, h_quad, p_quad, s_quad) -> dict[str, float]:
    proj = fock.safe_projector(basis, 1)
    eye = fock.identity(basis)
    zp = fields.zero_point(basis)

    def rel(lhs, target, scale):
        diff = proj @ (lhs - target) @ proj
        return diff.max_abs() / scale

    out = {}
    h_target = fields.observable_H(basis) + zp.E0 * eye
    scale_h = max(abs(h_target.diagonal()).max(), 1e-300)
    out["energy"] = rel(h_quad, h_target, scale_h)

    p_diag = fields.observable_P(basis)
    s_diag = fields.observable_S(basis)
    for name, quad, diag, consts in (
        ("momentum", p_quad, p_diag, zp.P0),
        ("spin", s_quad, s_diag, zp.S0),
    ):
        scale = max(
            max(abs(d.diagonal()).max() for d in diag),
            abs(zp.E0),
        )
        worst = 0.0
        for comp in range(3):
            target = diag[comp] + float(consts[comp]) * eye
            worst = max(worst, rel(quad[comp], target, scale))
        out[name] = worst
    return out


def check_observables(ctx: RunContext) -> list[Record]:
    basis = ctx.basis
    early = _quadratic_observables(basis, 0.0)
    res0 = _observable_residuals(basis, *early)
    records = [
        ctx.record(f"observables.{name}", {"margin": 1, "t": 0.0}, res0[name], 1e-10)
        for name in ("energy", "momentum", "spin")
    ]
    # Conservation: the quadratic observables do not depend on the field
    # evaluation time.
    scale = max(abs(fields.observable_H(basis).diagonal()).max(), 1.0)
    late = _quadratic_observables(basis, 0.37)
    drift = (early[0] - late[0]).max_abs()
    for ops_early, ops_late in zip(early[1:], late[1:]):
        drift = max(drift, max((a - b).max_abs() for a, b in zip(ops_early, ops_late)))
    records.append(
        ctx.record("observables.conservation", {"t_other": 0.37}, drift / scale, 1e-10)
    )
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
    # deviation of a residual that did not shrink at all (ratio 1).
    ratios = [fd[name] / fd_half[name] for name in fd_half if fd_half[name] > 1e-12]
    ratio_dev = max(abs(r - 4.0) for r in ratios) if ratios else 3.0
    richardson = ctx.record("maxwell.richardson", {"h": h}, ratio_dev, 0.8)
    richardson.passed = richardson.passed and bool(ratios)
    return [
        ctx.record("maxwell.analytic", {"h": h}, max(analytic.values()), 1e-12),
        ctx.record("maxwell.fd", {"h": h}, max(fd.values()), 1e-6),
        richardson,
    ]


def check_commutators(ctx: RunContext) -> list[Record]:
    basis = ctx.basis
    # Raises CompletenessError (exit 2) when a momentum lacks a helicity.
    fields.field_commutator_closed_form(
        basis,
        FieldKind.E,
        FieldKind.E,
        SpacetimePoint(r=np.zeros(3)),
        SpacetimePoint(r=np.zeros(3)),
    )
    rng = ctx.rng("commutators")
    proj = fock.safe_projector(basis, 1)
    length = basis.config.length
    eye_p = proj @ fock.identity(basis) @ proj
    pairs = 20
    worst_cross = 0.0
    worst_closed_eq = 0.0
    for _ in range(pairs):
        r1, r2 = rng.uniform(-length / 2, length / 2, size=(2, 3))
        t1, t2 = rng.uniform(-1.0, 1.0, size=2)
        x1 = SpacetimePoint(r=r1, t=float(t1))
        x2 = SpacetimePoint(r=r2, t=float(t2))
        closed_ee = fields.field_commutator_closed_form(basis, FieldKind.E, FieldKind.E, x1, x2)
        closed_bb = fields.field_commutator_closed_form(basis, FieldKind.B, FieldKind.B, x1, x2)
        worst_closed_eq = max(worst_closed_eq, float(np.max(np.abs(closed_ee - closed_bb))))
        e1 = fields.field(basis, FieldKind.E, x1)
        e2 = fields.field(basis, FieldKind.E, x2)
        for i in range(3):
            for j in range(3):
                matrix_path = proj @ fock.commutator(e1[i], e2[j]) @ proj
                target = complex(closed_ee[i, j]) * eye_p
                worst_cross = max(worst_cross, (matrix_path - target).max_abs())
    # Equal-time commutators vanish on the safe subspace.
    worst_equal = 0.0
    x1 = SpacetimePoint(r=np.array([0.2, 0.4, -0.3]), t=0.5)
    x2 = SpacetimePoint(r=np.array([-0.1, 0.8, 0.6]), t=0.5)
    for kind in (FieldKind.E, FieldKind.B):
        f1 = fields.field(basis, kind, x1)
        f2 = fields.field(basis, kind, x2)
        for i in range(3):
            for j in range(3):
                worst_equal = max(
                    worst_equal, (proj @ fock.commutator(f1[i], f2[j]) @ proj).max_abs()
                )
    # [field, N] equals its sign-flipped closed form everywhere.
    n_op = fock.total_number(basis)
    worst_number = 0.0
    x = SpacetimePoint(r=np.array([0.7, -0.4, 0.2]), t=0.3)
    for kind in (FieldKind.E, FieldKind.B, FieldKind.A):
        comps = fields.field(basis, kind, x)
        closed = fields.field_number_commutator(basis, kind, x)
        for i in range(3):
            worst_number = max(
                worst_number, (fock.commutator(comps[i], n_op) - closed[i]).max_abs()
            )
    return [
        ctx.record("commutators.matrix_vs_closed", {"pairs": pairs, "margin": 1}, worst_cross, 1e-10),
        ctx.record("commutators.equal_time", {"kinds": ["E", "B"]}, worst_equal, 1e-12),
        ctx.record("commutators.ee_equals_bb", {"pairs": pairs}, worst_closed_eq, 1e-12),
        ctx.record("commutators.field_number", {"kinds": ["E", "B", "A"]}, worst_number, 1e-12),
    ]


def check_expectations(ctx: RunContext) -> list[Record]:
    basis = ctx.basis
    scenario = ctx.scenario
    state = build_state(scenario, basis)
    rng = ctx.rng("expectations")
    if scenario.grid is not None:
        points = scenario.grid.points()
    else:
        points = [
            SpacetimePoint(r=rng.uniform(-1, 1, size=3), t=float(rng.uniform(-1, 1)))
            for _ in range(8)
        ]
    worst_two_path = 0.0
    for pt in points:
        for kind in (FieldKind.E, FieldKind.B, FieldKind.A):
            closed = ensembles.field_expectation_closed_form(state, kind, pt)
            comps = fields.field(basis, kind, pt)
            matrix = np.array(
                [np.real(ensembles.expectation(op, state)) for op in comps]
            )
            worst_two_path = max(worst_two_path, float(np.max(np.abs(closed - matrix))))
    vac = ensembles.vacuum(basis)
    x0 = SpacetimePoint(r=np.zeros(3), t=0.0)
    e_ops = fields.field(basis, FieldKind.E, x0)
    e2_matrix = sum(
        np.real(ensembles.expectation(op @ op, vac)) for op in e_ops
    )
    e2_closed = ensembles.vacuum_field_square(basis)
    vac_residual = abs(e2_matrix - e2_closed) / e2_closed
    return [
        ctx.record("expectations.two_path", {"points": len(points)}, worst_two_path, 1e-10),
        ctx.record("expectations.vacuum_square", {"at": "origin"}, vac_residual, 1e-12),
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


def run_verify(scenario: Scenario, out_dir: Path, tolerance_scale: float, seed: int) -> int:
    ctx = RunContext(scenario=scenario, tolerance_scale=tolerance_scale, seed=seed)
    records: list[Record] = []
    for name in scenario.checks:
        records.extend(CHECK_RUNNERS[name](ctx))
    records.sort(key=lambda r: (r.check, json.dumps(r.params, sort_keys=True)))
    report = {
        "schema": SCHEMA_VERSION,
        "seed": seed,
        "tolerance_scale": tolerance_scale,
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
    table = ensembles.mean_field_table(state, FieldKind(scenario.grid.kind), r, t)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "grid.csv"
    with path.open("w") as stream:
        ensembles.write_grid_csv(table, stream)
    print(f"{len(table)} grid rows -> {path}")
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


def _named_operator(name: str, basis: FockBasis) -> fock.SparseOperator:
    simple = {
        "N": lambda: fock.total_number(basis),
        "H": lambda: fields.observable_H(basis),
        "Px": lambda: fields.observable_P(basis)[0],
        "Py": lambda: fields.observable_P(basis)[1],
        "Pz": lambda: fields.observable_P(basis)[2],
        "Sx": lambda: fields.observable_S(basis)[0],
        "Sy": lambda: fields.observable_S(basis)[1],
        "Sz": lambda: fields.observable_S(basis)[2],
    }
    if name in simple:
        return simple[name]()
    if "@" in name:
        head, _, tail = name.partition("@")
        if head in ("a", "adag", "N"):
            try:
                j = int(tail)
            except ValueError:
                j = -1
            if not 0 <= j < basis.n_modes:
                raise ConfigError(f"operator {name!r}: mode index must be an integer in 0..{basis.n_modes - 1}")
            mode = basis.modes[j]
            if head == "a":
                return fock.annihilation(basis, mode)
            if head == "adag":
                return fock.creation(basis, mode)
            return fock.number_operator(basis, mode)
        if len(head) == 2 and head[0] in "EBA" and head[1] in "xyz":
            try:
                vals = [float(v) for v in tail.split(",")]
            except ValueError:
                vals = []
            if len(vals) != 4 or not np.all(np.isfinite(vals)):
                raise ConfigError(f"operator {name!r}: expected '<F><c>@rx,ry,rz,t' with 4 finite numbers")
            x = SpacetimePoint(r=np.array(vals[:3]), t=vals[3])
            return fields.field_component(basis, FieldKind(head[0]), x, "xyz".index(head[1]))
    raise ConfigError(
        f"unknown operator {name!r}; use N, H, Px/Py/Pz, Sx/Sy/Sz, a@<mode>, adag@<mode>, "
        f"N@<mode>, or Ex@rx,ry,rz,t (likewise B*, A*)"
    )


def run_dump_operator(scenario: Scenario, out_dir: Path, name: str) -> int:
    basis = fock.build_basis(scenario.lattice)
    op = _named_operator(name, basis)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "operator.txt"
    with path.open("w") as stream:
        fock.export_operator(op, stream)
    print(f"operator {name} ({op.matrix.nnz} nonzeros) -> {path}")
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonfield",
        description="Verification suites and data emission for lattice photon-field models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("verify", "expect", "vacuum-scan", "dump-operator"):
        p = sub.add_parser(cmd)
        p.add_argument("--config", default=None, help="scenario JSON (default: built-in scenario)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--tolerance-scale", type=float, default=1.0)
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        if cmd == "dump-operator":
            p.add_argument("--operator", required=True, help="operator name, e.g. H or a@0")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if not (np.isfinite(args.tolerance_scale) and args.tolerance_scale >= 0):
            raise ConfigError(f"--tolerance-scale: must be finite and >= 0, got {args.tolerance_scale!r}")
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed: must be a nonnegative integer, got {args.seed}")
        scenario = load_scenario(args.config)
        seed = scenario.seed if args.seed is None else args.seed
        out_dir = Path(args.out)
        if args.command == "verify":
            return run_verify(scenario, out_dir, args.tolerance_scale, seed)
        if args.command == "expect":
            return run_expect(scenario, out_dir)
        if args.command == "vacuum-scan":
            return run_vacuum_scan(scenario, out_dir)
        return run_dump_operator(scenario, out_dir, args.operator)
    except (ConfigError, fields.CompletenessError, fock.LatticeSizeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
