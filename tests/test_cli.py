import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from photonfield import cli
from photonfield.fields import FieldKind, SpacetimePoint

import oracles


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def default_data():
    return copy.deepcopy(cli.DEFAULT_SCENARIO)


def test_default_verify_passes_and_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli.main(["verify", "--out", str(out1)]) == 0
    first_stdout = capsys.readouterr().out
    assert cli.main(["verify", "--out", str(out2)]) == 0
    second_stdout = capsys.readouterr().out
    # all check lines are identical; the trailing summary names the out dir
    assert first_stdout.splitlines()[:-1] == second_stdout.splitlines()[:-1]
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_report_schema(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["verify", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"schema", "seed", "records"}
    assert report["schema"] == 1
    assert report["seed"] == cli.DEFAULT_SCENARIO["seed"]
    assert report["records"]
    for record in report["records"]:
        assert set(record) == {"check", "params", "residual", "tolerance", "pass"}
        assert record["pass"] is True
    names = [r["check"] for r in report["records"]]
    assert names == sorted(names)


def test_seed_flag_overrides_and_is_recorded(tmp_path):
    out = tmp_path / "out"
    data = default_data()
    data["checks"] = ["polarization"]
    config = write_scenario(tmp_path, data)
    assert cli.main(["verify", "--config", config, "--out", str(out), "--seed", "7"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 7


def test_tolerance_scale_option_is_refused(tmp_path, capsys):
    # Verdicts are against fixed tolerances: no option can widen them.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--out", str(out), "--tolerance-scale", "1e300"])
    assert exc.value.code == 2
    assert "--tolerance-scale" in capsys.readouterr().err
    assert not out.exists()


def test_zero_grid_samples_rejected(tmp_path, capsys):
    data = default_data()
    data["grid"]["samples"] = 0
    config = write_scenario(tmp_path, data)
    assert cli.main(["verify", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "scenario.grid.samples" in capsys.readouterr().err


@pytest.mark.parametrize("cutoffs", [[3, 1], [2, 2], [], [0]])
def test_bad_vacuum_scan_cutoffs_rejected(tmp_path, capsys, cutoffs):
    data = default_data()
    data["vacuum_scan"] = {"cutoffs": cutoffs}
    config = write_scenario(tmp_path, data)
    assert cli.main(["vacuum-scan", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "scenario.vacuum_scan.cutoffs" in capsys.readouterr().err


COMMANDS = (["verify"], ["expect"], ["vacuum-scan"], ["dump-operator", "--operator", "H"])


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("n", [[10**20, 0, -1], [0, -(2**64), 1], [2**53 + 1, 0, 0]], ids=["1e20", "-2^64", "2^53+1"])
def test_huge_mode_momentum_exits_2_with_its_path(tmp_path, capsys, argv, n):
    # Such a momentum once passed the parser and ended every command in a
    # numpy UFuncTypeError on an object array.
    data = default_data()
    data["lattice"]["modes"][1]["n"] = n
    config = write_scenario(tmp_path, data)
    assert cli.main([*argv, "--config", config, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert "scenario.lattice.modes[1].n" in captured.err and "2**53" in captured.err
    assert captured.out == "" and not (tmp_path / "o").exists()


def _leaves(data, path=()):
    """The path of every value in a JSON tree that is no object or list, as a tuple of keys and indices."""
    if isinstance(data, (dict, list)):
        items = data.items() if isinstance(data, dict) else enumerate(data)
        return [leaf for key, value in items for leaf in _leaves(value, (*path, key))]
    return [path]


FUZZ_POOL = (None, 1, -1, 0, 0.5, 1e300, 10**20, 2**53 + 1, float("nan"), "x", [], {}, True, [0, 0, 0])
FUZZ_EDIT = st.tuples(st.sampled_from(_leaves(cli.DEFAULT_SCENARIO)), st.sampled_from(FUZZ_POOL))


# The fuzzed scenarios are independent of tmp_path, which each example overwrites.
@settings(
    max_examples=1000, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=st.sampled_from(COMMANDS), edits=st.lists(FUZZ_EDIT, min_size=1, max_size=2))
def test_fuzzed_scenario_ends_in_an_exit_code(tmp_path, argv, edits):
    # The built-in scenario with one or two values replaced from a fixed pool:
    # a bad field is exit 2 with its path, never a traceback or a numpy warning.
    data = default_data()
    for (*parents, key), value in edits:
        node = data
        for parent in parents:
            node = node[parent]
        node[key] = copy.deepcopy(value)
    config = write_scenario(tmp_path, data)
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main([*argv, "--config", config, "--out", str(tmp_path / "o")])
    message = err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        # The file's own name (scenario.json) is no field path.
        assert "scenario." in message.replace(config, "") or f"scenario file {config}" in message, message


def bounds_data():
    """The built-in scenario on the 12 axis modes (n_max = 1, dim 4096), grid and scan at their size bounds."""
    data = default_data()
    axes = ([1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1])
    data["lattice"]["n_max"] = 1
    data["lattice"]["modes"] = [{"s": s, "n": n} for n in axes for s in (1, -1)]
    data["state"]["cap"] = 1
    data["grid"]["samples"] = cli.GRID_SAMPLES_MAX
    data["vacuum_scan"] = {"cutoffs": list(range(1, cli.SCAN_CUTOFF_MAX + 1))}
    return data


# Budgets for the tracemalloc peaks at the size bounds.  Before the emitters
# streamed their output in fixed-size blocks, the peaks were 87.7, 60.7 and
# 5.2 MiB; with the blocks they are about 4.8, 3.2 and 3.5 MiB.
EMITTER_BUDGETS_MIB = {"expect": 8.0, "vacuum-scan": 4.0, "dump-operator": 5.0}


def test_emitters_stay_within_their_memory_budgets_at_the_size_bounds(tmp_path, capsys):
    import tracemalloc

    config = write_scenario(tmp_path, bounds_data())
    peaks = {}
    for command, budget in EMITTER_BUDGETS_MIB.items():
        argv = [command, "--config", config, "--out", str(tmp_path / command)]
        if command == "dump-operator":
            argv += ["--operator", "Ex@0.3,-0.2,0.15,0.1"]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peaks[command] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    assert all(peaks[command] < budget for command, budget in EMITTER_BUDGETS_MIB.items()), peaks
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"{cli.GRID_SAMPLES_MAX} grid rows -> {tmp_path / 'expect' / 'grid.csv'}",
                         f"{cli.SCAN_CUTOFF_MAX} scan rows -> {tmp_path / 'vacuum-scan' / 'vacuum_scan.csv'}"]


def test_emit_8m_emitters_hold_the_state_and_a_block_and_no_per_state_table(tmp_path, capsys):
    """expect and dump-operator H on the emit-8m lattice, in process, after one warm-up run each.

    An emitter needs the state's coefficient vector (16 bytes per basis
    state) and one block of 4096 complex coefficients for each of 3
    components (a grid block, GRID_BLOCK; an export chunk is as many
    entries); the budget is four of each, 1.15 MiB here.  A per-state table
    of the 2 n_modes ladder operators does not fit in it: the target and
    amplitude table and the occupancies the basis once kept came to 1.6 MiB
    (12 bytes per state and ladder operator, 8 per state and mode), and
    the two peaks were 3.4 and 2.7 MiB.
    """
    import tracemalloc

    from photonfield import ensembles, fock

    config = str(Path(__file__).resolve().parents[1] / "benchmarks" / "scenarios" / "emit-8m.json")
    basis = fock.build_basis(cli.load_scenario(config).lattice)
    budget = 4 * (16 * basis.dim + 16 * 3 * ensembles.GRID_BLOCK)
    peaks = {}
    for argv in (["expect"], ["dump-operator", "--operator", "H"]):
        argv = [*argv, "--config", config, "--out", str(tmp_path / argv[0])]
        assert cli.main(argv) == 0
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peaks[argv[0]] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert all(peak < budget for peak in peaks.values()), (peaks, budget)
    # Nothing per state and mode of 8 bytes or more stays on a built basis.
    arrays = {name: value for name, value in vars(basis).items() if isinstance(value, np.ndarray)}
    assert not [name for name, arr in arrays.items() if arr.itemsize >= 8 and arr.size >= basis.dim * basis.n_modes]
    capsys.readouterr()


def test_mode_momentum_at_2_to_53_is_parsed():
    data = default_data()
    data["lattice"]["modes"][1]["n"] = [2**53, 0, -(2**53)]
    assert cli.parse_scenario(data).lattice.modes[1] == (-1, (2**53, 0, -(2**53)))


def test_single_helicity_commutator_scenario_exits_2(tmp_path, capsys):
    data = default_data()
    data["lattice"]["modes"] = [{"s": 1, "n": [0, 0, 1]}, {"s": 1, "n": [0, 0, -1]}]
    data["checks"] = ["commutators"]
    data["state"] = {"kind": "vacuum"}
    del data["grid"]
    config = write_scenario(tmp_path, data)
    assert cli.main(["verify", "--config", config, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "both helicities" in err


def test_asymmetric_momentum_commutator_scenario_exits_2(tmp_path, capsys):
    data = default_data()
    data["lattice"]["modes"] = [{"s": s, "n": n} for n in ([0, 0, 1], [1, 0, 0]) for s in (1, -1)]
    data["lattice"]["n_max"] = 1
    data["checks"] = ["commutators"]
    data["state"] = {"kind": "vacuum"}
    del data["grid"]
    config = write_scenario(tmp_path, data)
    assert cli.main(["verify", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "-n = (0, 0, -1) of n = (0, 0, 1) is missing" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "modes, wording",
    [
        ([{"s": 1, "n": [0, 0, 1]}, {"s": 1, "n": [0, 0, -1]}], "both helicities"),
        ([{"s": s, "n": [0, 0, 1]} for s in (1, -1)], "-n = (0, 0, -1) of n = (0, 0, 1) is missing"),
    ],
    ids=["one_helicity", "no_minus_n"],
)
def test_commutator_precondition_refused_before_any_check_runs(tmp_path, capsys, modes, wording):
    data = default_data()
    data["lattice"]["modes"] = modes
    data["checks"] = ["polarization", "commutators"]
    data["state"] = {"kind": "vacuum"}
    del data["grid"]
    config = write_scenario(tmp_path, data)
    assert cli.main(["verify", "--config", config, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert "scenario.lattice.modes" in captured.err and wording in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_repeated_check_name_rejected(tmp_path, capsys):
    data = default_data()
    data["checks"] = ["ladder", "helicity", "ladder"]
    config = write_scenario(tmp_path, data)
    assert cli.main(["verify", "--config", config, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert "scenario.checks" in captured.err and "'ladder'" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_commutator_check_assembles_only_the_anchor_and_field_number_fields(monkeypatch):
    from photonfield import fields

    calls = []
    field = fields.field

    def counting_field(basis, kind, x):
        calls.append(kind)
        return field(basis, kind, x)

    monkeypatch.setattr(fields, "field", counting_field)
    ctx = cli.RunContext(replace(cli.parse_scenario(default_data()), seed=1))
    records = cli.check_commutators(ctx)
    assert all(r.passed for r in records)
    # Two E fields for the anchor pair, one field per kind for [field, N].
    assert len(calls) <= 5


def test_unknown_key_rejected(tmp_path, capsys):
    data = default_data()
    data["lattice"]["modees"] = []
    config = write_scenario(tmp_path, data)
    assert cli.main(["verify", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "scenario.lattice" in capsys.readouterr().err


def test_unknown_check_rejected(tmp_path, capsys):
    data = default_data()
    data["checks"] = ["polarization", "frobnicate"]
    config = write_scenario(tmp_path, data)
    assert cli.main(["verify", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "frobnicate" in capsys.readouterr().err


def test_wrong_schema_rejected(tmp_path, capsys):
    data = default_data()
    data["schema"] = 99
    config = write_scenario(tmp_path, data)
    assert cli.main(["verify", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "schema" in capsys.readouterr().err


def test_dimension_guard_message(tmp_path, capsys):
    data = default_data()
    data["lattice"]["modes"] = [
        {"s": s, "n": [0, 0, n]} for s in (1, -1) for n in range(1, 6)
    ]
    data["checks"] = ["ladder"]
    del data["grid"]
    data["state"] = {"kind": "vacuum"}
    config = write_scenario(tmp_path, data)
    assert cli.main(["verify", "--config", config, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "dimension" in err and "guard" in err and err.startswith("error: scenario.lattice: ")


@pytest.mark.parametrize("argv", [argv for argv in COMMANDS if argv[0] != "vacuum-scan"], ids=lambda argv: argv[0])
def test_n_max_past_the_size_guard_exits_2_with_its_path(tmp_path, capsys, argv):
    # The size guard refused this lattice with an error that named no scenario field.
    data = default_data()
    data["lattice"]["n_max"] = 10**20
    config = write_scenario(tmp_path, data)
    assert cli.main([*argv, "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: scenario.lattice: basis dimension")


def test_canonical_commutator_passes_at_high_occupancy(tmp_path):
    # [a, a-dagger] - 1 = ((n + 1) - n) - 1 rounds like n + 1: about 7e-12 at n = 20000.
    data = default_data()
    data["lattice"].update(n_max=20000, modes=[{"s": 1, "n": [0, 0, 1]}])
    data["state"] = {"kind": "vacuum"}
    data["checks"] = ["ladder"]
    del data["grid"]
    assert cli.main(["verify", "--config", write_scenario(tmp_path, data), "--out", str(tmp_path / "o")]) == 0


def test_expect_emits_circular_trace(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["expect", "--out", str(out)]) == 0
    lines = (out / "grid.csv").read_text().splitlines()
    assert lines[0] == "t,x,y,z,Fx,Fy,Fz"
    assert len(lines) == 17
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    radii = [np.hypot(row[4], row[5]) for row in rows]
    assert all(row[6] == 0.0 for row in rows)
    assert max(radii) - min(radii) < 1e-10


def test_expect_grid_equals_pointwise_rows_written_per_value(tmp_path):
    import io

    from photonfield import ensembles, fock

    out = tmp_path / "out"
    assert cli.main(["expect", "--out", str(out)]) == 0
    scenario = cli.load_scenario(None)
    state = cli.build_state(scenario, fock.build_basis(scenario.lattice))
    rows = [
        (pt.t, *pt.r, *ensembles.field_expectation_closed_form(state, FieldKind.E, pt))
        for pt in (SpacetimePoint(r=row, t=float(v)) for row, v in zip(*scenario.grid.arrays()))
    ]
    expected = io.StringIO()
    oracles.grid_csv_oracle(rows, expected)
    assert (out / "grid.csv").read_text() == expected.getvalue()


@pytest.mark.parametrize("grid_block", [None, 3, 8])
@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
def test_expect_writes_block_edges_like_one_table(tmp_path, monkeypatch, grid_block, offset):
    # The grid is evaluated and written GRID_BLOCK // n_modes points at a time
    # (at least one); around a block edge its bytes are those of one whole
    # mean_field_table written value by value, from one amplitude profile.
    import io

    from photonfield import ensembles, fock

    if grid_block is not None:
        monkeypatch.setattr(ensembles, "GRID_BLOCK", grid_block)
    data = default_data()
    block = max(1, ensembles.GRID_BLOCK // len(data["lattice"]["modes"]))
    data["grid"]["samples"] = 2 * block + offset
    scenario = cli.parse_scenario(data)
    state = cli.build_state(scenario, fock.build_basis(scenario.lattice))
    expected = io.StringIO()
    oracles.grid_csv_oracle(ensembles.mean_field_table(state, FieldKind.E, *scenario.grid.arrays()), expected)
    profiles = []
    profile = ensembles.amplitude_profile
    monkeypatch.setattr(ensembles, "amplitude_profile", lambda state: profiles.append(state) or profile(state))
    out = tmp_path / "out"
    assert cli.main(["expect", "--config", write_scenario(tmp_path, data), "--out", str(out)]) == 0
    assert (out / "grid.csv").read_text() == expected.getvalue()
    assert len(profiles) == 1


@pytest.mark.parametrize("where,value", [("t_stop", float("inf")), ("r", [0.0, float("nan"), 0.0])])
def test_nonfinite_grid_rejected_at_parse(tmp_path, capsys, where, value):
    data = default_data()
    data["grid"][where] = value
    data["checks"] = ["polarization"]
    config = write_scenario(tmp_path, data)
    for command in ("expect", "verify"):
        assert cli.main([command, "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert f"scenario.grid.{where}" in capsys.readouterr().err
    # Finite ends whose span overflows are still refused.
    spec = cli.GridSpec(t_start=-1.7e308, t_stop=1.7e308, samples=3, r=(0.0, 0.0, 0.0))
    with pytest.raises(cli.ConfigError, match="scenario.grid.*finite"), np.errstate(over="ignore", invalid="ignore"):
        spec.arrays()


def test_expect_requires_grid(tmp_path, capsys):
    data = default_data()
    del data["grid"]
    config = write_scenario(tmp_path, data)
    assert cli.main(["expect", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "grid" in capsys.readouterr().err


def test_expect_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["expect", "--out", str(out1)]) == 0
    assert cli.main(["expect", "--out", str(out2)]) == 0
    assert (out1 / "grid.csv").read_bytes() == (out2 / "grid.csv").read_bytes()


def test_vacuum_scan_monotone(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["vacuum-scan", "--out", str(out)]) == 0
    lines = (out / "vacuum_scan.csv").read_text().splitlines()
    assert lines[0] == "cutoff,E2"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(values) == 4
    assert all(b > a for a, b in zip(values, values[1:]))


def test_vacuum_scan_custom_cutoffs(tmp_path):
    data = default_data()
    data["vacuum_scan"] = {"cutoffs": [1, 2]}
    config = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main(["vacuum-scan", "--config", config, "--out", str(out)]) == 0
    lines = (out / "vacuum_scan.csv").read_text().splitlines()
    assert len(lines) == 3


def test_dump_operator_golden(tmp_path):
    # A test of the export format: with hbar omega = 1, the entries of H are the occupancies.
    data = default_data()
    data["lattice"].update(length=2.0 * np.pi, hbar=1.0, c=1.0, modes=[{"s": 1, "n": [0, 0, 1]}])
    data["state"] = {"kind": "vacuum"}
    del data["grid"]
    config = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main(["dump-operator", "--config", config, "--out", str(out), "--operator", "H"]) == 0
    assert (out / "operator.txt").read_text() == (
        "4 1 3\n"
        "1 1 1.0 0.0\n"
        "2 2 2.0 0.0\n"
        "3 3 3.0 0.0\n"
    )


def test_dump_field_operator(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["dump-operator", "--out", str(out), "--operator", "Ey@0,0,0,0"]) == 0
    text = (out / "operator.txt").read_text()
    assert text.splitlines()[0] == "256 4 3"


def test_dump_field_component_equals_full_field_column(tmp_path):
    import io

    from photonfield import fields, fock

    x = SpacetimePoint(r=np.array([0.3, -0.2, 0.15]), t=0.1)
    basis = fock.build_basis(cli.load_scenario(None).lattice)
    for kind in "EBA":
        comps = fields.field(basis, FieldKind(kind), x)
        for axis, name in enumerate("xyz"):
            out = tmp_path / f"{kind}{name}"
            assert cli.main(["dump-operator", "--out", str(out), "--operator", f"{kind}{name}@0.3,-0.2,0.15,0.1"]) == 0
            expected = io.StringIO()
            oracles.export_operator_oracle(comps[axis], expected)
            assert (out / "operator.txt").read_text() == expected.getvalue()


def test_richardson_without_ratio_signal_fails_with_finite_residual(tmp_path, monkeypatch):
    from photonfield import fields

    # Every FD residual at the roundoff floor: no ratio carries signal.
    monkeypatch.setattr(fields, "check_maxwell", lambda *a, **k: {"faraday": 1e-13, "div_e": 0.0})
    monkeypatch.setattr(fields, "check_derivative_relations", lambda *a, **k: {"potential_time": 5e-13})
    data = default_data()
    data["checks"] = ["maxwell"]
    config = write_scenario(tmp_path, data)
    out = tmp_path / "o"
    assert cli.main(["verify", "--config", config, "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text(), parse_constant=pytest.fail)
    records = {r["check"]: r for r in report["records"]}
    assert records["maxwell.analytic"]["pass"] and records["maxwell.fd"]["pass"]
    richardson = records["maxwell.richardson"]
    assert richardson["pass"] is False
    assert np.isfinite(richardson["residual"])
    assert richardson["params"] == {"h": 1e-3}


@pytest.mark.parametrize(
    "residuals, tolerance, passed, written",
    [
        ([], 1e-12, False, None),
        ([np.zeros(3), np.full(2, 1e-14), np.array([1e-14, np.nan])], 1e-12, False, None),
        (np.inf, 1e-12, False, None),
        (np.array([[3 + 4j], [-1j]]), 5.0, True, 5.0),
        (np.array([-0.5, 0.25]), 0.5, True, 0.5),
        ([0.25, np.array([-0.125])], 0.5, True, 0.25),
        (np.array([0.25, -0.75]), 0.5, False, 0.75),
    ],
    ids=["empty", "nan-in-last-of-three", "inf", "complex", "at", "below", "above"],
)
def test_record_judges_the_worst_absolute_residual(residuals, tolerance, passed, written):
    record = cli.RunContext(cli.parse_scenario(default_data())).record("c", {}, residuals, tolerance)
    assert record.passed is passed
    assert record.as_json()["residual"] == written
    json.dumps(record.as_json(), allow_nan=False)
    if written is not None:
        assert passed is (written <= tolerance)


def test_nonfinite_residual_is_written_as_null_and_fails(tmp_path, capsys):
    # With c = 1e300 the analytic Maxwell residuals overflow to NaN, without
    # a numpy warning: in-process, where one would be raised as an error.
    data = default_data()
    data["lattice"]["c"] = 1e300
    config = write_scenario(tmp_path, data)
    assert cli.main(["verify", "--config", config, "--out", str(tmp_path / "o")]) == 1
    report = json.loads((tmp_path / "o" / "report.json").read_text(), parse_constant=pytest.fail)
    analytic = next(r for r in report["records"] if r["check"] == "maxwell.analytic")
    assert (analytic["residual"], analytic["pass"]) == (None, False)
    assert "FAIL maxwell.analytic residual=nan " in capsys.readouterr().out


def test_one_process_runs_commands_like_fresh_processes(tmp_path, capsys):
    # main parses every argv with the one parser of the process, and a
    # refused argv leaves it as it was for the next call.
    assert cli._build_parser() is cli._build_parser()
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    runs = [
        (["verify"], 0, "report.json"),
        (["verify", "--tolerance-scale", "1"], 2, None),
        (["dump-operator", "--operator", "Ex@0.3,-0.2,0.15,0.1"], 0, "operator.txt"),
    ]
    for i, (argv, code, written) in enumerate(runs):
        here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
        try:
            got = cli.main([*argv, "--out", str(here)])
        except SystemExit as exc:
            got = exc.code
        err = capsys.readouterr().err
        command = [sys.executable, "-m", "photonfield.cli", *argv, "--out", str(fresh)]
        done = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True)
        assert got == done.returncode == code, done.stderr
        assert err == done.stderr
        if written is None:
            assert not here.exists() and not fresh.exists()
        else:
            assert (here / written).read_bytes() == (fresh / written).read_bytes()


def test_dump_operator_unknown_name(tmp_path, capsys):
    assert cli.main(["dump-operator", "--out", str(tmp_path / "o"), "--operator", "Q"]) == 2
    assert "unknown operator" in capsys.readouterr().err


def test_dump_ladder_operator_bad_index(tmp_path, capsys):
    assert cli.main(["dump-operator", "--out", str(tmp_path / "o"), "--operator", "a@9"]) == 2
    assert "mode index" in capsys.readouterr().err


def test_dump_ladder_operator_plain_index(tmp_path):
    for name in ("a@0", "adag@3"):
        out = tmp_path / name
        assert cli.main(["dump-operator", "--out", str(out), "--operator", name]) == 0
        assert (out / "operator.txt").read_text().startswith("256 4 3\n")


def test_invalid_json_rejected(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_coherent_cap_above_n_max_rejected(tmp_path, capsys):
    data = default_data()
    data["state"]["cap"] = 9
    config = write_scenario(tmp_path, data)
    assert cli.main(["verify", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "cap" in capsys.readouterr().err


def test_state_mode_missing_from_lattice_rejected(tmp_path, capsys):
    data = default_data()
    data["state"]["mode"] = {"s": 1, "n": [5, 5, 5]}
    config = write_scenario(tmp_path, data)
    assert cli.main(["verify", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "not on the lattice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "state,where",
    [
        ({"kind": "coherent", "alpha": [0.5, 0.0], "mode": {"s": 1, "n": [5, 5, 5]}, "cap": 3}, "not on the lattice"),
        ({"kind": "number", "occupancies": [1, 2]}, "scenario.state.occupancies"),
        ({"kind": "coherent", "alpha": [0.5, 0.0], "mode": {"s": 1, "n": [0, 0, 1]}, "cap": 9}, "scenario.state.cap"),
        ({"kind": "number", "occupancies": [0, 4, 0, 0]}, "scenario.state.occupancies[1]"),
        (
            {"kind": "superposition", "terms": [{"occupancies": [0, 0, -1, 0], "amplitude": [1.0, 0.0]}]},
            "scenario.state.terms[0].occupancies[2]",
        ),
    ],
    ids=["mode_off_lattice", "occupancies_length", "cap_above_n_max", "number_above_n_max", "superposition_negative"],
)
def test_bad_state_rejected_whatever_checks(tmp_path, capsys, state, where):
    data = default_data()
    data["checks"] = ["ladder"]
    data["state"] = state
    config = write_scenario(tmp_path, data)
    assert cli.main(["verify", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert where in capsys.readouterr().err


def _superposition(*amplitudes):
    terms = [{"occupancies": [i, 0, 0, 0], "amplitude": a} for i, a in enumerate(amplitudes)]
    return {"kind": "superposition", "terms": terms}


@pytest.mark.parametrize(
    "where,value,flags,path",
    [
        (("grid", "r"), [0, 0], [], "scenario.grid.r"),
        (("grid",), 5, [], "scenario.grid"),
        (("vacuum_scan",), 3, [], "scenario.vacuum_scan"),
        (("lattice", "modes"), 4, [], "scenario.lattice.modes"),
        (("grid", "t_start"), "zero", [], "scenario.grid.t_start"),
        (("state", "alpha"), ["half", 0], [], "scenario.state.alpha[0]"),
        (("state", "alpha"), [40.0, 0.0], [], "scenario.state.alpha"),
        (("state",), _superposition([1.0, 0.0], [None, 0.0]), [], "scenario.state.terms[1].amplitude[0]"),
        (("state",), _superposition([0.0, 0.0], [0, 0]), [], "scenario.state.terms"),
        (("state",), _superposition([1e308, 0.0], [1e308, 0.0]), [], "scenario.state.terms"),
        (("state",), _superposition([1e-200, 0.0]), [], "scenario.state.terms"),
        (("lattice", "gauge_reference"), [0, 1], [], "scenario.lattice.gauge_reference"),
        (("lattice", "gauge_reference"), [0, 0, 1], [], "scenario.lattice.gauge_reference"),
        (("seed",), True, [], "scenario.seed"),
        (("state",), {"kind": "coherent"}, [], "scenario.state: missing required key 'alpha'"),
        (
            ("grid",),
            {"t_start": -1.7e308, "t_stop": 1.7e308, "samples": 3, "r": [0.0, 0.0, 0.0]},
            [],
            "scenario.grid: every sample point must be finite",
        ),
        ((), None, ["--seed", "-1"], "--seed"),
        (("grid", "samples"), cli.GRID_SAMPLES_MAX + 1, [], "scenario.grid.samples: must be at most"),
        (("grid", "samples"), 10**15, [], "scenario.grid.samples: must be at most"),
        (("vacuum_scan",), {"cutoffs": [1, cli.SCAN_CUTOFF_MAX + 1]}, [], "scenario.vacuum_scan.cutoffs[1]"),
        (("vacuum_scan",), {"cutoffs": [1, 1000000]}, [], "scenario.vacuum_scan.cutoffs[1]"),
    ],
    ids=[
        "grid_r_length", "grid_not_object", "vacuum_scan_not_object", "modes_not_list", "t_start_text",
        "alpha_text", "alpha_underflows", "amplitude_null", "amplitudes_all_zero", "amplitudes_overflow",
        "amplitudes_underflow", "gauge_length", "gauge_parallel", "seed_bool", "first_missing_key",
        "grid_span_overflows", "seed_flag_negative", "samples_above_bound", "samples_huge",
        "cutoff_above_bound", "cutoff_huge",
    ],
)
def test_bad_scenario_field_rejected_at_parse(tmp_path, capsys, where, value, flags, path):
    data = default_data()
    data["checks"] = ["polarization"]
    if where:
        *parents, key = where
        target = data
        for name in parents:
            target = target[name]
        target[key] = value
    config = write_scenario(tmp_path, data)
    out = tmp_path / "o"
    assert cli.main(["verify", "--config", config, "--out", str(out), *flags]) == 2
    assert path in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_size_fields_at_their_bounds_parse():
    data = default_data()
    data["grid"]["samples"] = cli.GRID_SAMPLES_MAX
    data["vacuum_scan"] = {"cutoffs": [1, cli.SCAN_CUTOFF_MAX]}
    scenario = cli.parse_scenario(data)
    assert scenario.grid.samples == cli.GRID_SAMPLES_MAX and scenario.scan_cutoffs == (1, cli.SCAN_CUTOFF_MAX)


@pytest.mark.parametrize("checks", [["commutators"], list(cli.CHECK_NAMES)], ids=["commutators", "all"])
@pytest.mark.parametrize("command", ["verify", "expect", "vacuum-scan"])
def test_underflowing_momentum_cell_rejected_whatever_checks(tmp_path, capsys, checks, command):
    # (2 pi hbar / L)^3 rounds to 0.0: every field coefficient would be 0 and
    # the commutator residuals exactly 0.0, a vacuous pass.
    data = default_data()
    data["lattice"]["hbar"] = 1e-120
    data["checks"] = checks
    config = write_scenario(tmp_path, data)
    out = tmp_path / "o"
    assert cli.main([command, "--config", config, "--out", str(out)]) == 2
    assert "scenario.lattice: the momentum cell" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("checks", [["polarization"], list(cli.CHECK_NAMES)], ids=["polarization", "all"])
@pytest.mark.parametrize("command", ["verify", "expect", "vacuum-scan"])
def test_underflowing_field_scale_rejected_whatever_checks(tmp_path, capsys, checks, command):
    # The cell (2 pi / L)^3 = 2.5e-298 is a normal float, but each mode's vacuum
    # <E^2> term Delta3p omega / (2 pi hbar)^2, the square of its E-field scale,
    # rounds to 0.0: verify would divide by it, and the scan would write zeros.
    data = default_data()
    data["lattice"]["length"] = 1e100
    data["checks"] = checks
    config = write_scenario(tmp_path, data)
    out = tmp_path / "o"
    assert cli.main([command, "--config", config, "--out", str(out)]) == 2
    assert "scenario.lattice: the vacuum <E^2> term" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("c", [1e308, 4e307])
@pytest.mark.parametrize("command", ["verify", "expect", "vacuum-scan"])
def test_vacuum_scan_that_can_overflow_rejected_whatever_command(tmp_path, capsys, command, c):
    # Every lattice term is finite, but the scan's sum is not: at c = 1e308
    # every cutoff wrote inf; at c = 4e307 cutoffs 3 and 4 did.
    data = default_data()
    data["lattice"]["c"] = c
    data["checks"] = ["polarization"]
    config = write_scenario(tmp_path, data)
    out = tmp_path / "o"
    assert cli.main([command, "--config", config, "--out", str(out)]) == 2
    assert "scenario.vacuum_scan: the sum to cutoff 4 can overflow" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "expect", "vacuum-scan"])
def test_lattice_with_finite_terms_refused_by_the_scan_bound(tmp_path, capsys, command):
    # At L = pi and c = 2e307 the mode term Delta3p (omega / (2 pi hbar)^2) is
    # 8.1e306, finite since it divides before it multiplies; the scan to cutoff 4 is not.
    data = default_data()
    data["lattice"]["length"] = np.pi
    data["lattice"]["c"] = 2e307
    data["checks"] = ["polarization"]
    config = write_scenario(tmp_path, data)
    out = tmp_path / "o"
    assert cli.main([command, "--config", config, "--out", str(out)]) == 2
    assert "scenario.vacuum_scan: the sum to cutoff 4 can overflow" in capsys.readouterr().err
    assert not out.exists()


def test_coherent_state_above_170_quanta_runs(tmp_path):
    # 171! does not fit a float; the profile never forms it.
    data = default_data()
    data["lattice"]["modes"] = [{"s": 1, "n": [0, 0, 1]}]
    data["lattice"]["n_max"] = 200
    data["state"].update(alpha=[10.0, 0.0], cap=200)
    out = tmp_path / "o"
    assert cli.main(["expect", "--config", write_scenario(tmp_path, data), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "grid.csv", delimiter=",", skiprows=1)
    # <E> = 2 Re(coefficient alpha): amplitude 2 |alpha| sqrt(Delta3p omega) / (2 pi hbar sqrt(2))
    # per transverse component, with Delta3p = (2 pi hbar / L)^3 and omega = c 2 pi / L for |n| = 1.
    length, hbar, c = (data["lattice"][key] for key in ("length", "hbar", "c"))
    delta3p, omega = (2.0 * np.pi * hbar / length) ** 3, c * 2.0 * np.pi / length
    expected = 20.0 * np.sqrt(delta3p * omega) / (2.0 * np.pi * hbar * np.sqrt(2.0))
    assert np.allclose(np.hypot(rows[:, 4], rows[:, 5]), expected, rtol=1e-12)


def test_vacuum_scan_below_the_overflow_bound_runs(tmp_path):
    data = default_data()
    data["lattice"]["c"] = 1e305
    out = tmp_path / "o"
    assert cli.main(["vacuum-scan", "--config", write_scenario(tmp_path, data), "--out", str(out)]) == 0
    values = [float(line.split(",")[1]) for line in (out / "vacuum_scan.csv").read_text().splitlines()[1:]]
    assert len(values) == 4 and all(0.0 < v < np.inf for v in values)


@pytest.mark.parametrize(
    "command,checks",
    [("verify", ["polarization"]), ("verify", list(cli.CHECK_NAMES)), ("expect", list(cli.CHECK_NAMES))],
    ids=["verify_polarization", "verify_all", "expect"],
)
def test_coherent_state_with_underflowing_norm_rejected(tmp_path, capsys, command, checks):
    # Its largest amplitude, about 4e-192, is not zero, but every square
    # underflows: the norm FockState divides by is 0.0.
    data = default_data()
    data["state"]["alpha"] = [30.0, 0.0]
    data["checks"] = checks
    config = write_scenario(tmp_path, data)
    out = tmp_path / "o"
    assert cli.main([command, "--config", config, "--out", str(out)]) == 2
    assert "scenario.state.alpha: the amplitude norm must be finite and nonzero" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--seed", "1"]], ids=["seed"])
@pytest.mark.parametrize(
    "command", [["expect"], ["vacuum-scan"], ["dump-operator", "--operator", "N"]], ids=["expect", "vacuum_scan", "dump_operator"]
)
def test_verify_options_refused_by_other_commands(tmp_path, capsys, command, flag):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--out", str(out), *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err
    assert not out.exists()


def test_repeated_superposition_term_rejected(tmp_path, capsys):
    data = default_data()
    data["state"] = _superposition([1.0, 0.0], [0.5, 0.0])
    data["state"]["terms"][1]["occupancies"] = [0, 0, 0, 0]
    data["checks"] = ["polarization"]
    config = write_scenario(tmp_path, data)
    assert cli.main(["verify", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "scenario.state.terms[1].occupancies" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name", ["a@x", "N@1.5", "Ex@0,0,nan,0", "a@0_1", "a@ 1", "Ex@0_3,0,0,0", "a@00", "adag@01", "N@03"]
)
def test_bad_operator_argument_rejected(tmp_path, capsys, name):
    assert cli.main(["dump-operator", "--out", str(tmp_path / "o"), "--operator", name]) == 2
    assert repr(name) in capsys.readouterr().err


@pytest.mark.parametrize(
    "name,message",
    [
        ("a@9", "operator 'a@9': mode index must be an integer in 0..3"),
        (
            "Q",
            "unknown operator 'Q'; use N, H, Px/Py/Pz, Sx/Sy/Sz, a@<mode>, adag@<mode>, "
            "N@<mode>, or Ex@rx,ry,rz,t (likewise B*, A*)",
        ),
        ("Ex@0,0,nan,0", "operator 'Ex@0,0,nan,0': expected '<F><c>@rx,ry,rz,t' with 4 finite numbers"),
    ],
    ids=["a@9", "Q", "Ex@0,0,nan,0"],
)
def test_bad_operator_refused_before_the_basis_is_built(tmp_path, capsys, monkeypatch, name, message):
    from photonfield import fock

    def build_basis(config):
        raise AssertionError("basis built before --operator was checked")

    monkeypatch.setattr(fock, "build_basis", build_basis)
    assert cli.main(["dump-operator", "--out", str(tmp_path / "o"), "--operator", name]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("kind", ["vacuum", "number", "coherent", "superposition"])
def test_build_state_equals_library_constructors(kind):
    from photonfield import ensembles, fock

    data = default_data()
    basis = fock.build_basis(cli.parse_scenario(data).lattice)
    occupancies = [1, 0, 2, 3]
    # The coherent mode is the last of the four, and alpha is complex.
    alpha, mode = complex(0.4, -0.7), (-1, (0, 0, -1))
    terms = {(0, 0, 0, 0): complex(0.6, 0.1), (1, 0, 0, 0): complex(-0.3, 0.45), (1, 1, 0, 1): complex(0.2, -0.7)}
    cases = {
        "vacuum": ({"kind": "vacuum"}, lambda: ensembles.vacuum(basis)),
        "number": (
            {"kind": "number", "occupancies": occupancies},
            lambda: ensembles.number_state(basis, occupancies),
        ),
        "coherent": (
            {"kind": "coherent", "alpha": [alpha.real, alpha.imag], "mode": {"s": -1, "n": [0, 0, -1]}, "cap": 3},
            lambda: ensembles.superposition(basis, ensembles.coherent_profile(alpha, mode, 3)),
        ),
        "superposition": (
            {
                "kind": "superposition",
                "terms": [{"occupancies": list(occ), "amplitude": [a.real, a.imag]} for occ, a in terms.items()],
            },
            lambda: ensembles.superposition(basis, terms),
        ),
    }
    data["state"], construct = cases[kind]
    got = cli.build_state(cli.parse_scenario(data), basis)
    want = construct()
    assert got.coefficients.tobytes() == want.coefficients.tobytes()
    assert got.norm_deficit == want.norm_deficit


def test_gridless_expectation_points_draw_the_per_point_stream(monkeypatch):
    from photonfield import ensembles

    data = default_data()
    del data["grid"]
    data["checks"] = ["expectations"]
    scenario = cli.parse_scenario(data)
    ctx = cli.RunContext(scenario)
    seen = []
    table = ensembles.mean_field_table

    def spy(state, kind, r, t):
        if kind is FieldKind.E:
            seen.append((r.copy(), t.copy()))
        return table(state, kind, r, t)

    monkeypatch.setattr(ensembles, "mean_field_table", spy)
    cli.check_expectations(ctx)
    r, t = oracles.expectation_points_oracle(ctx.rng("expectations"), 8)
    assert len(seen) == 2
    for got_r, got_t in seen:
        assert np.array_equal(got_r, r)
        assert got_t.tolist() == t.tolist()


@pytest.mark.parametrize("grid", [True, False], ids=["grid", "gridless"])
def test_expectation_check_assembles_ladders_once_and_four_fields(monkeypatch, grid):
    from photonfield import fields, fock

    calls = {"field": [], "annihilation": [], "creation": []}

    def counting(module, name):
        original = getattr(module, name)

        def wrapped(basis, *args):
            calls[name].append(args[0])
            return original(basis, *args)

        monkeypatch.setattr(module, name, wrapped)

    counting(fields, "field")
    counting(fock, "annihilation")
    counting(fock, "creation")
    data = default_data()
    if not grid:
        del data["grid"]
    scenario = cli.parse_scenario(data)
    ctx = cli.RunContext(scenario)
    records = cli.check_expectations(ctx)
    assert all(r.passed for r in records)
    # One anchor per kind and the vacuum E.
    assert len(calls["field"]) <= 4
    assert calls["annihilation"] == list(ctx.basis.modes)
    assert calls["creation"] == list(ctx.basis.modes)


def test_verify_builds_each_ladder_operator_once(tmp_path, monkeypatch):
    from photonfield import fock

    calls = {"annihilation": [], "creation": []}

    def counting(name):
        original = getattr(fock, name)

        def wrapped(basis, mode):
            calls[name].append(mode)
            return original(basis, mode)

        monkeypatch.setattr(fock, name, wrapped)

    counting("annihilation")
    counting("creation")
    assert cli.main(["verify", "--out", str(tmp_path)]) == 0
    modes = list(cli.load_scenario(None).lattice.modes)
    assert calls == {"annihilation": modes, "creation": modes}


def test_warm_verify_builds_no_scipy_matrix(tmp_path, monkeypatch):
    # verify's sparse algebra runs scipy's kernels on the operators' own
    # arrays; a scipy matrix costs more to build than the kernel does.  The
    # first pass is left out: it may load and set up what later ones reuse.
    import scipy.sparse as sp
    from scipy.sparse import _compressed

    assert cli.main(["verify", "--out", str(tmp_path / "first")]) == 0
    built, init = [], _compressed._cs_matrix.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_compressed._cs_matrix, "__init__", counting)
    sp.csr_matrix((2, 2))
    assert built == ["csr_matrix"]  # the count sees a construction
    built.clear()
    assert cli.main(["verify", "--out", str(tmp_path / "second")]) == 0
    assert built == []


def test_error_inside_a_check_is_not_reported_as_configuration(tmp_path, monkeypatch):
    from photonfield import fields

    def broken(*args, **kwargs):
        raise ValueError("defect inside a check")

    monkeypatch.setattr(fields, "check_maxwell", broken)
    data = default_data()
    data["checks"] = ["maxwell"]
    config = write_scenario(tmp_path, data)
    with pytest.raises(ValueError, match="defect inside a check"):
        cli.main(["verify", "--config", config, "--out", str(tmp_path / "o")])


class ScriptedWords:
    """Stand-in generator serving randbytes from a fixed list of 64-bit words."""

    def __init__(self, words):
        self.words = list(words)

    def randbytes(self, n):
        words, self.words = self.words[: n // 8], self.words[n // 8 :]
        return b"".join(w.to_bytes(8, "little") for w in words)


def test_stacked_random_directions_draw_the_per_call_stream():
    got = cli._random_directions(random.Random("20260808/0"), 996)
    want = oracles.random_directions_oracle(random.Random("20260808/0"), 996)
    assert np.array_equal(got, want)
    # The extreme words: u = 0 (the pole z = -1) and u = 1 - 2**-53.
    extreme = cli._random_directions(ScriptedWords([0, 0, 2**64 - 1, 2**64 - 1, 0, 2**63]), 3)
    assert extreme[0].tolist() == [0.0, 0.0, -1.0]
    # Unit rows to a few ulps, as a row divided by its norm is.
    for rows in (got, extreme):
        assert np.max(np.abs(np.vecdot(rows, rows) - 1.0)) <= 4 * np.finfo(float).eps


def test_uniforms_stacked_equal_row_by_row_and_the_oracle():
    stacked, rows, words = (random.Random("7/5") for _ in range(3))
    draw = cli._uniforms(stacked, (20, 8))
    assert np.array_equal(draw, np.stack([cli._uniforms(rows, (8,)) for _ in range(20)]))
    assert draw.ravel().tolist() == [oracles.uniform_oracle(words) for _ in range(160)]
    # All three leave the stream at the same word.
    assert stacked.getrandbits(64) == rows.getrandbits(64) == words.getrandbits(64)
    assert 0.0 <= draw.min() and draw.max() < 1.0


def _check_records(tmp_path, name, checks, seed):
    data = default_data()
    data["checks"] = checks
    out = tmp_path / "-".join(checks)
    assert cli.main(["verify", "--config", write_scenario(tmp_path, data), "--out", str(out), "--seed", str(seed)]) == 0
    records = json.loads((out / "report.json").read_text())["records"]
    return [r for r in records if r["check"].startswith(f"{name}.")]


@pytest.mark.parametrize("name", ["commutators", "expectations"])
def test_check_draws_do_not_depend_on_the_other_checks(tmp_path, name):
    # Each check's stream is its own: alone, with all checks and in reversed
    # order, its residuals are the same floats.
    alone = _check_records(tmp_path, name, [name], 9001)
    assert alone and all(r["residual"] > 0.0 for r in alone if r["check"].endswith(("matrix_vs_closed", "two_path")))
    assert _check_records(tmp_path, name, list(cli.CHECK_NAMES), 9001) == alone
    assert _check_records(tmp_path, name, list(reversed(cli.CHECK_NAMES)), 9001) == alone


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**64 + 1])
def test_verify_passes_at_seeds_past_the_word_sizes(tmp_path, seed):
    out = tmp_path / "o"
    assert cli.main(["verify", "--out", str(out), "--seed", str(seed)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == seed
    assert len(report["records"]) == 23 and all(r["pass"] for r in report["records"])


def test_distinct_seeds_and_checks_draw_distinct_streams():
    scenario = cli.parse_scenario(default_data())
    seeds = [0, 1, 10, 2**32 - 1, 2**32, 2**64 + 1]
    draws = {
        cli._uniforms(cli.RunContext(replace(scenario, seed=seed)).rng(check), (4,)).tobytes()
        for seed in seeds
        for check in cli.CHECK_NAMES
    }
    assert len(draws) == len(seeds) * len(cli.CHECK_NAMES)
    # The same seed and check draw the same stream in a new context.
    again = cli.RunContext(replace(scenario, seed=10)).rng("helicity")
    assert cli._uniforms(again, (4,)).tobytes() in draws
