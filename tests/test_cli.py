import argparse
import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vqchem import (
    build_fermion_hamiltonian,
    build_hubbard,
    build_ry_ansatz,
    expectation,
    fixture_path,
    hf_energy,
    load_civector,
    load_fcidump,
    parity_transform,
    parse_fcidump,
    simulate_state,
    write_fcidump,
)
from vqchem import cli
from vqchem.cli import (
    _hea_init_params,
    _qubit_hamiltonian,
    _reference_bitstring,
    main,
)
from oracles import dense_qubit_operator
from test_ansatz import H4_DOCI_GROUND

H2_FCI = -1.1372744055294606


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Exit codes and plumbing
# ---------------------------------------------------------------------------

def test_missing_input_is_a_usage_error(capsys):
    code, _, err = run(capsys, "vqe")
    assert code == 2
    assert "usage error" in err


def test_unknown_fixture_is_a_usage_error(capsys):
    code, _, err = run(capsys, "vqe", "--fcidump", "no_such_molecule")
    assert code == 2
    assert "not found" in err


def test_domain_error_exits_one(capsys):
    for argv in (("vqe", "--fcidump", "h2_sto3g", "--active-space", "2,5"),
                 ("fci", "--fcidump", "h4_sto3g", "--active-space", "0,0"),
                 ("fci", "--fcidump", "h4_sto3g", "--active-space=-2,3")):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "InvalidActiveSpace" in err


def test_non_finite_integrals_exit_one(capsys, tmp_path):
    text = fixture_path("h2_sto3g").read_text()
    path = tmp_path / "nan.fcidump"
    path.write_text(text.replace("6.9746738501292427e-01", "nan"))
    code, out, err = run(capsys, "fci", "--fcidump", str(path),
                         "--format", "json")
    assert code == 1
    assert "InvalidModel" in err and "NaN" not in out


def test_truncated_state_file_exits_one(capsys, tmp_path):
    path = tmp_path / "state.civec"
    path.write_bytes(b"\x02\x00\x00\x00\x01\x00")
    code, _, err = run(capsys, "fci", "--fcidump", "h2_sto3g",
                       "--load-state", str(path))
    assert code == 1
    assert "ParseError" in err


@pytest.mark.parametrize("command", [
    ("fci", "--fcidump", "h2_sto3g", "--format", "json"),
    ("convert", "--to", "state-json"),
])
def test_non_finite_state_file_exits_one(capsys, tmp_path, command):
    path = tmp_path / "state.civec"
    code, _, _ = run(capsys, "fci", "--fcidump", "h2_sto3g",
                     "--save-state", str(path))
    assert code == 0
    raw = bytearray(path.read_bytes())
    raw[12:20] = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    code, out, err = run(capsys, *command, "--load-state", str(path))
    assert code == 1
    assert "ParseError" in err and "NaN" not in out


def test_bad_grid_is_a_usage_error(capsys):
    code, _, err = run(capsys, "sweep", "--kind", "noise",
                       "--fcidump", "h2_sto3g", "--p-grid", "zero:one")
    assert code == 2


@pytest.mark.parametrize("flags, flag", [
    (("--kind", "noise", "--p-grid", "0:1:-0.1"), "--p-grid"),
    (("--kind", "shots", "--shots-grid", ","), "--shots-grid"),
    (("--kind", "noise", "--layers", ","), "--layers"),
    (("--kind", "dg", "--dg-grid", "0:-2:0.25"), "--dg-grid"),
])
def test_empty_sweep_grid_is_a_usage_error(capsys, flags, flag):
    code, out, err = run(capsys, "sweep", "--fcidump", "h2_sto3g", *flags,
                         "--format", "json")
    assert code == 2 and out == ""
    assert err.startswith(f"usage error: {flag}:")


@pytest.mark.parametrize("argv, flag", [
    (("sweep", "--kind", "shots", "--fcidump", "h2_sto3g", "--repeats", "0"),
     "--repeats"),
    (("vqe", "--fcidump", "h2_sto3g", "--maxiter", "-1"), "--maxiter"),
    (("adapt", "--fcidump", "h2_sto3g", "--max-iter", "-1"), "--max-iter"),
])
def test_count_below_its_floor_is_a_usage_error(capsys, monkeypatch, argv,
                                                flag):
    for name in ("kernel", "adapt_vqe", "hea_kernel"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"usage error: argument {flag}: must be >= ")


def test_grid_past_the_point_limit_is_a_usage_error(capsys, monkeypatch):
    """A range is counted before its points are made: one past the limit,
    or an infinite one, is refused before any work, and the limit itself is
    accepted."""
    monkeypatch.setattr(cli, "hea_kernel", refuse)
    for grid, message in (
            ("0:1:0.0001", "10,001 points exceed the limit of 10,000"),
            ("0:inf:1", "expected 'a,b,c' or 'start:stop:step'")):
        code, out, err = run(capsys, "sweep", "--kind", "noise", "--fcidump",
                             "h2_sto3g", "--p-grid", grid)
        assert code == 2 and out == ""
        assert err == f"usage error: --p-grid: {message}\n"
    assert len(cli._float_grid("0:0.9999:0.0001", "p-grid")) == 10_000


@pytest.mark.parametrize("argv", [
    ("vqe", "--fcidump", "h2_sto3g", "--ansatz", "kupccgsd", "--k", "0"),
    ("hubbard", "--sites", "2", "--ansatz", "kupccgsd", "--k", "0"),
    ("adapt", "--fcidump", "h2_sto3g", "--epsilon", "0"),
    ("fci", "--fcidump", "h4_sto3g", "--load-state", "h2.civec"),
])
def test_refused_parameter_exits_one_with_its_class(capsys, tmp_path,
                                                    monkeypatch, argv):
    """A parameter the library refuses (--load-state: a state of another
    CI space) exits 1 with its error class, not a traceback."""
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "fci", "--fcidump", "h2_sto3g",
                     "--save-state", "h2.civec")
    assert code == 0
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.splitlines()[-1].startswith("InvalidParams: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("fci", "--fcidump", "h2_sto3g", "--seed", "1"),
    ("adapt", "--fcidump", "h2_sto3g", "--seed", "1"),
    ("dynamics", "--seed", "1"),
    ("convert", "--fcidump", "h2_sto3g", "--to", "jw", "--seed", "1"),
    ("convert", "--fcidump", "h2_sto3g", "--to", "jw", "--format", "json"),
    ("fci", "--fcidump", "h2_sto3g", "--fci-reference"),
    ("noisy", "--fcidump", "h2_sto3g", "--no-fci-reference"),
    ("hubbard", "--sites", "2", "--save-ansatz", "unused.ansatz"),
    ("sweep", "--kind", "files", "--files", "h2_sto3g", "--save-ansatz",
     "unused.ansatz"),
])
def test_a_flag_the_subcommand_would_ignore_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: unrecognized arguments")


def test_sweep_files_honours_maxiter(capsys):
    code, out, _ = run(capsys, "sweep", "--kind", "files", "--files",
                       "h4_sto3g", "--maxiter", "1", "--format", "json")
    assert code == 0
    e_sweep = json.loads(out)["rows"][0][3]
    code, out, _ = run(capsys, "vqe", "--fcidump", "h4_sto3g", "--maxiter",
                       "1", "--format", "json")
    assert code == 0
    assert e_sweep == json.loads(out)["energies"]["ucc"]
    # one curvature-preconditioned step, still above the converged energy
    assert abs(e_sweep - (-2.16743131)) < 1e-8
    assert e_sweep > -2.16754616


@pytest.mark.parametrize("command", sorted(cli._RUNNERS))
def test_help_renders_every_declared_default(capsys, command):
    """argparse formats help only on --help, so a bad ``%(default)s``
    string would fail there alone."""
    _, commands = cli._build_parser()
    defaults = [action.default for action in commands[command]._actions
                if action.option_strings
                and action.default not in (None, argparse.SUPPRESS)]
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert text.startswith(f"usage: vqchem {command}")
    for default in defaults:
        assert f"(default: {default})" in text
    if command == "dynamics":
        assert "--tau TAU integrator step (default: 0.02)" in text


# ---------------------------------------------------------------------------
# vqe
# ---------------------------------------------------------------------------

def test_vqe_json_payload(capsys):
    code, out, _ = run(capsys, "vqe", "--fcidump", "h2_sto3g",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["energies"]["ucc"] - H2_FCI) < 1e-9
    assert abs(payload["energies"]["fci"] - H2_FCI) < 1e-9
    assert payload["converged"] is True
    assert "wall_time_s" not in payload  # artifacts are byte-reproducible


def test_vqe_text_output_default(capsys):
    code, out, _ = run(capsys, "vqe", "--fcidump", "h2_sto3g")
    assert code == 0
    assert "Energy" in out and "UCCSD" in out


def test_vqe_output_file_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "vqe", "--fcidump", "h4_sto3g",
                         "--output", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert abs(payload["energies"]["ucc"] * 1000 - (-2167.55)) < 0.05


def test_vqe_text_output_file_is_deterministic(capsys, tmp_path):
    """The text summary's wall-clock opt_time line goes to the terminal,
    never into the artifact."""
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        code, out, _ = run(capsys, "vqe", "--fcidump", "h2_sto3g",
                           "--format", "text", "--output", str(path))
        assert code == 0
        assert "opt_time" in out
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert "opt_time" not in text and "Optimization Result" in text


def test_vqe_save_state_and_ansatz(capsys, tmp_path):
    state = tmp_path / "h2.civec"
    ansatz = tmp_path / "h2.ansatz"
    code, _, _ = run(capsys, "vqe", "--fcidump", "h2_sto3g",
                     "--save-state", str(state), "--save-ansatz", str(ansatz))
    assert code == 0
    v = load_civector(state)
    amps = v.amplitudes * np.sign(v.amplitudes[0])
    np.testing.assert_allclose(amps, [0.99362381, 0.0, 0.0, -0.11274632],
                               atol=1e-6)
    # the stored ansatz reproduces the optimum when used as a custom input
    code, out, _ = run(capsys, "vqe", "--fcidump", "h2_sto3g",
                       "--ansatz", "custom", "--ansatz-file", str(ansatz),
                       "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["energies"]["ucc"] - H2_FCI) < 1e-9


@pytest.mark.parametrize("lines", [
    ["0 (3,2) nan"],
    ["0 (3,2) inf"],
    ["0 (3,2) nan", "0 (1,0) nan"],  # not reported as conflicting guesses
])
def test_vqe_non_finite_ansatz_guess_exits_one(capsys, tmp_path, lines):
    ansatz = tmp_path / "bad.ansatz"
    ansatz.write_text("\n".join(lines) + "\n")
    artifact = tmp_path / "out.json"
    code, out, err = run(capsys, "vqe", "--fcidump", "h2_sto3g",
                         "--ansatz", "custom", "--ansatz-file", str(ansatz),
                         "--output", str(artifact))
    assert code == 1
    assert "ParseError" in err and "not finite" in err
    assert "NaN" not in out
    assert not artifact.exists() or "NaN" not in artifact.read_text()


@pytest.mark.parametrize("line, message", [
    ("0 (9,1) 0.0", "index 9 outside 0..7"),
    ("0 (4,0) 0.0", "(4, 0) changes the particle count of a spin sector"),
], ids=["out-of-range", "spin-changing"])
@pytest.mark.parametrize("argv", [
    ("vqe", "--fcidump", "h4_sto3g"),
    ("hubbard", "--sites", "4"),
    ("sweep", "--kind", "files", "--files", "h4_sto3g"),
], ids=["vqe", "hubbard", "sweep"])
def test_bad_custom_excitation_is_refused_before_the_fci_reference(
        capsys, monkeypatch, tmp_path, argv, line, message):
    """load_ansatz checks each excitation as it reads it, with the check
    the table builder applies, and names the file line."""
    def no_fci(*args, **kwargs):
        raise AssertionError("the FCI reference was solved")

    monkeypatch.setattr(cli, "fci_ground_state", no_fci)
    ansatz = tmp_path / "bad.ansatz"
    ansatz.write_text(f"0 (2,0) 0.0\n{line}\n")
    code, out, err = run(capsys, *argv, "--ansatz", "custom",
                         "--ansatz-file", str(ansatz))
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == f"InvalidExcitation: line 2: {message}"


def test_vqe_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[common]\nfcidump = h2_sto3g\n"
                   "[vqe]\nansatz = kupccgsd\nk = 2\n")
    code, out, _ = run(capsys, "vqe", "--config", str(cfg),
                       "--format", "json")
    assert code == 0
    n_kup = len(json.loads(out)["ex_ops"])
    # a command-line flag overrides the config value
    code, out, _ = run(capsys, "vqe", "--config", str(cfg),
                       "--ansatz", "uccsd", "--format", "json")
    assert code == 0
    n_ucc = len(json.loads(out)["ex_ops"])
    assert n_kup == 6 and n_ucc == 3


def refuse(*args, **kwargs):
    raise AssertionError("the optimiser ran")


def test_config_value_outside_the_choices_exits_two(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[dynamics]\nintegrator = rk5\n")
    code, out, err = run(capsys, "dynamics", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("usage error: argument --integrator: invalid "
                          "choice: 'rk5'")
    assert len(err.splitlines()) == 1


def test_config_format_is_checked_before_any_work(capsys, monkeypatch,
                                                 tmp_path):
    monkeypatch.setattr(cli, "kernel", refuse)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[common]\nfcidump = h4_sto3g\n[vqe]\nformat = xml\n")
    code, out, err = run(capsys, "vqe", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "invalid choice: 'xml'" in err


def test_config_files_list_is_read(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[sweep]\nfiles = {fixture_path('h2_sto3g')}\n")
    code, out, _ = run(capsys, "sweep", "--kind", "files", "--config",
                       str(cfg), "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 1 and abs(rows[0][3] - H2_FCI) < 1e-9


def test_config_key_that_names_no_option_is_ignored(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[common]\nseed = 3\nno_such_key = 1\n")
    code, out, _ = run(capsys, "fci", "--fcidump", "h2_sto3g", "--config",
                       str(cfg), "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["fci"] - H2_FCI) < 1e-9


def test_config_boolean_is_overridden_by_its_flag(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[vqe]\nsort = no\n")
    base = ("vqe", "--fcidump", "h4_sto3g", "--format", "json")
    order = {}
    for name, extra in [("sorted", ()), ("config", ("--config", str(cfg))),
                        ("flag", ("--config", str(cfg), "--sort"))]:
        code, out, _ = run(capsys, *base, *extra)
        assert code == 0
        order[name] = json.loads(out)["ex_ops"]
    assert order["config"] != order["sorted"]
    assert order["flag"] == order["sorted"]
    cfg.write_text("[vqe]\nsort = maybe\n")
    code, _, err = run(capsys, *base, "--config", str(cfg))
    assert code == 2 and "--sort: expected a boolean" in err


# ---------------------------------------------------------------------------
# fci / adapt / hubbard
# ---------------------------------------------------------------------------

def test_fci_json(capsys):
    code, out, _ = run(capsys, "fci", "--fcidump", "h2_sto3g",
                       "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["fci"] - H2_FCI) < 1e-9


def test_adapt_json(capsys):
    code, out, _ = run(capsys, "adapt", "--fcidump", "h2_sto3g",
                       "--epsilon", "1e-4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["final_energy"] - H2_FCI) < 1e-8
    traj = payload["trajectory"]
    assert all(b <= a + 1e-10 for a, b in zip(traj, traj[1:]))
    assert payload["converged"] is True
    assert payload["pool_gradient_norm"] < 1e-4
    assert payload["optimizer_converged"] == [True]


def test_adapt_says_it_stopped_at_max_iter(capsys):
    code, out, _ = run(capsys, "adapt", "--fcidump", "h4_sto3g",
                       "--max-iter", "1", "--format", "json")
    assert code == 0
    assert "NaN" not in out
    payload = json.loads(out)
    assert payload["converged"] is False
    assert payload["pool_gradient_norm"] >= payload["epsilon"]
    assert len(payload["trajectory"]) == 2
    assert len(payload["optimizer_converged"]) == 1
    code, out, _ = run(capsys, "adapt", "--fcidump", "h4_sto3g",
                       "--max-iter", "1")
    assert code == 0 and "stopped at --max-iter 1: pool-gradient norm" in out


def test_vqe_puccd_saves_its_full_space_state(capsys, tmp_path):
    state = tmp_path / "h4.civec"
    code, out, _ = run(capsys, "vqe", "--fcidump", "h4_sto3g",
                       "--ansatz", "puccd", "--save-state", str(state),
                       "--format", "json")
    assert code == 0
    e_puccd = json.loads(out)["energies"]["ucc"]
    assert abs(e_puccd - H4_DOCI_GROUND) < 1e-4
    code, out, _ = run(capsys, "fci", "--fcidump", "h4_sto3g",
                       "--load-state", str(state), "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["loaded_energy"] - e_puccd) <= 1e-10


@pytest.mark.parametrize("command, optimiser, flag", [
    pytest.param("vqe", "kernel", "--save-state", id="vqe-kernel"),
    pytest.param("adapt", "adapt_vqe", "--save-state", id="adapt-adapt_vqe"),
    pytest.param("vqe", "kernel", "--fci-reference",
                 id="vqe-kernel-fci-reference"),
    pytest.param("adapt", "adapt_vqe", "--fci-reference",
                 id="adapt-adapt_vqe-fci-reference"),
])
def test_save_state_past_the_size_limit_runs_nothing(capsys, monkeypatch,
                                                     tmp_path, command,
                                                     optimiser, flag):
    import vqchem.cli as cli
    from vqchem import civector

    def refuse(*args, **kwargs):
        raise AssertionError("the optimiser ran")

    monkeypatch.setattr(cli, optimiser, refuse)
    monkeypatch.setattr(civector, "_ITERATIVE_LIMIT", 35)  # h4 has 36
    state = tmp_path / "h4.civec"
    argv = [command, "--fcidump", "h4_sto3g", flag]
    if flag == "--save-state":
        argv.append(str(state))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("SizeLimit:")
    assert not state.exists()


def test_vqe_puccd_reports_doci(capsys):
    code, out, _ = run(capsys, "vqe", "--fcidump", "h4_sto3g",
                       "--ansatz", "puccd", "--format", "json")
    assert code == 0
    energies = json.loads(out)["energies"]
    assert abs(energies["doci"] - H4_DOCI_GROUND) < 1e-10
    assert energies["fci"] <= energies["doci"] <= energies["ucc"]
    code, out, _ = run(capsys, "vqe", "--fcidump", "h4_sto3g",
                       "--ansatz", "puccd", "--no-fci-reference",
                       "--format", "json")
    assert code == 0
    energies = json.loads(out)["energies"]
    assert energies["doci"] is None and energies["fci"] is None
    code, out, _ = run(capsys, "vqe", "--fcidump", "h4_sto3g",
                       "--format", "json")
    assert code == 0 and "doci" not in json.loads(out)["energies"]


def test_vqe_puccd_h16_save_state_is_refused_up_front(capsys, monkeypatch,
                                                      tmp_path, h16_fcidump):
    import vqchem.cli as cli

    monkeypatch.setattr(cli, "kernel", None)  # never reached
    code, _, err = run(capsys, "vqe", "--ansatz", "puccd", "--fcidump",
                       str(h16_fcidump), "--save-state",
                       str(tmp_path / "h16.civec"))
    assert code == 1
    assert err.startswith("SizeLimit: CI dimension 165636900")


def test_vqe_puccd_h16_solves_no_fci(capsys, tmp_path, h16_fcidump):
    # 165,636,900 determinants: the FCI reference is skipped, and nothing
    # else solves it (the iterative solver would refuse the size); the
    # 12,870 pair configurations still get their DOCI reference
    out = tmp_path / "puccd.json"
    assert main(["vqe", "--ansatz", "puccd", "--fcidump", str(h16_fcidump),
                 "--output", str(out)]) == 0
    energies = json.loads(out.read_text())["energies"]
    assert energies["fci"] is None
    assert energies["ucc"] < energies["hf"]
    assert energies["doci"] <= energies["ucc"]
    assert any(line.split() == ["FCI", "-", "-", "-"]
               for line in capsys.readouterr().out.splitlines())


def test_hubbard_past_the_size_limit_runs_nothing(capsys, monkeypatch):
    from vqchem import civector

    monkeypatch.setattr(cli, "kernel", refuse)
    monkeypatch.setattr(civector, "_ITERATIVE_LIMIT", 35)  # 4 sites: 36
    code, out, err = run(capsys, "hubbard", "--sites", "4")
    assert code == 1
    assert out == ""
    assert err.startswith("SizeLimit:")


def test_hubbard_chain_past_the_size_limit_builds_no_integrals(
        capsys, monkeypatch):
    """150 sites would take 3.77 GiB of two-electron integrals: the CI
    size is refused before the chain is built."""
    monkeypatch.setattr(cli, "build_hubbard", refuse)
    code, out, err = run(capsys, "hubbard", "--sites", "150")
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1].startswith("SizeLimit:")
    assert "Traceback" not in err


def test_fci_on_a_huge_fcidump_header_is_a_size_limit(capsys, tmp_path):
    dump = tmp_path / "huge.fcidump"
    dump.write_text("&FCI NORB=100000,NELEC=2,MS2=0, &END\n")
    code, out, err = run(capsys, "fci", "--fcidump", str(dump))
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1].startswith("SizeLimit:")
    assert "Traceback" not in err


def test_fci_past_64_orbitals_is_a_size_limit(capsys, tmp_path):
    """70 orbitals pass the integral-size check (192 MB) but not the CI
    space's 64-bit strings, which are refused before one is built."""
    dump = tmp_path / "wide.fcidump"
    dump.write_text("&FCI NORB=70,NELEC=2,MS2=0, &END\n")
    code, out, err = run(capsys, "fci", "--fcidump", str(dump))
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1].startswith("SizeLimit: 70 orbitals")
    assert "Traceback" not in err


@pytest.mark.parametrize("sites", ["0", "1", "-1"])
def test_hubbard_with_too_few_sites_is_an_invalid_model(capsys, sites):
    """--sites 0 is a value, not a missing flag: it reaches the model
    builder and is refused there, as --sites 1 is."""
    code, out, err = run(capsys, "hubbard", "--sites", sites)
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == (
        "InvalidModel: Hubbard chain needs at least 2 sites")


def test_hubbard_refuses_its_ansatz_before_the_fci_solve(capsys,
                                                         monkeypatch):
    def no_fci(*args, **kwargs):
        raise AssertionError("the FCI reference was solved")

    monkeypatch.setattr(cli, "fci_ground_state", no_fci)
    code, out, err = run(capsys, "hubbard", "--sites", "4", "--ansatz",
                         "kupccgsd", "--k", "0")
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1].startswith("InvalidParams: ")


def test_hubbard_free_fermions(capsys):
    code, out, _ = run(capsys, "hubbard", "--sites", "2", "--u", "0",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["fci"] - (-2.0)) < 1e-9
    assert abs(payload["hf"] - (-2.0)) < 1e-9


# ---------------------------------------------------------------------------
# noisy
# ---------------------------------------------------------------------------

def test_noisy_pinned_energies(capsys):
    code, out, _ = run(capsys, "noisy", "--fcidump", "h2_sto3g",
                       "--layers", "1", "--p", "0.25", "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["energy"] - (-0.9245310333)) < 1e-7
    code, out, _ = run(capsys, "noisy", "--fcidump", "h2_sto3g",
                       "--layers", "1", "--p", "0", "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["energy"] - H2_FCI) < 1e-6


@pytest.mark.parametrize("layers", [1, 2])
def test_hea_start_is_hartree_fock(h4, layers):
    h = parity_transform(build_fermion_hamiltonian(h4), h4.n_elec,
                         reduce_two_qubits=True)
    circuit = build_ry_ansatz(h.n_qubits, layers)
    init = _hea_init_params(circuit, _reference_bitstring(h))
    e = expectation(simulate_state(circuit, init), h)
    assert abs(e - hf_energy(h4)) < 1e-10


@pytest.mark.parametrize("transform", ["jw", "parity", "parity-reduced"])
def test_reference_bitstring_is_argmin_of_oracle_diagonal(h4, transform):
    h = _qubit_hamiltonian(h4, transform)
    diag = dense_qubit_operator(h).diagonal().real
    assert _reference_bitstring(h) == format(int(np.argmin(diag)),
                                             f"0{h.n_qubits}b")


def test_vqe_builds_one_ci_space(capsys, monkeypatch):
    from vqchem import civector

    built = []
    original = civector.CISpace.__init__

    def counting(self, *args):
        built.append(args)
        original(self, *args)

    civector.make_ci_space.cache_clear()
    monkeypatch.setattr(civector.CISpace, "__init__", counting)
    code, _, _ = run(capsys, "vqe", "--fcidump", "h4_sto3g",
                     "--format", "json")
    assert code == 0
    assert built == [(4, 4)]


def test_noisy_mini_language(capsys):
    code, out, _ = run(
        capsys, "noisy", "--fcidump", "h2_sto3g", "--layers", "1",
        "--noise", '{gate="CNOT", channel="depolarizing", p=0.25}',
        "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["energy"] - (-0.9245310333)) < 1e-7
    code, _, err = run(
        capsys, "noisy", "--fcidump", "h2_sto3g",
        "--noise", '{gate="CNOT", channel="bitflip", p=0.1}')
    assert code == 2
    assert "channel" in err


def test_noisy_misspelt_gate_is_an_error(capsys):
    """A channel bound to "cnot" would never be applied; the run exits 1
    and names the error instead of printing the noiseless energy."""
    code, out, err = run(
        capsys, "noisy", "--fcidump", "h2_sto3g", "--layers", "1",
        "--noise", '{gate="cnot", p=0.2}')
    assert code == 1
    assert "InvalidChannel" in err and "'cnot'" in err
    assert "E =" not in out


@pytest.mark.parametrize("spec", ['{gate="X", p=0.2}',
                                  '{gate="PAULI_ROT", p=0.2}',
                                  '{gate="cnot", p=0}'])
def test_noisy_refuses_noise_that_never_acts(capsys, spec):
    """The Ry ansatz holds no X or PAULI_ROT gate, so noise bound to them
    would leave the run noiseless; a misspelt kind is refused even at
    p = 0."""
    code, out, err = run(capsys, "noisy", "--fcidump", "h2_sto3g",
                         "--layers", "1", "--noise", spec)
    assert code == 1
    assert "InvalidChannel" in err
    assert "E =" not in out


def test_noisy_shots_seeded(capsys):
    args = ("noisy", "--fcidump", "h2_sto3g", "--layers", "1", "--p", "0.02",
            "--shots", "128", "--seed", "9", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------

def test_convert_fcidump_round_trip(capsys, tmp_path):
    out_path = tmp_path / "h2.fcidump"
    code, _, _ = run(capsys, "convert", "--fcidump", "h2_sto3g",
                     "--to", "fcidump", "--output", str(out_path))
    assert code == 0
    s = load_fcidump(fixture_path("h2_sto3g"))
    t = parse_fcidump(out_path.read_text())
    np.testing.assert_allclose(t.int1e, s.int1e, atol=1e-12)
    np.testing.assert_allclose(t.int2e, s.int2e, atol=1e-12)


def test_convert_qubit_hamiltonian_text(capsys):
    code, out, _ = run(capsys, "convert", "--fcidump", "h2_sto3g",
                       "--to", "jw")
    assert code == 0
    assert "Z0" in out and "X0 X1 X2 X3" in out
    # the identity coefficient is the first line
    assert abs(float(out.splitlines()[0]) - (-0.09835117053027564)) < 1e-9
    code, out_parity, _ = run(capsys, "convert", "--fcidump", "h2_sto3g",
                              "--to", "parity-reduced")
    assert code == 0
    assert out_parity != out


def test_convert_state_json(capsys, tmp_path):
    state = tmp_path / "fci.civec"
    code, _, _ = run(capsys, "fci", "--fcidump", "h2_sto3g",
                     "--save-state", str(state))
    assert code == 0
    code, out, _ = run(capsys, "convert", "--fcidump", "h2_sto3g",
                       "--to", "state-json", "--load-state", str(state))
    assert code == 0
    payload = json.loads(out)
    amps = np.asarray(payload["amplitudes"])
    assert abs(abs(amps[0]) - 0.99362381) < 1e-6


# sha256 of the fermion, jw, parity and parity-reduced artifacts: ``convert
# --to <map>`` output for a molecule, ``format_text()`` of the operator for
# the four-site Hubbard chain (t = 1, U = 4).  Artifacts are byte-stable, so
# a map rewritten inside must reproduce these exactly.
_MAP_DIGESTS = {
    "h2": (
        "3f7e19db35a8260f9bd48bf6e24def17ef51c8c355238c4fbeb6594a9e42c615",
        "691ccf0d2f7df7a4f761c7f40a07e912fc192fdfb8da7efc61efa0e7923a3b50",
        "69903a6056c7f946ee47c14956216b0ed5384776c436813d21e363c77bae6883",
        "515af703052647298e56b761a7cd3dfcf0b2b8ae7efb16863df7b0196daa2b69",
    ),
    "h4": (
        "ef7735baa91546b8a6a0da2c7a45b6c25282175297c096f85cffda61b1c3320f",
        "984785c4a1f813ee910c065614c9fad3859be5881382a451ba1810774f0e27c3",
        "ab27db1f6644a29106da1feb0f245e989fb178c78993b08e839b7c5edb431e64",
        "cf53285ce11f37ff852ad7764de6ddc36a19ef9c16763e9144107483b3fdff67",
    ),
    "h6": (
        "d3d7551eb7bda42feac21b738c3ffce94bbf1f626fd823dc93ab4d741b4c6b6e",
        "8f8cdffff0074e76724d42947d53b3193e570a3c4f733ce60327c4d351fd24ef",
        "e3202121a05b5b8e900ffa5693168e3206e5ff032017d849e0b89742fa2ae4eb",
        "ecf9eabd6c8e2af5bb14d7b9f8e5836de2850b0d4a2566e4d092c39048aaf29a",
    ),
    "h8": (
        "f0b68a66c8efbe8ee082c3c10bb24a199dca25e087884526de2a91e1de6f9b6a",
        "e5583967eff2c36bfee996a68cc0e2afc75cbc5a66ef4c4b4d46516dd8a335ca",
        "ef04e91187d371087b221c6a9b748463c8f163243a5486567d91f54aa0f5409d",
        "9a731a849f93aa6683c31ff77e2fb08954256007a2c53fcc9b4a7b2c38d9ad26",
    ),
    "hubbard": (
        "c7c8c93e97ee0a958d222dd9edae9b0fe2c1ffe729830cc28d425f56882ceb44",
        "df8ef782767e503776d0c7d5d251118a960a56c054b9556ef1aeef3264ab97c2",
        "4d645313925ca55e08c909cea9128ad87327cc37f1b822e6a53db0bed3e2b2cc",
        "6b779a7a37b4af92ca9e34745e12af8845ef638d474cc3db0ce9a205ad86a6c0",
    ),
}


@pytest.mark.parametrize("case", list(_MAP_DIGESTS))
def test_map_artifacts_match_pinned_digests(capsys, case):
    maps = ("fermion", "jw", "parity", "parity-reduced")
    if case == "hubbard":
        s = build_hubbard(4, 1.0, 4.0)
        texts = [build_fermion_hamiltonian(s).format_text()] + [
            _qubit_hamiltonian(s, to).format_text() for to in maps[1:]]
    else:
        texts = []
        for to in maps:
            code, out, _ = run(capsys, "convert", "--fcidump",
                               f"{case}_sto3g", "--to", to)
            assert code == 0
            texts.append(out)
    digests = tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts)
    assert digests == _MAP_DIGESTS[case]


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def test_dynamics_spin_boson_short(capsys):
    code, out, _ = run(capsys, "dynamics", "--model", "spin-boson",
                       "--nbas", "4", "--t-final", "1", "--tau", "0.05",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    sz = payload["observables"]["sz"]
    assert len(sz) == 21
    assert abs(sz[0] - 1.0) < 1e-9  # starts in the upper spin state


def test_dynamics_exact_matches_vha_short(capsys):
    base = ("dynamics", "--model", "spin-boson", "--nbas", "4",
            "--t-final", "0.5", "--tau", "0.05", "--format", "json")
    _, out_vha, _ = run(capsys, *base, "--method", "vha", "--layers", "3")
    _, out_exact, _ = run(capsys, *base, "--method", "exact")
    sz_vha = json.loads(out_vha)["observables"]["sz"]
    sz_exact = json.loads(out_exact)["observables"]["sz"]
    assert max(abs(a - b) for a, b in zip(sz_vha, sz_exact)) < 1e-3


def test_dynamics_custom_model_from_config(capsys, tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("""[model]
terms =
    0.5 sigma_z@spin
    1.0 sigma_x@spin
basis =
    spin half_spin
initial =
    spin 0
observables =
    up 0.5
    up 0.5 sigma_z@spin
""")
    code, out, _ = run(capsys, "dynamics", "--model", "custom",
                       "--config", str(cfg), "--method", "exact",
                       "--t-final", "1", "--tau", "0.1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    up = np.asarray(payload["observables"]["up"])
    assert abs(up[0] - 1.0) < 1e-9  # the summed observable is a projector
    assert np.all((up > -1e-9) & (up < 1 + 1e-9))


def test_dynamics_csv_output(capsys, tmp_path):
    path = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "dynamics", "--model", "spin-boson",
                     "--nbas", "4", "--t-final", "0.2", "--tau", "0.1",
                     "--method", "exact", "--format", "csv",
                     "--output", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("t,")
    assert "obs_sz" in lines[0]
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_noise_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--kind", "noise",
                       "--fcidump", "h2_sto3g", "--layers", "1",
                       "--p-grid", "0:0.2:0.1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,e_layers1"
    assert len(lines) == 4
    energies = [float(l.split(",")[1]) for l in lines[1:]]
    assert energies == sorted(energies)  # noise can only hurt
    assert abs(energies[0] - H2_FCI) < 1e-6  # p=0 reaches the exact ground


def test_sweep_noise_refuses_a_gate_the_ansatz_lacks(capsys):
    code, out, err = run(capsys, "sweep", "--kind", "noise",
                         "--fcidump", "h2_sto3g", "--layers", "1",
                         "--gate", "X", "--p-grid", "0:0.2:0.1")
    assert code == 1
    assert "InvalidChannel" in err and not out


def test_sweep_shots_is_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "sweep", "--kind", "shots",
                         "--fcidump", "h2_sto3g",
                         "--shots-grid", "256,512", "--repeats", "4",
                         "--format", "csv", "--output", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().splitlines()
    assert lines[0] == "shots,mean,std,exact"
    assert len(lines) == 3


def test_sweep_dg_exact(capsys):
    code, out, err = run(capsys, "sweep", "--kind", "dg",
                         "--fcidump", "h2_sto3g",  # ignored by this kind
                         "--dg-grid=-0.75,-1.0,-1.25",
                         "--method", "exact", "--nbas", "4",
                         "--tau", "0.1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["dg", "rate"]
    assert [row[0] for row in payload["rows"]] == [-0.75, -1.0, -1.25]
    assert all(row[1] > 0 for row in payload["rows"])
    assert payload["argmax_dg"] == payload["rows"][0][0]
    assert "maximal at dg" in err


@pytest.mark.parametrize("flags, error", [
    (("--tau", "nan"), "InvalidParams"),
    (("--tau", "inf"), "InvalidParams"),
    (("--tau", "0"), "InvalidParams"),
    (("--t-final", "nan"), "InvalidParams"),
    (("--t-final", "inf"), "InvalidParams"),
    (("--t-final", "-1"), "InvalidParams"),
    (("--eps-reg", "0"), "InvalidParams"),
    (("--eps-reg", "-1"), "InvalidParams"),
    (("--tau", "1e-300"), "SizeLimit"),
    (("--method", "exact", "--tau", "nan"), "InvalidParams"),
    (("--method", "exact", "--tau", "1e-300"), "SizeLimit"),
    (("--epsilon", "nan"), "InvalidParams"),
    (("--method", "exact", "--epsilon", "nan"), "InvalidParams"),
    (("--delta", "inf"), "InvalidParams"),
    (("--method", "exact", "--omega", "inf"), "InvalidParams"),
    (("--g", "nan"), "InvalidParams"),
    (("--model", "marcus", "--v=-inf"), "InvalidParams"),
    (("--model", "marcus", "--method", "exact", "--dg", "nan"),
     "InvalidParams"),
])
def test_dynamics_bad_steps_exit_one(capsys, flags, error):
    code, out, err = run(capsys, "dynamics", "--nbas", "2", "--layers", "1",
                         "--format", "json", *flags)
    assert code == 1
    assert out == ""
    assert err.startswith(f"{error}:")


def test_dynamics_json_builds_no_csv(capsys, monkeypatch):
    import vqchem.cli as cli

    def refuse(traj):
        raise AssertionError("CSV text built under --format json")

    monkeypatch.setattr(cli, "trajectory_to_csv", refuse)
    code, out, _ = run(capsys, "dynamics", "--nbas", "2", "--t-final", "0.1",
                       "--tau", "0.05", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["t"]) == 3


# ---------------------------------------------------------------------------
# Start-up
# ---------------------------------------------------------------------------

_START_UP = """
import contextlib, io, json, sys

importers = []


class Spy:
    # the first module outside importlib that asks for importlib.metadata
    def find_spec(self, name, path=None, target=None):
        if name == "importlib.metadata":
            frame = sys._getframe(1)
            while frame.f_globals.get("__name__", "").startswith(
                    ("importlib", "_frozen_importlib")):
                frame = frame.f_back
            importers.append(frame.f_globals.get("__name__"))


sys.meta_path.insert(0, Spy())
before = "importlib.metadata" in sys.modules
import vqchem.cli


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


optimizer = ["scipy.optimize" in sys.modules]
scipy = [scipy_modules()]
ideal = ["noisy", "--fcidump", "h2_sto3g", "--layers", "1"]
noisy = ideal + ["--p", "0.02"]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["vqe", "--fcidump", "h2_sto3g"],
                 ["fci", "--fcidump", "h2_sto3g"], ideal, noisy,
                 noisy + ["--shots", "64"],
                 ["dynamics", "--nbas", "4", "--t-final", "0.1",
                  "--tau", "0.05"]):
        codes.append(vqchem.cli.main(argv))
        optimizer.append("scipy.optimize" in sys.modules)
        scipy.append(scipy_modules())
print(json.dumps({"before": before, "importers": importers, "codes": codes,
                  "optimizer": optimizer, "scipy": scipy}))
"""


@pytest.fixture(scope="module")
def start_up():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _START_UP], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    return json.loads(run.stdout)


def test_start_up_loads_no_optimizer(start_up):
    """Neither the import nor an ideal vqe, an fci, an ideal, a noisy or a
    sampled (shots) noisy run, or a dynamics run ever loads
    scipy.optimize."""
    assert start_up["codes"] == [0] * 6
    assert start_up["optimizer"] == [False] * 7


def test_start_up_loads_no_scipy(start_up):
    """No scipy module at all is loaded by the import or by any of those
    runs: the sigma and the Pauli operators are numpy alone."""
    assert start_up["codes"] == [0] * 6
    assert start_up["scipy"] == [[]] * 7


def test_package_source_imports_no_scipy():
    """No module of the package imports scipy anywhere, inside a function
    included; only the tests and the fixture script use it."""
    found = []
    for path in sorted((Path(__file__).resolve().parents[1]
                        / "src" / "vqchem").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for module in modules
                      if module.split(".")[0] == "scipy"]
    assert found == []


def test_import_reads_no_package_metadata(start_up):
    """``vqchem.__version__`` is resolved on first use, so no vqchem module
    imports importlib.metadata; a dependency may."""
    assert not start_up["before"]
    assert not [name for name in start_up["importers"]
                if name is None or name.split(".")[0] == "vqchem"]


def test_version_is_resolved_on_first_use():
    import importlib.metadata

    import vqchem
    try:
        want = importlib.metadata.version("vqchem")
    except importlib.metadata.PackageNotFoundError:
        want = "0.0.0"
    assert vqchem.__version__ == want
    with pytest.raises(AttributeError, match="no_such_name"):
        vqchem.no_such_name
