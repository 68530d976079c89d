import json

import numpy as np
import pytest

from vqchem import (
    build_fermion_hamiltonian,
    build_ry_ansatz,
    expectation,
    fixture_path,
    hf_energy,
    load_civector,
    load_fixture,
    parity_transform,
    parse_fcidump,
    simulate_state,
    write_fcidump,
)
from vqchem.cli import (
    _hea_init_params,
    _qubit_hamiltonian,
    _reference_bitstring,
    main,
)
from oracles import dense_qubit_operator

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
    code, _, err = run(capsys, "vqe", "--fcidump", "h2_sto3g",
                       "--active-space", "2,5")
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
    ("fci", "--fcidump", "h2_sto3g"),
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
    code, out, err = run(capsys, *command, "--load-state", str(path),
                         "--format", "json")
    assert code == 1
    assert "ParseError" in err and "NaN" not in out


def test_bad_grid_is_a_usage_error(capsys):
    code, _, err = run(capsys, "sweep", "--kind", "noise",
                       "--fcidump", "h2_sto3g", "--p-grid", "zero:one")
    assert code == 2


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
    s = load_fixture("h2_sto3g")
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
