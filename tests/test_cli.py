import json

import numpy as np
import pytest

from specpred import cli, controller, sim_engine, synthesis


# ---------------------------------------------------------------------------
# Config parsing

def test_parse_sweep_axis():
    assert cli.parse_sweep_axis("delay_amplitude=0:0.004:5") == \
        ("delay_amplitude", 0.0, 0.004, 5)
    with pytest.raises(ValueError):
        cli.parse_sweep_axis("delay_amplitude")
    with pytest.raises(ValueError):
        cli.parse_sweep_axis("a=1:2")
    with pytest.raises(ValueError, match="n must be >= 1"):
        cli.parse_sweep_axis("X0_scale=1:2:0")


def test_empty_sweep_is_rejected(capsys):
    assert cli.main(["sweep", "--sweep", "X0_scale=1:2:0"]) == 2
    assert "n must be >= 1" in capsys.readouterr().err


def test_runconfig_validation(tmp_path):
    with pytest.raises(ValueError):
        cli.RunConfig("frobnicate")
    with pytest.raises(ValueError):
        cli.RunConfig("sweep")  # missing sweep axis
    with pytest.raises(FileNotFoundError):
        cli.RunConfig("simulate", certificate=str(tmp_path / "missing.json"))


def test_config_from_args(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{}")
    cfg = cli.config_from_args([
        "simulate", "--certificate", str(p), "--seed", "9", "--jobs", "2"])
    assert cfg.subcommand == "simulate"
    assert cfg.seed == 9 and cfg.jobs == 2


def test_main_reports_errors(capsys):
    assert cli.main(["simulate"]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_maps_package_errors_to_status_2(monkeypatch, capsys):
    def fail(config):
        raise controller.ControllerError("history read outside covered span")

    monkeypatch.setattr(cli, "cmd_validate_lemma2", fail)
    assert cli.main(["validate-lemma2"]) == 2
    assert "error: history read outside covered span" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Sweep plumbing

def test_apply_sweep_param(descriptor, exact_cert):
    scen = cli.builtin_scenarios(descriptor, exact_cert, dt=5e-3, T=1.0)[0]
    d = sim_engine.scenario_to_dict(scen)
    d2 = cli.apply_sweep_param(d, "delay_amplitude", 0.003)
    assert d2["delay"]["kind"] == "sinusoid"
    assert d2["delay"]["amplitude"] == 0.003
    assert d["delay"]["amplitude"] == 0.0  # original untouched
    d3 = cli.apply_sweep_param(d, "d1_amplitude", 0.5)
    assert d3["disturbance_d1"]["amplitude"] == [0.5]
    d4 = cli.apply_sweep_param(d, "X0_scale", 2.0)
    assert d4["initial"]["X0_coeffs"][0] == pytest.approx(2.0 * d["initial"]["X0_coeffs"][0])
    # A complex initial state keeps its imaginary part through the sweep.
    d["initial"]["X0_coeffs"] = {"real": [1.0, 0.5], "imag": [1.0, -2.0]}
    d5 = cli.apply_sweep_param(d, "X0_scale", 2.0)
    assert d5["initial"]["X0_coeffs"] == {"real": [2.0, 1.0], "imag": [2.0, -4.0]}
    with pytest.raises(ValueError):
        cli.apply_sweep_param(d, "nonsense", 1.0)


# ---------------------------------------------------------------------------
# Subcommand end-to-end (in-process)

@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, descriptor, fitted_cert):
    root = tmp_path_factory.mktemp("cli")
    cert_path = root / "cert.json"
    synthesis.save_certificate(fitted_cert, cert_path)
    scen = cli.builtin_scenarios(descriptor, fitted_cert, dt=5e-3, T=4.0)[2]
    scen_path = root / "scen.json"
    sim_engine.save_scenario(scen, scen_path)
    return root, str(cert_path), str(scen_path)


def test_cmd_simulate_and_check(artifacts, capsys):
    root, cert_path, scen_path = artifacts
    traj_path = str(root / "traj.csv")
    rc = cli.main(["simulate", "--certificate", cert_path,
                   "--scenario", scen_path, "--out", traj_path])
    assert rc == 0
    rc = cli.main(["check", "--certificate", cert_path,
                   "--scenario", scen_path, "--out", traj_path])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["pass"] is True
    assert set(payload["checks"]) == {"state", "control", "head_state",
                                      "transformed_state"}


def test_cmd_simulate_zero_everything(tmp_path, descriptor, fitted_cert, capsys):
    cert_path = tmp_path / "cert.json"
    synthesis.save_certificate(fitted_cert, cert_path)
    scen = cli.builtin_scenarios(descriptor, fitted_cert, dt=5e-3, T=1.0)[0]
    d = sim_engine.scenario_to_dict(scen)
    d["initial"]["X0_coeffs"] = [0.0] * len(d["initial"]["X0_coeffs"])
    scen_path = tmp_path / "zero.json"
    scen_path.write_text(json.dumps(d))
    out_path = tmp_path / "zero.csv"
    rc = cli.main(["simulate", "--certificate", str(cert_path),
                   "--scenario", str(scen_path), "--out", str(out_path)])
    assert rc == 0
    traj = sim_engine.trajectory_from_csv(out_path)
    assert np.all(traj.coeffs == 0.0)
    assert np.all(traj.u == 0.0)


def test_cmd_sweep_margin(artifacts, capsys):
    root, cert_path, scen_path = artifacts
    cert = synthesis.load_certificate(cert_path)
    hi = 1.5 * cert.delta_max
    out_path = str(root / "sweep.csv")
    rc = cli.main(["sweep", "--certificate", cert_path,
                   "--scenario", scen_path, "--out", out_path,
                   "--sweep", f"delay_amplitude=0:{hi}:4"])
    assert rc == 0
    with open(out_path) as fh:
        header = fh.readline()
        rows = [line.split(", ") for line in fh]
    cols = [h.strip() for h in header.split(",")]
    certified = [r[cols.index("certified")] for r in rows]
    # The last grid point exceeds delta_max and runs uncertified.
    assert certified[:-1] == ["True"] * (len(rows) - 1)
    assert certified[-1] == "False"
    passes = [r[cols.index("pass")].strip() for r in rows]
    assert all(p == "True" for p in passes)


def test_sweep_deterministic_across_jobs(artifacts):
    root, cert_path, scen_path = artifacts
    outs = []
    for jobs, name in ((1, "s1.csv"), (2, "s2.csv")):
        out_path = str(root / name)
        rc = cli.main(["sweep", "--certificate", cert_path,
                       "--scenario", scen_path, "--out", out_path,
                       "--jobs", str(jobs), "--seed", "5",
                       "--sweep", "d1_amplitude=0.1:0.5:3"])
        assert rc == 0
        outs.append(open(out_path).read())
    assert outs[0] == outs[1]


def _set(*path_and_value):
    """Mutator that sets the nested key ``path`` of a loaded JSON dict."""
    *path, value = path_and_value

    def mutate(d):
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return d
    return mutate


@pytest.mark.parametrize("subcommand, kind, mutate", [
    ("simulate", "scenario", _set("integration", "dt", None)),
    ("simulate", "scenario", _set("delay", 5)),
    ("simulate", "scenario", _set("delay", None)),
    ("sweep", "scenario", _set("delay", 5)),
    ("sweep", "scenario", _set("delay", None)),
    ("simulate", "certificate", _set("D0", None)),
    ("certify", "descriptor", lambda d: [1, 2]),
    ("certify", "descriptor",
     lambda d: {"kind": "reaction_diffusion", "c": None}),
], ids=["scenario-dt-null", "scenario-delay-5", "scenario-delay-null",
        "sweep-delay-5", "sweep-delay-null", "certificate-D0-null",
        "descriptor-list", "descriptor-c-null"])
def test_malformed_input_files_exit_2(artifacts, tmp_path, capsys,
                                      subcommand, kind, mutate):
    root, cert_path, scen_path = artifacts
    paths = {"certificate": cert_path, "scenario": scen_path}
    base = {} if kind == "descriptor" else json.loads(open(paths[kind]).read())
    bad = tmp_path / f"{kind}.json"
    bad.write_text(json.dumps(mutate(base)))
    paths[kind] = str(bad)
    argv = [subcommand, "--out", str(tmp_path / "out")]
    if subcommand == "certify":
        argv += ["--descriptor", paths["descriptor"]]
    else:
        argv += ["--certificate", paths["certificate"],
                 "--scenario", paths["scenario"]]
    if subcommand == "sweep":
        argv += ["--sweep", "delay_amplitude=0:0.001:2"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cmd_validate_lemma2(tmp_path, capsys):
    out_path = tmp_path / "lemma2.json"
    rc = cli.main(["validate-lemma2", "--seed", "4", "--out", str(out_path)])
    assert rc == 0
    report = json.loads(out_path.read_text())
    assert report["finite"]
    assert report["M"] >= 1.0


def test_cmd_certify_builtin(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    rc = cli.main(["certify", "--out", str(out_path), "--seed", "2"])
    assert rc == 0
    cert = synthesis.load_certificate(out_path)
    assert cert.delta_max > 0
    assert cert.sigma > 0
    assert cert.has_fitted_constants


def test_cmd_certify_refuses_a_vacuous_certificate(tmp_path, capsys):
    # c = 50 has lambda_1 ~ 40, so e^(lambda_1 D0) ~ 5e8 at D0 = 0.5 and
    # delta_max ~ 6e-29: no delay uncertainty is admitted.
    desc = tmp_path / "c50.json"
    desc.write_text(json.dumps({"kind": "reaction_diffusion", "c": 50.0}))
    out_path = tmp_path / "cert.json"
    rc = cli.main(["certify", "--descriptor", str(desc),
                   "--out", str(out_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: vacuous certificate")
    assert "e^(lambda_1 D0)" in err and "smaller D0" in err
    assert not out_path.exists()
