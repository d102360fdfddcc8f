import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from specpred import cli, controller, iss_certifier, sim_engine, synthesis


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


def test_config_validation(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.config_from_args(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(ValueError):
        cli.config_from_args(["sweep"])  # no inputs, no sweep axis
    missing = str(tmp_path / "missing.json")
    with pytest.raises(FileNotFoundError, match="--certificate"):
        cli.config_from_args(["simulate", "--certificate", missing,
                              "--scenario", missing])


@pytest.mark.parametrize("subcommand", list(cli.REQUIRES))
def test_requires_names_each_missing_input(tmp_path, subcommand):
    f = tmp_path / "f.json"
    f.write_text("{}")
    given = {"certificate": str(f), "scenario": str(f),
             "out": str(tmp_path / "out"), "sweep": "X0_scale=1:2:3"}
    needs = cli.REQUIRES[subcommand]
    for flag in needs:
        argv = [subcommand]
        for other in needs:
            if other != flag:
                argv += [f"--{other}", given[other]]
        with pytest.raises(ValueError, match=f"^{subcommand} requires --{flag}$"):
            cli.config_from_args(argv)
    assert cli.config_from_args(
        [subcommand] + [a for n in needs for a in (f"--{n}", given[n])]
    ).subcommand == subcommand


def test_config_from_args(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{}")
    cfg = cli.config_from_args([
        "simulate", "--certificate", str(p), "--scenario", str(p),
        "--seed", "9", "--jobs", "2"])
    assert cfg.subcommand == "simulate"
    assert cfg.seed == 9 and cfg.jobs == 2


def test_main_reports_errors(capsys):
    assert cli.main(["simulate"]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_maps_package_errors_to_status_2(monkeypatch, capsys):
    def fail(*args):
        raise controller.ControllerError("history read outside covered span")

    monkeypatch.setattr(iss_certifier, "lemma2_validate", fail)
    assert cli.main(["validate-lemma2"]) == 2
    assert "error: history read outside covered span" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Sweep plumbing

def test_apply_sweep_param(descriptor, exact_cert):
    scen = cli.builtin_scenarios(descriptor, exact_cert, dt=5e-3, T=1.0)[0]
    dm = exact_cert.delta_max
    s2 = cli.apply_sweep_param(scen, "delay_amplitude", 0.5 * dm)
    assert (s2.delay.kind, s2.delay.amplitude, s2.delay.omega) == \
        ("sinusoid", 0.5 * dm, 2.0)
    assert s2.certified
    assert scen.delay.amplitude == 0.0  # original untouched
    # Past delta_max the point is marked uncertified, not refused.
    assert not cli.apply_sweep_param(scen, "delay_amplitude", 2 * dm).certified
    s3 = cli.apply_sweep_param(scen, "d1_amplitude", 0.5)
    assert (s3.d1.kind, s3.d1.omega) == ("sinusoid", 1.5)
    assert np.array_equal(s3.d1._amp(), [0.5] * descriptor.num_inputs)
    assert scen.d1.kind == "zero" and s3.d2 is scen.d2
    s4 = cli.apply_sweep_param(scen, "X0_scale", 2.0)
    assert np.array_equal(s4.X0_coeffs, 2.0 * scen.X0_coeffs)
    # A complex initial state keeps its imaginary part through the sweep.
    s5 = cli.apply_sweep_param(replace(scen, X0_coeffs=np.array([1 + 1j, 0.5 - 2j])),
                               "X0_scale", 2.0)
    assert np.array_equal(s5.X0_coeffs, [2 + 2j, 1 - 4j])
    with pytest.raises(ValueError):
        cli.apply_sweep_param(scen, "nonsense", 1.0)


@pytest.mark.parametrize("param", ["d1_amplitude", "d2_amplitude"])
def test_sweeping_a_zero_disturbance_runs_a_sinusoid(tmp_path, descriptor,
                                                     fitted_cert, param):
    # The written scenario gives its zero disturbances omega 0.
    scen = cli.builtin_scenarios(descriptor, fitted_cert, dt=5e-3, T=2.0)[0]
    cert_path, scen_path = tmp_path / "cert.json", tmp_path / "scen.json"
    synthesis.save_certificate(fitted_cert, cert_path)
    sim_engine.save_scenario(scen, scen_path)
    out = tmp_path / "sweep.csv"
    cli.main(["sweep", "--certificate", str(cert_path), "--scenario",
              str(scen_path), "--out", str(out), "--sweep", f"{param}=0:1:2"])
    ratios = [_sweep_column(out, f"ratio_{name}")
              for name in iss_certifier.ENVELOPES]
    assert all(col[0] != col[1] for col in ratios)
    sig = sim_engine.DisturbanceSignal(kind="sinusoid", m=descriptor.num_inputs,
                                       amplitude=(1.0,), omega=1.5)
    report = iss_certifier.check_envelopes(
        sim_engine.simulate(replace(scen, **{param[:2]: sig})))
    assert [col[1] for col in ratios] == \
        [repr(c["worst_ratio"]) for c in report.values()]


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


@pytest.fixture(scope="module")
def builtin_csvs(tmp_path_factory, descriptor, fitted_cert):
    """The certificate, and each built-in scenario's file with the CSV that
    ``simulate`` writes for it."""
    root = tmp_path_factory.mktemp("builtin")
    cert_path = str(root / "cert.json")
    synthesis.save_certificate(fitted_cert, cert_path)
    files = []
    for i, scen in enumerate(cli.builtin_scenarios(descriptor, fitted_cert,
                                                   dt=5e-3, T=4.0)):
        scen_path, csv = str(root / f"scen{i}.json"), str(root / f"traj{i}.csv")
        sim_engine.save_scenario(scen, scen_path)
        assert cli.main(["simulate", "--certificate", cert_path,
                         "--scenario", scen_path, "--out", csv]) == 0
        files.append((scen_path, csv))
    return cert_path, files


@pytest.mark.parametrize("i", range(5))
def test_check_accepts_each_builtin_scenarios_own_csv(builtin_csvs, capsys,
                                                      i):
    cert_path, files = builtin_csvs
    scen_path, csv = files[i]
    assert cli.main(["check", "--certificate", cert_path,
                     "--scenario", scen_path, "--out", csv]) in (0, 1)
    assert capsys.readouterr().err == ""


def test_cmd_simulate_zero_everything(tmp_path, descriptor, fitted_cert, capsys):
    cert_path = tmp_path / "cert.json"
    synthesis.save_certificate(fitted_cert, cert_path)
    scen = cli.builtin_scenarios(descriptor, fitted_cert, dt=5e-3, T=1.0)[0]
    d = sim_engine.scenario_to_dict(scen)
    d["initial"]["X0_coeffs"] = [0.0] * len(d["initial"]["X0_coeffs"])
    d["lemma2"] = {"a": -2.0}   # top-level keys other commands read are free
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


def test_a_negative_delay_amplitude_sweep_marks_rows_past_the_band(artifacts,
                                                                   tmp_path):
    # The band is D0 -/+ |amplitude|, so a negative amplitude past
    # delta_max runs uncertified, as a positive one does.
    _, cert_path, scen_path = artifacts
    hi = 1.5 * synthesis.load_certificate(cert_path).delta_max
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--certificate", cert_path, "--scenario",
                     scen_path, "--out", str(out),
                     "--sweep", f"delay_amplitude={-hi}:0:4"]) == 0
    assert _sweep_column(out, "certified") == ["False", "True", "True", "True"]


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


def _sweep_column(path, name):
    with open(path) as fh:
        cols = [h.strip() for h in fh.readline().split(",")]
        return [line.split(", ")[cols.index(name)].strip() for line in fh]


def test_sweep_rows_report_their_runs_certified_mark(artifacts, tmp_path):
    # A scenario marked uncertified, with a delay past the radius, swept
    # along another axis: every row is an uncertified run and only reports.
    _, cert_path, scen_path = artifacts
    cert = synthesis.load_certificate(cert_path)
    d = json.loads(open(scen_path).read())
    d["delay"].update(kind="sinusoid", amplitude=3 * cert.delta_max,
                      omega=2.0, phase=0.0)
    d["integration"]["certified"] = False
    bad = tmp_path / "uncertified.json"
    bad.write_text(json.dumps(d))
    out_path = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--certificate", cert_path, "--scenario",
                     str(bad), "--out", str(out_path),
                     "--sweep", "X0_scale=0.5:1:2"]) == 0
    assert _sweep_column(out_path, "certified") == ["False", "False"]
    assert _sweep_column(out_path, "pass") == ["True", "True"]


def test_sweep_starts_at_most_one_worker_per_point(artifacts, tmp_path,
                                                   monkeypatch, capsys):
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(cli, "Pool", SerialPool)
    _, cert_path, scen_path = artifacts
    argv = ["sweep", "--certificate", cert_path, "--scenario", scen_path,
            "--out", str(tmp_path / "sweep.csv"), "--sweep", "X0_scale=0.5:1:2"]
    assert cli.main(argv + ["--jobs", "8"]) == 0
    assert cli.main(argv + ["--jobs", "1"]) == 0
    assert sizes == [2]
    for jobs in ("0", "-1"):
        assert cli.main(argv + ["--jobs", jobs]) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
    assert sizes == [2]


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


def _update(section, **fields):
    """Mutator that updates the ``section`` mapping of a loaded JSON dict."""
    def mutate(d):
        d[section].update(fields)
        return d
    return mutate


PLANT = {"kind": "reaction_diffusion", "c": 15.0}
EXPLICIT = {"kind": "explicit", "m": 1, "riesz_lower": 1.0, "riesz_upper": 1.0}


def _explicit_scenario(eigs, b, n_modes=2, **plant):
    """Mutator that runs the scenario on an explicit plant of ``n_modes``."""
    def mutate(d):
        d["system"] = {**EXPLICIT, **plant, "explicit_eigenvalues": eigs,
                       "explicit_b": b}
        d["integration"]["N_modes"] = n_modes
        d["initial"]["X0_coeffs"] = [1.0] + [0.0] * (n_modes - 1)
        return d
    return mutate


def _table_delay(times):
    """Mutator that gives the scenario a table delay knotted at ``times``."""
    def mutate(d):
        D0 = d["delay"]["D0"]
        d["delay"] = {"kind": "table", "D0": D0, "times": times,
                      "values": [D0] * len(times)}
        return d
    return mutate


def _widen(*names):
    """Trajectory mutator that doubles the columns of the series ``names``."""
    def mutate(traj):
        return replace(traj, **{name: np.column_stack([getattr(traj, name)] * 2)
                                for name in names})
    return mutate


def _nudge_first_c1(traj):
    """Trajectory mutator that moves c_1 of the first row by one ulp."""
    coeffs = traj.coeffs.copy()
    coeffs[0, 0] = np.nextafter(coeffs[0, 0], np.inf)
    return replace(traj, coeffs=coeffs)


def _first_x0(value):
    """Mutator that sets the first initial coefficient to ``value``."""
    def mutate(d):
        d["initial"]["X0_coeffs"][0] = value
        return d
    return mutate


@pytest.mark.parametrize("subcommand, kind, mutate, names", [
    ("simulate", "scenario", _set("integration", "dt", None), ""),
    ("simulate", "scenario", _set("delay", 5), ""),
    ("simulate", "scenario", _set("delay", None), ""),
    ("sweep", "scenario", _set("delay", 5), ""),
    ("sweep", "scenario", _set("delay", None), ""),
    ("simulate", "certificate", _set("D0", None), ""),
    ("certify", "descriptor", lambda d: [1, 2], ""),
    ("certify", "descriptor",
     lambda d: {"kind": "reaction_diffusion", "c": None}, ""),
    ("validate-lemma2", "scenario", _set("lemma2", {"a": "x"}), "lemma2 a "),
    ("validate-lemma2", "scenario", _set("lemma2", {"epsilon": 0.6}),
     "'epsilon'"),
    ("validate-lemma2", "scenario", _set("lemma2", [["a", 1.0]]),
     "malformed scenario file"),
    ("sweep", "certificate", _set("u_constants", [1, 2]), "u_constants"),
    ("certify", "descriptor", lambda d: {**PLANT, "design": {"D0": None}},
     "design D0 "),
    ("certify", "descriptor", lambda d: {**PLANT, "design": 5}, "design"),
    ("certify", "descriptor", lambda d: {**PLANT, "design": {"bogus": 1}},
     "'bogus'"),
    ("validate-lemma2", "scenario", _set("lemma2", {"a": 0}),
     "lemma2 a = 0 is out of range"),
    ("validate-lemma2", "scenario", _set("lemma2", {"eps": 1e308}),
     "lemma2 eps = 1e+308 is out of range"),
    ("simulate", "certificate", _set("N0", 2), "N0 = 2"),
    ("check", "certificate", _set("delta_max", 1.0), "certificate delta_max"),
    ("simulate", "certificate", _set("t0", 0), "certificate t0"),
    ("simulate", "certificate", _set("t0", float("inf")), "certificate t0"),
    ("simulate", "certificate", _set("K", [[1, 2]]), "certificate K"),
    ("simulate", "certificate", _set("D0", 0), "certificate D0"),
    ("simulate", "certificate", _set("N0", "x"), "certificate N0"),
    ("simulate", "certificate", _set("B", "abc"), "certificate B"),
    ("simulate", "certificate", _set("K", [[None]]), "certificate K"),
    ("certify", "descriptor", lambda d: {
        "kind": "explicit", "m": 1, "riesz_lower": 1.0, "riesz_upper": 1.0,
        "explicit_eigenvalues": [1.0, -5.0], "explicit_b": [[1.0], [1.0]]},
     "'explicit' descriptor"),
    ("certify", "descriptor", lambda d: {**PLANT, "c": True}, "descriptor c "),
    ("certify", "descriptor", lambda d: {**PLANT, "c": "x"}, "descriptor c "),
    ("certify", "descriptor", lambda d: {**PLANT, "m": 1.7}, "descriptor m "),
    ("simulate", "scenario", _explicit_scenario([-1.0], [[1.0]], n_modes=3),
     "N_modes = 3 exceeds the length 1 of the explicit spectrum"),
    ("simulate", "scenario", _explicit_scenario([-1.0, -5.0], [[1.0]]),
     "descriptor explicit_b"),
    ("simulate", "scenario",
     _explicit_scenario([-1.0, -5.0], [[1.0], [1.0]], m=2),
     "descriptor explicit_b needs m = 2"),
    ("simulate", "scenario", _explicit_scenario([], []),
     "descriptor explicit_eigenvalues"),
    ("certify", "descriptor", lambda d: {
        **EXPLICIT, "explicit_eigenvalues": [], "explicit_b": []},
     "descriptor explicit_eigenvalues"),
    ("simulate", "certificate", _set("K", [[True]]), "certificate K"),
    ("simulate", "certificate",
     _set("K", {"real": [[1.0]], "imag": [[False]]}), "certificate K"),
    ("simulate", "scenario", _first_x0(True), "initial X0_coeffs"),
    ("simulate", "scenario", _first_x0(None),
     "initial X0_coeffs has a non-finite entry (in scenario file"),
    ("simulate", "scenario", _table_delay([0, True, 2]), "delay times"),
    ("simulate", "scenario", _table_delay([0, "1", 2]), "delay times"),
    ("simulate", "scenario", _set("delay", "amplitud", 1e-3),
     "unknown delay key 'amplitud'"),
    ("simulate", "scenario", _set("disturbance_d1", "omgea", 1.0),
     "unknown disturbance_d1 key 'omgea'"),
    ("simulate", "scenario", _set("disturbance_d2", "omgea", 1.0),
     "unknown disturbance_d2 key 'omgea'"),
    ("simulate", "scenario", _set("initial", "X0", [1.0]),
     "unknown initial key 'X0'"),
    ("simulate", "scenario", _set("integration", "T_fnal", 1.0),
     "unknown integration key 'T_fnal'"),
    ("simulate", "scenario", _set("disturbance_d1", "kind", "sine"),
     "unknown disturbance kind 'sine'"),
    ("check", "scenario", _set("disturbance_d1", "kind", "sine"),
     "unknown disturbance kind 'sine'"),
    ("sweep", "scenario", _set("disturbance_d2", "kind", "sine"),
     "unknown disturbance kind 'sine'"),
    ("simulate", "scenario", _set("integration", "T_final", 1e-3),
     "T_final = 0.001 is under half a step"),
    ("check", "scenario", _set("integration", "T_final", 1e-3),
     "T_final = 0.001 is under half a step"),
    ("sweep", "scenario", _set("integration", "T_final", 1e-3),
     "T_final = 0.001 is under half a step"),
    ("simulate", "certificate",
     lambda d: {key: v for key, v in d.items() if key != "lambda"},
     "missing certificate key 'lambda'"),
    ("check", "scenario", _set("integration", "dt", 1e-3),
     "dt (the grid step) is 0.005 in the file and 0.001 in the scenario"),
    ("check", "scenario", _set("integration", "T_final", 9.0),
     "(the rows) is 801 in the file and 1801 in the scenario"),
    ("check", "scenario", _set("integration", "N_modes", 20),
     "N_modes (the c_* columns) is 12 in the file and 20 in the scenario"),
    ("check", "trajectory", _widen("Z"),
     "N0 (the Y_*, Z_* columns) is 2 in the file and 1 in the scenario"),
    ("check", "trajectory", _widen("u", "v"),
     "m (the u_* columns) is 2 in the file and 1 in the scenario"),
    ("check", "trajectory", _nudge_first_c1,
     "c_1 of the first row is 1.0000000000000002 in the file and "
     "X0_coeffs gives 1.0"),
    ("simulate", "scenario", _set("system", "c", 25.0),
     "plant head eigenvalues"),
    ("check", "scenario", _set("disturbance_d1", "kind", "zero"),
     "the delayed read v_1 at step 1 (t=0.005) is "),
    ("check", "scenario", _set("delay", "D0", 0.501),
     "the delayed read v_1 at step 101 (t=0.505) is "),
    ("validate-lemma2", "scenario", _set("lemma2", {"r": 1e6}),
     "exceeds MAX_STEPS = 1000000: r + eps = 1e+06 and T = 12 over dt = 0.005"),
    ("certify", "descriptor", lambda d: {**PLANT, "design": {"D0": -0.5}},
     "design D0 must be positive and finite, got -0.5"),
    ("certify", "descriptor", lambda d: {**PLANT, "design": {"D0": -1e6}},
     "design D0 must be positive and finite, got -1000000.0"),
    ("certify", "descriptor", lambda d: {**PLANT, "design": {"t0": 0.0}},
     "design t0 must be positive and finite, got 0.0"),
], ids=["scenario-dt-null", "scenario-delay-5", "scenario-delay-null",
        "sweep-delay-5", "sweep-delay-null", "certificate-D0-null",
        "descriptor-list", "descriptor-c-null", "lemma2-a-string",
        "lemma2-unknown-key", "lemma2-pairs", "certificate-bank-list",
        "design-D0-null", "design-not-a-mapping", "design-unknown-key",
        "lemma2-a-zero", "lemma2-eps-overflow", "certificate-N0-2",
        "certificate-delta_max-past-D0", "certificate-t0-zero",
        "certificate-t0-inf", "certificate-K-shape", "certificate-D0-zero",
        "certificate-N0-string", "certificate-B-string", "certificate-K-null",
        "descriptor-explicit", "descriptor-c-true", "descriptor-c-string",
        "descriptor-m-fraction", "explicit-N_modes-past-spectrum",
        "explicit-b-rows-short", "explicit-b-row-short-of-m",
        "explicit-empty", "certify-explicit-empty", "certificate-K-true",
        "certificate-K-imag-false", "initial-X0-true", "initial-X0-null",
        "delay-times-true", "delay-times-string", "delay-unknown-key",
        "d1-unknown-key", "d2-unknown-key", "initial-unknown-key",
        "integration-unknown-key", "simulate-d1-bad-kind", "check-d1-bad-kind",
        "sweep-d2-bad-kind", "simulate-sub-step-horizon",
        "check-sub-step-horizon", "sweep-sub-step-horizon",
        "certificate-lambda-missing", "check-dt-not-the-grid",
        "check-T_final-not-the-rows", "check-N_modes-not-the-columns",
        "check-N0-not-the-columns", "check-m-not-the-columns",
        "check-first-row-not-X0", "simulate-certified-other-plant",
        "check-d1-not-the-reads", "check-delay-not-the-reads",
        "lemma2-history-past-MAX_STEPS", "design-D0-negative",
        "design-D0-minus-1e6", "design-t0-zero"])
def test_malformed_input_files_exit_2(artifacts, tmp_path, capsys,
                                      subcommand, kind, mutate, names):
    assert _run_mutated(artifacts, tmp_path, subcommand, kind, mutate) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and names in err


@pytest.mark.parametrize("subcommand, kind, mutate, section, key", [
    ("simulate", "certificate", _set("delta_maxx", 1.0), "certificate",
     "delta_maxx"),
    ("certify", "descriptor", lambda d: {**PLANT, "M": 2}, "descriptor", "M"),
    ("certify", "descriptor", lambda d: {**PLANT, "design": {"d0": 0.4}},
     "design", "d0"),
    ("validate-lemma2", "scenario", _set("lemma2", {"c": 1.0}), "lemma2", "c"),
    ("sweep", "scenario", _set("delay", "table", [[0.0, 1.0], [0.5, 0.5]]),
     "delay", "table"),
    ("simulate", "scenario", _set("disturbance_d1", "m", 1),
     "disturbance_d1", "m"),
    ("check", "scenario", _set("disturbance_d2", "freq", 1.0),
     "disturbance_d2", "freq"),
    ("sweep", "scenario", _set("initial", "X0_coeff", [1.0]), "initial",
     "X0_coeff"),
    ("check", "scenario", _set("integration", "steps", 10), "integration",
     "steps"),
], ids=["certificate", "descriptor", "design", "lemma2", "delay",
        "disturbance_d1", "disturbance_d2", "initial", "integration"])
def test_an_unknown_key_in_any_section_exits_2(artifacts, tmp_path, capsys,
                                               subcommand, kind, mutate,
                                               section, key):
    assert _run_mutated(artifacts, tmp_path, subcommand, kind, mutate) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown {section} key {key!r}")


def _run_mutated(artifacts, tmp_path, subcommand, kind, mutate):
    """``subcommand``'s exit status on the good files of ``artifacts`` with
    the ``kind`` file replaced by its ``mutate``d dict (a descriptor starts
    from {}), or, for ``check``, the good trajectory by its ``mutate``d
    Trajectory."""
    _, cert_path, scen_path = artifacts
    paths = {"certificate": cert_path, "scenario": scen_path}
    if kind != "trajectory":
        base = {} if kind == "descriptor" \
            else json.loads(open(paths[kind]).read())
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
    if subcommand == "check":   # a trajectory written with the good files
        out = tmp_path / "out"
        assert cli.main(["simulate", "--certificate", cert_path, "--scenario",
                         scen_path, "--out", str(out)]) == 0
        if kind == "trajectory":
            sim_engine.trajectory_to_csv(
                mutate(sim_engine.trajectory_from_csv(out)), out)
    return cli.main(argv)


@pytest.mark.parametrize("text", [
    "t, c_1\n0.0, 1.0\n",
    "t, c_1, Y_1, Z_1, u_1, v_1, norm_lower, norm_upper\n0, 1, 1, 1, 0, 0, 1\n",
    "t, c_1, Z_1, Y_1, u_1, v_1, norm_lower, norm_upper\n"
    "0, 1, 1, 1, 0, 0, 1, 1\n",
    "t, c_1, Y_1, Z_1, u_1, v_1, norm_lower, norm_upper\n"
    "0, 1, 1, 1, 0, 0, 1, 1\n",
    "t, c_1, Y_1, Z_1, u_1, v_1, norm_lower, norm_upper\n",
    "t, c_1, Y_1, Z_1, u_1, v_1, norm_lower, norm_upper\n"
    "0, 1, 1, 1, 0, 0, 1, 1\n0.1, 1, 1, 1, 0, 0, 1, 1\n"
    "0.3, 1, 1, 1, 0, 0, 1, 1\n",
    "t, c_1, Y_1, Z_1, u_1, v_1, norm_lower, norm_upper\n"
    "0, 1, 1, 1, 0, 0, 1, 1\n0.1, 1, 1, 1, 0, 0, 1\n"
    "0.2, 1, 1, 1, 0, 0, 1, 1\n",
    "t, c_1, Y_1, Z_1, u_1, v_1, norm_lower, norm_upper\n"
    "0, 1, 1, 1, 0, 0, 1, 1\n0.1, 1, 1, 1, 0, 0, 1, 1\n"
    "0.2, 1, one, 1, 0, 0, 1, 1\n",
], ids=["two-columns", "short-row", "swapped-columns", "one-row",
        "header-only", "non-uniform-t", "ragged-row", "non-numeric"])
def test_check_refuses_a_trajectory_csv_of_another_layout(artifacts, tmp_path,
                                                          capsys, text):
    root, cert_path, scen_path = artifacts
    bad = tmp_path / "traj.csv"
    bad.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # a refusal, never a warning
        assert cli.main(["check", "--certificate", cert_path,
                         "--scenario", scen_path, "--out", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err


def test_simulate_refuses_a_certified_delay_off_the_band(artifacts, tmp_path,
                                                        capsys):
    _, cert_path, scen_path = artifacts
    cert = synthesis.load_certificate(cert_path)
    d = json.loads(open(scen_path).read())
    d["delay"] = {"kind": "constant", "D0": cert.D0 - 3 * cert.delta_max}
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps(d))
    assert cli.main(["simulate", "--certificate", cert_path, "--scenario",
                     str(bad), "--out", str(tmp_path / "traj.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "delay band [" in err \
        and "certified band [" in err


@pytest.mark.parametrize("field, mutate", [
    ("X0_coeffs", _set("initial", "X0_coeffs", [0.1] * 500)),
    ("X0_coeffs", _set("integration", "N_modes", 1)),
    ("dt", _set("integration", "dt", float("nan"))),
    ("dt", _set("integration", "dt", -1e-3)),
    ("T_final", _set("integration", "T_final", float("inf"))),
    ("T_final / dt", _set("integration", "dt", 1e-320)),
    ("T_final / dt", _set("integration", "T_final", 1e308)),
    ("disturbance_d1", _set("disturbance_d1", "amplitude", [0.1, 0.2, 0.3])),
    ("disturbance_d2", _set("disturbance_d2", "amplitude", [0.1, 0.2, 0.3])),
    ("N_modes", _set("integration", "N_modes", sim_engine.MAX_MODES + 1)),
    ("integration N_modes", _set("integration", "N_modes", 12.5)),
    ("integration certified", _set("integration", "certified", "no")),
    ("disturbance_d1", _update("disturbance_d1", kind="smoothed_step", ramp=0)),
    ("disturbance_d2", _update("disturbance_d2", kind="sinusoid",
                               amplitude=[float("inf")])),
    ("disturbance_d1", _set("disturbance_d1", "omega", float("nan"))),
    ("delay", _set("delay", "omega", float("nan"))),
    ("delay", _update("delay", kind="table", times=[0.0, 2.0, 1.0],
                      values=[0.5, 0.5, 0.5])),
    ("delay", _update("delay", kind="table", times=[0.0], values=[0.5])),
    ("delay", _update("delay", kind="table", times=[0.0, 1.0, 2.0],
                      values=[0.5, 0.5])),
    ("disturbance_d2 omega", _set("disturbance_d2", "omega", "x")),
    ("delay amplitude", _set("delay", "amplitude", "x")),
    ("integration dt", _set("integration", "dt", "x")),
    ("initial X0_coeffs", _set("initial", "X0_coeffs", ["a"])),
], ids=["X0-500", "N_modes-1", "dt-nan", "dt-negative", "T_final-inf",
        "dt-subnormal", "T_final-1e308",
        "d1-three-entries", "d2-three-entries", "N_modes-past-max",
        "N_modes-fraction", "certified-string", "d1-ramp-zero", "d2-amplitude-inf",
        "d1-omega-nan", "delay-omega-nan", "table-not-increasing",
        "table-one-knot", "table-unequal-lengths", "d2-omega-string",
        "delay-amplitude-string", "dt-string", "X0-string"])
def test_malformed_scenario_fields_are_named(artifacts, tmp_path, capsys,
                                             field, mutate):
    _, cert_path, scen_path = artifacts
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps(mutate(json.loads(open(scen_path).read()))))
    assert cli.main(["simulate", "--certificate", cert_path, "--scenario",
                     str(bad), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} ")


def test_simulate_refuses_a_state_norm_that_overflows(artifacts, tmp_path,
                                                      capsys):
    # Until T = 0.6 a d2 of amplitude 1e308 keeps the state and control
    # finite, but the squares of the state norm overflow once the delayed
    # control reaches the plant.
    _, cert_path, scen_path = artifacts
    d = json.loads(open(scen_path).read())
    d["integration"]["T_final"] = 0.6
    d["disturbance_d2"].update(kind="sinusoid", amplitude=[1e308], omega=2.5)
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps(d))
    out = tmp_path / "traj.csv"
    assert cli.main(["simulate", "--certificate", cert_path, "--scenario",
                     str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: state norm ||X||_upper overflows at step 101 (t=0.505)")
    assert not out.exists()


@pytest.mark.parametrize("subcommand, flag", [
    ("certify", "descriptor"), ("certify", "out"),
    ("simulate", "certificate"), ("simulate", "scenario"), ("simulate", "out"),
    ("check", "certificate"), ("check", "scenario"), ("check", "out"),
    ("sweep", "certificate"), ("sweep", "scenario"), ("sweep", "out"),
    ("validate-lemma2", "scenario"), ("validate-lemma2", "out")])
def test_a_directory_as_a_file_exits_2(artifacts, tmp_path, capsys,
                                       subcommand, flag):
    # Status 1 is check's failed envelope, so a path that cannot be opened
    # must not end in a traceback's status.
    _, cert_path, scen_path = artifacts
    paths = {"certificate": cert_path, "scenario": scen_path,
             "out": str(tmp_path / "out.csv"), flag: str(tmp_path)}
    if subcommand == "check" and flag != "out":
        assert cli.main(["simulate", "--certificate", cert_path, "--scenario",
                         scen_path, "--out", paths["out"]]) == 0
    argv = [subcommand, "--out", paths["out"]]
    for name in ("descriptor", "certificate", "scenario"):
        if name in cli.REQUIRES[subcommand] or name == flag:
            argv += [f"--{name}", paths[name]]
    if subcommand == "sweep":
        argv += ["--sweep", "delay_amplitude=0:0.001:2"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp_path) in err


@pytest.mark.parametrize("kind", ["certificate", "scenario", "descriptor"])
def test_a_file_that_is_not_utf8_names_itself(artifacts, tmp_path, capsys,
                                              kind):
    _, cert_path, scen_path = artifacts
    bad = tmp_path / f"{kind}.json"
    bad.write_bytes(b"\xff\xfe")
    if kind == "descriptor":
        argv = ["certify", "--descriptor", str(bad)]
    else:
        argv = ["simulate", "--certificate", cert_path, "--scenario",
                scen_path, f"--{kind}", str(bad)]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: malformed {kind} file {bad}: 'utf-8' codec")


SMALL_GAIN_REFUSAL = "error: small-gain violated at sigma -> 0+"


@pytest.mark.parametrize("section, rc, expect", [
    ({"a": -1e-300}, 0, 1e-300),
    ({"r": 1e308}, 2, SMALL_GAIN_REFUSAL),
    ({"a": -1e6}, 2, SMALL_GAIN_REFUSAL),
    ({"a": -2000, "eps": 1e-5}, 0, 2000.0),
    ({"a": -1e-300, "eps": 0}, 0, 1e-300),
    ({"c_norm": 0, "a": -1e6}, 2, "error: stiff lemma-2 member: |a| = "),
], ids=["a-tiny", "r-huge", "a-huge", "a-stiff", "a-tiny-eps-0",
        "c-zero-a-huge"])
def test_validate_lemma2_extreme_sections_run_without_warnings(tmp_path, capsys,
                                                               section, rc,
                                                               expect):
    # Under the RuntimeWarning-as-error setting, an overflow warning inside
    # the contraction value would end the run instead of its result.  A run
    # ends with sigma below ``expect``; a refusal's message starts with it.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"lemma2": section}))
    assert cli.main(["validate-lemma2", "--scenario", str(path)]) == rc
    out, err = capsys.readouterr()
    if rc == 0:
        sigma = float(out.split("sigma=")[1].split()[0])
        assert 0.0 < sigma < expect
        assert "finite=True" in out
    else:
        assert err.startswith(expect)


def test_cmd_validate_lemma2(tmp_path, capsys):
    out_path = tmp_path / "lemma2.json"
    rc = cli.main(["validate-lemma2", "--seed", "4", "--out", str(out_path)])
    assert rc == 0
    report = json.loads(out_path.read_text())
    assert report["finite"]
    assert report["M"] >= 1.0


@pytest.mark.parametrize("D0", [0.5, 0.05, 0.01])
def test_cmd_certify_names_the_large_factors_of_a_vacuous_c100_design(
        tmp_path, capsys, D0):
    # lambda_1 ~ 90 and the triple pole at -2 give M_lambda ~ 4e6 and
    # ||BK|| ~ 3e3 even at D0 = 0.01, where e^(lambda_1 D0) is only e^0.9.
    desc = tmp_path / "c100.json"
    desc.write_text(json.dumps({"kind": "reaction_diffusion", "c": 100.0,
                                "design": {"D0": D0}}))
    assert cli.main(["certify", "--descriptor", str(desc),
                     "--out", str(tmp_path / "cert.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: vacuous certificate")
    for name in ("M_lambda = ", "||BK|| = ", "||A_cl|| = ", "e^(lambda_1 D0)",
                 "smaller D0", "faster target poles"):
        assert name in err
    if D0 == 0.01:
        assert "M_lambda = 4.06e+06" in err and "e^0.9013" in err


def test_distinct_faster_poles_clear_the_vacuous_floor_at_c100():
    _, cert = cli.design_pipeline(
        cli.default_descriptor(100.0),
        {"D0": 0.01, "target_poles": [-5.0, -10.0, -20.0]})
    assert cert.delta_max >= cli.VACUOUS_DELTA * cert.D0
    assert cert.delta_max == pytest.approx(1.34e-10, rel=0.01)


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


def test_scipy_linalg_loads_only_where_it_is_used(artifacts, tmp_path):
    # Neither the import, check nor validate-lemma2 solves or exponentiates
    # a matrix.
    _, cert_path, scen_path = artifacts
    traj_path = str(tmp_path / "traj.csv")
    assert cli.main(["simulate", "--certificate", cert_path, "--scenario",
                     scen_path, "--out", traj_path]) == 0
    check = ["check", "--certificate", cert_path, "--scenario", scen_path,
             "--out", traj_path]
    code = f"""if True:
        import sys
        import specpred.cli as cli
        assert "scipy.linalg" not in sys.modules, "on import"
        assert cli.main({check!r}) == 0
        assert "scipy.linalg" not in sys.modules, "after check"
        assert cli.main(["validate-lemma2", "--seed", "0"]) == 0
        assert "scipy.linalg" not in sys.modules, "after validate-lemma2"
    """
    src = os.path.dirname(os.path.dirname(cli.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
