"""The three workloads of the specpred benchmark.

Each workload builds its inputs from the seed in ``setup``, runs one round of
operations in ``run_round`` and verifies that round's outputs in ``check``.
Rounds repeat the same operations on the same inputs, so counts and the share
of failed operations are the same in every round.

* ``ensemble``: ``specpred certify`` on the built-in c = 15 plant, then a
  delay-amplitude sweep over [0, 3 delta_max] through the CLI's own sweep
  point function with one job.  Many short runs sharing one descriptor,
  certificate, dt, T and mode count.
* ``long-horizon``: one long random admissible scenario through
  ``specpred simulate``, ``oracle_simulate`` and ``specpred check``.
* ``lemma2``: ``specpred validate-lemma2``; touches neither the controller
  nor the closed-loop engine.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from specpred import (cli, controller, iss_certifier, sim_engine,
                      spectral_model, synthesis)
from specpred.controller import ControllerError
from specpred.sim_engine import DelaySignal, DisturbanceSignal, Scenario

# The one failure kept in the ensemble workload: the control history's
# pre-buffer is sized from cert.delta_max, not from the scenario's delay
# (controller.PredictorController.__init__), so sweep points whose D(0)
# exceeds D0 + delta_max by more than about a step fail on the first read.
HISTORY_FAULT = "history read outside covered span"


@dataclass(frozen=True)
class Size:
    """Input sizes of the workloads."""

    fit: tuple                    # certify: (members, dt, T)
    sweep_points: int
    sweep_dt: float
    sweep_T: float
    setup_fit: tuple              # long-horizon set-up certificate
    horizon_dt: float
    horizon_T: float
    lemma2: tuple                 # validate-lemma2: (members, dt, T)


SIZES = {
    # The CLI's own settings for certify and validate-lemma2.
    "full": Size(fit=(20, 2e-3, 8.0), sweep_points=9, sweep_dt=1e-3,
                 sweep_T=10.0, setup_fit=(6, 2e-3, 4.0), horizon_dt=1e-3,
                 horizon_T=20.0, lemma2=(50, 5e-3, 12.0)),
    # Seconds-long version of every workload, for the benchmark's own tests.
    "small": Size(fit=(3, 4e-3, 2.0), sweep_points=9, sweep_dt=2e-3,
                  sweep_T=2.0, setup_fit=(3, 4e-3, 2.0), horizon_dt=2e-3,
                  horizon_T=2.0, lemma2=(4, 5e-3, 2.0)),
}


def run_cli(argv):
    """``specpred <argv>`` in-process; returns (exit status, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


@dataclass
class Op:
    kind: str
    wall: float       # wall seconds
    seconds: float    # seconds as the round's clock reports them
    steps: int
    failed: bool
    cli: bool


@dataclass
class Round:
    """Operations of one round, timed by an entered ``speed.SpeedClock``;
    ``tracer`` is set on traced rounds."""

    clock: object
    tracer: object = None
    ops: list = field(default_factory=list)

    def run(self, kind, fn, steps_of=None, is_cli=False, fault=()):
        """Time ``fn()``.  An exception of type ``fault`` carrying the known
        history fault counts the operation as failed; any other propagates."""
        span = self.tracer.span(f"op.{kind}") if self.tracer \
            else contextlib.nullcontext()
        mark = self.clock.start()
        try:
            with span:
                out = fn()
        except fault as exc:
            if HISTORY_FAULT not in str(exc):
                raise
            self.ops.append(Op(kind, *self.clock.stop(mark), 0, True, is_cli))
            return None
        wall, seconds = self.clock.stop(mark)
        steps = steps_of(out) if steps_of else 0
        self.ops.append(Op(kind, wall, seconds, steps, False, is_cli))
        return out

    @property
    def wall(self):
        return sum(op.wall for op in self.ops)

    @property
    def seconds(self):
        return sum(op.seconds for op in self.ops)


def _x0(rng, n_modes, k=4):
    """Random initial state on the first k modes, norm in [0.5, 2]."""
    X0 = np.zeros(n_modes)
    X0[:k] = rng.normal(size=k)
    return X0 * rng.uniform(0.5, 2.0) / np.linalg.norm(X0)


class Ensemble:
    name = "ensemble"

    def __init__(self, seed, size, workdir):
        self.seed, self.size, self.dir = seed, size, Path(workdir)
        self.cert_path = self.dir / "certificate.json"

    def setup(self):
        desc = cli.default_descriptor()
        _, cert = cli.design_pipeline(desc)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1]))
        n_modes = sim_engine.default_mode_count(desc, cert.alpha)
        zero = DisturbanceSignal(kind="zero", m=desc.num_inputs)
        # Phase pi/2 puts the deepest delayed read at t = 0: D(0) = D0 + amp.
        scen = Scenario(
            descriptor=desc, certificate=cert,
            delay=DelaySignal(kind="sinusoid", D0=cert.D0, amplitude=0.0,
                              omega=float(rng.uniform(0.5, 4.0)),
                              phase=math.pi / 2),
            d1=zero, d2=zero, X0_coeffs=_x0(rng, n_modes),
            dt=self.size.sweep_dt, T_final=self.size.sweep_T, N_modes=n_modes)
        self.desc = desc
        self.scen_dict = sim_engine.scenario_to_dict(scen)
        self.values = np.linspace(0.0, 3.0 * cert.delta_max,
                                  self.size.sweep_points)
        self.sweep_steps = int(round(self.size.sweep_T / self.size.sweep_dt))
        self.targets = [cli.DEFAULT_DESIGN["target_pole"]] * cert.N0

    def _certify(self):
        """What ``specpred certify --seed <seed>`` runs and writes."""
        n, dt, T = self.size.fit
        cert = cli.certify_pipeline(self.desc, seed=self.seed, n_fit=n,
                                    dt=dt, T=T)
        synthesis.save_certificate(cert, self.cert_path)

    def run_round(self, rnd):
        n, dt, T = self.size.fit
        rnd.run("certify", self._certify, lambda _: n * int(round(T / dt)),
                is_cli=True)
        cert_dict = synthesis.certificate_to_dict(
            synthesis.load_certificate(self.cert_path))
        rows = []
        for i, value in enumerate(self.values):
            task = (i, cert_dict, self.scen_dict, "delay_amplitude",
                    float(value), self.seed)
            row = rnd.run("sweep_point", lambda: cli._sweep_point(task),
                          lambda _: self.sweep_steps, fault=ControllerError)
            if row is not None:
                rows.append(row)
        return {"rows": rows}

    def check(self, out):
        with open(self.cert_path) as fh:
            cert = json.load(fh)
        fails = checks.certify_exit_failures(cert)
        fails += checks.certificate_failures(cert, self.targets)
        fails += checks.kappa_failures(out["rows"], cert["kappa"])
        out["evidence"] = {"sweep_rows_pass": [bool(r["pass"]) for r in out["rows"]]}
        return fails


class LongHorizon:
    name = "long-horizon"

    def __init__(self, seed, size, workdir):
        self.seed, self.size, self.dir = seed, size, Path(workdir)
        self.cert_path = self.dir / "certificate.json"
        self.scen_path = self.dir / "scenario.json"
        self.csv_path = self.dir / "trajectory.csv"
        self.memory = None

    def setup(self):
        desc = cli.default_descriptor()
        n_fit, fit_dt, fit_T = self.size.setup_fit
        cert = cli.certify_pipeline(desc, seed=self.seed, n_fit=n_fit,
                                    dt=fit_dt, T=fit_T)
        synthesis.save_certificate(cert, self.cert_path)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 2]))
        m = desc.num_inputs
        n_modes = sim_engine.default_mode_count(desc, cert.alpha)

        def sinusoid():
            return DisturbanceSignal(
                kind="sinusoid", m=m,
                amplitude=tuple(rng.uniform(0.2, 1.5, size=m)),
                omega=float(rng.uniform(0.3, 5.0)),
                phase=float(rng.uniform(0.0, 2 * math.pi)))

        delay = DelaySignal(
            kind="sinusoid", D0=cert.D0,
            amplitude=float(rng.uniform(0.3, 1.0)) * cert.delta_max,
            omega=float(rng.uniform(0.5, 4.0)),
            phase=float(rng.uniform(0.0, 2 * math.pi)))
        scen = Scenario(
            descriptor=desc, certificate=cert, delay=delay, d1=sinusoid(),
            d2=sinusoid(), X0_coeffs=_x0(rng, n_modes),
            dt=self.size.horizon_dt, T_final=self.size.horizon_T,
            N_modes=n_modes)
        sim_engine.save_scenario(scen, self.scen_path)
        with open(self.cert_path) as fh:
            self.cert_dict = json.load(fh)
        with open(self.scen_path) as fh:
            self.scen_dict = json.load(fh)
        # The scenario exactly as the CLI loads it, for the oracle.
        self.scen = sim_engine.load_scenario(
            self.scen_path, synthesis.load_certificate(self.cert_path))
        self.steps = int(round(self.size.horizon_T / self.size.horizon_dt))

    def run_round(self, rnd):
        files = ["--certificate", str(self.cert_path),
                 "--scenario", str(self.scen_path), "--out", str(self.csv_path)]
        sim_rc, _ = rnd.run("simulate", lambda: run_cli(["simulate"] + files),
                            lambda _: self.steps, is_cli=True)
        oracle = rnd.run("oracle",
                         lambda: sim_engine.oracle_simulate(self.scen),
                         lambda tr: len(tr.t) - 1)
        check_rc, text = rnd.run("check", lambda: run_cli(["check"] + files),
                                 is_cli=True)
        return {"simulate_rc": sim_rc, "check_rc": check_rc,
                "check_text": text, "oracle": oracle}

    @staticmethod
    def _fields(traj):
        return {key: np.asarray(getattr(traj, key)).real
                for key in checks.TRAJECTORY_FIELDS}

    def check(self, out):
        fails = []
        if out["simulate_rc"] != 0:
            fails.append(f"specpred simulate exited {out['simulate_rc']}")
        # check exits 1 when a fitted envelope fails: evidence, not an error.
        if out["check_rc"] not in (0, 1):
            fails.append(f"specpred check exited {out['check_rc']}")
            return fails
        traj = checks.read_csv(self.csv_path)
        if self.memory is None:
            self.memory = self._fields(sim_engine.simulate(self.scen))
        fails += checks.roundtrip_failures(self.memory, traj,
                                           "trajectory CSV")
        fails += checks.roundtrip_failures(
            self.memory, self._fields(sim_engine.trajectory_from_csv(self.csv_path)),
            "trajectory_from_csv")
        gap = checks.engine_gap(traj["coeffs"], out["oracle"].coeffs,
                                traj["norm_upper"])
        if not gap <= 1e-4:
            fails.append(f"engine/oracle sup relative gap {gap:.3g} > 1e-4")
        fails += checks.control_law_failures(traj, self.cert_dict,
                                             self.scen_dict)
        fails += checks.transformed_state_failures(traj, self.cert_dict)
        reported = json.loads(out["check_text"].strip().splitlines()[-1])
        fails += checks.envelope_report_failures(
            reported["checks"], traj, self.cert_dict, self.scen_dict)
        out["evidence"] = {"engine_gap": gap, "envelopes_pass": reported["pass"]}
        return fails


# Past the small-gain threshold (10 (e^0.35 - e^-0.35) > 1 for M = lambda = 1):
# a resonant member that must outgrow any decaying envelope.
GROWTH_MEMBER = dict(a=-1.0, c=10.0, r=0.5, eps=0.35, dt=4e-3, T=24.0)


class Lemma2:
    name = "lemma2"

    def __init__(self, seed, size, workdir):
        self.seed, self.size, self.dir = seed, size, Path(workdir)
        self.report_path = self.dir / "lemma2.json"
        self.extra_checked = False

    def setup(self):
        p = cli.LEMMA2_DEFAULTS
        self.params = p
        self.sigma, _ = synthesis.sigma_rate(1.0, -p["a"], abs(p["a"]),
                                             p["c_norm"], p["r"], p["eps"])
        n, self.dt, self.T = self.size.lemma2
        self.problems = cli.lemma2_suite(seed=self.seed, n_members=n, **p)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 3]))
        self.free = {"x0": float(rng.uniform(0.5, 2.0)),
                     "amp": float(rng.uniform(0.2, 1.5)),
                     "w": float(rng.uniform(0.3, 2.0)),
                     "ph": float(rng.uniform(0.0, 2 * math.pi))}

    def _validate(self):
        """What ``specpred validate-lemma2 --seed <seed>`` runs and writes."""
        report = iss_certifier.lemma2_validate(
            self.problems, self.sigma, 1.0, -self.params["a"], dt=self.dt,
            T=self.T)
        with open(self.report_path, "w") as fh:
            json.dump(report, fh)

    def run_round(self, rnd):
        rnd.run("validate_lemma2", self._validate,
                lambda _: len(self.problems) * int(round(self.T / self.dt)),
                is_cli=True)
        return {}

    def _extra_members(self):
        """q = 0 member against its closed form; past-threshold growth."""
        p, f = self.params, self.free
        A, C = np.array([[p["a"]]]), np.array([[p["c_norm"]]])
        free = iss_certifier.Lemma2Problem(
            A=A, C=C, r=p["r"], eps=p["eps"],
            d=lambda t: math.sin(2.0 * t), q=lambda t: 0.0,
            p=lambda t: np.array([f["amp"] * math.sin(f["w"] * t + f["ph"])]),
            x0=lambda t: np.array([f["x0"]]))
        ts, xs = iss_certifier.simulate_delay_difference(free, self.dt, self.T)
        ref = checks.forced_decay(ts, p["a"], f["x0"], f["amp"], f["w"], f["ph"])
        fails = checks.closed_form_failures(xs, ref)
        g = GROWTH_MEMBER
        bad = iss_certifier.Lemma2Problem(
            A=np.array([[g["a"]]]), C=np.array([[g["c"]]]), r=g["r"],
            eps=g["eps"], d=lambda t: math.sin(6.0 * t),
            q=lambda t: math.sin(6.0 * t + 0.5), p=lambda t: np.zeros(1),
            x0=lambda t: np.array([1.0]))
        ts, xs = iss_certifier.simulate_delay_difference(bad, g["dt"], g["T"])
        return fails + checks.growth_failures(ts, xs, g["T"] / 2)

    def check(self, out):
        with open(self.report_path) as fh:
            fails = checks.lemma2_report_failures(json.load(fh),
                                                  len(self.problems))
        if not self.extra_checked:
            fails += self._extra_members()
            self.extra_checked = True
        return fails


WORKLOADS = {w.name: w for w in (Ensemble, LongHorizon, Lemma2)}


def trace_targets():
    """(owner, attribute, span name, steps_of) for every traced call."""
    def traj_steps(args, out):
        return len(out.t) - 1

    ctl, eng, iss = controller, sim_engine, iss_certifier
    return [
        (ctl.PredictorController, "step", "controller.step", None),
        (ctl.ControlHistory, "interp", "controller.history_read", None),
        (ctl, "predictor_taps", "controller.predictor_taps", None),
        (eng, "predictor_taps", "controller.predictor_taps", None),
        (eng, "simulate", "sim_engine.simulate", traj_steps),
        (eng, "artstein_transform", "sim_engine.artstein_transform", None),
        (eng, "oracle_simulate", "sim_engine.oracle_simulate", traj_steps),
        (eng, "trajectory_to_csv", "sim_engine.csv_write",
         lambda args, out: len(args[0].t)),
        (eng, "trajectory_from_csv", "sim_engine.csv_read", None),
        (iss, "check_envelopes", "iss_certifier.check_envelopes", None),
        (iss, "fading_memory_sup", "iss_certifier.fading_memory_sup", None),
        (iss, "fit_constants", "iss_certifier.fit_constants", None),
        (iss, "simulate_delay_difference", "iss_certifier.delay_difference",
         lambda args, out: len(out[0]) - 1),
        (synthesis, "synthesize_certificate", "synthesis.synthesize_certificate",
         None),
        (spectral_model, "classify_modes", "spectral_model.classify_modes", None),
        (cli, "fitting_ensemble", "cli.fitting_ensemble", None),
        (cli, "_sweep_point", "cli.sweep_point", lambda args, out: 1),
    ]
