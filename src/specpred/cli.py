"""Command-line entry points, config plumbing and parallel parameter sweeps.

Subcommands:

* ``certify``        synthesize a certificate for a plant descriptor, fit the
                     ensemble constants, and write the certificate JSON;
* ``simulate``       run a scenario and write the trajectory CSV;
* ``check``          evaluate the ISS envelopes on a stored trajectory;
* ``sweep``          grid a scenario parameter and emit one summary row per
                     point (parallel, deterministic for a fixed seed);
* ``validate-lemma2`` ensemble evidence for the delay-difference decay lemma.

The exit status is 0 exactly when every requested check passes, and 2 when
the input is rejected or the run fails with a package error.  The env var
``SPECPRED_LOG`` selects the log level (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from multiprocessing import Pool

import numpy as np

from . import iss_certifier, sim_engine, spectral_model, synthesis
from .errors import SpecpredError
from .iss_certifier import Lemma2Problem
from .sim_engine import DelaySignal, DisturbanceSignal, Scenario
from .spectral_model import SystemDescriptor
from .synthesis import Certificate

log = logging.getLogger("specpred")

DEFAULT_SCAN_DEPTH = 200
DEFAULT_DESIGN = {"D0": 0.5, "t0": 1.0, "target_pole": -2.0}
VACUOUS_DELTA = 1e-9     # certify refuses delta_max below this fraction of D0


def _configure_logging():
    level = os.environ.get("SPECPRED_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s %(levelname)s %(message)s")


# ---------------------------------------------------------------------------
# Built-in design and scenarios

def default_descriptor(c: float = 15.0) -> SystemDescriptor:
    return spectral_model.build_reaction_diffusion(c)


def design_pipeline(descriptor: SystemDescriptor, design: dict = None):
    """Descriptor -> (model, certificate) with the exactly-computable part."""
    design = {**DEFAULT_DESIGN, **(design or {})}
    split = spectral_model.classify_modes(descriptor, DEFAULT_SCAN_DEPTH)
    model = spectral_model.truncated_model(descriptor, split.N0, split.alpha,
                                           split.xi)
    poles = design.get("target_poles")
    if poles is None:
        poles = [design["target_pole"]] * model.N0
    cert = synthesis.synthesize_certificate(
        descriptor, model, D0=float(design["D0"]), t0=float(design["t0"]),
        target_poles=poles,
    )
    return model, cert


def fitting_ensemble(descriptor: SystemDescriptor, cert: Certificate,
                     seed: int = 0, n_members: int = 20, dt: float = 2e-3,
                     T: float = 8.0):
    """Channel-isolated random scenarios for fitting the envelope constants.

    Members cycle through the x0 / d1 / d2 channels; delays alternate between
    constant D0 and admissible sinusoids so the fit sees the certified
    uncertainty range.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_modes = sim_engine.default_mode_count(descriptor, cert.alpha)
    m = descriptor.num_inputs
    scens = []
    for i in range(n_members):
        if i % 2 == 0:
            delay = DelaySignal(kind="constant", D0=cert.D0)
        else:
            delay = DelaySignal(
                kind="sinusoid", D0=cert.D0,
                amplitude=float(rng.uniform(0.3, 1.0)) * cert.delta_max,
                omega=float(rng.uniform(0.5, 4.0)),
                phase=float(rng.uniform(0.0, 2 * np.pi)),
            )
        channel = ("x0", "d1", "d2")[i % 3]
        X0 = np.zeros(n_modes)
        d1 = DisturbanceSignal(kind="zero", m=m)
        d2 = DisturbanceSignal(kind="zero", m=m)
        if channel == "x0":
            k = int(rng.integers(cert.N0, min(cert.N0 + 4, n_modes) + 1))
            X0[:k] = rng.normal(size=k)
            X0 *= rng.uniform(0.5, 2.0) / max(np.linalg.norm(X0), 1e-12)
        else:
            sig = DisturbanceSignal(
                kind="sinusoid", m=m,
                amplitude=tuple(rng.uniform(0.2, 2.0, size=m)),
                omega=float(rng.uniform(0.3, 5.0)),
                phase=float(rng.uniform(0.0, 2 * np.pi)),
            )
            if channel == "d1":
                d1 = sig
            else:
                d2 = sig
        scens.append(Scenario(
            descriptor=descriptor, certificate=cert, delay=delay,
            d1=d1, d2=d2, X0_coeffs=X0, dt=dt, T_final=T, N_modes=n_modes,
            label=f"fit-{channel}-{i}",
        ))
    return scens


def certify_pipeline(descriptor: SystemDescriptor, design: dict = None,
                     seed: int = 0, n_fit: int = 20, dt: float = 2e-3,
                     T: float = 8.0) -> Certificate:
    """Full certification: exact synthesis plus ensemble-fitted constants.

    Refuses a design whose delay radius is below VACUOUS_DELTA * D0: such a
    certificate admits no delay uncertainty at all.
    """
    _, cert = design_pipeline(descriptor, design)
    if cert.delta_max < VACUOUS_DELTA * cert.D0:
        lam1 = float(np.max(np.real(cert.lambdas)))
        raise synthesis.SynthesisError(
            f"vacuous certificate: delta_max = {cert.delta_max:.3g} is below "
            f"{VACUOUS_DELTA:g} D0; the predictor factor e^(lambda_1 D0) = "
            f"e^{lam1 * cert.D0:.4g} (lambda_1 = {lam1:.4g}, D0 = {cert.D0:g}) "
            f"inflates the gain; try a smaller D0")
    log.info("synthesized: N0=%d delta_max=%.4g sigma=%.4g kappa=%.4g",
             cert.N0, cert.delta_max, cert.sigma, cert.kappa)
    scens = fitting_ensemble(descriptor, cert, seed=seed, n_members=n_fit,
                             dt=dt, T=T)
    trajs = sim_engine.simulate(scens)
    iss_certifier.fit_constants(trajs, cert)
    log.info("fitted constants from %d members", n_fit)
    return cert


def builtin_scenarios(descriptor: SystemDescriptor = None,
                      cert: Certificate = None, dt: float = 1e-3,
                      T: float = 10.0):
    """Five reference scenarios spanning the delay and disturbance channels."""
    if descriptor is None:
        descriptor = default_descriptor()
    if cert is None:
        _, cert = design_pipeline(descriptor)
    n_modes = sim_engine.default_mode_count(descriptor, cert.alpha)
    m = descriptor.num_inputs
    const = DelaySignal(kind="constant", D0=cert.D0)
    wobble = DelaySignal(kind="sinusoid", D0=cert.D0,
                         amplitude=0.8 * cert.delta_max, omega=2.0, phase=0.3)
    zero = DisturbanceSignal(kind="zero", m=m)
    d1_sin = DisturbanceSignal(kind="sinusoid", m=m, amplitude=(0.7,) * m,
                               omega=1.5, phase=0.0)
    d2_sin = DisturbanceSignal(kind="sinusoid", m=m, amplitude=(0.5,) * m,
                               omega=2.5, phase=1.0)
    X0 = np.zeros(n_modes)
    X0[0] = 1.0
    X0[1] = -0.4
    X0[2] = 0.15

    def scen(label, delay, d1, d2, x0):
        return Scenario(descriptor=descriptor, certificate=cert, delay=delay,
                        d1=d1, d2=d2, X0_coeffs=x0, dt=dt, T_final=T,
                        N_modes=n_modes, label=label)

    return [
        scen("const-delay-free", const, zero, zero, X0),
        scen("wobble-delay-free", wobble, zero, zero, X0),
        scen("const-d1", const, d1_sin, zero, X0),
        scen("wobble-d2", wobble, zero, d2_sin, X0),
        scen("wobble-d1-d2", wobble, d1_sin, d2_sin, X0),
    ]


# ---------------------------------------------------------------------------
# Run configuration

SUBCOMMANDS = ("certify", "simulate", "check", "sweep", "validate-lemma2")


class RunConfig:
    """Parsed invocation: subcommand, file paths, sweep axis and parallelism."""

    def __init__(self, subcommand, descriptor=None, certificate=None,
                 scenario=None, out=None, seed=0, jobs=1, sweep=None):
        if subcommand not in SUBCOMMANDS:
            raise ValueError(f"unknown subcommand {subcommand!r}")
        self.subcommand = subcommand
        self.descriptor = descriptor
        self.certificate = certificate
        self.scenario = scenario
        self.out = out
        self.seed = int(seed)
        self.jobs = int(jobs)
        self.sweep = sweep          # (param, lo, hi, n) or None
        if subcommand == "sweep" and sweep is None:
            raise ValueError("sweep requires --sweep param=lo:hi:n")
        for label, path in (("descriptor", descriptor),
                            ("certificate", certificate),
                            ("scenario", scenario)):
            if path is not None and not os.path.exists(path):
                raise FileNotFoundError(f"--{label} file not found: {path}")


def parse_sweep_axis(text: str):
    """Parse ``param=lo:hi:n`` into (param, lo, hi, n)."""
    try:
        param, rng = text.split("=", 1)
        lo, hi, n = rng.split(":")
        axis = param.strip(), float(lo), float(hi), int(n)
    except ValueError as exc:
        raise ValueError(f"bad --sweep spec {text!r}; expected param=lo:hi:n") from exc
    if axis[3] < 1:
        raise ValueError(f"bad --sweep spec {text!r}; the point count n must be >= 1")
    return axis


def build_parser():
    p = argparse.ArgumentParser(
        prog="specpred",
        description="Predictor-feedback synthesis, simulation and ISS checking "
                    "for diagonal boundary control systems with uncertain "
                    "input delay.",
    )
    p.add_argument("subcommand", choices=SUBCOMMANDS)
    p.add_argument("--descriptor", help="plant descriptor JSON")
    p.add_argument("--certificate", help="certificate JSON")
    p.add_argument("--scenario", help="scenario JSON")
    p.add_argument("--out", help="output path (CSV or JSON per subcommand)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--sweep", help="sweep axis param=lo:hi:n")
    return p


def config_from_args(argv) -> RunConfig:
    args = build_parser().parse_args(argv)
    sweep = parse_sweep_axis(args.sweep) if args.sweep else None
    return RunConfig(args.subcommand, args.descriptor, args.certificate,
                     args.scenario, args.out, args.seed, args.jobs, sweep)


# ---------------------------------------------------------------------------
# Subcommand implementations

def _load_descriptor(config) -> SystemDescriptor:
    if config.descriptor is None:
        log.info("no descriptor given; using the built-in c=15 plant")
        return default_descriptor()
    return spectral_model.load_descriptor(config.descriptor)


def _load_design(config) -> dict:
    if config.descriptor is None:
        return {}
    with open(config.descriptor) as fh:
        return json.load(fh).get("design", {})


def cmd_certify(config: RunConfig) -> int:
    descriptor = _load_descriptor(config)
    cert = certify_pipeline(descriptor, _load_design(config), seed=config.seed)
    out = config.out or "certificate.json"
    synthesis.save_certificate(cert, out)
    print(f"certificate written to {out}: "
          f"delta_max={cert.delta_max:.6g} sigma={cert.sigma:.6g} "
          f"kappa={cert.kappa:.6g}")
    ok = cert.delta_max > 0 and cert.sigma > 0 and cert.has_fitted_constants
    return 0 if ok else 1


def cmd_simulate(config: RunConfig) -> int:
    if config.certificate is None or config.scenario is None:
        raise ValueError("simulate requires --certificate and --scenario")
    cert = synthesis.load_certificate(config.certificate)
    scen = sim_engine.load_scenario(config.scenario, cert)
    traj = sim_engine.simulate(scen)
    out = config.out or "trajectory.csv"
    sim_engine.trajectory_to_csv(traj, out)
    print(f"trajectory written to {out}: {len(traj.t)} samples, "
          f"final ||X||_upper = {traj.norm_upper[-1]:.6g}")
    return 0


def cmd_check(config: RunConfig) -> int:
    # The envelope RHS needs the disturbance signals, so the scenario file is
    # required alongside the trajectory CSV.
    if config.certificate is None or config.scenario is None:
        raise ValueError("check requires --certificate and --scenario")
    if config.out is None:
        raise ValueError("check requires --out pointing at the trajectory CSV "
                         "to check (report goes to stdout)")
    cert = synthesis.load_certificate(config.certificate)
    scen = sim_engine.load_scenario(config.scenario, cert)
    traj = sim_engine.trajectory_from_csv(config.out)
    traj.scenario = scen
    report = iss_certifier.check_envelopes(traj, cert)
    for name, chk in report.checks.items():
        status = "pass" if chk.passed else "FAIL"
        extra = " (vacuous)" if chk.vacuous else ""
        print(f"{name}: {status}{extra} worst_ratio={chk.worst_ratio:.6g} "
              f"at t={chk.worst_time:.6g}")
    print(json.dumps({"pass": report.all_pass, "checks": report.to_dict()}))
    return 0 if report.all_pass else 1


# --- sweep ------------------------------------------------------------------

SWEEP_PARAMS = ("delay_amplitude", "d1_amplitude", "d2_amplitude", "X0_scale")
SWEEP_COLUMNS = ("index", "param", "value", "certified", "delta_max",
                 "kappa_hat") \
    + tuple(f"ratio_{name}" for name in iss_certifier.ENVELOPES) + ("pass",)


def apply_sweep_param(scen_dict: dict, param: str, value: float) -> dict:
    """Return a scenario dict with one swept parameter overridden."""
    d = json.loads(json.dumps(scen_dict))   # deep copy
    if param == "delay_amplitude":
        delay = d["delay"]
        delay["kind"] = "sinusoid" if value != 0.0 else "constant"
        delay["amplitude"] = value
        if not delay.get("omega"):
            delay["omega"] = 2.0
    elif param in ("d1_amplitude", "d2_amplitude"):
        key = "disturbance_d1" if param == "d1_amplitude" else "disturbance_d2"
        sig = d[key]
        if value != 0.0 and sig.get("kind", "zero") == "zero":
            sig["kind"] = "sinusoid"
            sig.setdefault("omega", 1.5)
        m = len(np.atleast_1d(sig.get("amplitude", [0.0])))
        sig["amplitude"] = [value] * m
    elif param == "X0_scale":
        x0 = synthesis._array_from_list(d["initial"]["X0_coeffs"])
        d["initial"]["X0_coeffs"] = synthesis._array_to_list(value * x0)
    else:
        raise ValueError(f"unknown sweep parameter {param!r}; "
                         f"choose from {SWEEP_PARAMS}")
    return d


def _sweep_point(args):
    """Evaluate one sweep grid point (runs in a worker process)."""
    idx, cert_dict, scen_dict, param, value, seed = args
    cert = synthesis.certificate_from_dict(cert_dict)
    d = apply_sweep_param(scen_dict, param, value)
    certified = True
    if param == "delay_amplitude" and value > cert.delta_max * (1 + 1e-12):
        certified = False
        d["integration"]["certified"] = False
    scen = sim_engine.scenario_from_dict(d, cert)
    traj = sim_engine.simulate(scen)
    report = iss_certifier.check_envelopes(traj, cert)
    # Disturbed runs and X0 = 0 have no decay rate to fit.
    try:
        kappa_hat, _ = iss_certifier.fit_decay_rate(traj, cert)
    except iss_certifier.CertifierError:
        kappa_hat = math.nan
    # Only certified points assert the envelopes; uncertified rows report.
    return {
        "index": idx, "param": param, "value": value,
        "certified": certified, "delta_max": cert.delta_max,
        "kappa_hat": kappa_hat,
        **{f"ratio_{name}": chk.worst_ratio
           for name, chk in report.checks.items()},
        "pass": report.all_pass or not certified,
    }


def cmd_sweep(config: RunConfig) -> int:
    if config.certificate is None or config.scenario is None:
        raise ValueError("sweep requires --certificate and --scenario")
    cert = synthesis.load_certificate(config.certificate)
    if not cert.has_fitted_constants:
        raise ValueError("certificate has no fitted constants; run certify first")
    # Parse the scenario once up front, so a malformed file fails typed.
    sim_engine.load_scenario(config.scenario, cert)
    with open(config.scenario) as fh:
        scen_dict = json.load(fh)
    param, lo, hi, n = config.sweep
    values = np.linspace(lo, hi, n)
    cert_dict = synthesis.certificate_to_dict(cert)
    tasks = [(i, cert_dict, scen_dict, param, float(v), config.seed)
             for i, v in enumerate(values)]
    if config.jobs > 1:
        with Pool(config.jobs) as pool:
            rows = pool.map(_sweep_point, tasks)
    else:
        rows = [_sweep_point(t) for t in tasks]
    rows.sort(key=lambda r: r["index"])

    out = config.out or "sweep.csv"
    with open(out, "w") as fh:
        fh.write(", ".join(SWEEP_COLUMNS) + "\n")
        for r in rows:
            cells = []
            for col in SWEEP_COLUMNS:
                v = r[col]
                cells.append(repr(float(v)) if isinstance(v, float) else str(v))
            fh.write(", ".join(cells) + "\n")
    n_fail = sum(1 for r in rows if not r["pass"])
    print(f"sweep written to {out}: {len(rows)} points, {n_fail} failing")
    return 0 if n_fail == 0 else 1


# --- validate-lemma2 --------------------------------------------------------

LEMMA2_DEFAULTS = {"a": -1.0, "c_norm": 2.0, "r": 0.5, "eps": 0.05}


def lemma2_suite(seed: int = 0, n_members: int = 50, a: float = -1.0,
                 c_norm: float = 2.0, r: float = 0.5, eps: float = 0.05):
    """Random admissible ensemble for the scalar delay-difference system.

    Members alternate between nonzero-history / zero-forcing (pinning M) and
    zero-history / nonzero-forcing (pinning N); d and q are bounded sinusoids.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    A = np.array([[a]])
    C = np.array([[c_norm]])
    problems = []
    for i in range(n_members):
        wd = float(rng.uniform(0.3, 6.0))
        wq = float(rng.uniform(0.3, 6.0))
        pd = float(rng.uniform(0, 2 * np.pi))
        pq = float(rng.uniform(0, 2 * np.pi))
        d = (lambda t, w=wd, p=pd: math.sin(w * t + p))
        q = (lambda t, w=wq, p=pq: math.sin(w * t + p))
        if i % 2 == 0:
            amp = float(rng.uniform(0.5, 2.0))
            wx = float(rng.uniform(0.0, 4.0))
            x0 = (lambda t, A0=amp, w=wx: np.array([A0 * math.cos(w * t)]))
            p = (lambda t: np.zeros(1))
        else:
            x0 = (lambda t: np.zeros(1))
            ap = float(rng.uniform(0.2, 1.5))
            wp = float(rng.uniform(0.3, 5.0))
            pp = float(rng.uniform(0, 2 * np.pi))
            p = (lambda t, A0=ap, w=wp, ph=pp: np.array([A0 * math.sin(w * t + ph)]))
        problems.append(Lemma2Problem(A=A, C=C, r=r, eps=eps, d=d, q=q, p=p,
                                      x0=x0))
    return problems


def cmd_validate_lemma2(config: RunConfig) -> int:
    params = dict(LEMMA2_DEFAULTS)
    if config.scenario is not None:
        with open(config.scenario) as fh:
            params.update(json.load(fh).get("lemma2", {}))
    a, c_norm, r, eps = (params["a"], params["c_norm"], params["r"],
                         params["eps"])
    # Decay data of e^{At} for the scalar nominal part: exact envelope.
    M_lambda, lam = 1.0, -a
    sigma, _ = synthesis.sigma_rate(M_lambda, lam, abs(a), c_norm, r, eps)
    problems = lemma2_suite(seed=config.seed, a=a, c_norm=c_norm, r=r, eps=eps)
    report = iss_certifier.lemma2_validate(problems, sigma, M_lambda, lam)
    if config.out:
        with open(config.out, "w") as fh:
            json.dump(report, fh, indent=2)
    print(f"lemma2: sigma={sigma:.6g} M={report['M']:.6g} "
          f"N={report['N']:.6g} finite={report['finite']}")
    return 0 if report["finite"] else 1


# ---------------------------------------------------------------------------

def run(config: RunConfig) -> int:
    """Dispatch a parsed configuration; returns the process exit status."""
    handlers = {
        "certify": cmd_certify,
        "simulate": cmd_simulate,
        "check": cmd_check,
        "sweep": cmd_sweep,
        "validate-lemma2": cmd_validate_lemma2,
    }
    return handlers[config.subcommand](config)


def main(argv=None) -> int:
    _configure_logging()
    try:
        config = config_from_args(sys.argv[1:] if argv is None else argv)
        return run(config)
    except (SpecpredError, ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
