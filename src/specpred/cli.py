"""Command-line entry points, config plumbing and parallel parameter sweeps.

Subcommands:

* ``certify``        synthesize a certificate for a plant descriptor, fit the
                     ensemble constants, and write the certificate JSON;
* ``simulate``       run a scenario and write the trajectory CSV;
* ``check``          evaluate the ISS envelopes on a stored trajectory;
* ``sweep``          grid a scenario parameter and emit one summary row per
                     point (parallel; the same for any --jobs and --seed);
* ``validate-lemma2`` ensemble evidence for the delay-difference decay lemma.

The exit status is 0 exactly when every requested check passes (``certify``
checks nothing past the certificate it builds, so it exits 0 once that is
written), and 2 when the input is rejected or the run fails with a package
error.  The env var ``SPECPRED_LOG`` selects the log level (DEBUG, INFO,
WARNING, ...).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace
from multiprocessing import Pool

import numpy as np

from . import iss_certifier, sim_engine, spectral_model, synthesis
from .errors import SpecpredError, load_json, read_section
from .iss_certifier import CertifierError, Lemma2Problem
from .sim_engine import DelaySignal, DisturbanceSignal, Scenario, ScenarioError
from .spectral_model import SpectrumError, SystemDescriptor
from .synthesis import Certificate

log = logging.getLogger("specpred")

DEFAULT_SCAN_DEPTH = 200
DEFAULT_DESIGN = {"D0": 0.5, "t0": 1.0, "target_pole": -2.0}
DESIGN_KINDS = {**dict.fromkeys(DEFAULT_DESIGN, float), "target_poles": tuple}
VACUOUS_DELTA = 1e-9     # certify refuses delta_max below this fraction of D0
FIT_MEMBERS, FIT_DT, FIT_T = 20, 2e-3, 8.0   # certify's fitting ensemble


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
    for key in ("D0", "t0"):
        if not 0 < (v := design[key]) < math.inf:
            raise synthesis.SynthesisError(f"design {key} must be positive "
                                           f"and finite, got {v}")
    model = spectral_model.classify_modes(descriptor, DEFAULT_SCAN_DEPTH)
    poles = design.get("target_poles")
    if poles is None:
        poles = [design["target_pole"]] * model.N0
    cert = synthesis.synthesize_certificate(
        descriptor, model, D0=float(design["D0"]), t0=float(design["t0"]),
        target_poles=poles,
    )
    return model, cert


def fitting_ensemble(descriptor: SystemDescriptor, cert: Certificate,
                     seed: int = 0, n_members: int = FIT_MEMBERS,
                     dt: float = FIT_DT, T: float = FIT_T):
    """Channel-isolated random scenarios for fitting the envelope constants.

    Members cycle through the x0 / d1 / d2 channels; delays alternate between
    constant D0 and admissible sinusoids so the fit sees the certified
    uncertainty range.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_modes = sim_engine.default_mode_count(descriptor, cert.alpha)
    m = descriptor.num_inputs
    zero = DisturbanceSignal(kind="zero", m=m)
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
        d1 = d2 = zero
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
            d1, d2 = (sig, zero) if channel == "d1" else (zero, sig)
        scens.append(Scenario(
            descriptor=descriptor, certificate=cert, delay=delay,
            d1=d1, d2=d2, X0_coeffs=X0, dt=dt, T_final=T, N_modes=n_modes))
    return scens


def certify_pipeline(descriptor: SystemDescriptor, design: dict = None,
                     seed: int = 0, n_fit: int = FIT_MEMBERS,
                     dt: float = FIT_DT, T: float = FIT_T) -> Certificate:
    """Full certification: exact synthesis plus ensemble-fitted constants.

    Refuses a design whose delay radius is below VACUOUS_DELTA * D0: such a
    certificate admits no delay uncertainty at all.
    """
    _, cert = design_pipeline(descriptor, design)
    if cert.delta_max < VACUOUS_DELTA * cert.D0:
        lam1 = float(np.max(np.real(cert.lambdas)))
        raise synthesis.SynthesisError(
            f"vacuous certificate: delta_max = {cert.delta_max:.3g} is below "
            f"{VACUOUS_DELTA:g} D0; its small-gain factors are M_lambda = "
            f"{cert.M_lambda:.3g}, ||BK|| = {cert.BK_norm:.3g}, ||A_cl|| = "
            f"{np.linalg.norm(cert.A_cl, 2):.3g} and e^(lambda_1 D0) = "
            f"e^{lam1 * cert.D0:.4g} (lambda_1 = {lam1:.4g}, D0 = {cert.D0:g}); "
            f"try a smaller D0, or distinct, faster target poles "
            f"(design keys D0, target_poles)")
    log.info("synthesized: N0=%d delta_max=%.4g sigma=%.4g kappa=%.4g",
             cert.N0, cert.delta_max, cert.sigma, cert.kappa)
    scens = fitting_ensemble(descriptor, cert, seed=seed, n_members=n_fit,
                             dt=dt, T=T)
    # The fit reads u, Y and Z alone, and the tail modes never feed the law,
    # so only the N0-mode head is stepped: per mode its bits are the full
    # run's.  Each run carries its full scenario, whose X0 sets the X0 term.
    trajs = sim_engine.simulate([
        replace(scen, N_modes=cert.N0, X0_coeffs=scen.X0_coeffs[:cert.N0])
        for scen in scens])
    for traj, scen in zip(trajs, scens):
        traj.scenario = scen
    iss_certifier.fit_constants(trajs, cert)
    log.info("fitted constants from %d members", n_fit)
    return cert


def builtin_scenarios(descriptor: SystemDescriptor, cert: Certificate,
                      dt: float = 1e-3, T: float = 10.0):
    """Five reference scenarios spanning the delay and disturbance channels."""
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

    def scen(delay, d1, d2):
        return Scenario(descriptor=descriptor, certificate=cert, delay=delay,
                        d1=d1, d2=d2, X0_coeffs=X0, dt=dt, T_final=T,
                        N_modes=n_modes)

    # Delay-free under a constant and a wobbling delay, then d1, d2 and both.
    return [scen(const, zero, zero), scen(wobble, zero, zero),
            scen(const, d1_sin, zero), scen(wobble, zero, d2_sin),
            scen(wobble, d1_sin, d2_sin)]


# ---------------------------------------------------------------------------
# The invocation

# The inputs each subcommand needs; every other flag is optional.  check reads
# its trajectory from --out and the disturbance signals from the scenario.
REQUIRES = {
    "certify": (),
    "simulate": ("certificate", "scenario"),
    "check": ("certificate", "scenario", "out"),
    "sweep": ("certificate", "scenario", "sweep"),
    "validate-lemma2": (),
}


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
    p.add_argument("subcommand", choices=tuple(REQUIRES))
    p.add_argument("--descriptor", help="plant descriptor JSON")
    p.add_argument("--certificate", help="certificate JSON")
    p.add_argument("--scenario", help="scenario JSON")
    p.add_argument("--out", help="output path (CSV or JSON per subcommand); "
                                 "check reads its trajectory CSV from it")
    p.add_argument("--seed", type=int, default=0, help="seeds certify's fitting "
                   "ensemble and validate-lemma2's suite; nothing else is random")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--sweep", help="sweep axis param=lo:hi:n")
    return p


def config_from_args(argv) -> argparse.Namespace:
    """Parse an invocation; refuses a subcommand without its ``REQUIRES``
    inputs, a named input file that does not exist, and ``--jobs`` below 1."""
    args = build_parser().parse_args(argv)
    if args.sweep is not None:
        args.sweep = parse_sweep_axis(args.sweep)
    missing = [f"--{name}" for name in REQUIRES[args.subcommand]
               if getattr(args, name) is None]
    if missing:
        raise ValueError(f"{args.subcommand} requires {' and '.join(missing)}")
    for name in ("descriptor", "certificate", "scenario"):
        path = getattr(args, name)
        if path is not None and not os.path.exists(path):
            raise FileNotFoundError(f"--{name} file not found: {path}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    return args


# ---------------------------------------------------------------------------
# Subcommand implementations

def _load_plant(path):
    """(descriptor, design) from a descriptor file and its optional
    ``design`` section; with no file, the built-in c=15 plant."""
    if path is None:
        log.info("no descriptor given; using the built-in c=15 plant")
        return default_descriptor(), {}
    return load_json(path, "descriptor", lambda d: (
        spectral_model.descriptor_from_dict(
            {key: v for key, v in d.items() if key != "design"}),
        read_section(d.get("design", {}), "design", DESIGN_KINDS,
                     SpectrumError)), SpectrumError)


def cmd_certify(config) -> int:
    cert = certify_pipeline(*_load_plant(config.descriptor), seed=config.seed)
    out = config.out or "certificate.json"
    synthesis.save_certificate(cert, out)
    print(f"certificate written to {out}: "
          f"delta_max={cert.delta_max:.6g} sigma={cert.sigma:.6g} "
          f"kappa={cert.kappa:.6g}")
    return 0


def cmd_simulate(config) -> int:
    cert = synthesis.load_certificate(config.certificate)
    scen = sim_engine.load_scenario(config.scenario, cert)
    traj = sim_engine.simulate(scen)
    out = config.out or "trajectory.csv"
    sim_engine.trajectory_to_csv(traj, out)
    print(f"trajectory written to {out}: {len(traj.t)} samples, "
          f"final ||X||_upper = {traj.norm_upper[-1]:.6g}")
    return 0


def cmd_check(config) -> int:
    cert = synthesis.load_certificate(config.certificate)
    scen = sim_engine.load_scenario(config.scenario, cert)
    traj = sim_engine.trajectory_from_csv(config.out)
    sim_engine.match_trajectory(traj, scen, config.out)
    traj.scenario = scen
    report = iss_certifier.check_envelopes(traj)
    for name, chk in report.items():
        status = "pass" if chk["pass"] else "FAIL"
        extra = " (vacuous)" if chk["vacuous"] else ""
        print(f"{name}: {status}{extra} worst_ratio={chk['worst_ratio']:.6g} "
              f"at t={chk['worst_time']:.6g}")
    passed = all(chk["pass"] for chk in report.values())
    print(json.dumps({"pass": passed, "checks": report}))
    return 0 if passed else 1


# --- sweep ------------------------------------------------------------------

SWEEP_PARAMS = ("delay_amplitude", "d1_amplitude", "d2_amplitude", "X0_scale")
SWEEP_COLUMNS = ("index", "param", "value", "certified", "delta_max",
                 "kappa_hat") \
    + tuple(f"ratio_{name}" for name in iss_certifier.ENVELOPES) + ("pass",)


def apply_sweep_param(scen: Scenario, param: str, value: float) -> Scenario:
    """``scen`` with ``param`` set to ``value``, as one checked ``replace``.
    A zero signal swept off 0 becomes a sinusoid (omega 2.0 for the delay,
    1.5 for a disturbance, where its omega is 0); a delay point stays
    certified only if the certificate admits ``value``."""
    if param == "delay_amplitude":
        delay = replace(scen.delay, kind="sinusoid" if value else "constant",
                        amplitude=value, omega=scen.delay.omega or 2.0,
                        times=(), values=())
        return replace(scen, delay=delay, certified=scen.certified
                       and scen.certificate.admits(value))
    if param in ("d1_amplitude", "d2_amplitude"):
        sig = getattr(scen, param[:2])
        if value and sig.kind == "zero":
            sig = replace(sig, kind="sinusoid", omega=sig.omega or 1.5)
        return replace(scen, **{param[:2]: replace(sig, amplitude=(value,))})
    if param == "X0_scale":
        return replace(scen, X0_coeffs=value * scen.X0_coeffs)
    raise ValueError(f"unknown sweep parameter {param!r}; "
                     f"choose from {SWEEP_PARAMS}")


def _sweep_point(args):
    """Evaluate one sweep grid point (runs in a worker process)."""
    idx, cert_dict, scen_dict, param, value, seed = args
    cert = synthesis.certificate_from_dict(cert_dict)
    scen = apply_sweep_param(sim_engine.scenario_from_dict(scen_dict, cert),
                             param, value)
    traj = sim_engine.simulate(scen)
    report = iss_certifier.check_envelopes(traj)
    # Disturbed runs and X0 = 0 have no decay rate to fit.
    try:
        kappa_hat, _ = iss_certifier.fit_decay_rate(traj, cert)
    except CertifierError:
        kappa_hat = math.nan
    # Only certified points assert the envelopes; uncertified rows report.
    return {
        "index": idx, "param": param, "value": value,
        "certified": scen.certified, "delta_max": cert.delta_max,
        "kappa_hat": kappa_hat,
        **{f"ratio_{name}": c["worst_ratio"] for name, c in report.items()},
        "pass": all(c["pass"] for c in report.values()) or not scen.certified,
    }


def cmd_sweep(config) -> int:
    cert = synthesis.load_certificate(config.certificate)
    if not cert.has_fitted_constants:
        raise ValueError("certificate has no fitted constants; run certify first")
    # Build the scenario once up front, so a malformed file fails typed.
    _, scen_dict = load_json(
        config.scenario, "scenario",
        lambda d: (sim_engine.scenario_from_dict(d, cert), d), ScenarioError)
    param, lo, hi, n = config.sweep
    values = np.linspace(lo, hi, n)
    cert_dict = synthesis.certificate_to_dict(cert)
    tasks = [(i, cert_dict, scen_dict, param, float(v), config.seed)
             for i, v in enumerate(values)]
    workers = min(config.jobs, len(tasks))
    if workers > 1:
        with Pool(workers) as pool:
            rows = pool.map(_sweep_point, tasks)
    else:
        rows = [_sweep_point(t) for t in tasks]

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


def lemma2_suite(seed: int = 0, n_members: int = 50,
                 a: float = LEMMA2_DEFAULTS["a"],
                 c_norm: float = LEMMA2_DEFAULTS["c_norm"],
                 r: float = LEMMA2_DEFAULTS["r"],
                 eps: float = LEMMA2_DEFAULTS["eps"]):
    """Random admissible ensemble for the scalar delay-difference system.

    Members alternate between nonzero-history / zero-forcing (pinning M) and
    zero-history / nonzero-forcing (pinning N); d, q, p are signal objects.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    A = np.array([[a]])
    C = np.array([[c_norm]])
    zero = DisturbanceSignal("zero")
    problems = []
    for i in range(n_members):
        wd = float(rng.uniform(0.3, 6.0))
        wq = float(rng.uniform(0.3, 6.0))
        pd = float(rng.uniform(0, 2 * np.pi))
        pq = float(rng.uniform(0, 2 * np.pi))
        d = DelaySignal("sinusoid", D0=0.0, amplitude=1.0, omega=wd, phase=pd)
        q = DelaySignal("sinusoid", D0=0.0, amplitude=1.0, omega=wq, phase=pq)
        if i % 2 == 0:
            amp = float(rng.uniform(0.5, 2.0))
            wx = float(rng.uniform(0.0, 4.0))
            x0 = DisturbanceSignal("sinusoid", amplitude=(amp,), omega=wx,
                                   phase=math.pi / 2)
            p = zero
        else:
            x0 = zero
            ap = float(rng.uniform(0.2, 1.5))
            wp = float(rng.uniform(0.3, 5.0))
            pp = float(rng.uniform(0, 2 * np.pi))
            p = DisturbanceSignal("sinusoid", amplitude=(ap,), omega=wp, phase=pp)
        problems.append(Lemma2Problem(A=A, C=C, r=r, eps=eps, d=d, q=q, p=p,
                                      x0=x0))
    return problems


def cmd_validate_lemma2(config) -> int:
    # The scenario file's optional lemma2 mapping overrides LEMMA2_DEFAULTS.
    p = {**LEMMA2_DEFAULTS, **({} if config.scenario is None else load_json(
        config.scenario, "scenario",
        lambda d: read_section(d.get("lemma2", {}), "lemma2", dict.fromkeys(
            LEMMA2_DEFAULTS, float), CertifierError), CertifierError))}
    for key, ok in (("a", p["a"] < 0), ("c_norm", p["c_norm"] >= 0),
                    ("eps", 0 <= p["eps"] < p["r"]),
                    *((key, math.isfinite(v)) for key, v in p.items())):
        if not ok:
            raise CertifierError(f"lemma2 {key} = {p[key]:g} is out of "
                                 "range; lemma 2 needs finite a < 0, "
                                 "c_norm >= 0 and 0 <= eps < r")
    # Decay data of e^{At} for the scalar nominal part: exact envelope.
    M_lambda, lam = 1.0, -p["a"]
    sigma, _ = synthesis.sigma_rate(M_lambda, lam, abs(p["a"]), p["c_norm"],
                                    p["r"], p["eps"])
    problems = lemma2_suite(seed=config.seed, **p)
    report = iss_certifier.lemma2_validate(problems, sigma, M_lambda, lam)
    if config.out:
        with open(config.out, "w") as fh:
            json.dump(report, fh, indent=2)
    print(f"lemma2: sigma={sigma:.6g} M={report['M']:.6g} "
          f"N={report['N']:.6g} finite={report['finite']}")
    return 0 if report["finite"] else 1


# ---------------------------------------------------------------------------

HANDLERS = {
    "certify": cmd_certify,
    "simulate": cmd_simulate,
    "check": cmd_check,
    "sweep": cmd_sweep,
    "validate-lemma2": cmd_validate_lemma2,
}


def main(argv=None) -> int:
    """Run one invocation; returns the process exit status."""
    _configure_logging()
    try:
        config = config_from_args(argv)   # argv None: argparse reads sys.argv
        return HANDLERS[config.subcommand](config)
    except (SpecpredError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
