"""Regenerate ``golden.json``, the numbers ``test_golden.py`` holds the
pipeline to.

Run from the repository root after a change that moves outputs on purpose:

    PYTHONPATH=src python tests/make_golden.py

The file then shows every moved number in its diff.  It holds the
certificates of ``certify_pipeline`` seeds 0 and 1; for each built-in
scenario under the seed-1 certificate (dt = 5e-3, T = 2), the per-column
supremum of |value| and the last row of every array ``simulate`` and
``oracle_simulate`` return, with the worst ``check_envelopes`` ratio of
each run; three in-band ``delay_amplitude`` sweep rows; and a six-member
lemma-2 report over T = 2.
"""

import json
import sys
from pathlib import Path

import numpy as np

from specpred import cli, iss_certifier, sim_engine, synthesis

GOLDEN = Path(__file__).with_name("golden.json")
DT, T = 5e-3, 2.0
ARRAYS = ("coeffs", "Z", "u", "v", "norm_lower", "norm_upper")


def _run(traj):
    """Per-column sup |x| and last row of each array, and the check ratios."""
    cols = {name: np.asarray(getattr(traj, name), dtype=float).reshape(
        len(traj.t), -1) for name in ARRAYS}
    return {
        "sup": {k: np.max(np.abs(v), axis=0).tolist() for k, v in cols.items()},
        "last": {k: v[-1].tolist() for k, v in cols.items()},
        "ratios": {name: chk["worst_ratio"] for name, chk
                   in iss_certifier.check_envelopes(traj).items()},
    }


def golden_numbers() -> dict:
    descriptor = cli.default_descriptor()
    certs = {seed: cli.certify_pipeline(descriptor, seed=seed)
             for seed in (0, 1)}
    cert = certs[1]
    scens = cli.builtin_scenarios(descriptor, cert, dt=DT, T=T)
    cert_dict = synthesis.certificate_to_dict(cert)
    scen_dict = sim_engine.scenario_to_dict(scens[1])
    sweep = [cli._sweep_point((i, cert_dict, scen_dict, "delay_amplitude",
                               frac * cert.delta_max, 0))
             for i, frac in enumerate((0.0, 0.5, 1.0))]
    p = cli.LEMMA2_DEFAULTS
    M_lambda, lam = 1.0, -p["a"]
    sigma, _ = synthesis.sigma_rate(M_lambda, lam, abs(p["a"]), p["c_norm"],
                                    p["r"], p["eps"])
    lemma2 = iss_certifier.lemma2_validate(
        cli.lemma2_suite(seed=0, n_members=6), sigma, M_lambda, lam, T=T)
    return {
        "certificates": {str(seed): synthesis.certificate_to_dict(c)
                         for seed, c in certs.items()},
        "simulate": [_run(traj) for traj in sim_engine.simulate(scens)],
        "oracle": [_run(sim_engine.oracle_simulate(s)) for s in scens],
        "sweep": sweep,
        "lemma2": lemma2,
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_numbers(), indent=1, allow_nan=False)
                      + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
