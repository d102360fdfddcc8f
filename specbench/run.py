#!/usr/bin/env python3
"""specpred benchmark entry point.

Run from the repository root:

    python3 specbench/run.py --workload ensemble --seed 0 --seconds 10 --trace 0

The program is imported from ``src/`` of the same checkout.  The workload's
inputs are built from ``--seed``.  Times are in reference seconds (see
``speed.py``): wall time scaled by the host's speed on a fixed kernel,
measured during the same operation.  Whole rounds of the workload's operations
run until their summed reference time reaches ``--seconds`` (or their wall
time twice that), and every round's outputs are checked.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced rounds; the layers are measured on the traced
ones and the difference is reported as the tracing overhead.  Spans are
written to ``specbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("ensemble", "long-horizon", "lemma2"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small: seconds-long inputs for the benchmark's tests")
    return p.parse_args(argv)


def load_program():
    """Import specpred from this checkout and the workloads that drive it."""
    import specpred
    if not Path(specpred.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"specpred imported from {specpred.__file__}, "
                          f"not from {SRC}")
    import workloads  # noqa: F401  (imports the program modules it drives)


def end_to_end(rounds, setup_s):
    plain = [r for r in rounds if r.tracer is None]
    ops = [op for r in plain for op in r.ops]
    return {
        "setup_s": (setup_s, "s"),
        "cli_s": (statistics.median(
            sum(op.seconds for op in r.ops if op.cli) for r in plain), "s"),
        "steps_per_s": (sum(op.steps for op in ops)
                        / sum(op.seconds for op in ops), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(summary, rounds):
    traced = [r for r in rounds if r.tracer is not None]
    plain = [r for r in rounds if r.tracer is None]
    n = len(traced)

    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    def per_round(name, key, scale=1.0):
        return get(name, key) / n * scale

    def ratio(name, num, den, scale):
        d = get(name, den)
        return get(name, num) / d * scale if d else 0.0

    overhead = 100.0 * (statistics.median(r.seconds for r in traced)
                        / statistics.median(r.seconds for r in plain) - 1.0)
    layers = {
        "controller.step_us": (ratio("controller.step", "busy_ns", "calls", 1e-3), "us"),
        "controller.step_calls": (per_round("controller.step", "calls"), "count"),
        "controller.history_read_us": (ratio("controller.history_read", "busy_ns", "calls", 1e-3), "us"),
        "controller.history_read_calls": (per_round("controller.history_read", "calls"), "count"),
        "controller.predictor_taps_ms": (per_round("controller.predictor_taps", "busy_ns", 1e-6), "ms"),
        "controller.predictor_taps_calls": (per_round("controller.predictor_taps", "calls"), "count"),
        "sim_engine.simulate_s": (per_round("sim_engine.simulate", "busy_ns", 1e-9), "s"),
        "sim_engine.simulate_calls": (per_round("sim_engine.simulate", "calls"), "count"),
        "sim_engine.simulate_steps": (per_round("sim_engine.simulate", "steps"), "count"),
        "sim_engine.plant_self_us_per_step": (ratio("sim_engine.simulate", "self_ns", "steps", 1e-3), "us/step"),
        "sim_engine.artstein_transform_ms": (per_round("sim_engine.artstein_transform", "busy_ns", 1e-6), "ms"),
        "sim_engine.oracle_us_per_step": (ratio("sim_engine.oracle_simulate", "busy_ns", "steps", 1e-3), "us/step"),
        "sim_engine.csv_write_s": (per_round("sim_engine.csv_write", "busy_ns", 1e-9), "s"),
        "sim_engine.csv_read_s": (per_round("sim_engine.csv_read", "busy_ns", 1e-9), "s"),
        "sim_engine.csv_rows": (per_round("sim_engine.csv_write", "steps"), "count"),
        "iss_certifier.check_envelopes_ms": (per_round("iss_certifier.check_envelopes", "busy_ns", 1e-6), "ms"),
        "iss_certifier.fading_memory_sup_calls": (per_round("iss_certifier.fading_memory_sup", "calls"), "count"),
        "iss_certifier.fit_constants_ms": (per_round("iss_certifier.fit_constants", "busy_ns", 1e-6), "ms"),
        "iss_certifier.delay_difference_us_per_step": (ratio("iss_certifier.delay_difference", "busy_ns", "steps", 1e-3), "us/step"),
        "iss_certifier.delay_difference_steps": (per_round("iss_certifier.delay_difference", "steps"), "count"),
        "synthesis.synthesize_certificate_ms": (per_round("synthesis.synthesize_certificate", "busy_ns", 1e-6), "ms"),
        "spectral_model.classify_modes_ms": (per_round("spectral_model.classify_modes", "busy_ns", 1e-6), "ms"),
        "cli.fitting_ensemble_ms": (per_round("cli.fitting_ensemble", "busy_ns", 1e-6), "ms"),
        "cli.sweep_point_s": (ratio("cli.sweep_point", "done_ns", "done_calls", 1e-9), "s"),
        "trace.spans": (sum(v["calls"] for v in summary.values()) / n, "count"),
        "trace.overhead_pct": (overhead, "%"),
    }
    return layers


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path[:0] = [str(SRC), str(HERE)]
    import speed  # imports numpy before any timing starts
    with speed.SpeedClock() as clock:
        return measure(args, clock)


def measure(args, clock) -> int:
    """Set up and run one workload timed by ``clock``; returns the exit status."""
    mark = clock.start()
    try:
        load_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_wall, import_s = clock.stop(mark)
    import workloads
    from tracing import Tracer, missing_targets

    targets = workloads.trace_targets()
    missing = missing_targets(targets) if args.trace else []
    if missing:
        print(f"error: trace targets not defined: {', '.join(missing)}",
              file=sys.stderr)
        return 3

    workdir = HERE / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](
            args.seed, workloads.SIZES[args.size], workdir)
        setups = []
        for _ in range(SETUP_REPEATS):
            mark = clock.start()
            wl.setup()
            setups.append(clock.stop(mark))
        setup_s = import_s + statistics.median(s for _, s in setups)

        tracer = Tracer() if args.trace else None
        rounds, failures, evidence = [], [], []
        # A traced run alternates untraced and traced rounds, at least one each.
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            rnd = workloads.Round(clock, tracer if traced else None)
            if traced:
                with tracer.installed(targets):
                    out = wl.run_round(rnd)
            else:
                out = wl.run_round(rnd)
            rounds.append(rnd)
            failures += wl.check(out)
            evidence.append(out.get("evidence", {}))
            # Rounds run until their reference time reaches --seconds, so the
            # number of rounds does not follow the host's speed; twice that
            # in wall time ends the run on a very slow host.
            ref = sum(r.seconds for r in rounds)
            wall = sum(r.wall for r in rounds)
            if ((ref >= args.seconds or wall >= 2 * args.seconds)
                    and (tracer is None or len(rounds) >= 2)):
                break

        if tracer is None:
            metrics = end_to_end(rounds, setup_s)
        else:
            metrics = per_layer(tracer.summary(), rounds)
            trace_dir = HERE / "traces"
            trace_dir.mkdir(exist_ok=True)
            tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.tsv.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for r in rounds for op in r.ops]
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": len(rounds),
                      "kernel_median_s": statistics.median(clock.durations),
                      "import_wall_s": import_wall, "import_ref_s": import_s,
                      "setup_wall_s": [w for w, _ in setups],
                      "setup_ref_s": [s for _, s in setups],
                      "round_wall_s": [r.wall for r in rounds],
                      "round_ref_s": [r.seconds for r in rounds],
                      "op_ref_s": [[op.kind, op.seconds] for op in ops],
                      "evidence": evidence}), file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
