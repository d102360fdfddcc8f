"""Tests of the benchmark itself: every correctness check rejects a
deliberately corrupted output, and a small-size run of every workload
finishes in seconds with every metric named in BENCHMARK.json."""

import copy
import io
import json
import math
import signal
import sys
import time
import types
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run as bench  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from specpred import cli, synthesis  # noqa: E402
from tracing import Tracer  # noqa: E402

SMALL = workloads.SIZES["small"]


@pytest.fixture(scope="module")
def exact_cert():
    _, cert = cli.design_pipeline(cli.default_descriptor())
    return json.loads(json.dumps(synthesis.certificate_to_dict(cert)))


@pytest.fixture(scope="module")
def horizon(tmp_path_factory):
    """One small long-horizon round: (workload, round output, parsed CSV)."""
    wl = workloads.LongHorizon(5, SMALL, tmp_path_factory.mktemp("horizon"))
    wl.setup()
    with speed.SpeedClock() as clock:
        out = wl.run_round(workloads.Round(clock))
    assert wl.check(out) == []
    return wl, out, checks.read_csv(wl.csv_path)


def test_certificate_checks_pass_and_reject_corruption(exact_cert):
    targets = [cli.DEFAULT_DESIGN["target_pole"]] * exact_cert["N0"]
    assert checks.certificate_failures(exact_cert, targets) == []
    wrong_pole = copy.deepcopy(exact_cert)
    wrong_pole["K"] = (np.asarray(wrong_pole["K"]) * 1.001).tolist()
    assert any("poles" in f for f in checks.certificate_failures(wrong_pole, targets))
    assert checks.certificate_failures(exact_cert, [-2.001] * exact_cert["N0"])
    shifted = dict(exact_cert, delta_star=exact_cert["delta_star"] * 1.001)
    assert any("small-gain" in f for f in checks.certificate_failures(shifted, targets))
    beyond = dict(exact_cert, delta_max=exact_cert["delta_star"] * 1.01)
    assert any("delta_max" in f for f in checks.certificate_failures(beyond, targets))
    thin = dict(exact_cert, M_lambda=0.9)
    assert any("e^(A_cl t)" in f for f in checks.certificate_failures(thin, targets))


def test_certify_exit_check_rejects_unfitted_or_empty_certificate(exact_cert):
    fitted = dict(exact_cert, u_constants={"Cbar4": 1.0},
                  x_constants={"Cbar1": 1.0})
    assert checks.certify_exit_failures(fitted) == []
    assert checks.certify_exit_failures(exact_cert)
    assert checks.certify_exit_failures(dict(fitted, delta_max=0.0))
    assert checks.certify_exit_failures(dict(fitted, sigma=-0.1))


def test_kappa_check_rejects_slow_or_missing_decay():
    rows = [{"index": 0, "value": 0.0, "certified": True, "kappa_hat": 2.0},
            {"index": 1, "value": 9.0, "certified": False, "kappa_hat": 0.0}]
    assert checks.kappa_failures(rows, 0.066) == []
    assert checks.kappa_failures([dict(rows[0], kappa_hat=0.05)], 0.066)
    assert checks.kappa_failures([dict(rows[0], kappa_hat=math.nan)], 0.066)


def test_roundtrip_check_rejects_one_changed_bit(horizon):
    wl, _, traj = horizon
    assert checks.roundtrip_failures(wl.memory, traj, "csv") == []
    bad = dict(traj, u=traj["u"].copy())
    bad["u"][7, 0] = np.nextafter(bad["u"][7, 0], np.inf)
    assert checks.roundtrip_failures(wl.memory, bad, "csv")


def test_engine_gap_rejects_perturbed_trajectory(horizon):
    _, out, traj = horizon
    gap = checks.engine_gap(traj["coeffs"], out["oracle"].coeffs, traj["norm_upper"])
    assert gap <= 1e-4
    perturbed = out["oracle"].coeffs.copy()
    perturbed[-1, 0] += 2e-4 * np.max(traj["norm_upper"])
    assert checks.engine_gap(traj["coeffs"], perturbed, traj["norm_upper"]) > 1e-4


def test_control_law_and_artstein_checks_reject_shifted_z(horizon):
    wl, _, traj = horizon
    assert checks.control_law_failures(traj, wl.cert_dict, wl.scen_dict) == []
    assert checks.transformed_state_failures(traj, wl.cert_dict) == []
    shifted = dict(traj, Z=np.roll(traj["Z"], 1, axis=0))
    assert checks.control_law_failures(shifted, wl.cert_dict, wl.scen_dict)
    assert checks.transformed_state_failures(shifted, wl.cert_dict)
    nudged = dict(traj, u=traj["u"] * (1 + 1e-7))
    assert checks.control_law_failures(nudged, wl.cert_dict, wl.scen_dict)


def test_envelope_check_rejects_wrong_worst_ratio(horizon):
    wl, out, traj = horizon
    reported = json.loads(out["check_text"].strip().splitlines()[-1])["checks"]
    assert checks.envelope_report_failures(reported, traj, wl.cert_dict,
                                           wl.scen_dict) == []
    wrong = copy.deepcopy(reported)
    wrong["control"]["worst_ratio"] *= 1 + 1e-6
    assert checks.envelope_report_failures(wrong, traj, wl.cert_dict,
                                           wl.scen_dict)


def test_lemma2_checks_reject_corruption():
    report = {"members": [{}] * 3, "finite": True, "M": 1.2, "N": 2.0}
    assert checks.lemma2_report_failures(report, 3) == []
    assert checks.lemma2_report_failures(report, 4)
    assert checks.lemma2_report_failures(dict(report, N=math.inf), 3)
    ts = np.linspace(0.0, 4.0, 801)
    ref = checks.forced_decay(ts, -1.0, 1.5, 0.7, 1.3, 0.4)
    assert checks.closed_form_failures(ref.copy(), ref) == []
    assert checks.closed_form_failures(ref + 1e-6, ref)
    assert checks.growth_failures(ts, np.exp(2.0 * ts), 2.0) == []
    assert checks.growth_failures(ts, np.exp(-ts), 2.0)


def test_closed_form_solves_the_forced_scalar_ode():
    a, x0, amp, w, ph = -1.0, 1.5, 0.7, 1.3, 0.4
    t = np.linspace(0.0, 3.0, 31)
    h = 1e-6
    dx = (checks.forced_decay(t + h, a, x0, amp, w, ph)
          - checks.forced_decay(t - h, a, x0, amp, w, ph)) / (2 * h)
    rhs = a * checks.forced_decay(t, a, x0, amp, w, ph) + amp * np.sin(w * t + ph)
    assert np.max(np.abs(dx - rhs)) < 1e-8
    assert checks.forced_decay(0.0, a, x0, amp, w, ph) == pytest.approx(x0)


def _bench_result(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert bench.main(argv) == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["ensemble", "long-horizon", "lemma2"])
@pytest.mark.parametrize("trace", [0, 1])
def test_small_run_reports_every_metric(workload, trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    result = _bench_result(["--workload", workload, "--seed", "3",
                            "--seconds", "0.1", "--trace", str(trace),
                            "--size", "small"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    # Only the ensemble sweep points past the history pre-buffer fail.
    assert (result["failed"] > 0) == (workload == "ensemble")
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


class _Base:
    def step(self, x):
        return 2 * x


class _Derived(_Base):
    pass


def test_tracer_wraps_inherited_methods_and_restores_them():
    tracer = Tracer()
    with tracer.installed([(_Derived, "step", "derived.step", None)]):
        assert _Derived().step(3) == 6
        assert "step" in vars(_Derived)
    assert "step" not in vars(_Derived)
    assert tracer.summary()["derived.step"]["calls"] == 1.0


def test_missing_trace_target_ends_the_run_without_a_result(monkeypatch):
    gone = types.SimpleNamespace(__name__="gone")
    with pytest.raises(LookupError, match="gone.interp"):
        with Tracer().installed([(gone, "interp", "x", None)]):
            pass
    targets = workloads.trace_targets()
    monkeypatch.setattr(workloads, "trace_targets",
                        lambda: targets + [(gone, "interp", "x", None)])
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = bench.main(["--workload", "lemma2", "--seed", "3", "--seconds",
                         "0.1", "--trace", "1", "--size", "small"])
    assert rc != 0 and buf.getvalue() == ""


def test_speed_clock_scales_net_wall_time_by_kernel_speed():
    clock = speed.SpeedClock()
    nominal = speed.KERNEL_NOMINAL_S
    # A host twice as slow as nominal halves the reference time.
    clock.durations = [2 * nominal] * speed.MIN_SAMPLES
    wall, ref = clock.stop((time.perf_counter() - 1.0, len(clock.durations)))
    assert wall == pytest.approx(1.0, abs=0.05)
    assert ref == pytest.approx(wall / 2)
    # Kernel runs inside the operation are taken out of its time and set
    # the scale.
    mark = (time.perf_counter() - 1.0, len(clock.durations))
    clock.durations += [nominal / 2] * 20
    wall, ref = clock.stop(mark)
    assert wall == pytest.approx(1.0 - 10 * nominal, abs=0.05)
    assert ref == pytest.approx(2 * wall)


def test_speed_clock_ticks_only_while_entered():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedClock() as clock:
        n = len(clock.durations)
        deadline = time.perf_counter() + 5 * speed.TICK_S
        while time.perf_counter() < deadline:
            pass
        assert len(clock.durations) > n
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
