"""The trajectory CSV split across two processes.

``trajectory_to_csv`` and ``trajectory_from_csv`` hand one half of the rows
to a forked child when the file is large and the process has two CPUs.  The
file must be byte for byte the one-process ``np.savetxt`` file
(``reference_trajectory_to_csv``) and the parsed arrays bit for bit the
written ones, on the split path and on the inline path alike; a malformed
row must be named by its line in the file, whichever half it sits in; no
run may leave a child process or a file behind; and the writer opens no
file but its target, since both children return their half over a pipe.
"""

import os
import re

import numpy as np
import pytest

from reference import reference_trajectory_to_csv
from specpred import sim_engine
from specpred.sim_engine import (ScenarioError, Trajectory,
                                 trajectory_from_csv, trajectory_to_csv)

CHUNK = sim_engine._CSV_CHUNK_ROWS
FIELDS = ("t", "coeffs", "u", "v", "Z", "norm_lower", "norm_upper")


def make_trajectory(rows, seed=0):
    """A 3-mode, N0 = 1, m = 1 trajectory on t = 0.25 k whose values span
    the double range, with a signed zero and a subnormal."""
    rng = np.random.default_rng(seed)

    def cols(k):
        return rng.standard_normal((rows, k)) * 10.0 ** rng.integers(-300, 300, (rows, k))

    coeffs = cols(3)
    coeffs[0, :2] = [-0.0, 5e-324]
    return Trajectory(t=0.25 * np.arange(rows), coeffs=coeffs, u=cols(1),
                      v=cols(1), Z=cols(1), norm_lower=np.abs(cols(1)[:, 0]),
                      norm_upper=np.abs(cols(1)[:, 0]))


@pytest.fixture(params=["split", "inline"])
def mode(request, monkeypatch):
    """Every file is split ("split", on two CPUs, counting the forks in
    ``forks``) or every fork fails ("inline")."""
    monkeypatch.setattr(sim_engine, "_SPLIT_MIN_BYTES", 0)
    forks = []
    if request.param == "split":
        fork = os.fork
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    else:
        def no_fork():
            raise OSError("fork refused")
        monkeypatch.setattr(os, "fork", no_fork)
    return request.param, forks


def assert_clean(directory, names, mode=None, splits=0):
    """No child process is left, ``directory`` holds exactly ``names`` and,
    in ``mode``, ``splits`` files were split."""
    if mode is not None:
        assert len(mode[1]) == (splits if mode[0] == "split" else 0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir(directory)) == sorted(names)


def cut_line(path):
    """The file line number at which the reader's second half starts: the
    first line start past the byte midpoint of the data."""
    raw = path.read_bytes()
    lo = raw.index(b"\n") + 1
    cut = raw.index(b"\n", (lo + len(raw)) // 2) + 1
    return raw.count(b"\n", 0, cut) + 1


def edit_line(path, lineno, edit):
    """Replace line ``lineno`` of the file by ``edit`` of it, of equal length,
    so that the halves still meet at the same line."""
    lines = path.read_bytes().split(b"\n")
    new = edit(lines[lineno - 1])
    assert len(new) == len(lines[lineno - 1])
    lines[lineno - 1] = new
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("rows", [2, 3, 7, CHUNK - 1, CHUNK, CHUNK + 1,
                                  2 * CHUNK + 1])
def test_split_file_is_the_savetxt_file_and_reads_back_exactly(tmp_path, mode,
                                                               rows):
    traj = make_trajectory(rows, seed=rows)
    reference_trajectory_to_csv(traj, tmp_path / "ref.csv")
    trajectory_to_csv(traj, tmp_path / "traj.csv")
    assert (tmp_path / "traj.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    back = trajectory_from_csv(tmp_path / "traj.csv")
    for name in FIELDS:
        assert np.array_equal(getattr(back, name), getattr(traj, name)), name
    assert_clean(tmp_path, ["ref.csv", "traj.csv"], mode, splits=2)


def test_non_uniform_step_at_the_cut_is_refused(tmp_path, mode):
    path = tmp_path / "traj.csv"
    trajectory_to_csv(make_trajectory(41), path)
    k = cut_line(path)
    # t = 0.25 j is short, so one digit more or less is far off the grid.
    edit_line(path, k, lambda line: re.sub(
        rb"^(\d*\.?\d*)(\d)", lambda m: m[1] + str((int(m[2]) + 1) % 10).encode(),
        line))
    assert cut_line(path) == k
    with pytest.raises(ScenarioError, match="uniform grid"):
        trajectory_from_csv(path)
    assert_clean(tmp_path, ["traj.csv"], mode, splits=2)


def ragged(line):
    """The line without its last value, padded with blanks."""
    return line[:line.rindex(b",")].ljust(len(line))


def non_numeric(line):
    """The line with its second value replaced by letters."""
    fields = line.split(b", ")
    fields[1] = b"x" * len(fields[1])
    return b", ".join(fields)


@pytest.mark.parametrize("edit", [ragged, non_numeric])
@pytest.mark.parametrize("where", ["first-half", "second-half", "after-cut"])
def test_malformed_row_is_named_by_its_line(tmp_path, mode, edit, where):
    path = tmp_path / "traj.csv"
    trajectory_to_csv(make_trajectory(41), path)
    k = {"first-half": 4, "second-half": 41, "after-cut": cut_line(path)}[where]
    assert (k < cut_line(path)) == (where == "first-half")
    edit_line(path, k, edit)
    with pytest.raises(ScenarioError) as err:
        trajectory_from_csv(path)
    assert re.search(rf"trajectory file {re.escape(str(path))}, line {k}\b",
                     str(err.value))
    assert_clean(tmp_path, ["traj.csv"], mode, splits=2)


def test_second_half_of_another_width_is_named_at_the_cut(tmp_path, mode):
    path = tmp_path / "traj.csv"
    trajectory_to_csv(make_trajectory(41), path)
    k = cut_line(path)
    for lineno in range(k, 43):
        edit_line(path, lineno, ragged)
    with pytest.raises(ScenarioError,
                       match=rf", line {k} has 9 values where line 2 has 10"):
        trajectory_from_csv(path)
    assert_clean(tmp_path, ["traj.csv"], mode, splits=2)


class Unformattable:
    """A value that %-formatting cannot turn into a float."""

    def __float__(self):
        raise ArithmeticError("no float")


def test_failing_child_leaves_no_process_or_file(tmp_path, mode):
    traj = make_trajectory(9)
    traj.norm_upper = traj.norm_upper.astype(object)
    traj.norm_upper[-1] = Unformattable()   # a row of the child's half
    with pytest.raises(ArithmeticError):
        reference_trajectory_to_csv(traj, tmp_path / "ref.csv")
    with pytest.raises(ArithmeticError):
        trajectory_to_csv(traj, tmp_path / "traj.csv")
    assert_clean(tmp_path, ["ref.csv", "traj.csv"], mode, splits=1)


def test_complex_trajectory_is_refused_before_any_file(tmp_path, mode):
    traj = make_trajectory(9)
    traj.coeffs = traj.coeffs + 1j
    with pytest.raises(ScenarioError, match="real data only"):
        trajectory_to_csv(traj, tmp_path / "traj.csv")
    assert_clean(tmp_path, [], mode, splits=0)


@pytest.mark.parametrize("gate", ["small-file", "one-cpu", "no-fork"])
def test_split_gates_keep_the_run_in_one_process(tmp_path, monkeypatch, gate):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    if gate == "one-cpu":
        monkeypatch.setattr(sim_engine, "_SPLIT_MIN_BYTES", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif gate == "no-fork":
        monkeypatch.setattr(sim_engine, "_SPLIT_MIN_BYTES", 0)
        monkeypatch.delattr(os, "fork")
    traj = make_trajectory(CHUNK + 1)
    reference_trajectory_to_csv(traj, tmp_path / "ref.csv")
    trajectory_to_csv(traj, tmp_path / "traj.csv")
    assert (tmp_path / "traj.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert np.array_equal(trajectory_from_csv(tmp_path / "traj.csv").coeffs,
                          traj.coeffs)
    assert not forks
    assert_clean(tmp_path, ["ref.csv", "traj.csv"])


@pytest.mark.parametrize("gate", ["fork-fails", "small-file", "one-cpu",
                                  "no-fork", "split"])
def test_writer_opens_no_file_but_its_target(tmp_path, monkeypatch, gate):
    opened = []

    def recording_open(file, *args, **kwargs):
        if not isinstance(file, int):   # an int is an end of the split's pipe
            opened.append(str(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(sim_engine, "open", recording_open, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    if gate != "small-file":
        monkeypatch.setattr(sim_engine, "_SPLIT_MIN_BYTES", 0)
    if gate == "fork-fails":
        def no_fork():
            raise OSError("fork refused")
        monkeypatch.setattr(os, "fork", no_fork)
    elif gate == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif gate == "no-fork":
        monkeypatch.delattr(os, "fork")
    traj = make_trajectory(CHUNK + 1)
    reference_trajectory_to_csv(traj, tmp_path / "ref.csv")
    target = tmp_path / "traj.csv"
    trajectory_to_csv(traj, target)
    assert opened == [str(target)]
    assert target.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert_clean(tmp_path, ["ref.csv", "traj.csv"])
