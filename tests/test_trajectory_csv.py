"""The trajectory CSV, its writer's split and its cache.

``trajectory_to_csv`` hands the second half of the rows to a forked child
when the file is large and the process has two CPUs, and keeps the rows in
a cache beside the file, which ``trajectory_from_csv`` loads when the file's
digest matches.  The file must be byte for byte the one-process
``np.savetxt`` file (``reference_trajectory_to_csv``) and the read arrays
bit for bit the written ones, on the split path and on the inline path, from
the cache and from the text alike; a malformed row must be named by its line
in the file, whichever half of the writer's it sits in; any edit of the file,
and a cache that is missing, damaged or a symlink, reads the text; no run may
leave a child process or a file behind but the file and its cache; and the
writer opens no file but its target and its cache's temporary file, since
the child returns its half over a pipe.
"""

import os
import re
import shutil
import tempfile

import numpy as np
import pytest

from reference import reference_trajectory_to_csv
from specpred import cli, sim_engine, synthesis
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
    in ``mode``, the writer split ``splits`` files."""
    if mode is not None:
        assert len(mode[1]) == (splits if mode[0] == "split" else 0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir(directory)) == sorted(names)


def cut_line(path):
    """The file line number at which the writer's second half starts."""
    rows = path.read_bytes().count(b"\n") - 1
    return (rows + 1) // 2 + 2


def edit_line(path, lineno, edit):
    """Replace line ``lineno`` of the file by ``edit`` of it, of equal length,
    so that the file's digest changes and its size does not."""
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
    assert_clean(tmp_path, ["ref.csv", "traj.csv", "traj.csv.cache"], mode,
                 splits=1)


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
    assert_clean(tmp_path, ["traj.csv", "traj.csv.cache"], mode, splits=1)


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
    assert_clean(tmp_path, ["traj.csv", "traj.csv.cache"], mode, splits=1)


@pytest.mark.parametrize("value", [b"nan", b"inf", b"-inf"])
@pytest.mark.parametrize("where", ["first-half", "second-half"])
def test_non_finite_value_is_named_by_its_line_and_column(tmp_path, mode,
                                                          value, where):
    # The c_2 cell (column 3) of the row that a blank line 3, which the
    # parser skips, moves to line k.
    path = tmp_path / "traj.csv"
    trajectory_to_csv(make_trajectory(41), path)
    k = {"first-half": 4, "second-half": 41}[where]
    lines = path.read_bytes().split(b"\n")
    fields = lines[k - 2].split(b", ")
    fields[2] = value
    lines[k - 2] = b", ".join(fields)
    path.write_bytes(b"\n".join(lines[:2] + [b""] + lines[2:]))
    with pytest.raises(ScenarioError) as err:
        trajectory_from_csv(path)
    assert str(err.value) == (f"trajectory file {path}, line {k}, column 3 "
                              f"(c_2) is {float(value)}, not a finite number")
    assert_clean(tmp_path, ["traj.csv", "traj.csv.cache"], mode, splits=1)


def test_second_half_of_another_width_is_named_at_the_cut(tmp_path, mode):
    path = tmp_path / "traj.csv"
    trajectory_to_csv(make_trajectory(41), path)
    k = cut_line(path)
    for lineno in range(k, 43):
        edit_line(path, lineno, ragged)
    with pytest.raises(ScenarioError,
                       match=rf", line {k} has 9 values where line 2 has 10"):
        trajectory_from_csv(path)
    assert_clean(tmp_path, ["traj.csv", "traj.csv.cache"], mode, splits=1)


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
    assert_clean(tmp_path, ["ref.csv", "traj.csv", "traj.csv.cache"])


@pytest.mark.parametrize("gate", ["fork-fails", "small-file", "one-cpu",
                                  "no-fork", "split"])
def test_writer_opens_its_target_and_its_caches_temporary_file(tmp_path,
                                                               monkeypatch,
                                                               gate):
    opened = []

    def recording_open(file, *args, **kwargs):
        # An int is an end of the split's pipe or the temporary file's
        # descriptor, which mkstemp opened.
        if not isinstance(file, int):
            opened.append(str(file))
        return open(file, *args, **kwargs)
    mkstemp = tempfile.mkstemp

    def recording_mkstemp(*args, **kwargs):
        fd, name = mkstemp(*args, **kwargs)
        opened.append(name)
        return fd, name

    monkeypatch.setattr(sim_engine, "open", recording_open, raising=False)
    monkeypatch.setattr(tempfile, "mkstemp", recording_mkstemp)
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
    assert len(opened) == 2 and opened[0] == str(target)
    temporary = os.path.split(opened[1])
    assert temporary[0] == str(tmp_path)
    assert temporary[1].startswith("traj.csv.cache.")
    # mkstemp makes the file private; the cache is as readable as the CSV.
    assert tmp_path.joinpath("traj.csv.cache").stat().st_mode \
        == target.stat().st_mode
    assert target.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert_clean(tmp_path, ["ref.csv", "traj.csv", "traj.csv.cache"])


@pytest.fixture
def parses(monkeypatch):
    """One entry for each call of ``np.loadtxt``: a read that misses the
    cache parses the file's text in one call."""
    calls, loadtxt = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt",
                        lambda *args, **kwargs: calls.append(1)
                        or loadtxt(*args, **kwargs))
    return calls


def assert_bits_equal(a, b):
    for name in FIELDS:
        x, y = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


@pytest.mark.parametrize("rows", [2, 7, CHUNK + 1])
def test_a_cache_hit_and_a_miss_read_the_same_bits(tmp_path, mode, parses,
                                                   rows):
    traj = make_trajectory(rows, seed=rows)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    hit = trajectory_from_csv(path)
    assert parses == []
    assert_bits_equal(hit, traj)
    (tmp_path / "traj.csv.cache").unlink()
    miss = trajectory_from_csv(path)
    assert parses == [1]
    assert_bits_equal(hit, miss)
    assert_clean(tmp_path, ["traj.csv"], mode, splits=1)


def one_digit(path):
    """Line 3's c_1 with its leading digit changed, the file's size kept;
    returns the file to read and the value its text now holds."""
    fields = path.read_bytes().split(b"\n")[2].split(b", ")
    value = re.sub(rb"\d", lambda m: str(int(m[0]) % 9 + 1).encode(),
                   fields[1], count=1)
    edit_line(path, 3, lambda line: line.replace(fields[1], value, 1))
    return path, float(value)


def copied(path):
    """The file copied without its cache."""
    shutil.copyfile(path, path.with_name("copy.csv"))
    return path.with_name("copy.csv"), None


def truncated(size):
    """The cache cut to ``size`` bytes: its digests alone, or short of its
    last value."""
    def spoil(path):
        cache = path.with_name("traj.csv.cache")
        cache.write_bytes(cache.read_bytes()[:size])
        return path, None
    spoil.__name__ = f"truncated-{size}"
    return spoil


def flipped(offset):
    """The cache with one bit of its byte at ``offset`` flipped: in the
    file's digest, the array's digest, the .npy header or the array."""
    def spoil(path):
        cache = path.with_name("traj.csv.cache")
        raw = bytearray(cache.read_bytes())
        raw[offset] ^= 0x10
        cache.write_bytes(bytes(raw))
        return path, None
    spoil.__name__ = f"flipped-{offset}"
    return spoil


def symlinked(path):
    """The cache moved aside and its path a symlink to it."""
    cache = path.with_name("traj.csv.cache")
    cache.rename(path.with_name("aside"))
    cache.symlink_to(path.with_name("aside"))
    return path, None


@pytest.mark.parametrize("spoil", [one_digit, copied, truncated(64),
                                   truncated(-8), flipped(0),
                                   flipped(40), flipped(84), flipped(-1),
                                   symlinked], ids=lambda f: f.__name__)
def test_a_cache_that_does_not_match_the_file_is_a_miss(tmp_path, parses,
                                                        spoil):
    traj = make_trajectory(41)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    read, c = spoil(path)
    back = trajectory_from_csv(read)
    assert parses == [1]
    if c is not None:
        assert back.coeffs[1, 0] != traj.coeffs[1, 0]
        traj.coeffs[1, 0] = c
    assert_bits_equal(back, traj)


def test_the_writer_replaces_a_symlink_at_the_cache_path(tmp_path, parses):
    path, aside = tmp_path / "traj.csv", tmp_path / "aside"
    aside.write_bytes(b"not a cache")
    path.with_name("traj.csv.cache").symlink_to(aside)
    traj = make_trajectory(9)
    trajectory_to_csv(traj, path)
    assert aside.read_bytes() == b"not a cache"
    assert not path.with_name("traj.csv.cache").is_symlink()
    assert_bits_equal(trajectory_from_csv(path), traj)
    assert parses == []


@pytest.mark.parametrize("step", ["mkstemp", "replace"])
def test_a_cache_that_cannot_be_written_leaves_the_file_as_it_is(
        tmp_path, monkeypatch, parses, step):
    def refuse(*args, **kwargs):
        raise OSError("no room")
    monkeypatch.setattr(tempfile if step == "mkstemp" else os, step, refuse)
    traj = make_trajectory(CHUNK + 1)
    reference_trajectory_to_csv(traj, tmp_path / "ref.csv")
    trajectory_to_csv(traj, tmp_path / "traj.csv")
    assert (tmp_path / "traj.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert_clean(tmp_path, ["ref.csv", "traj.csv"])
    assert_bits_equal(trajectory_from_csv(tmp_path / "traj.csv"), traj)
    assert parses == [1]


def test_check_prints_the_same_with_and_without_the_cache(tmp_path, capsys,
                                                          descriptor,
                                                          fitted_cert):
    cert, scen, csv = (tmp_path / name for name in
                       ("cert.json", "scen.json", "traj.csv"))
    synthesis.save_certificate(fitted_cert, cert)
    sim_engine.save_scenario(cli.builtin_scenarios(
        descriptor, fitted_cert, dt=5e-3, T=4.0)[2], scen)
    argv = ["--certificate", str(cert), "--scenario", str(scen),
            "--out", str(csv)]
    assert cli.main(["simulate"] + argv) == 0
    capsys.readouterr()
    runs = []
    for cached in (True, False):
        assert csv.with_name("traj.csv.cache").exists() == cached
        runs.append((cli.main(["check"] + argv), capsys.readouterr()))
        csv.with_name("traj.csv.cache").unlink(missing_ok=True)
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][1].err == ""
