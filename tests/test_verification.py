"""Check lanes of run_verification: the same results as in order, the first
failure in order, and the memory of two checks at once."""

import threading
import time
import tracemalloc

import pytest

from hallmhd import spectral, verification
from hallmhd.config import RunConfig
from hallmhd.verification import CheckResult, run_verification

# run order of the checks, as run_verification lists them
CHECKS = (
    "check_partition_of_unity",
    "check_shell_reconstruction",
    "check_bony_identity",
    "check_commutators_vanish",
    "check_commutator_ratio_sweeps",
    "check_bernstein_sweep",
    "check_cancellations",
)
MIB = 2**20


def _config(n, dims, size=2):
    return RunConfig({**RunConfig().values, "grid.n": n, "grid.dims": dims, "sweep.size": size})


@pytest.fixture
def thread_starts(monkeypatch):
    """The names of the threads started since the fixture was set up."""
    started, start = [], threading.Thread.start

    def counted(self):
        started.append(self.name)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


@pytest.mark.parametrize("n, dims", [(3, 16), (3, 32), (2, 64)])
def test_checks_in_two_lanes_equal_checks_in_order(n, dims, monkeypatch, thread_starts):
    cfg = _config(n, dims)
    monkeypatch.setattr(spectral, "_LANES", 1)
    expected = run_verification(cfg)
    # one lane: the checks in order, and no thread
    assert thread_starts == []
    assert [r.name for r in expected][:4] == [
        "partition_of_unity", "shell_reconstruction", "bony_exact_sum", "commutators_vanish_on_constants",
    ]
    monkeypatch.setattr(spectral, "_LANES", 2)
    assert run_verification(cfg) == expected
    # two lanes: one thread, and no field lane below 64^3
    assert len(thread_starts) == 1


class _CheckFault(Exception):
    pass


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize(
    "bad, first",
    [
        ((2, 4), 2),
        ((4, 6), 4),
        # the caller's lane runs 6 before 3
        ((3, 6), 3),
        ((0, 6), 0),
        ((1, 4), 1),
        ((6,), 6),
    ],
    ids=["caller-first", "thread-first", "caller-twice", "first-and-caller", "first-and-thread", "last"],
)
def test_check_lanes_reraise_the_first_failure_in_order(monkeypatch, thread_starts, lanes, bad, first):
    monkeypatch.setattr(spectral, "_LANES", lanes)
    finished = []

    def fake(i):
        def check(*args):
            # the thread's lane is the slower one, so the caller's finishes first
            if i in verification._THREAD_LANE:
                time.sleep(0.05)
            finished.append(i)
            if i in bad:
                raise _CheckFault(i)
            result = CheckResult(CHECKS[i], True, "")
            return [result] if i in (4, 6) else result

        return check

    for i, name in enumerate(CHECKS):
        monkeypatch.setattr(verification, name, fake(i))
    threads = threading.active_count()
    with pytest.raises(_CheckFault) as info:
        run_verification(_config(3, 16))
    assert info.value.args == (first,)
    # both lanes joined before the raise, and every check before the first
    # failure ran
    assert threading.active_count() == threads
    assert set(range(first + 1)) <= set(finished)
    assert len(thread_starts) == (1 if lanes == 2 else 0)
    if lanes == 1:
        assert finished == list(range(first + 1))


@pytest.mark.parametrize("slow", ["caller", "thread"])
def test_shared_check_runs_once_in_the_lane_done_first(monkeypatch, slow):
    # the Bernstein sweep waits for whichever lane finishes its own checks
    # first, and runs there, once
    monkeypatch.setattr(spectral, "_LANES", 2)
    lanes = {"caller": verification._CALLER_LANE, "thread": verification._THREAD_LANE}
    ran = []

    def fake(i):
        def check(*args):
            if i in lanes[slow]:
                time.sleep(0.2)
            ran.append((i, threading.current_thread() is threading.main_thread()))
            result = CheckResult(CHECKS[i], True, "")
            return [result] if i in (4, 6) else result

        return check

    for i, name in enumerate(CHECKS):
        monkeypatch.setattr(verification, name, fake(i))
    assert [r.name for r in run_verification(_config(3, 16))] == list(CHECKS)
    assert sorted(i for i, _ in ran) == list(range(len(CHECKS)))
    in_caller = {i for i, main in ran if main}
    assert set(verification._EITHER_LANE) <= (in_caller if slow == "thread" else set(range(len(CHECKS))) - in_caller)


def test_no_check_lanes_where_batches_take_field_lanes(monkeypatch, thread_starts):
    monkeypatch.setattr(spectral, "_LANES", 2)
    assert spectral._field_lanes(3, 65536) == 2
    assert spectral._field_lanes(3, 32) == spectral._field_lanes(2, 65536) == 1
    # the first check of a 3D 65536 grid fails to allocate, in order and
    # with no thread
    with pytest.raises(MemoryError):
        run_verification(_config(3, 65536))
    assert thread_starts == []


def test_two_check_lanes_hold_about_one_sequential_run(monkeypatch):
    # each check's traced peak above what it found on entry, alone and in
    # order on a grid whose caches a first run has filled
    cfg = _config(3, 32)
    grid = cfg.grid()
    monkeypatch.setattr(cfg, "grid", lambda: grid)
    monkeypatch.setattr(spectral, "_LANES", 1)
    expected = run_verification(cfg)
    peaks = {}

    def traced(name, check):
        def run(*args):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = check(*args)
            peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / MIB
            return out

        return run

    for name in CHECKS:
        monkeypatch.setattr(verification, name, traced(name, getattr(verification, name)))
    tracemalloc.start()
    try:
        assert run_verification(cfg) == expected
    finally:
        tracemalloc.stop()
    first, caller, thread = verification._FIRST, verification._CALLER_LANE, verification._THREAD_LANE
    either = verification._EITHER_LANE
    assert sorted(first + caller + thread + either) == list(range(len(CHECKS)))
    caller_peak = max(peaks[CHECKS[i]] for i in caller + either)
    thread_peak = max(peaks[CHECKS[i]] for i in thread + either)
    # the whole sequential run peaked at 22.8 MiB before the checks let go
    # of their stale references; two lanes at once may take 10 % more
    assert caller_peak + thread_peak <= 25.0, peaks
    # the lane thread's malloc arena keeps its largest size resident until
    # the process ends, so the thread takes the checks that need least
    assert thread_peak <= 6.0, peaks
