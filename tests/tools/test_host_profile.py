"""scripts/host_profile.py: a tick that fires inside a C-level operation
is charged to the function that ran it, not to the next one called."""

import ctypes
import importlib.util
import signal
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "host_profile.py"


def load_script():
    spec = importlib.util.spec_from_file_location("host_profile", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Clock:
    """``Environment.now``'s shape: a property that does no work."""

    def __init__(self):
        self._now = 0.0

    @property
    def now(self):
        return self._now


class Tick:
    """Comparing it raises SIGALRM *inside* ``COMPARE_OP``, at C level
    — exactly where the interval timer lands while the op proxy compares
    two payloads.  A foreign function is not a descriptor, so ``tick !=
    SIGALRM`` is libc's ``raise(SIGALRM)``; unlike ``signal.raise_signal``
    and ``os.kill`` it does not run the Python handler before returning."""

    __ne__ = ctypes.CDLL(None)["raise"]


def compare_then_property(clock, tick, n):
    """The op proxy's loop: a compare (no eval-breaker check inside or
    after it), then a trivial Python call that collects the signal."""
    for _ in range(n):
        if tick != signal.SIGALRM:
            raise AssertionError
        clock.now


def test_c_level_time_is_charged_to_the_caller():
    hp = load_script()
    sampler = hp.Sampler()
    before = signal.signal(signal.SIGALRM, sampler._on_sample)
    try:
        compare_then_property(Clock(), Tick(), 100)
    finally:
        signal.signal(signal.SIGALRM, before)
    assert sampler.samples == 100
    names = {code.co_name: n for (code, _), n in sampler.self_hits.items()}
    assert names == {"compare_then_property": 100}
    # The frame that had run nothing is off the cumulative view too.
    assert "now" not in {code.co_name for code, _ in sampler.cum_hits}


def test_a_frame_past_its_first_instruction_keeps_its_sample():
    hp = load_script()
    sampler = hp.Sampler()

    def busy():
        signal.raise_signal(signal.SIGALRM)  # delivered after this call
        return None

    before = signal.signal(signal.SIGALRM, sampler._on_sample)
    try:
        busy()
    finally:
        signal.signal(signal.SIGALRM, before)
    assert [code.co_name for code, _ in sampler.self_hits] == ["busy"]


def test_exact_mode_times_every_call_and_diffs_only_its_own_kind():
    hp = load_script()
    profile = hp.ExactProfile()

    def copies():
        blob = bytes(4 << 20)
        for _ in range(20):
            blob[1:]  # a C-level copy inside one bytecode: no call event

    with profile:
        copies()
    rows = {hp._where(key): us for key, us in profile.self_hits.items()}
    (mine,) = [us for name, us in rows.items() if ".copies  (" in name]
    assert mine >= 0.9 * profile.samples  # the copy is charged to its caller
    assert profile.cum_hits.most_common(1)[0][1] >= mine
    header = {"workload": "w", "seed": 0, "scale": "tiny", "setup": False,
              "ops": 1, "exact": True}
    exact = hp.to_json(profile, header)
    assert "us (exact)" in "\n".join(hp.diff(exact, exact, 5))
    sampled = {**exact, "exact": False}
    try:
        hp.diff(exact, sampled, 5)
    except SystemExit as exc:
        assert "exact" in str(exc)
    else:
        raise AssertionError("--diff mixed an exact and a sampled profile")


def test_census_names_each_delivery_by_kind():
    from repro.sim import Environment, Semaphore

    hp = load_script()
    env = Environment()
    sem = Semaphore(env, 1)
    wake = env.event()

    def child():
        yield env.timeout(1)

    def parent():
        slot = sem.acquire()  # free: an immediate grant
        yield slot
        yield env.all_of([env.timeout(2), env.timeout(3)])
        sem.release(slot)
        wake.succeed()
        yield wake
        yield env.process(child())

    with hp.Census() as census:
        env.process(parent())
        env.run()
    assert census.counts == {
        "timeout": 3, "semaphore grant": 1, "process start": 2,
        "process end": 2, "condition": 1, "other": 1,
    }
    assert env.engine_stats().sim_events == 10
    lines = census.report(ops=5)
    assert lines[-1].split() == ["total", "10", "2.000", "100.0%"]
    env.process(child())
    env.run()  # outside the region: not counted
    assert sum(census.counts.values()) == 10
