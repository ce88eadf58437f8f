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
