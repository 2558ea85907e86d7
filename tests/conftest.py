"""Session-scoped Ray fixture (ONE ray.init per pytest session) and a
per-test watchdog."""

import faulthandler
import signal
import sys
import traceback
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

# Per-test wall budget in seconds. In two full `--durations=0` runs on a
# 4-CPU host the slowest test (test_properties' paragraph-dedup
# partition invariance) took 13.7 s and 14.0 s. In a slower window of the
# same host, with the whole suite 2.2x longer, every test took <= 22 s
# except two that have since been made 10x faster. The budget leaves
# >= 3x headroom over the slowest reading.
TEST_BUDGET_S = 70


def _terminal_stderr(config) -> int:
    """The fd stderr had before pytest's output capture redirected fd 2 to
    a temporary file, which is lost when faulthandler ends the process."""
    capman = config.pluginmanager.getplugin("capturemanager")
    err = getattr(getattr(capman, "_global_capturing", None), "err", None)
    return getattr(err, "targetfd_save", None) or sys.__stderr__.fileno()


@pytest.fixture(autouse=True)
def _watchdog(request):
    """Fail a test that runs past ``TEST_BUDGET_S`` with the stack it was
    in. A wedge inside C code may never return to the interpreter, where
    the alarm handler runs; at twice the budget faulthandler dumps every
    thread's stack and ends the process instead."""

    def on_alarm(signum, frame):
        stack = "".join(traceback.format_stack(frame))
        pytest.fail(f"{request.node.nodeid} ran past its {TEST_BUDGET_S} s budget in:\n{stack}",
                    pytrace=False)

    prev = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(TEST_BUDGET_S)
    faulthandler.dump_traceback_later(2 * TEST_BUDGET_S, exit=True,
                                      file=_terminal_stderr(request.config))
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        signal.alarm(0)
        signal.signal(signal.SIGALRM, prev)


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()
