import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


@pytest.fixture(autouse=True, scope="session")
def _stop_launcher():
    """The cli workload starts a launcher process on first use; stop it."""
    yield
    import workloads

    workloads.close_launcher()
