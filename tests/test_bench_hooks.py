"""The benchmark's traced runs (perfbench/run.py --trace 1) wrap program
functions by name where the calling module looks them up (PATCHES in
perfbench/workflow.py). A function removed or renamed in the program breaks
those runs; this test shows it at unit-test speed. The benchmark's files are
loaded as they are, not edited."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_benchmark_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workflow.py imports its siblings by bare name
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_workflow", PERFBENCH / "workflow.py")
    workflow = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(workflow)
    finally:  # drop the benchmark's own modules, which have generic names
        for name in set(sys.modules) - before:
            if str(getattr(sys.modules[name], "__file__", "") or "").startswith(str(PERFBENCH)):
                del sys.modules[name]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in workflow.PATCHES if not callable(getattr(owner, attr, None))]
    assert not missing, f"perfbench/workflow.py wraps names the program no longer has: {missing}"
