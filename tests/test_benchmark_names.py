"""The fbconv names the benchmark reads must exist.

perfbench/workloads.py calls fbconv through module aliases (rx.build_lp_sw,
pb.CodeSizes, ...).  A name removed from fbconv would otherwise show only as
a failed benchmark run.  perfbench/tracing.py charges the self time of the
converses_sw functions in its SYNTHESIS set to synthesis_self_ms and of every
other traced one to bounds_self_ms, so a renamed constructor would move its
time between the two silently.  These tests read both files as text, change
nothing in them, and fail here instead.
"""

import importlib
import inspect
import re
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"


def test_every_fbconv_name_the_workloads_read_exists():
    text = WORKLOADS.read_text()
    aliases = {alias or module: module for module, alias
               in re.findall(r"^from fbconv import (\w+)(?: as (\w+))?$", text, re.M)}
    assert {"rx", "cp", "csw", "ds", "lp_core", "oracle", "pb"} <= aliases.keys()
    used = set(re.findall(rf"\b({'|'.join(aliases)})\.(\w+)", text))
    missing = [f"{alias}.{name}" for alias, name in sorted(used)
               if not hasattr(importlib.import_module(f"fbconv.{aliases[alias]}"), name)]
    assert len(used) > 30 and missing == []


def test_every_synthesis_name_the_tracer_reads_is_a_public_converses_sw_function():
    text = (PERFBENCH / "tracing.py").read_text()
    found = re.findall(r"^SYNTHESIS = \{([^}]*)\}$", text, re.M)
    assert len(found) == 1
    names = re.findall(r'"(\w+)"', found[0])
    csw = importlib.import_module("fbconv.converses_sw")
    # the tracer wraps exactly these: functions defined in the module, not private
    public = {attr for attr, val in vars(csw).items() if inspect.isfunction(val)
              and val.__module__ == csw.__name__ and not attr.startswith("_")}
    assert len(names) >= 4 and sorted(set(names) - public) == []
