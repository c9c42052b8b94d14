"""The fbconv names the benchmark's workloads read must exist.

perfbench/workloads.py calls fbconv through module aliases (rx.build_lp_sw,
pb.CodeSizes, ...).  A name removed from fbconv would otherwise show only as
a failed benchmark run; this test reads that file as text, changes nothing
in it, and fails here instead.
"""

import importlib
import re
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_every_fbconv_name_the_workloads_read_exists():
    text = WORKLOADS.read_text()
    aliases = {alias or module: module for module, alias
               in re.findall(r"^from fbconv import (\w+)(?: as (\w+))?$", text, re.M)}
    assert {"rx", "cp", "csw", "ds", "lp_core", "oracle", "pb"} <= aliases.keys()
    used = set(re.findall(rf"\b({'|'.join(aliases)})\.(\w+)", text))
    missing = [f"{alias}.{name}" for alias, name in sorted(used)
               if not hasattr(importlib.import_module(f"fbconv.{aliases[alias]}"), name)]
    assert len(used) > 30 and missing == []
