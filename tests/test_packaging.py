"""The console scripts pyproject.toml declares must resolve.

An installed script whose module or function is missing dies with
ModuleNotFoundError or AttributeError on its first run, which no other test
would show.  pyproject.toml declares no script today; a CLI module has to
come with its entry.
"""

import functools
import importlib
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_declared_script_is_an_importable_callable():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attrs = target.partition(":")
        obj = functools.reduce(getattr, attrs.split("."), importlib.import_module(module))
        assert callable(obj), name
