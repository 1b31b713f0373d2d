"""The benchmark under perfbench/ reaches into the package by name: the tracer
wraps ``TARGETS`` and the correctness checks import package functions.  These
tests load both files by path, without changing them, so that a rename or a
deletion that would break the benchmark fails here first.
"""

import importlib
import importlib.util
import os
import re
import sys


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    assert tracer.TARGETS
    for module, attr, _span in tracer.TARGETS:
        owner = importlib.import_module(f"spectacle.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


def test_checks_import_cleanly(monkeypatch):
    checks = _load("checks", monkeypatch)
    assert checks.EXACT_CHECKS
    # attributes looked up on the periods module at call time
    with open(checks.__file__, encoding="utf-8") as fh:
        used = set(re.findall(r"\bperiods\.(\w+)", fh.read()))
    missing = sorted(name for name in used if not hasattr(checks.periods, name))
    assert not missing, missing
