"""One emit path: components log ULM events through ``Observability``.

Only ``repro.obs`` itself may call ``NetLogger.event`` directly; every
other module emits with ``obs.event(...)``, so an off bundle silences
all of it and a wired bundle sees all of it.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
OBS = SRC / "obs"


def _direct_logger_events(tree: ast.AST):
    """Line numbers of ``<x>.logger.event(...)`` / ``logger.event(...)``."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "event"):
            continue
        target = node.func.value
        if (isinstance(target, ast.Attribute) and target.attr == "logger") \
                or (isinstance(target, ast.Name) and target.id == "logger"):
            yield node.lineno


def test_no_direct_logger_event_outside_obs():
    offenders = []
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50
    for path in modules:
        if OBS in path.parents:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.relative_to(SRC)}:{line}"
                      for line in _direct_logger_events(tree)]
    assert offenders == []

