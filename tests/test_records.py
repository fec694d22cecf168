"""Every record in the package is built once: each dataclass is frozen."""

import dataclasses
import importlib
import inspect
import pkgutil

import rankaudit


def _dataclasses():
    """(module name, class) for each dataclass a rankaudit module defines."""
    found = []
    for info in pkgutil.iter_modules(rankaudit.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"rankaudit.{info.name}")
        found += [(module.__name__, cls) for _, cls in inspect.getmembers(module, inspect.isclass)
                  if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)]
    return found


def test_every_dataclass_is_frozen():
    found = _dataclasses()
    assert {"AuditReport", "Scorer", "DecisionSet"} <= {cls.__name__ for _, cls in found}
    thawed = [f"{module}.{cls.__name__}" for module, cls in found
              if not cls.__dataclass_params__.frozen]
    assert thawed == []
