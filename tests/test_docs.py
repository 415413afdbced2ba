"""Docs drift: every module imports, and every ``docs/api.md`` row
names something its section's module exports."""

import importlib
import pathlib
import pkgutil
import re

import repro

API_MD = pathlib.Path(__file__).resolve().parents[1] / "docs" / "api.md"


def test_every_module_imports():
    failures, names = {}, []

    def package_failed(name):
        failures[name] = "package failed to import"

    for module in pkgutil.walk_packages(repro.__path__, "repro.", package_failed):
        names.append(module.name)
        try:
            importlib.import_module(module.name)
        except Exception as exc:  # noqa: BLE001 - reported below
            failures[module.name] = f"{type(exc).__name__}: {exc}"
    assert not failures
    assert "repro.mem.line_codec" in names


def _api_rows():
    """``(module, name)`` for each backticked name in the first column of
    a ``## repro.X`` table.  Call arguments are dropped, so
    ``SelectorModel.from_params(params, …)`` names
    ``SelectorModel.from_params``; ``A / B`` names both."""
    rows, module = [], None
    for line in API_MD.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            heading = line[3:].strip()
            module = heading if heading.startswith("repro") else None
        elif module and line.startswith("| ") and not line.startswith("| Item"):
            first = line.split("|")[1]
            for span in re.findall(r"`([^`]*)`", first):
                bare = re.sub(r"\([^)]*\)", "", span)
                names = re.findall(r"[A-Za-z_][\w.]*", bare)
                rows += [(module, name) for name in names]
    return rows


def test_api_reference_names_resolve():
    rows = _api_rows()
    assert {"repro.config", "repro.circuit", "repro.mem"} <= {m for m, _ in rows}
    missing = []
    for module, name in rows:
        target = importlib.import_module(module)
        for attribute in name.split("."):
            if not hasattr(target, attribute):
                missing.append(f"{module}: {name}")
                break
            target = getattr(target, attribute)
    assert not missing
