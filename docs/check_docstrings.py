#!/usr/bin/env python
"""Docstring audit of the public API surface (the pdoc-documented modules).

Walks the audited packages/modules recursively and fails (exit 1, listing
every offender) when a public module, class, function, method or property
lacks a docstring.  "Public" means reachable without a leading underscore
at every path step; members merely re-exported from elsewhere are attributed
to their defining module and only checked when that module is itself under
audit (so ``numpy`` objects or stdlib re-exports never trip the gate).

This is the cheap, dependency-free half of the docs gate: it runs in tier-1
CI (``tests/docs/test_docstring_audit.py``) and locally without ``pdoc``
installed.  The CI ``docs`` job layers the real ``pdoc`` build on top
(``docs/build_api_docs.py``), which additionally fails on pdoc's own
warnings (broken references, unresolvable links).

Run from the repository root::

    PYTHONPATH=src python docs/check_docstrings.py
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import sys
from typing import Iterator, List, Tuple

#: The audited public surface — keep in sync with docs/build_api_docs.py
#: and the CI docs job.
AUDITED_MODULES = [
    "repro.core.classifier",
    "repro.core.driver",
    "repro.persist",
    "repro.serving",
    "repro.stream",
    "repro.evaluation",
    "repro.scenarios",
    "repro.baselines",
    "repro.data.synthetic",
]


def _iter_module_names(root: str) -> Iterator[str]:
    """Yield ``root`` and, if it is a package, all public submodules."""
    yield root
    module = importlib.import_module(root)
    if hasattr(module, "__path__"):
        for info in pkgutil.walk_packages(module.__path__, prefix=root + "."):
            if any(part.startswith("_") for part in info.name.split(".")):
                continue
            yield info.name


def _is_audited(qualified_module: str) -> bool:
    return any(
        qualified_module == root or qualified_module.startswith(root + ".")
        for root in AUDITED_MODULES
    )


def _public_members(owner) -> List[Tuple[str, object]]:
    members = []
    for name, value in vars(owner).items():
        if name.startswith("_"):
            continue
        members.append((name, value))
    return members


def _check_callable(path: str, value, problems: List[str]) -> None:
    if not (value.__doc__ or "").strip():
        problems.append(f"{path}: missing docstring")


def _check_class(module_name: str, path: str, cls: type, problems: List[str]) -> None:
    if not (cls.__doc__ or "").strip():
        problems.append(f"{path}: missing class docstring")
    for name, member in _public_members(cls):
        member_path = f"{path}.{name}"
        if inspect.isfunction(member):
            _check_callable(member_path, member, problems)
        elif isinstance(member, property):
            getter = member.fget
            if getter is not None and not (member.__doc__ or getter.__doc__ or "").strip():
                problems.append(f"{member_path}: missing property docstring")
        elif isinstance(member, (staticmethod, classmethod)):
            _check_callable(member_path, member.__func__, problems)


def check_module(module_name: str) -> List[str]:
    """Audit one module; returns a list of human-readable problems."""
    problems: List[str] = []
    module = importlib.import_module(module_name)
    if not (module.__doc__ or "").strip():
        problems.append(f"{module_name}: missing module docstring")
    for name, value in _public_members(module):
        path = f"{module_name}.{name}"
        defined_in = getattr(value, "__module__", None)
        if defined_in is None or defined_in != module_name:
            # Re-exports are audited at their defining module (when that
            # module is in scope at all); data constants carry no __module__.
            continue
        if inspect.isclass(value):
            _check_class(module_name, path, value, problems)
        elif inspect.isfunction(value):
            _check_callable(path, value, problems)
    return problems


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    modules = sorted(set(name for root in AUDITED_MODULES for name in _iter_module_names(root)))
    all_problems: List[str] = []
    for module_name in modules:
        all_problems.extend(check_module(module_name))
    if all_problems:
        print(f"docstring audit FAILED: {len(all_problems)} problem(s)\n", file=sys.stderr)
        for problem in all_problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(f"docstring audit ok: {len(modules)} modules, no missing docstrings")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
