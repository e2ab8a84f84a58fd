#!/usr/bin/env python
"""Build the HTML API reference with pdoc, treating pdoc warnings as errors.

Renders the audited public surface (see ``docs/check_docstrings.py``,
``AUDITED_MODULES``) into ``docs/api`` and fails when pdoc emits *any*
warning — unresolvable references, broken links, modules it could not
import.  The CI ``docs`` job runs this after the dependency-free docstring
audit and uploads the HTML as a build artifact.

Run from the repository root (pdoc must be installed —
``pip install .[docs]``)::

    PYTHONPATH=src python docs/build_api_docs.py --output docs/api
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check_docstrings import AUDITED_MODULES  # noqa: E402

#: pdoc, run after every lazy facade's ``__all__`` has been resolved: the
#: facades import a re-exported name on first use (``repro._lazy``), and pdoc
#: reads a module's members from its ``__dict__``, not through ``getattr``.
_RUN_PDOC = """
import importlib, runpy
for name in ("repro", "repro.core", "repro.stats", "repro.stream", "repro.evaluation"):
    module = importlib.import_module(name)
    for export in module.__all__:
        getattr(module, export)
runpy.run_module("pdoc", run_name="__main__", alter_sys=True)
"""


def build(output: str) -> int:
    """Run pdoc over the audited modules; returns a process exit code."""
    environment = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    environment["PYTHONPATH"] = src + os.pathsep + environment.get("PYTHONPATH", "")
    command = [
        sys.executable,
        "-c",
        _RUN_PDOC,
        "--docformat",
        "restructuredtext",
        "--output-directory",
        output,
        *AUDITED_MODULES,
    ]
    print("$", "pdoc", " ".join(command[3:]))
    completed = subprocess.run(command, env=environment, capture_output=True, text=True)
    if completed.stdout:
        print(completed.stdout, end="")
    warnings = [line for line in completed.stderr.splitlines() if line.strip()]
    if completed.returncode != 0:
        print(completed.stderr, file=sys.stderr, end="")
        print(f"pdoc failed with exit code {completed.returncode}", file=sys.stderr)
        return completed.returncode
    if warnings:
        print("pdoc emitted warnings (treated as errors):", file=sys.stderr)
        for line in warnings:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"API reference written to {output} ({len(AUDITED_MODULES)} module trees, no warnings)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="docs/api", help="HTML output directory")
    args = parser.parse_args(argv)
    return build(args.output)


if __name__ == "__main__":
    raise SystemExit(main())
