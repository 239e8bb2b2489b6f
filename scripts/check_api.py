#!/usr/bin/env python
"""Public-API health check: the import surface must work as documented.

Two guarantees, cheap enough to run on every change:

1. ``import repro`` works in a clean interpreter, ``repro.__all__`` is
   present, sorted, and every name in it actually resolves — the
   consolidated top-level surface is real, not aspirational — and with
   nothing installed the run context is the default ``RunContext()``.
2. Every script under ``examples/`` imports only things that exist, and
   so does every ``repro`` import of the scripts under ``scripts/``.
   The examples run their scenario at import time (they have no
   ``__main__`` guard), so executing them here would turn an API check
   into a simulation run; instead each file is *parsed* and its import
   statements are resolved one by one.  A renamed or dropped public
   symbol therefore breaks this check, not a user's first copy-paste.

Usage::

    python scripts/check_api.py

Exits 0 on success, 1 on the first failure.
"""

from __future__ import annotations

import ast
import glob
import importlib
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC)


def fail(message: str) -> "NoReturn":  # noqa: F821 - py3.8-friendly
    print(f"API CHECK FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check_top_level_surface() -> None:
    """``import repro`` in a clean interpreter; every ``__all__`` name real."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro; assert repro.current_run_context() == repro.RunContext()",
        ],
        env=env, capture_output=True, text=True,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        fail("`import repro` or the default run context failed in a clean "
             "interpreter")

    import repro

    if list(repro.__all__) != sorted(set(repro.__all__)):
        fail("repro.__all__ is not sorted and duplicate-free")
    missing = [name for name in repro.__all__ if not hasattr(repro, name)]
    if missing:
        fail(f"repro.__all__ advertises unresolvable names: {missing}")
    print(f"api: top-level surface ok — {len(repro.__all__)} names, "
          f"version {repro.__version__}")


def _imports_of(path: str):
    """Yield (module, names) for every absolute import statement in *path*."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, []
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module, [alias.name for alias in node.names]


def check_examples() -> None:
    """Every import in every example, and every ``repro`` import in every
    script, must resolve against the live API."""
    examples = sorted(glob.glob(os.path.join(REPO_ROOT, "examples", "*.py")))
    if not examples:
        fail("no examples found under examples/")
    scripts = sorted(glob.glob(os.path.join(REPO_ROOT, "scripts", "*.py")))
    for path in examples + scripts:
        label = os.path.relpath(path, REPO_ROOT)
        for module, names in _imports_of(path):
            if path in scripts and module.split(".")[0] != "repro":
                continue
            try:
                imported = importlib.import_module(module)
            except ImportError as error:
                fail(f"{label}: cannot import {module!r}: {error}")
            for name in names:
                if name == "*" or hasattr(imported, name):
                    continue
                try:
                    importlib.import_module(f"{module}.{name}")
                except ImportError:
                    fail(f"{label}: {module!r} has no attribute {name!r}")
        print(f"api: {label} imports ok")


def main() -> int:
    check_top_level_surface()
    check_examples()
    print("API CHECK PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
