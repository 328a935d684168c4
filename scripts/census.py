#!/usr/bin/env python3
"""Census of the ``repro`` package: what one CLI invocation never runs.

Runs one ``repro`` command in this process, serially, with a
``sys.setprofile`` hook recording every Python function that starts a
frame, then lists, from the sources (``ast``):

* each function or method under ``src/repro`` that was never called;
* each ``repro`` module that was imported but none of whose functions
  ran (candidates for importing at first use);
* each ``repro`` module that was never imported.

Usage::

    python scripts/census.py run all
    python scripts/census.py run fig1 --quick
    python scripts/census.py simulate --policy lpSTA --tasks 4

Everything after the script name is the ``repro`` command line.  Worker
processes are not traced, so ``--workers`` other than 1 is refused.
Functions the compiled core calls back into are counted, because each
call starts a Python frame.  Code generated at run time (dataclass
``__init__``/``__eq__``, ``namedtuple`` methods) has no source line and
is not listed.  Profiling slows the run several times over: a full
``run all`` took 26 s with the compiled core on a 2-vCPU x86-64 host.
Standard library only.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def defined_functions(path: Path) -> list[tuple[int, str]]:
    """``(first line, qualified name)`` of every ``def`` in one file.

    The first line is the one ``co_firstlineno`` reports: the first
    decorator's, when there is one.
    """
    found: list[tuple[int, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                found.append((first, prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), str(path)), "")
    return found


def run_traced(argv: list[str]) -> tuple[set[tuple[str, int]], int]:
    """Run ``repro`` *argv*; the ``(file, first line)`` of every call."""
    called: set[tuple[str, int]] = set()
    prefix = str(PACKAGE)

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                called.add((code.co_filename, code.co_firstlineno))

    sys.path.insert(0, str(SRC))
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        from repro.cli import main
        status = main(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return called, status or 0


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    for flag, value in zip(argv, argv[1:] + [""]):
        workers = (value if flag == "--workers"
                   else flag.partition("=")[2]
                   if flag.startswith("--workers=") else None)
        if workers is not None and workers != "1":
            print("census.py: worker processes are not traced; "
                  "run with --workers 1", file=sys.stderr)
            return 2
    called, status = run_traced(argv)
    files = sorted(PACKAGE.rglob("*.py"))
    imported = set(sys.modules)
    never_called: list[str] = []
    idle_imports: list[str] = []
    never_imported: list[str] = []
    total = 0
    for path in files:
        functions = defined_functions(path)
        total += len(functions)
        unused = [(line, name) for line, name in functions
                  if (str(path), line) not in called]
        rel = path.relative_to(SRC)
        never_called += [f"  {rel}:{line} {name}" for line, name in unused]
        if module_name(path) not in imported:
            never_imported.append(f"  {module_name(path)}")
        elif functions and len(unused) == len(functions):
            idle_imports.append(f"  {module_name(path)}")
    print(f"\n== census of `repro {' '.join(argv)}` "
          f"(exit status {status}) ==")
    print(f"functions never called: {len(never_called)} of {total}")
    print("\n".join(never_called))
    print(f"modules imported, no function called: {len(idle_imports)}")
    print("\n".join(idle_imports))
    print(f"modules never imported: {len(never_imported)} of {len(files)}")
    print("\n".join(never_imported))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
