"""Line map of the unit suite: which tests run each line of ``poolsim``.

A pytest plugin. Load it with ``-p`` from the repository root::

    PYTHONPATH=src python -m pytest -p tools.linemap tests --ignore=tests/test_acceptance.py

Each test runs under a ``sys.settrace`` function that records the lines of
the ``poolsim`` package it executes, its fixtures' set-up and tear-down
included. The global trace function returns ``None`` for frames of code
outside the package, so other code runs untraced; code run in other
threads or in worker processes is not seen. The suite then writes ``linemap.json`` (or the path
given by ``--linemap``):

- ``tests``: the node ids of the traced tests, in run order;
- ``lines``: for each statement inside a function, ``"<module>.py:<line>"``
  maps to the indices into ``tests`` of the tests that run it, or to ``[]``;
- ``import``: per module, the lines of its module and class bodies. They run
  at import, before any test is traced, so they count as run by every test;
- ``unrun``: the statements inside functions that no test runs, with their
  text.

The terminal summary lists the unrun statements. Tracing makes the unit
suite about five to six times slower than a plain run.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import json
import sys
import types
from pathlib import Path

import pytest

PACKAGE = "poolsim"


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption("--linemap", default="linemap.json", metavar="PATH",
                     help="where the line map is written (default: linemap.json)")


def pytest_configure(config: pytest.Config) -> None:
    config.pluginmanager.register(LineMap(Path(config.getoption("linemap"))), "linemap")


def code_lines(code: types.CodeType) -> set[int]:
    """Lines that carry bytecode in ``code`` itself, not in the code it nests."""
    return {line for _, _, line in code.co_lines() if line is not None}


def nested_codes(code: types.CodeType):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield const
            yield from nested_codes(const)


def statement_lines(tree: ast.Module) -> set[int]:
    """First lines of the statements inside function bodies, docstrings aside."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if ast.get_docstring(node, clean=False) is not None:
                body = body[1:]
            for stmt in body:
                lines.update(n.lineno for n in ast.walk(stmt) if isinstance(n, ast.stmt))
    return lines


class Module:
    """The statements of one module, split into function and import-time lines."""

    def __init__(self, path: Path) -> None:
        source = path.read_text()
        self.text = source.splitlines()
        module = compile(source, str(path), "exec")
        # A function's code gets locals of its own; a class body's does not.
        codes = [module, *nested_codes(module)]
        functions = [c for c in codes if c.co_flags & inspect.CO_NEWLOCALS]
        self.functions = statement_lines(ast.parse(source)) & set().union(
            *map(code_lines, functions))
        self.imports = {line for c in codes if not c.co_flags & inspect.CO_NEWLOCALS
                        for line in code_lines(c)}


class LineMap:
    def __init__(self, out: Path) -> None:
        self.out = out
        spec = importlib.util.find_spec(PACKAGE)
        self.root = Path(next(iter(spec.submodule_search_locations))).resolve()
        self.modules = {p.name: Module(p) for p in sorted(self.root.glob("*.py"))}
        self.tests: list[str] = []
        self.hits: dict[tuple[str, int], list[int]] = {}
        self._prefix = str(self.root) + "/"

    def _tracer(self, seen: set[tuple[str, int]]):
        prefix = self._prefix

        def local(frame, event, arg):
            if event == "line":
                seen.add((frame.f_code.co_filename, frame.f_lineno))
            return local

        def call(frame, event, arg):
            if frame.f_code.co_filename.startswith(prefix):
                return local(frame, event, arg)
            return None

        return call

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item: pytest.Item, nextitem):
        seen: set[tuple[str, int]] = set()
        tracer = self._tracer(seen)
        sys.settrace(tracer)
        try:
            yield
        finally:
            sys.settrace(None)
        index = len(self.tests)
        self.tests.append(item.nodeid)
        for filename, line in seen:
            self.hits.setdefault((Path(filename).name, line), []).append(index)

    def unrun(self) -> list[str]:
        return [f"{name}:{line}  {module.text[line - 1].strip()}"
                for name, module in self.modules.items()
                for line in sorted(module.functions) if (name, line) not in self.hits]

    def pytest_sessionfinish(self, session: pytest.Session) -> None:
        report = {
            "tests": self.tests,
            "lines": {f"{name}:{line}": self.hits.get((name, line), [])
                      for name, module in self.modules.items()
                      for line in sorted(module.functions)},
            "import": {name: sorted(module.imports) for name, module in self.modules.items()},
            "unrun": self.unrun(),
        }
        self.out.write_text(json.dumps(report, indent=1) + "\n")

    def pytest_terminal_summary(self, terminalreporter) -> None:
        total = sum(len(m.functions) for m in self.modules.values())
        unrun = self.unrun()
        terminalreporter.write_sep("-", f"line map: {self.out}")
        terminalreporter.write_line(
            f"{total - len(unrun)} of {total} statements inside functions run under "
            f"{len(self.tests)} tests; not run:")
        for entry in unrun:
            terminalreporter.write_line(f"  {entry}")
