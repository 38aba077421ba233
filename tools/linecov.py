"""Line coverage of ``src/pmvr`` under pytest, with the standard library alone.

Run from the repository root::

    PYTHONPATH=src:. python -m pytest -q -p tools.linecov

At the end of the session it prints each module's executable lines that no
test ran. Only the pytest process is traced: what a test runs in a
subprocess or a process pool's worker is not seen. The trace makes the
suite several times slower, so it is not part of the tests.
"""

import os
import sys
import threading
import types

ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "pmvr")
_ran = {}  # path -> line numbers run


def _trace(frame, event, arg):
    path = frame.f_code.co_filename
    if not path.startswith(ROOT):
        return None
    lines = _ran.setdefault(path, set())
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        lines.add(frame.f_lineno)
        return local
    return local


def _executable(path):
    """The line numbers of every code object compiled from ``path``."""
    with open(path, encoding="utf-8") as fh:
        todo, lines = [compile(fh.read(), path, "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def pytest_configure(config):
    threading.settrace(_trace)
    sys.settrace(_trace)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    write = terminalreporter.write_line
    write("lines of src/pmvr no test ran:")
    for name in sorted(os.listdir(ROOT)):
        path = os.path.join(ROOT, name)
        if name.endswith(".py"):
            missed = sorted(_executable(path) - _ran.get(path, set()))
            write(f"  {name}: {', '.join(map(str, missed)) or 'none'}")
