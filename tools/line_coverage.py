"""Lines of the package that no test runs.

Runs pytest in this process under a `sys.settrace` line tracer, which
`threading.settrace` also sets for the engine's row threads, and prints every
executable line of `src/snls/*.py` that no test reached, one
`file:line: source` a line, then a count. The tracer is set before `snls` is
first imported, so module-level lines count too. Subprocesses that tests
start find the package through PYTHONPATH but are not traced. Arguments go
to pytest; the default is the tier-1 suite, `tests`:

    python3 tools/line_coverage.py [pytest arguments]

It uses the standard library only and exits with pytest's exit code. Only
frames of the package are traced line by line: `tests` took 121 s under
the tracer on a 2-core VM, against about 97 s without it.
"""

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "snls"


def executable_lines(path: Path) -> set:
    """The line numbers that the compiled code of `path` carries."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv) -> int:
    sources = {os.path.realpath(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran = {path: set() for path in sources}
    seen = {}       # co_filename -> its set in ran, or None outside the package

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            seen[name] = ran.get(os.path.realpath(name))
        if seen[name] is None:
            return None
        seen[name].add(frame.f_lineno)
        return local

    # the package for this process and for the subprocesses that tests start
    src = str(PACKAGE.parent)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        import pytest
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for real, path in sources.items():
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran[real]):
            print(f"{path.name}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines of src/snls not run")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
