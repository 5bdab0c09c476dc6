"""Print, for each module of ``src/imspe``, the executable lines that no test runs.

Run it from the root of a checkout:

    python3 tools/untested_lines.py [pytest arguments]

It runs ``pytest`` in this process (on ``tests`` when given no arguments)
under a ``sys.settrace`` hook that records each line of ``src/imspe`` as it
runs, then prints one line per executable line that never ran, as
``path:line: source``, grouped by module, and a count per module at the
end. A line is executable when the compiled module gives it an instruction
(docstrings and blank lines have none). Only code that runs in this process
is seen: code run only in a subprocess, such as ``python -m imspe`` and the
benchmark runs of ``bench/``, shows as untested here. The exit code is
pytest's.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path.cwd()
PACKAGE = ROOT / "src" / "imspe"


def executable_lines(path):
    """Line numbers that the compiled module at ``path`` gives an instruction, nested code included."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        # line 0 holds a module's entry instruction, no source line
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def traced_run(args):
    """Run pytest on ``args`` and return its exit code and the set of (path, line) it ran in ``src/imspe``."""
    prefix = str(PACKAGE)
    ran = set()

    def local(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    # the tests' subprocesses import the package through PYTHONPATH
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(argv=None):
    args = list(sys.argv[1:] if argv is None else argv) or ["-q", "-p", "no:cacheprovider", "tests"]
    code, ran = traced_run(args)
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(line for line in executable_lines(path) if (str(path), line) not in ran)
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        counts.append(f"{path.relative_to(ROOT)}: {len(missed)} untested")
    print("\n".join(counts))
    return code


if __name__ == "__main__":
    sys.exit(main())
