"""The reach gate: every function and every ``raise`` in src/ffcn runs.

Run it from anywhere, with the standard library and pytest:

    python tests/reach.py

It copies this checkout to a temporary directory and writes a
``sitecustomize.py`` into the copy's ``src/``.  Python imports that file
at start-up in every process that has the copy's ``src`` on its path, and
it line-traces src/ffcn there with ``sys.settrace``.  The traced runs are:

- the Tier-1 suite, in its own process and in every ``python -m
  ffcn.cli`` child, since the tests set the children's PYTHONPATH to the
  ``src`` they import ffcn from;
- the ``ffc`` commands in ``COMMANDS``, each a fresh process;
- the four demos.

The two ``python -S`` runs of tests/test_cli.py skip ``sitecustomize``;
they only import ffcn, which the other runs do too.

A function counts as run when its code object is called: its ``def``
line runs at import, so a hit on it does not count.  A ``raise`` counts
when its first line runs, so a ``raise`` must not share that line with
another statement (``if x: raise ...``).  Each process writes its hits
at exit, and from a wrapper around ``os._exit``, which ``cli.run`` ends
with and which skips ``atexit``.

The gate exits 1 and lists each function never entered and each
``raise`` never run, unless ``ALLOWLIST`` holds its key with a reason.
It also exits 1 on an entry with no reason, on an entry that exempts
nothing (what it named ran, or is gone), and on a traced run that
fails.  Keys name the module, the qualified name and, for a ``raise``,
its text with whitespace collapsed, never a line number.
"""

from __future__ import annotations

import ast
import glob
import marshal
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# key -> why no run can reach it and why it is kept; the list only shrinks
ALLOWLIST: dict[str, str] = {}

CURVES = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii")
COMMANDS = (
    [["verify"], ["verify", "--format", "json"],
     ["table64"], ["table64", "--format", "json"], ["table64", "--format", "text"],
     ["table64", "--dmax", "2"], ["selftest"]]
    + [args + ["--curve", c] for c in CURVES
       for args in (["zeta"], ["zeta", "--format", "json"], ["places"], ["verify"])])

# written into the copy's src/ as sitecustomize.py; the names in braces
# are filled in by ``main``.  It imports nothing that Python has not
# loaded at start-up, so the traced runs see the modules they would.
SITECUSTOMIZE = '''\
import marshal, os, sys

_OUT = {out!r}
_RAISES = {raises!r}
_wanted = {{}}  # code object -> its raise lines not yet run, or None if not ffcn


def _raise_lines(code):
    lines = _RAISES.get(code.co_filename)
    if lines is None:
        return None
    return set(lines.intersection(line for _, _, line in code.co_lines()))


def _line(frame, event, arg):
    if event == "line":
        _wanted[frame.f_code].discard(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    try:
        pending = _wanted[code]
    except KeyError:
        pending = _wanted[code] = _raise_lines(code)
    if pending:
        return _line


def _dump():
    sys.settrace(None)
    calls, lines = [], []
    for code, pending in list(_wanted.items()):
        if pending is not None:
            calls.append((code.co_filename, code.co_firstlineno))
            lines += [(code.co_filename, line) for line in _raise_lines(code) - pending]
    for n in range(1000):
        try:
            fd = os.open(os.path.join(_OUT, f"{{os.getpid()}}-{{n}}"),
                         os.O_WRONLY | os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            continue
        os.write(fd, marshal.dumps((calls, lines)))
        os.close(fd)
        return


def _exit(code, _real=os._exit):
    _dump()
    _real(code)


os._exit = _exit
__import__("atexit").register(_dump)
sys.settrace(_call)
'''


def inventory(package: str):
    """({(file, first line): (key, def line)} of every function,
    {(file, line): key} of every raise, [problem]) in the package.  A
    function's first line is its first decorator's, as in its code
    object's ``co_firstlineno``."""
    functions, raises, problems = {}, {}, []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path) as fh:
            source = fh.read()
        tree = ast.parse(source, path)
        module = os.path.basename(path)[:-3]
        starts = {}  # line -> statements that start on it
        for node in ast.walk(tree):
            if isinstance(node, ast.stmt):
                starts[node.lineno] = starts.get(node.lineno, 0) + 1

        def walk(node, qual):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{qual}.{child.name}" if qual else child.name
                    if not isinstance(child, ast.ClassDef):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        functions[path, first] = (f"{module}.{name}", child.lineno)
                    walk(child, name)
                    continue
                if isinstance(child, ast.Raise):
                    text = " ".join(ast.get_source_segment(source, child).split())
                    raises[path, child.lineno] = f"{module}.{qual or '<module>'}: {text}"
                    if starts[child.lineno] > 1:
                        problems.append(f"{_where(path, child.lineno)}: a raise shares its "
                                        "line with another statement, so the trace "
                                        "cannot tell whether it ran")
                walk(child, qual)

        walk(tree, "")
    return functions, raises, problems


def _where(path: str, line: int) -> str:
    return f"src/ffcn/{os.path.basename(path)}:{line}"


def traced_runs(copy: str) -> list[str]:
    """Run Tier-1, the commands and the demos in ``copy``, which holds
    the tracing ``sitecustomize.py``; return a line per failed run."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
    failed = []
    print("Tier-1 under the trace:", flush=True)
    if subprocess.run([sys.executable, "-m", "pytest", "-q"], cwd=copy, env=env).returncode:
        failed.append("Tier-1 failed under the trace")
    runs = ([["-m", "ffcn.cli", *args] for args in COMMANDS]
            + [[os.path.relpath(demo, copy)]
               for demo in sorted(glob.glob(os.path.join(copy, "demos", "0*.py")))])
    print(f"{len(COMMANDS)} ffc commands and the demos under the trace", flush=True)
    for args in runs:
        proc = subprocess.run([sys.executable, *args], cwd=copy, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if proc.returncode:
            failed.append(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")
    return failed


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="ffcn-reach-") as tmp:
        copy, out = os.path.join(tmp, "checkout"), os.path.join(tmp, "hits")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench_work", ".benchmarks"))
        os.mkdir(out)
        package = os.path.join(copy, "src", "ffcn")
        functions, raises, problems = inventory(package)
        # every module of the package, with the lines of its raises
        by_file = {path: set() for path, _ in functions}
        for path, line in raises:
            by_file.setdefault(path, set()).add(line)
        with open(os.path.join(copy, "src", "sitecustomize.py"), "w") as fh:
            fh.write(SITECUSTOMIZE.format(out=out, raises={
                path: frozenset(lines) for path, lines in by_file.items()}))
        problems += traced_runs(copy)
        calls, lines = set(), set()
        for name in os.listdir(out):
            with open(os.path.join(out, name), "rb") as fh:
                c, h = marshal.load(fh)
            calls.update(c)
            lines.update(h)
    unreached = {}  # key -> (file, line, what) for each function and raise that never ran
    for (path, first), (key, line) in functions.items():
        if (path, first) not in calls:
            unreached[key] = (path, line, "function never entered")
    for (path, line), key in raises.items():
        if (path, line) not in lines:
            unreached[key] = (path, line, "raise never ran")
    for key, (path, line, what) in sorted(unreached.items(), key=lambda item: item[1]):
        if key not in ALLOWLIST:
            problems.append(f"{_where(path, line)}: {what}: {key}")
    for key, reason in ALLOWLIST.items():
        if not reason.strip():
            problems.append(f"ALLOWLIST entry {key!r} gives no reason")
        if key not in unreached:
            problems.append(f"ALLOWLIST entry {key!r} exempts nothing that is unreached")
    print(f"{len(functions)} functions and {len(raises)} raises in src/ffcn; "
          f"{len(unreached)} unreached, {len(ALLOWLIST)} allowlisted")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
