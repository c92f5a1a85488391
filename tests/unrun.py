"""List the statements of ``src/finprob/*.py`` that no Tier-1 test runs.

Run from the repository root::

    python tests/unrun.py [PYTEST ARGS]

It traces the whole suite in this one process with :func:`sys.settrace`
(standard library only), then prints ``path:line: statement`` for each
statement that never ran, and their count.  Work done in a forked worker or
in a subprocess (the demos, the determinism criterion) stays in that process,
so statements only it runs are listed too.  A docstring, ``global`` or
``nonlocal`` and a bare annotation inside a function compile to no code, so
they are not statements here.  The file's name does not match ``test_*.py``,
so pytest does not collect it.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finprob"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DOCUMENTED = (ast.Module, ast.ClassDef, *FUNCTIONS)


def statements(path: Path) -> dict[int, str]:
    """Each statement's first line, mapped to that line's text."""
    source = path.read_text()
    lines = source.splitlines()
    found = {}

    def visit(node, in_function):
        docstring = None
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
        for child in ast.iter_child_nodes(node):
            no_code = (
                child is docstring
                or isinstance(child, (ast.Global, ast.Nonlocal))
                or isinstance(child, ast.AnnAssign) and child.value is None and in_function
            )
            if isinstance(child, ast.stmt) and not no_code:
                found[child.lineno] = lines[child.lineno - 1].strip()
            visit(child, in_function or isinstance(child, FUNCTIONS))

    visit(ast.parse(source), False)
    return found


def main(args: list[str]) -> int:
    import pytest

    sources = {str(path): statements(path) for path in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in sources}

    def trace(frame, event, arg):
        hits = ran.get(frame.f_code.co_filename)
        if hits is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return line

        return line

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args or ["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    count = 0
    for name, found in sources.items():
        for lineno, text in sorted(found.items()):
            if lineno not in ran[name]:
                count += 1
                print(f"{Path(name).relative_to(ROOT)}:{lineno}: {text}")
    print(f"{count} statements of src/finprob/*.py never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
