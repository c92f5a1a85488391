"""Rebinding of finprob functions from outside the package.

finprob modules import names directly (``from .linprog import maximize``),
so replacing a function means replacing it under every name that refers to
it: in its own module, in each module that imported it, and in the package
namespace.  The tracer and the seeded faults both go through here.
"""

from __future__ import annotations

import sys


def finprob_namespaces():
    """Every loaded finprob module, the package itself included."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "finprob" or name.startswith("finprob."))
    ]


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every module-level name bound to ``original`` at ``replacement``.

    Returns the undo list for :func:`restore`.  Raises if no name was bound,
    so a renamed function fails loudly instead of going unmeasured.
    """
    undo = []
    for module in finprob_namespaces():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    if not undo:
        raise LookupError(f"{original!r} is bound in no finprob module")
    return undo


def restore(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
