"""Every module-level function and class of `ldp` is used by `ldp`.

A public name that nothing in `src/ldp` refers to serves no claim the
package checks; it is either dead or a library-only API that only tests
call.  A private one is a helper that only tests call, or dead code.  References are counted on the syntax tree (a name, an attribute or
an imported alias), so a mention in a docstring or a comment does not count,
and neither does a reference from inside the definition itself.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ldp"

# The names that no code in the package refers to, each with its reason, all
# of them public; cli.cmd_* are left out, since `main` dispatches each
# subcommand to cmd_<name> by name, not by reference, and so is a module's
# `__getattr__`, which the import system calls (PEP 562).
EXEMPT = [
    # the dense exact solver, the independent oracle of the tree kernel's tests
    "linalg.solve",
    # the dense integer determinant, the oracle of the determinant tests; the
    # benchmark's tracer and perfbench's own tests name it as well
    "linalg.int_det",
]


def _references(tree):
    """(line, name) of every name, attribute and imported alias in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name


def unreferenced_names(private):
    """The private (else the public) module-level functions and classes
    that nothing in the package refers to."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    refs = {module: list(_references(tree)) for module, tree in trees.items()}
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") != private:
                continue
            if module == "cli" and node.name.startswith("cmd_"):
                continue
            if node.name == "__getattr__":  # a module's, called by the import system
                continue
            own = range(node.lineno, node.end_lineno + 1)
            used = any(
                name == node.name and (other != module or line not in own)
                for other, found in refs.items()
                for line, name in found
            )
            if not used:
                out.append(f"{module}.{node.name}")
    return out


def test_every_public_function_and_class_but_the_exempt_is_used_by_the_package():
    # equality, not inclusion: an exempt name that the package has come to
    # use, or that is gone, leaves the list
    assert sorted(unreferenced_names(private=False)) == sorted(EXEMPT)


def test_every_private_function_and_class_is_used_by_the_package():
    assert unreferenced_names(private=True) == []
