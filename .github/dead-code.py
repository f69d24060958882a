"""Fail on code in src/ipcamo that nothing outside the tests names.

Lists every top-level function, class or assigned name and every non-dunder
method defined in src/ipcamo/*.py (found with `ast`) that no code in src/
(except the root __init__.py, which only re-exports), bench/, demos/ or
.github/ refers to, apart from references inside its own definition or
inside other listed code that KEEP does not name. In a .py file a reference is a name, an attribute or an imported name in the
parsed code, so comments, docstrings and strings keep nothing alive; in a
.sh or .yml file it is the name as a whole word. Names in KEEP are listed
with their reason and pass; any other listed name makes the exit status 1.
Prints `none` when there is nothing to list:

    python3 .github/dead-code.py

The scan matches bare names, so it has two blind spots, and code in them
has to be found by reading. It skips dunder methods: an operator such as
`Tensor.__matmul__` is called by syntax, never by name. And a reference
counts whatever it is an attribute of, so the `tanh` in `np.tanh` keeps a
package function named `tanh` alive.
"""
import ast
import collections
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORD = re.compile(r"\w+")
# qualified name (module.name) -> why it stays although only tests call it
KEEP = {
    "aig.write_aiger": "the AIGER writer that pairs parse_aiger, a root export",
}


def definitions(tree: ast.Module):
    """(name, first line, last line) of each top-level def and class, each
    non-dunder name a top-level assignment binds, and each non-dunder method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                if not name.id.startswith("__"):
                    yield name.id, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno


def references(tree: ast.Module):
    """(name, line) of each name, attribute and imported name in the code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                for part in alias.name.split("."):
                    yield part, node.lineno


def main() -> int:
    package = ROOT / "src" / "ipcamo"
    scanned = [p for d in ("src", "bench", "demos", ".github")
               for p in sorted((ROOT / d).rglob("*"))
               if p.is_file() and p.suffix in (".py", ".sh", ".yml")
               and p != package / "__init__.py"]
    counts = collections.Counter()
    lines = collections.defaultdict(list)  # (.py file, name) -> lines referring to it
    for path in scanned:
        if path.suffix == ".py":
            for name, line in references(ast.parse(path.read_text())):
                counts[name] += 1
                lines[path, name].append(line)
        else:
            counts.update(WORD.findall(path.read_text()))
    defs = [(path, qualname, first, last)
            for path in sorted(package.glob("*.py")) if path.name != "__init__.py"
            for qualname, first, last in definitions(ast.parse(path.read_text()))]
    dead = []
    while True:  # references from inside listed code not in KEEP keep nothing alive
        found = []
        for path, qualname, first, last in defs:
            spans = [(first, last)] + [(a, b) for p, q, a, b in dead
                                       if p == path and f"{p.stem}.{q}" not in KEEP]
            name = qualname.rpartition(".")[2]
            inside = sum(any(a <= line <= b for a, b in spans)
                         for line in lines[path, name])
            if counts[name] == inside:
                found.append((path, qualname, first, last))
        if found == dead:
            break
        dead = found
    failed = False
    for path, qualname, first, _ in dead:
        reason = KEEP.get(f"{path.stem}.{qualname}")
        failed |= reason is None
        print(f"{path.relative_to(ROOT)}:{first} {qualname}"
              + (f" (kept: {reason})" if reason else ""))
    if not dead:
        print("none")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
