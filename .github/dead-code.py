"""Report code in src/ipcamo that nothing outside the tests names.

Lists every top-level function or class and every non-dunder method defined
in src/ipcamo/*.py (found with `ast`) that no code in src/ (except the root
__init__.py, which only re-exports), bench/, demos/ or .github/ refers to,
apart from references inside its own definition or inside other listed code.
In a .py file a reference is a name, an attribute or an imported name in the
parsed code, so comments, docstrings and strings keep nothing alive; in a
.sh or .yml file it is the name as a whole word. Prints `none` when there is
nothing to list. It always exits 0:

    python3 .github/dead-code.py
"""
import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORD = re.compile(r"\w+")


def definitions(tree: ast.Module):
    """(name, first line, last line) of each top-level def and class and
    each non-dunder method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.lineno, node.end_lineno
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


def main() -> None:
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
    while True:  # references from inside listed code keep nothing alive
        found = []
        for path, qualname, first, last in defs:
            spans = [(first, last)] + [(a, b) for p, _, a, b in dead if p == path]
            name = qualname.rpartition(".")[2]
            inside = sum(any(a <= line <= b for a, b in spans)
                         for line in lines[path, name])
            if counts[name] == inside:
                found.append((path, qualname, first, last))
        if found == dead:
            break
        dead = found
    print("\n".join(f"{path.relative_to(ROOT)}:{first} {qualname}"
                    for path, qualname, first, _ in dead) or "none")


if __name__ == "__main__":
    main()
