"""Report code in src/ipcamo that nothing outside the tests names.

Lists every top-level function or class and every non-dunder method defined
in src/ipcamo/*.py (found with `ast`) whose name appears, as a whole word,
nowhere in src/ (except the root __init__.py, which only re-exports),
bench/, demos/ or .github/, apart from the lines of its own definition.
Prints `none` when there is nothing to list. A word match counts comments,
strings and unrelated names that happen to be spelled the same, so the scan
can miss dead code, but what it lists is named nowhere else. It always
exits 0:

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


def main() -> None:
    package = ROOT / "src" / "ipcamo"
    scanned = [p for d in ("src", "bench", "demos", ".github")
               for p in sorted((ROOT / d).rglob("*"))
               if p.is_file() and p.suffix in (".py", ".sh", ".yml")
               and p != package / "__init__.py"]
    words = collections.Counter()
    lines = {}
    for path in scanned:
        lines[path] = path.read_text().splitlines()
        words.update(WORD.findall("\n".join(lines[path])))
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for qualname, first, last in definitions(ast.parse(path.read_text())):
            name = qualname.rpartition(".")[2]
            own = sum(WORD.findall(line).count(name) for line in lines[path][first - 1:last])
            if words[name] == own:
                unused.append(f"{path.relative_to(ROOT)}:{first} {qualname}")
    print("\n".join(unused) or "none")


if __name__ == "__main__":
    main()
