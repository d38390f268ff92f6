import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "semspace"
# ROADMAP aim 2: the package does not grow past 1,558 lines, its count when this ceiling was last lowered
SRC_LINE_CEILING = 1558


def test_src_stays_within_its_line_budget():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))  # as `wc -l` counts
    assert lines <= SRC_LINE_CEILING, (
        f"src/semspace/*.py has {lines} lines, above its ceiling of {SRC_LINE_CEILING:,} lines"
    )


# The stage shims that only perfbench/'s traced replicas call; ROADMAP item 5 deletes them, and this test with them
SHIMS = frozenset({"build_matrix", "factorize", "CooccurrenceMatrix", "index_of"})


def _shim_references(tree: ast.AST) -> list[tuple[int, str]]:
    """The line and name of each name, attribute, import or string in `tree` that names a shim."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in SHIMS:
            found.append((node.lineno, name))
    return found


def _shim_definitions(tree: ast.Module) -> list[range]:
    """The lines of each shim's own definition: a top-level function or class, or a class attribute."""
    spans = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            spans += [range(statement.lineno, statement.end_lineno + 1) for statement in node.body
                      if isinstance(statement, ast.Assign) and any(getattr(target, "id", None) in SHIMS
                                                                   for target in statement.targets)]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in SHIMS:
            spans.append(range(node.lineno, node.end_lineno + 1))
    return spans


def test_only_the_shims_own_definitions_name_the_shims():
    # no command and no test reaches the shims: they count, factor and look up as `build_spaces` and `dict.get` do
    paths = [*SRC.glob("*.py"), *(path for path in TESTS.glob("*.py") if path != Path(__file__).resolve())]
    outside = []
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        spans = _shim_definitions(tree) if path == SRC / "lsa.py" else []
        outside += [f"{path.name}:{line}: {name}" for line, name in sorted(_shim_references(tree))
                    if not any(line in span for span in spans)]
    assert not outside, "a shim is named outside its own definition:\n" + "\n".join(outside)
