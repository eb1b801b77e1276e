"""The package's modules import one way: only at module level, and with
no cycle among their relative imports.  Only ``pgc.corpus`` parses JSON,
and its ``CorpusError`` is the one error for bad input.  Only
``model.init_params`` and ``train.checkpoint_load`` build a ``ParamStore``,
and only ``model.greedy_decode`` decodes against a ``DecoderCache``."""

import ast
import builtins
from pathlib import Path

import pytest

import pgc

PACKAGE = Path(pgc.__file__).parent


def function_imports(tree: ast.Module) -> list[int]:
    """Line numbers of the imports inside a function body."""
    return [node.lineno
            for func in ast.walk(tree) if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]


def relative_imports(tree: ast.Module, modules: set[str]) -> set[str]:
    """The sibling modules named by ``from .x import ...`` and ``from . import x``."""
    named = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            named |= {node.module} if node.module else {a.name for a in node.names}
    return named & modules


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a path that ends where it starts, or None."""
    state: dict[str, str] = {}

    def visit(name, path):
        state[name] = "open"
        for dep in sorted(graph[name]):
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep, path + [dep])
                if cycle:
                    return cycle
        state[name] = "done"
        return None

    for name in sorted(graph):
        if name not in state:
            cycle = visit(name, [name])
            if cycle:
                return cycle
    return None


def json_parse_lines(tree: ast.Module) -> list[int]:
    """Line numbers of the calls of ``json.loads`` and ``json.load``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("load", "loads") and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"]


def store_builds(tree: ast.Module) -> list[str]:
    """Where ``ParamStore(...)`` or ``T.ParamStore(...)`` is called: the
    name of each call's top-level function or class, or ``"<module>"``."""
    return [getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Call) and "ParamStore" in (getattr(node.func, "id", None),
                                                               getattr(node.func, "attr", None))]


def cached_forward_calls(tree: ast.Module) -> list[str]:
    """Where ``forward_distributions`` is called with a decoder cache (a
    fifth argument or ``cache=``): the name of each call's top-level
    function or class, or ``"<module>"``."""
    return [getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Call)
            and "forward_distributions" in (getattr(node.func, "id", None),
                                            getattr(node.func, "attr", None))
            and (len(node.args) > 4 or any(k.arg == "cache" for k in node.keywords))]


def exception_classes(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """The ``(module, class)`` pairs of the classes that derive, directly or
    through another such class, from a built-in exception."""
    classes = {(name, node.name): {b.id for b in node.bases if isinstance(b, ast.Name)}
               for name, tree in trees.items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    found, names = set(), {b for b in dir(builtins) if b.endswith(("Error", "Exception"))}
    while more := {key for key, bases in classes.items() if bases & names} - found:
        found |= more
        names |= {cls for _, cls in more}
    return found


def parse(sources: dict[str, str]) -> dict[str, ast.Module]:
    return {name: ast.parse(text) for name, text in sources.items()}


def import_graph(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    return {name: relative_imports(tree, set(trees)) for name, tree in trees.items()}


@pytest.fixture(scope="module")
def package_trees():
    return parse({path.stem: path.read_text(encoding="utf-8")
                  for path in sorted(PACKAGE.glob("*.py"))})


def test_no_import_inside_a_function(package_trees):
    found = {name: lines for name, tree in package_trees.items()
             if (lines := function_imports(tree))}
    assert found == {}


def test_relative_imports_form_no_cycle(package_trees):
    graph = import_graph(package_trees)
    assert graph["eval"] == {"corpus", "prompt"}
    assert find_cycle(graph) is None


# Every relative-import edge of the package.  A new edge is a deliberate
# edit here.
PINNED_GRAPH = {
    "__init__": set(),
    "corpus": set(),
    "tensor": set(),
    "prompt": {"corpus"},
    "eval": {"corpus", "prompt"},
    "model": {"corpus", "prompt", "tensor"},
    "train": {"corpus", "model", "prompt", "tensor"},
    "cli": {"corpus", "eval", "model", "prompt", "train"},
    "__main__": {"cli"},
}


def test_relative_import_graph_is_pinned(package_trees):
    assert import_graph(package_trees) == PINNED_GRAPH


def test_the_checks_see_what_they_forbid():
    trees = parse({
        "a": "from .b import x\n",
        "b": "from . import c as cm\n",
        "c": "import json\n\ndef f():\n    from . import a\n    return a\n",
        "d": "from .a import y\n",
    })
    assert function_imports(trees["c"]) == [4]
    assert find_cycle(import_graph(trees)) is None   # c's import is not at module level
    trees["c"] = ast.parse("from .a import z\n")
    assert find_cycle(import_graph(trees)) == ["a", "b", "c", "a"]


def test_only_corpus_parses_json(package_trees):
    found = {name: lines for name, tree in package_trees.items()
             if (lines := json_parse_lines(tree))}
    assert set(found) == {"corpus"}


def test_only_init_params_and_checkpoint_load_build_a_store(package_trees):
    """A store is built zeroed, so these two are where its values enter."""
    found = {(name, where) for name, tree in package_trees.items()
             for where in store_builds(tree)}
    assert found == {("model", "init_params"), ("train", "checkpoint_load")}


def test_only_greedy_decode_passes_a_decoder_cache(package_trees):
    """One decoder loop: drafting lives inside it, with no second path."""
    found = {(name, where) for name, tree in package_trees.items()
             for where in cached_forward_calls(tree)}
    assert found == {("model", "greedy_decode")}


def test_the_cached_forward_check_sees_what_it_forbids():
    tree = ast.parse("def f(s):\n    return M.forward_distributions(i, s, p, c, cache)\n\n"
                     "def g(s):\n    return forward_distributions(i, s, p, c, cache=k)\n\n"
                     "def h(s):\n    return forward_distributions(i, s, p, c)\n")
    assert cached_forward_calls(tree) == ["f", "g"]


def test_no_module_imports_base64(package_trees):
    """Checkpoint vectors are raw bytes; nothing encodes them as text."""
    found = {name for name, tree in package_trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Import) and any(a.name == "base64" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "base64"}
    assert found == set()


def test_corpus_error_and_usage_error_are_the_only_exceptions(package_trees):
    assert exception_classes(package_trees) == {("corpus", "CorpusError"), ("cli", "UsageError")}


def test_the_structure_checks_see_what_they_forbid():
    trees = parse({
        "a": "import json\n\nclass AError(ValueError):\n    pass\n\nx = json.loads('1')\n",
        "b": "class BError(AError):\n    pass\n\nclass Plain:\n    pass\n\n"
             "def f(fh):\n    return json.load(fh)\n",
        "c": "class Parser(argparse.ArgumentParser):\n    pass\n\nx = json.dumps(1)\n",
        "d": "def load(shapes):\n    return T.ParamStore(shapes)\n\nstore = ParamStore({})\n",
    })
    assert [json_parse_lines(trees[name]) for name in "abc"] == [[6], [8], []]
    assert [store_builds(trees[name]) for name in "abcd"] == [[], [], [], ["load", "<module>"]]
    assert exception_classes(trees) == {("a", "AError"), ("b", "BError")}
