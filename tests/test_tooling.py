"""The runtime stays stdlib-only, and the benchmark tracer still finds
what it wraps.

Every import in ``src/semsim`` is relative or names a standard-library
module, and ``pyproject.toml`` declares no runtime dependency; numpy,
scipy and hypothesis are for the tests alone.
"""

import ast
import importlib
import json
import re
import sys

from semsim import taxonomy
from semsim.taxonomy import TYPECODES, Columns, RawGraph, freeze

from conftest import REPO


def test_package_imports_only_the_standard_library():
    sources = sorted((REPO / "src" / "semsim").glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign


def test_package_deserializes_no_code():
    # the --cache snapshot is read from a user-supplied path, so no module
    # may use a deserializer that can run code or build arbitrary objects
    sources = sorted((REPO / "src" / "semsim").glob("*.py"))
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in ("pickle", "marshal", "shelve", "_pickle")]
    assert not found


def test_pyproject_declares_no_dependencies():
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


# Names perfbench/tracing.py still wraps that the package deliberately
# removed; the tracer skips a missing name, so each entry must be a removal,
# never a rename whose metric would silently read 0.
TRACED_BUT_REMOVED = {("ic", "ic_value")}  # the lazy table replaced it


def test_every_traced_name_exists():
    path = REPO / "perfbench" / "tracing.py"
    targets = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_patch"):
            module, name = (arg.value for arg in node.args[:2])
            targets.add((module, name))
    assert len(targets) > 5
    missing = {(m, n) for m, n in targets
               if not hasattr(importlib.import_module("semsim." + m), n)}
    assert missing <= TRACED_BUT_REMOVED


def test_one_function_scores_sense_pairs():
    # the measures' formulas are reached through the one scorer only, so a
    # second sense-pair path cannot come back unnoticed
    uses = []
    for path in sorted((REPO / "src" / "semsim").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        # ast.walk goes from the outside in, so the innermost function wins
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            if "_formula" in names:
                uses.append(f"{path.name}:{owner.get(id(node), '<module>')}")
    assert uses == ["similarity.py:_scorer"]


def test_snapshot_format_pins_the_column_layout(tmp_path):
    # a snapshot stores the columns in this order with these typecodes,
    # under a header with these keys, and is served whenever its format tag
    # matches; so a layout change must come with a new SNAPSHOT_FORMAT, and
    # with it a new pin here
    path = tmp_path / "snapshot"
    taxonomy._write_snapshot(str(path), freeze(RawGraph(parents={"r": [], "a": ["r"]})),
                             "fingerprint")
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert (taxonomy.SNAPSHOT_FORMAT, Columns._fields, TYPECODES, set(header)) == (
        b"semsim-taxonomy-5",
        ("parent_start", "parent_rows", "lemma_start", "sense_start", "sense_rows",
         "depth", "depth_longest", "hypo_count", "leaf_count", "subsumer_count", "nmih",
         "inv_depth_sum", "leaf_commonness"),
        ("l",) * 11 + ("d", "d"),
        {"format", "fingerprint", "byteorder", "itemsize", "crc32", "sections"})


def test_only_taxonomy_knows_the_column_layout():
    # the layout and its snapshot codec are one decision, kept in one module
    layout = {"Columns", "TYPECODES", "STAT_FIELDS", "SNAPSHOT_FORMAT"}
    found = []
    for path in sorted((REPO / "src" / "semsim").glob("*.py")):
        if path.name == "taxonomy.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name in layout]
            elif isinstance(node, ast.Attribute) and node.attr in layout:
                found.append(f"{path.name}:{node.lineno} {node.attr}")
    assert not found


def test_package_keeps_no_module_level_cache():
    # memos of pure functions live on the object whose function they memo
    # (the taxonomy, a table), never in a module, where they would outlive
    # it and be shared by every caller in the process
    found = []
    for path in sorted((REPO / "src" / "semsim").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.append(f"{path.name}:{node.lineno} global")
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name in ("cache", "lru_cache")]
            elif (isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
                  and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                found.append(f"{path.name}:{node.lineno} functools.{node.attr}")
        for node in tree.body:
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            if value is None:
                continue
            empty = (isinstance(value, ast.Dict) and not value.keys
                     or isinstance(value, ast.List) and not value.elts
                     or isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                     and value.func.id in ("dict", "set", "list")
                     and not value.args and not value.keywords)
            if empty:
                found.append(f"{path.name}:{node.lineno} empty module-level container")
    assert not found


def test_package_leaves_the_collector_alone():
    # the cyclic collector is process-wide state: a library that switched it
    # off, froze the heap or retuned its thresholds would do so for its
    # caller and every other thread too
    switches = {"disable", "freeze", "set_threshold"}
    found = []
    for path in sorted((REPO / "src" / "semsim").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        gc_names = {alias.asname or "gc" for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names
                    if alias.name == "gc"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name in switches | {"*"}]
            elif (isinstance(node, ast.Attribute) and node.attr in switches
                  and isinstance(node.value, ast.Name) and node.value.id in gc_names):
                found.append(f"{path.name}:{node.lineno} gc.{node.attr}")
    assert not found
