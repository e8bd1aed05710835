"""No module imports a name it never uses, and no package module keeps a
private name it never uses.

An AST scan of the package, the tests and the demos: every name an import
binds must be referenced somewhere in the same file. Package `__init__.py`
files are skipped, since their imports are re-exports, and so are
`__future__` imports. In the package, every private name (`_x`) that a
module defines at its top level must be referenced in that module, so a
deletion leaves no helper without a caller, and every public constant
(an UPPER_CASE name) that a package module assigns at its top level must
be read by some package module. Each format decision in the
package has one owner: `EVAL_CHUNK` is assigned in one module, the
`"format_version"` key of JSON artifacts is written and read only in
`datagen`, and only `s2geom/cellid.py` imports the Hilbert curve. The
trunk settings both models share are declared as class fields only in
`nn`, where `TrunkConfig` holds them. The seat rule (a listing is shown
when it is active and seats the party) has one owner: only `datagen`,
which builds the listing store, and `index`, which applies the rule,
read a `.capacities` or `.active` attribute. The trunk's parameter
layout has one owner, `nn.trunk_layout`: the names `"out_w"`, `"out_b"`
and `"w1"` are spelled only in `nn`, which lays the parameters out, and
in `model` and `baseline`, which compute with them. The checkpoint file
format has one owner: the payload dtype `"<f4"` and the `"tensor "`
prefix of a header line are spelled only in `checkpoint`. Every (module,
attribute) the
benchmark's tracer wraps (`TARGETS` in `bench/tracing.py`, read as
source) names something the package has, since `Tracer.install` fails
on a missing one.
"""

import ast
import glob
import importlib
import os
import re

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(
    path
    for tree in ("src", "tests", "demos")
    for path in glob.glob(os.path.join(REPO, tree, "**", "*.py"), recursive=True)
    if os.path.basename(path) != "__init__.py"
)
TRACING = os.path.join(REPO, "bench", "tracing.py")
# Fields of nn.TrunkConfig that no other class in the package declares.
TRUNK_FIELDS = ("embed_dim", "learning_rate", "patience", "batch_size", "dtype")
# The listing-store columns the seat rule reads.
SEAT_COLUMNS = ("capacities", "active")
# Parameter names of the trunk layout that only the modules computing
# with the parameters spell out.
LAYOUT_NAMES = ("out_w", "out_b", "w1")
# The checkpoint payload dtype and the prefix of a header tensor line.
CHECKPOINT_DTYPE, TENSOR_PREFIX = "<f4", "tensor "
# The name of a public module-level constant.
CONSTANT_NAME = re.compile(r"[A-Z][A-Z0-9_]*\Z")


def unused_imports(source: str) -> list:
    """(line, name) of every name bound by an import and never referenced."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def unused_private_names(source: str) -> list:
    """(line, name) of every private name a module defines at its top level
    (a function, a class or an assignment) and never references."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in defined
            if name.startswith("_") and not name.startswith("__") and name not in used]


def unread_constants(sources: dict) -> list:
    """(path, line, name) of every public constant, an UPPER_CASE name that
    a module of sources ({path: source}) assigns at its top level, that no
    module of sources reads, as a name or as an attribute."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [(path, node.lineno, t.id) for t in targets
                          if isinstance(t, ast.Name) and CONSTANT_NAME.match(t.id) and t.id not in read]
    return found


def format_marks(source: str) -> list:
    """(line, mark) of every format decision a module makes: "EVAL_CHUNK"
    for an assignment to that name, "format_version" for a string of that
    text, "hilbert" for an import of the hilbert module, the field's name
    for a class field named in TRUNK_FIELDS, "seats" for a read of an
    attribute named in SEAT_COLUMNS, "layout" for a string named in
    LAYOUT_NAMES, and "checkpoint" for a string (or f-string part) that is
    CHECKPOINT_DTYPE or starts with TENSOR_PREFIX."""
    marks = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            marks += [(node.lineno, "EVAL_CHUNK") for t in targets if getattr(t, "id", None) == "EVAL_CHUNK"]
        elif isinstance(node, ast.Constant) and node.value == "format_version":
            marks.append((node.lineno, "format_version"))
        elif isinstance(node, ast.Constant) and node.value in LAYOUT_NAMES:
            marks.append((node.lineno, "layout"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and (
            node.value == CHECKPOINT_DTYPE or node.value.startswith(TENSOR_PREFIX)
        ):
            marks.append((node.lineno, "checkpoint"))
        elif isinstance(node, ast.Import):
            marks += [(node.lineno, "hilbert") for a in node.names if "hilbert" in a.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            if "hilbert" in (node.module or "").split(".") + [a.name for a in node.names]:
                marks.append((node.lineno, "hilbert"))
        elif isinstance(node, ast.ClassDef):
            marks += [(s.lineno, s.target.id) for s in node.body
                      if isinstance(s, ast.AnnAssign) and getattr(s.target, "id", None) in TRUNK_FIELDS]
        elif isinstance(node, ast.Attribute) and node.attr in SEAT_COLUMNS and isinstance(node.ctx, ast.Load):
            marks.append((node.lineno, "seats"))
    return marks


def test_sources_are_found():
    assert any(p.endswith(os.path.join("s2geom", "region.py")) for p in SOURCES)
    assert any(p.endswith("test_imports.py") for p in SOURCES)
    assert any(p.endswith("06_sweep_and_compare.py") for p in SOURCES)


def test_scan_flags_an_unused_import():
    assert unused_imports("import math\nimport os.path\nfrom a import b as c\nos.sep\n") == [
        (1, "math"),
        (3, "c"),
    ]


def test_no_unused_imports():
    found = []
    for path in SOURCES:
        with open(path, encoding="utf-8") as f:
            found += [f"{os.path.relpath(path, REPO)}:{line} {name}" for line, name in unused_imports(f.read())]
    assert found == []


def test_scan_flags_an_unused_private_name():
    source = "def _a(): pass\ndef _b(): _c\n_c = 1\n_d: int = 2\nclass _E: pass\n__all__ = []\ndef f(): pass\n"
    assert unused_private_names(source) == [(1, "_a"), (2, "_b"), (4, "_d"), (5, "_E")]


def test_no_unused_private_names():
    found = []
    for path in SOURCES:
        if not path.startswith(os.path.join(REPO, "src", "")):
            continue
        with open(path, encoding="utf-8") as f:
            found += [f"{os.path.relpath(path, REPO)}:{line} {name}" for line, name in unused_private_names(f.read())]
    assert found == []


def test_scan_flags_an_unread_constant():
    sources = {
        "a.py": "A = 1\nB: int = 2\n_C = 3\nD = A\nx = 4\ndef f():\n    G = 6\n",
        "b.py": "import a\na.B\nE = F = 5\nprint(F)\n",
    }
    assert unread_constants(sources) == [("a.py", 4, "D"), ("b.py", 3, "E")]


def test_no_unread_constants():
    sources = {}
    for path in SOURCES:
        if path.startswith(os.path.join(REPO, "src", "")):
            with open(path, encoding="utf-8") as f:
                sources[os.path.relpath(path, REPO)] = f.read()
    assert unread_constants(sources) == []


def test_scan_flags_format_marks():
    source = (
        "from . import hilbert, transforms\nfrom .hilbert import xy_to_position\n"
        "import cellsearch.s2geom.hilbert\nfrom .cellid import check_level\n"
        "EVAL_CHUNK = 512\nchunk_size = EVAL_CHUNK\nx: int = 2\ndoc = {'format_version': 1}\n"
    )
    assert format_marks(source) == [
        (1, "hilbert"), (2, "hilbert"), (3, "hilbert"), (5, "EVAL_CHUNK"), (8, "format_version"),
    ]


def test_scan_flags_trunk_fields():
    source = (
        "class A:\n    dtype: str = 'x'\n    n: int = 1\n    batch_size = 4\n"
        "    def f(self):\n        self.patience: int = 2\n        embed_dim: int = 3\n"
        "learning_rate: float = 0.1\nclass B(A):\n    patience: int = 2\n"
    )
    assert format_marks(source) == [(2, "dtype"), (10, "patience")]


def test_scan_flags_seat_reads():
    source = (
        "rows = store.active & (store.capacities >= g)\nactive = capacities = 1\n"
        "replace(store, active=m)\nx = index.listings.capacities.max()\nself.active = False\n"
    )
    assert format_marks(source) == [(1, "seats"), (1, "seats"), (4, "seats")]


def test_scan_flags_layout_names():
    source = (
        "params['out_w'] @ h + params['out_b']\nlayout = ('w1', 'w10', 'b1')\n"
        "if name == 'w1': pass\nout_w = params.out_w\n"
    )
    assert sorted(format_marks(source)) == [(1, "layout"), (1, "layout"), (2, "layout"), (3, "layout")]


def test_scan_flags_checkpoint_format():
    source = (
        "a = np.frombuffer(raw, dtype='<f4')\nline = f'tensor {name} float32 {shape}'\n"
        "b = x.astype('<f8')\nc = 'a tensor '\nd = b'tensor w1'\ne = 'tensor'\n"
    )
    assert sorted(format_marks(source)) == [(1, "checkpoint"), (2, "checkpoint")]


def test_each_format_has_one_owner():
    owners = {
        mark: [] for mark in ("EVAL_CHUNK", "format_version", "hilbert", "seats", "layout", "checkpoint", *TRUNK_FIELDS)
    }
    for path in SOURCES:
        if not path.startswith(os.path.join(REPO, "src", "")):
            continue
        with open(path, encoding="utf-8") as f:
            for _, mark in format_marks(f.read()):
                owners[mark].append(os.path.relpath(path, REPO).replace(os.sep, "/"))
    assert owners["EVAL_CHUNK"] == ["src/cellsearch/nn.py"]
    assert set(owners["format_version"]) == {"src/cellsearch/datagen.py"}
    assert owners["hilbert"] == ["src/cellsearch/s2geom/cellid.py"]
    assert set(owners["seats"]) == {"src/cellsearch/datagen.py", "src/cellsearch/index.py"}
    assert set(owners["layout"]) == {f"src/cellsearch/{m}.py" for m in ("nn", "model", "baseline")}
    assert set(owners["checkpoint"]) == {"src/cellsearch/checkpoint.py"}
    for name in TRUNK_FIELDS:
        assert owners[name] == ["src/cellsearch/nn.py"], name


def traced_names(source: str) -> list:
    """(module, attribute) of every entry of the top-level TARGETS tuple."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [(entry.elts[1].value, entry.elts[2].value) for entry in node.value.elts]
    return []


def test_every_traced_name_resolves():
    with open(TRACING, encoding="utf-8") as f:
        names = traced_names(f.read())
    assert ("cellsearch.evaluation", "gap_statistics") in names
    assert ("cellsearch.model", "ShardModel.predict_probs") in names
    missing = []
    for module, attribute in names:
        obj = importlib.import_module(module)
        for part in attribute.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}.{attribute}")
    assert missing == []
