"""Source hygiene: every name a module imports is referenced in that module,
every public function or class of the library is read by the library, every
record field of a library class is read by the library, every optional
parameter of a public library function is passed by a library call, every
parameter of a library function is read in its body, and every public method
of a library class is read by library code outside its own definition.

The package's ``__init__.py`` is left out of these, since its imports are the
public surface it re-exports.
"""

import ast
from fnmatch import fnmatch
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(p for p in (ROOT / "src" / "fklab").glob("*.py") if p.name != "__init__.py")
MODULES = (
    LIBRARY + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))
)
# public names that no library module reads yet, each with the reason it stays
UNREAD_ALLOWED = {
    "read_csv": "the reader of the CLI's own CSV format, for its users",
}
# record fields that no library module reads, each with the reason it stays
UNREAD_FIELDS_ALLOWED = {
    "MinimizeResult.sweeps": "read only by the benchmark's tracer, fkbench/tracer.py (item 1)",
    "MinimizeResult.polish_used": "read only by the benchmark's tracer, fkbench/tracer.py (item 1)",
    "ManeTable.n_max": "read only by the benchmark's tracer, fkbench/tracer.py (item 1)",
    "ChainDP.relaxed": "waits for the tracer's kernels.chain_dp_cells counter (item 1)",
    "LPSolution.u": "the dual potential, which waits for the LP lower bound (item 2)",
}
# optional parameters that no library call passes, each with the reason it stays
UNPASSED_ALLOWED = {
    ("main", "argv"): "the console entry point; fkbench/child.py and the tests pass a command line",
}
# parameters that a function's body does not read, by function-name pattern,
# each with the reason it stays
UNREAD_PARAMETERS_ALLOWED = {
    ("cmd_*", "seed"): "(cfg, seed) is the command table's shared signature; not every command draws",
}


def unused_imports(source: str):
    """The names bound by an import in ``source`` that no other node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_flags_only_unread_names():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.zeros(c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "e")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _reads(node):
    """Every name ``node`` reads, as a Name or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def unread_public_names(sources, roots=()):
    """The public top-level functions and classes of ``sources`` (name -> text)
    that no live code reads.

    Module-level code, private definitions and the ``roots`` are live, and so
    is every public definition that live code reads; reads inside an unread
    definition do not count, so a helper read only by dead code is dead too.
    """
    public, read = {}, set()
    for source in sources.values():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public[node.name] = _reads(node)
            else:
                read |= _reads(node)
    live = set()
    pending = [name for name in public if name in read or name in roots]
    while pending:
        name = pending.pop()
        if name not in live:
            live.add(name)
            read |= public[name]
            pending += [n for n in public if n in read and n not in live]
    return sorted(set(public) - live)


def test_unread_scanner_follows_live_code():
    sources = {
        "a": "def f(): pass\ndef g(): h()\ndef h(): pass\nclass C: pass\n"
        "def dead(): C()\ndef _p(): k()\ndef k(): pass\ndef r(): s()\ndef s(): pass\n",
        "b": "from a import f\nimport a\nf()\na.g()\n",
    }
    assert unread_public_names(sources, roots={"r"}) == ["C", "dead"]


def test_every_public_library_name_is_read():
    """Nothing outside UNREAD_ALLOWED is unread, and each name in it still is."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in LIBRARY}
    assert unread_public_names(sources, roots=UNREAD_ALLOWED) == []
    for name in UNREAD_ALLOWED:
        assert name in unread_public_names(sources, roots=UNREAD_ALLOWED.keys() - {name})


def unread_record_fields(sources):
    """``Class.field`` for each ``NamedTuple`` field or ``__slots__`` entry of a
    top-level class of ``sources`` (name -> text) whose name no module of
    ``sources`` reads as an attribute.

    Name-based: a read ``x.f`` of any object counts for every field named f;
    a write ``self.f = ...`` is no read.
    """
    fields, read = [], set()
    for source in sources.values():
        tree = ast.parse(source)
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
            for item in node.body:
                if "NamedTuple" in bases and isinstance(item, ast.AnnAssign):
                    fields.append((node.name, item.target.id))
                elif isinstance(item, ast.Assign) and any(
                    getattr(t, "id", None) == "__slots__" for t in item.targets
                ):
                    fields += [(node.name, elt.value) for elt in item.value.elts]
        read |= {
            n.attr
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        }
    return sorted(f"{cls}.{name}" for cls, name in fields if name not in read)


def test_unread_field_scanner_counts_attribute_reads():
    sources = {
        "a": "from typing import NamedTuple\nclass R(NamedTuple):\n    x: int\n    y: int = 0\n"
        "    z: int\n    def f(self): return self.z\nclass S:\n    __slots__ = ('p', 'q')\n"
        "    def __init__(self): self.p = self.q = 0\nclass T:\n    w: int\n",
        "b": "def g(r, s):\n    return r.x, s.p\n",
    }
    assert unread_record_fields(sources) == ["R.y", "S.q"]


def test_every_record_field_is_read():
    """Nothing outside UNREAD_FIELDS_ALLOWED goes unread, and everything in it still does."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in LIBRARY}
    assert unread_record_fields(sources) == sorted(UNREAD_FIELDS_ALLOWED)


def unpassed_optional_parameters(sources):
    """(function, parameter) for each optional parameter of a public top-level
    function of ``sources`` (name -> text) that no call in ``sources`` passes,
    by position or by keyword: a knob that only outside callers set.

    Calls match by the called name, ``f(..)`` or ``m.f(..)``; a call with
    ``*args`` or ``**kwargs`` passes every parameter.
    """
    optional, passed = {}, set()
    trees = [ast.parse(source) for source in sources.values()]
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                optional[node.name] = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
                optional[node.name] += [
                    (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                ]
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            keywords = {k.arg for k in call.keywords}
            spread = None in keywords or any(isinstance(a, ast.Starred) for a in call.args)
            for i, param in optional.get(name, ()):
                if spread or param in keywords or (i is not None and i < len(call.args)):
                    passed.add((name, param))
    return sorted((f, p) for f, params in optional.items() for _, p in params if (f, p) not in passed)


def test_unpassed_scanner_reads_positions_and_keywords():
    sources = {
        "a": "def f(x, y=1, *, z=2): pass\ndef g(u=0, v=0): pass\ndef h(s=0): pass\n"
        "def _p(w=0): pass\n",
        "b": "import a\na.f(1, 2)\ng(v=3)\nh(*[])\n",
    }
    assert unpassed_optional_parameters(sources) == [("f", "z"), ("g", "u")]


def test_every_optional_parameter_is_passed():
    """Nothing outside UNPASSED_ALLOWED goes unpassed, and everything in it still does."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in LIBRARY}
    assert unpassed_optional_parameters(sources) == sorted(UNPASSED_ALLOWED)


def unread_parameters(sources):
    """(function, parameter) for each parameter of a function or method of
    ``sources`` (name -> text), nested ones included, that its body never
    reads as a name.
    """
    unread = []
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unread += [(node.name, a.arg) for a in params if a.arg not in read]
    return sorted(unread)


def test_unread_parameter_scanner_reads_bodies_only():
    sources = {
        "a": "def f(x, y=0, *args, z, **kw):\n    return x + z\n"
        "class C:\n    def m(self, u, v=lambda: 0):\n        def inner(w):\n            return u\n"
        "        return self\n",
        "b": "def g(p, q=1):\n    return [p for _ in q]\n",
    }
    assert unread_parameters(sources) == [
        ("f", "args"), ("f", "kw"), ("f", "y"), ("inner", "w"), ("m", "v")
    ]


def test_every_parameter_is_read():
    """Nothing outside UNREAD_PARAMETERS_ALLOWED goes unread, and every entry of it matches."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in LIBRARY}
    unread = unread_parameters(sources)
    for pattern, param in UNREAD_PARAMETERS_ALLOWED:
        assert any(fnmatch(f, pattern) and p == param for f, p in unread), (pattern, param)
        unread = [(f, p) for f, p in unread if not (fnmatch(f, pattern) and p == param)]
    assert unread == []


def unread_public_methods(sources):
    """``Class.method`` for each public method, property or classmethod of a
    top-level class of ``sources`` (name -> text) that no code of ``sources``
    outside the method's own definition reads as an attribute.

    Name-based, like ``unread_record_fields``: a read ``x.m`` of any object
    counts for every method named m.
    """
    trees = [ast.parse(source) for source in sources.values()]
    methods = [
        (cls.name, item)
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    ]
    reads = [
        n
        for tree in trees
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    ]
    unread = []
    for cls, method in methods:
        own = {id(n) for n in ast.walk(method)}
        if not any(n.attr == method.name and id(n) not in own for n in reads):
            unread.append(f"{cls}.{method.name}")
    return sorted(unread)


def test_unread_method_scanner_skips_own_reads():
    sources = {
        "a": "class A:\n    def f(self): return self.f\n    @property\n    def p(self): return 1\n"
        "    @classmethod\n    def make(cls): return cls.g()\n    def g(self): pass\n"
        "    def _h(self): pass\n",
        "b": "from a import A\nA.make().p\n",
    }
    assert unread_public_methods(sources) == ["A.f"]


def test_every_public_method_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in LIBRARY}
    assert unread_public_methods(sources) == []
