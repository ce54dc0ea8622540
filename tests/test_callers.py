"""Every public top-level function and class in src/surfalg has a caller
there, and so does every public method and property of a class, private
classes included.

A name that only the tests reach is library code the program does not use:
it either gains a caller in src/ or goes.  The scan reads the source with
ast only.  A reference to a top-level name is a load of the name in its own
module or in a module that imports it (re-exports followed), or an attribute
``module.name``; a local variable of the same name and a use inside the
definition itself do not count.  A member is reached when its name is loaded
as an attribute anywhere outside its own body; the test goes by name alone,
so it errs toward "reached".  Dunder and private members are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "surfalg"

# reached only by the tests, on purpose: {(module, name): reason}
ALLOWED = {
    ("symplectic", "contraction"): "the vector form of contraction_matrix, the tests' oracle for it",
    ("symplectic", "h_projector"): "P with P^2 = (g-1)P, the witness of the splitting index of theta^H",
    ("surface", "SurfaceAlgebra.bracket_coords"): "a tool for the Johnson filtration of the point-pushing subgroup",
    ("enveloping", "EnvelopingAlgebra.from_lie"): "a tool for the Johnson filtration of the point-pushing subgroup",
}


def _module_name(path: Path) -> str:
    return path.parent.name if path.name == "__init__.py" else path.stem


def _free_loads(tree: ast.AST) -> list[ast.Name]:
    """Loads of names that no enclosing function binds locally."""
    out = []

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            stores = {
                n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            }
            local = local | {p.arg for p in params} | stores
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            out.append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return out


def unreferenced(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) of each public top-level def with no reference elsewhere,
    and (module, "Class.member") of each unreached public member of any
    top-level class."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    imports = {
        module: [
            ((node.module or "").rpartition(".")[2], alias.name, alias.asname or alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        ]
        for module, tree in trees.items()
    }
    loads = {module: _free_loads(tree) for module, tree in trees.items()}
    attributes = [
        n
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    ]
    missing = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                    continue
                own = {id(n) for n in ast.walk(member)}
                if not any(n.attr == member.name and id(n) not in own for n in attributes):
                    missing.add((module, f"{node.name}.{member.name}"))
            if node.name.startswith("_"):
                continue
            # {module: local names bound to this def}, following re-exports
            bound = {module: {node.name}}
            grew = True
            while grew:
                grew = False
                for m, entries in imports.items():
                    for source, name, local in entries:
                        if name in bound.get(source, ()) and local not in bound.get(m, ()):
                            bound.setdefault(m, set()).add(local)
                            grew = True
            own = {id(n) for n in ast.walk(node)}
            named = any(
                n.id in bound.get(m, ()) and id(n) not in own for m in trees for n in loads[m]
            )
            dotted = any(
                isinstance(n.value, ast.Name)
                and n.attr == node.name
                and node.name in bound.get(n.value.id, ())
                and id(n) not in own
                for n in attributes
            )
            if not (named or dotted):
                missing.add((module, node.name))
    return missing


def test_every_public_name_has_a_caller_in_src():
    sources = {_module_name(p): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    found = unreferenced(sources)
    assert found - ALLOWED.keys() == set(), "no caller in src/; give it one or delete it"
    # an allowed name that gains a caller leaves the list
    assert ALLOWED.keys() <= found
    assert all(ALLOWED.values()), "every allowed name says why it stays"


def test_scan_sees_through_shadows_recursion_and_reexports():
    sources = {
        "a": (
            "def used(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def shadowed(): pass\n"
            "def alias(): pass\n"
            "def dotted(): pass\n"
            "class Klass: pass\n"
            "def _private(): pass\n"
        ),
        "pkg": "from .a import used, Klass\n",
        "b": (
            "from . import a\n"
            "from .a import alias, shadowed\n"
            "from .pkg import used\n"
            "def caller(shadowed):\n"
            "    alias = 1\n"
            "    return used(), shadowed, alias, a.dotted(), Klass\n"
        ),
    }
    # b imports shadowed and alias, but reads only its own locals of those
    # names; Klass is re-exported by pkg but never imported into b, so its
    # load in b is not a reference; caller itself has no caller
    assert unreferenced(sources) == {
        ("a", "recursive"),
        ("a", "shadowed"),
        ("a", "alias"),
        ("a", "Klass"),
        ("b", "caller"),
    }


def test_scan_sees_methods_and_properties():
    sources = {
        "a": (
            "class Tree:\n"
            "    def __len__(self): return 0\n"
            "    def _helper(self): pass\n"
            "    def walk(self): return self.walk()\n"
            "    def called(self): return self._helper()\n"
            "    @property\n"
            "    def size(self): return 1\n"
            "    @property\n"
            "    def width(self): return self.size\n"
            "    @classmethod\n"
            "    def empty(cls): return cls()\n"
            "class _Private:\n"
            "    def unused(self): pass\n"
        ),
        "b": (
            "from .a import Tree\n"
            "def caller(t):\n"
            "    t.stored = Tree.empty()\n"
            "    return t.called(), t.width, len(t)\n"
        ),
    }
    # walk is reached only from its own body; size is read by width, and
    # width, called and empty by b; the store to t.stored reaches nothing;
    # dunder and private members are exempt, but a private class's public
    # members are not: a subclass or an instance can reach them
    assert unreferenced(sources) == {("a", "Tree.walk"), ("a", "_Private.unused"), ("b", "caller")}
