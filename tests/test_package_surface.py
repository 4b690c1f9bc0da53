"""Every top-level function and class of the package has a caller outside
its own definition, in ``src/ksctl`` or in ``perfbench/``.

Code that only the tests call belongs in ``tests/`` (``oracles.py``).  A
name counts as used where the AST reads it as a name or an attribute;
docstrings, ``__all__`` entries and the re-exports of ``ksctl/__init__.py``
are strings or import aliases and do not count.

Every field of a package dataclass is read as an attribute somewhere in
``src/ksctl``, ``perfbench/`` or ``tests/``: a record field nothing reads is
work done for no one.

The solver knobs reach every solve inside one ``SolverSettings``: no other
function or dataclass of the package takes one of them by name, and no call
passes one on its own.

The package calls ``splu`` in two places.  ``Grid.factor`` caches the
constant factors that the block marches reuse: I - dt A, C and C*.  The
density pattern's one factor call, ``_DensityPattern.factor``, makes every
factor of a matrix with its layout, refilled into the pattern's one matrix:
M(v) each step, and once per march the chemical solve's, the v step or the
elliptic matrix.  The pattern is laid out once per grid in the column order
of the cached factor of I - dt A that the backward heat march steps on.
Only ``Grid.factor`` and ``_density_pattern`` read or write ``Grid._cache``.

The Laplacian has one apply, ``grid.neumann_laplacian``: no other function
of the package multiplies by ``laplacian_matrix``.  The factor builders
still read the matrix to assemble theirs.

No matrix product of the package (``@``, ``.dot``, ``np.matmul``,
``np.inner``, ``np.vdot``) takes ``quad_weights``: the weighted node sums
all go through ``grid.inner``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ksctl"


def _trees(*dirs):
    return {path: ast.parse(path.read_text())
            for d in dirs for path in sorted(d.rglob("*.py"))}


def _references(tree):
    """(name, top-level definition enclosing the reference, or None)."""
    out = []
    for top in tree.body:
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, owner))
    return out


def test_every_package_definition_has_a_caller():
    package = _trees(PACKAGE)
    everything = {**package, **_trees(ROOT / "perfbench")}
    refs = {path: _references(tree) for path, tree in everything.items()}
    unused = []
    for path, tree in package.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not any(name == top.name and (other != path or owner != top.name)
                       for other, pairs in refs.items() for name, owner in pairs):
                unused.append(f"{path.relative_to(ROOT)}: {top.name}")
    assert not unused, "only the tests call: " + ", ".join(unused)


def _is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in cls.decorator_list)


def test_every_record_field_is_read():
    reads = {node.attr
             for tree in _trees(PACKAGE, ROOT / "perfbench", ROOT / "tests").values()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.relative_to(ROOT)}: {cls.name}.{stmt.target.id}"
              for path, tree in _trees(PACKAGE).items()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
              and stmt.target.id not in reads]
    assert not unread, "no reader: " + ", ".join(unread)


SOLVER_KNOBS = {"tol", "maxit", "damping", "tau", "cg_tol", "cg_maxit", "weight_floor"}


def test_solver_knobs_travel_only_inside_solver_settings():
    takes = []
    for path, tree in _trees(PACKAGE).items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            elif (isinstance(node, ast.ClassDef) and _is_dataclass(node)
                  and node.name != "SolverSettings"):
                names = [stmt.target.id for stmt in node.body
                         if isinstance(stmt, ast.AnnAssign)
                         and isinstance(stmt.target, ast.Name)]
            else:
                continue
            takes += [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                      for name in names if name in SOLVER_KNOBS]
    assert not takes, "a solver knob outside SolverSettings: " + ", ".join(takes)


def test_no_call_passes_a_solver_knob_on_its_own():
    # ``f(..., cap=s.weight_floor)`` would carry a knob under another name
    passes = [f"{path.relative_to(ROOT)}:{node.lineno} {arg.attr}"
              for path, tree in _trees(PACKAGE).items()
              for node in ast.walk(tree) if isinstance(node, ast.Call)
              for arg in node.args + [kw.value for kw in node.keywords]
              if isinstance(arg, ast.Attribute) and arg.attr in SOLVER_KNOBS]
    assert not passes, "a solver knob passed outside SolverSettings: " + ", ".join(passes)


def _sites(tree, module, hit):
    """The dotted definition enclosing each node for which ``hit(node)``."""
    sites = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if hit(child):
                sites.append(owner)
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{owner}.{child.name}"
            visit(child, inner)

    visit(tree, module)
    return sorted(set(sites))


def _package_sites(hit):
    return sorted(site for path, tree in _trees(PACKAGE).items()
                  for site in _sites(tree, path.stem, hit))


def test_splu_only_in_the_factor_cache_and_the_density_step():
    # a mention of splu: a name, an attribute or an imported name
    sites = _package_sites(lambda node: (
        (isinstance(node, ast.Name) and node.id == "splu")
        or (isinstance(node, ast.Attribute) and node.attr == "splu")
        or (isinstance(node, ast.alias) and node.name.endswith("splu"))))
    assert sites == ["grid.Grid.factor", "ks_model._DensityPattern.factor"]


def test_only_the_factor_cache_and_the_density_pattern_touch_the_grid_cache():
    sites = _package_sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "_cache")
    assert sites == ["grid.Grid.factor", "ks_model._density_pattern"]


_PRODUCT_CALLS = {"matmul", "inner", "vdot"}   # as np.<name>; ``.dot`` on any receiver


def _product_sites(tree, module, attr):
    """The dotted definition enclosing each matrix product (``@``, ``@=``,
    ``.dot``, ``np.dot``, ``np.matmul``, ``np.inner``, ``np.vdot``) that has
    the attribute ``attr``, or a local name bound to it, as an operand."""
    sites = []

    def mentions(node, aliases):
        return any(isinstance(n, ast.Attribute) and n.attr == attr
                   or isinstance(n, ast.Name) and n.id in aliases for n in ast.walk(node))

    def bound(fn):
        # names assigned an expression that mentions attr, tuple targets item by item
        names = set()
        for n in ast.walk(fn):
            for t in n.targets if isinstance(n, ast.Assign) else ():
                elts = t.elts if isinstance(t, ast.Tuple) else [t]
                values = (n.value.elts if isinstance(n.value, ast.Tuple)
                          and len(n.value.elts) == len(elts) else [n.value] * len(elts))
                names |= {e.id for e, v in zip(elts, values)
                          if isinstance(e, ast.Name) and mentions(v, ())}
        return names

    def visit(node, owner, aliases):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}", aliases | bound(child))
                continue
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.MatMult):
                operands = [child.left, child.right]
            elif isinstance(child, ast.AugAssign) and isinstance(child.op, ast.MatMult):
                operands = [child.target, child.value]
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and (
                    child.func.attr == "dot" or child.func.attr in _PRODUCT_CALLS
                    and isinstance(child.func.value, ast.Name) and child.func.value.id == "np"):
                operands = [child.func.value, *child.args]
            else:
                operands = []
            if any(mentions(x, aliases) for x in operands):
                sites.append(owner)
            visit(child, owner, aliases)

    visit(tree, module, frozenset())
    return sites


def test_laplacian_matrix_is_applied_only_by_neumann_laplacian():
    sites = sorted({site for path, tree in _trees(PACKAGE).items()
                    for site in _product_sites(tree, path.stem, "laplacian_matrix")})
    assert sites == ["grid.neumann_laplacian"]


def test_quad_weights_enter_no_blas_product():
    # every weighted node sum is grid.inner's fixed-order einsum: a BLAS dot
    # splits a long sum by its thread count, and its bits follow the split
    sites = sorted({site for path, tree in _trees(PACKAGE).items()
                    for site in _product_sites(tree, path.stem, "quad_weights")})
    assert sites == []
