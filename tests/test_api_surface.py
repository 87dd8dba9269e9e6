"""Guards on the public surface, read from the source with the stdlib ast.

Every name that tilelab/__init__.py exports must have a caller: a reference
in src/tilelab outside its own definition, or a `tl.<name>` use in the
release gate.  Every private module-level function and class must be read
in src/tilelab outside its own definition; tests alone do not keep one.
No module may import a name it never uses, and the private names one
module imports from another are pinned.  And only the context's
translates, the slab walk and the two searches shift a mask by M - k.

Below the module level, the readers are src/tilelab, the gate and
perfbench/.  Every annotated field and non-dunder method or property of a
class must be read as an attribute, or as a string key of some `__dict__`,
outside its own definition; every defaulted parameter must be passed, by
keyword or by position, in some call to its function (to the class, for
__init__); and every parameter must be read in its function's body.
Members and calls are matched by name alone, so a member is taken as read
when any attribute of that name is: the check could not see an unread
Parity.swapped while Tiling.swapped was read, nor an unread
CycloProfile.tile while the CLI read args.tile.
"""

import ast
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tilelab"
GATE = ROOT / "tests" / "test_acceptance.py"
READERS = [*sorted(PACKAGE.glob("*.py")), GATE,
           *sorted((ROOT / "perfbench").glob("*.py"))]

# The paper's splitting lemmas: unit tests call them, no workload does yet.
# ROADMAP open item 8 wires them into `sweep --check lemmas`.
LEMMA_CHECKS = {"check_disjoint_sigma", "check_local_distribution",
                "check_aunif"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _modules() -> dict[str, ast.Module]:
    return {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}


def _exports() -> set[str]:
    return {alias.asname or alias.name
            for node in _modules()["__init__"].body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _loads(tree: ast.AST):
    """Names read as ast.Name or as the attribute of an ast.Attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def _src_callers() -> set[str]:
    """Names read in src/tilelab, except inside the top-level definition of
    that same name."""
    seen = set()
    for module, tree in _modules().items():
        if module == "__init__":
            continue
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            seen.update(name for name in _loads(stmt) if name != owner)
    return seen


def _gate_uses() -> set[str]:
    return {node.attr for node in ast.walk(_parse(GATE))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "tl"}


def test_every_export_has_a_caller():
    exports = _exports()
    uncalled = exports - _src_callers() - _gate_uses()
    assert LEMMA_CHECKS <= exports
    assert uncalled == LEMMA_CHECKS, sorted(uncalled - LEMMA_CHECKS)


def test_every_private_name_is_read():
    seen = _src_callers()
    unread = [f"{module}.{stmt.name}" for module, tree in _modules().items()
              for stmt in tree.body
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and stmt.name.startswith("_") and stmt.name not in seen]
    assert not unread, unread


def test_no_module_imports_an_unused_name():
    for module, tree in _modules().items():
        if module == "__init__":
            continue        # its imports are the exports checked above
        used = set(_loads(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    assert bound in used, f"{module}.py imports unused {bound}"


def test_private_imports_across_modules_are_pinned():
    """A new reach into another module's internals is a visible edit here."""
    reaches = defaultdict(set)
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                reaches[module].update(alias.name for alias in node.names
                                       if alias.name.startswith("_"))
    assert {module: names for module, names in reaches.items() if names} == {
        "cli": {"_tiles_from_json", "_plane_counts"},
        "cyclotomic": {"_packed_indicator"},
        "reduction": {"_class_bits"},
        "structure": {"_packed_indicator", "_same_context"},
        "tiling": {"_class_bits", "_same_context", "_set_div"},
    }


def _attribute_reads(tree: ast.AST) -> Counter:
    """Attribute loads by name, counting `obj.__dict__["name"]` as a read
    of name."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "__dict__"
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            reads[node.slice.value] += 1
    return reads


def test_dict_subscript_counts_as_a_read():
    tree = ast.parse('f = tileset.__dict__["from_mask"]\n'
                     'tileset.__dict__["held"] = 1\n'
                     'g = tileset.__dict__[name]\n')
    reads = _attribute_reads(tree)
    assert reads["from_mask"] == 1
    assert reads["held"] == 0 and reads["name"] == 0


def test_every_member_is_read():
    reads = Counter()
    for path in READERS:
        reads.update(_attribute_reads(_parse(path)))
    unread = []
    for module, tree in _modules().items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)):
                    name = node.target.id
                elif (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("__")):
                    name = node.name
                else:
                    continue
                if reads[name] == _attribute_reads(node)[name]:
                    unread.append(f"{module}.{cls.name}.{name}")
    assert not unread, unread


def _functions():
    """(label, callee name, def, bound) for every function in src/tilelab:
    the name a call uses, and the positional parameters bound before the
    caller's arguments (self or cls on a method)."""
    for module, tree in _modules().items():
        methods = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef):
                        methods[fn] = cls.name
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn not in methods:
                yield f"{module}.{fn.name}", fn.name, fn, 0
                continue
            callee = methods[fn] if fn.name == "__init__" else fn.name
            yield f"{module}.{methods[fn]}.{fn.name}", callee, fn, 1


def _passes(call: ast.Call, param: str, position) -> bool:
    """Whether the call binds param, given its index among the caller's
    positional arguments (None for a keyword-only parameter)."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_passed():
    calls = defaultdict(list)
    for path in READERS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    calls[func.id].append(node)
                elif isinstance(func, ast.Attribute):
                    calls[func.attr].append(node)
    unset = []
    for label, callee, fn, bound in _functions():
        args = fn.args
        positional = args.posonlyargs + args.args
        defaulted = [(a.arg, i - bound) for i, a in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(a.arg, None) for a, d in
                      zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        for param, position in defaulted:
            if not any(_passes(call, param, position)
                       for call in calls[callee]):
                unset.append(f"{label}({param})")
    assert not unset, unset


def test_every_parameter_is_read():
    unread = []
    for label, _, fn, bound in _functions():
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        loads = {node.id for stmt in fn.body for node in ast.walk(stmt)
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Load)}
        unread += [f"{label}({a.arg})" for a in params[bound:]
                   if not a.arg.startswith("_") and a.arg not in loads]
    assert not unread, unread


def _shifts_by_m_minus(tree: ast.AST) -> bool:
    """Whether tree writes x >> (M - k) or x << (M - k), with M a name or a
    .M attribute: a shift that reads a doubled or rotated mask of Z_M."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.BinOp)
                and isinstance(node.op, (ast.LShift, ast.RShift))
                and isinstance(node.right, ast.BinOp)
                and isinstance(node.right.op, ast.Sub)):
            m = node.right.left
            if (isinstance(m, ast.Name) and m.id == "M"
                    or isinstance(m, ast.Attribute) and m.attr == "M"):
                return True
    return False


def test_mask_geometry_stays_in_the_context():
    """Outside the context's translates, only the slab walk and the two
    searches, which inline their rotations, shift a mask by M - k."""
    shifting = set()
    for module, tree in _modules().items():
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                owners = [(f"{module}.{stmt.name}", stmt)]
            elif isinstance(stmt, ast.ClassDef):
                owners = [(f"{module}.{stmt.name}.{fn.name}", fn)
                          for fn in stmt.body
                          if isinstance(fn, ast.FunctionDef)]
            else:
                continue
            shifting.update(label for label, fn in owners
                            if _shifts_by_m_minus(fn))
    assert shifting == {"zm_core.ZmContext.translates",
                        "reduction.slab_cond_i", "tiling.iter_complements",
                        "tiling._pair_dfs"}
