"""Keep duck-typed reaches across layers from growing back.

Three shapes caused the drift this guards against: hand-written walks
of the wrapper chain (``getattr(layer, "inner", None)`` loops — use
``Dht.unwrap()``), reaching into another module's *private* name —
probing it (``hasattr(substrate, "_route")``) or calling it
(``service._call(...)``) instead of a public seam such as
``RoutedOverlay.route_owner`` or ``ServiceDht.call`` — and an overlay
module re-growing its own copy of the storage node or the facade body
that ``dht/overlay.py`` holds once.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The one module allowed to know the wrapper chain's link by name.
CHAIN_OWNER = "dht/api.py"


def attribute_probes(tree: ast.AST):
    """``(call, attribute literal)`` for every ``hasattr``/``getattr``
    in *tree* whose attribute name is a string literal."""
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("hasattr", "getattr")
            and len(node.args) >= 2
        ):
            continue
        name = node.args[1]
        if isinstance(name, ast.Constant) and isinstance(name.value, str):
            yield node, name.value


def defined_names(tree: ast.AST) -> set[str]:
    """Names a module defines: functions, classes, assigned variables
    and assigned attributes (``self._x = …``)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Attribute):
                names.add(target.attr)
    return names


#: Overlay modules: routing state and neighbour exchange, nothing else.
OVERLAY_MODULES = ("dht/chord.py", "dht/pastry.py", "dht/kademlia.py")

#: What ``dht/overlay.py`` defines once for all of them.
SHARED_BY_OVERLAYS = {
    "handle_rpc",
    "rpc_store_get",
    "rpc_store_put",
    "rpc_store_remove",
    "rpc_store_contains",
    "_do_get",
    "_do_get_direct",
    "_do_put",
    "_do_remove",
    "_do_contains",
    "_do_rewrite",
    "rewrite_local",
    "_new_store",
}


def is_private(name: str) -> bool:
    dunder = name.startswith("__") and name.endswith("__")
    return name.startswith("_") and not dunder


def is_own_instance(receiver: ast.expr) -> bool:
    """``self`` / ``cls`` / ``super()`` / ``cls(...)``: inherited names
    are fair game."""
    if isinstance(receiver, ast.Call):
        receiver = receiver.func
        return isinstance(receiver, ast.Name) and receiver.id in ("super", "cls")
    return isinstance(receiver, ast.Name) and receiver.id in ("self", "cls")


def private_calls(tree: ast.AST):
    """``(call, method name)`` for every ``x._name(...)`` in *tree*
    whose receiver is not the calling object itself."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and is_private(node.func.attr)
            and not is_own_instance(node.func.value)
        ):
            yield node, node.func.attr


def violations(path: Path, source: str) -> list[str]:
    tree = ast.parse(source)
    relative = path.relative_to(SRC).as_posix()
    defined = defined_names(tree)
    found = []
    for call, name in attribute_probes(tree):
        where = f"{relative}:{call.lineno}"
        if name == "inner" and relative != CHAIN_OWNER:
            found.append(
                f"{where}: walks the wrapper chain by hand; "
                "iterate dht.unwrap() instead"
            )
        if is_private(name) and name not in defined:
            found.append(
                f"{where}: probes private attribute {name!r} of another "
                "module; use (or add) a public seam"
            )
    for call, name in private_calls(tree):
        if name not in defined:
            found.append(
                f"{relative}:{call.lineno}: calls private method {name!r} "
                "of another module; use (or add) a public seam"
            )
    if relative in OVERLAY_MODULES:
        found.extend(
            f"{relative}: defines {name!r}; the storage node and the "
            "facade body live once in dht/overlay.py"
            for name in sorted(defined & SHARED_BY_OVERLAYS)
        )
    return found


def test_no_duck_typed_reaches_across_layers():
    found = [
        line
        for path in sorted(SRC.rglob("*.py"))
        for line in violations(path, path.read_text())
    ]
    assert not found, "\n".join(found)


class TestTheCheckItself:
    def check(self, source, relative="core/example.py"):
        return violations(SRC / relative, source)

    def test_flags_a_hand_written_inner_walk(self):
        source = 'layer = getattr(layer, "inner", None)\n'
        assert self.check(source)
        assert not self.check(source, CHAIN_OWNER)

    def test_flags_a_private_probe_of_another_module(self):
        assert self.check('if hasattr(substrate, "_route"): pass\n')
        assert self.check('nodes = getattr(dht, "_nodes", None)\n')

    def test_allows_private_names_the_module_defines(self):
        source = (
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._backend = None\n"
            "def backend_of(store):\n"
            '    return getattr(store, "_backend", None)\n'
        )
        assert not self.check(source)

    def test_flags_a_private_call_into_another_module(self):
        assert self.check("reply = self._service._call(op, key)\n")
        assert self.check("owner = substrate._owner(key)\n")

    def test_allows_private_calls_on_self_and_own_module(self):
        source = (
            "class Node:\n"
            "    def _step(self):\n"
            "        return super()._step() or self._gateway()\n"
            "    @classmethod\n"
            "    def build(cls):\n"
            "        return cls()._populate()\n"
            "def drive(node):\n"
            "    return node._step()\n"
        )
        assert not self.check(source)

    def test_flags_an_overlay_regrowing_the_shared_body(self):
        source = (
            "class ChordNode:\n"
            "    def rpc_store_get(self, key): ...\n"
            "class ChordDht:\n"
            "    def _do_put(self, key, value): ...\n"
        )
        assert len(self.check(source, "dht/chord.py")) == 2
        assert not self.check(source, "dht/overlay.py")

    def test_allows_public_and_protocol_names(self):
        assert not self.check('getattr(dht, "close", None)\n')
        assert not self.check('hasattr(items, "__array_interface__")\n')
