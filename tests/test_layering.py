"""Keep duck-typed reaches across layers from growing back.

Three shapes caused the drift this guards against: hand-written walks
of the wrapper chain (``getattr(layer, "inner", None)`` loops — use
``Dht.unwrap()``), reaching into another module's *private* name —
probing it (``hasattr(substrate, "_route")``) or calling it
(``service._call(...)``) instead of a public seam such as
``RoutedOverlay.route_owner`` or ``ServiceDht.call`` — and an overlay
module re-growing its own copy of the storage node or the facade body
that ``dht/overlay.py`` holds once.

The second half keeps *options without traffic* from growing back: no
function takes a ``batched`` switch, ``core/plane.py`` holds nothing but
the one name the perf harness pins, the kind tables are closed (no
registry anyone can add a kind to), and every public name under
``src/`` that nothing outside ``tests/`` refers to (``tools/reach.py``)
is listed below with the reason it stays.

The third keeps one label algebra, validated at the edge: labels are
checked where they enter the program and nowhere else, and ``core/``
runs on strings — and one statement of Theorem 5: which leaf of a
split or merge keeps its key is decided in ``core/naming.py``, read
everywhere else.

The fourth keeps one source per number: ``benchmarks/`` asserts
claims over counts and publishes ``.txt`` tables, ``perf/`` alone
measures — no bespoke JSON report, no pytest-benchmark fixture, one
timing loop, and each Fig. 5/6/7 claim stated once, in
``repro.experiments.report``.

The fifth keeps one parameterisation per published table: file names,
titles and the paper's config live in ``repro.experiments.catalogue``
and nowhere else under ``benchmarks/`` or ``src/repro/experiments/``.

The last keeps one step protocol: operations are generators of facade
steps, ``Dht.drive`` is the one trampoline, ``Dht.perform`` the one
seam a wrapper overrides, the meter ticks of a step are written once,
and index maintenance never calls the facade.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

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

#: What ``dht/overlay.py`` defines once for all of them — the storage
#: node's request server, placement, the one exchange and the round —
#: and what ``dht/api.py`` defines once for every substrate: the mapping
#: of steps onto exchanges.
SHARED_BY_OVERLAYS = {
    "handle_rpc",
    "serve",
    "targets",
    "exchange",
    "_rpc",
    "run_round",
    "ask",
    "map_step",
    "perform",
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
            "    def serve(self, op, key, value=None): ...\n"
            "class ChordDht:\n"
            "    def exchange(self, peer, op, key, value=None): ...\n"
        )
        assert len(self.check(source, "dht/chord.py")) == 2
        assert not self.check(source, "dht/overlay.py")

    def test_allows_public_and_protocol_names(self):
        assert not self.check('getattr(dht, "close", None)\n')
        assert not self.check('hasattr(items, "__array_interface__")\n')


# ----------------------------------------------------------------------
# No option without traffic
# ----------------------------------------------------------------------


def trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def test_no_function_takes_a_batched_switch():
    """A round is always one batch; the per-key form is a test
    reference (``conftest.PerKeyDht``), not a second path."""
    found = [
        f"{relative}:{node.lineno}: {node.name}"
        for relative, tree in trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (
            *node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs
        )
        if arg.arg == "batched"
    ]
    assert not found, found


def test_the_plane_module_holds_only_the_perf_pin():
    tree = ast.parse((SRC / "core" / "plane.py").read_text())
    classes = [
        node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]
    assert classes == ["BatchedPlane"]


def test_kind_tables_are_closed():
    """No open kind table under ``src/``: no class defines
    register/kinds/lookup, nothing imports a ``Registry`` and no module
    has a ``register_*`` function; the runtime and store tables are
    plain dicts (the one durable kind is an ``==`` check)."""
    protocol = {"register", "kinds", "lookup"}
    definers = [
        relative
        for relative, tree in trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and protocol <= {
            member.name
            for member in node.body
            if isinstance(member, ast.FunctionDef)
        }
    ]
    assert not definers, definers
    registry_imports = [
        relative
        for relative, tree in trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and {getattr(node, "module", None), *(a.name for a in node.names)}
        & {"Registry", "repro.common.registry"}
    ]
    assert not registry_imports, registry_imports

    from repro.core.store import STORES
    from repro.runtime import RUNTIMES

    assert type(RUNTIMES) is dict and type(STORES) is dict
    module_level_functions = [
        f"{relative}: {node.name}"
        for relative, tree in trees()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("register_")
    ]
    assert not module_level_functions, module_level_functions


#: What a declared base now carries — ``WireSized.encoded_wire_size``,
#: ``LatencyModel.round_trip``, ``RoutedOverlay``'s maintenance and the
#: trie nodes' fields: probing for one by name is what they replaced.
DECLARED_CAPABILITIES = {
    "encoded_wire_size", "round_trip", "repair_replicas", "stabilize_all",
    "replication", "records", "prefix",
}


def test_no_probe_for_a_declared_capability():
    found = [
        f"{relative}:{call.lineno}: {name!r}"
        for relative, tree in trees()
        for call, name in attribute_probes(tree)
        if name in DECLARED_CAPABILITIES
    ]
    assert not found, found


def installed_hooks(tree: ast.AST):
    """``function:line`` for every function that rebinds a module
    global to a value built from its own parameters: an install hook,
    which makes behaviour depend on who was imported first."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared = {
            name
            for stmt in ast.walk(node)
            if isinstance(stmt, ast.Global)
            for name in stmt.names
        }
        arguments = node.args
        params = {
            arg.arg
            for arg in (
                *arguments.posonlyargs, *arguments.args,
                *arguments.kwonlyargs, arguments.vararg, arguments.kwarg,
            )
            if arg is not None
        }
        for stmt in ast.walk(node):
            if (
                isinstance(stmt, ast.Assign)
                and any(
                    isinstance(target, ast.Name) and target.id in declared
                    for target in stmt.targets
                )
                and params & {
                    name.id
                    for name in ast.walk(stmt.value)
                    if isinstance(name, ast.Name)
                }
            ):
                yield f"{node.name}:{stmt.lineno}"


def test_no_function_installs_a_hook():
    found = [
        f"{relative}: {hook}"
        for relative, tree in trees()
        for hook in installed_hooks(tree)
    ]
    assert not found, found


def test_the_hook_check_itself():
    hook = (
        "_model = None\n"
        "def install(size, data):\n"
        "    global _model\n"
        "    _model = (size, data)\n"
    )
    assert list(installed_hooks(ast.parse(hook))) == ["install:4"]
    # A warn-once flag and a lazily imported module are no hooks.
    state = (
        "_warned = False\n"
        "def warn():\n"
        "    global _warned\n"
        "    _warned = True\n"
        "def lazy(dims):\n"
        "    global _module\n"
        "    import json as module\n"
        "    _module = module\n"
    )
    assert list(installed_hooks(ast.parse(state))) == []


#: ``<module under src/repro>:<name>`` -> why a public name that only
#: tests (or nothing) refer to stays.  ``tools/reach.py`` prints the
#: candidates; the list is the agenda for the next re-anchor.
REACH_ALLOWLIST = {
    # -- perf pin ------------------------------------------------------
    # (The other pin, dht/api.py:shutdown_shared_executor, needs no
    # entry: perf/run.py imports it, which the audit counts as a call.
    # test_batch_rounds_run_on_no_thread_pool keeps it a no-op.)
    "core/plane.py:get_round":
        "perf/spans.py:TARGETS names it as a string; goes with the "
        "TARGETS re-point (ROADMAP item 1(a))",
    # -- test oracles: references the program is compared against ------
    "core/naming.py:naming_function_recursive":
        "oracle: the paper's literal recursion, vs the O(1) scans",
    "core/split.py:optimal_cost":
        "oracle: Algorithm 1's objective, vs brute-force enumeration",
    "core/npstore.py:batch_interleave":
        "oracle seam: string form of batch_morton_codes, vs "
        "labels.interleave",
    "common/labels.py:coordinate_bits":
        "oracle: Section 5's per-character binary expansion, vs the "
        "packed interleave (tests/test_hotpath_equivalence.py)",
    "baselines/dst.py:replica_count":
        "oracle: DST's replication bill, asserted by tests/test_dst.py",
    # -- documented user API (docs/usage.md, README) -------------------
    "core/index.py:exact_match": "documented user API (docs/usage.md)",
    "core/aggregate.py:sum_in": "documented user API (docs/usage.md)",
    "core/aggregate.py:combine":
        "Aggregate's merge law — what a peer-side reducer (ROADMAP "
        "item 9) would call",
    "dht/api.py:load_by_peer":
        "documented oracle API (Fig. 6a's measure); one copy since "
        "this PR",
    "mcast/continuous.py:unsubscribe": "documented user API",
    "mcast/service.py:ServiceContinuousPlane":
        "documented user API: subscriptions on the service runtime",
    "obs/registry.py:quantile": "Histogram's read side (user API)",
    "obs/trace.py:export_jsonl": "documented user API (docs/usage.md)",
    "obs/trace.py:detach": "inverse of Tracer.attach (user API)",
    "obs/trace.py:children_of": "span-tree navigation (user API)",
    "adaptive/plane.py:detector":
        "documented inspection surface of AdaptiveDht (docs/usage.md)",
    "adaptive/plane.py:replicas":
        "documented inspection surface of AdaptiveDht (docs/usage.md)",
    "adaptive/plane.py:shortcuts":
        "documented inspection surface of AdaptiveDht (docs/usage.md)",
    "adaptive/plane.py:bump_generation":
        "documented churn escape hatch (docs/usage.md)",
    "adaptive/detector.py:window_reads":
        "HotspotDetector's inspection surface, read by its unit tests",
    "adaptive/detector.py:share":
        "HotspotDetector's inspection surface, read by its unit tests",
    "adaptive/replication.py:is_replica_key":
        "replica key naming: the predicate beside replica_key",
    "adaptive/replication.py:primary_of":
        "replica key naming: the inverse of replica_key",
    # -- small complete surfaces of library types ----------------------
    "common/geometry.py:volume": "Region's public geometry (DESIGN.md)",
    "common/geometry.py:corner_low": "Region's public geometry",
    "common/geometry.py:contains_region": "Region's public geometry",
    "net/events.py:cancel": "EventHandle's only operation",
    "net/events.py:schedule_every":
        "EventScheduler API for the deterministic-simulation harness "
        "(ROADMAP item 3), which needs it",
    "net/latency.py:UniformLatency":
        "latency model beside Constant/Queueing (tests/test_simnet.py)",
    "net/simnet.py:addresses":
        "SimNetwork membership oracle (README); lost its one caller "
        "with broadcast()",
    "net/simnet.py:heal_partitions": "inverse of SimNetwork.partition",
    "net/stats.py:latency_clock":
        "which clock a NetworkStats measured (docs/architecture.md)",
    "service/wire.py:is_reply": "Frame predicate of the wire protocol",
    # -- dataset and workload generators (library surface) -------------
    "datasets/loader.py:load_points": "documented loader (DESIGN.md)",
    "datasets/northeast.py:northeast_sample":
        "dataset generator beside northeast_surrogate",
    "datasets/synthetic.py:skewed_points":
        "dataset generator beside uniform/clustered points",
    "workloads/traces.py:insert_trace":
        "workload generator beside request_trace",
}


def load_reach():
    """``tools/reach.py`` as a module (``tools/`` is not a package)."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import reach
    finally:
        sys.path.pop(0)
    return reach


def unreached_names(root=ROOT):
    return {
        f"{d.path.relative_to(root / 'src' / 'repro').as_posix()}:{d.name}"
        for d, _ in load_reach().unreached(root)
    }


def test_every_caller_less_public_name_is_accounted_for():
    found = unreached_names()
    unexplained = sorted(found - set(REACH_ALLOWLIST))
    assert not unexplained, (
        "public names nothing outside tests/ refers to — call them, "
        f"delete them, or give the reason they stay: {unexplained}"
    )
    stale = sorted(set(REACH_ALLOWLIST) - found)
    assert not stale, f"allowlisted names that are reached now: {stale}"
    assert all(reason.strip() for reason in REACH_ALLOWLIST.values())


def test_reach_flags_a_new_caller_less_function(tmp_path):
    """The check itself: a public function nothing calls is reported,
    one that something in ``src/`` calls is not."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (package / "lib.py").write_text(
        "def used():\n    return 1\n\n"
        "def unused():\n    return unused()\n\n"
        "def only_tested():\n    return 2\n"
    )
    (package / "app.py").write_text(
        "from repro.lib import used\n\nRESULT = used()\n"
    )
    (tmp_path / "tests" / "test_lib.py").write_text(
        "from repro.lib import only_tested\n"
    )
    assert unreached_names(tmp_path) == {
        "lib.py:unused", "lib.py:only_tested", "app.py:RESULT",
    }


# ----------------------------------------------------------------------
# One label algebra, validated at the edge
# ----------------------------------------------------------------------

#: Where a label enters the program (``common/labels.py`` lists why);
#: ``labels.py`` itself is where ``check_label`` calls ``is_valid_label``.
LABEL_EDGES = {
    "common/labels.py",
    "common/geometry.py",
    "core/bucket.py",
    "core/codec.py",
    "mcast/service.py",
}


def references(predicate):
    """``<module>: <name>`` for every name under ``src/repro`` (re-exports
    in ``__init__.py`` apart) that *predicate(module, name)* accepts —
    read, called or imported, as ``tools/reach.py`` counts them."""
    reference_lines = load_reach().reference_lines
    return [
        f"{relative}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for relative in [path.relative_to(SRC).as_posix()]
        for name in reference_lines(path)
        if predicate(relative, name)
    ]


def test_labels_are_validated_only_where_they_enter():
    """The helpers trust their callers: a validity check anywhere else
    runs on labels the program derived from checked ones."""
    found = references(
        lambda module, name: name in ("check_label", "is_valid_label")
        and module not in LABEL_EDGES
    )
    assert not found, found


def test_core_runs_on_string_labels():
    """Integers live inside the Morton interleave (``common/labels.py``)
    only; ``core/naming.py`` defines the one perf pin and uses none."""
    found = references(
        lambda module, name: name.startswith("packed_")
        and module.startswith("core/")
    )
    assert not found, found


# ----------------------------------------------------------------------
# Theorem 5 exists once
# ----------------------------------------------------------------------


def placement_decisions(source: str) -> list[str]:
    """``<function>:<line>`` for every comparison in *source* that has
    an ``fmd`` value on one side — a ``naming_function(...)`` call or a
    variable bound to one in the same function: the way to pick the
    survivor or the moved child without asking the kernel.
    ``check_invariants`` is the oracle that verifies where buckets ended
    up, not code that decides it."""
    def is_fmd(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "naming_function"
        )

    found = []
    for function in ast.walk(ast.parse(source)):
        if (
            not isinstance(function, ast.FunctionDef)
            or function.name == "check_invariants"
        ):
            continue
        names = {
            target.id
            for node in ast.walk(function)
            if isinstance(node, ast.Assign) and is_fmd(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        found += [
            f"{function.name}:{node.lineno}"
            for node in ast.walk(function)
            if isinstance(node, ast.Compare)
            for side in (node.left, *node.comparators)
            if is_fmd(side)
            or (isinstance(side, ast.Name) and side.id in names)
        ]
    return found


def test_theorem_5_placement_is_decided_in_the_kernel_only():
    clients = [SRC / "core" / "index.py", *sorted((SRC / "mcast").glob("*.py"))]
    found = [
        f"{path.relative_to(SRC).as_posix()}:{where}"
        for path in clients
        for where in placement_decisions(path.read_text())
    ]
    assert not found, found
    # The check itself: the inline form this replaced is flagged.
    assert placement_decisions(
        "def apply(plan, dims):\n"
        "    origin_name = naming_function(plan.origin, dims)\n"
        "    for label in plan.leaves:\n"
        "        if naming_function(label, dims) == origin_name:\n"
        "            return label\n"
    ) == ["apply:4", "apply:4"]
    # The kernel is pure: its tests build no substrate.
    kernel_tests = (ROOT / "tests" / "test_maintenance_kernel.py").read_text()
    assert not re.search(r"repro\.(dht|runtime|service|net)\b", kernel_tests)


def test_src_stays_under_its_code_line_ceiling():
    """Growth is a conscious edit of this number (``make loc`` prints
    the current total), not drift."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import loc
    finally:
        sys.path.pop(0)
    assert sum(loc.count(ROOT / "src").values()) <= SRC_CODE_LINES


#: ``make loc``'s ``src total`` once a leaf still its bytes took an
#: insert's record as a splice and the split rule read the load first
#: (+20: 10 684 before, after a lookup probe decided on labels).
SRC_CODE_LINES = 10704


# ----------------------------------------------------------------------
# benchmarks/ asserts, perf/ measures
# ----------------------------------------------------------------------

BENCHMARKS = ROOT / "benchmarks"


def benchmark_trees():
    for path in sorted(BENCHMARKS.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def test_batch_rounds_run_on_no_thread_pool():
    """A batch is an inline loop (elements that share an owner share
    its journal); what is left of the pool is the no-op perf/ imports."""
    for path in sorted((SRC / "dht").glob("*.py")):
        assert "ThreadPoolExecutor" not in path.read_text(), path.name
    tree = ast.parse((SRC / "dht" / "api.py").read_text())
    (pin,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name == "shutdown_shared_executor"
    ]
    assert [type(statement) for statement in pin.body] == [ast.Expr]


def test_no_bespoke_json_reports():
    """The seven ``results/BENCH_*.json`` schemas stay retired: nothing
    under ``src/`` or ``benchmarks/`` names one or writes JSON below
    ``results/``, and none is left in the tree."""
    found = []
    for root in (ROOT / "src", BENCHMARKS):
        for path in sorted(root.rglob("*.py")):
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if re.search(r"BENCH_[a-z]|results\S*\.json\b", line):
                    found.append(f"{path.relative_to(ROOT)}:{number}")
    for name, tree in benchmark_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "json" in modules:
                found.append(f"benchmarks/{name}:{node.lineno}")
    assert not found, found
    assert not list((ROOT / "results").glob("BENCH_*"))


def test_benchmarks_hold_one_timing_loop():
    """Wall-clock readings under ``benchmarks/`` live in
    ``conftest.best_rate``, which only ratio gates call."""
    clocks = {"perf_counter", "perf_counter_ns", "monotonic", "timeit"}
    found = []
    for name, tree in benchmark_trees():
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            if (name, function.name) == ("conftest.py", "best_rate"):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Attribute) and node.attr in clocks
                ) or (isinstance(node, ast.Name) and node.id in clocks):
                    found.append(f"{name}:{node.lineno}")
    assert not found, found
    assert "perf_counter" in (BENCHMARKS / "conftest.py").read_text()


def test_no_benchmark_takes_the_pytest_benchmark_fixture():
    found = [
        f"{name}:{node.lineno}: {node.name}"
        for name, tree in benchmark_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(arg.arg == "benchmark" for arg in node.args.args)
    ]
    assert not found, found


def test_figure_benchmarks_assert_the_report_checks():
    """Each Fig. 5/6/7 claim is stated once, in
    ``repro.experiments.report``; the figure benchmarks call it."""
    for figure in ("5", "6", "7"):
        (path,) = BENCHMARKS.glob(f"test_fig{figure}_*.py")
        tree = ast.parse(path.read_text())
        check = f"check_fig{figure}"
        imported = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module == "repro.experiments.report"
            and check in {alias.name for alias in node.names}
        ]
        called = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == check
        ]
        assert imported and called, path.name


# ----------------------------------------------------------------------
# One experiment catalogue
# ----------------------------------------------------------------------

EXPERIMENTS = SRC / "experiments"

#: The two tables ``benchmarks/`` formats by hand: module -> file name.
HAND_FORMATTED = {
    "test_cache_lookup.py": "cache_lookup.txt",
    "test_fig7_rangequery.py": "fig7c_critical_latency.txt",
}


def catalogue_clients():
    """Every module that must take its table parameters from the
    catalogue: ``benchmarks/`` and ``experiments/`` bar the catalogue
    itself (``trace_report.py`` writes a trace timeline, not a table)."""
    for path in sorted(BENCHMARKS.glob("*.py")):
        yield path
    for path in sorted(EXPERIMENTS.glob("*.py")):
        if path.name not in ("catalogue.py", "trace_report.py"):
            yield path


def test_table_parameters_live_in_the_catalogue_only():
    from repro.experiments.catalogue import CATALOGUE
    from repro.experiments.tables import pivot

    owned = {entry.file for entry in CATALOGUE}
    for entry in CATALOGUE:
        if entry.layout is not pivot:  # a pivot's title names its x column
            titles = entry.title
            owned.update([titles] if isinstance(titles, str) else titles)
    found = []
    for path in catalogue_clients():
        text = path.read_text()
        found += [
            f"{path.name}: {literal!r}" for literal in owned if literal in text
        ]
        if re.search(r"max_depth=28,\s*split_threshold=100\b", text):
            found.append(f"{path.name}: spells out the paper config")
        found += [
            f"{path.name}: {name!r}"
            for name in re.findall(r"[\w/]+\.txt\b", text)
            if name != HAND_FORMATTED.get(path.name)
        ]
    assert not found, found


def test_benchmarks_publish_catalogue_entries():
    """``publish`` is passed a catalogue key; ``publish_text`` serves
    the two hand-formatted tables only; ``write_table`` stays behind
    both, in ``conftest.py``."""
    from repro.experiments.catalogue import BY_KEY

    found = []
    for name, tree in benchmark_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "write_table":
                if name != "conftest.py":
                    found.append(f"{name}:{node.lineno}: write_table")
            if not (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            ) or name == "conftest.py":
                continue
            first = node.args[0] if node.args else None
            literal = first.value if isinstance(first, ast.Constant) else None
            if node.func.id == "publish" and literal not in BY_KEY:
                found.append(f"{name}:{node.lineno}: publish({literal!r})")
            if (
                node.func.id == "publish_text"
                and literal != HAND_FORMATTED.get(name)
            ):
                found.append(f"{name}:{node.lineno}: publish_text({literal!r})")
    assert not found, found


def test_the_paper_config_is_constructed_once():
    import benchmarks.conftest as conftest
    from repro.experiments import report, run_all
    from repro.experiments.catalogue import PAPER_CONFIG

    assert (PAPER_CONFIG.max_depth, PAPER_CONFIG.split_threshold) == (28, 100)
    assert PAPER_CONFIG.expected_load == 70
    assert conftest.PAPER_CONFIG is PAPER_CONFIG
    assert run_all.PAPER_CONFIG is report.PAPER_CONFIG is PAPER_CONFIG


# ----------------------------------------------------------------------
# One step protocol
# ----------------------------------------------------------------------


def function_named(relative: str, name: str) -> ast.AST:
    tree = ast.parse((SRC / relative).read_text())
    (found,) = [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == name
    ]
    return found


def test_cursors_have_no_shape_and_probes_are_get_steps():
    """``cursor.batched`` told two driver loops apart and ``Probe`` was
    a third request dialect; both are gone for good."""
    found = [
        f"{relative}:{node.lineno}"
        for relative, tree in trees()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "batched")
        or (isinstance(node, ast.Name) and node.id in ("batched", "Probe"))
        or (isinstance(node, ast.ClassDef) and node.name == "Probe")
    ]
    assert not found, found


def test_the_trampolines_do_not_ask_what_they_run():
    """``drive`` sends, throws and closes; which operation it is
    advancing is none of its business."""
    for relative, name in (
        ("dht/api.py", "drive"),
        ("service/node.py", "drive"),
        ("service/node.py", "drive_on_loop"),
    ):
        body = function_named(relative, name)
        touched = {
            node.attr for node in ast.walk(body)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "operation"
        }
        assert touched <= {"send", "throw", "close"}, (relative, name, touched)
        probes = [
            node.func.id for node in ast.walk(body)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("isinstance", "hasattr", "getattr", "type")
        ]
        assert not probes, (relative, name, probes)


def test_step_meter_ticks_are_written_in_the_facade_only():
    """``service/node.py`` performs steps on its loop, a retry wave
    re-meters what it re-issues and the peer drivers run a peer's
    probes; all go through ``Dht._meter`` / ``perform`` instead of
    re-typing the ticks.  (A peer's forward — the initiator's one
    message included — is ``DhtStats.meter_forward``, called by the
    range kernel for both peer drivers.)"""
    counters = {"lookups", "gets", "puts", "removes"}

    def on_stats(node):
        """``stats.x`` / ``<anything>.stats.x``: a ``DhtStats`` field,
        not a result builder's tally of the same name."""
        owner = node.value
        return (isinstance(owner, ast.Name) and owner.id == "stats") or (
            isinstance(owner, ast.Attribute) and owner.attr == "stats"
        )

    found = []
    for relative, tree in trees():
        if relative == "dht/api.py":
            continue
        for function in ast.walk(tree):
            if not isinstance(
                function, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            ticks = [
                node for node in ast.walk(function)
                if (
                    isinstance(node, ast.AugAssign)
                    and isinstance(node.target, ast.Attribute)
                    and node.target.attr in counters
                    and on_stats(node.target)
                ) or (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "meter_batch"
                )
            ]
            if ticks:
                found.append(f"{relative}:{function.name}")
    assert not found, found
    # The peer's probe branch in particular: a forward ticks no get.
    handler = function_named("mcast/service.py", "_handle_mcast")
    assert not [
        node for node in ast.walk(handler)
        if isinstance(node, ast.Attribute) and node.attr == "gets"
    ]


#: The public metered facade: sugar over ``Dht.perform``, defined on
#: ``Dht`` alone so a wrapper has one seam to override.
METERED_METHODS = (
    "get", "get_many_outcomes", "put", "put_many", "remove",
    "rewrite_local", "lookup", "get_direct",
)


def facade_overrides() -> list[str]:
    """``<class>.<method>`` for every subclass of ``Dht`` defined under
    ``src/`` that defines one of the metered methods itself."""
    import repro  # noqa: F401 - registers every substrate and wrapper
    from repro.dht.api import Dht

    found, stack = [], list(Dht.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro."):
            found += [
                f"{cls.__qualname__}.{name}"
                for name in METERED_METHODS if name in vars(cls)
            ]
    return sorted(found)


def test_wrappers_override_perform_not_the_facade():
    """The public methods are one-line sugar on ``Dht``; a wrapper or
    substrate that redefines one sidesteps the seam a driven step
    takes."""
    assert not facade_overrides()


#: The only functions under ``src/`` that advance an operation: the
#: in-process trampoline and its loop twin on the service runtime.
TRAMPOLINES = {("dht/api.py", "drive"), ("service/node.py", "drive_on_loop")}


def operation_advances(source: str) -> list[str]:
    """``<function>:<line>`` for every ``next(name)``, ``x.send(...)``
    and ``x.throw(...)`` in *source*, by innermost enclosing function:
    a generator stepped by hand.  ``next`` of an attribute or of a
    generator expression draws an id or a first match, not a step."""
    def advances(call):
        func = call.func
        if isinstance(func, ast.Attribute):
            return func.attr in ("send", "throw")
        return (
            isinstance(func, ast.Name) and func.id == "next"
            and bool(call.args) and isinstance(call.args[0], ast.Name)
        )

    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and advances(child):
                found.append(f"{function}:{child.lineno}")
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_only_the_trampolines_advance_an_operation():
    """A peer driver runs its step on a trampoline — ``dht.drive`` or
    ``ServiceDht.drive_on_loop`` — with a forward as a ``CALL`` step,
    instead of a private loop of its own."""
    found = [
        f"{relative}:{where}"
        for path in sorted(SRC.rglob("*.py"))
        for relative in [path.relative_to(SRC).as_posix()]
        for where in operation_advances(path.read_text())
        if (relative, where.split(":")[0]) not in TRAMPOLINES
    ]
    assert not found, found
    # The check itself: a hand-driven agent loop is flagged, drawing an
    # id or a first match is not.
    assert operation_advances(
        "def handle_rpc(self, message):\n"
        "    request = next(step)\n"
        "    request = step.throw(error)\n"
        "    request = step.send(outcome)\n"
        "    ident = next(self._ids)\n"
        "    first = next(x for x in items)\n"
    ) == ["handle_rpc:2", "handle_rpc:3", "handle_rpc:4"]


def test_index_maintenance_reaches_the_facade_through_drive_only():
    """Insert, delete, split and merge yield steps; only the bootstrap
    put and the unmetered oracle views touch the DHT directly."""
    direct = {"_bootstrap", "buckets", "check_invariants"}
    tree = ast.parse((SRC / "core" / "index.py").read_text())
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "_dht"
                and node.attr not in ("drive", "stats")
                and function.name not in direct
            ):
                found.append(f"{function.name}:{node.lineno}: {node.attr}")
    assert not found, found
    for name in ("_insert", "_delete", "_split", "_merge"):
        body = function_named("core/index.py", name)
        assert any(
            isinstance(node, (ast.Yield, ast.YieldFrom))
            for node in ast.walk(body)
        ), name
