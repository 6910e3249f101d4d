"""Tests for the top-level package surface and the exception hierarchy."""

import ast
import pathlib

import pytest

import repro
from repro import exceptions

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def imported_modules(path):
    """Every dotted name a file imports (``from a import b`` gives ``a`` and
    ``a.b``: ``b`` may be a submodule)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


class TestNoOrphanModules:
    def test_every_module_is_imported_somewhere(self):
        """A module nothing imports is dead however well documented —
        ``core/isolation.py`` and ``core/augmentation.py`` were the
        transformations' documented home for 17 PRs and ran nowhere."""
        src = REPO_ROOT / "src"
        modules = {
            ".".join(path.relative_to(src).with_suffix("").parts): path
            for path in src.rglob("*.py")
            if path.stem not in ("__init__", "__main__")}
        imports = {
            path: imported_modules(path)
            for top in ("src", "tests", "examples", "benchmarks")
            for path in (REPO_ROOT / top).rglob("*.py")}
        orphans = sorted(
            name for name, own in modules.items()
            if not any(name in found for path, found in imports.items()
                       if path != own))
        assert orphans == []


def _src_trees():
    return {path: ast.parse(path.read_text())
            for path in (REPO_ROOT / "src").rglob("*.py")}


def _names_used(names):
    """``(file, name)`` for each of ``names`` that ``src/`` defines, reads
    or reaches as an attribute."""
    return sorted({(path.name, name) for path, tree in _src_trees().items()
                   for node in ast.walk(tree)
                   for name in (getattr(node, "name", None),
                                getattr(node, "id", None),
                                getattr(node, "attr", None))
                   if name in names})


class TestOneChangePath:
    """A second compile-and-install path, a second gate-mode spelling or a
    renamed benchmark binding point would be easy to regrow and hard to
    notice: the transaction stays the one way in."""

    def test_install_full_has_one_call_site(self):
        calls = [path.name for path, tree in _src_trees().items()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "install_full"]
        assert calls == ["controller.py"]

    def test_gate_modes_are_spelled_once(self):
        spellings = [path.name for path, tree in _src_trees().items()
                     for node in ast.walk(tree)
                     if isinstance(node, (ast.Tuple, ast.List, ast.Set))
                     and {getattr(item, "value", None) for item in node.elts}
                     == {"off", "warn", "strict"}]
        assert spellings == ["diagnostics.py"]

    def test_only_core_reaches_through_a_handle(self):
        core = REPO_ROOT / "src" / "repro" / "core"
        reaches = [str(path.relative_to(REPO_ROOT))
                   for path, tree in _src_trees().items()
                   if core not in path.parents
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and node.attr == "_controller"]
        assert reaches == []

    def test_every_sdxbench_shim_binds_to_its_own_class(self):
        """``benchmarks/sdxbench/spans.py`` wraps ``cls.__dict__[method]``:
        a method moved to a base class or renamed breaks the traced
        benchmark. The file is parsed, not imported."""
        import importlib

        tree = ast.parse(
            (REPO_ROOT / "benchmarks" / "sdxbench" / "spans.py").read_text())
        modules = {alias.asname or alias.name: node.module
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module
                   for alias in node.names}
        (shims,) = [node.value for node in ast.walk(tree)
                    if isinstance(node, ast.AnnAssign)
                    and getattr(node.target, "id", None) == "SHIMS"]
        rows = [(row.elts[0].id, row.elts[1].value) for row in shims.elts]
        assert len(rows) >= 19
        for class_name, method in rows:
            cls = getattr(
                importlib.import_module(modules[class_name]), class_name)
            assert method in cls.__dict__, f"{class_name}.{method}"


class TestOneNumbering:
    """Priorities come from the compiler and from nowhere else: an aligner
    that recovers them from the switch, or a sorted-list flow table that
    such keys do not need, would be easy to regrow and hard to notice."""

    def test_nothing_imports_difflib(self):
        assert [path.name for path in _src_trees()
                if "difflib" in imported_modules(path)] == []

    def test_the_diff_module_aligns_nothing(self):
        tree = ast.parse((REPO_ROOT / "src" / "repro" / "southbound"
                          / "diff.py").read_text())
        names = {node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        names |= {target.id for node in ast.walk(tree)
                  if isinstance(node, ast.Assign)
                  for target in node.targets if isinstance(target, ast.Name)}
        assert "compute_delta" in names and "PRIORITY_CEILING" in names
        assert [name for name in names
                if "align" in name.lower() or "STRIDE" in name] == []

    def test_sync_classifier_has_one_call_site(self):
        calls = [path.name for path, tree in _src_trees().items()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "sync_classifier"]
        assert calls == ["incremental.py"]

    def test_the_flow_table_bisects_nothing(self):
        path = REPO_ROOT / "src" / "repro" / "dataplane" / "flowtable.py"
        assert not any(name.startswith("bisect")
                       for name in imported_modules(path))

    def test_the_compiler_alone_numbers_the_main_table(self):
        """``to_flow_rules`` numbers by position: fine for fast-path shadow
        rules and reference tables, wrong anywhere a key must survive."""
        users = sorted(
            str(path.relative_to(REPO_ROOT / "src" / "repro"))
            for path, tree in _src_trees().items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "to_flow_rules")
        assert users == ["core/incremental.py", "dataplane/flowtable.py"]


class TestOneRanking:
    """The route server ranks where it writes and keeps the result: a
    second ranking call site, or a second per-prefix index beside the
    Loc-RIB, is how "decide per prefix, on every read" would grow back."""

    def test_rank_routes_has_one_call_site(self):
        calls = [str(path.relative_to(REPO_ROOT / "src" / "repro"))
                 for path, tree in _src_trees().items()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None))
                 == "rank_routes"]
        assert calls == ["bgp/routeserver.py"]

    def test_the_announcer_index_is_gone(self):
        assert [path.name for path, tree in _src_trees().items()
                for node in ast.walk(tree)
                if getattr(node, "attr", getattr(node, "id", None))
                == "_announcers"] == []


def _decision_work(tree):
    """``(function, name, line)`` for each ``Decision(...)`` built and each
    parameter named ``decided`` in ``tree``: a decision taken outside the
    route server's one read, or handed from one reader to the next."""
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
            continue
        name = getattr(function, "name", "<lambda>")
        arguments = function.args
        found.extend(
            (name, "decided", argument.lineno)
            for argument in (*arguments.posonlyargs, *arguments.args,
                             *arguments.kwonlyargs, arguments.vararg,
                             arguments.kwarg)
            if argument is not None and argument.arg == "decided")
        found.extend(
            (name, "Decision", call.lineno) for call in ast.walk(function)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", getattr(call.func, "attr", None))
            == "Decision")
    return sorted(set(found))


class TestOneDecision:
    """The route server decides each prefix once per ranking and keeps the
    answer; every reader asks :meth:`RouteServer.decide`. A ``Decision``
    built elsewhere, or a ``decided`` handed along beside the prefixes, is
    a second decision table growing back."""

    def test_decisions_are_built_in_decide_alone(self):
        built = [(str(path.relative_to(REPO_ROOT / "src" / "repro")), name)
                 for path, tree in _src_trees().items()
                 for name, what, _line in _decision_work(tree)
                 if what == "Decision"]
        assert built == [("bgp/routeserver.py", "decide")]

    def test_no_function_takes_a_decided_parameter(self):
        assert [(path.name, name, line)
                for path, tree in _src_trees().items()
                for name, what, line in _decision_work(tree)
                if what == "decided"] == []

    def test_the_guard_sees_a_second_table(self):
        tree = ast.parse(
            "def handle(self, touched, decided=None):\n"
            "    return [decided.get(p) or Decision((), {}, frozenset())\n"
            "            for p in touched]\n"
            "push = lambda prefixes, *decided: prefixes\n")
        assert _decision_work(tree) == [
            ("<lambda>", "decided", 4), ("handle", "Decision", 2),
            ("handle", "decided", 1)]


def _called(node):
    """The names a function body calls (``f(...)`` and ``x.f(...)``)."""
    return {getattr(call.func, "id", getattr(call.func, "attr", None))
            for call in ast.walk(node) if isinstance(call, ast.Call)}


class TestOneScenario:
    """A single exchange is the one-exchange federation: one scenario type,
    one generator, one re-entry rule. A second generator, a ``Federated*``
    item type or a lift from one to the other is the old split growing
    back."""

    def test_one_generator(self):
        defs = [(str(path.relative_to(REPO_ROOT / "src" / "repro")),
                 node.name)
                for path, tree in _src_trees().items()
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith("generate_")
                and "scenario" in node.name]
        assert defs == [("verification/scenario.py", "generate_scenario")]

    def test_no_federated_item_types(self):
        suffixes = ("Scenario", "Participant", "Announcement", "Policy",
                    "TraceStep")
        names = [node.name for tree in _src_trees().values()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef)
                 and node.name.startswith("Federated")
                 and node.name.endswith(suffixes)]
        assert names == []

    def test_no_wrap_scenario(self):
        uses = [path.name for path, tree in _src_trees().items()
                for node in ast.walk(tree)
                if "wrap_scenario" in (getattr(node, "name", None),
                                       getattr(node, "id", None),
                                       getattr(node, "attr", None))]
        assert uses == []

    def test_the_reentry_rule_is_written_once(self):
        """Every arm — the real fabrics, the reference walk and the static
        walker behind SDX008/SDX009 — re-enters through
        ``federation/dataplane.py``."""
        rules = sorted(
            str(path.relative_to(REPO_ROOT / "src" / "repro"))
            for path, tree in _src_trees().items()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and {"presence", "best_route_for"} <= _called(node))
        assert rules == ["federation/dataplane.py"]


def _keys_on_port(node):
    """True if ``node`` returns a tuple holding a ``.get("port")`` read: a
    filing key over the ingress port, the way an overlap index builds
    one."""
    return any(
        isinstance(ret, ast.Return) and isinstance(ret.value, ast.Tuple)
        and any(isinstance(item, ast.Call)
                and isinstance(item.func, ast.Attribute)
                and item.func.attr == "get" and item.args
                and isinstance(item.args[0], ast.Constant)
                and item.args[0].value == "port"
                for item in ret.value.elts)
        for ret in ast.walk(node))


class TestOneOverlapIndex:
    """One class files matches for overlap — by tag, then port, then
    ``dstip`` — and the compiler's numbering and cover filter, the flow
    table and the verifier's committed spaces all read it. A
    second filing key, or a name of the three indexes it replaced, is the
    old split growing back."""

    SRC = REPO_ROOT / "src" / "repro"

    def test_the_replaced_indexes_are_gone(self):
        gone = {"ShadowIndex", "remove_shadowed", "_meeting", "_spaces_by_tag"}
        assert _names_used(gone) == []

    def test_one_class_files_by_tag_port_and_dstip(self):
        keyed = sorted({str(path.relative_to(self.SRC))
                        for path, tree in _src_trees().items()
                        for node in ast.walk(tree)
                        if isinstance(node, ast.FunctionDef)
                        and _keys_on_port(node)})
        assert keyed == ["policy/matchindex.py"]
        tree = ast.parse((self.SRC / "policy" / "matchindex.py").read_text())
        classes = [node.name for node in tree.body
                   if isinstance(node, ast.ClassDef)
                   and not node.name.startswith("_")]
        assert classes == ["MatchIndex"]

    def test_its_three_users_read_it(self):
        users = ("core/compiler.py", "dataplane/flowtable.py",
                 "statics/dataplane.py")
        assert [user for user in users
                if "repro.policy.matchindex.MatchIndex"
                not in imported_modules(self.SRC / user)] == []


def _type_dispatch(tree):
    """Line numbers where ``tree`` tests a value for being a prefix or a
    MAC, or a field for being an IP or MAC field — except a test that the
    value is a VMAC (``isinstance(x, MacAddress) and x.is_virtual``),
    which is the semantics of the tag space, not a dispatch."""
    vmac_guards = {id(operand) for node in ast.walk(tree)
                   if isinstance(node, ast.BoolOp)
                   and any(isinstance(other, ast.Attribute)
                           and other.attr == "is_virtual"
                           for other in node.values)
                   for operand in node.values}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance"
                and id(node) not in vmac_guards
                and {"IPv4Prefix", "MacAddress"} & {
                    getattr(name, "id", None)
                    for name in ast.walk(node.args[1])}):
            found.append(node.lineno)
        elif getattr(node, "id", None) in ("IP_FIELDS", "MAC_FIELDS"):
            found.append(node.lineno)
    return found


class TestOneFieldAlgebra:
    """Every match constraint is read as one integer ``(value, mask)``
    (``repro.policy.headerspace.value_mask``), and the algebra on it —
    meet, cover, admit, representative, atoms — is written once there. A
    per-type branch, or a name of the helpers it replaced, is the split
    growing back."""

    SRC = REPO_ROOT / "src" / "repro"

    def test_the_replaced_helpers_are_gone(self):
        gone = {"MatchAnyPrefix", "MatchAnyValue", "match_any_prefix",
                "match_any_value", "_prefix_atoms", "_exact_atoms",
                "AtomKey", "_intersect_constraint", "_constraint_covers",
                "_constraint_admits", "_eligibility_guard"}
        assert _names_used(gone) == []

    def test_only_the_header_space_tells_the_kinds_apart(self):
        scope = [path for path in sorted((self.SRC / "policy").glob("*.py"))
                 if path.name != "headerspace.py"]
        scope += [self.SRC / "statics" / "dataplane.py",
                  self.SRC / "core" / "compiler.py"]
        dispatch = {str(path.relative_to(self.SRC)): lines
                    for path in scope
                    for lines in [_type_dispatch(ast.parse(path.read_text()))]
                    if lines}
        assert dispatch == {}

    def test_the_guard_sees_a_dispatch(self):
        tree = ast.parse("if isinstance(c, IPv4Prefix): pass\n"
                         "ok = isinstance(m, MacAddress) and m.is_virtual\n"
                         "if field in IP_FIELDS: pass\n")
        assert _type_dispatch(tree) == [1, 3]


class TestOneSimulatedClock:
    """Simulated time is the runtime's ``ManualClock`` and the one traffic
    driver is ``MonitoredTrafficDriver``: Figure 5, the trace replay and
    the monitoring loops all run on them. A second clock loop, a second
    replayer or a name of what they replaced is the split growing back."""

    GONE = {"TrafficSimulation", "FlowSpec", "TimedAction", "TraceReplayer",
            "ReplayStats", "run_fig7", "run_fig8", "_sweep_series",
            "_loaded_controller", "_perturb_prefix"}

    def test_the_second_clocks_are_gone(self):
        experiments = REPO_ROOT / "src" / "repro" / "experiments"
        assert not (experiments / "traffic.py").exists()
        assert not (experiments / "replay.py").exists()
        assert _names_used(self.GONE) == []

    def test_the_experiments_package_exports_none_of_them(self):
        import repro.experiments
        from repro.experiments.metrics import Cdf

        assert self.GONE.isdisjoint(repro.experiments.__all__)
        assert [name for name in self.GONE
                if hasattr(repro.experiments, name)] == []
        assert "points" not in vars(Cdf)
        for module in ("traffic", "replay"):
            with pytest.raises(ImportError):
                __import__(f"repro.experiments.{module}")


class TestOneTableIndex:
    """The flow table answers overlap and lookup from one index, however
    many priority levels it holds, and the border routers read one shared
    table of what every router holding a route is given. A per-priority
    index, or tagged routes copied into every router, is the per-copy cost
    growing back."""

    def test_the_flow_table_files_every_level_in_one_index(self):
        from repro.dataplane.flowtable import FlowTable
        from repro.policy.classifier import Action
        from repro.policy.flowrules import FlowRule
        from repro.policy.headerspace import HeaderSpace
        from repro.policy.matchindex import MatchIndex

        table = FlowTable()
        for priority in range(1, 30):
            table.install(FlowRule(priority, HeaderSpace(port=priority % 3),
                                   (Action(port=9),)))
        found, seen, todo = [], set(), [vars(table)]
        while todo:
            held = todo.pop()
            if id(held) in seen:
                continue
            seen.add(id(held))
            if isinstance(held, MatchIndex):
                found.append(held)
            elif isinstance(held, dict):
                todo.extend(held.values())
            elif isinstance(held, (list, tuple)):
                todo.extend(held)
        assert found == [table._index]

    def test_routers_hold_only_their_exceptions(self):
        from repro.workloads import loaded_exchange

        controller, _ixp = loaded_exchange(8, 40, seed=0,
                                           with_dataplane=True)
        prefixes = controller.route_server.all_prefixes()
        assert len(controller.shared_routes) == len(prefixes)
        owns = controller.allocator.responder.owns
        overlays = 0
        for participant in controller.topology.participants():
            router = participant.router
            assert router.shared is controller.shared_routes
            assert not any(owns(next_hop)
                           for _prefix, next_hop in router._rib.items())
            overlays += len(router._hidden)
        assert overlays <= len(prefixes) + 2


def _per_member_work(tree):
    """``(name, line)`` of each call in ``tree`` that costs a pass over the
    peers or the members: a ``BestRouteChange(...)`` built, a
    ``participants()`` or a ``_policy_holders(...)`` called."""
    return sorted((name, call.lineno) for call in ast.walk(tree)
                  if isinstance(call, ast.Call)
                  for name in [getattr(call.func, "id",
                                       getattr(call.func, "attr", None))]
                  if name in ("BestRouteChange", "participants",
                              "_policy_holders"))


def _function(module, name):
    """The definition of ``name`` (a function or method) in ``module``."""
    tree = ast.parse((REPO_ROOT / "src" / "repro" / module).read_text())
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


class TestOneChangePerPrefix:
    """A BGP update costs the prefixes it moved and their exceptions: the
    route server reports each moved prefix's decision pair once, and the
    fast path and the router push look members up by name. A per-peer
    change built at ingest, or a scan of the membership per touched
    prefix, is the O(prefixes x peers) cost growing back."""

    def test_ingest_reports_decisions_not_peers(self):
        assert _per_member_work(
            _function("bgp/routeserver.py", "_apply_and_diff")) == []

    def test_the_fast_path_and_the_router_push_scan_no_membership(self):
        assert _per_member_work(
            _function("core/compiler.py", "compile_prefix")) == []
        assert _per_member_work(
            _function("core/controller.py", "_advertise_routers")) == []

    def test_the_guard_sees_per_member_work(self):
        tree = ast.parse(
            "def diff(self, peers, prefix):\n"
            "    moved = [BestRouteChange(p, prefix, None, None)\n"
            "             for p in peers]\n"
            "    members = self.topology.participants()\n"
            "    holders = self._policy_holders(members)\n"
            "    return len(moved), sorted(holders)\n")
        assert _per_member_work(tree) == [
            ("BestRouteChange", 2), ("_policy_holders", 5),
            ("participants", 4)]


class TestNoHiddenKnobs:
    """Every setting is an argument, a config field or a CLI option: a
    process-environment read is a knob no signature shows — the last two
    were a sleep inside the compiler and a benchmark fingerprint."""

    def test_nothing_reads_the_environment(self):
        reads = sorted(
            str(path.relative_to(REPO_ROOT / "src" / "repro"))
            for path, tree in _src_trees().items()
            for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) == "os"
                and node.attr in ("environ", "getenv"))
            or (isinstance(node, ast.ImportFrom) and node.module == "os"
                and {alias.name for alias in node.names}
                & {"environ", "getenv"}))
        assert reads == []


def _unused_imports(tree):
    """``(name, line)`` for each top-level import that nothing in the
    module reads: no ``ast.Name`` and no string constant that parses to
    an expression naming it (quoted annotations, ``__all__`` entries)."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(name.id for name in ast.walk(quoted)
                        if isinstance(name, ast.Name))
    return sorted((name, line) for name, line in bound.items()
                  if name not in read)


class TestNoUnusedImports:
    """An import nothing reads is dead code that still costs a reader and
    an import-time dependency. ``__init__`` modules are exempt: their
    imports are the package's exports."""

    def test_src_modules_read_every_import(self):
        assert [(str(path.relative_to(REPO_ROOT / "src" / "repro")), name)
                for path, tree in _src_trees().items()
                if path.name != "__init__.py"
                for name, _line in _unused_imports(tree)] == []

    def test_the_guard_sees_an_unused_import(self):
        tree = ast.parse(
            "from __future__ import annotations\n"
            "import itertools\n"
            "import os.path\n"
            "from typing import Dict, Optional\n"
            "from a import Quoted, Exported, Unused as Alias\n"
            "__all__ = ['Exported']\n"
            "def f(x: 'Optional[Quoted]') -> Dict:\n"
            "    return os.path.join(x)\n")
        assert _unused_imports(tree) == [("Alias", 5), ("itertools", 2)]


def _imports_threading(tree):
    return any(
        (isinstance(node, ast.Import)
         and any(alias.name.split(".")[0] == "threading"
                 for alias in node.names))
        or (isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "threading")
        for node in ast.walk(tree))


class TestOneRuntimeDriver:
    """The control-plane runtime is driven step by step by its caller; a
    worker thread draining beside that path is a second driver no oracle
    replays. Only the shareable telemetry and profiling objects
    synchronise."""

    def test_only_telemetry_and_profiling_import_threading(self):
        packages = {path.relative_to(REPO_ROOT / "src" / "repro").parts[0]
                    for path, tree in _src_trees().items()
                    if _imports_threading(tree)}
        assert packages <= {"telemetry", "profiling"}

    def test_the_runtime_has_no_worker(self):
        from repro.runtime import ControlPlaneRuntime, RuntimeConfig

        assert not {"start", "stop", "is_running"} & set(
            dir(ControlPlaneRuntime))
        assert "poll_interval_seconds" not in RuntimeConfig.__dataclass_fields__

    def test_the_guard_sees_a_threading_import(self):
        assert _imports_threading(ast.parse(
            "def run():\n    from threading import Thread\n"))
        assert _imports_threading(ast.parse("import os, threading\n"))
        assert not _imports_threading(ast.parse(
            "import threadpoolctl\nthreading = None\n"))


class TestLazyExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.not_a_thing

    def test_dir_lists_exports(self):
        listing = dir(repro)
        assert "SdxController" in listing
        assert "match" in listing

    def test_exports_are_cached(self):
        first = repro.SdxController
        second = repro.SdxController
        assert first is second

    def test_quickstart_surface(self):
        """The README quickstart's names all come from the top level."""
        sdx = repro.SdxController()
        sdx.add_participant("A", 65001)
        sdx.add_participant("B", 65002)
        sdx.participant("A").participant.add_outbound(
            repro.match(dstport=80) >> repro.fwd("B"))
        assert sdx.participant("A").participant.has_policies


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in ("AddressError", "PolicyError", "FieldError", "BgpError",
                     "SessionStateError", "OwnershipError", "FabricError",
                     "ParticipantError", "CompilationError"):
            assert issubclass(getattr(exceptions, name), exceptions.ReproError)

    def test_address_error_is_value_error(self):
        assert issubclass(exceptions.AddressError, ValueError)

    def test_field_error_is_key_error(self):
        assert issubclass(exceptions.FieldError, KeyError)

    def test_session_error_is_bgp_error(self):
        assert issubclass(exceptions.SessionStateError, exceptions.BgpError)

    def test_one_except_catches_everything(self):
        from repro.net.addresses import IPv4Address
        with pytest.raises(exceptions.ReproError):
            IPv4Address("not-an-ip")

    def test_config_error_in_family(self):
        from repro.config import ConfigError
        assert issubclass(ConfigError, exceptions.ReproError)
