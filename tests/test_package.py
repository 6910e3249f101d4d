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
