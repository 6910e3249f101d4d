"""Documentation gates: every public member documented, docs in sync."""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def walk_public_members():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name == "repro.__main__":
            continue
        names.append(info.name)
    for module_name in sorted(names):
        module = importlib.import_module(module_name)
        for name, value in sorted(vars(module).items()):
            if name.startswith("_") or inspect.ismodule(value):
                continue
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value) or inspect.isfunction(value):
                yield module_name, name, value


class TestDocCoverage:
    def test_every_module_has_a_docstring(self):
        names = ["repro"] + [
            info.name
            for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        ]
        missing = [
            name for name in names
            if not (importlib.import_module(name).__doc__ or "").strip()
        ]
        assert missing == []

    def test_every_public_member_has_a_docstring(self):
        missing = [
            f"{module_name}.{name}"
            for module_name, name, value in walk_public_members()
            if not (inspect.getdoc(value) or "").strip()
        ]
        assert missing == []

    def test_public_methods_have_docstrings(self):
        missing = []
        for module_name, name, value in walk_public_members():
            if not inspect.isclass(value):
                continue
            for method_name, method in vars(value).items():
                if method_name.startswith("_"):
                    continue
                if not callable(method) and not isinstance(method, property):
                    continue
                target = method.fget if isinstance(method, property) else method
                if target is None or not callable(target):
                    continue
                if not (inspect.getdoc(target) or "").strip():
                    missing.append(f"{module_name}.{name}.{method_name}")
        assert missing == []


class TestDocFiles:
    def test_required_documents_exist(self):
        for filename in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                         "docs/ARCHITECTURE.md", "docs/API.md"):
            path = REPO_ROOT / filename
            assert path.exists(), f"missing {filename}"
            assert len(path.read_text()) > 500

    def test_experiments_covers_every_figure(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        for anchor in ("Table 1", "Figure 5a", "Figure 5b", "Figure 6",
                       "Figure 7", "Figure 8", "Figure 9", "Figure 10"):
            assert anchor in text

    def test_design_indexes_every_benchmark(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        bench_dir = REPO_ROOT / "benchmarks"
        for bench in bench_dir.glob("bench_fig*.py"):
            assert bench.name in text or bench.stem.split("_")[1] in text

    def test_design_lists_exactly_the_core_modules(self):
        """The ``core/`` block of DESIGN.md's tree names the files that
        exist — no row for a deleted module, none missing."""
        lines = (REPO_ROOT / "DESIGN.md").read_text().splitlines()
        start = next(index for index, line in enumerate(lines)
                     if line.startswith("  core/"))
        listed = set()
        for line in lines[start + 1:]:
            if not line.startswith("    "):
                break
            first = line.split()[0]
            if line[4] != " " and first.endswith(".py"):
                listed.add(first)
        on_disk = {path.name for path in
                   (REPO_ROOT / "src" / "repro" / "core").glob("*.py")
                   if path.name != "__init__.py"}
        assert listed == on_disk

    def test_api_doc_generator_runs_clean(self, tmp_path):
        import tools.gen_api_docs as generator
        original = generator.OUTPUT
        generator.OUTPUT = tmp_path / "API.md"
        try:
            assert generator.main() == 0
            assert (tmp_path / "API.md").exists()
        finally:
            generator.OUTPUT = original


#: A metric name: what a registration names, what a catalogue cell names
#: up to its label set.
METRIC_NAME = re.compile(r"sdx_[a-z0-9_]+")

#: The series ``monitoring/stats.py`` names with an f-string, one per axis.
FORMATTED_METRICS = frozenset(
    f"sdx_dataplane_{axis}_rate_mbps" for axis in ("fec", "participant", "port"))


def metric_literals():
    """Every whole ``"sdx_..."`` string literal under ``src/repro``.

    Any literal, not only the first argument of a registry call: some
    modules register through aliases or a tuple of names. The constant
    parts of an f-string are not names and are skipped."""
    names = set()
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text())
        formatted = {id(part) for node in ast.walk(tree)
                     if isinstance(node, ast.JoinedStr) for part in node.values}
        names.update(
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in formatted
            and METRIC_NAME.fullmatch(node.value))
    return names


def catalogued_metrics():
    """The metric names in the first cell of ``docs/OBSERVABILITY.md``'s
    table rows."""
    names = set()
    for line in (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text(
            ).splitlines():
        if line.startswith("| "):
            names.update(METRIC_NAME.findall(line[2:].split(" | ")[0]))
    return names


class TestMetricCatalogue:
    def test_every_series_is_documented_and_every_documented_one_is_live(self):
        live = metric_literals() | FORMATTED_METRICS
        documented = catalogued_metrics()
        assert sorted(live - documented) == []
        assert sorted(documented - live) == []


def documented_spans():
    """The span names of the tree in docs/OBSERVABILITY.md §2: a name
    sits left of the description column, after any tree drawing."""
    text = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text()
    section = text[text.index("## 2. Span taxonomy"):
                   text.index("## 3. Metric families")]
    tree = section.split("```")[1]
    names = set()
    for line in tree.splitlines():
        name = line[:36].strip(" │├└─…")
        if name:
            names.add(name)
    return names


class TestSpanCatalogue:
    def test_every_span_is_documented_and_every_documented_one_is_live(self):
        from tests.profiling.test_phases import opened_span_names
        live, documented = opened_span_names(), documented_spans()
        assert sorted(live - documented) == []
        assert sorted(documented - live) == []

    def test_every_compile_span_tag_is_documented(self):
        """The compile span's work counts are the unit a change is judged
        by: each tag a compilation sets is named in its catalogue entry."""
        from tests.core.scenarios import figure1_controller
        sdx = figure1_controller()[0]
        sdx.start()
        span = [s for s in sdx.telemetry.tracer.finished()
                if s.name == "compile"][-1]
        text = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text()
        entry = text[text.index("├─ compile "):text.index("├─ compile.fec")]
        assert {"rebuilt", "dirty_prefixes", "groups_rebuilt",
                "rules_numbered"} <= set(span.tags)
        assert sorted(tag for tag in span.tags
                      if f"{tag} —" not in entry
                      and f"{tag}," not in entry) == []


def load_example(stem):
    """Import one example module from ``examples/`` by file stem."""
    path = REPO_ROOT / "examples" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(f"example_{stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExampleSmoke:
    """Every documented example builds (and the federated one runs)."""

    BUILDERS = (
        ("application_specific_peering", "build"),
        ("config_file_exchange", "build_exchange"),
        ("federated_exchanges", "build"),
        ("inbound_traffic_engineering", "build"),
        ("middlebox_redirection", "build"),
        ("quickstart", "build"),
        ("service_chaining", "build"),
        ("synthetic_ixp", "build"),
        ("wide_area_load_balancer", "build"),
    )

    def test_smoke_covers_every_example(self):
        stems = sorted(path.stem
                       for path in (REPO_ROOT / "examples").glob("*.py"))
        assert stems == sorted(stem for stem, _ in self.BUILDERS)

    @pytest.mark.parametrize("stem,builder", BUILDERS)
    def test_example_builds(self, stem, builder):
        module = load_example(stem)
        built = getattr(module, builder)()
        assert built is not None

    def test_federated_example_narrative_runs(self, capsys):
        # main() walks the full acceptance story: the loop-prone pair is
        # flagged with a witness, strict mode rejects it at install time,
        # and with statics off the reference forwards the witness in a
        # cycle. Its asserts are the acceptance criteria.
        load_example("federated_exchanges").main()
        out = capsys.readouterr().out
        assert "SDX008" in out
