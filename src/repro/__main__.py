"""Command-line entry point: regenerate any table or figure directly.

Examples::

    python -m repro table1
    python -m repro fig6 --participants 100 200 300
    python -m repro fig10 --updates 100
    python -m repro replay --participants 80 --prefixes 1000 --updates 200
    python -m repro list
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.harness import (
    run_compilation_sweep,
    run_fig5a,
    run_fig5b,
    run_fig6,
    run_fig9,
    run_fig10,
    run_table1,
)
from repro.experiments.metrics import render_series, render_table
from repro.statics.diagnostics import GATE_MODES

EXPERIMENTS = {
    "table1": "Table 1 - IXP dataset statistics",
    "fig5a": "Figure 5a - application-specific peering timeline",
    "fig5b": "Figure 5b - wide-area load balance timeline",
    "fig6": "Figure 6 - prefix groups vs prefixes",
    "fig7": "Figure 7 - flow rules vs prefix groups",
    "fig8": "Figure 8 - compilation time vs prefix groups",
    "fig9": "Figure 9 - additional rules vs burst size",
    "fig10": "Figure 10 - per-update processing CDF",
    "replay": "burst-aware trace replay (Section 4.3.2 scheduling)",
    "check": "load a JSON exchange config, compile it, report",
    "lint-policies": "static policy verifier: lint configs (single-exchange "
                     "or federated), examples, or generated workloads "
                     "pre-compilation",
    "lint-dataplane": "dataplane verifier: SDX010-SDX013 analysis of the "
                      "flow rules a compiled workload actually installs",
    "stats": "run a small workload, dump the telemetry metrics registry",
    "trace": "run a small workload, print the pipeline span tree",
    "fuzz": "differential fuzzing of the update pipeline "
            "(--federation: multi-exchange cross-validation)",
    "soak": "drive a burst trace through the control-plane runtime "
            "(--chaos: seeded BGP session fault injection)",
    "monitor": "closed-loop data-plane monitoring: snapshot, watch, "
               "or smoke-test a reactive scenario",
    "profile": "phase-attributed profiling of a compile+update workload "
               "(tables, flamegraph folded stacks, scoped cProfile)",
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the SDX paper's evaluation results.")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")

    def common(name: str) -> argparse.ArgumentParser:
        command = sub.add_parser(name, help=EXPERIMENTS[name])
        command.add_argument("--seed", type=int, default=0)
        return command

    table1 = common("table1")
    table1.add_argument("--scale", type=float, default=0.002,
                        help="dataset scale factor (default 0.002)")

    for name in ("fig5a", "fig5b"):
        fig5 = common(name)
        fig5.add_argument("--time-scale", type=float, default=0.1,
                          help="timeline compression (1.0 = real time)")

    fig6 = common("fig6")
    fig6.add_argument("--participants", type=int, nargs="+",
                      default=[100, 200, 300])
    fig6.add_argument("--prefixes", type=int, nargs="+",
                      default=[5_000, 10_000, 15_000, 20_000, 25_000])

    for name in ("fig7", "fig8"):
        sweep = common(name)
        sweep.add_argument("--participants", type=int, nargs="+",
                           default=[100, 200, 300])
        sweep.add_argument("--prefixes", type=int, nargs="+",
                           default=[2_000, 5_000, 10_000, 15_000])

    fig9 = common("fig9")
    fig9.add_argument("--participants", type=int, nargs="+",
                      default=[100, 200, 300])
    fig9.add_argument("--bursts", type=int, nargs="+",
                      default=[1, 5, 10, 20, 40, 60, 80, 100])
    fig9.add_argument("--prefixes", type=int, default=2_000)

    fig10 = common("fig10")
    fig10.add_argument("--participants", type=int, nargs="+",
                       default=[100, 200, 300])
    fig10.add_argument("--updates", type=int, default=150)
    fig10.add_argument("--prefixes", type=int, default=2_000)

    check = sub.add_parser("check", help=EXPERIMENTS["check"])
    check.add_argument("config", help="path to a JSON exchange config")

    lint = sub.add_parser("lint-policies", help=EXPERIMENTS["lint-policies"])
    lint.add_argument("config", nargs="*",
                      help="JSON exchange config file(s) to lint")
    lint.add_argument("--examples", nargs="?", const="examples", default=None,
                      metavar="DIR",
                      help="lint every example app exposing build() in DIR "
                           "(default: examples/)")
    lint.add_argument("--workload", action="store_true",
                      help="lint a generated exchange running the paper's "
                           "application policies (peering + inbound TE)")
    lint.add_argument("--defects", action="store_true",
                      help="inject one seeded defect per class into a "
                           "Section 6.1 workload and require the analyzer "
                           "to detect every one")
    lint.add_argument("--federation-defects", action="store_true",
                      help="inject a seeded inter-exchange loop and a "
                           "stitched blackhole into a generated federation "
                           "and require SDX008/SDX009 to detect both")
    lint.add_argument("--exchanges", type=int, default=2,
                      help="exchanges in the generated federation "
                           "(with --federation-defects; default 2)")
    lint.add_argument("--participants", type=int, default=12)
    lint.add_argument("--prefixes", type=int, default=80)
    lint.add_argument("--seed", type=int, default=0)
    lint.add_argument("--json", action="store_true",
                      help="emit the merged report as JSON on stdout")
    lint.add_argument("--output", default=None, metavar="FILE",
                      help="also write the JSON report to FILE")

    lintdp = sub.add_parser("lint-dataplane",
                            help=EXPERIMENTS["lint-dataplane"])
    lintdp.add_argument("--workload", action="store_true",
                        help="compile a generated exchange running the "
                             "paper's application policies and verify the "
                             "installed flow table")
    lintdp.add_argument("--defects", action="store_true",
                        help="inject one seeded dataplane defect per class "
                             "(compiled blackhole, shadowed install) into a "
                             "compiled workload and require the verifier to "
                             "detect every one")
    lintdp.add_argument("--participants", type=int, default=12)
    lintdp.add_argument("--prefixes", type=int, default=80)
    lintdp.add_argument("--seed", type=int, default=0)
    lintdp.add_argument("--json", action="store_true",
                        help="emit the merged report as JSON on stdout")
    lintdp.add_argument("--output", default=None, metavar="FILE",
                        help="also write the JSON report to FILE")

    replay = common("replay")
    replay.add_argument("--participants", type=int, default=80)
    replay.add_argument("--prefixes", type=int, default=1_000)
    replay.add_argument("--updates", type=int, default=200)
    replay.add_argument("--gap", type=float, default=10.0,
                        help="background-recompilation gap threshold (s)")

    def telemetry_command(name: str) -> argparse.ArgumentParser:
        command = common(name)
        command.add_argument("--participants", type=int, default=20)
        command.add_argument("--prefixes", type=int, default=200)
        command.add_argument("--updates", type=int, default=20)
        return command

    stats = telemetry_command("stats")
    stats.add_argument("--format", choices=("table", "json", "prometheus"),
                       default="table",
                       help="output format (default: table)")

    trace = telemetry_command("trace")
    trace.add_argument("--json", action="store_true",
                       help="emit the span forest as JSON instead of a tree")

    def session_arguments(parser, *, scenarios, steps, policies):
        """The flags every budgeted harness session shares."""
        parser.add_argument("--scenarios", type=int, default=scenarios,
                            help=f"independent scenarios (default {scenarios})")
        parser.add_argument("--steps", type=int, default=steps,
                            help=f"BGP trace steps per scenario "
                                 f"(default {steps})")
        parser.add_argument("--policies", type=int, default=policies,
                            help="generated policies per scenario")
        parser.add_argument("--artifact-dir", default=None,
                            help="directory for replayable failure artifacts")
        parser.add_argument("--time-budget", type=float, default=None,
                            help="wall-clock budget in seconds")
        parser.add_argument("--no-shrink", action="store_true",
                            help="skip fault/trace minimisation on failure")
        parser.add_argument("--replay", default=None, metavar="ARTIFACT",
                            help="replay any saved failure artifact (fuzz, "
                                 "federated or chaos) under the checks it "
                                 "recorded, instead of running a session")

    fuzz = common("fuzz")
    session_arguments(fuzz, scenarios=5, steps=12, policies=5)
    fuzz.add_argument("--participants", type=int, default=4)
    fuzz.add_argument("--prefixes", type=int, default=4)
    fuzz.add_argument("--runtime", action="store_true",
                      help="also replay each scenario through the "
                           "control-plane runtime and check equivalence")
    fuzz.add_argument("--statics", action="store_true",
                      help="also cross-validate static-analyzer verdicts "
                           "(dead clauses, route-less forwards) against "
                           "the reference interpreter")
    fuzz.add_argument("--dataplane", action="store_true",
                      help="also cross-validate the dataplane verifier: "
                           "incremental-vs-full byte identity plus the "
                           "SDX010-SDX013 witness contracts on every "
                           "trace step")
    fuzz.add_argument("--federation", action="store_true",
                      help="fuzz multi-exchange federations instead: "
                           "SDX008/SDX009 witness contracts plus the "
                           "real-vs-reference federated walk comparison; "
                           "the other checks then run per member "
                           "exchange")
    fuzz.add_argument("--exchanges", type=int, default=2,
                      help="exchanges per federated scenario "
                           "(with --federation; default 2)")

    soak = common("soak")
    soak.add_argument("--participants", type=int, default=None,
                      help="exchange size (default 20; 4 in --chaos mode)")
    soak.add_argument("--prefixes", type=int, default=None,
                      help="prefix count (default 200; 4 in --chaos mode)")
    soak.add_argument("--updates", type=int, default=1_000,
                      help="total updates to push (default 1000)")
    soak.add_argument("--burst-size", type=int, default=100,
                      help="updates per burst (default 100)")
    soak.add_argument("--hot-prefixes", type=int, default=16,
                      help="size of the churning prefix set (default 16)")
    soak.add_argument("--rate", type=float, default=None,
                      help="target update rate (updates/s); default: "
                           "as fast as possible")
    soak.add_argument("--queue-depth", type=int, default=1_024)
    soak.add_argument("--batch-size", type=int, default=64)
    soak.add_argument("--overload", default="block",
                      choices=("block", "shed-oldest", "degrade"))
    soak.add_argument("--no-coalesce", action="store_true",
                      help="disable per-(participant, prefix) coalescing")
    soak.add_argument("--threaded", action="store_true",
                      help="run the runtime's worker thread instead of "
                           "the deterministic step-driven mode")
    soak.add_argument("--chaos", action="store_true",
                      help="run the BGP session fault-injection soak "
                           "instead of the clean burst soak")
    chaos = soak.add_argument_group("--chaos session")
    session_arguments(chaos, scenarios=3, steps=16, policies=4)
    chaos.add_argument("--faults", type=int, default=6,
                       help="faults per schedule (default 6, one of each "
                            "class)")
    chaos.add_argument("--fault-kinds", default=None,
                       help="comma-separated subset of the fault classes "
                            "(default: all six)")

    monitor = common("monitor")
    monitor.add_argument("--scenario", choices=("shifting", "skewed"),
                         default="shifting",
                         help="shifting: reactive inbound balancing; "
                              "skewed: heavy-hitter offload")
    monitor.add_argument("--watch", action="store_true",
                         help="print one line per monitor sample as the "
                              "scenario runs (instead of only the final "
                              "snapshot)")
    monitor.add_argument("--duration", type=float, default=40.0,
                         help="simulated seconds to drive (default 40)")
    monitor.add_argument("--shift-time", type=float, default=10.0,
                         help="when the traffic shift/surge hits (default 10)")
    monitor.add_argument("--cadence", type=float, default=1.0,
                         help="monitor sampling cadence in simulated "
                              "seconds (default 1.0)")
    monitor.add_argument("--statics-mode", default="strict",
                         choices=GATE_MODES,
                         help="statics gate for reactive policy changes "
                              "(default strict)")
    monitor.add_argument("--json", action="store_true",
                         help="emit JSON (watch lines become JSON objects)")
    monitor.add_argument("--output", default=None, metavar="FILE",
                         help="also write the JSON report to FILE")
    monitor.add_argument("--smoke", action="store_true",
                         help="exit 1 unless the reactive app converges "
                              "(the CI monitor-smoke gate)")
    monitor.add_argument("--converge-within", type=int, default=8,
                         metavar="N",
                         help="runtime steps allowed between the shift and "
                              "the corrective FlowMod (default 8)")

    profile = common("profile")
    profile.add_argument("--participants", type=int, default=100)
    profile.add_argument("--prefixes", type=int, default=2_000)
    profile.add_argument("--updates", type=int, default=30,
                         help="fast-path updates to drive after the "
                              "initial compilation (default 30)")
    profile.add_argument("--flamegraph", action="store_true",
                         help="emit folded stacks (flamegraph.pl input) "
                              "on stdout; the phase table moves to stderr")
    profile.add_argument("--memory", action="store_true",
                         help="snapshot tracemalloc at span boundaries "
                              "(net/peak bytes per phase)")
    profile.add_argument("--cprofile", default=None, metavar="SPAN",
                         help="capture cProfile scoped to the first "
                              "occurrence of this span (e.g. 'compile')")
    profile.add_argument("--json", action="store_true",
                         help="emit the phase report as JSON")
    profile.add_argument("--output", default=None, metavar="FILE",
                         help="also write the report (JSON) or folded "
                              "stacks to FILE")
    profile.add_argument("--min-coverage", type=float, default=None,
                         metavar="FRACTION",
                         help="exit non-zero unless at least this "
                              "fraction of wall time is attributed to "
                              "named stages")
    return parser


def _run_table1(args) -> str:
    rows = run_table1(scale=args.scale, seed=args.seed)
    return render_table(
        ["IXP", "prefixes", "updates", "%updated (paper)", "%updated"],
        [[row.profile.name, row.measured_prefixes, row.measured_updates,
          f"{row.profile.fraction_prefixes_updated:.2%}",
          f"{row.measured_fraction_updated:.2%}"] for row in rows])


def _run_fig5(args, runner) -> str:
    series, events = runner(time_scale=args.time_scale)
    header = "\n".join(f"t={when:.0f}s: {label}" for when, label in events)
    body = render_series([series[label] for label in sorted(series)],
                         "time(s)", "Mbps", max_rows=20)
    return header + "\n\n" + body


def _run_sweep(args, value_label: str, value) -> str:
    points = run_compilation_sweep(
        participant_counts=args.participants,
        prefix_counts=args.prefixes, seed=args.seed)
    return render_table(
        ["participants", "prefixes", "prefix groups", value_label],
        [[p.participants, p.prefixes, p.prefix_groups, value(p)]
         for p in points])


def _run_replay(args) -> str:
    from repro.experiments.replay import TraceReplayer
    from repro.workloads.policies import generate_policies, install_assignments
    from repro.workloads.topology import generate_ixp
    from repro.workloads.updates import generate_trace

    ixp = generate_ixp(args.participants, args.prefixes, seed=args.seed)
    controller = ixp.build_controller()
    install_assignments(controller, generate_policies(ixp, seed=args.seed + 1))
    result = controller.start()
    events = generate_trace(ixp, seed=args.seed + 2, max_updates=args.updates)
    stats = TraceReplayer(
        controller, background_gap_seconds=args.gap).replay(events)
    return (f"initial table: {result.flow_rule_count} rules, "
            f"{result.prefix_group_count} groups\n" + stats.summary())


def _telemetry_workload(args):
    """Build a small exchange, drive updates through it, return its controller.

    Shared by the ``stats`` and ``trace`` subcommands: generate an IXP and
    policies, start the controller, replay a short update trace through
    the live pipeline, and finish with one background re-optimisation so
    every stage (ingest, fast path, compile, southbound, flow table) has
    recorded activity.
    """
    from repro.workloads.policies import generate_policies, install_assignments
    from repro.workloads.topology import generate_ixp
    from repro.workloads.updates import generate_trace

    ixp = generate_ixp(args.participants, args.prefixes, seed=args.seed)
    controller = ixp.build_controller()
    install_assignments(controller, generate_policies(ixp, seed=args.seed + 1))
    controller.start()
    events = generate_trace(ixp, seed=args.seed + 2, max_updates=args.updates)
    for event in events:
        controller.submit_update(event.update)
    controller.run_background_recompilation()
    return controller


def _run_stats(args) -> str:
    from repro.telemetry.export import prometheus_exposition, render_json

    controller = _telemetry_workload(args)
    if args.format == "json":
        return render_json(controller.telemetry)
    if args.format == "prometheus":
        return prometheus_exposition(controller.telemetry.registry)
    return controller.telemetry.registry.render()


def _run_trace(args) -> str:
    import json as json_module

    controller = _telemetry_workload(args)
    tracer = controller.telemetry.tracer
    if args.json:
        return json_module.dumps(tracer.span_tree(), indent=2)
    return tracer.render()


def _replay_artifact(path: str) -> int:
    """``--replay`` for both harness commands: any artifact, its checks."""
    from repro.verification import replay_artifact

    failure = replay_artifact(path)
    if failure is None:
        print(f"replay {path}: no failure reproduced")
        return 0
    print(f"replay {path}: {failure}")
    return 1


def _run_fuzz(args) -> int:
    from repro.verification import FuzzConfig, run_fuzz

    if args.replay is not None:
        return _replay_artifact(args.replay)
    report = run_fuzz(FuzzConfig(
        seed=args.seed, scenarios=args.scenarios, steps=args.steps,
        participants=args.participants, prefixes=args.prefixes,
        policies=args.policies, artifact_dir=args.artifact_dir,
        time_budget_seconds=args.time_budget, shrink=not args.no_shrink,
        checks=tuple(
            name for name in ("runtime", "statics", "dataplane",
                              "federation") if getattr(args, name)),
        exchanges=args.exchanges))
    print(report.summary())
    return 0 if report.ok else 1


def _lint_workload_controller(args):
    """A generated exchange running the paper's application policies."""
    from repro.apps.inbound_te import split_inbound_by_source
    from repro.apps.peering import application_specific_peering
    from repro.workloads.topology import generate_ixp

    ixp = generate_ixp(args.participants, args.prefixes, seed=args.seed)
    controller = ixp.build_controller()
    server = controller.route_server

    # Application-specific peering between the first pair with eligible
    # routes, so the installed forwards survive the BGP join.
    names = [spec.name for spec in ixp.participants]
    for sender in names:
        peer = next(
            (candidate for candidate in names if candidate != sender
             and server.reachable_prefixes(sender, via=candidate)), None)
        if peer is not None:
            application_specific_peering(
                controller.participant(sender), peer,
                applications=("web", "dns"))
            break

    # Inbound traffic engineering on the first multi-port member.
    for spec in ixp.participants:
        if spec.ports >= 2:
            split_inbound_by_source(controller.participant(spec.name))
            break
    return controller


def _lint_defect_run(args):
    """(report, defects, missed) for the seeded-defect recall mode."""
    from repro.statics import analyze_controller
    from repro.workloads.policies import (
        defect_detected,
        defect_documents,
        generate_policies,
        inject_defects,
        install_assignments,
    )
    from repro.workloads.topology import generate_ixp

    ixp = generate_ixp(args.participants, args.prefixes, seed=args.seed)
    controller = ixp.build_controller()
    install_assignments(controller, generate_policies(ixp, seed=args.seed))
    defects = inject_defects(controller, seed=args.seed)
    report = analyze_controller(
        controller, raw_policies=defect_documents(defects))
    missed = [d for d in defects if not defect_detected(d, report)]
    return report, defects, missed


def _lint_federation_defect_run(args):
    """(report, defects, missed) for the federation defect recall mode."""
    from repro.federation import analyze_federation, generate_federated_scenario
    from repro.workloads.policies import (
        defect_detected,
        inject_federation_defects,
    )

    # A random presence assignment occasionally lacks two shared
    # participants with two common exchanges; walk derived seeds until
    # the injectors find their canonical shape.
    last_error: Exception | None = None
    federation = None
    defects = []
    for attempt in range(8):
        scenario = generate_federated_scenario(
            args.seed + attempt, exchanges=args.exchanges,
            participants=max(args.participants, 2 * args.exchanges),
            policies=0)
        federation = scenario.build_controller(with_dataplane=False)
        try:
            defects = inject_federation_defects(federation, seed=args.seed)
            break
        except ValueError as error:
            last_error = error
    else:
        raise SystemExit(f"lint-policies --federation-defects: no suitable "
                         f"federation shape in 8 attempts: {last_error}")
    report = analyze_federation(federation)
    missed = [d for d in defects if not defect_detected(d, report)]
    return report, defects, missed


def _lint_example_targets(directory: str):
    """(label, controller) for every example app exposing ``build()``."""
    import importlib.util
    import pathlib

    targets = []
    for path in sorted(pathlib.Path(directory).glob("*.py")):
        spec = importlib.util.spec_from_file_location(
            f"_lint_example_{path.stem}", path)
        if spec is None or spec.loader is None:
            continue
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        build = getattr(module, "build", None)
        if build is None:
            continue
        targets.append((str(path), build()))
    return targets


def _run_lint(args) -> int:
    import json as json_module

    from repro.statics import analyze_controller, lint_config

    if not (args.config or args.examples or args.workload or args.defects
            or args.federation_defects):
        print("lint-policies: nothing to lint (pass a config file, "
              "--examples, --workload, --defects, or --federation-defects)",
              file=sys.stderr)
        return 2

    defect_labels = ("defects", "federation-defects")
    results = []   # (label, StaticsReport)
    missed_defects = []
    for path in args.config:
        with open(path) as handle:
            document = json_module.loads(handle.read())
        results.append((path, lint_config(document)))
    if args.examples:
        for label, controller in _lint_example_targets(args.examples):
            results.append((label, analyze_controller(controller)))
    if args.workload:
        controller = _lint_workload_controller(args)
        results.append(("workload", analyze_controller(controller)))
    defects = []
    if args.defects:
        report, single_defects, single_missed = _lint_defect_run(args)
        results.append(("defects", report))
        defects.extend(single_defects)
        missed_defects.extend(single_missed)
    if args.federation_defects:
        report, federation_defects, federation_missed = (
            _lint_federation_defect_run(args))
        results.append(("federation-defects", report))
        defects.extend(federation_defects)
        missed_defects.extend(federation_missed)

    payload = {
        "targets": [
            {"target": label, **report.to_dict()} for label, report in results
        ],
    }
    if defects:
        payload["defects"] = {
            "injected": [d.description for d in defects],
            "missed": [d.description for d in missed_defects],
        }
    failed = any(report.has_errors for label, report in results
                 if label not in defect_labels) or bool(missed_defects)
    payload["ok"] = not failed

    rendered = json_module.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered + "\n")
    if args.json:
        print(rendered)
    else:
        for label, report in results:
            print(f"== {label}: {report.summary()}")
            text = report.render()
            if report.diagnostics:
                print(text)
        if defects:
            print(f"== defect recall: {len(defects) - len(missed_defects)}"
                  f"/{len(defects)} detected")
            for defect in missed_defects:
                print(f"  MISSED: {defect.description}")
    return 1 if failed else 0


def _lint_dataplane_defect_run(args):
    """(report, defects, missed) for the dataplane defect recall mode."""
    from repro.statics import analyze_controller_dataplane
    from repro.workloads.policies import (
        defect_detected,
        generate_policies,
        inject_dataplane_defects,
        install_assignments,
    )
    from repro.workloads.topology import generate_ixp

    ixp = generate_ixp(args.participants, args.prefixes, seed=args.seed)
    controller = ixp.build_controller()
    install_assignments(controller, generate_policies(ixp, seed=args.seed))
    controller.start()
    defects = inject_dataplane_defects(controller, seed=args.seed)
    report = analyze_controller_dataplane(controller)
    missed = [d for d in defects if not defect_detected(d, report)]
    return report, defects, missed


def _run_lint_dataplane(args) -> int:
    import json as json_module

    from repro.statics import analyze_controller_dataplane

    if not (args.workload or args.defects):
        print("lint-dataplane: nothing to verify (pass --workload or "
              "--defects)", file=sys.stderr)
        return 2

    results = []   # (label, StaticsReport)
    defects = []
    missed_defects = []
    if args.workload:
        controller = _lint_workload_controller(args)
        controller.start()
        results.append(("workload", analyze_controller_dataplane(controller)))
    if args.defects:
        report, injected, missed = _lint_dataplane_defect_run(args)
        results.append(("defects", report))
        defects.extend(injected)
        missed_defects.extend(missed)

    payload = {
        "targets": [
            {"target": label, **report.to_dict()} for label, report in results
        ],
    }
    if defects:
        payload["defects"] = {
            "injected": [d.description for d in defects],
            "missed": [d.description for d in missed_defects],
        }
    failed = any(report.has_errors for label, report in results
                 if label != "defects") or bool(missed_defects)
    payload["ok"] = not failed

    rendered = json_module.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered + "\n")
    if args.json:
        print(rendered)
    else:
        for label, report in results:
            print(f"== {label}: {report.summary()}")
            if report.diagnostics:
                print(report.render())
        if defects:
            print(f"== defect recall: {len(defects) - len(missed_defects)}"
                  f"/{len(defects)} detected")
            for defect in missed_defects:
                print(f"  MISSED: {defect.description}")
    return 1 if failed else 0


def _run_chaos_soak(args) -> int:
    from repro.chaos import ChaosSoakConfig, run_chaos_soak
    from repro.workloads.churn import FAULT_KINDS

    if args.replay is not None:
        return _replay_artifact(args.replay)
    kinds = FAULT_KINDS
    if args.fault_kinds is not None:
        kinds = tuple(kind.strip() for kind in args.fault_kinds.split(",")
                      if kind.strip())
    report = run_chaos_soak(ChaosSoakConfig(
        seed=args.seed, scenarios=args.scenarios, steps=args.steps,
        participants=(args.participants
                      if args.participants is not None else 4),
        prefixes=args.prefixes if args.prefixes is not None else 4,
        policies=args.policies, faults=args.faults, fault_kinds=kinds,
        artifact_dir=args.artifact_dir,
        time_budget_seconds=args.time_budget,
        shrink=not args.no_shrink))
    print(report.summary())
    return 0 if report.ok else 1


def _run_soak(args) -> str:
    import time as time_module

    from repro.runtime import OverloadPolicy, RuntimeConfig
    from repro.workloads.policies import generate_policies, install_assignments
    from repro.workloads.topology import generate_ixp
    from repro.workloads.updates import generate_burst_trace

    participants = args.participants if args.participants is not None else 20
    prefixes = args.prefixes if args.prefixes is not None else 200
    ixp = generate_ixp(participants, prefixes, seed=args.seed)
    controller = ixp.build_controller()
    install_assignments(controller, generate_policies(ixp, seed=args.seed + 1))
    controller.start()
    bursts = max(1, args.updates // args.burst_size)
    events = generate_burst_trace(
        ixp, bursts=bursts, burst_size=args.burst_size,
        hot_prefixes=args.hot_prefixes, seed=args.seed + 2)
    runtime = controller.build_runtime(RuntimeConfig(
        max_queue_depth=args.queue_depth,
        overload_policy=OverloadPolicy(args.overload),
        batch_size=args.batch_size,
        coalesce=not args.no_coalesce))

    interval = (1.0 / args.rate) if args.rate else None
    started = time_module.perf_counter()
    if args.threaded:
        runtime.start()
    for index, event in enumerate(events):
        if interval is not None and index:
            delay = started + index * interval - time_module.perf_counter()
            if delay > 0:
                time_module.sleep(delay)
        runtime.submit_update(event.update)
        if not args.threaded and (index + 1) % args.batch_size == 0:
            runtime.step()
    if args.threaded:
        runtime.stop()
    else:
        runtime.settle()
    elapsed = time_module.perf_counter() - started

    stats = runtime.stats()
    depth = stats["queue_depth_percentiles"]
    ingest = stats["ingest_seconds"]
    lines = [
        f"soak: {len(events)} update(s) in {bursts} burst(s) of "
        f"{args.burst_size} over {args.hot_prefixes} hot prefix(es), "
        f"{'threaded' if args.threaded else 'step-driven'} mode, "
        f"overload={args.overload}",
        f"elapsed: {elapsed:.3f}s "
        f"({len(events) / elapsed:.0f} updates/s submitted)",
        f"processed: {stats['processed']} event(s) in "
        f"{stats['batches']} batch(es); route-server submissions: "
        f"{controller.route_server.updates_processed}",
        f"coalesced: {stats['coalesced']} "
        f"(ratio {stats['coalescing_ratio']:.2f}); dropped: "
        f"{stats['dropped']}; blocked submissions: {stats['blocked']}",
        f"queue depth: p50={depth['p50']:.0f} p90={depth['p90']:.0f} "
        f"p99={depth['p99']:.0f} max={depth['max']:.0f}",
        f"ingest-to-install: p50={ingest['p50'] * 1000:.1f}ms "
        f"p99={ingest['p99'] * 1000:.1f}ms "
        f"max={ingest['max'] * 1000:.1f}ms",
        f"degrade entries: {stats['degrade_entries']}; "
        f"degraded now: {stats['degraded']}",
        f"final table: {len(controller.table)} rule(s), "
        f"fast-path debt {controller.engine.fast_path_rules_live}",
    ]
    return "\n".join(lines)


def _run_monitor(args) -> int:
    import json as json_module

    from repro.experiments.monitoring import (
        LoopConfig,
        run_shifting_loop,
        run_skewed_loop,
    )

    config = LoopConfig(
        duration=args.duration, shift_time=args.shift_time,
        cadence_seconds=args.cadence, seed=args.seed,
        statics_mode=args.statics_mode)
    last_sample = []

    def on_sample(sample) -> None:
        last_sample[:] = [sample]
        if not args.watch:
            return
        if args.json:
            print(json_module.dumps(sample.to_dict(), sort_keys=True))
            return
        ports = " ".join(
            f"port{view.key}={view.rate_mbps:.1f}" for view in sample.ports)
        fecs = " ".join(
            f"{view.key}={view.rate_mbps:.1f}" for view in sample.fecs)
        print(f"t={sample.sampled_at:6.1f} "
              f"total={sample.total_rate_mbps:7.1f}Mbps  {ports}  {fecs}")

    runner = (run_shifting_loop if args.scenario == "shifting"
              else run_skewed_loop)
    result = runner(config, on_sample=on_sample)

    payload = {"report": result.to_dict()}
    if last_sample:
        payload["last_sample"] = last_sample[0].to_dict()
    if args.smoke:
        converged = result.converged(within_ticks=args.converge_within)
        payload["converged"] = converged
        payload["converge_within_ticks"] = args.converge_within

    rendered = json_module.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered + "\n")
    if args.json:
        print(rendered)
    else:
        for key, value in sorted(payload["report"].items()):
            print(f"{key}: {value}")
        if last_sample:
            sample = last_sample[0]
            print(f"last sample (t={sample.sampled_at:g}, "
                  f"{len(sample.rules)} rules):")
            for title, views in (("fec", sample.fecs),
                                 ("participant", sample.participants),
                                 ("port", sample.ports)):
                for view in views:
                    print(f"  {title} {view.key}: "
                          f"{view.rate_mbps:.2f} Mbps "
                          f"(ewma {view.ewma_mbps:.2f}, "
                          f"{view.bytes} bytes total)")
        if args.smoke:
            print(f"converged within {args.converge_within} steps: "
                  f"{payload['converged']}")
    if args.smoke and not payload["converged"]:
        return 1
    return 0


def _run_profile(args) -> int:
    import json as json_module

    from repro.profiling import PhaseProfiler, folded_stacks
    from repro.telemetry import Telemetry
    from repro.workloads.policies import generate_policies, install_assignments
    from repro.workloads.topology import generate_ixp
    from repro.workloads.updates import generate_trace

    # Workload generation happens before the profiler attaches: the
    # profiled region is the pipeline (compile + fast path + southbound),
    # not the synthetic trace generator.
    ixp = generate_ixp(args.participants, args.prefixes, seed=args.seed)
    telemetry = Telemetry(trace_capacity=65_536)
    controller = ixp.build_controller(telemetry=telemetry)
    install_assignments(controller, generate_policies(ixp, seed=args.seed + 1))
    events = generate_trace(ixp, seed=args.seed + 2,
                            max_updates=args.updates)

    profiler = PhaseProfiler(telemetry, memory=args.memory,
                             cprofile_span=args.cprofile)
    with profiler:
        with telemetry.span("profile.workload"):
            controller.start()
            for event in events:
                controller.submit_update(event.update)
            controller.run_background_recompilation()
    report = profiler.report()

    if args.flamegraph:
        folded = folded_stacks(telemetry.tracer)
        print(folded)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(folded + "\n")
        print(report.render(), file=sys.stderr)
    elif args.json:
        rendered = json_module.dumps(report.to_dict(), indent=2,
                                     sort_keys=True)
        print(rendered)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(rendered + "\n")
    else:
        print(report.render())
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(json_module.dumps(report.to_dict(), indent=2,
                                               sort_keys=True) + "\n")
    if args.cprofile:
        print(profiler.cprofile_stats(), file=sys.stderr)

    if args.min_coverage is not None and report.coverage < args.min_coverage:
        print(f"profile: coverage {report.coverage:.1%} below required "
              f"{args.min_coverage:.1%}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command in (None, "list"):
        print(render_table(
            ["experiment", "description"],
            [[name, text] for name, text in EXPERIMENTS.items()]))
        return 0
    if args.command == "table1":
        print(_run_table1(args))
    elif args.command == "fig5a":
        print(_run_fig5(args, run_fig5a))
    elif args.command == "fig5b":
        print(_run_fig5(args, run_fig5b))
    elif args.command == "fig6":
        series = run_fig6(participant_counts=args.participants,
                          prefix_counts=args.prefixes,
                          total_prefixes=max(args.prefixes), seed=args.seed)
        print(render_series(series, "prefixes", "prefix groups"))
    elif args.command == "fig7":
        print(_run_sweep(args, "flow rules", lambda p: p.flow_rules))
    elif args.command == "fig8":
        print(_run_sweep(args, "compile seconds",
                         lambda p: f"{p.seconds:.3f}"))
    elif args.command == "fig9":
        series = run_fig9(burst_sizes=args.bursts,
                          participant_counts=args.participants,
                          prefixes=args.prefixes, seed=args.seed)
        print(render_series(series, "burst size", "additional rules"))
    elif args.command == "fig10":
        cdfs = run_fig10(updates=args.updates,
                         participant_counts=args.participants,
                         prefixes=args.prefixes, seed=args.seed)
        print(render_table(
            ["participants", "median ms", "p90 ms", "P(<=100ms)"],
            [[count,
              f"{cdf.median * 1000:.1f}",
              f"{cdf.quantile(0.9) * 1000:.1f}",
              f"{cdf.fraction_below(0.1):.2f}"]
             for count, cdf in sorted(cdfs.items())]))
    elif args.command == "replay":
        print(_run_replay(args))
    elif args.command == "stats":
        print(_run_stats(args))
    elif args.command == "trace":
        print(_run_trace(args))
    elif args.command == "fuzz":
        return _run_fuzz(args)
    elif args.command == "soak":
        if args.chaos:
            return _run_chaos_soak(args)
        print(_run_soak(args))
    elif args.command == "check":
        from repro.config import load_config
        from repro.statics import analyze_controller

        controller = load_config(args.config)
        result = controller.start()
        print(f"compiled: {result.flow_rule_count} flow rules over "
              f"{result.prefix_group_count} prefix groups in "
              f"{result.total_seconds * 1000:.0f} ms")
        report = analyze_controller(controller)
        print(f"statics: {report.summary()}")
        if report.diagnostics:
            print(report.render())
    elif args.command == "lint-policies":
        return _run_lint(args)
    elif args.command == "lint-dataplane":
        return _run_lint_dataplane(args)
    elif args.command == "monitor":
        return _run_monitor(args)
    elif args.command == "profile":
        return _run_profile(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
