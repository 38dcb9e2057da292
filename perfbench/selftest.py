"""Self-test of the benchmark on small inputs.

Run from the root of a source checkout::

    python3 perfbench/selftest.py

It asserts that

* BENCHMARK.json names exactly the workloads and metrics the code emits;
* tracing reaches every binding a caller resolves, including the
  ``from ... import`` aliases;
* on a small deck of each workload every output passes its check, the
  written spans nest inside their parents, each per-layer span fires where
  the predictions table says the workload uses it, and stays at zero where
  the workload bypasses it;
* every checker rejects a deliberately corrupted output, and the rejection
  counts toward the failed calls.

Exit status 0 means all assertions held.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy

import run
import tracing
import workloads

# Per-layer metrics that must be non-zero / zero on each workload's deck.
# This is the predictions table of README.md as measured on the seed code.
# linfrac.chain_product and pgf.exp_centered are zero on every workload:
# no CLI command reaches them (chain_product serves vartheta/riemann_gap,
# exp_centered the general series limit, which no bundled regime uses).
NONZERO = {
    "exact_deep": [
        "pgf.compound.calls", "pgf.convolve.calls", "pgf.kernel.convolve_calls",
        "pgf.kernel.madds", "pgf.Pmf.constructed",
        "families.OffspringFamily.pmf.calls", "families.ImmigrationFamily.pmf.calls",
        "engine.propagate_sequence.calls", "engine.step.calls",
        "scenarios.parse_scenario.calls", "cli.run.self_s", "cli.output_bytes",
    ],
    "report_grid": [
        "pgf.compound.calls", "pgf.convolve.calls", "pgf.Pmf.constructed",
        "pgf.exp_series.busy_s", "families.OffspringFamily.pgf_at.calls",
        "families.classify.busy_s", "families.condition_ratios.busy_s",
        "linfrac.chain_logs.calls", "engine.propagate_sequence.calls",
        "engine.step.calls", "limits.cp_pmf.busy_s", "limits.nb_pmf.busy_s",
        "limits.poisson_pmf.busy_s", "diagnostics.report.calls",
        "diagnostics.toeplitz_weights.calls", "diagnostics.tv_distance.calls",
        "diagnostics.accompanying_gap_bound.busy_s",
        "scenarios.parse_scenario.calls", "cli.run.self_s",
    ],
    "monte_carlo": [
        "engine.simulate.calls", "engine.simulate.traj_steps",
        "scenarios.parse_scenario.calls", "cli.run.self_s",
    ],
    "product_limit": [
        "pgf.evaluate.calls", "families.OffspringFamily.pgf_at.calls",
        "engine.composed_eval_all.calls", "limits.product_law_eval.calls",
        "limits.product_law_eval.composed_passes",
        "limits.product_law_mean.busy_s", "diagnostics.report.calls",
        "families.clamp_warnings", "scenarios.parse_scenario.calls",
        "cli.run.self_s",
    ],
}
ZERO = {
    "exact_deep": [
        "engine.simulate.calls", "limits.product_law_eval.calls",
        "diagnostics.report.calls", "engine.composed_eval_all.calls",
        "linfrac.chain_product.calls", "pgf.exp_centered.busy_s",
    ],
    "report_grid": [
        "engine.simulate.calls", "limits.product_law_eval.calls",
        "engine.composed_eval_all.calls", "linfrac.chain_product.calls",
        "pgf.exp_centered.busy_s",
    ],
    "monte_carlo": [
        "pgf.compound.calls", "pgf.convolve.calls", "pgf.kernel.convolve_calls",
        "limits.product_law_eval.calls", "diagnostics.report.calls",
        "engine.propagate_sequence.calls", "linfrac.chain_product.calls",
        "pgf.exp_centered.busy_s",
    ],
    "product_limit": [
        "engine.simulate.calls", "linfrac.chain_product.calls",
        "pgf.exp_centered.busy_s", "limits.cp_pmf.busy_s", "limits.nb_pmf.busy_s",
    ],
}

ALIASES = ("nearcrit.cli.classify", "nearcrit.diagnostics.classify",
           "nearcrit.diagnostics.condition_ratios", "nearcrit.diagnostics.chain_logs",
           "nearcrit.diagnostics.chain_product", "nearcrit.cli.parse_scenario",
           "nearcrit.engine.classify", "nearcrit.propagate")

END_TO_END = ("setup_s", "calls_per_s", "call_p50_s", "call_tail_s", "peak_rss_mb")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert layer == [(name, unit) for name, unit, _, _ in tracing.PER_LAYER], \
        "per_layer in BENCHMARK.json differs from tracing.PER_LAYER"


def check_aliases(nc) -> None:
    tracer = tracing.Tracer()
    bindings = tracer.install(nc, numpy)
    try:
        patched = {b for names in bindings.values() for b in names}
        missing = [a for a in ALIASES if a not in patched]
        assert not missing, f"bindings not traced: {missing}"
        assert nc.cli.classify is nc.families.classify
        assert nc.diagnostics.chain_logs is nc.linfrac.chain_logs
        for name in ("pgf.Pmf.__post_init__", "families.OffspringFamily.pmf",
                     "families.ImmigrationFamily.pmf"):
            assert name in bindings, name
    finally:
        tracer.uninstall()
    assert not hasattr(nc.cli.classify, "__wrapped__"), "uninstall left a wrapper"


def check_spans(tracer, path) -> None:
    """Written spans nest: each lies inside its parent, in the same call."""
    tracer.write_spans(path)
    with open(path, encoding="utf-8") as fh:
        spans = {s["id"]: s for s in map(json.loads, fh)}
    assert spans, "no spans recorded"
    for span in spans.values():
        assert span["start"] <= span["end"]
        parent = spans.get(span["parent"])
        if span["parent"] == -1:
            assert span["name"] == "cli.main", span
        else:
            assert parent is not None and parent["call"] == span["call"], span
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]


def check_workload(nc, workload: str, seed: int = 7) -> None:
    deck = workloads.build_deck(nc.scenarios, workload, seed, small=True)
    run_dir = run.WORK / f"selftest-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        scen_dir, out_dir = run_dir / "scn", run_dir / "out"
        run.write_scenarios(deck, scen_dir)
        out_dir.mkdir()
        ledger = run.Ledger(deck)
        tracer = tracing.Tracer()
        tracer.install(nc, numpy)
        try:
            wall = run.run_pass(nc, deck, ledger, scen_dir, out_dir, tracer)
        finally:
            tracer.uninstall()
        ledger.check(nc, workload, scen_dir)
        assert ledger.failed == 0, ledger.failure_sample()
        check_spans(tracer, run_dir / "spans.jsonl")

        run_values = dict(ledger.warning_counts, **{
            "cli.output_bytes": ledger.output_bytes, "bench.check_s": 0.0,
            "trace.overhead_frac": 0.0})
        values = {k: v["value"] for k, v in tracing.layer_metrics(
            tracer, 1, wall, run_values).items()}
        silent = [m for m in NONZERO[workload] if not values[m] > 0]
        assert not silent, f"{workload}: predicted spans did not fire: {silent}"
        leaked = [m for m in ZERO[workload] if values[m] != 0]
        assert not leaked, f"{workload}: predicted bypass was used: {leaked}"

        # every checker must reject a corrupted output, and count it
        for call in deck.calls:
            bad = run.Ledger(deck)
            good = ledger.first[call.label]
            bad.record(call, run.Outcome(0.0, True, good))
            corrupted = workloads.corrupt(call, good.decode()).encode()
            assert corrupted != good
            bad.record(call, run.Outcome(0.0, True, corrupted))
            assert bad.failed == 1, "a changed rerun must fail the byte check"
            lone = run.Ledger(deck)
            lone.record(call, run.Outcome(0.0, True, corrupted))
            lone.check(nc, workload, scen_dir)
            assert lone.failed == lone.attempted == 1, (
                f"{workload}/{call.label}: corrupted output passed its check")
        print(f"ok {workload}: {len(deck.calls)} calls, "
              f"{len(deck.calls)} corruptions caught")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass


def main() -> int:
    nc = run.import_nearcrit()
    check_benchmark_json()
    check_aliases(nc)
    print("ok BENCHMARK.json and trace bindings")
    for workload in workloads.WORKLOADS:
        check_workload(nc, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
