"""Seeded end-to-end benchmark of the nearcrit CLI, run in-process.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload exact_deep --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: the deck of the workload (see
workloads.py) is replayed through ``nearcrit.cli.main(argv)`` until
``--seconds`` have passed at a deck boundary. Every output is then checked
against an oracle. The last line of standard output is the result object;
the line before it holds the provenance of the run. ``--trace 1`` runs the
same deck alternating plain and traced passes, reports per-layer metrics
instead of end-to-end ones and writes the recorded spans to
``.perfbench_work/spans/<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import tracing
import workloads

# bound before nearcrit is imported, so nothing the program patches can
# change the speed probe
_CONVOLVE = numpy.convolve
_PROBE_ARRAY = numpy.linspace(0.001, 0.5, 40_000)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# spans of traced runs are kept here after the run, one file per workload/seed
SPANS = WORK / "spans"

SETUP_REPEATS = 5
# Probe time that defines a reference second (see speed_probe).
REFERENCE_PROBE_S = 0.007
# Reference-import time that defines a reference second of set-up.
REFERENCE_IMPORT_S = 0.04
MIN_CALLS = 20  # so call_tail_s always has >= 10 calls beyond it

# numpy is imported first and not timed: its import cost belongs to the
# environment and swings with the host's file cache, while a heavier import
# added by nearcrit itself is still counted. The same interpreter then
# times a fixed set of standard-library imports that neither numpy nor
# nearcrit load; set-up is restated in reference seconds by that time, as
# the calls are by speed_probe, because import speed drifts between
# minutes by up to 50 % on a shared machine.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import numpy; "
    "t0 = time.perf_counter(); import nearcrit, nearcrit.cli; "
    "t1 = time.perf_counter(); "
    "import http.client, email.parser, xml.dom.minidom, "
    "xml.etree.ElementTree, zipfile, tarfile, urllib.request; "
    "print(repr(t1 - t0), repr(time.perf_counter() - t1))"
)


def speed_probe() -> float:
    """Seconds taken by a fixed mix of the operations the program performs.

    Short ``numpy.convolve`` calls driven from Python, a scalar
    composed-map style loop, vectorised log/cumsum/exp over a 40k array and
    binomial draws: the mix of the four workloads, without nearcrit. On a
    shared machine the speed drifts by up to 40 % between minutes while
    this probe and the program drift together, so the end-to-end times are
    reported in reference seconds: each call time scaled by
    ``REFERENCE_PROBE_S`` over the probe timed just before it. Raw values
    stay in the provenance line.
    """
    start = time.perf_counter()
    a = numpy.full(64, 1.0 / 64)
    b = numpy.array([0.5, 0.5])
    acc = 0.0
    for i in range(1000):
        a = _CONVOLVE(a, b)[:64]
        acc += float(a[3]) * 1.0000001 + i % 7
    y = 0.3
    for l in range(3000, 0, -1):
        r = 1.0 - 1.0 / (l + 1.0)
        y = 1.0 - r + r * y
    for _ in range(10):
        s = numpy.cumsum(numpy.log1p(-_PROBE_ARRAY))
        acc += float(numpy.exp(s[-1] - s[100]))
    rng = numpy.random.default_rng(1)
    for _ in range(3):
        acc += float(rng.binomial(numpy.full(20_000, 3), 0.4).sum())
    return time.perf_counter() - start


class SetupError(Exception):
    """The checkout cannot be benchmarked (no source, or wrong package)."""


class Terminated(BaseException):
    """SIGTERM arrived; unwinds past the per-call handlers so that the
    scratch directory is removed and no result is printed."""


def _terminate(signum, frame):
    raise Terminated()


def import_nearcrit():
    """Import nearcrit from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "nearcrit" / "__init__.py").is_file():
        raise SetupError(f"no nearcrit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import nearcrit
    import nearcrit.cli  # noqa: F401  (loads every layer module)

    origin = Path(nearcrit.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"nearcrit imported from {origin}, not from {SRC}")
    return nearcrit


# ---------------------------------------------------------------------------
# one CLI call


@dataclass
class Outcome:
    seconds: float
    ok: bool
    output: bytes = b""
    error: str = ""
    warnings: list = field(default_factory=list)


def invoke(nc, argv: list, out_path: Path) -> Outcome:
    """Run ``cli.main(argv)``; only the call itself is inside the timer.

    Diagnostics the CLI prints and warnings it raises are captured, the same
    way in plain and traced passes.
    """
    with contextlib.suppress(FileNotFoundError):
        out_path.unlink()
    err = io.StringIO()
    rc, error = None, ""
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            rc = nc.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            error = f"SystemExit({exc.code})"
        except Exception as exc:  # noqa: BLE001 - a failed call is counted
            error = repr(exc)
        seconds = time.perf_counter() - start
    if rc not in (None, 0):
        error = f"exit code {rc}: {err.getvalue().strip()[-200:]}"
    ok = rc == 0 and out_path.is_file()
    output = out_path.read_bytes() if ok else b""
    return Outcome(seconds, ok, output, error or ("" if ok else "no output"),
                   [str(w.message) for w in caught])


def argv_for(call: workloads.Call, scen_dir: Path, out_dir: Path) -> list:
    return ["--scenario", str(scen_dir / f"{call.label}.scn"),
            "--command", call.command, *call.flags,
            "--out", str(out_dir / f"{call.label}.out")]


def write_scenarios(deck: workloads.Deck, scen_dir: Path) -> None:
    scen_dir.mkdir(parents=True)
    for label, text in deck.scenarios.items():
        (scen_dir / f"{label}.scn").write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# phases


def measure_setup(nc, deck, run_dir: Path) -> tuple[list, list, Path]:
    """Set up ``SETUP_REPEATS`` times.

    One sample is the time a fresh interpreter takes to import nearcrit,
    plus writing the seeded scenario files and one tiny warm-up call per
    command, in-process. Returns the samples in reference seconds (see
    IMPORT_PROBE), the raw samples and the last set-up directory.
    """
    samples, raw = [], []
    for i in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        import_s, reference_s = map(float, probe.stdout.split()[-2:])
        scen_dir = run_dir / f"setup{i}"
        start = time.perf_counter()
        write_scenarios(deck, scen_dir)
        for call in deck.warmups:
            outcome = invoke(nc, argv_for(call, scen_dir, scen_dir), scen_dir
                             / f"{call.label}.out")
            if not outcome.ok:
                raise SetupError(f"warm-up {call.command} failed: {outcome.error}")
        raw.append(import_s + time.perf_counter() - start)
        samples.append(raw[-1] * REFERENCE_IMPORT_S / reference_s)
    return samples, raw, scen_dir


class Ledger:
    """Outcome of every attempted call, keyed by its position."""

    def __init__(self, deck):
        self.calls = deck.calls
        self.labels = []  # slot label of each attempted call
        self.durations = []
        self.reasons = {}  # call position -> failure reason
        self.first = {}  # slot label -> first output bytes
        self.output_bytes = 0
        self.warning_counts = {"families.clamp_warnings": 0,
                               "engine.truncation_warnings": 0}

    @property
    def attempted(self) -> int:
        return len(self.labels)

    @property
    def failed(self) -> int:
        return len(self.reasons)

    def record(self, call, outcome: Outcome) -> None:
        pos = len(self.labels)
        self.labels.append(call.label)
        self.durations.append(outcome.seconds)
        self.output_bytes += len(outcome.output)
        for message in outcome.warnings:
            if "clamped" in message:
                self.warning_counts["families.clamp_warnings"] += 1
            elif message.startswith("truncation K="):
                self.warning_counts["engine.truncation_warnings"] += 1
        if not outcome.ok:
            self.reasons[pos] = outcome.error
        elif call.label not in self.first:
            self.first[call.label] = outcome.output
        elif outcome.output != self.first[call.label]:
            self.reasons[pos] = "output differs from its first run"

    def fail_slot(self, label: str, reason: str) -> None:
        for pos, seen in enumerate(self.labels):
            if seen == label:
                self.reasons.setdefault(pos, reason)

    def check(self, nc, workload: str, scen_dir: Path) -> None:
        """Check each slot's output once; a bad slot fails all its calls."""
        checker = workloads.CHECKS[workload]
        for call in self.calls:
            text = self.first.get(call.label)
            if text is None:
                continue
            spec = nc.scenarios.parse_scenario(scen_dir / f"{call.label}.scn").spec
            reason = check_one(nc, checker, call, text.decode(), spec)
            if reason:
                self.fail_slot(call.label, reason)

    def slot_medians(self) -> dict:
        by_label = {}
        for label, seconds in zip(self.labels, self.durations):
            by_label.setdefault(label, []).append(seconds)
        return {k: statistics.median(v) for k, v in by_label.items()}

    def failure_sample(self, limit: int = 5) -> list:
        return [(self.labels[pos], self.reasons[pos])
                for pos in sorted(self.reasons)[:limit]]


def check_one(nc, checker, call, text: str, spec) -> str:
    """Failure reason, or "" when the output passes its check."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            checker(nc, call, text, spec)
    except workloads.CheckFailure as exc:
        return f"check: {exc}"
    except Exception as exc:  # noqa: BLE001 - malformed output is a failure
        return f"check raised {exc!r}"
    return ""


def run_pass(nc, deck, ledger: Ledger, scen_dir: Path, out_dir: Path,
             tracer: tracing.Tracer | None = None,
             probes: list | None = None) -> float:
    """Run every call of the deck once; returns the pass wall time.

    With ``probes`` given, a speed probe runs before each call; its time is
    appended there (one per call, in call order) and left out of the pass
    time.
    """
    probe_s = 0.0
    start = time.perf_counter()
    for call in deck.calls:
        if probes is not None:
            probes.append(speed_probe())
            probe_s += probes[-1]
        if tracer is not None:
            tracer.call_id += 1
            tracer.active = True
        try:
            outcome = invoke(nc, argv_for(call, scen_dir, out_dir),
                             out_dir / f"{call.label}.out")
        finally:
            if tracer is not None:
                tracer.active = False
        ledger.record(call, outcome)
    return time.perf_counter() - start - probe_s


def tail_percentile(durations: list) -> tuple[float, int, float]:
    """Highest whole percentile with >= 10 samples beyond it (nearest rank).

    Returns (percentile, sample count, value).
    """
    ordered = sorted(durations)
    n = len(ordered)
    pct = math.floor(100.0 * (n - 10) / n)
    while pct > 0:
        rank = math.ceil(pct * n / 100.0)
        if sum(1 for d in ordered if d > ordered[rank - 1]) >= 10:
            return pct, n, ordered[rank - 1]
        pct -= 1
    return 0, n, ordered[0]


# ---------------------------------------------------------------------------
# provenance


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "nearcrit").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".scn"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(nc, args) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nearcrit": getattr(nc, "__version__", None),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# main


def run_benchmark(args) -> tuple[dict, dict]:
    nc = import_nearcrit()
    deck = workloads.build_deck(nc.scenarios, args.workload, args.seed)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup_samples, setup_raw, scen_dir = measure_setup(nc, deck, run_dir)
        probes = []
        out_dir = run_dir / "out"
        out_dir.mkdir()
        ledger = Ledger(deck)
        tracer = tracing.Tracer() if args.trace else None
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            if tracer is not None and len(traced) < len(plain):
                # wrappers exist only during traced passes, so plain passes
                # run the unmodified program
                tracer.install(nc, numpy)
                try:
                    traced.append(run_pass(nc, deck, ledger, scen_dir, out_dir,
                                           tracer))
                finally:
                    tracer.uninstall()
            else:
                plain.append(run_pass(nc, deck, ledger, scen_dir, out_dir,
                                      probes=probes))
            elapsed = time.perf_counter() - start
            if (elapsed >= args.seconds
                    and len(plain) + len(traced) >= deck.min_passes
                    and ledger.attempted >= MIN_CALLS
                    and (tracer is None or traced)):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_start = time.perf_counter()
        ledger.check(nc, args.workload, scen_dir)
        check_s = time.perf_counter() - check_start
        if tracer is not None:
            SPANS.mkdir(parents=True, exist_ok=True)
            spans_file = SPANS / f"{args.workload}-{args.seed}.jsonl"
            tracer.write_spans(spans_file)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    prov = provenance(nc, args)
    prov.update({
        "deck_calls": len(deck.calls),
        "passes": len(plain) + len(traced),
        "calls": ledger.attempted,
        "timed_s": elapsed,
        "setup_samples_s": setup_samples,
        "setup_raw_s": setup_raw,
        "check_s": check_s,
        "failed_frac": ledger.failed / ledger.attempted,
        "failures": ledger.failure_sample(),
        "pass_s": plain,
        "slot_p50_s": ledger.slot_medians(),
    })
    if tracer is None:
        # Each call is restated in reference seconds by the probe run just
        # before it, each pass by the median probe of that pass.
        ref = [d * REFERENCE_PROBE_S / p for d, p in zip(ledger.durations, probes)]
        per_pass = len(deck.calls)
        ref_passes = [
            wall * REFERENCE_PROBE_S
            / statistics.median(probes[i * per_pass:(i + 1) * per_pass])
            for i, wall in enumerate(plain)
        ]
        pct, count, tail = tail_percentile(ref)
        raw_tail = tail_percentile(ledger.durations)[2]
        prov.update({
            "call_tail_percentile": pct, "call_tail_samples": count,
            "speed_probe_s": statistics.median(probes),
            "raw_metrics": {
                "setup_s": statistics.median(setup_raw),
                "calls_per_s": per_pass / statistics.median(plain),
                "call_p50_s": statistics.median(ledger.durations),
                "call_tail_s": raw_tail,
            },
        })
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            # deck calls over the median pass time: a slowdown that hits
            # one pass does not move it
            "calls_per_s": {"value": per_pass / statistics.median(ref_passes),
                            "unit": "1/s"},
            "call_p50_s": {"value": statistics.median(ref), "unit": "s"},
            "call_tail_s": {"value": tail, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        passes = len(plain) + len(traced)  # every pass runs the same deck
        run_values = {name: count / passes
                      for name, count in ledger.warning_counts.items()}
        run_values.update({
            "cli.output_bytes": ledger.output_bytes / passes,
            "bench.check_s": check_s,
            "trace.overhead_frac":
                statistics.median(traced) / statistics.median(plain) - 1.0,
        })
        metrics = tracing.layer_metrics(tracer, len(traced), sum(traced),
                                        run_values)
        prov.update({"traced_passes": len(traced), "plain_passes": len(plain),
                     "spans_opened": tracer.spans_opened,
                     "spans_file": str(spans_file.relative_to(ROOT)),
                     "computed_metrics": ["pgf.kernel.madds", "pgf.kernel.bytes",
                                          "engine.simulate.traj_steps"]})
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    return prov, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", help="append provenance and result to this "
                   "JSON-lines file (input of compare.py)")
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        prov, result = run_benchmark(args)
    except (SetupError, ImportError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    except Terminated:
        print("perfbench: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    print(json.dumps({"provenance": prov}))
    if args.save:
        with open(args.save, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"provenance": prov, "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
