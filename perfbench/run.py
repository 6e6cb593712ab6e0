"""bchnest benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads and metrics are declared
in BENCHMARK.json; workloads.py says what each workload sends.

--trace 0 measures end to end.  CLI requests run one per fresh
``python -m bchnest.cli`` process, timed from outside, with peak RSS and CPU
from that process's own rusage.  reduce-library runs in one worker process.
Each run repeats passes over the requests for about S seconds and reports
statistics of each request's median wall over the passes.

--trace 1 runs one such pass, then alternates untraced and traced
in-process replays of the same requests for about S seconds.  Each request
starts from cold caches; the traced replay records a span around every call
into a bchnest layer and reports each layer's self time and counts.

Every output goes through the exactness gate (gate.py) after the timed
passes.  The last stdout line is one JSON object: correct, attempted,
failed and metrics.  Exits 1 without a result if the program cannot be
set up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from measure import percentile, run_child, spin_probe, timed_passes
from spans import Tracer, cold_start, find_caches, installed, layer_summary
from workloads import CLI_WORKLOADS, LIBRARY, WORKLOADS, cli_pass_order, library_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(SRC))
try:
    import library
    from bchnest import cli
    from bchnest.terms import LieExpr
    from gate import Gate, Instance
except ImportError as exc:
    sys.exit(f"perfbench: cannot import bchnest from {SRC}: {exc}")

# Set-up is probed at the start and again between passes, so its median
# covers the same stretch of host time as the passes.
SETUP_PROBES_FIRST = 3
SETUP_PROBES_BETWEEN = 2


class SetupError(RuntimeError):
    """The program could not be started; no result is printed."""


@dataclass
class ProcessRun:
    """What the untraced, out-of-process passes measured."""

    pass_s: list[float] = field(default_factory=list)
    call_s: dict[int, list[float]] = field(default_factory=dict)  # per request
    rss_mb: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    instances: list = field(default_factory=list)


def _env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _child(argv: list[str]):
    return run_child([sys.executable, *argv], _env(), str(ROOT))


def _run_cli_in_process(argv: list[str]) -> tuple[str, str | None]:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a failing request is counted, not fatal
        return "", repr(exc)
    return buf.getvalue(), None if code == 0 else f"exit {code}"


def _request(tracer):
    """The span of one replayed request, or no span when untraced."""
    if tracer is None:
        return contextlib.nullcontext()
    tracer.request += 1
    return tracer.span("request")


class CliWorkload:
    def __init__(self, name: str, seed: int, gate) -> None:
        self.requests = CLI_WORKLOADS[name]
        self.rng = random.Random(seed)
        self.gate = gate

    def check(self, key: int, content: str):
        return self.gate.check_cli(self.requests[key], content)

    def setup_samples(self, n: int) -> list[float]:
        probes = [_child(["-c", "import bchnest.cli"]) for _ in range(n)]
        for probe in probes:
            if probe.code:
                raise SetupError(probe.err.decode(errors="replace"))
        return [p.wall_s for p in probes]

    def process_run(self, seconds: float) -> ProcessRun:
        # The first import writes bytecode caches, as an install does once.
        self.setup_samples(1)
        run = ProcessRun(setup_s=self.setup_samples(SETUP_PROBES_FIRST))

        def one_pass(_: int) -> None:
            peak = cpu = 0.0
            for i in cli_pass_order(self.requests, self.rng):
                child = _child(["-m", "bchnest.cli", *self.requests[i]])
                run.call_s.setdefault(i, []).append(child.wall_s)
                peak = max(peak, child.rss_mb)
                cpu += child.cpu_s
                error = None
                if child.code:
                    error = f"exit {child.code}: {child.err.decode(errors='replace')[-300:]}"
                run.instances.append(Instance(i, child.out.decode(errors="replace"), error))
            run.rss_mb.append(peak)
            run.cpu_s.append(cpu)

        def between() -> None:
            run.setup_s.extend(self.setup_samples(SETUP_PROBES_BETWEEN))

        run.pass_s = timed_passes(one_pass, seconds, between=between)
        return run

    def in_process_pass(self, tracer, caches) -> list:
        out = []
        for i in cli_pass_order(self.requests, self.rng):
            cold_start(caches)
            with _request(tracer):
                content, error = _run_cli_in_process(self.requests[i])
            out.append(Instance(i, content, error))
        return out


class LibraryWorkload:
    def __init__(self, seed: int, gate) -> None:
        self.seed = seed
        self.inputs = library_inputs(seed)
        self.gate = gate

    def check(self, key: int, content: str):
        m, terms = self.inputs[key]
        return self.gate.check_library(m, terms, content)

    def _worker(self, *extra: str) -> tuple[dict, object]:
        child = _child([str(HERE / "libworker.py"), "--seed", str(self.seed), *extra])
        if child.code:
            raise SetupError(child.err.decode(errors="replace"))
        return json.loads(child.out), child

    def setup_samples(self, n: int) -> list[float]:
        return [self._worker("--setup-only")[0]["setup_s"] for _ in range(n)]

    def process_run(self, seconds: float) -> ProcessRun:
        before = self.setup_samples(SETUP_PROBES_FIRST)
        doc, child = self._worker("--seconds", repr(seconds))
        after = self.setup_samples(SETUP_PROBES_FIRST)
        call_s: dict[int, list[float]] = {}
        for j, wall in enumerate(doc["call_s"]):
            call_s.setdefault(j % len(self.inputs), []).append(wall)
        instances = [
            Instance(i, content, error)
            for outputs in doc["outputs"]
            for i, (content, error) in enumerate(outputs)
        ]
        return ProcessRun(
            pass_s=doc["pass_s"],
            call_s=call_s,
            rss_mb=[child.rss_mb],
            cpu_s=[child.cpu_s],
            setup_s=before + [doc["setup_s"]] + after,
            instances=instances,
        )

    def in_process_pass(self, tracer, caches) -> list:
        requests = [(m, LieExpr(terms)) for m, terms in self.inputs]
        # One cold set-up per pass, then warm calls, as a library user runs.
        cold_start(caches)
        with _request(tracer):
            library.setup()
        out = []
        for i, (m, expr) in enumerate(requests):
            with _request(tracer):
                try:
                    content, error = library.call(m, expr), None
                except Exception as exc:  # a failing call is counted, not fatal
                    content, error = "", repr(exc)
            out.append(Instance(i, content, error))
        return out


def end_to_end(workload, seconds: float) -> tuple[dict[str, float], object]:
    run = workload.process_run(seconds)
    tally = workload.gate.tally(run.instances, workload.check)
    # Each request's median over the run's passes; a pass is their sum.
    per_request = [statistics.median(walls) for walls in run.call_s.values()]
    values = {
        "batch_s": sum(per_request),
        "call_p50_s": percentile(per_request, 0.5),
        "call_p90_s": percentile(per_request, 0.9),
        "peak_rss_mb": statistics.median(run.rss_mb),
        "output_terms": tally.output_terms,
        "setup_s": statistics.median(run.setup_s),
    }
    print(
        f"{len(run.pass_s)} passes of {len(run.call_s)} requests, pass_s "
        + " ".join(f"{s:.3f}" for s in run.pass_s),
        file=sys.stderr,
    )
    return values, tally


def per_layer(workload, seconds: float) -> tuple[dict[str, float], object]:
    caches = find_caches()
    run = workload.process_run(0.0)
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    summaries: list[dict[str, float]] = []
    computed: list[float] = []  # traced in-process compute per pass
    instances = list(run.instances)

    def untraced_pass() -> None:
        t0 = perf_counter()
        instances.extend(workload.in_process_pass(None, caches))
        untraced.append(perf_counter() - t0)

    def traced_pass() -> None:
        first = len(tracer.spans)
        with installed(tracer) as missing:
            t0 = perf_counter()
            instances.extend(workload.in_process_pass(tracer, caches))
            traced.append(perf_counter() - t0)
        if missing:
            print(f"layers not found, reported as 0: {missing}", file=sys.stderr)
        spans = tracer.spans[first:]
        summaries.append(layer_summary(spans))
        computed.append(sum(s.end - s.start for s in spans if s.parent is None))

    def one_pair(k: int) -> None:
        # Alternate which replay goes first so host drift cancels out.
        for step in (untraced_pass, traced_pass)[:: 1 if k % 2 == 0 else -1]:
            step()

    timed_passes(one_pair, seconds)
    tally = workload.gate.tally(instances, workload.check)

    values: dict[str, float] = {}
    for summary in summaries:
        terms_in = summary.get("identities.compact_reduce.terms_in", 0)
        summary["identities.compact_reduce.kept_ratio"] = (
            summary.get("identities.compact_reduce.terms_out", 0) / terms_in if terms_in else 0.0
        )
    for name in {key for s in summaries for key in s}:
        values[name] = statistics.median(s.get(name, 0.0) for s in summaries)
    values["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    values["cli.process.s"] = (
        sum(sum(walls) for walls in run.call_s.values()) - statistics.median(computed)
        if isinstance(workload, CliWorkload)
        else 0.0
    )
    values["process.cpu_s"] = statistics.median(run.cpu_s)
    print(f"{len(summaries)} traced and untraced replays", file=sys.stderr)
    return values, tally


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="bchnest benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload not in WORKLOADS:
        parser.error(f"no definition for workload {args.workload!r}")
    gate = Gate()
    if args.workload == LIBRARY:
        workload = LibraryWorkload(args.seed, gate)
    else:
        workload = CliWorkload(args.workload, args.seed, gate)

    spin = [spin_probe()]
    try:
        measure = per_layer if args.trace else end_to_end
        values, tally = measure(workload, args.seconds)
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    spin.append(spin_probe())
    values["host.spin_s"] = statistics.median(spin)
    print(f"host.spin_s at start and end: {spin[0]:.4f} {spin[1]:.4f}", file=sys.stderr)
    for reason in tally.reasons[:5]:
        print(f"failed: {reason}", file=sys.stderr)

    if args.trace:
        # A layer the workload never calls reads 0.
        metrics = {m["name"]: (values.get(m["name"], 0.0), m["unit"]) for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
