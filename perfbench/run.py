"""Run one workload of the repository benchmark (or all of them).

Usage, from the repository root::

    python3 perfbench/run.py --workload hosp_batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload
    python3 perfbench/run.py --spec                       # BENCHMARK.json content

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` repeats the operations with spans recorded around the
calls into each layer and reports the per-layer metrics. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every
correctness check passed. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: set-ups per run: at least SETUP_REPEATS, and until SETUP_SECONDS went
#: into them, so that a cheap set-up still has a steady median
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
#: passes of a batch workload per untraced run, at least
MIN_PASSES = 3
#: share of a run's time spent probing the host's speed
PROBE_SHARE = 0.1
#: what the probe takes on the reference host state: timings are
#: reported as they would read on a host that ran the probe in this time
PROBE_REFERENCE_S = 0.005


def _program_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "repro", "api.py")) and (
        os.path.isfile(os.path.join(ROOT, "benchmarks", "_gate.py"))
    )


if __name__ == "__main__" and not _program_present():
    sys.stderr.write(
        "perfbench: the repro sources (src/repro, benchmarks/_gate.py) are "
        "not next to perfbench/; run from a full checkout\n"
    )
    sys.exit(2)

for _path in (HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import batch  # noqa: E402
import openloop  # noqa: E402
from metrics import (  # noqa: E402
    ALL,
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    benchmark_spec,
    result_line,
)
from repro.obs import dataset_fingerprint  # noqa: E402
from tracing import BOUNDARIES, SpanRecorder, attr_sum, self_times  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int) -> Dict[str, Any]:
    from _gate import calibration_seconds

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "calibration_seconds": calibration_seconds(),
    }


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed now.

    The loop mixes integer arithmetic, string slicing and dict updates,
    the instruction mix of the repair hot paths; it is a quarter of the
    loop of ``benchmarks/_gate.calibration_seconds``, kept here so that no
    change to the program moves it. It is short, so that many probes
    sample many moments of the host.
    """
    text = "abcdefghijklmnopqrstuvwxyz" * 8
    table: Dict[str, int] = {}
    total = 0
    start = time.perf_counter()
    for i in range(10_000):
        total += i * 31 % 997
        chunk = text[i % 26 : i % 26 + 13]
        table[chunk] = table.get(chunk, 0) + 1
    seconds = time.perf_counter() - start
    assert total and table  # keep the loop un-eliminable
    return seconds


class Run:
    """Bookkeeping shared by every workload of one invocation.

    Host speed: the vCPUs this benchmark was built on flip between a
    fast and a slow state, about two-fold apart, many times a second,
    and the share of time spent slow drifts from one minute to the next
    as other tenants load the machine (CPU time grows with wall time, so
    it is not time spent descheduled). Any timing of a 20-second run
    moves with that share, by 20-30%. So a run interleaves short host
    probes with its operations (``probe``), and reports its timings of
    CPU work scaled by ``host_scale``: the reference probe time over the
    mean probe time. Mean operation times and mean probe times sample
    the same mix of states, so their ratio holds steady while both move.
    """

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 scale: float, out_dir: str) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.out_dir = out_dir
        self.attempted = 0
        self.failures: List[str] = []
        self.values: Dict[str, float] = {}
        self.info: Dict[str, Any] = {}
        self.recorder = SpanRecorder()
        self.started = time.perf_counter()
        self.probes: List[float] = []
        self.first_probe: Optional[float] = None
        #: per untraced batch pass, its own host scale (see host_scale)
        self.pass_scales: List[float] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def fail(self, reason: str) -> None:
        if len(self.failures) < 20:
            sys.stderr.write(f"[{self.name}] FAILED: {reason}\n")
        self.failures.append(reason)

    def probe(self) -> None:
        """Probe the host until probes took PROBE_SHARE of the time so far.

        Called between operations, so the probes are spread over the run
        in proportion to the time its operations take.
        """
        if self.first_probe is None:
            self.first_probe = time.perf_counter()
        while not self.probes or sum(self.probes) < PROBE_SHARE * (
            time.perf_counter() - self.first_probe
        ):
            self.probes.append(host_probe())

    def host_scale(self, first: int = 0) -> float:
        """Measured seconds -> seconds on the reference host state.

        From the probes since the *first*-th (all of the run's by default).
        """
        return PROBE_REFERENCE_S / statistics.fmean(self.probes[first:])

    def set_up(self, make) -> Tuple[Any, List[float]]:
        """Run *make(directory)* repeatedly (see SETUP_REPEATS); keep the
        last inputs."""
        times: List[float] = []
        inputs = None
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            self.probe()
            directory = tempfile.mkdtemp(dir=self.out_dir)
            start = time.perf_counter()
            inputs = make(directory)
            times.append(time.perf_counter() - start)
        # Objects alive now (imported modules, the inputs) never become
        # garbage; freezing them keeps full collections during the
        # measurement to what the measured code allocates.
        gc.collect()
        gc.freeze()
        # the run measures for its full length after set-up
        self.started = time.perf_counter()
        return inputs, times

    def result(self) -> Dict[str, Any]:
        declared = PER_LAYER if self.trace else END_TO_END
        return result_line(
            not self.failures, max(1, self.attempted), len(self.failures),
            self.values, declared,
        )


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def _passes(run: Run, inputs, config, until: float, minimum: int,
            reference: Dict[int, str], traced: bool = False):
    """Repeat passes until *until* seconds into the run (at least *minimum*).

    Untraced passes probe the host's speed between relations.
    """
    passes = []
    while True:
        gc.collect()
        if traced:
            run.recorder.run_id = f"pass{len(run.recorder.spans)}"
            with run.recorder.installed(BOUNDARIES):
                outcome = batch.run_pass(inputs, config, run.recorder)
        else:
            first = len(run.probes)
            outcome = batch.run_pass(inputs, config, between=run.probe)
            run.pass_scales.append(
                run.host_scale(first) if len(run.probes) > first
                else run.host_scale())
        passes.append(outcome)
        for position, rel in enumerate(outcome.relations):
            run.attempted += 1
            if rel.failure:
                run.fail(f"relation {position}: {rel.failure}")
                continue
            expected = reference.setdefault(position, rel.output_hash)
            if rel.output_hash != expected:
                run.fail(
                    f"relation {position}: output hash {rel.output_hash} "
                    f"differs from {expected}"
                )
        typical = median([p.seconds for p in passes])
        if len(passes) >= minimum and run.elapsed() + typical > until:
            return passes


def run_batch(run: Run) -> None:
    setup = batch.SETUPS[run.name]
    inputs, setup_times = run.set_up(
        lambda directory: setup(run.seed, directory, run.scale)
    )
    run.info["inputs"] = {
        "relations": len(inputs.relations),
        "rows": inputs.rows,
        "fds": [fd.name for fd in inputs.fds],
        "fingerprints": [r.fingerprint for r in inputs.relations[:4]],
    }
    reference: Dict[int, str] = {}
    if not run.trace:
        passes = _passes(run, inputs, inputs.config, run.seconds,
                         MIN_PASSES, reference)
        walls = [p.seconds for p in passes]
        # one pass is one batch job over the workload's relations
        jobs = [p.seconds * k for p, k in zip(passes, run.pass_scales)]
        first = passes[0].relations
        credit = sum(r.credit for r in first)
        repaired = sum(r.repaired_cells for r in first)
        errors = sum(r.true_errors for r in first)
        run.values.update(
            setup_s=run.host_scale() * median(setup_times),
            wall_s=statistics.fmean(jobs),
            peak_rss_mb=peak_rss_mb(),
            repair_cost=sum(r.cost for r in first) / len(first),
            repair_precision=credit / repaired if repaired else 1.0,
            repair_recall=credit / errors if errors else 1.0,
            success_share=1.0 - len(run.failures) / max(1, run.attempted),
            p50_ms=1000.0 * median(jobs),
            p99_ms=1000.0 * openloop.percentile(jobs, 99),
            max_rate_rps=inputs.rows / statistics.fmean(jobs),
        )
        run.info["host"] = host_info(run)
        run.info["pass_scales"] = run.pass_scales
        run.info["hashes"] = sorted(set(reference.values()))[:4]
        run.info["walls"] = walls
        run.info["relation_seconds"] = [
            [r.seconds for r in p.relations] for p in passes]
        return

    # Traced run: untraced passes of the measured config, then untraced
    # and traced passes of the traced (serial) config in turn, so both
    # sides see the same machine state. Every output must match the
    # first untraced pass.
    measured = _passes(run, inputs, inputs.config, 0.3 * run.seconds, 1,
                       reference)
    base = measured if inputs.traced_config == inputs.config else []
    traced: List[Any] = []
    while True:
        base += _passes(run, inputs, inputs.traced_config, 0.0, 1, reference)
        traced += _passes(run, inputs, inputs.traced_config, 0.0, 1,
                          reference, traced=True)
        if run.elapsed() + base[-1].seconds + traced[-1].seconds > run.seconds:
            break
    run.info["walls"] = {
        "measured": [p.seconds for p in measured],
        "base": [p.seconds for p in base],
        "traced": [p.seconds for p in traced],
    }
    run.values.update(layer_metrics(run.recorder.spans, traced, len(traced)))
    run.values.update(exec_metrics(measured))
    run.values.update(serve_zero())
    run.values["obs.traced_wall_s"] = median([p.seconds for p in traced])
    run.values["obs.trace_overhead_s"] = (
        run.values["obs.traced_wall_s"] - median([p.seconds for p in base])
    )


def host_info(run: Run) -> Dict[str, float]:
    return {"probes": len(run.probes), "probe_mean_s": statistics.fmean(run.probes),
            "probe_min_s": min(run.probes), "scale": run.host_scale()}


def layer_metrics(spans, passes, count: int) -> Dict[str, float]:
    """Per-operation layer metrics from spans and the returned stats."""
    own = self_times(spans)

    def self_of(*names: str) -> float:
        return sum(own[s.id] for s in spans if s.name in names) / max(1, count)

    def attrs(name: str, key: str) -> float:
        return attr_sum(spans, name, key) / max(1, count)

    stats = [r.stats for p in passes for r in p.relations]

    def stat_sum(key: str) -> float:
        return sum(float(s.get(key, 0) or 0) for s in stats) / max(1, count)

    hits, misses = stat_sum("cache_hits"), stat_sum("cache_misses")
    verified = attrs("ViolationGraph.build", "pairs_verified")
    violations = attrs("SimilarityJoin.join", "violations")
    generated = attrs("solve_graph_exact", "nodes_generated")
    pruned = attrs("solve_graph_exact", "nodes_pruned")
    solve_s = self_of("solve_graph_exact")
    return {
        "dataset.load_s": self_of("read_csv"),
        "dataset.apply_s": self_of("apply_edits", "materialise"),
        "dataset.distinct_values": stat_sum("dictionary_entries"),
        "core.distances.kernel_calls": attrs("ViolationGraph.build", "kernel_calls"),
        "core.distances.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "index.detect_s": self_of(
            "SimilarityJoin.join", "AttributeIndexRegistry.qgram_probe",
            "AttributeIndexRegistry.band_probe"),
        "index.candidates_generated": attrs("ViolationGraph.build", "candidates_generated"),
        "index.pairs_verified": verified,
        "index.violations": violations,
        "index.verify_yield": violations / verified if verified else 0.0,
        "core.graph.build_s": self_of("ViolationGraph.build"),
        "core.graph.vertices": attrs("ViolationGraph.build", "vertices"),
        "core.graph.edges": attrs("ViolationGraph.build", "edges"),
        "core.single.search_s": self_of("solve_graph_exact", "repair_single_fd_exact"),
        "core.single.nodes_generated": generated,
        "core.single.nodes_pruned": pruned,
        "core.single.nodes_per_s": generated / solve_s if solve_s else 0.0,
        "core.single.prune_ratio": pruned / generated if generated else 0.0,
        "core.multi.search_s": self_of(
            "repair_multi_fd_greedy", "TargetTree.__init__",
            "TargetTree.nearest_target"),
        "core.multi.tree_nodes_pruned": stat_sum("target_tree_nodes_pruned"),
    }


def exec_metrics(passes) -> Dict[str, float]:
    """Executor counters of the untraced passes of the measured config."""
    stats = [r.stats for p in passes for r in p.relations if r.stats]
    if not stats:
        return {name: 0.0 for name in (
            "exec.n_jobs", "exec.worker_utilization", "exec.busy_skew_ratio",
            "exec.relation_bytes_shipped", "exec.task_bytes_max")}
    return {
        "exec.n_jobs": max(float(s["n_jobs"]) for s in stats),
        "exec.worker_utilization": statistics.mean(
            float(s["worker_utilization"]) for s in stats),
        "exec.busy_skew_ratio": statistics.mean(
            float(s["busy_skew_ratio"]) for s in stats),
        "exec.relation_bytes_shipped": sum(
            float(s["relation_bytes_shipped"]) for s in stats) / len(passes),
        "exec.task_bytes_max": max(float(s["task_bytes_max"]) for s in stats),
    }


def serve_zero() -> Dict[str, float]:
    return {m.name: 0.0 for m in PER_LAYER if m.layer == "serve"}


# ----------------------------------------------------------------------
# serve_openloop
# ----------------------------------------------------------------------
def _serve_sizes(seconds: float) -> Dict[str, Any]:
    """Requests per burst and per open-loop window at each ladder rate."""
    share = seconds / RUN_SECONDS
    rates = [max(50, int(openloop.NOMINAL_REQUESTS * share))] + [
        max(50, int(rate * openloop.WINDOW_SECONDS * share))
        for rate in openloop.LADDER_RATES[1:]
    ]
    return {"burst": max(50, int(openloop.BURST_REQUESTS * share)),
            "rates": rates}


def run_serve(run: Run) -> None:
    sizes = _serve_sizes(run.seconds)
    fits: List[float] = []

    def make(_directory: str):
        inputs = openloop.setup(run.seed, max(sizes["burst"], *sizes["rates"]))
        fits.append(inputs.fit_seconds)
        return inputs

    inputs, setup_times = run.set_up(make)
    run.info["inputs"] = {
        "catalogue_rows": len(inputs.catalogue),
        "requests": len(inputs.requests),
        "kinds": {k: sum(r.kind == k for r in inputs.requests)
                  for k in ("read", "dirty", "new")},
        "fingerprint": dataset_fingerprint(inputs.catalogue),
    }
    if run.trace:
        run.values.update(asyncio.run(_serve_traced(run, inputs, sizes)))
        run.values["serve.fit_s"] = median(fits)
        return
    bursts, nominal, sweeps = asyncio.run(
        _serve_measure(inputs, sizes, run.started + run.seconds, run.probe))
    probes = [phase for sweep in sweeps for phase in sweep]
    for phase in bursts + nominal + probes:
        _serve_checks(run, inputs, phase)
    cost, precision, recall = openloop.quality(inputs, nominal[0])
    run.info["bursts"] = [p.seconds for p in bursts]
    run.info["nominal"] = [
        {"p50_ms": openloop.window_ms(w, 50), "p99_ms": openloop.window_ms(w, 99)}
        for w in nominal]
    run.info["sweeps"] = [
        [{"rps": w.rate, "p99_ms": openloop.window_ms(w, 99),
          "drain_lag_ms": 1000 * w.drain_lag,
          "passes": openloop.window_passes(w)} for w in sweep]
        for sweep in sweeps]
    # A burst, the p99 at the nominal rate (requests queued behind an
    # absorb's rebuild) and the highest sustained rate are CPU work and
    # are host-scaled; the p50 at the nominal rate is mostly the 2 ms
    # micro-batch timeout, a timer that does not scale, and is reported
    # as measured.
    scale = run.host_scale()
    run.info["host"] = host_info(run)
    run.values.update(
        setup_s=scale * median(setup_times),
        wall_s=scale * statistics.fmean(p.seconds for p in bursts),
        peak_rss_mb=peak_rss_mb(),
        repair_cost=cost,
        repair_precision=precision,
        repair_recall=recall,
        success_share=1.0 - len(run.failures) / max(1, run.attempted),
        p50_ms=median([openloop.window_ms(w, 50) for w in nominal]),
        p99_ms=scale * median([openloop.window_ms(w, 99) for w in nominal]),
        max_rate_rps=median([sweep_rate(sweep) for sweep in sweeps]) / scale,
    )


def sweep_rate(sweep) -> float:
    """The highest rate a sweep's windows passed at (the nominal one if none)."""
    passed = [w.rate for w in sweep if openloop.window_passes(w)]
    return max(passed, default=openloop.NOMINAL_RPS)


async def _serve_measure(inputs, sizes, until: float, probe):
    """Sweeps until *until* (a perf_counter time), at least SWEEPS.

    A sweep sends a burst, a window at the nominal rate, windows that
    bisect the ladder for the highest rate that passes, a second
    nominal window and a second burst. Each statistic is a median or
    mean over the run, so it reads the host as it mostly was, not at one
    moment. Every phase runs on a freshly fitted service after a
    collection, and *probe* probes the host's speed before it.
    """
    requests = inputs.requests
    rates = openloop.LADDER_RATES

    async def fresh(load, *args):
        probe()
        service, _ = openloop.fit_service(inputs.catalogue)
        gc.collect()
        return await load(service, requests, *args)

    async def window(k: int):
        return await fresh(openloop.open_loop, sizes["rates"][k], rates[k])

    bursts: List[Any] = []
    nominal: List[Any] = []
    sweeps: List[List[Any]] = []
    while len(sweeps) < openloop.SWEEPS or time.perf_counter() < until:
        bursts.append(await fresh(openloop.burst, sizes["burst"]))
        nominal.append(await window(0))
        sweep: List[Any] = []
        low, high = 0, len(rates)  # rates[high] is past the ladder
        while high - low > 1:
            middle = (low + high) // 2
            sweep.append(await window(middle))
            if openloop.window_passes(sweep[-1]):
                low = middle
            else:
                high = middle
        sweeps.append(sweep)
        nominal.append(await window(0))
        bursts.append(await fresh(openloop.burst, sizes["burst"]))
    return bursts, nominal, sweeps


async def _serve_traced(run: Run, inputs, sizes) -> Dict[str, float]:
    requests = inputs.requests
    recorder = run.recorder
    service, _ = openloop.fit_service(inputs.catalogue)
    gc.collect()
    recorder.run_id = "nominal"
    with recorder.installed(BOUNDARIES):
        nominal = await openloop.open_loop(
            service, requests, sizes["rates"][0], openloop.NOMINAL_RPS
        )
    untraced, traced = [], []
    for k in range(3):
        service, _ = openloop.fit_service(inputs.catalogue)
        gc.collect()
        untraced.append(await openloop.burst(service, requests, sizes["burst"]))
        service, _ = openloop.fit_service(inputs.catalogue)
        gc.collect()
        recorder.run_id = f"burst{k}"
        with recorder.installed(BOUNDARIES):
            traced.append(await openloop.burst(service, requests, sizes["burst"]))
    for phase in [nominal] + untraced + traced:
        _serve_checks(run, inputs, phase)

    spans = recorder.of_run("nominal")
    records = [s for s in spans if s.name == "IndexedRepairer.repair_record"]
    # the service repairs records in the order it accepted them
    waits = [
        span.start - nominal.submitted[index]
        for span, index in zip(records, nominal.accepted)
    ]
    counters = nominal.counters
    per_k = 1000.0 / nominal.count
    values = layer_metrics(spans, [], nominal.count)  # per request
    values.update(exec_metrics([]))
    values.update({
        "serve.record_us": 1e6 * median([s.duration for s in records]),
        "serve.examined_fraction": nominal.examined_fraction,
        "serve.index_probes": counters["serve_index_probes"] * per_k,
        "serve.index_rebuilds": counters["serve_index_rebuilds"] * per_k,
        "serve.records_absorbed": counters["serve_records_absorbed"] * per_k,
        "serve.queue_wait_p99_ms": 1000.0 * openloop.percentile(waits, 99),
        "serve.batch_mean_size": float(counters["serve_batch_mean_size"]),
        "serve.queue_depth_peak": float(counters["queue_depth_peak"]),
        "serve.rejected": float(counters["serve_rejected"]),
        "serve.generator_late_p99_ms": 1000.0 * openloop.percentile(nominal.late, 99),
        "obs.traced_wall_s": median([p.seconds for p in traced]),
    })
    values["obs.trace_overhead_s"] = values["obs.traced_wall_s"] - median(
        [p.seconds for p in untraced])
    return values


def _serve_checks(run: Run, inputs, phase) -> None:
    run.attempted += phase.count
    for _ in range(phase.rejected):
        run.fail("request rejected by backpressure")
    for error in phase.errors:
        run.fail(error)
    for _ in range(openloop.replay_mismatches(inputs, phase)):
        run.fail("served response differs from IncrementalRepairer replay")


# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float) -> Tuple[Dict[str, Any], Run]:
    out_root = os.path.join(HERE, "_out")
    os.makedirs(out_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=out_root)
    run = Run(name, seed, seconds, trace, scale, work)
    try:
        run.info["environment"] = environment(seed)
        run.started = time.perf_counter()
        if name == "serve_openloop":
            run_serve(run)
        else:
            run_batch(run)
        result = run.result()
        report = {"workload": name, "trace": trace, "seconds": seconds,
                  "scale": scale, "failures": run.failures[:50], **run.info,
                  "result": result}
        stem = os.path.join(out_root, f"{name}-seed{seed}-trace{int(trace)}")
        with open(stem + ".json", "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, default=str)
        if trace:
            run.recorder.dump(stem + ".spans.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result, run


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=ALL + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (tests use a tiny one)")
    parser.add_argument("--spec", action="store_true",
                        help="print the BENCHMARK.json content and exit")
    args = parser.parse_args(argv)
    if args.spec:
        print(json.dumps(benchmark_spec(), indent=2))
        return 0
    if args.workload != "all":
        result, _ = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), args.scale)
        for metric, entry in result["metrics"].items():
            print(f"{args.workload:15s} {metric:32s} "
                  f"{entry['value']:14.6g} {entry['unit']}")
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    # Each workload runs in a process of its own, so peak RSS, frozen
    # objects and caches do not carry over from one to the next.
    results = {}
    for name in ALL:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", str(args.scale)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else {
            "correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
