"""Benchmark of graphcensus: four single-process workloads over both halves.

    python3 bench/run.py --workload mc-cubic --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, with ``--trace 1`` one with the per-layer metrics.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_OPS = 100  # so that at least ten ops lie beyond the 90th percentile
ROUND = 10  # Monte Carlo ops run in whole rounds of this many
TRACE_OPS = 100  # ops of a traced Monte Carlo run, a fixed number so counts repeat
PATTERN_METRICS = ("c3", "p3", "k13", "p4", "c4")  # one experiments.count.<p>_ms each
# the keys of workloads.WORKLOADS; that module imports numpy and scipy, so it
# is only imported once graphcensus has been, outside the timed set-up
WORKLOAD_NAMES = ("mc-cubic", "mc-powerlaw", "mc-fallback", "exact-census")

_now = time.perf_counter


def import_program():
    import graphcensus
    from graphcensus import census, experiments, graphs, models, oracle, series

    if Path(graphcensus.__file__).resolve().parent != SRC / "graphcensus":
        raise ImportError(f"graphcensus imported from {graphcensus.__file__}, not from {SRC}")
    return SimpleNamespace(census=census, experiments=experiments, graphs=graphs,
                           models=models, oracle=oracle, series=series)


def install_tracer(tracer, prog):
    """Wrap each layer's public names where their callers look them up."""
    models, experiments, census, oracle = prog.models, prog.experiments, prog.census, prog.oracle
    ts, dd = prog.series.TruncatedSeries, models.DegreeDistribution
    for fn in ("sample_delta_multigraph", "sample_configuration", "sample_uniform_simple"):
        tracer.wrap(models, fn, "models.sample")
    for fn in ("solve_tuning", "feasible_degree_sum"):
        tracer.wrap(models, fn, f"models.{fn}")
    tracer.wrap(dd, "from_weight_spec", "models.from_weight_spec")
    tracer.count_size(dd, "sample", "models.degree_draws")
    real_rng = models.derive_rng
    tracer.replace(models, "derive_rng", lambda seed, r: CountingRng(real_rng(seed, r), tracer.counts))
    tracer.wrap(experiments, "count_patterns", "experiments.count_patterns")
    tracer.wrap(experiments, "subgraph_count", "graphs.subgraph_count")
    tracer.wrap(census, "expected_count", "census.expected_count")
    tracer.wrap(census, "count_with_exactly_t", "census.count_with_exactly_t")
    tracer.wrap(census, "patchwork_series", "oracle.patchwork_series")
    tracer.count_yields(oracle, "enumerate_multigraphs", "oracle.hosts_enumerated")
    tracer.count_yields(oracle, "enumerate_simple", "oracle.hosts_enumerated")
    for fn in ("__mul__", "pow", "exp", "__init__"):
        tracer.wrap(ts, fn, f"series.{fn}")


class CountingRng:
    """A numpy Generator that counts degrees drawn as multinomial count vectors.

    The finite-weight sampler draws whole degree vectors as multinomial
    counts; each row stands for n degrees.  Every other call is passed on.
    """

    def __init__(self, rng, counts):
        self._rng = rng
        self._counts = counts

    def multinomial(self, n, pvals, size=None):
        out = self._rng.multinomial(n, pvals, size=size)
        self._counts["models.degree_draws"] += int(n) * (out.size // len(pvals))
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def program_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "graphcensus" or n.startswith("graphcensus.")}


def timed_setup(workload: str, seed: int, tracer=None):
    """Seconds to import graphcensus and build the workload, and the workload.

    The traced run installs its tracer before the workload is built.
    """
    t0 = _now()
    prog = import_program()
    t1 = _now()
    from workloads import WORKLOADS  # the benchmark's own module, not timed

    if tracer is not None:
        install_tracer(tracer, prog)
    cls = WORKLOADS[workload]
    t2 = _now()
    wl = tracer.call("setup", cls, prog, seed) if tracer is not None else cls(prog, seed)
    return t1 - t0 + _now() - t2, wl


def repeat_setup(workload: str, seed: int) -> float:
    """Time one more set-up in this process and throw it away.

    The graphcensus modules are dropped from sys.modules first, so the
    import runs them again and their memos start empty; then the run's own
    modules are put back.  Unlike the run's first set-up, this one does not
    import numpy.
    """
    own = program_modules()
    for name in own:
        del sys.modules[name]
    seconds, _ = timed_setup(workload, seed)
    for name in program_modules():
        del sys.modules[name]
    sys.modules.update(own)
    gc.collect()
    return seconds


def run_child(args, *extra) -> dict:
    """Run this benchmark in a fresh process and return its last JSON line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(extra)} child failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(wl, seconds: float, fixed_ops: int | None, tracer=None, setup=None):
    """Run whole rounds of ops.

    Returns the ms of each op that passed its checks, the seconds spent in
    ops (checks excluded), the number of ops attempted, the errors of each
    failed op, and the seconds of each call of ``setup``.  ``setup``, when
    given, is called after every ``wl.setup_every`` ops, so that set-up is
    sampled across the run as the ops are.  A fixed op count, not a time,
    places the calls, so the run's allocations and garbage collections
    follow the same order on every run of a seed.
    """
    exact = wl.one_pass
    rounds_of = len(wl.queries) if exact else ROUND
    op_ms, busy, errors, setups = [], 0.0, {}, []
    i = 0
    while True:
        for _ in range(rounds_of):
            if exact:
                # queries differ in size by 10^3 and run in a seeded order; a
                # collection before each one keeps the garbage of earlier
                # queries from landing on whichever query comes next
                gc.collect()
            t0 = _now()
            try:
                result = tracer.call("op", wl.op, i) if tracer is not None else wl.op(i)
            except Exception as exc:  # a failing op is counted, not fatal
                busy += _now() - t0
                errors[i] = [f"raised {type(exc).__name__}: {exc}"]
            else:
                dt = _now() - t0
                busy += dt
                bad = wl.check(i, result)
                if tracer is not None and not exact:
                    bad += wl.pattern_calls(tracer, result)
                if bad:
                    errors[i] = bad
                else:
                    op_ms.append(1e3 * dt)
            i += 1
            if setup is not None and i % wl.setup_every == 0:
                setups.append(setup())
        if exact:
            break
        if fixed_ops is not None:
            if i >= fixed_ops:
                break
        elif busy >= seconds and i >= MIN_OPS:
            break
    return op_ms, busy, i, errors, setups


def quantile90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else values[0]


def end_to_end(op_ms, busy, setup_s, rss_mb):
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(op_ms) / busy if busy else 0.0, "1/s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p90_ms": (quantile90(op_ms), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer, wl, ops: int, overhead_ms: float):
    per = 1.0 / ops
    on_ops = {"op"}
    _, sample_ms = tracer.total_ms(["models.sample"], on_ops)
    draws = tracer.counts["models.degree_draws"]
    _, setup_ms = tracer.total_ms(
        ["models.solve_tuning", "models.feasible_degree_sum", "models.from_weight_spec"], {"setup"}, outermost=True
    )
    _, count_ms = tracer.total_ms(["experiments.count_patterns"], on_ops)
    sg_calls, sg_ms = tracer.total_ms(["graphs.subgraph_count"], on_ops)
    mul_calls, _ = tracer.total_ms(["series.__mul__"], on_ops)
    _, mul_ms = tracer.total_ms(["series.__mul__", "series.pow", "series.exp"], on_ops, outermost=True)
    init_calls, init_ms = tracer.total_ms(["series.__init__"], on_ops)
    _, patch_ms = tracer.total_ms(["oracle.patchwork_series"], on_ops)
    out = {
        "models.sample_ms": (sample_ms * per, "ms"),
        "models.degree_draws_per_host": (draws * per, "count"),
        "models.draw_yield": (ops * wl.n / draws if draws else 0.0, "ratio"),
        "models.setup_ms": (setup_ms, "ms"),
        "experiments.count_ms": (count_ms * per, "ms"),
    }
    for p in PATTERN_METRICS:
        _, ms = tracer.total_ms([f"experiments.count.{p}"])
        out[f"experiments.count.{p}_ms"] = (ms * per, "ms")
    out.update({
        "graphs.subgraph_count_ms": (sg_ms * per, "ms"),
        "graphs.subgraph_count_calls": (sg_calls * per, "count"),
        "series.mul_calls": (mul_calls * per, "count"),
        "series.mul_ms": (mul_ms * per, "ms"),
        "series.init_calls": (init_calls * per, "count"),
        "series.init_ms": (init_ms * per, "ms"),
        "oracle.patchwork_ms": (patch_ms * per, "ms"),
        "oracle.hosts_enumerated": (tracer.counts["oracle.hosts_enumerated"] * per, "count"),
        "census.self_ms": (tracer.self_ms(["census.expected_count", "census.count_with_exactly_t"]) * per, "ms"),
        "trace.overhead_ms": (overhead_ms, "ms"),
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="graphcensus benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0, help="op time to measure (Monte Carlo workloads)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "graphcensus" / "__init__.py").is_file():
        print(f"bench: no program under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tracer = Tracer() if args.trace else None
    setup_s, wl = timed_setup(args.workload, args.seed, tracer)
    if tracer is not None:
        tracer.counts.clear()  # counts are per measured op; set-up keeps its spans
    fixed_ops = args.ops if args.ops is not None else (TRACE_OPS if tracer is not None else None)
    setup = None if tracer is not None else (lambda: repeat_setup(args.workload, args.seed))
    op_ms, busy, attempted, errors, setups = measure(wl, args.seconds, fixed_ops, tracer, setup)
    setup_s = statistics.median([setup_s, *setups])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.restore()
    for i, errs in wl.final_errors().items():
        errors.setdefault(i, []).extend(errs)
    missed = wl.self_test()
    for i in sorted(errors)[:10]:
        print(f"bench: op {i} failed: {'; '.join(errors[i])}", file=sys.stderr)
    for name in missed:
        print(f"bench: self-test: checker accepts an off-by-one result: {name}", file=sys.stderr)

    if not op_ms:
        print("bench: no op passed; nothing to report", file=sys.stderr)
        return 1
    if tracer is None:
        metrics = end_to_end(op_ms, busy, setup_s, rss_mb)
    else:
        untraced = run_child(args, "--ops", str(attempted))["metrics"]["op_p50_ms"]["value"]
        metrics = per_layer(tracer, wl, attempted, statistics.median(op_ms) - untraced)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:13s} {name:34s} {value:14.4f} {unit}")
    print(f"{args.workload:13s} ops attempted {attempted}, failed {len(errors)}")
    print(json.dumps({
        "correct": not missed and not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
