"""The benchmark's tracer patches program names by looking them up in each
owner's ``__dict__``; a rename or removal there would only show up as a
KeyError in ``bench/run.py --trace 1``.  This test installs the tracer the
way the benchmark does and checks that it can be undone."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its sibling tracing.py
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    prog = run.import_program()
    originals = {
        name: prog.models.__dict__[name]
        for name in ("feasible_degree_sum", "solve_tuning", "sample_delta_multigraph", "sample_uniform_simple",
                     "derive_rng")
    }
    patchwork = prog.census.__dict__["patchwork_series"]
    tracer = run.Tracer()
    run.install_tracer(tracer, prog)
    try:
        spec = prog.models.WeightSpec.finite([1, 1, 1])
        assert prog.models.feasible_degree_sum(spec, 3, 4)
        assert [s[0] for s in tracer.spans] == ["models.feasible_degree_sum"]
        # mc-fallback's sample time is the span of this module global
        host = prog.models.sample_uniform_simple(5, 3, prog.models.derive_rng(1, 0))
        assert host.m == 3
        assert [s[0] for s in tracer.spans[1:]] == ["models.sample"]
    finally:
        tracer.restore()
    assert {name: prog.models.__dict__[name] for name in originals} == originals
    assert prog.census.__dict__["patchwork_series"] is patchwork
