import json

import pytest

from graphcensus import census, predictors
from graphcensus.cli import main
from graphcensus.graphs import shape
from graphcensus.models import WeightSpec


def run_cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_exact_verb(capsys):
    out = run_cli(capsys, "exact", "--kind", "multi", "--n", "3", "--m", "3", "--family", "c3")
    data = json.loads(out)
    assert data == {"value_numerator": "48", "value_denominator": "1"}


def test_exact_expected_and_t(capsys):
    out = run_cli(
        capsys, "exact", "--kind", "multi", "--n", "2", "--m", "1",
        "--family", "edge", "--expected",
    )
    assert json.loads(out) == {"value_numerator": "1", "value_denominator": "2"}
    out = run_cli(
        capsys, "exact", "--kind", "multi", "--n", "2", "--m", "1",
        "--family", "edge", "--t", "0",
    )
    assert json.loads(out)["value_numerator"] == "2"


def test_exact_weighted_total(capsys):
    out = run_cli(
        capsys, "exact", "--n", "2", "--m", "1", "--delta", "finite:1,1",
    )
    assert json.loads(out)["value_numerator"] == "2"


def test_oracle_verb(capsys):
    out = run_cli(capsys, "oracle", "--n", "2", "--m", "1", "--family", "loop")
    data = json.loads(out)
    assert data["by_t"] == {"0": "2", "1": "2"}
    assert data["total"] == "4"


def test_sample_verb(capsys, tmp_path):
    path = tmp_path / "hosts.jsonl"
    assert main([
        "sample", "--kind", "multi", "--n", "3", "--m", "2",
        "--seed", "1", "--count", "3", "--out", str(path),
    ]) == 0
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    for line in lines:
        data = json.loads(line)
        assert data["kind"] == "multigraph" and data["n"] == 3 and len(data["edges"]) == 2


def test_sample_weighted(capsys):
    out = run_cli(
        capsys, "sample", "--n", "2", "--m", "1", "--delta", "finite:1,1",
        "--seed", "3", "--count", "4",
    )
    for line in out.strip().split("\n"):
        edges = json.loads(line)["edges"]
        assert edges[0][0] != edges[0][1]  # no loops under 1+x


def _usage_error(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_sample_refuses_delta_with_simple_kind(capsys):
    # --delta draws multigraphs, loops included
    err = _usage_error(capsys, "sample", "--kind", "simple", "--n", "4", "--m", "2", "--delta", "finite:1,1,1,1")
    assert "--delta" in err and "--kind simple" in err


def test_exact_refuses_delta_with_t(capsys):
    # the t-slice counts uniform hosts: 36 here, whatever the weights
    err = _usage_error(capsys, "exact", "--n", "3", "--m", "2", "--family", "loop", "--t", "0",
                       "--delta", "finite:1,1,1")
    assert "--t" in err and "--delta" in err


def test_exact_t_needs_a_family(capsys):
    err = _usage_error(capsys, "exact", "--n", "3", "--m", "2", "--t", "1")
    assert "--t" in err and "--family" in err


def test_exact_t_past_the_oracle_cap(capsys):
    # hosts with exactly one loop among 5 edges on 6 vertices: 5 * 6 * (6^2 - 6)^4
    out = run_cli(capsys, "exact", "--n", "6", "--m", "5", "--family", "loop", "--t", "1")
    assert json.loads(out) == {"value_numerator": str(5 * 6 * 30**4), "value_denominator": "1"}


def test_exact_refuses_delta_with_simple_kind(capsys):
    # a weighted total is a multigraph total (3480 here), not a simple one
    err = _usage_error(capsys, "exact", "--kind", "simple", "--n", "4", "--m", "3", "--delta", "finite:1,1,1,1")
    assert "--delta" in err and "--kind simple" in err


def test_exact_refuses_power_law_weights(capsys):
    # exact answers need rational weights; delta_d = d! d^-beta is not
    err = _usage_error(capsys, "exact", "--n", "3", "--m", "2", "--family", "c3", "--delta", "powerlaw:2.5",
                       "--expected")
    assert "power-law weights are not rational" in err


def test_exact_expected_needs_a_reachable_degree_sum(capsys):
    # every degree is 2 under x^2/2, so 3 vertices need 2m = 6, not 4
    err = _usage_error(capsys, "exact", "--n", "3", "--m", "2", "--family", "c3", "--delta", "finite:0,0,1",
                       "--expected")
    assert "no degree sequence" in err and "2m = 4" in err


LOOP_JSON = '{"kind": "multigraph", "n": 1, "edges": [[1, 1]]}'
TRIANGLE_JSON = '{"kind": "simple", "n": 3, "edges": [[1, 2], [2, 3], [1, 3]]}'
BAD_INPUTS = {
    "unknown-shape": (["--n", "3", "--m", "2", "--family", "hexagon"], "unknown multigraph shape 'hexagon'"),
    "shape-list": (["--n", "3", "--m", "2", "--family", "loop,double-edge"],
                   "unknown multigraph shape 'loop,double-edge'"),
    "multigraph-pattern": (["--kind", "simple", "--n", "3", "--m", "2", "--family", LOOP_JSON],
                           "a simple host count needs simple patterns"),
    "simple-pattern": (["--n", "3", "--m", "3", "--family", TRIANGLE_JSON],
                       "a multigraph host count needs multigraph patterns"),
    "graph-json": (["--n", "3", "--m", "2", "--family", '{"kind": "multigraph"}'],
                   'graph JSON needs "kind", "n" and "edges"'),
    "unknown-delta": (["--n", "3", "--m", "2", "--family", "loop", "--delta", "cubic"], "unknown weight spec 'cubic'"),
    "delta-json": (["--n", "3", "--m", "2", "--family", "loop", "--delta", '{"kind": "finite"}'],
                   "weight spec JSON needs the key 'coeffs'"),
    "negative-n": (["--n", "-1", "--m", "2", "--family", "loop"], "n=-1, m=2"),
    "negative-m": (["--n", "3", "--m", "-2", "--family", "loop"], "n=3, m=-2"),
}
USAGE_CASES = {f"{verb}-{name}": (verb, *case) for verb in ("exact", "oracle") for name, case in BAD_INPUTS.items()}
USAGE_CASES["exact-negative-t"] = ("exact", ["--n", "3", "--m", "2", "--family", "loop", "--t", "-1"], "t=-1")
USAGE_CASES["sample-negative-n"] = ("sample", ["--n", "-2", "--m", "1"], "need n >= 1")
USAGE_CASES["predict-missing-shape"] = ("predict", ["--theorem", "regular", "--n", "3", "--p", "2"],
                                        "--theorem regular needs --shape")
USAGE_CASES["experiment-missing-config"] = ("experiment", ["run", "--config", "no-such-config.json"],
                                            "cannot read --config")


@pytest.mark.parametrize("verb, argv, message", USAGE_CASES.values(), ids=USAGE_CASES.keys())
def test_bad_inputs_are_usage_errors(capsys, verb, argv, message):
    assert message in _usage_error(capsys, verb, *argv)


EXACT_CASES = [(kind, delta, family, expected)
               for kind, deltas in (("multi", (None, "finite:1,1,1,1")), ("simple", (None,)))
               for delta in deltas for family in (None, "p3") for expected in (False, True)]


@pytest.mark.parametrize("kind, delta, family, expected", EXACT_CASES)
def test_exact_answers_every_accepted_combination(capsys, kind, delta, family, expected):
    n, m = 5, 4
    argv = ["exact", "--kind", kind, "--n", str(n), "--m", str(m)]
    argv += ["--delta", delta] if delta else []
    argv += ["--family", family] if family else []
    argv += ["--expected"] if expected else []
    graph_kind = "multigraph" if kind == "multi" else "simple"
    weights = WeightSpec.from_json(delta) if delta else None
    if family is None:
        want = census.total(n, m, kind=graph_kind, delta=weights)
    elif expected:
        want = census.expected_count(n, m, shape(family, graph_kind), delta=weights, kind=graph_kind)
    else:
        want = census.distinguished(n, m, shape(family, graph_kind), kind=graph_kind, delta=weights)
    assert want > 0
    out = json.loads(run_cli(capsys, *argv))
    assert out == {"value_numerator": str(want.numerator), "value_denominator": str(want.denominator)}


def test_predict_verb(capsys):
    out = run_cli(capsys, "predict", "--theorem", "lambda-simple", "--shape", "c3", "--c", "1/2")
    data = json.loads(out)
    assert data["value"] == {"numerator": 1, "denominator": 6}
    assert data["formula_id"] == "poisson-strictly-balanced-simple"
    out = run_cli(
        capsys, "predict", "--theorem", "cycles-finite", "--l", "3",
        "--n", "3000", "--m", "2250", "--delta", "finite:1,1,1,1",
    )
    data = json.loads(out)
    assert 0.2 < data["value"] < 0.3
    assert data["convention"] == "half"


THEOREM_ARGS = {
    "threshold": ["--shape", "c3"],
    "lambda-simple": ["--shape", "c3", "--c", "1/2"],
    "lambda-multi": ["--shape", "c3", "--c", "1/2"],
    "weighted": ["--shape", "p3", "--n", "100", "--m", "75", "--delta", "finite:1,1,1,1"],
    "cycles-finite": ["--l", "3", "--n", "100", "--m", "75", "--delta", "finite:1,1,1,1"],
    "regular": ["--shape", "c3", "--n", "100", "--p", "3"],
    "sparse-tree": ["--shape", "p3", "--delta", "exp"],
    "powerlaw-cycles": ["--beta", "2.5", "--l", "3", "--n", "1000"],
    "periodic": ["--shape", "p3", "--n", "100", "--m", "75", "--delta", "cosh"],
}


def test_predict_theorems_are_the_registry(capsys):
    assert list(THEOREM_ARGS) == list(predictors.THEOREMS)
    with pytest.raises(SystemExit):
        main(["predict", "--theorem", "nope"])
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("theorem", list(THEOREM_ARGS))
def test_every_theorem_choice_dispatches(capsys, theorem):
    data = json.loads(run_cli(capsys, "predict", "--theorem", theorem, *THEOREM_ARGS[theorem]))
    assert data["theorem"] == theorem
    assert data["formula_id"]


def test_experiment_run_and_sweep(tmp_path):
    cfg = {
        "model": "uniform-multi",
        "n": 20,
        "m_rule": {"c": 0.5, "alpha": 1.0},
        "pattern": "loop",
        "replicates": 200,
        "seed": 6,
        "workers": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "report.json"
    assert main(["experiment", "run", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["replicates"] == 200
    csv_path = tmp_path / "report.csv"
    assert main([
        "experiment", "sweep", "--config", str(cfg_path),
        "--sizes", "10,20", "--out", str(csv_path),
    ]) == 0
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 3


def test_experiment_config_without_seed_is_a_usage_error(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "uniform-multi", "n": 20, "m": 5, "pattern": "loop", "replicates": 2}))
    assert "missing config keys: seed" in _usage_error(capsys, "experiment", "run", "--config", str(cfg_path))


def test_graph_json_pattern(capsys):
    shape_json = '{"kind": "multigraph", "n": 2, "edges": [[1, 2]]}'
    out = run_cli(capsys, "exact", "--n", "2", "--m", "1", "--family", shape_json)
    assert json.loads(out)["value_numerator"] == "2"
