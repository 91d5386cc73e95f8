"""Command-line interface.

Verbs:
  oracle      exhaustive copy-count distribution at tiny sizes
  exact       exact counting formulas (totals, distinguished, t-copy slices)
  sample      draw random (multi)graphs as JSON lines
  predict     asymptotic predictions by theorem name
  experiment  Monte Carlo runs and scaling sweeps
"""

from __future__ import annotations

import argparse
import json
import sys

from . import census, experiments, oracle, predictors
from .graphs import graph_from_json, graph_to_json, shape
from .models import (
    WeightSpec,
    derive_rng,
    sample_delta_multigraph,
    sample_uniform_multigraph,
    sample_uniform_simple,
)


def _parse_shape(text: str, kind: str):
    if text.lstrip().startswith("{"):
        return graph_from_json(text)
    return shape(text, kind)


def _parse_delta(text: str | None):
    if text is None:
        return None
    if text.lstrip().startswith("{"):
        return WeightSpec.from_json(json.loads(text))
    return WeightSpec.from_json(text)


def _emit(data, out: str | None):
    text = json.dumps(data, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_oracle(args):
    kind = "multigraph" if args.kind == "multi" else "simple"
    try:
        fam = _parse_shape(args.family, kind)
        dist = oracle.oracle_distribution(args.n, args.m, fam, delta=_parse_delta(args.delta), kind=kind)
    except ValueError as exc:
        args.error(str(exc))
    _emit(dist.to_json(), args.out)


def _cmd_exact(args):
    kind = "multigraph" if args.kind == "multi" else "simple"
    if args.delta is not None and kind == "simple":
        args.error("--delta weights multigraphs only; it cannot be used with --kind simple")
    if args.delta is not None and args.t is not None:
        args.error("--t counts uniform hosts; it cannot be used with --delta")
    if args.t is not None and args.family is None:
        args.error("--t counts copies of a pattern; it needs --family")
    try:
        delta = _parse_delta(args.delta)
        fam = _parse_shape(args.family, kind) if args.family else None
        if args.t is not None:
            value = census.count_with_exactly_t(args.n, args.m, fam, args.t, kind=kind)
        elif fam is None:
            value = census.total(args.n, args.m, kind=kind, delta=delta)
        elif args.expected:
            value = census.expected_count(args.n, args.m, fam, delta=delta, kind=kind)
        else:
            value = census.distinguished(args.n, args.m, fam, kind=kind, delta=delta)
    except ZeroDivisionError:
        args.error(f"--expected needs a nonzero host total, but no degree sequence of "
                   f"{args.n} vertices allowed by the weights reaches 2m = {2 * args.m}")
    except ValueError as exc:
        args.error(str(exc))
    _emit(
        {"value_numerator": str(value.numerator), "value_denominator": str(value.denominator)},
        args.out,
    )


def _cmd_sample(args):
    if args.delta is not None and args.kind == "simple":
        args.error("--delta draws multigraphs; it cannot be used with --kind simple")
    lines = []
    try:
        delta = _parse_delta(args.delta)
        for r in range(args.count):
            rng = derive_rng(args.seed, r)
            if delta is not None:
                g = sample_delta_multigraph(args.n, args.m, delta, rng)
            elif args.kind == "multi":
                g = sample_uniform_multigraph(args.n, args.m, rng)
            else:
                g = sample_uniform_simple(args.n, args.m, rng)
            lines.append(graph_to_json(g.to_graph()))
    except ValueError as exc:
        args.error(str(exc))
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_predict(args):
    try:
        params = json.loads(args.params) if args.params else {}
        for key in ("shape", "c", "n", "m", "l", "p", "beta", "convention", "norm", "kind"):
            value = getattr(args, key.replace("-", "_"), None)
            if value is not None:
                params.setdefault(key, value)
        if args.delta:
            params.setdefault("delta", json.loads(args.delta) if args.delta.startswith("{") else args.delta)
        prediction = predictors.predict(args.theorem, **params)
    except KeyError as exc:
        args.error(f"--theorem {args.theorem} needs --{exc.args[0]}")
    except ValueError as exc:
        args.error(str(exc))
    out = prediction.to_json()
    out["theorem"] = args.theorem
    _emit(out, args.out)


def _cmd_experiment(args):
    if args.verb == "sweep" and args.sizes is None:
        args.error("sweep needs --sizes")
    try:
        with open(args.config) as fh:
            config = experiments.ExperimentConfig.from_json(json.load(fh))
        if args.verb == "run":
            report = experiments.run(config)
        else:
            reports = experiments.sweep(config, [int(s) for s in args.sizes.split(",")])
    except OSError as exc:
        args.error(f"cannot read --config: {exc}")
    except ValueError as exc:
        args.error(str(exc))
    if args.verb == "run":
        _emit(report.to_json(), args.out)
        return
    csv_text = experiments.sweep_csv(reports)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        print(csv_text, end="")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphcensus")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="exhaustive distribution at tiny sizes")
    p.add_argument("--kind", choices=["multi", "simple"], default="multi")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--family", required=True, help="builtin shape name or graph JSON")
    p.add_argument("--delta", help="weight spec (finite:..., exp, cosh, powerlaw:b or JSON)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle, error=p.error)

    p = sub.add_parser("exact", help="exact counting formulas")
    p.add_argument("--kind", choices=["multi", "simple"], default="multi")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--family", help="builtin shape name or graph JSON")
    p.add_argument("--delta")
    p.add_argument("--t", type=int, help="exact number of copies")
    p.add_argument("--expected", action="store_true", help="expected copies instead of totals")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_exact, error=p.error)

    p = sub.add_parser("sample", help="draw random graphs as JSON lines")
    p.add_argument("--kind", choices=["multi", "simple"], default="multi")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sample, error=p.error)

    p = sub.add_parser("predict", help="asymptotic predictions")
    p.add_argument(
        "--theorem",
        required=True,
        choices=list(predictors.THEOREMS),
    )
    p.add_argument("--shape")
    p.add_argument("--kind")
    p.add_argument("--c")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--convention")
    p.add_argument("--norm")
    p.add_argument("--delta")
    p.add_argument("--params", help="extra parameters as JSON")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_predict, error=p.error)

    p = sub.add_parser("experiment", help="Monte Carlo runs")
    p.add_argument("verb", choices=["run", "sweep"])
    p.add_argument("--config", required=True)
    p.add_argument("--sizes", help="comma-separated n list (sweep)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_experiment, error=p.error)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
