"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 infeasible parameters,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from sparserec import binio
from sparserec.errors import InfeasibleError, NumericalError, UsageError
from sparserec.codes import ListRecoveryInstance, RSCode, lw_join, rs_list_recover
from sparserec.expander import BipartiteGraph, verify_expansion
from sparserec.experiment import records_to_csv, run_experiment
from sparserec.fields import FieldSpec
from sparserec.lowerbound import adversarial_pair, decoder_fails, null_projector, find_spike
from sparserec.toplevel import TopLevelSystem, omp_baseline


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_text(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read JSON from {path}: {exc}") from exc


def _cmd_gen_matrix(args) -> int:
    graph = BipartiteGraph(args.n, args.ell, args.buckets, args.seed)
    if args.format == "text":
        _write_text(args.out, graph.dump_adjacency())
    else:
        _write_text(args.out, json.dumps(graph.to_params(), sort_keys=True) + "\n")
    return 0


def _cmd_verify_expander(args) -> int:
    graph = BipartiteGraph(args.n, args.ell, args.buckets, args.seed)
    cert = verify_expansion(graph, args.t, args.eps)
    _write_text(args.out, json.dumps({
        "t": cert.t, "eps": cert.eps, "verified": cert.verified,
        "worst_ratio": cert.worst_ratio,
    }, sort_keys=True) + "\n")
    return 0


def _load_system(path) -> TopLevelSystem:
    try:
        with open(path) as fh:
            return TopLevelSystem.from_json(fh.read())
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot load system descriptor {path}: {exc}") from exc


def _cmd_encode(args) -> int:
    system = _load_system(args.system)
    x = binio.read_vector(args.signal)
    binio.write_vector(args.out, system.encode(x))
    return 0


def _cmd_decode(args) -> int:
    system = _load_system(args.system)
    sketch = binio.read_vector(args.sketch)
    trace = None if args.trace is None else []
    binio.write_vector(args.out, system.decode(sketch, trace=trace))
    if trace is not None:
        _write_text(args.trace, json.dumps(trace) + "\n")
    return 0


def _cmd_experiment(args) -> int:
    config = _load_json(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    records, summary = run_experiment(config)
    if args.format == "json":
        payload = {"summary": summary, "records": [r.__dict__ for r in records]}
        _write_text(args.out, json.dumps(payload, sort_keys=True, default=str) + "\n")
    else:
        _write_text(args.out, records_to_csv(records))
    if args.summary:
        _write_text(args.summary, json.dumps(summary, sort_keys=True) + "\n")
    return 0


def _cmd_lw_join(args) -> int:
    blob = _load_json(args.input)
    if "projections" not in blob:
        raise UsageError("expected a JSON object with a 'projections' key")
    projections = blob["projections"]
    if not (isinstance(projections, list) and all(
            isinstance(s, list) and all(isinstance(v, list) for v in s) for s in projections)):
        raise UsageError("projections must be a list of sets of symbol vectors, each a list")
    sets = [{tuple(v) for v in s} for s in projections]
    vectors = lw_join(sets, errors=args.tolerant)
    _write_text(args.out, json.dumps({"vectors": [list(v) for v in vectors]}) + "\n")
    return 0


def _cmd_rs_recover(args) -> int:
    blob = _load_json(args.input)
    for key in ("q", "b", "r", "rho", "sets"):
        if key not in blob:
            raise UsageError(f"rs-recover input missing key {key!r}")
    if not (isinstance(blob["sets"], list) and all(isinstance(s, list) for s in blob["sets"])):
        raise UsageError("sets must be a list of candidate symbol lists")
    if not isinstance(blob.get("points", []), (list, type(None))):
        raise UsageError("points must be a list of evaluation points")
    code = RSCode(FieldSpec.of_size(blob["q"]), b=blob["b"], r=blob["r"],
                  points=blob.get("points"))
    inst = ListRecoveryInstance(sets=[set(s) for s in blob["sets"]],
                                rho=blob["rho"])
    messages = rs_list_recover(code, inst)
    _write_text(args.out, json.dumps({"messages": messages}) + "\n")
    return 0


def _cmd_lowerbound_demo(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.phi:
        phi = binio.read_matrix_csv(args.phi)
    else:
        phi = rng.normal(size=(args.m, args.n))
    gamma = args.gamma if args.gamma is not None else 1.0 / (12 + 16 * args.c**2)
    pair = adversarial_pair(phi, gamma, args.c, seed=args.seed)
    proj = null_projector(phi)
    j_star, spike = find_spike(proj)

    def omp_decoder(y):
        return omp_baseline(phi, y, k=1)

    report = {
        "m": int(phi.shape[0]), "n": int(phi.shape[1]),
        "gamma": gamma, "delta": pair.delta, "c": args.c,
        "spike_coordinate": j_star, "spike_value": spike,
        "sketch_gap": float(np.linalg.norm(phi @ (pair.v - pair.v_prime))),
        "fails_on_v": decoder_fails(omp_decoder, phi, pair.v, 1, args.c),
        "fails_on_v_prime": decoder_fails(omp_decoder, phi, pair.v_prime, 1, args.c),
    }
    if not (report["fails_on_v"] or report["fails_on_v_prime"]):
        raise NumericalError("dichotomy did not materialize")
    _write_text(args.out, json.dumps(report, sort_keys=True) + "\n")
    return 0


def _cmd_omp(args) -> int:
    phi = binio.read_matrix_csv(args.phi)
    y = binio.read_vector(args.sketch)
    binio.write_vector(args.out, omp_baseline(phi, y, args.k))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="sparserec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-matrix", help="build a signed-sketch graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--buckets", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_gen_matrix)

    p = sub.add_parser("verify-expander", help="brute-force expansion check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--buckets", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify_expander)

    p = sub.add_parser("encode", help="sketch a signal with a system descriptor")
    p.add_argument("--system", required=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="recover an estimate from a sketch")
    p.add_argument("--system", required=True)
    p.add_argument("--sketch", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None,
                   help="write the decode's stage records here as JSON")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("experiment", help="run a Monte-Carlo experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--summary", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("lw-join", help="join coordinate-deleted projections")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--tolerant", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_lw_join)

    p = sub.add_parser("rs-recover", help="Reed-Solomon list recovery")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_rs_recover)

    p = sub.add_parser("lowerbound-demo", help="reflection-pair dichotomy demo")
    p.add_argument("--m", type=int, default=20)
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--phi", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_lowerbound_demo)

    p = sub.add_parser("omp", help="orthogonal matching pursuit baseline")
    p.add_argument("--phi", required=True)
    p.add_argument("--sketch", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_omp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
