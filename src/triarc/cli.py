"""Command-line front end.

Subcommands: build, decompose, simulate, estimate, noise-curve, bounds,
verify. JSON is the structured output; curve and histogram data go out as
CSV. Exit codes: 0 success, 1 runtime error, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from numbers import Real
from pathlib import Path

from . import arith, circuits, noise, pricing, resources, simulator, transpile, verify
from .circuits import check_int
from .transpile import LoweringStrategy

_STRATEGIES = {
    "qutrit": LoweringStrategy.QUTRIT,
    "cliffordt": LoweringStrategy.CLIFFORD_T_FUNCTIONAL,
    "baseline": LoweringStrategy.SELINGER_COST,
    "conventional": LoweringStrategy.SELINGER_COST,
}


@dataclass(frozen=True)
class Config:
    """Defaults loadable from a JSON file via --config, named as the flags' dests."""

    p1: float = noise.NoiseParams.p1
    p2: float = noise.NoiseParams.p2
    t1a: float = noise.NoiseParams.T1_level1
    t1b: float = noise.NoiseParams.T1_level2
    tau: float = noise.NoiseParams.tau_gate
    format: str = "json"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.format not in ("json", "csv"):
            raise ValueError("format must be json or csv")
        if type(self.seed) is not int:
            check_int(**{"config seed": self.seed})
        for name in ("p1", "p2", "t1a", "t1b", "tau"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"config {name} must be a real number, got {value!r}")

    @staticmethod
    def load(path: str | None) -> "Config":
        if path is None:
            return Config()
        data = json.loads(Path(path).read_text())
        return Config(**data)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_build(args: argparse.Namespace) -> int:
    if args.op == "adder":
        if args.n is None:
            raise ValueError("build --op adder requires --n")
        circuit, layout = arith.build_adder(args.n)
    else:
        na = args.na if args.na is not None else args.n
        nb = args.nb if args.nb is not None else args.n
        if na is None or nb is None:
            raise ValueError("build --op multiplier requires --na and --nb (or --n)")
        circuit, layout = arith.build_multiplier(na, nb)
    _write(circuits.to_json(circuit) + "\n", args.out)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    circuit = circuits.from_json(Path(args.infile).read_text())
    lowered = transpile.lower_toffolis(circuit, _STRATEGIES[args.strategy])
    _write(circuits.to_json(lowered) + "\n", args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    circuit = circuits.from_json(Path(args.infile).read_text())
    state = simulator.simulate(circuit, args.input)
    if args.shots is None:
        _write(simulator.state_to_json(state) + "\n", args.out)
    else:
        hist = simulator.measure_all(state, args.shots, args.seed)
        _write(simulator.histogram_to_csv(hist), args.out)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    approx = resources.ApproxParams(k=args.k, M=args.M, d=args.d, z=args.z)
    report = resources.estimate_operation(
        args.op, args.n, args.p, approx, _STRATEGIES[args.strategy]
    )
    payload = {"op": args.op, "strategy": args.strategy, **asdict(report)}
    if args.format == "json":
        _write(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.out)
    else:
        keys = [k for k in payload if k != "notes"]
        lines = [",".join(keys), ",".join(str(payload[k]) for k in keys)]
        _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_noise_curve(args: argparse.Namespace) -> int:
    params = noise.NoiseParams(p1=args.p1, p2=args.p2, T1_level1=args.t1a,
                               T1_level2=args.t1b, tau_gate=args.tau)
    names = ["conventional", "qutrit"] if args.strategy == "both" else [args.strategy]
    curves = [noise.success_curve(_STRATEGIES[name], args.max_toffoli, params) for name in names]
    lines = ["toffoli_count," + ",".join(f"p_success_{name}" for name in names)]
    for rows in zip(*curves):
        lines.append(f"{rows[0][0]}," + ",".join(f"{p:.10g}" for _, p in rows))
    quoted = noise.quoted_error_comparison()
    lines.append(
        f"# quoted error at {quoted['toffoli_count']} Toffolis: "
        f"qutrit {quoted['qutrit_error_percent']}%, "
        f"conventional {quoted['conventional_error_percent']}%"
    )
    lines.append(f"# {quoted['footnote']}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    b_l, b_u = args.range
    setup = pricing.PricingSetup(
        d=args.d, T=args.T, n=args.n, w=args.w, beta=args.beta, B_l=b_l, B_u=b_u
    )
    payload = {
        "trunc_error_bound": pricing.trunc_error_bound(setup),
        "disc_error": pricing.disc_error(setup),
    }
    _write(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    failures = 0
    for name, ok in verify.checks():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="triarc", description=__doc__)
    parser.add_argument("--config", help="JSON config file with defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="generate an arithmetic circuit")
    p.add_argument("--op", choices=["adder", "multiplier"], required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--na", type=int, default=None)
    p.add_argument("--nb", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("decompose", help="lower every Toffoli gate")
    p.add_argument("--strategy", choices=["qutrit", "cliffordt"], required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("simulate", help="run a circuit on a basis-state label")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--input", required=True, help="basis label, one digit per wire")
    p.add_argument("--shots", type=int, default=None, help="sample a histogram instead of dumping the state")
    p.add_argument("--seed", type=int, default=None, help="sampling seed (default 0)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="closed-form resource estimate")
    p.add_argument("--op", choices=list(resources.OPERATIONS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--M", type=int, default=1)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--z", type=int, default=1)
    p.add_argument("--strategy", choices=["qutrit", "baseline"], default="baseline")
    p.add_argument("--format", choices=["json", "csv"], default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("noise-curve", help="success probability vs Toffoli count")
    p.add_argument("--strategy", choices=["qutrit", "conventional", "both"], default="both")
    p.add_argument("--max-toffoli", type=int, default=50)
    p.add_argument("--p1", type=float, default=None)
    p.add_argument("--p2", type=float, default=None)
    p.add_argument("--t1a", type=float, default=None)
    p.add_argument("--t1b", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_noise_curve)

    p = sub.add_parser("bounds", help="pricing error bounds")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--T", type=int, default=1)
    p.add_argument("--w", type=float, default=5.0)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--range", type=float, nargs=2, default=(0.0, 0.0), metavar=("B_L", "B_U"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="run the built-in equivalence suite")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # flag, then config file, then default: fill each flag left at None
        resolved = vars(args)
        for name, value in asdict(Config.load(args.config)).items():
            if name in resolved and resolved[name] is None:
                resolved[name] = value
        return args.func(args)
    except (OSError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
