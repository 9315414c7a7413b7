"""Command-line front-end.

Subcommands: ``exponents`` (phase-diagram tables), ``simulate <task>`` (Monte
Carlo estimators, one subcommand per task), ``chemdist`` (distance scaling
fits) and ``verify`` (acceptance suites), each taking only the flags it
reads; a flag or config key that it does not read is a usage error.
Configuration can come from a JSON file (--config) whose keys are the flag
names, and each value is read as its flag's text by the same parse as the
command line: flags win over file values, and file values over the defaults.
Nothing else is read, not even the environment.

Exit codes: 0 success, 1 verification failure, 2 usage error, budget
refusal (site or jump budget) or an output file that cannot be written, 3
refused by design (stretched-exponential Monte Carlo request).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, chemdist, exponents, montecarlo, reporting, verify
from .montecarlo import StretchedRegimeError
from .scenery import JumpBudgetError, SiteBudgetError

#: exponents table kind -> the x flag it tabulates over, then the other flags it reads
_TABLES = {"p": ("rho",), "q": ("delta",), "displacement": ("delta", "gamma")}


def finite(text) -> float:
    """A float flag value that must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


#: flag name -> add_argument keywords
_FLAGS = {
    "config": dict(help="JSON config file; explicit flags win"),
    "alpha": dict(help="tail index alpha (exponents: a grid, list or lo:hi:n)"),
    "dim": dict(type=int, help="lattice dimension d (>= 1)"),
    "rho": dict(help="deviation exponent rho (exponents: a grid)"),
    "delta": dict(help="vertical displacement exponent delta (exponents: a grid)"),
    "gamma": dict(help="transverse displacement exponent gamma"),
    "t_grid": dict(help="time grid, list or lo:hi:n (geometric)"),
    "replicas": dict(type=int, help="Monte Carlo replicas"),
    "seed": dict(type=int, default=0, help="master seed in [0, 2^64) (default 0)"),
    "out": dict(help="output path (default stdout, write-once)"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "jobs": dict(type=int, help="parallel evaluation slots (>= 1)"),
    "which": dict(choices=tuple(_TABLES), help="table kind"),
    "quantile": dict(type=finite, default=0.5),
    "b_value": dict(type=finite, default=5.0),
    "moment": dict(type=int, default=2),
    "seeds": dict(type=int, default=20, help="number of environments"),
    "suite": dict(default="all", help="comma list of suite names or 'all'"),
}

#: flags every simulate task reads
_SIM_COMMON = ("dim", "t_grid", "replicas", "seed", "format")

#: simulate task -> (help, flags it reads besides _SIM_COMMON, single horizon)
_TASKS = {
    "lln": ("sample mean of A_t/t against the scenery mean", ("alpha",), True),
    "scaling": ("log-log slope of a quantile of A_t", ("alpha", "quantile", "jobs"), False),
    "tail-scan": (
        "polynomial-regime tail frequencies", ("alpha", "rho", "delta", "gamma", "jobs"), False
    ),
    "chen": ("Chen-type tail bound on l_t(0)", ("b_value",), True),
    "khasminskii": ("factorial moment bound on l_t(0)", ("moment",), True),
}


def _opt(flag: str) -> str:
    """The command-line spelling of a flag name."""
    return "--" + flag.replace("_", "-")


def _parse_grid(args, flag: str) -> list[float]:
    """Parse a flag's "a,b,c" list or "lo:hi:n" range (geometric for --t-grid).

    Every value must be finite, and a time's also > 0.  An error names the flag.
    """
    text, geometric = getattr(args, flag), flag == "t_grid"
    try:
        if not text.strip():
            raise ValueError("empty grid")
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError(f"range syntax is lo:hi:n, got {text!r}")
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
            if n < 1 or min(lo, hi) <= 0 and geometric:
                raise ValueError(f"bad range {text!r}")
            space = np.geomspace if geometric else np.linspace
            values = [lo] if n == 1 else list(space(lo, hi, n))
        else:
            values = [float(v) for v in text.split(",")]
        if not all(math.isfinite(v) and (v > 0 or not geometric) for v in values):
            need = "finite and > 0" if geometric else "finite"
            raise ValueError(f"grid values must be {need}, got {text!r}")
    except ValueError as exc:
        raise ValueError(f"{_opt(flag)}: {exc}") from None
    return values


#: values of a flag that count as leaving it out
_UNSET = (None, "")


def _scalar(args, flag: str, default=None):
    """The one value of a value flag; ``default`` when it is left out or not taken."""
    if getattr(args, flag, None) in _UNSET:
        return default
    values = _parse_grid(args, flag)
    if len(values) != 1:
        raise ValueError(f"{_opt(flag)} takes one value, got {getattr(args, flag)!r}")
    return values[0]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenerywalk",
        description="Heavy-tailed random scenery walks: exponents, simulation, verification.",
    )
    parser.add_argument("--version", action="version", version=f"scenerywalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(into, name, help, *flags):
        p = into.add_parser(name, help=help)
        for flag in ("config", *flags, "out"):
            p.add_argument(_opt(flag), dest=flag, **_FLAGS[flag])

    add(sub, "exponents", "tabulate exponent phase diagrams",
        "alpha", "dim", "rho", "delta", "gamma", "which", "format")
    tasks = sub.add_parser("simulate", help="run a Monte Carlo estimator").add_subparsers(
        dest="task", required=True
    )
    for task, (help, flags, _) in _TASKS.items():
        add(tasks, task, help, *_SIM_COMMON, *flags)
    add(sub, "chemdist", "chemical distance scaling fit",
        "alpha", "dim", "delta", "gamma", "t_grid", "seed", "format", "seeds")
    add(sub, "verify", "run acceptance suites", "suite")
    return parser


def _config_argv(args, parser: argparse.ArgumentParser) -> list[str]:
    """The --config file's keys as ``--flag=text`` tokens.

    A config may set only the flags its subcommand (or simulate task) takes,
    each under its flag's name.  A number or string is read as its flag's
    text and a list as its comma-joined text; null and [] are left out, and
    any other value is refused.
    """
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config: {exc}")
    if not isinstance(cfg, dict):
        parser.error(f"config must be a JSON object, got {type(cfg).__name__}")
    unknown = set(cfg) - (set(vars(args)) - {"command", "task", "config"})
    if unknown:
        name = " ".join(filter(None, (args.command, getattr(args, "task", None))))
        parser.error(f"config fields not read by {name}: {sorted(unknown)}")
    tokens = []
    for key, value in cfg.items():
        items = value if isinstance(value, list) else [value]
        if value is None or not items:
            continue
        if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in items):
            parser.error(f"config field {key}: {json.dumps(value)} is not a number, string or list")
        tokens.append(f"{_opt(key)}={','.join(map(str, items))}")
    return tokens


def _emit(args, header, rows, payload) -> None:
    out = args.out or "-"
    if args.format == "csv":
        reporting.write_text(out, reporting.render_csv(header, rows))
    else:
        reporting.write_text(out, reporting.render_json(payload))


def _cmd_exponents(args, parser) -> int:
    if args.alpha is None or args.dim is None:
        parser.error("exponents needs --alpha and --dim")
    alphas = _parse_grid(args, "alpha")
    which = args.which or ("p" if args.rho is not None else "q")
    for f in ("rho", "delta", "gamma"):
        if f not in _TABLES[which] and getattr(args, f) not in _UNSET:
            parser.error(f"--which {which} does not read --{f}")
    flag = _TABLES[which][0]
    if getattr(args, flag) is None:
        parser.error(f"--which {which} needs --{flag}")
    xs = _parse_grid(args, flag)
    gamma = _scalar(args, "gamma", 0.0)
    rows = exponents.phase_diagram(alphas, xs, which, args.dim, gamma=gamma)
    prov = reporting.provenance_string(
        {
            "cmd": "exponents",
            "which": which,
            "dim": args.dim,
            "alpha": alphas,
            "x": xs,
            "gamma": gamma,
        }
    )
    header = ("alpha", "x", "value", "regime")
    payload = {
        "command": "exponents",
        "which": which,
        "dim": args.dim,
        "provenance": prov,
        "rows": [dict(zip(header, r)) for r in rows],
    }
    _emit(args, header, rows, payload)
    return 0


def _cmd_simulate(args, parser) -> int:
    for flag in ("replicas", "dim", "alpha"):
        if flag in args and getattr(args, flag) in _UNSET:
            parser.error(f"{args.task} needs {_opt(flag)}")
    seed, jobs, dim = args.seed, getattr(args, "jobs", None), args.dim
    alpha = _scalar(args, "alpha")
    t_grid = _parse_grid(args, "t_grid") if args.t_grid else None
    params = {
        "task": args.task,
        "alpha": alpha,
        "dim": dim,
        "seed": seed,
        "replicas": args.replicas,
        "t_grid": t_grid,
    }
    rho, delta, gamma = (_scalar(args, flag) for flag in ("rho", "delta", "gamma"))
    model = None
    if args.task == "tail-scan":
        model = "rcm" if delta is not None else "rwrs"
    # every resolved input that can change the output (not jobs, out or format);
    # a flag the task does not take enters at its default
    prov = reporting.provenance_string(
        {
            **params,
            "rho": rho,
            "delta": delta,
            "gamma": gamma or 0.0,
            **{
                f: getattr(args, f, _FLAGS[f]["default"])
                for f in ("quantile", "b_value", "moment")
            },
            "model": model,
        }
    )
    _, _, single_horizon = _TASKS[args.task]
    if single_horizon and (not t_grid or len(t_grid) != 1):
        parser.error(f"{args.task} needs --t-grid with exactly one value")
    if not t_grid:
        parser.error(f"{args.task} needs --t-grid")

    if args.task == "lln":
        r = montecarlo.lln_check(alpha, dim, t_grid[0], args.replicas, seed)
        header = ("t", "mean", "stderr", "target")
        rows = [(r.t, r.mean, r.stderr, r.target)]
        extra = {"result": rows[0]}
    elif args.task == "scaling":
        r = montecarlo.scaling_exponent_estimate(
            alpha, dim, t_grid, args.replicas, args.quantile, seed, jobs=jobs
        )
        header, rows = ("t", "quantile_A_t"), r.quantiles
        extra = {
            "slope": r.slope,
            "stderr": r.stderr,
            "reference": r.reference,
            "one_sided": r.one_sided,
            "quantiles": r.quantiles,
        }
    elif args.task == "tail-scan":
        if model == "rwrs":
            if rho is None:
                parser.error("rwrs tail-scan needs --rho")
            if gamma is not None:
                parser.error("rwrs tail-scan does not read --gamma")
            kwargs = {"rho": rho}
        else:
            if rho is not None:
                parser.error("rcm tail-scan does not read --rho")
            kwargs = {"delta": delta, "gamma": 0.0 if gamma is None else gamma}
        scan = montecarlo.tail_prob_scan(
            model, alpha, dim, t_grid, args.replicas, seed, jobs=jobs, **kwargs
        )
        header = ("t", "probability", "ci_low", "ci_high")
        rows = [
            (t, e.probability, e.ci_low, e.ci_high) for t, e in zip(scan.t_grid, scan.estimates)
        ]
        extra = {
            **kwargs,
            "model": model,
            "floor_ok": scan.floor_ok,
            "slope": None if scan.slope is None else scan.slope.slope,
        }
    elif args.task == "chen":
        rep = montecarlo.chen_verify(dim, t_grid[0], args.b_value, args.replicas, seed)
        header = ("lambda", "threshold", "probability", "bound")
        rows = [(r.lam, r.threshold, r.estimate.probability, r.bound) for r in rep.rows]
        extra = {"a_value": rep.a_value, "violations": rep.n_violations}
    else:  # khasminskii
        rep = montecarlo.khasminskii_verify(dim, t_grid[0], args.moment, args.replicas, seed)
        header = ("t", "m", "lhs", "rhs", "violated")
        rows = [(rep.t, rep.m, rep.lhs, rep.rhs, rep.violated)]
        extra = {"row": rows[0]}
    # every estimator row ends in its seed, replica count and provenance
    header += ("seed", "replicas", "provenance")
    rows = [(*row, seed, args.replicas, prov) for row in rows]
    if args.task in ("tail-scan", "chen"):  # their JSON holds the full rows
        extra["rows"] = rows
    _emit(args, header, rows, {"command": "simulate", **params, "provenance": prov, **extra})
    return 0


def _cmd_chemdist(args, parser) -> int:
    missing = args.dim is None or not args.t_grid
    if missing or args.alpha in _UNSET or args.delta in _UNSET:
        parser.error("chemdist needs --alpha --dim --delta --t-grid")
    alpha, delta = _scalar(args, "alpha"), _scalar(args, "delta")
    gamma = _scalar(args, "gamma", 0.0)
    t_grid = _parse_grid(args, "t_grid")
    seeds = [args.seed + k for k in range(args.seeds)]
    fit = chemdist.chemdist_scaling(alpha, args.dim, delta, gamma, t_grid, seeds)
    prov = reporting.provenance_string(
        {
            "cmd": "chemdist",
            "alpha": alpha,
            "dim": args.dim,
            "delta": delta,
            "gamma": gamma,
            "t_grid": t_grid,
            "seeds": seeds,
        }
    )
    header = ("t", "seed", "distance", "provenance")
    rows = [(t, s, d, prov) for t, s, d in fit.rows]
    rows.append(("slope", fit.slope, fit.stderr, prov))
    payload = {
        "command": "chemdist",
        "alpha": alpha,
        "dim": args.dim,
        "delta": delta,
        "gamma": gamma,
        "provenance": prov,
        "slope": fit.slope,
        "stderr": fit.stderr,
        "rows": [(t, s, d) for t, s, d in fit.rows],
    }
    _emit(args, header, rows, payload)
    return 0


def _cmd_verify(args, parser) -> int:
    names = list(verify.SUITES) if args.suite == "all" else args.suite.split(",")
    try:
        results = verify.run_suites(names)
    except KeyError as exc:
        parser.error(str(exc))
    for r in results:
        print(r.line())
    payload = {
        "command": "verify",
        "results": [
            {
                "name": r.name,
                "passed": r.passed,
                "statistic_passed": r.statistic_passed,
                "within_budget": r.within_budget,
                "runtime_s": round(r.runtime_s, 3),
                "details": r.details,
            }
            for r in results
        ],
    }
    if args.out not in (None, "-"):
        reporting.write_text(args.out, reporting.render_json(payload))
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:
        # the file's tokens go after the command (and task), so a flag given wins
        cut = 2 if args.command == "simulate" else 1
        args = parser.parse_args([*argv[:cut], *_config_argv(args, parser), *argv[cut:]])
    for key in ("dim", "jobs", "seeds", "replicas"):
        value = getattr(args, key, None)
        if value is not None and value < 1:
            parser.error(f"{_opt(key)} must be >= 1, got {value}")
    # the 64-bit Philox key would wrap a seed outside [0, 2^64)
    if not 0 <= getattr(args, "seed", 0) < 2**64:
        parser.error(f"seed must lie in [0, 2^64), got {args.seed}")
    try:
        if args.command == "exponents":
            return _cmd_exponents(args, parser)
        if args.command == "simulate":
            return _cmd_simulate(args, parser)
        if args.command == "chemdist":
            return _cmd_chemdist(args, parser)
        return _cmd_verify(args, parser)
    except StretchedRegimeError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, SiteBudgetError, JumpBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
