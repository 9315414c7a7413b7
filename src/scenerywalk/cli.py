"""Command-line front-end.

Subcommands: ``exponents`` (phase-diagram tables), ``simulate <task>`` (Monte
Carlo estimators, one subcommand per task), ``chemdist`` (distance scaling
fits) and ``verify`` (acceptance suites), each taking only the flags it
reads; a flag or config key that it does not read is a usage error.
Configuration can come from a JSON file (--config) whose keys are the flag
names: flags win over file values, and file values over the defaults.
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


#: flag name -> add_argument keywords; a default is applied only after the
#: config file is read, so that it cannot override a file value
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


def _parse_grid(text, geometric: bool) -> list[float]:
    """Parse "a,b,c" lists or "lo:hi:n" ranges (geometric for t grids).

    Config files may supply plain numbers or lists instead of strings. Every
    value must be finite, and a time grid's (``geometric``) also > 0.
    """
    if isinstance(text, (int, float)):
        text = [text]
    if isinstance(text, (list, tuple)):
        values = [float(v) for v in text]
    elif not text.strip():
        raise ValueError("empty grid")
    elif ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range syntax is lo:hi:n, got {text!r}")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        if n < 1 or min(lo, hi) <= 0 and geometric:
            raise ValueError(f"bad range {text!r}")
        values = [lo] if n == 1 else list((np.geomspace if geometric else np.linspace)(lo, hi, n))
    else:
        values = [float(v) for v in text.split(",")]
    if not all(math.isfinite(v) and (v > 0 or not geometric) for v in values):
        need = "finite and > 0" if geometric else "finite"
        raise ValueError(f"grid values must be {need}, got {text!r}")
    return values


#: values of a flag that count as leaving it out
_UNSET = (None, "", [])


def _scalar(args, flag: str, default=None):
    """The one value of a value flag; ``default`` when it is left out or not taken."""
    text = getattr(args, flag, None)
    if text in _UNSET:
        return default
    values = _parse_grid(text, geometric=False)
    if len(values) != 1:
        raise ValueError(f"--{flag.replace('_', '-')} takes one value, got {text!r}")
    return float(values[0])


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
            spec = dict(_FLAGS[flag], default=None)
            p.add_argument("--" + flag.replace("_", "-"), dest=flag, **spec)

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


def _config_value(key: str, value, parser: argparse.ArgumentParser):
    """A config file value converted and checked as its flag would be on the command line."""
    spec = _FLAGS[key]
    if "type" in spec:
        try:
            value = spec["type"](str(value))
        except ValueError:
            parser.error(f"config field {key}: invalid {spec['type'].__name__} value {value!r}")
    if "choices" in spec and value not in spec["choices"]:
        parser.error(f"config field {key}: {value!r} is not one of {', '.join(spec['choices'])}")
    return value


def _resolve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill flags left unset from the --config file, then from the defaults.

    A config may set only the flags its subcommand (or simulate task)
    takes, each under its flag's name.  A file value goes through its flag's
    ``type`` and ``choices``; flags without a type (the grids and values)
    also take numbers and lists.  A --dim or --jobs below 1 is refused.
    """
    flags = set(vars(args)) - {"command", "task", "config"}
    cfg = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config: {exc}")
        if not isinstance(cfg, dict):
            parser.error(f"config must be a JSON object, got {type(cfg).__name__}")
    unknown = set(cfg) - flags
    if unknown:
        name = " ".join(filter(None, (args.command, getattr(args, "task", None))))
        parser.error(f"config fields not read by {name}: {sorted(unknown)}")
    for key in flags:
        if getattr(args, key) is not None:
            continue
        if cfg.get(key) is not None:
            setattr(args, key, _config_value(key, cfg[key], parser))
        else:
            setattr(args, key, _FLAGS[key].get("default"))
    for key in ("dim", "jobs"):
        value = getattr(args, key, None)
        if value is not None and value < 1:
            parser.error(f"--{key} must be >= 1, got {value}")


def _master_seed(args, parser: argparse.ArgumentParser) -> int:
    """Master seed from --seed or the config (else 0).

    A seed outside [0, 2^64) is refused: the 64-bit Philox key would wrap it.
    """
    if not 0 <= args.seed < 2**64:
        parser.error(f"seed must lie in [0, 2^64), got {args.seed}")
    return args.seed


def _emit(args, header, rows, payload) -> None:
    out = args.out or "-"
    if args.format == "csv":
        reporting.write_text(out, reporting.render_csv(header, rows))
    else:
        reporting.write_text(out, reporting.render_json(payload))


def _cmd_exponents(args, parser) -> int:
    if args.alpha is None or args.dim is None:
        parser.error("exponents needs --alpha and --dim")
    alphas = _parse_grid(args.alpha, geometric=False)
    which = args.which or ("p" if args.rho is not None else "q")
    for f in ("rho", "delta", "gamma"):
        if f not in _TABLES[which] and getattr(args, f) not in _UNSET:
            parser.error(f"--which {which} does not read --{f}")
    flag = _TABLES[which][0]
    x_text = getattr(args, flag)
    if x_text is None:
        parser.error(f"--which {which} needs --{flag}")
    xs = _parse_grid(x_text, geometric=False)
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
    seed = _master_seed(args, parser)
    if args.replicas is None or args.replicas < 1:
        parser.error("simulate needs --replicas >= 1")
    if args.dim is None:
        parser.error(f"{args.task} needs --dim")
    if "alpha" in args and args.alpha in _UNSET:
        parser.error(f"{args.task} needs --alpha")
    jobs = getattr(args, "jobs", None)
    alpha = _scalar(args, "alpha")
    dim = args.dim
    t_grid = _parse_grid(args.t_grid, geometric=True) if args.t_grid else None
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
        header = ("t", "mean", "stderr", "target", "seed", "replicas", "provenance")
        rows = [(r.t, r.mean, r.stderr, r.target, seed, r.replicas, prov)]
        extra = {"result": rows[0][:4]}
    elif args.task == "scaling":
        r = montecarlo.scaling_exponent_estimate(
            alpha, dim, t_grid, args.replicas, args.quantile, seed, jobs=jobs
        )
        header = ("t", "quantile_A_t", "seed", "replicas", "provenance")
        rows = [(t, q, seed, args.replicas, prov) for t, q in r.quantiles]
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
        header = (
            "t",
            "probability",
            "ci_low",
            "ci_high",
            "seed",
            "replicas",
            "provenance",
        )
        rows = [
            (t, e.probability, e.ci_low, e.ci_high, seed, e.replicas, prov)
            for t, e in zip(scan.t_grid, scan.estimates)
        ]
        extra = {
            **kwargs,
            "model": model,
            "floor_ok": scan.floor_ok,
            "slope": None if scan.slope is None else scan.slope.slope,
            "rows": rows,
        }
    elif args.task == "chen":
        rep = montecarlo.chen_verify(dim, t_grid[0], args.b_value, args.replicas, seed)
        header = ("lambda", "threshold", "probability", "bound", "seed", "replicas", "provenance")
        rows = [
            (r.lam, r.threshold, r.estimate.probability, r.bound, seed, args.replicas, prov)
            for r in rep.rows
        ]
        extra = {"a_value": rep.a_value, "violations": rep.n_violations, "rows": rows}
    else:  # khasminskii
        rep = montecarlo.khasminskii_verify(dim, t_grid[0], args.moment, args.replicas, seed)
        header = ("t", "m", "lhs", "rhs", "violated", "seed", "replicas", "provenance")
        rows = [(rep.t, rep.m, rep.lhs, rep.rhs, rep.violated, seed, args.replicas, prov)]
        extra = {"row": rows[0][:5]}
    _emit(args, header, rows, {"command": "simulate", **params, "provenance": prov, **extra})
    return 0


def _cmd_chemdist(args, parser) -> int:
    missing = args.dim is None or not args.t_grid
    if missing or args.alpha in _UNSET or args.delta in _UNSET:
        parser.error("chemdist needs --alpha --dim --delta --t-grid")
    alpha, delta = _scalar(args, "alpha"), _scalar(args, "delta")
    gamma = _scalar(args, "gamma", 0.0)
    t_grid = _parse_grid(args.t_grid, geometric=True)
    seed = _master_seed(args, parser)
    seeds = [seed + k for k in range(args.seeds)]
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
    args = parser.parse_args(argv)
    _resolve(args, parser)
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
