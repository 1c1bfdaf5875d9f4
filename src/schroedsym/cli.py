"""Command-line front end.

    schroedsym verify <target> [flags]     run a verification suite
    schroedsym demo-transform [flags]      sample a transformed solution

Exit codes: 0 all checks pass, 1 at least one check failed, 2 bad
configuration.  Flags win over values from an optional key=value config
file.  Numeric output uses 17 significant digits so repeat runs with one
seed are byte-identical (timing fields aside).
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import sys

import numpy as np

from .coords import FAMILIES, FamilySpec
from .errors import ConfigError, SchroedSymError
from .group import GroupElement, Mat2
from .residual import residual_arrays, transformed
from .sampling import element_for_family
from .solutions import f_pair, g_functions, gaussian_free, power_static, theta1
from .suites import T_RANGE, X_RANGE, RunConfig, SuiteReport, run_suite, suite_names


# the demo's sampling window, the residual checks'; f2 and power leave their
# domains (t > 0, x > 0) on it, so they get their own unless a range flag is set
_DEMO_RANGE = dict(zip(("t_min", "t_max", "x_min", "x_max"), (*T_RANGE, *X_RANGE)))
_DEMO_WINDOWS = {"f2": {"t_min": 0.4, "t_max": 1.0}, "power": {"x_min": 0.4, "x_max": 1.8}}
FORMATS = ("text", "json")  # of the report

# the flags every command takes, which are also the keys of a config file:
# a config value is checked with its flag's type and choices
_COMMON_FLAGS = {
    "family": {"choices": FAMILIES},
    "k": {"type": complex, "help": "real or purely imaginary, e.g. 0.7j"},
    "alpha": {"type": float}, "beta": {"type": float}, "omega": {"type": float},
    "seed": {"type": int}, "trials": {"type": int}, "tol": {"type": float},
    "format": {"choices": FORMATS},
    "out": {"help": "write the report/records here instead of stdout"},
}


def _build_parser():
    parser = argparse.ArgumentParser(prog="schroedsym",
                                     description="verification suites for the "
                                                 "symmetry groups of generalized "
                                                 "Schrodinger equations")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file; explicit flags win")
    for name, kwargs in _COMMON_FLAGS.items():
        common.add_argument("--" + name, **kwargs)

    pv = sub.add_parser("verify", parents=[common], help="run a verification suite")
    pv.add_argument("target", choices=["all", *suite_names()])

    pd = sub.add_parser("demo-transform", parents=[common],
                        help="write samples of a transformed solution")
    pd.add_argument("--solution", default="f1",
                    choices=["f1", "f2", "gaussian", "power", "theta", "g2", "g3"])
    pd.add_argument("--element", default=None,
                    help="c,d,a,b,mu,nu (defaults to a seeded random element)")
    pd.add_argument("--identity", action="store_true", help="use the unit element")
    pd.add_argument("--nt", type=int, default=12)
    pd.add_argument("--nx", type=int, default=12)
    for flag in _DEMO_RANGE:
        pd.add_argument("--" + flag.replace("_", "-"), type=float)
    return parser


def _demo_range(args):
    flags = {key: getattr(args, key) for key in _DEMO_RANGE}
    window = dict(_DEMO_RANGE)
    if all(v is None for v in flags.values()):
        window.update(_DEMO_WINDOWS.get(args.solution, {}))
    window.update({key: v for key, v in flags.items() if v is not None})
    return window


def _load_config_file(path):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, val = (part.strip() for part in line.split("=", 1))
                values[key.replace("-", "_")] = val
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _config_value(key, text):
    """A config file's ``key = text``, checked like its flag."""
    if key not in _COMMON_FLAGS:
        raise ConfigError(f"unknown config key {key!r}")
    kwargs = _COMMON_FLAGS[key]
    try:
        value = kwargs.get("type", str)(text)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc
    choices = kwargs.get("choices")
    if choices is not None and value not in choices:
        raise ConfigError(f"unknown {key} {value!r}; choose from {list(choices)}")
    return value


def _merge_config(args):
    merged = {}
    if args.config:
        for key, text in _load_config_file(args.config).items():
            merged[key] = _config_value(key, text)
    for key in _COMMON_FLAGS:
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
    return merged


def _run_config(merged):
    names = {f.name for f in dataclasses.fields(RunConfig)}
    return RunConfig(**{k: v for k, v in merged.items() if k in names})


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text + ("" if text.endswith("\n") else "\n"))


def format_report(report: SuiteReport, fmt: str) -> str:
    return report.to_json() if fmt == "json" else report.to_text()


def _cmd_verify(args):
    merged = _merge_config(args)
    cfg = _run_config(merged)
    report = run_suite(args.target, cfg)
    fmt = merged.get("format", "text")
    _emit(format_report(report, fmt), merged.get("out"))
    return 0 if report.all_passed else 1


def _parse_element(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 6:
        raise ConfigError("element must be six comma-separated numbers: c,d,a,b,mu,nu")
    try:
        c, d, a, b, mu, nu = (complex(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad element entry: {exc}") from exc
    if not all(map(cmath.isfinite, (c, d, a, b, mu, nu))):
        raise ConfigError(f"element entries must be finite, got {text}")
    return GroupElement(Mat2(c, d, a, b), mu, nu)


def _demo_solution(name, cfg):
    spec_map = {
        "f1": "linear", "f2": "linear", "gaussian": "free",
        "power": "inverse_quadratic", "theta": "free", "g2": "quadratic",
        "g3": "quadratic",
    }
    sp = cfg.specs()
    spec = sp[spec_map[name]]
    if name == "f1":
        return f_pair(spec)[0], spec
    if name == "f2":
        return f_pair(spec)[1], spec
    if name == "gaussian":
        return gaussian_free(spec.k, t0=2.0), spec
    if name == "power":
        return power_static(2.0, 2.0), spec
    if name == "theta":
        return theta1(24), FamilySpec.free(-1j / (4.0 * np.pi))
    if name == "g2":
        return g_functions(spec, 0.0)[1], spec
    return g_functions(spec, 0.6)[2], spec


def _cmd_demo(args):
    merged = _merge_config(args)
    cfg = _run_config(merged)
    if args.nt < 1 or args.nx < 1:
        raise ConfigError(f"--nt and --nx must be >= 1, got {args.nt} and {args.nx}")
    fn, spec = _demo_solution(args.solution, cfg)
    if args.identity:
        element = GroupElement.identity()
    elif args.element:
        element = _parse_element(args.element)
    else:
        rng = np.random.default_rng(cfg.seed)
        element = element_for_family(rng, spec, scale=0.3, translation=0.5)
    moved = transformed(fn, element, spec)
    window = _demo_range(args)
    ts = np.linspace(window["t_min"], window["t_max"], args.nt)
    xs = np.linspace(window["x_min"], window["x_max"], args.nx)
    if args.solution == "theta":
        ts = 1j * np.linspace(1.0, 1.6, args.nt)
        xs = np.linspace(-0.4, 0.4, args.nx)
    t, x = np.meshgrid(ts, xs, indexing="ij", sparse=True)
    resid, psi = residual_arrays(moved, spec, t, [x])
    T, X, psi, resid = (a.ravel() for a in np.broadcast_arrays(t, x, psi, resid))
    lines = ["t\tx\tre_psi\tim_psi\tresidual_abs"]
    for i in range(T.size):
        lines.append("\t".join((
            f"{np.real(T[i]):.17g}" if abs(np.imag(T[i])) < 1e-300 else f"{T[i]:.17g}",
            f"{np.real(X[i]):.17g}",
            f"{np.real(psi[i]):.17g}",
            f"{np.imag(psi[i]):.17g}",
            f"{abs(resid[i]):.17g}",
        )))
    _emit("\n".join(lines), merged.get("out"))
    return 0


def _joined_values(parser, argv):
    """``argv`` with ``--flag V`` written ``--flag=V`` wherever ``--flag``
    takes a value and V is no option of the parser (nor ``--``): argparse
    reads a V that starts with ``-`` as an option unless it is a plain
    decimal, so it would refuse ``-0.7j``, ``-1e-3`` or ``-1,0,0,-1,0,0``."""
    takes_value, parsers = {"--": False}, [parser]
    for p in parsers:  # the parser, then its commands'
        for action in p._actions:
            takes_value.update(dict.fromkeys(action.option_strings, action.nargs is None))
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    out = []
    for arg in argv:
        if out and takes_value.get(out[-1]) and arg not in takes_value:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(_joined_values(parser, sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_demo(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SchroedSymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # named as a check's row names it
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
