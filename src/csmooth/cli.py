"""Command line front end.

Subcommands: synth, stations, aggregate, recover, evaluate, plot. The four
data-producing subcommands write a ``manifest.json`` next to their outputs
recording the command, its inputs and parameters, and key results; any of
them can be rerun with ``--from-manifest`` to reproduce the same output
bytes (input paths are stored as given and resolved against the current
working directory). All randomness flows from ``--seed`` through numpy's
PCG64 generator, named in the manifest.

Exit codes: 0 success (including a non-converged solve, which is flagged
in the manifest), 1 runtime failure, 2 usage, configuration, or schema
errors. A command that fails removes the output directory it created.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .admm import AdmmConfig
from .dataio import (
    RNG_NAME,
    read_aggregates_csv,
    read_cdf_csv,
    read_covariates_csv,
    read_field_csv,
    read_manifest,
    read_report_csv,
    read_stations_csv,
    write_aggregates_csv,
    write_cdf_csv,
    write_covariates_csv,
    write_diagnostics_csv,
    write_field_csv,
    write_manifest,
    write_report_csv,
    write_stations_csv,
)
from .errors import ConfigError, CsmoothError, SchemaError, ShapeMismatch
from .fem import assemble, triangulate
from .methods import ALL_METHODS, CSS_FEATURES, PE, MethodSpec, run_method_full
from .metrics import relative_errors
from .partition import aggregate, build_partition, sample_stations
from .svgplot import render_bars_svg, render_cdf_svg, render_field_svg
from .synth import SynthSpec, generate_field


def _pair(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'low,high', got {text!r}")
    try:
        return [float(parts[0]), float(parts[1])]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _floats(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _check_distinct(what: str, names: list[str]) -> None:
    repeated = [name for name, k in Counter(names).items() if k > 1]
    if repeated:
        raise ConfigError(f"{what} '{repeated[0]}' given more than once")


# ------------------------------------------------------------- handlers
#
# Each handler takes (inputs, params, out_dir) so a manifest's stored
# inputs/params can be replayed through exactly the same code path.

def _cmd_synth(inputs: dict, params: dict, out: Path) -> dict:
    spec = SynthSpec(
        n_rows=int(params["rows"]),
        n_cols=int(params["cols"]),
        bumps=int(params["bumps"]),
        amp_range=tuple(params["amp"]),
        width_range=tuple(params["width"]),
        beta=None if params["beta"] is None else tuple(params["beta"]),
        covariate_blocks=int(params["blocks"]),
        noise=float(params["noise"]),
        seed=int(params["seed"]),
    )
    truth, cov = generate_field(spec)
    write_field_csv(truth, out / "truth.csv")
    outputs = ["truth.csv"]
    if cov is not None:
        write_covariates_csv(cov, out / "covariates.csv")
        outputs.append("covariates.csv")
    print(f"wrote {out / 'truth.csv'} ({truth.values.size} cells)")
    return {"outputs": outputs, "results": {"total": truth.total()}}


def _cmd_stations(inputs: dict, params: dict, out: Path) -> dict:
    field = read_field_csv(inputs["field"])
    stations = sample_stations(field, int(params["stations"]), seed=int(params["seed"]))
    write_stations_csv(stations, out / "stations.csv")
    print(f"wrote {out / 'stations.csv'} ({stations.m} stations)")
    return {"outputs": ["stations.csv"], "results": {"stations": stations.m}}


def _cmd_aggregate(inputs: dict, params: dict, out: Path) -> dict:
    field = read_field_csv(inputs["field"])
    stations = read_stations_csv(inputs["stations"], field.domain)
    part = build_partition(field.domain, stations)
    volumes = aggregate(part, field)
    write_aggregates_csv(volumes, out / "aggregates.csv")
    print(f"wrote {out / 'aggregates.csv'} ({volumes.values.size} volumes)")
    return {
        "outputs": ["aggregates.csv"],
        "results": {"total": float(volumes.values.sum()), "ties": part.has_ties},
    }


def _cmd_recover(inputs: dict, params: dict, out: Path) -> dict:
    methods = list(params["methods"])
    _check_distinct("method", methods)
    if inputs.get("truth") is not None:
        if inputs.get("domain") or inputs.get("stations") or inputs.get("aggregates"):
            raise ConfigError("--truth gives the domain and samples stations internally; "
                              "drop --domain/--stations-csv/--aggregates or drop --truth")
        if params.get("stations") is None:
            raise ConfigError("--truth mode needs --stations <count>")
        truth = read_field_csv(inputs["truth"])
        domain = truth.domain
        stations = sample_stations(truth, int(params["stations"]), seed=int(params["seed"]))
        part = build_partition(domain, stations)
        volumes = aggregate(part, truth)
    else:
        if not (inputs.get("domain") and inputs.get("stations") and inputs.get("aggregates")):
            raise ConfigError("recover needs either --truth with --stations <count>, "
                              "or --domain, --stations-csv, and --aggregates")
        if params.get("stations") is not None:
            raise ConfigError("--stations <count> is for --truth mode; drop it or --stations-csv")
        domain = read_field_csv(inputs["domain"]).domain
        stations = read_stations_csv(inputs["stations"], domain)
        part = build_partition(domain, stations)
        volumes = read_aggregates_csv(inputs["aggregates"])
        if volumes.values.size != stations.m:
            raise ShapeMismatch(
                f"{volumes.values.size} volumes for {stations.m} stations"
            )

    covariates = None
    if inputs.get("features") is not None:
        covariates = read_covariates_csv(inputs["features"], domain)
    if CSS_FEATURES in methods and covariates is None:
        raise ConfigError("method css-features needs --features <csv>")

    admm = AdmmConfig(
        lam=float(params["lambda"]),
        rho=float(params["rho"]),
        max_iter=int(params["max_iter"]),
        tol=float(params["tol"]),
    )
    # pe reads no mesh; every other method smooths on the one built here
    fem = assemble(triangulate(domain)) if set(methods) - {PE} else None

    # every method runs before any estimate is written
    runs = {
        m: run_method_full(MethodSpec(m, admm), part, volumes,
                           covariates=covariates, fem=fem)
        for m in methods
    }
    outputs, results = [], {}
    for m in methods:
        est, res = runs[m]
        name = f"estimate_{m}.csv"
        write_field_csv(est, out / name)
        outputs.append(name)
        if res is not None:
            diag = f"diagnostics_{m}.csv"
            write_diagnostics_csv(res, out / diag)
            outputs.append(diag)
            results[m] = {
                "iterations": res.iterations,
                "converged": res.converged,
                "constraint_max_violation": res.constraint_violation,
            }
            print(f"wrote {out / name} (iterations={res.iterations}, "
                  f"converged={res.converged})")
        else:
            results[m] = {
                "iterations": None,
                "converged": None,
                "constraint_max_violation": None,
            }
            print(f"wrote {out / name}")
    return {"outputs": outputs, "results": results}


def _cmd_evaluate(inputs: dict, params: dict, out: Path) -> dict:
    # each label names its own cdf_<label>.csv and report row
    _check_distinct("estimate label", [label for label, _ in inputs["estimates"]])
    truth = read_field_csv(inputs["truth"])
    reports = []
    outputs = []
    for label, path in inputs["estimates"]:
        est = read_field_csv(path)
        rep = relative_errors(est, truth, floor=float(params["floor"]), method=label)
        reports.append(rep)
        name = f"cdf_{label}.csv"
        write_cdf_csv(rep, out / name)
        outputs.append(name)
        print(f"{label}: mre={rep.mre!r} excluded={rep.excluded}")
    write_report_csv(reports, out / "report.csv")
    outputs.insert(0, "report.csv")
    return {
        "outputs": outputs,
        "results": {rep.method: rep.mre for rep in reports},
    }


_HANDLERS = {
    "synth": _cmd_synth,
    "stations": _cmd_stations,
    "aggregate": _cmd_aggregate,
    "recover": _cmd_recover,
    "evaluate": _cmd_evaluate,
}


@contextlib.contextmanager
def _output_dir(out: Path):
    """Create ``out`` for a command's outputs; if the command fails, remove what this created.

    A directory that already existed is left as it is.
    """
    created = next((d for d in reversed((out, *out.parents)) if not d.exists()), None)
    out.mkdir(parents=True, exist_ok=True)
    try:
        yield out
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise


def _run_command(command: str, inputs: dict, params: dict, out: Path) -> int:
    with _output_dir(out):
        info = _HANDLERS[command](inputs, params, out)
        manifest = {
            "command": command,
            "inputs": inputs,
            "params": params,
            "outputs": info["outputs"],
            "results": info["results"],
            "rng": RNG_NAME,
            "tool": "csmooth",
            "version": __version__,
        }
        write_manifest(manifest, out / "manifest.json")
    return 0


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> bool:
    return _integer(value) or isinstance(value, float)


# What each kind of manifest entry must be. An entry of a kind "... or null"
# may also be null or missing, as the handlers read it with .get
_KINDS = {
    "a path": lambda v: isinstance(v, str),
    "a list": lambda v: isinstance(v, list),
    "an integer": _integer,
    "a number": _number,
    "a [low, high] pair": lambda v: isinstance(v, list) and len(v) == 2 and all(map(_number, v)),
    "a list of numbers": lambda v: isinstance(v, list) and all(map(_number, v)),
    "a list of method names": lambda v: isinstance(v, list) and all(isinstance(m, str) for m in v),
}

# The inputs and params each replayable command records and reads, with
# their kinds; a key taken from an argparse dest of another name is given
# as (kind, dest)
_REPLAYED = {
    "synth": ({}, {"rows": "an integer", "cols": "an integer", "bumps": "an integer",
                   "amp": "a [low, high] pair", "width": "a [low, high] pair",
                   "beta": "a list of numbers or null", "blocks": "an integer",
                   "noise": "a number", "seed": "an integer"}),
    "stations": ({"field": "a path"}, {"stations": "an integer", "seed": "an integer"}),
    "aggregate": ({"field": "a path", "stations": ("a path", "stations_csv")}, {}),
    "recover": ({"truth": "a path or null", "domain": "a path or null",
                 "stations": ("a path or null", "stations_csv"),
                 "aggregates": "a path or null", "features": "a path or null"},
                {"methods": ("a list of method names", "method"),
                 "lambda": ("a number", "lam"), "rho": "a number",
                 "max_iter": "an integer", "tol": "a number", "stations": "an integer or null"}),
    "evaluate": ({"truth": "a path", "estimates": ("a list", "estimate")},
                 {"floor": "a number"}),
}


def _kind_and_dest(key: str, entry) -> tuple[str, str]:
    return (entry, key) if isinstance(entry, str) else entry


def _recorded(args: argparse.Namespace, table: dict) -> dict:
    """Each key of a ``_REPLAYED`` table with the value argparse parsed for it."""
    return {key: getattr(args, _kind_and_dest(key, entry)[1]) for key, entry in table.items()}


def _check_entries(manifest_path: str, key: str, entries: dict, kinds: dict) -> None:
    """SchemaError naming the first entry of ``kinds`` that ``entries`` lacks or holds ill-typed."""
    for name, entry in kinds.items():
        kind, _ = _kind_and_dest(name, entry)
        value = entries.get(name)
        if value is None and kind.endswith(" or null"):
            continue
        if name not in entries:
            raise SchemaError(f"{manifest_path}: '{key}' lacks '{name}'")
        if not _KINDS[kind.removesuffix(" or null")](value):
            raise SchemaError(f"{manifest_path}: '{key}' entry '{name}' must be {kind}, "
                              f"got {value!r}")


def _rerun_manifest(command: str, manifest_path: str, out: str | None) -> int:
    manifest = read_manifest(manifest_path)
    stored = manifest.get("command")
    if stored != command:
        raise ConfigError(
            f"manifest {manifest_path} records command '{stored}', not '{command}'"
        )
    for key in ("inputs", "params"):
        if not isinstance(manifest.get(key), dict):
            raise SchemaError(f"{manifest_path}: missing '{key}' object")
    inputs, params = manifest["inputs"], manifest["params"]
    need_inputs, need_params = _REPLAYED[command]
    if command == "recover" and inputs.get("truth") is not None:
        # --truth mode samples stations; file mode reads no seed, so an old
        # file-mode manifest that holds one still replays
        need_params = {**need_params, "seed": "an integer"}
    _check_entries(manifest_path, "inputs", inputs, need_inputs)
    _check_entries(manifest_path, "params", params, need_params)
    if command == "evaluate":
        for entry in inputs["estimates"]:
            if not (isinstance(entry, list) and len(entry) == 2
                    and all(isinstance(text, str) for text in entry)):
                raise SchemaError(f"{manifest_path}: an estimate must be a [label, path] pair, "
                                  f"got {entry!r}")
            if not entry[0] or _has_separator(entry[0]):
                raise ConfigError(f"{manifest_path}: estimate label {entry[0]!r} is empty "
                                  "or contains a path separator")
        inputs = dict(inputs)
        inputs["estimates"] = [tuple(e) for e in inputs["estimates"]]
    out_dir = Path(out) if out is not None else Path(manifest_path).parent
    return _run_command(command, inputs, params, out_dir)


def _plottable(path: str, what: str, values) -> None:
    """Reject a value that would put nan coordinates in an SVG; reading it is legal."""
    values = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise SchemaError(f"{path}: cannot plot non-finite {what} {float(values[bad[0]])!r}")


def _cmd_plot(args) -> int:
    if not (args.field or args.cdf or args.report):
        raise ConfigError("plot needs at least one of --field, --cdf, --report")
    with _output_dir(Path(args.out)) as out:
        # every input is read and checked before any SVG is written
        field = read_field_csv(args.field) if args.field else None
        series = []
        for path in args.cdf or ():
            method, errors, values = read_cdf_csv(path)
            _plottable(path, "error level", errors)
            _plottable(path, "cdf value", values)
            series.append((method or Path(path).stem, errors, values))
        rows = read_report_csv(args.report) if args.report else []
        mres = np.array([r[2] for r in rows], dtype=float)
        _plottable(args.report, "mre", mres)
        # an mre is a mean of absolute errors; a negative one would draw a bar
        # of negative width
        if (mres < 0).any():
            raise SchemaError(f"{args.report}: cannot plot negative mre {float(mres.min())!r}")
        if field is not None:
            render_field_svg(field, out / "field.svg", title=args.title or "")
            print(f"wrote {out / 'field.svg'}")
        if series:
            render_cdf_svg(series, out / "cdf.svg", title=args.title or "error cdf")
            print(f"wrote {out / 'cdf.svg'}")
        if rows:
            render_bars_svg(
                [r[0] for r in rows],
                [r[2] for r in rows],
                out / "report.svg",
                title=args.title or "mean relative error",
            )
            print(f"wrote {out / 'report.svg'}")
    return 0


# --------------------------------------------------------------- parser

def _estimate_arg(text: str) -> tuple[str, str]:
    if "=" in text:
        label, path = text.split("=", 1)
    else:
        path = text
        label = Path(text).stem
        label = label.removeprefix("estimate_")
    if not label:
        raise argparse.ArgumentTypeError(f"empty estimate label in {text!r}")
    if _has_separator(label):
        raise argparse.ArgumentTypeError(f"estimate label {label!r} contains a path separator")
    return label, path


def _has_separator(label: str) -> bool:
    # the label names the output file cdf_<label>.csv
    return "/" in label or os.sep in label


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csmooth",
        description="recover fine-grained nonnegative fields from station aggregates",
    )
    parser.add_argument("--version", action="version", version=f"csmooth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seeded=True):
        p.add_argument("--out", help="output directory")
        p.add_argument("--from-manifest", metavar="JSON",
                       help="rerun this subcommand from a stored manifest")
        if seeded:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("synth", help="generate a synthetic ground-truth field")
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--bumps", type=int, default=3)
    p.add_argument("--amp", type=_pair, default=[1.0, 4.0],
                   help="bump amplitude range 'low,high'")
    p.add_argument("--width", type=_pair, default=[2.0, 5.0],
                   help="bump width range 'low,high'")
    p.add_argument("--beta", type=_floats, default=None,
                   help="covariate coefficients 'b0,b1,...' (enables covariates)")
    p.add_argument("--blocks", type=int, default=4,
                   help="anchor count for each blocky covariate column")
    p.add_argument("--noise", type=float, default=0.0)
    add_common(p)

    p = sub.add_parser("stations", help="sample station cells from a field")
    p.add_argument("--field", help="field CSV to sample from")
    p.add_argument("--stations", type=int, help="number of stations")
    add_common(p)

    p = sub.add_parser("aggregate", help="sum a field over station patches")
    p.add_argument("--field")
    p.add_argument("--stations-csv", dest="stations_csv")
    add_common(p, seeded=False)

    p = sub.add_parser("recover", help="estimate a field from station volumes")
    p.add_argument("--truth", help="field CSV; samples stations and aggregates internally")
    p.add_argument("--stations", type=int, help="station count for --truth mode")
    p.add_argument("--domain", help="field CSV whose cells define the domain")
    p.add_argument("--stations-csv", dest="stations_csv")
    p.add_argument("--aggregates")
    p.add_argument("--features", help="covariate CSV for css-features")
    p.add_argument("--method", action="append", choices=ALL_METHODS,
                   help="repeatable; default css")
    p.add_argument("--lambda", dest="lam", type=float, default=AdmmConfig.lam)
    p.add_argument("--rho", type=float, default=AdmmConfig.rho)
    p.add_argument("--max-iter", type=int, default=AdmmConfig.max_iter)
    p.add_argument("--tol", type=float, default=AdmmConfig.tol)
    add_common(p, seeded=False)
    p.add_argument("--seed", type=int, help="station sampling seed for --truth mode (default 0)")

    p = sub.add_parser("evaluate", help="score estimates against a truth field")
    p.add_argument("--truth")
    p.add_argument("--estimate", action="append", type=_estimate_arg,
                   metavar="[LABEL=]CSV", help="repeatable")
    p.add_argument("--floor", type=float, default=1e-9)
    add_common(p, seeded=False)

    p = sub.add_parser("plot", help="render fields, CDFs, or reports as SVG")
    p.add_argument("--field")
    p.add_argument("--cdf", action="append")
    p.add_argument("--report")
    p.add_argument("--title")
    p.add_argument("--out", required=True)

    return parser


def _dispatch(args) -> int:
    if args.command == "plot":
        return _cmd_plot(args)

    if args.from_manifest is not None:
        return _rerun_manifest(args.command, args.from_manifest, args.out)
    if args.out is None:
        raise ConfigError("--out is required (or use --from-manifest)")

    command = args.command
    if command == "synth" and (args.rows is None or args.cols is None):
        raise ConfigError("synth needs --rows and --cols")
    if command == "stations" and (args.field is None or args.stations is None):
        raise ConfigError("stations needs --field and --stations")
    if command == "aggregate" and (args.field is None or args.stations_csv is None):
        raise ConfigError("aggregate needs --field and --stations-csv")
    # only --truth mode draws stations; file mode records no seed, and a
    # manifest that holds one from before still replays
    if command == "recover" and args.seed is not None and args.truth is None:
        raise ConfigError("--seed is for --truth mode, which samples stations; drop it "
                          "or use --truth")
    if command == "evaluate" and (args.truth is None or not args.estimate):
        raise ConfigError("evaluate needs --truth and at least one --estimate")

    inputs, params = (_recorded(args, table) for table in _REPLAYED[command])
    if command == "recover":
        params["methods"] = params["methods"] or ["css"]
        if args.truth is not None:
            params["seed"] = 0 if args.seed is None else args.seed
    return _run_command(command, inputs, params, Path(args.out))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, SchemaError, ShapeMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CsmoothError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
