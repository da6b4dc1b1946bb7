"""Command-line surface: reproducible experiments with file-based artifacts.

Every run writes its artifacts plus a manifest (resolved config, sha256 of the
config, library version) into the output directory, chosen by --out or the
TRACEFORM_OUTDIR environment variable.  All randomness flows from an explicit
--seed; rerunning a command with the same config reproduces byte-identical
outputs.  Exit codes: 0 success, 2 validation failure, 3 precondition
violation, 4 IO failure, 5 any other library failure (such as an exit walk
past its step cap).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .darning import equivalence_report
from .decompose import decompose_harmonic, project_subspace
from .energy import dirichlet_energy, energy_measure, part_energy, subspace_energy
from .errors import PreconditionError, TraceformError, ValidationError
from .gridfn import GridFunction, darn_function
from .intervals import IntervalSet, Tail, _csv_text, build_interval_set, svc_complement
from .simulate import (PathSample, bm_paths, estimate_hitting, estimate_laplace,
                       occupation_fractions, simulate_xs, walk_paths)
from .trace import (TraceFunction, feller_numeric, feller_weight, jump_table_csv,
                    trace_complement_energy, trace_energy, trace_measure_dict,
                    trace_subspace_energy)
from .transforms import DarningMap, ScaleFunction, SpeedMeasure, classify_case, pushforward_speed


# -- IO helpers -------------------------------------------------------------


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _read(path: str, as_json: bool = False):
    """The UTF-8 text of an input file, or the JSON value it holds."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text) if as_json else text
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _emit(args, command: str, files: dict[str, str], lines) -> None:
    """Write the artifacts and the manifest, then print the artifact paths
    and the summary lines."""
    outdir = Path(args.out or os.environ.get("TRACEFORM_OUTDIR") or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        _atomic_write(outdir / name, text)
    # workers changes how a run is scheduled, never what it writes
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "workers") and v is not None}
    manifest = {
        "command": command,
        "config": config,
        "config_sha256": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "version": __version__,
        "artifacts": sorted(files),
    }
    _atomic_write(outdir / "manifest.json", _json_text(manifest))
    for line in [*(outdir / name for name in sorted(files)), *lines]:
        print(line)


# -- argument parsing helpers ------------------------------------------------


def _fraction(text: str) -> Fraction:
    try:
        x = float(text)
    except ValueError:  # a ratio 'p/q', or no number at all
        x = None
    # a decimal is placed by its float before its Fraction, which takes seconds
    # at 1e-10000000 and never ends at 0e999999999: a zero reads as 0 whatever
    # its exponent, and a ratio is placed by its Fraction
    if x == 0 and not any(c in "123456789" for c in text.lower().partition("e")[0]):
        return Fraction(0)
    past = x is not None and math.isinf(x) and "inf" not in text.lower()
    below = x == 0
    if not (past or below):
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse {text!r} as a rational number") from exc
        past = abs(value) > sys.float_info.max
        below = not past and value != 0 and float(value) == 0
    if past or below:
        raise ValidationError(f"{text!r} is {'past' if past else 'below'} the float range")
    return value


def _pair(text: str, read=_fraction, form: str = "a,b") -> tuple:
    """The two comma-separated values of a flag, each read by ``read``."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"expected {form!r}, got {text!r}")
    try:
        return read(parts[0]), read(parts[1])
    except ValueError as exc:  # a name that is not a Tail
        raise ValidationError(str(exc)) from exc


def _load_set(args, optional: bool = False) -> IntervalSet | None:
    """The set named by exactly one of the set sources the command reads
    (--set, --svc-depth, --components, and --gap where it has one); with
    ``optional``, None when none of them is given."""
    sources = {f"--{name.replace('_', '-')}": getattr(args, name)
               for name in ("set", "svc_depth", "components", "gap") if hasattr(args, name)}
    given = [flag for flag, value in sources.items() if value not in (None, "")]
    if len(given) > 1 or not (given or optional):
        raise ValidationError(f"specify the set by exactly one of {', '.join(sources)}")
    # each set flag is read only with the sources its help text names
    source = given[0] if given else None
    for name, readers in (("window", ("--components", "--svc-depth")),
                          ("tails", ("--components",)), ("period", ("--components",))):
        if getattr(args, name) and source not in readers:
            raise ValidationError(f"--{name} is read only with {' or '.join(readers)}")
    if source == "--set":
        return IntervalSet.from_dict(_read(args.set, as_json=True))
    if source == "--svc-depth":
        window = _pair(args.window) if args.window else (Fraction(0), Fraction(1))
        return svc_complement(args.svc_depth, window=window)
    if source == "--gap":  # a single open gap as the whole set
        a, b = _pair(args.gap)
        return build_interval_set(components=((a, b),), window=(a, b),
                                  tails=(Tail.ALL_F, Tail.ALL_F))
    if source is None:
        return None
    comps = [_pair(chunk.strip()) for chunk in args.components.split(";") if chunk.strip()]
    if not args.window:
        raise ValidationError("--components requires --window")
    window = _pair(args.window)
    tails = (_pair(args.tails, lambda name: Tail(name.strip()), "--tails LEFT,RIGHT")
             if args.tails else (Tail.ALL_F, Tail.ALL_F))
    period = _fraction(args.period) if args.period else None
    return build_interval_set(components=tuple(comps), window=window, tails=tails, period=period)


def _load_grid(path: str, iset: IntervalSet | None = None) -> GridFunction:
    return GridFunction.from_csv(_read(path), iset=iset)


def _load_trace_fn(path: str, iset: IntervalSet) -> TraceFunction:
    g = GridFunction.from_csv(_read(path))
    return TraceFunction(iset, g.grid, g.values)


def _scale_of(args, iset: IntervalSet) -> ScaleFunction:
    return ScaleFunction(iset, anchor=_fraction(args.anchor) if args.anchor else Fraction(0))


def _darn_of(args, iset: IntervalSet) -> DarningMap:
    return DarningMap(iset, z=_fraction(args.anchor) if args.anchor else None)


def _targets(args) -> list:
    out = [tuple(float(v) for v in _pair(text)) if "," in text else float(_fraction(text))
           for text in args.target]
    if not out:
        raise ValidationError("at least one --target is required")
    return out


# -- subcommand implementations ----------------------------------------------
# Each returns ({artifact name: text}, summary lines).


def cmd_set_build(args):
    return {"set.json": _json_text(_load_set(args).to_dict())}, ()


def cmd_set_validate(args):
    report = _load_set(args).validate(_fraction(args.delta))
    return {"validation.json": _json_text(report.to_dict())}, [f"ok={report.ok}"]


SCALE_MAX_POINTS = 1 << 20  # points of one --step grid


def cmd_scale_eval(args):
    iset = _load_set(args)
    sf = _scale_of(args, iset)
    if args.points:
        xs = [_fraction(p) for p in args.points.split(",") if p.strip()]
    else:
        step = _fraction(args.step or "1/64")
        if step <= 0:
            raise PreconditionError(f"--step must be positive, got {args.step}")
        w0, w1 = iset.window
        count = int((w1 - w0) / step)
        if count >= SCALE_MAX_POINTS:
            raise PreconditionError(
                f"--step {args.step} gives {count + 1} points over the window; "
                f"at most {SCALE_MAX_POINTS} are allowed"
            )
        xs = [w0 + k * step for k in range(count + 1)]
    rows = [(float(x), float(sf(x))) for x in xs]
    info = {
        "case": classify_case(sf).value,
        "anchor": str(sf.anchor),
        "window_image": [str(v) for v in sf.window_image()],
    }
    return {"scale.csv": _csv_text("x,scale", rows), "scale.json": _json_text(info)}, ()


def cmd_darn_map(args):
    dm = _darn_of(args, _load_set(args))
    info = dm.image()
    info["anchor"] = str(dm.z)
    return {"darn_map.json": _json_text(info)}, ()


def cmd_darn_function(args):
    iset = _load_set(args)
    dm = _darn_of(args, iset)
    return {"darned.csv": darn_function(_load_grid(args.u, iset), dm).to_csv()}, ()


def cmd_energy(args):
    iset = _load_set(args, optional=True)
    u = _load_grid(args.u, iset)
    v = _load_grid(args.v, iset) if args.v else None
    if args.form == "full":
        report = dirichlet_energy(u, v)
    elif iset is None:
        raise ValidationError(f"energy {args.form} requires a set")
    else:
        report = (part_energy if args.form == "part" else subspace_energy)(u, v, iset=iset)
    return {"energy.json": _json_text(report.to_dict())}, [f"value={report.value!r}"]


def cmd_energy_measure(args):
    iset = _load_set(args, optional=True)
    u = _load_grid(args.u, iset)
    lo, hi = _pair(args.interval)
    value = energy_measure(u, (float(lo), float(hi)), iset=iset, subspace=args.subspace)
    payload = {"interval": [str(lo), str(hi)], "subspace": bool(args.subspace), "value": value}
    return {"energy_measure.json": _json_text(payload)}, [f"value={value!r}"]


def cmd_decompose(args):
    iset = _load_set(args)
    sf = _scale_of(args, iset)
    u = _load_grid(args.u, iset)
    dec = project_subspace(u, sf) if not args.harmonic else decompose_harmonic(u, sf)
    files = {
        "decompose.json": _json_text(dec.to_dict()),
        "u1.csv": dec.u1.to_csv(),
        "u2.csv": dec.u2.to_csv(),
    }
    return files, [f"case={dec.case.value}"]


def cmd_trace_energy(args):
    iset = _load_set(args)
    report = trace_energy(_load_trace_fn(args.phi, iset))
    return {"trace_energy.json": _json_text(report.to_dict())}, [f"value={report.value!r}"]


def cmd_trace_subspace(args):
    iset = _load_set(args)
    phi = _load_trace_fn(args.phi, iset)
    if args.complement:
        psi = _load_trace_fn(args.psi, iset) if args.psi else None
        report = trace_complement_energy(phi, psi)
    else:
        report = trace_subspace_energy(phi)
    return {"trace_energy.json": _json_text(report.to_dict())}, [f"value={report.value!r}"]


def cmd_trace_jump_table(args):
    return {"jump_table.csv": jump_table_csv(_load_set(args))}, ()


def cmd_trace_measure(args):
    return {"trace_measure.json": _json_text(trace_measure_dict(_load_set(args)))}, ()


def cmd_feller(args):
    d = _fraction(args.d)
    alphas = [float(_fraction(a)) for a in args.alpha_ladder.split(",") if a.strip()]
    if not alphas:
        raise ValidationError("--alpha-ladder needs at least one value")
    rows = [(alpha, feller_numeric(d, alpha)) for alpha in alphas]  # refuses a weight past floats
    limit = float(feller_weight(d))
    return {"feller.csv": _csv_text("alpha,numeric,limit", [(*row, limit) for row in rows])}, ()


def cmd_equivalence(args):
    iset = _load_set(args)
    dm = _darn_of(args, iset)
    samples = [_load_grid(p, iset) for p in args.samples]
    report = equivalence_report(samples, dm, tol=args.tol)
    return {"equivalence.json": _json_text(report.to_dict())}, [f"ok={report.ok}"]


def cmd_simulate_bm(args):
    paths = bm_paths(args.n, args.dt, args.horizon, args.x0, args.seed)
    return {f"bm_{i:04d}.csv": path.to_csv() for i, path in enumerate(paths)}, ()


def _walk_file(args, walk, source, x0):
    path = walk(source, args.h, x0, args.horizon, args.seed,
                boundary=_pair(args.boundary or "reflect,reflect", str.strip,
                               "--boundary LEFT,RIGHT"), holding=args.holding)
    return {"path.csv": path.to_csv()}, ()


def cmd_simulate_walk(args):
    return _walk_file(args, walk_paths, SpeedMeasure.from_dict(_read(args.speed, as_json=True)),
                      args.x0)


def cmd_simulate_xs(args):
    return _walk_file(args, simulate_xs, _scale_of(args, _load_set(args)), args.x0)


def cmd_simulate_darning(args):
    dm = _darn_of(args, _load_set(args))
    speed = pushforward_speed(dm, "lebesgue")
    if not math.isfinite(args.x0):
        raise PreconditionError(f"start point must be finite, got {args.x0}")
    return _walk_file(args, walk_paths, speed, float(dm(Fraction(args.x0))))


def _exit_summary(left, right):
    payload = {"left": left.to_dict(), "right": right.to_dict()}
    return ({"estimate.json": _json_text(payload)},
            [f"left={left.estimate!r} right={right.estimate!r}"])


def cmd_estimate_hitting(args):
    return _exit_summary(*estimate_hitting(_load_set(args), args.x0, args.n, args.seed,
                                           dt=args.dt, correct=args.correct, workers=args.workers))


def cmd_estimate_laplace(args):
    return _exit_summary(*estimate_laplace(_load_set(args), args.x0, args.alpha, args.n,
                                           args.seed, dt=args.dt, correct=args.correct,
                                           workers=args.workers))


def cmd_estimate_occupation(args):
    path = PathSample.from_csv(_read(args.path))
    results = occupation_fractions(path, _targets(args), burn_in=args.burn_in,
                                   batches=args.batches)
    payload = [r.to_dict() for r in results]
    return ({"occupation.json": _json_text(payload)},
            [f"{r.target}: {r.estimate!r} +- {r.stderr!r}" for r in results])


# -- the command table ---------------------------------------------------------


class Command(NamedTuple):
    """One parser: its path of subcommand names, its handler (None for a
    group of subcommands), help text, options as (flag, add_argument keywords)
    and extra parsed defaults."""

    path: str
    handler: Callable | None
    help: str | None
    options: tuple = ()
    defaults: tuple = ()


def _opt(flag: str, **kw) -> tuple[str, dict]:
    return flag, kw


SET = (
    _opt("--set", help="interval-set JSON file"),
    _opt("--svc-depth", type=int, help="build a fat-Cantor complement of this depth"),
    _opt("--components", help="semicolon-separated open intervals 'a,b;c,d'"),
    _opt("--window", help="window 'a,b' (with --components or --svc-depth)"),
    _opt("--tails", help="tail pair 'AllF,AllG' (with --components)"),
    _opt("--period", help="period for Periodic tails (with --components)"),
)
OUT = (_opt("--out", help="output directory (default: $TRACEFORM_OUTDIR or cwd)"),)
SET_OUT = SET + OUT
U = _opt("--u", required=True, help="grid-function CSV")
DARN_ANCHOR = _opt("--anchor", help="darning anchor z in the interior of F")
WALK = (
    _opt("--h", type=float, required=True, help="grid step in natural scale"),
    _opt("--x0", type=float, required=True, help="start point (line coordinates for xs/darning)"),
    _opt("--horizon", type=float, required=True),
    _opt("--seed", type=int, required=True),
    _opt("--boundary", help="'reflect,absorb' etc (default reflect,reflect)"),
    _opt("--holding", choices=("exponential", "deterministic"), default="exponential"),
)
WALK_ON_SET = OUT + SET + (_opt("--anchor", help="transform anchor"),) + WALK
EXIT_HEAD = SET_OUT + (
    _opt("--gap", help="shortcut: single open gap 'a,b' as the whole set"),
    _opt("--x0", type=float, required=True),
)
EXIT_TAIL = (
    _opt("--n", type=int, required=True),
    _opt("--seed", type=int, required=True),
    _opt("--dt", type=float, help="override step (default (gap/50)^2)"),
    _opt("--correct", action="store_true", help="enable the exit-overshoot boundary correction"),
    _opt("--workers", type=int, help="threads for the exit engine (default: one per usable CPU)"),
)
ENERGY = SET_OUT + (U, _opt("--v", help="second grid-function CSV (bilinear form)"))

COMMANDS = (
    Command("set", None, "build or validate interval sets"),
    Command("set build", cmd_set_build, "construct a set and write set.json", SET_OUT),
    Command("set validate", cmd_set_validate, "check structure and delta-density",
            SET_OUT + (_opt("--delta", required=True, help="density resolution"),)),
    Command("scale", None, "scale-function evaluation"),
    Command("scale eval", cmd_scale_eval, "tabulate the scale function on the window", SET_OUT + (
        _opt("--anchor", help="anchor point (default 0)"),
        _opt("--points", help="comma-separated evaluation points"),
        _opt("--step", help="grid step when --points is absent (default 1/64)"),
    )),
    Command("darn", None, "darning map and darned functions"),
    Command("darn map", cmd_darn_map, "describe the darned image", SET_OUT + (DARN_ANCHOR,)),
    Command("darn function", cmd_darn_function, "push a grid function to the darned image",
            SET_OUT + (DARN_ANCHOR, U)),
    Command("energy", None, "Dirichlet energies"),
    Command("energy full", cmd_energy, None, ENERGY, (("form", "full"),)),
    Command("energy subspace", cmd_energy, None, ENERGY, (("form", "subspace"),)),
    Command("energy part", cmd_energy, None, ENERGY, (("form", "part"),)),
    Command("energy measure", cmd_energy_measure, "energy measure of an interval", SET_OUT + (
        _opt("--u", required=True),
        _opt("--interval", required=True, help="'a,b'"),
        _opt("--subspace", action="store_true", help="restrict to G-cells"),
    )),
    Command("decompose", cmd_decompose, "orthogonal splitting against the subspace", SET_OUT + (
        U,
        _opt("--anchor", help="scale anchor (default 0)"),
        _opt("--harmonic", action="store_true",
             help="require the input to be componentwise linear on G"),
    )),
    Command("trace", None, "trace forms on F"),
    Command("trace energy", cmd_trace_energy, "full trace energy of a boundary function",
            SET_OUT + (_opt("--phi", required=True, help="trace-function CSV"),)),
    Command("trace subspace", cmd_trace_subspace, "jump-only or local-only restricted energy",
            SET_OUT + (
                _opt("--phi", required=True),
                _opt("--psi", help="second argument for the complement form"),
                _opt("--complement", action="store_true",
                     help="local form on matching-endpoint functions instead of jump form"),
            )),
    Command("trace jump-table", cmd_trace_jump_table, "per-gap jump weights CSV", SET_OUT),
    Command("trace measure", cmd_trace_measure,
            "trace measure (indicator density plus endpoint atoms)", SET_OUT),
    Command("feller", cmd_feller, "boundary-weight ladder against the half-gap limit", OUT + (
        _opt("--d", required=True, help="gap width"),
        _opt("--alpha-ladder", required=True, help="comma-separated alpha values"),
    )),
    Command("equivalence", cmd_equivalence, "compare line and darned forms on samples", SET_OUT + (
        _opt("--anchor", help="darning anchor"),
        _opt("--samples", nargs="+", required=True, help="grid-function CSVs"),
        _opt("--tol", type=float, default=1e-12),
    )),
    Command("simulate", None, "path simulation"),
    Command("simulate bm", cmd_simulate_bm, "discretized Brownian paths", OUT + (
        _opt("--n", type=int, required=True),
        _opt("--dt", type=float, required=True),
        _opt("--horizon", type=float, required=True),
        _opt("--x0", type=float, default=0.0),
        _opt("--seed", type=int, required=True),
    )),
    Command("simulate walk", cmd_simulate_walk, None,
            OUT + (_opt("--speed", required=True, help="speed-measure JSON"),) + WALK),
    Command("simulate xs", cmd_simulate_xs, None, WALK_ON_SET),
    Command("simulate darning", cmd_simulate_darning, None, WALK_ON_SET),
    Command("estimate", None, "Monte Carlo estimators"),
    Command("estimate hitting", cmd_estimate_hitting, None, EXIT_HEAD + EXIT_TAIL),
    Command("estimate laplace", cmd_estimate_laplace, None,
            EXIT_HEAD + (_opt("--alpha", type=float, required=True),) + EXIT_TAIL),
    Command("estimate occupation", cmd_estimate_occupation,
            "occupation fractions of a recorded path", OUT + (
                _opt("--path", required=True, help="path CSV"),
                _opt("--target", action="append", default=[],
                     help="point 'p' or interval 'a,b'; repeatable"),
                _opt("--burn-in", type=float, default=0.0),
                _opt("--batches", type=int, default=20),
            )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traceform",
        description="Interval geometries, Dirichlet-form energies, traces, darning, "
                    "and speed-measure diffusion simulation on the line.",
    )
    parser.add_argument("--version", action="version", version=f"traceform {__version__}")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for cmd in COMMANDS:
        group, _, name = cmd.path.rpartition(" ")
        # help=None would still list the command in its group's help
        p = groups[group].add_parser(name, **({} if cmd.help is None else {"help": cmd.help}))
        if cmd.handler is None:
            groups[cmd.path] = p.add_subparsers(dest="sub", required=True)
            continue
        for flag, kw in cmd.options:
            p.add_argument(flag, **kw)
        p.set_defaults(func=cmd, **dict(cmd.defaults))
    return parser


# the exit code and stderr prefix of each failure, the first that matches
FAILURES = ((ValidationError, 2, "validation error"),
            (PreconditionError, 3, "precondition violated"),
            (OSError, 4, "io error"), (TraceformError, 5, "error"))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        files, lines = args.func.handler(args)
        _emit(args, args.func.path, files, lines)
    except (TraceformError, OSError) as exc:
        code, prefix = next((c, p) for kind, c, p in FAILURES if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
