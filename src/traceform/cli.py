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
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from . import __version__
from .darning import equivalence_report
from .decompose import decompose_harmonic, project_subspace
from .energy import dirichlet_energy, energy_measure, part_energy, subspace_energy
from .errors import PreconditionError, TraceformError, ValidationError
from .gridfn import GridFunction, darn_function
from .intervals import IntervalSet, Tail, build_interval_set, svc_complement
from .simulate import (
    PathSample,
    bm_paths,
    estimate_hitting,
    estimate_laplace,
    occupation_fractions,
    simulate_xs,
    walk_paths,
)
from .trace import (
    TraceFunction,
    feller_numeric,
    feller_weight,
    jump_table_csv,
    trace_complement_energy,
    trace_energy,
    trace_measure,
    trace_subspace_energy,
)
from .transforms import (
    DarningMap,
    ScaleFunction,
    SpeedMeasure,
    classify_case,
    pushforward_speed,
)


# -- IO helpers -------------------------------------------------------------


def _outdir(args) -> Path:
    out = args.out or os.environ.get("TRACEFORM_OUTDIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


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


def _write_manifest(outdir: Path, command: str, config: dict, artifacts: list[str]) -> None:
    canonical = json.dumps(config, sort_keys=True)
    manifest = {
        "command": command,
        "config": config,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "version": __version__,
        "artifacts": sorted(artifacts),
    }
    _atomic_write(outdir / "manifest.json", _json_text(manifest))


def _emit(outdir: Path, command: str, config: dict, files: dict[str, str]) -> None:
    for name, text in files.items():
        _atomic_write(outdir / name, text)
    _write_manifest(outdir, command, config, list(files))
    for name in sorted(files):
        print(outdir / name)


def _config_of(args) -> dict:
    # workers changes how a run is scheduled, never what it writes
    skip = {"func", "command_name", "workers"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


# -- argument parsing helpers ------------------------------------------------


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse {text!r} as a rational number") from exc


def _pair(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"expected 'a,b', got {text!r}")
    return _fraction(parts[0]), _fraction(parts[1])


def _load_set(args) -> IntervalSet:
    given = [bool(getattr(args, "set", None)), getattr(args, "svc_depth", None) is not None,
             bool(getattr(args, "components", None))]
    if sum(given) != 1:
        raise ValidationError("specify the set by exactly one of --set, --svc-depth, --components")
    if getattr(args, "set", None):
        try:
            data = json.loads(Path(args.set).read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{args.set} is not valid JSON: {exc}") from exc
        return IntervalSet.from_dict(data)
    if getattr(args, "svc_depth", None) is not None:
        window = _pair(args.window) if getattr(args, "window", None) else (Fraction(0), Fraction(1))
        return svc_complement(args.svc_depth, window=window)
    comps = []
    for chunk in args.components.split(";"):
        chunk = chunk.strip()
        if chunk:
            comps.append(_pair(chunk))
    window = _pair(args.window) if getattr(args, "window", None) else None
    if window is None:
        raise ValidationError("--components requires --window")
    tails = (Tail.ALL_F, Tail.ALL_F)
    if getattr(args, "tails", None):
        names = args.tails.split(",")
        if len(names) != 2:
            raise ValidationError(f"expected '--tails LEFT,RIGHT', got {args.tails!r}")
        try:
            tails = (Tail(names[0].strip()), Tail(names[1].strip()))
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
    period = _fraction(args.period) if getattr(args, "period", None) else None
    return build_interval_set(components=tuple(comps), window=window, tails=tails, period=period)


def _load_grid(path: str, iset: IntervalSet | None = None) -> GridFunction:
    return GridFunction.from_csv(Path(path).read_text(), iset=iset)


def _load_trace_fn(path: str, iset: IntervalSet) -> TraceFunction:
    g = GridFunction.from_csv(Path(path).read_text())
    return TraceFunction(iset, g.grid, g.values)


def _scale_of(args, iset: IntervalSet) -> ScaleFunction:
    anchor = _fraction(args.anchor) if getattr(args, "anchor", None) else Fraction(0)
    return ScaleFunction(iset, anchor=anchor)


def _darn_of(args, iset: IntervalSet) -> DarningMap:
    anchor = _fraction(args.anchor) if getattr(args, "anchor", None) else None
    return DarningMap(iset, z=anchor)


def _boundary(args) -> tuple[str, str]:
    text = getattr(args, "boundary", None) or "reflect,reflect"
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValidationError(f"expected '--boundary LEFT,RIGHT', got {text!r}")
    return parts[0], parts[1]


def _targets(args) -> list:
    out = []
    for text in args.target:
        if "," in text:
            lo, hi = text.split(",", 1)
            out.append((float(_fraction(lo)), float(_fraction(hi))))
        else:
            out.append(float(_fraction(text)))
    if not out:
        raise ValidationError("at least one --target is required")
    return out


# -- subcommand implementations ----------------------------------------------


def cmd_set_build(args):
    iset = _load_set(args)
    _emit(_outdir(args), "set build", _config_of(args),
          {"set.json": _json_text(iset.to_dict())})


def cmd_set_validate(args):
    iset = _load_set(args)
    report = iset.validate(_fraction(args.delta))
    _emit(_outdir(args), "set validate", _config_of(args),
          {"validation.json": _json_text(report.to_dict())})
    print(f"ok={report.ok}")


def cmd_scale_eval(args):
    iset = _load_set(args)
    sf = _scale_of(args, iset)
    if args.points:
        xs = [_fraction(p) for p in args.points.split(",") if p.strip()]
    else:
        step = _fraction(args.step or "1/64")
        w0, w1 = iset.window
        count = int((w1 - w0) / step)
        xs = [w0 + k * step for k in range(count + 1)]
    rows = ["x,scale"]
    rows += [f"{float(x)!r},{float(sf(x))!r}" for x in xs]
    info = {
        "case": classify_case(sf).value,
        "anchor": str(sf.anchor),
        "window_image": [str(v) for v in sf.window_image()],
    }
    _emit(_outdir(args), "scale eval", _config_of(args),
          {"scale.csv": "\n".join(rows) + "\n", "scale.json": _json_text(info)})


def cmd_darn_map(args):
    iset = _load_set(args)
    dm = _darn_of(args, iset)
    info = dm.image().to_dict()
    info["anchor"] = str(dm.z)
    _emit(_outdir(args), "darn map", _config_of(args), {"darn_map.json": _json_text(info)})


def cmd_darn_function(args):
    iset = _load_set(args)
    dm = _darn_of(args, iset)
    u = _load_grid(args.u, iset)
    darned = darn_function(u, dm)
    _emit(_outdir(args), "darn function", _config_of(args),
          {"darned.csv": darned.to_csv()})


def cmd_energy(args):
    iset = _load_set(args) if (args.set or args.svc_depth is not None or args.components) else None
    u = _load_grid(args.u, iset)
    v = _load_grid(args.v, iset) if args.v else None
    if args.form == "full":
        report = dirichlet_energy(u, v)
    elif args.form == "part":
        if iset is None:
            raise ValidationError("energy part requires a set")
        report = part_energy(u, v, iset=iset)
    else:
        if iset is None:
            raise ValidationError("energy subspace requires a set")
        report = subspace_energy(u, v, iset=iset)
    _emit(_outdir(args), f"energy {args.form}", _config_of(args),
          {"energy.json": _json_text(report.to_dict())})
    print(f"value={report.value!r}")


def cmd_energy_measure(args):
    iset = _load_set(args) if (args.set or args.svc_depth is not None or args.components) else None
    u = _load_grid(args.u, iset)
    lo, hi = _pair(args.interval)
    value = energy_measure(u, (float(lo), float(hi)), iset=iset, subspace=args.subspace)
    payload = {"interval": [str(lo), str(hi)], "subspace": bool(args.subspace), "value": value}
    _emit(_outdir(args), "energy measure", _config_of(args),
          {"energy_measure.json": _json_text(payload)})
    print(f"value={value!r}")


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
    _emit(_outdir(args), "decompose", _config_of(args), files)
    print(f"case={dec.case.value}")


def cmd_trace_energy(args):
    iset = _load_set(args)
    phi = _load_trace_fn(args.phi, iset)
    report = trace_energy(phi)
    _emit(_outdir(args), "trace energy", _config_of(args),
          {"trace_energy.json": _json_text(report.to_dict())})
    print(f"value={report.value!r}")


def cmd_trace_subspace(args):
    iset = _load_set(args)
    phi = _load_trace_fn(args.phi, iset)
    if args.complement:
        psi = _load_trace_fn(args.psi, iset) if args.psi else None
        report = trace_complement_energy(phi, psi)
    else:
        report = trace_subspace_energy(phi)
    _emit(_outdir(args), "trace subspace", _config_of(args),
          {"trace_energy.json": _json_text(report.to_dict())})
    print(f"value={report.value!r}")


def cmd_trace_jump_table(args):
    iset = _load_set(args)
    _emit(_outdir(args), "trace jump-table", _config_of(args),
          {"jump_table.csv": jump_table_csv(iset)})


def cmd_trace_measure(args):
    iset = _load_set(args)
    tm = trace_measure(iset)
    _emit(_outdir(args), "trace measure", _config_of(args),
          {"trace_measure.json": _json_text(tm.to_dict())})


def cmd_feller(args):
    d = _fraction(args.d)
    alphas = [float(_fraction(a)) for a in args.alpha_ladder.split(",") if a.strip()]
    if not alphas:
        raise ValidationError("--alpha-ladder needs at least one value")
    rows = ["alpha,numeric,limit"]
    limit = float(feller_weight(d))
    for alpha in alphas:
        rows.append(f"{alpha!r},{feller_numeric(d, alpha)!r},{limit!r}")
    _emit(_outdir(args), "feller", _config_of(args), {"feller.csv": "\n".join(rows) + "\n"})


def cmd_equivalence(args):
    iset = _load_set(args)
    dm = _darn_of(args, iset)
    samples = [_load_grid(p, iset) for p in args.samples]
    report = equivalence_report(samples, dm, tol=args.tol)
    _emit(_outdir(args), "equivalence", _config_of(args),
          {"equivalence.json": _json_text(report.to_dict())})
    print(f"ok={report.ok}")


def cmd_simulate_bm(args):
    files = {}
    for i, path in enumerate(bm_paths(args.n, args.dt, args.horizon, args.x0, args.seed)):
        files[f"bm_{i:04d}.csv"] = path.to_csv()
    _emit(_outdir(args), "simulate bm", _config_of(args), files)


def cmd_simulate_walk(args):
    speed = SpeedMeasure.from_dict(json.loads(Path(args.speed).read_text()))
    path = walk_paths(speed, args.h, args.x0, args.horizon, args.seed,
                      boundary=_boundary(args), holding=args.holding)
    _emit(_outdir(args), "simulate walk", _config_of(args), {"path.csv": path.to_csv()})


def cmd_simulate_xs(args):
    iset = _load_set(args)
    sf = _scale_of(args, iset)
    path = simulate_xs(sf, args.h, args.x0, args.horizon, args.seed,
                       boundary=_boundary(args), holding=args.holding)
    _emit(_outdir(args), "simulate xs", _config_of(args), {"path.csv": path.to_csv()})


def cmd_simulate_darning(args):
    iset = _load_set(args)
    dm = _darn_of(args, iset)
    speed = pushforward_speed(dm, "lebesgue")
    y0 = float(dm(Fraction(args.x0)))
    path = walk_paths(speed, args.h, y0, args.horizon, args.seed,
                      boundary=_boundary(args), holding=args.holding)
    _emit(_outdir(args), "simulate darning", _config_of(args), {"path.csv": path.to_csv()})


def cmd_estimate_hitting(args):
    iset = _gap_or_set(args)
    left, right = estimate_hitting(iset, args.x0, args.n, args.seed,
                                   dt=args.dt, correct=args.correct, workers=args.workers)
    payload = {"left": left.to_dict(), "right": right.to_dict()}
    _emit(_outdir(args), "estimate hitting", _config_of(args),
          {"estimate.json": _json_text(payload)})
    print(f"left={left.estimate!r} right={right.estimate!r}")


def cmd_estimate_laplace(args):
    iset = _gap_or_set(args)
    left, right = estimate_laplace(iset, args.x0, args.alpha, args.n, args.seed,
                                   dt=args.dt, correct=args.correct, workers=args.workers)
    payload = {"left": left.to_dict(), "right": right.to_dict()}
    _emit(_outdir(args), "estimate laplace", _config_of(args),
          {"estimate.json": _json_text(payload)})
    print(f"left={left.estimate!r} right={right.estimate!r}")


def cmd_estimate_occupation(args):
    path = PathSample.from_csv(Path(args.path).read_text())
    results = occupation_fractions(path, _targets(args), burn_in=args.burn_in,
                                   batches=args.batches)
    payload = [r.to_dict() for r in results]
    _emit(_outdir(args), "estimate occupation", _config_of(args),
          {"occupation.json": _json_text(payload)})
    for r in results:
        print(f"{r.target}: {r.estimate!r} +- {r.stderr!r}")


def _gap_or_set(args) -> IntervalSet:
    if args.gap:
        a, b = _pair(args.gap)
        return build_interval_set(components=((a, b),), window=(a, b),
                                  tails=(Tail.ALL_F, Tail.ALL_F))
    return _load_set(args)


# -- parser assembly ----------------------------------------------------------


def _add_set_args(p, require=False):
    p.add_argument("--set", help="interval-set JSON file")
    p.add_argument("--svc-depth", type=int, help="build a fat-Cantor complement of this depth")
    p.add_argument("--components", help="semicolon-separated open intervals 'a,b;c,d'")
    p.add_argument("--window", help="window 'a,b' (with --components or --svc-depth)")
    p.add_argument("--tails", help="tail pair 'AllF,AllG' (with --components)")
    p.add_argument("--period", help="period for Periodic tails (with --components)")


def _add_out(p):
    p.add_argument("--out", help="output directory (default: $TRACEFORM_OUTDIR or cwd)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traceform",
        description="Interval geometries, Dirichlet-form energies, traces, darning, "
                    "and speed-measure diffusion simulation on the line.",
    )
    parser.add_argument("--version", action="version", version=f"traceform {__version__}")
    top = parser.add_subparsers(dest="command", required=True)

    p_set = top.add_parser("set", help="build or validate interval sets")
    sub = p_set.add_subparsers(dest="sub", required=True)
    p = sub.add_parser("build", help="construct a set and write set.json")
    _add_set_args(p); _add_out(p); p.set_defaults(func=cmd_set_build)
    p = sub.add_parser("validate", help="check structure and delta-density")
    _add_set_args(p); _add_out(p)
    p.add_argument("--delta", required=True, help="density resolution")
    p.set_defaults(func=cmd_set_validate)

    p_scale = top.add_parser("scale", help="scale-function evaluation")
    sub = p_scale.add_subparsers(dest="sub", required=True)
    p = sub.add_parser("eval", help="tabulate the scale function on the window")
    _add_set_args(p); _add_out(p)
    p.add_argument("--anchor", help="anchor point (default 0)")
    p.add_argument("--points", help="comma-separated evaluation points")
    p.add_argument("--step", help="grid step when --points is absent (default 1/64)")
    p.set_defaults(func=cmd_scale_eval)

    p_darn = top.add_parser("darn", help="darning map and darned functions")
    sub = p_darn.add_subparsers(dest="sub", required=True)
    p = sub.add_parser("map", help="describe the darned image")
    _add_set_args(p); _add_out(p)
    p.add_argument("--anchor", help="darning anchor z in the interior of F")
    p.set_defaults(func=cmd_darn_map)
    p = sub.add_parser("function", help="push a grid function to the darned image")
    _add_set_args(p); _add_out(p)
    p.add_argument("--anchor", help="darning anchor z in the interior of F")
    p.add_argument("--u", required=True, help="grid-function CSV")
    p.set_defaults(func=cmd_darn_function)

    p_energy = top.add_parser("energy", help="Dirichlet energies")
    sub = p_energy.add_subparsers(dest="sub", required=True)
    for form in ("full", "subspace", "part"):
        p = sub.add_parser(form)
        _add_set_args(p); _add_out(p)
        p.add_argument("--u", required=True, help="grid-function CSV")
        p.add_argument("--v", help="second grid-function CSV (bilinear form)")
        p.set_defaults(func=cmd_energy, form=form)
    p = sub.add_parser("measure", help="energy measure of an interval")
    _add_set_args(p); _add_out(p)
    p.add_argument("--u", required=True)
    p.add_argument("--interval", required=True, help="'a,b'")
    p.add_argument("--subspace", action="store_true", help="restrict to G-cells")
    p.set_defaults(func=cmd_energy_measure)

    p = top.add_parser("decompose", help="orthogonal splitting against the subspace")
    _add_set_args(p); _add_out(p)
    p.add_argument("--u", required=True, help="grid-function CSV")
    p.add_argument("--anchor", help="scale anchor (default 0)")
    p.add_argument("--harmonic", action="store_true",
                   help="require the input to be componentwise linear on G")
    p.set_defaults(func=cmd_decompose)

    p_trace = top.add_parser("trace", help="trace forms on F")
    sub = p_trace.add_subparsers(dest="sub", required=True)
    p = sub.add_parser("energy", help="full trace energy of a boundary function")
    _add_set_args(p); _add_out(p)
    p.add_argument("--phi", required=True, help="trace-function CSV")
    p.set_defaults(func=cmd_trace_energy)
    p = sub.add_parser("subspace", help="jump-only or local-only restricted energy")
    _add_set_args(p); _add_out(p)
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", help="second argument for the complement form")
    p.add_argument("--complement", action="store_true",
                   help="local form on matching-endpoint functions instead of jump form")
    p.set_defaults(func=cmd_trace_subspace)
    p = sub.add_parser("jump-table", help="per-gap jump weights CSV")
    _add_set_args(p); _add_out(p)
    p.set_defaults(func=cmd_trace_jump_table)
    p = sub.add_parser("measure", help="trace measure (indicator density plus endpoint atoms)")
    _add_set_args(p); _add_out(p)
    p.set_defaults(func=cmd_trace_measure)

    p = top.add_parser("feller", help="boundary-weight ladder against the half-gap limit")
    _add_out(p)
    p.add_argument("--d", required=True, help="gap width")
    p.add_argument("--alpha-ladder", required=True, help="comma-separated alpha values")
    p.set_defaults(func=cmd_feller)

    p = top.add_parser("equivalence", help="compare line and darned forms on samples")
    _add_set_args(p); _add_out(p)
    p.add_argument("--anchor", help="darning anchor")
    p.add_argument("--samples", nargs="+", required=True, help="grid-function CSVs")
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_equivalence)

    p_sim = top.add_parser("simulate", help="path simulation")
    sub = p_sim.add_subparsers(dest="sub", required=True)
    p = sub.add_parser("bm", help="discretized Brownian paths")
    _add_out(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_simulate_bm)
    for name, fn in (("walk", cmd_simulate_walk), ("xs", cmd_simulate_xs),
                     ("darning", cmd_simulate_darning)):
        p = sub.add_parser(name)
        _add_out(p)
        if name == "walk":
            p.add_argument("--speed", required=True, help="speed-measure JSON")
        else:
            _add_set_args(p)
            p.add_argument("--anchor", help="transform anchor")
        p.add_argument("--h", type=float, required=True, help="grid step in natural scale")
        p.add_argument("--x0", type=float, required=True,
                       help="start point (line coordinates for xs/darning)")
        p.add_argument("--horizon", type=float, required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--boundary", help="'reflect,absorb' etc (default reflect,reflect)")
        p.add_argument("--holding", choices=("exponential", "deterministic"),
                       default="exponential")
        p.set_defaults(func=fn)

    p_est = top.add_parser("estimate", help="Monte Carlo estimators")
    sub = p_est.add_subparsers(dest="sub", required=True)
    for name, fn in (("hitting", cmd_estimate_hitting), ("laplace", cmd_estimate_laplace)):
        p = sub.add_parser(name)
        _add_set_args(p); _add_out(p)
        p.add_argument("--gap", help="shortcut: single open gap 'a,b' as the whole set")
        p.add_argument("--x0", type=float, required=True)
        if name == "laplace":
            p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--dt", type=float, help="override step (default (gap/50)^2)")
        p.add_argument("--correct", action="store_true",
                       help="enable the exit-overshoot boundary correction")
        p.add_argument("--workers", type=int,
                       help="threads for the exit engine (default: one per usable CPU)")
        p.set_defaults(func=fn)
    p = sub.add_parser("occupation", help="occupation fractions of a recorded path")
    _add_out(p)
    p.add_argument("--path", required=True, help="path CSV")
    p.add_argument("--target", action="append", default=[],
                   help="point 'p' or interval 'a,b'; repeatable")
    p.add_argument("--burn-in", type=float, default=0.0)
    p.add_argument("--batches", type=int, default=20)
    p.set_defaults(func=cmd_estimate_occupation)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except TraceformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
