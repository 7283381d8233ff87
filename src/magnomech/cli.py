"""Command-line interface.

Every subcommand is a thin binding over the library API; identical numbers are
obtainable by calling the modules directly. Exit codes: 0 success, 2 argument
or configuration error, 3 I/O error, 4 unstable system on single-point
commands that need a steady state.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import config as _config
from . import measures as _measures
from . import sweep as _sweep
from .dynamics import (GAIN_NOISE_MODES, diffusion_from_params,
                       drift_from_params, stability)
from .errors import MagnomechError, ParameterError, UnstableSystemError
from .model import SystemParams, two_mode_eigenfrequencies
from .steady_state import working_point

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_IO = 3
EXIT_UNSTABLE = 4

_THREADS = (f"a sweep runs on up to {_sweep.BATCH_THREADS} threads, one per "
            "usable core")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it
    was, and building it costs about 20 times as much as a parse."""
    parser = argparse.ArgumentParser(
        prog="magnomech",
        description="Steady-state Gaussian properties of a driven three-mode "
                    "cavity-magnomechanical system.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="parameter file layered over the built-in defaults")
    common.add_argument("--set", metavar="KEY=VALUE", action="append",
                        default=[], dest="overrides",
                        help="parameter override, applied after the config file")
    common.add_argument("--format", choices=("csv", "json"), default="json")
    common.add_argument("--out", metavar="PATH", default="-",
                        help="output file, '-' for stdout")
    # Only the subcommands that use a flag accept it.
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1, metavar="N",
                      help=f"ignored: {_THREADS}")
    noise = argparse.ArgumentParser(add_help=False)
    noise.add_argument("--gain-noise", choices=GAIN_NOISE_MODES,
                       default="vacuum", dest="gain_noise",
                       help="cavity noise convention for a gain cavity")

    # Each subcommand binds the handler that main() calls with its arguments.
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, summary in (
            ("classify", _cmd_classify, "phase of the photon-magnon pair"),
            ("steady-state", _cmd_steady_state, "classical working point"),
            ("drift", _cmd_drift, "6x6 drift matrix"),
            ("stability", _cmd_stability, "drift eigenvalues and stability verdict")):
        sub.add_parser(name, parents=[common], help=summary).set_defaults(handler=handler)
    p = sub.add_parser("measures", parents=[common, noise],
                       help="entanglement and steering of the mode pairs")
    p.set_defaults(handler=_cmd_measures)
    p.add_argument("--pair", choices=_measures.PAIRS + ("all",), default="all")

    p = sub.add_parser("sweep", parents=[common, jobs, noise],
                       help="custom parameter sweep")
    p.set_defaults(handler=_cmd_sweep)
    p.add_argument("--axis", action="append", required=True, metavar="NAME:LO:HI:N",
                   help="sweep axis (repeat for a 2-D grid)")
    p.add_argument("--output", action="append", required=True, metavar="NAME",
                   help="output column, e.g. E_N(am), S(m->b), max_lyapunov")

    p = sub.add_parser("figure", parents=[common, jobs, noise],
                       help="run one of the built-in figure data sets")
    p.set_defaults(handler=_cmd_figure)
    p.add_argument("name", choices=_sweep.FIGURE_NAMES)

    p = sub.add_parser("vanish-temp", parents=[common, noise],
                       help="temperature where a pair's entanglement reaches zero")
    p.set_defaults(handler=_cmd_vanish_temp)
    p.add_argument("--pair", choices=_measures.PAIRS, default="am")
    p.add_argument("--t-lo", default="0 mk", help="bracket low end (e.g. '0 mk')")
    p.add_argument("--t-hi", default="250 mk", help="bracket high end")
    return parser


def _layers(args) -> list:
    layers = [_config.default_config()]
    if args.config:
        layers.append(_config.load_config(args.config))
    if args.overrides:
        layers.append(_config.apply_overrides({}, args.overrides))
    return layers


def _emit(text: str, out: str) -> None:
    if out in ("-", "stdout"):
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(text)


def _json_line(obj) -> str:
    return json.dumps(obj) + "\n"


def _matrix_csv(matrix: np.ndarray) -> str:
    return "".join(",".join(_sweep._format_cells(row)) + "\n"
                   for row in matrix.tolist())


def _kv_csv(*objs: dict) -> str:
    """Header from the first object's keys, then one row per object, with
    the cells of a sweep CSV."""
    lines = [",".join(objs[0].keys())]
    lines.extend(",".join(_sweep._format_cells(obj.values())) for obj in objs)
    return "\n".join(lines) + "\n"


def _cmd_classify(args, params: SystemParams) -> str:
    phase = params.pt_phase()
    w_plus, w_minus = two_mode_eigenfrequencies(
        params.delta_a, params.kappa_a, params.kappa_m, params.g_ma)
    obj = {
        "phase": phase.tag,
        "margin_rad_s": phase.margin,
        "omega_plus_re": w_plus.real, "omega_plus_im": w_plus.imag,
        "omega_minus_re": w_minus.real, "omega_minus_im": w_minus.imag,
    }
    return _json_line(obj) if args.format == "json" else _kv_csv(obj)


def _cmd_steady_state(args, params: SystemParams) -> str:
    wp = working_point(params)
    obj = {
        "m_s_re": wp.m_s.real, "m_s_im": wp.m_s.imag, "m_s_abs": abs(wp.m_s),
        "x_s": wp.x_s, "delta_m_eff_rad_s": wp.delta_m_eff, "G_rad_s": wp.G,
        "iterations": wp.iterations,
    }
    return _json_line(obj) if args.format == "json" else _kv_csv(obj)


def _cmd_drift(args, params: SystemParams) -> str:
    drift = drift_from_params(params, working_point(params))
    if args.format == "json":
        return _json_line({"drift": drift.a.tolist()})
    return _matrix_csv(drift.a)


def _cmd_stability(args, params: SystemParams) -> str:
    report = stability(drift_from_params(params, working_point(params)))
    obj = {
        "stable": bool(report.stable),
        "max_lyapunov_rad_s": report.max_lyapunov,
        "eigenvalues_re": sorted(report.eigenvalues.real.tolist()),
    }
    if args.format == "json":
        return _json_line(obj)
    rows = _kv_csv({"stable": int(obj["stable"]),
                    "max_lyapunov_rad_s": obj["max_lyapunov_rad_s"]})
    return rows


def _cmd_measures(args, params: SystemParams) -> str:
    drift = drift_from_params(params, working_point(params))
    cm = _measures.solve_lyapunov(
        drift, diffusion_from_params(params, args.gain_noise))
    pairs = _measures.PAIRS if args.pair == "all" else (args.pair,)
    objs = []
    for pair in pairs:
        pm = _measures.pair_measures(cm, pair)
        objs.append({
            "pair": pair, "E_N": pm.e_n, "S_forward": pm.s_12,
            "S_backward": pm.s_21, "eta_minus": pm.eta_minus,
            "residual": cm.residual,
            "physicality_margin": cm.physicality_margin,
        })
    if args.format == "json":
        return _json_line(objs if args.pair == "all" else objs[0])
    return _kv_csv(*objs)


def _parse_axis(text: str) -> _sweep.Axis:
    parts = text.split(":")
    if len(parts) != 4:
        raise ParameterError(f"axis must look like NAME:LO:HI:N, got {text!r}")
    name, lo, hi, count = parts
    try:
        return _sweep.Axis(name, float(lo), float(hi), int(count))
    except ValueError as exc:
        raise ParameterError(f"bad axis {text!r}: {exc}") from exc


def _cmd_sweep(args, params: SystemParams) -> str:
    axes = tuple(_parse_axis(text) for text in args.axis)
    spec = _sweep.SweepSpec(base=params, axes=axes,
                            outputs=tuple(args.output),
                            gain_noise=args.gain_noise)
    return _run_sweep(args, spec)


def _cmd_figure(args, params: SystemParams) -> str:
    spec = _sweep.figure_preset(args.name, gain_noise=args.gain_noise,
                                base=params)
    return _run_sweep(args, spec, args.name)


def _run_sweep(args, spec: _sweep.SweepSpec, preset: str | None = None) -> str:
    """The sweep's CSV or JSON. A ``--set`` must take effect; a ``--config``
    key without effect gets a stderr note (one file serves many runs).
    ``--jobs`` must be >= 1 and changes nothing: any value but 1 says so."""
    for reason in (_sweep._keys_without_effect(args.layers, -1, spec, preset)
                   if args.overrides else ()):
        raise ParameterError(f"--set {reason}")
    if args.config:
        for reason in _sweep._keys_without_effect(args.layers, 1, spec, preset):
            print(f"note: --config {reason}", file=sys.stderr)
    if args.jobs < 1:
        raise ParameterError(f"--jobs must be >= 1, got {args.jobs}")
    if args.jobs != 1:
        print(f"note: --jobs is ignored; {_THREADS}", file=sys.stderr)
    result = _sweep.run_sweep(spec)
    return result.to_csv() if args.format == "csv" else result.to_json()


def _cmd_vanish_temp(args, params: SystemParams) -> str:
    t_lo, _ = _config.parse_value("temperature", args.t_lo)
    t_hi, _ = _config.parse_value("temperature", args.t_hi)
    temp = _sweep.vanishing_temperature(params, args.pair, t_lo, t_hi,
                                        gain_noise=args.gain_noise)
    obj = {"pair": args.pair, "temperature_K": temp}
    return _json_line(obj) if args.format == "json" else _kv_csv(obj)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ARGS if exc.code not in (0, None) else EXIT_OK
    try:
        args.layers = _layers(args)
        params = _config.build_params(_config.merge_layers(args.layers))
        text = args.handler(args, params)
        _emit(text, args.out)
    except UnstableSystemError as exc:
        print(json.dumps({"error": exc.code, "detail": str(exc)}),
              file=sys.stderr)
        return EXIT_UNSTABLE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MagnomechError as exc:  # ConfigError, ParameterError and the rest
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
