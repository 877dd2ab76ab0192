"""Command line front end.

Subcommands:

  solve     amplitudes for one barrier, linear solve and closed form side by side
  sweep     amplitude magnitudes over one or two swept parameters
  field     wavefunction samples on an x grid
  ordering  transmission change when two barriers are swapped
  verify    run the built-in verification suite

Floats are printed with 17 significant digits so output is reproducible
bit for bit.  A sweep evaluates its whole grid with one array call in one
process; --workers is accepted and ignored.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from .closedform import (
    amplitudes_closed,
    exterior_amplitudes_grid,
    exterior_magnitude_sum,
    quaternionic_fraction,
)
from .errors import SingularSystemError, UndefinedFractionError
from .matcher import solve_spec
from .model import BarrierSpec, check_nondegenerate, wavenumbers
from .multilayer import Segment, ordering_report
from .verify import run_all
from .wavefield import sample_field

DEFAULTS = {
    "a": 1.0,
    "v0": 0.3,
    "omega0": 1.0,
    "theta": math.pi / 2,
    "phi": 0.0,
    "xmin": -2.0,
    "points": 201,
}

_SWEEPABLE = ("a", "v0", "omega0", "theta", "phi")
_MAX_GRID = 1_000_000


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}j"


def _json_dump(value) -> str:
    pieces: list[str] = []
    _json_emit(value, pieces)
    return "".join(pieces)


def _json_emit(value, out: list[str]) -> None:
    # hand-rolled so floats go through _fmt and stay reproducible
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(_fmt(value))
    elif isinstance(value, complex):
        _json_emit({"re": value.real, "im": value.imag}, out)
    elif isinstance(value, dict):
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _json_emit(item, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(", ")
            _json_emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


@contextlib.contextmanager
def _output(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as handle:
            yield handle


def _write_csv(handle, columns, rows) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cell if isinstance(cell, str) else _fmt(cell)
                         for cell in row])


def _load_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config {path!r}: {exc}") from exc
    table: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        table[key.strip()] = value.strip()
    return table


def _setting(args, config: dict[str, str], key: str, cast, default):
    """Flag beats config file beats built-in default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        try:
            return cast(config[key])
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
    return default


def _params(args, config) -> dict[str, float]:
    return {key: _setting(args, config, key, float, DEFAULTS[key])
            for key in _SWEEPABLE}


def _spec_table(spec: BarrierSpec) -> dict[str, float]:
    return {"a": spec.a, "v0": spec.v0, "omega0": spec.omega0,
            "theta": spec.theta, "phi": spec.phi}


def _grid_values(start: float, stop: float, step: float) -> list[float]:
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError("sweep bounds must be finite")
    if step <= 0:
        raise ValueError("sweep step must be positive")
    if stop < start:
        raise ValueError("sweep stop must not precede start")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    if count > _MAX_GRID:
        raise ValueError(f"sweep grid exceeds {_MAX_GRID} points")
    return [start + i * step for i in range(count)]


def _parse_sweep(text: str) -> tuple[str, list[float]]:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"bad sweep {text!r}: expected param:start:stop:step")
    name = parts[0]
    if name not in _SWEEPABLE:
        raise ValueError(f"bad sweep parameter {name!r}: choose from "
                         + ", ".join(_SWEEPABLE))
    try:
        start, stop, step = (float(p) for p in parts[1:])
    except ValueError:
        raise ValueError(f"bad sweep {text!r}: start, stop, step must be numbers")
    return name, _grid_values(start, stop, step)


def _parse_segment(text: str, label: str) -> Segment:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"bad {label} {text!r}: expected length:v0:theta:phi")
    try:
        length, v0, theta, phi = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad {label} {text!r}: all four fields must be numbers")
    return Segment(length, v0, theta, phi)


def cmd_solve(args, config) -> int:
    spec = BarrierSpec(**_params(args, config))
    amps = solve_spec(spec)
    closed = amplitudes_closed(spec)
    disp = wavenumbers(spec)
    route_diff = max(abs(s - c) for s, c in
                     zip(amps.as_array(), closed.as_array()))
    fraction = quaternionic_fraction(closed)
    magnitude = exterior_magnitude_sum(closed)
    fmt = _setting(args, config, "format", str, "text")
    names = ("c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8")
    with _output(args.out) as fh:
        if fmt == "text":
            table = _spec_table(spec)
            fh.write("barrier " + " ".join(f"{k}={_fmt(v)}"
                                           for k, v in table.items()) + "\n")
            fh.write(f"wavenumbers k0={_fmt(disp.k0)} "
                     f"k_plus={_fmt(disp.k_plus)} "
                     f"k_minus={_fmt(disp.k_minus)}\n")
            fh.write(f"{'':>4} {'linear solve':>44} {'closed form':>44}\n")
            for name, s, c in zip(names, amps.as_array(), closed.as_array()):
                fh.write(f"{name:>4} {_fmt_complex(s):>44} "
                         f"{_fmt_complex(c):>44}\n")
            fh.write(f"max route difference {route_diff:.3e}\n")
            fh.write(f"condition estimate {amps.condition:.3e}\n")
            fh.write(f"quaternionic fraction {_fmt(fraction)}\n")
            fh.write(f"exterior magnitude sum {_fmt(magnitude)}\n")
        elif fmt == "json":
            payload = {
                "config": _spec_table(spec),
                "wavenumbers": {"k0": disp.k0, "k_plus": disp.k_plus,
                                "k_minus": disp.k_minus},
                "amplitudes": dict(zip(names, amps.as_array().tolist())),
                "closed_form": dict(zip(names, closed.as_array().tolist())),
                "max_route_difference": route_diff,
                "condition": amps.condition,
                "quaternionic_fraction": fraction,
                "exterior_magnitude_sum": magnitude,
            }
            fh.write(_json_dump(payload) + "\n")
        elif fmt == "csv":
            rows = [[name, s.real, s.imag, c.real, c.imag]
                    for name, s, c in zip(names, amps.as_array(),
                                          closed.as_array())]
            _write_csv(fh, ["amplitude", "re_solve", "im_solve",
                            "re_closed", "im_closed"], rows)
        else:
            raise ValueError(f"unknown format {fmt!r}")
    return 0


def _check_grid(base: dict[str, float], names, axes) -> None:
    """Raise what the first invalid grid point, in row order, raises.

    Each check reads one parameter, except the float-range (a, v0, omega0)
    and degeneracy (v0, omega0) checks.  Unless both swept parameters are
    among those three, the first invalid point is in the first row or column,
    and only those points are built."""
    points = itertools.product(*axes)
    if len(axes) == 2 and not set(names) <= {"a", "v0", "omega0"}:
        outer, inner = axes
        points = itertools.chain(itertools.product(outer[:1], inner),
                                 itertools.product(outer[1:], inner[:1]))
    for point in points:
        check_nondegenerate(BarrierSpec(**dict(base, **dict(zip(names, point)))))


def cmd_sweep(args, config) -> int:
    sweeps = args.sweep or []
    if not sweeps:
        raise ValueError("sweep requires --sweep param:start:stop:step")
    if len(sweeps) > 2:
        raise ValueError("at most two --sweep axes are supported")
    names, values = zip(*map(_parse_sweep, sweeps))
    if len(set(names)) != len(names):
        raise ValueError("swept parameters must differ")

    base = _params(args, config)
    _check_grid(base, names, values)
    mesh = [m.ravel() for m in np.meshgrid(*values, indexing="ij")]
    c1, c2, c7, c8 = np.abs(
        exterior_amplitudes_grid(**dict(base, **dict(zip(names, mesh)))))
    with np.errstate(invalid="ignore"):    # nan when nothing is transmitted
        fraction = c8 ** 2 / (c7 ** 2 + c8 ** 2)
    table = np.column_stack([*mesh, c1, c2, c7, c8, fraction])

    columns = [*names, "abs_c1", "abs_c2", "abs_c7", "abs_c8",
               "quaternionic_fraction"]
    fmt = _setting(args, config, "format", str, "csv")
    with _output(args.out) as fh:
        if fmt == "csv":
            # one row at a time, so the formatted grid is never held whole
            _write_csv(fh, columns, (row.tolist() for row in table))
        elif fmt == "json":
            payload = {"config": dict(base, sweep=list(sweeps)),
                       "columns": columns, "rows": table.tolist()}
            fh.write(_json_dump(payload) + "\n")
        else:
            raise ValueError("sweep supports csv or json output")
    return 0


def cmd_field(args, config) -> int:
    spec = BarrierSpec(**_params(args, config))
    amps = amplitudes_closed(spec)
    x_min = _setting(args, config, "xmin", float, DEFAULTS["xmin"])
    x_max = _setting(args, config, "xmax", float, None)
    if x_max is None:
        x_max = spec.a + 2.0
    points = int(_setting(args, config, "points", int, DEFAULTS["points"]))
    samples = sample_field(spec, amps, x_min, x_max, points)
    columns = ["x", "re_psi_alpha", "im_psi_alpha", "re_psi_beta",
               "im_psi_beta", "abs_psi", "region"]
    rows = [[s.x, s.psi.alpha.real, s.psi.alpha.imag, s.psi.beta.real,
             s.psi.beta.imag, s.psi.norm(), s.region] for s in samples]
    fmt = _setting(args, config, "format", str, "csv")
    with _output(args.out) as fh:
        if fmt == "csv":
            _write_csv(fh, columns, rows)
        elif fmt == "json":
            payload = {"config": _spec_table(spec), "columns": columns,
                       "rows": rows}
            fh.write(_json_dump(payload) + "\n")
        else:
            raise ValueError("field supports csv or json output")
    return 0


def cmd_ordering(args, config) -> int:
    seg_a_text = args.seg_a or config.get("seg_a")
    seg_b_text = args.seg_b or config.get("seg_b")
    if not seg_a_text or not seg_b_text:
        raise ValueError("ordering requires --seg-a and --seg-b")
    seg_a = _parse_segment(seg_a_text, "--seg-a")
    seg_b = _parse_segment(seg_b_text, "--seg-b")
    gap = _setting(args, config, "gap", float, 0.0)
    omega0 = _setting(args, config, "omega0", float, DEFAULTS["omega0"])
    report = ordering_report(seg_a, seg_b, gap, omega0)
    fmt = _setting(args, config, "format", str, "text")
    with _output(args.out) as fh:
        if fmt == "text":
            fh.write(f"gap={_fmt(gap)} omega0={_fmt(omega0)}\n")
            fh.write("transmission a-then-b "
                     f"alpha={_fmt_complex(report.transmission_ab.alpha)} "
                     f"beta={_fmt_complex(report.transmission_ab.beta)}\n")
            fh.write("transmission b-then-a "
                     f"alpha={_fmt_complex(report.transmission_ba.alpha)} "
                     f"beta={_fmt_complex(report.transmission_ba.beta)}\n")
            fh.write(f"d_prob {_fmt(report.d_prob)}\n")
            fh.write(f"d_amp {_fmt(report.d_amp)}\n")
        elif fmt == "json":
            payload = {
                "config": {"seg_a": seg_a_text, "seg_b": seg_b_text,
                           "gap": gap, "omega0": omega0},
                "transmission_ab": {"alpha": report.transmission_ab.alpha,
                                    "beta": report.transmission_ab.beta},
                "transmission_ba": {"alpha": report.transmission_ba.alpha,
                                    "beta": report.transmission_ba.beta},
                "d_prob": report.d_prob,
                "d_amp": report.d_amp,
            }
            fh.write(_json_dump(payload) + "\n")
        else:
            raise ValueError("ordering supports text or json output")
    return 0


def cmd_verify(args, config) -> int:
    results = run_all(quick=args.quick, perturb=args.inject_perturbation)
    for result in results:
        print(result.line())
    failures = [r for r in results if not r.passed]
    total = sum(r.seconds for r in results)
    print(f"total {total:.2f}s, {len(results) - len(failures)}"
          f"/{len(results)} passed")
    return 1 if failures else 0


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", type=float, help="barrier width")
    parser.add_argument("--v0", type=float, help="potential magnitude")
    parser.add_argument("--omega0", type=float, help="incident frequency")
    parser.add_argument("--theta", type=float,
                        help="polar angle of the imaginary direction")
    parser.add_argument("--phi", type=float,
                        help="azimuthal angle of the imaginary direction")


def _add_io_flags(parser: argparse.ArgumentParser, formats) -> None:
    parser.add_argument("--format", choices=formats,
                        help="output format (default: %s)" % formats[0])
    parser.add_argument("--out", help="write output to this file")
    parser.add_argument("--config", help="key=value defaults file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkg",
        description="scattering off rectangular quaternionic potentials")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="amplitudes for a single barrier")
    _add_spec_flags(p_solve)
    _add_io_flags(p_solve, ("text", "csv", "json"))
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="scan one or two parameters")
    _add_spec_flags(p_sweep)
    p_sweep.add_argument("--sweep", action="append", metavar="PARAM:START:STOP:STEP",
                         help="axis to scan; repeat once for a 2-d grid")
    p_sweep.add_argument("--workers", type=int,
                         help="ignored: a sweep runs in one process")
    _add_io_flags(p_sweep, ("csv", "json"))
    p_sweep.set_defaults(func=cmd_sweep)

    p_field = sub.add_parser("field", help="sample the wavefunction")
    _add_spec_flags(p_field)
    p_field.add_argument("--xmin", type=float, help="left edge of the grid")
    p_field.add_argument("--xmax", type=float,
                         help="right edge of the grid (default: a + 2)")
    p_field.add_argument("--points", type=int, help="number of samples")
    _add_io_flags(p_field, ("csv", "json"))
    p_field.set_defaults(func=cmd_field)

    p_order = sub.add_parser("ordering",
                             help="swap two barriers and compare transmission")
    p_order.add_argument("--seg-a", metavar="LENGTH:V0:THETA:PHI",
                         help="first barrier")
    p_order.add_argument("--seg-b", metavar="LENGTH:V0:THETA:PHI",
                         help="second barrier")
    p_order.add_argument("--gap", type=float, help="free gap between them")
    p_order.add_argument("--omega0", type=float, help="incident frequency")
    _add_io_flags(p_order, ("text", "json"))
    p_order.set_defaults(func=cmd_ordering)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--quick", action="store_true",
                          help="smaller samples, skip the subprocess check")
    p_verify.add_argument("--workers", type=int,
                          help="ignored: sweeps run in one process")
    p_verify.add_argument("--inject-perturbation", type=float, nargs="?",
                          const=1e-3, default=0.0,
                          help="corrupt one amplitude to prove the gate trips")
    p_verify.add_argument("--config", help="key=value defaults file")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(format="%(message)s")    # warnings to stderr
    try:
        config = _load_config(args.config) if getattr(args, "config", None) else {}
        return args.func(args, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SingularSystemError, UndefinedFractionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
