"""Command line front end.

Subcommands:

  solve     amplitudes for one barrier, linear solve and closed form side by side
  sweep     amplitude magnitudes over one or two swept parameters
  field     wavefunction samples on an x grid
  ordering  transmission change when two barriers are swapped
  verify    run the built-in verification suite

Floats print with 17 significant digits, reproducible bit for bit.  A sweep
runs in one process and holds one chunk of its grid: the kernel's factors
are formed once on its axes, each along its own dimension, after the whole
grid is checked, so the first invalid point in row order is rejected before
any output; each chunk of rows gathers them at its points and forms its
amplitudes.  Each axis value is formatted once, and --workers is ignored.
--format is checked before --out is opened.  Every table streams through
one writer (_write_table), _CHUNK rows at a time, in CSV and JSON alike: its
float columns are rendered by numpy into '%.17g' byte fields (_digits), its
text columns are byte tables gathered by index, and a chunk is one uint8
matrix, separators included, whose NUL padding is dropped in one pass.
sweep and field keep no formula of their own: the fraction and abs_psi are
the array kernels of closedform and quaternion.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ._digits import render
from .closedform import (
    amplitudes_closed,
    exterior_combine,
    exterior_factors,
    exterior_magnitude_sum,
    quaternionic_fraction,
    quaternionic_fraction_grid,
)
from .errors import SingularSystemError, UndefinedFractionError
from .matcher import solve_spec
from .model import BarrierSpec
from .multilayer import Segment, ordering_report
from .quaternion import magnitude
from .wavefield import REGIONS, sample_field

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
# every key some command reads from a --config file
_CONFIG_KEYS = frozenset(_SWEEPABLE + ("xmin", "xmax", "points", "format",
                                       "seg_a", "seg_b", "gap"))
_MAX_GRID = 1_000_000
_CHUNK = 1024      # table rows rendered at a time
_TEXT = 24         # bytes of a text cell: '%.17g' prints at most 24 characters


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}j"


def _json_dump(value) -> str:
    # hand-rolled so floats go through _fmt and stay reproducible
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, complex):
        return _json_dump({"re": value.real, "im": value.imag})
    if isinstance(value, dict):
        return "{" + ", ".join(json.dumps(str(key)) + ": " + _json_dump(item)
                               for key, item in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_json_dump, value)) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


@contextlib.contextmanager
def _output(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as handle:
            yield handle


def _text(cells) -> np.ndarray:
    """ASCII text cells of at most _TEXT characters as a byte table for
    _write_table, one NUL-padded row each."""
    table = np.fromiter(cells, dtype=f"S{_TEXT}")
    return table.view(np.uint8).reshape(table.size, _TEXT)


def _write_table(handle, fmt: str, config, columns, n_rows: int, cells) -> None:
    """Stream a table of n_rows rows as CSV or JSON, _CHUNK rows at a time.

    cells(rows) gives the cells of the slice rows, one array per column: a
    float array prints as "%.17g", and a uint8 byte table (_text) holds text
    already written for fmt (a bare name in CSV, a JSON string in JSON),
    which is never quoted.  A chunk is laid out as one uint8 matrix, a row
    per table row, whose NUL padding is dropped in one pass.  config is the
    JSON table's "config" field; CSV has none.
    """
    if fmt == "csv":
        handle.write(",".join(columns) + "\n")
        sep, row_open, row_close, between, tail = ",", "", "\n", "", ""
    else:
        handle.write('{"config": %s, "columns": %s, "rows": ['
                     % (_json_dump(config), _json_dump(columns)))
        sep, row_open, row_close, between, tail = ", ", "[", "]", ", ", "]}\n"
    # the text before each cell and after the last, a row per chunk row;
    # every row but the table's first opens with between
    glue = [np.tile(np.frombuffer(text.encode(), np.uint8), (min(_CHUNK, n_rows), 1))
            for text in [between + row_open, *[sep] * (len(columns) - 1), row_close]]
    for start in range(0, n_rows, _CHUNK):
        chunk = cells(slice(start, min(start + _CHUNK, n_rows)))
        size = len(chunk[0])
        numbers = [cell for cell in chunk if cell.dtype.kind == "f"]
        fields = iter(render(np.stack(numbers, axis=1))
                      .reshape(size, len(numbers), -1).transpose(1, 0, 2))
        pieces = [glue[0][:size]]
        for cell, text in zip(chunk, glue[1:]):
            pieces += [next(fields) if cell.dtype.kind == "f" else cell, text[:size]]
        block = np.concatenate(pieces, axis=1).tobytes().translate(None, b"\0")
        handle.write(block[len(between) if start == 0 else 0:].decode("ascii"))
    handle.write(tail)


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
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        table[key] = value.strip()
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


def _grid_values(start: float, stop: float, step: float) -> np.ndarray:
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError("sweep bounds must be finite")
    if step <= 0:
        raise ValueError("sweep step must be positive")
    if stop < start:
        raise ValueError("sweep stop must not precede start")
    span = (stop - start) / step
    if not math.isfinite(span):
        raise ValueError(f"sweep span (stop - start) / step = {span} leaves the float range")
    count = int(math.floor(span + 1e-9)) + 1
    if count > _MAX_GRID:
        raise ValueError(f"sweep grid exceeds {_MAX_GRID} points")
    # start + i * step can round one ulp past stop; where it equals stop it
    # is kept, as min(value, stop) keeps 0.0 against stop = -0.0
    values = start + np.arange(count) * step
    return np.where(stop < values, stop, values)


def _parse_sweep(text: str) -> tuple[str, np.ndarray]:
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
    disp = asdict(closed.dispersion)
    solved, closed_form = amps.as_array(), closed.as_array()
    route_diff = max(map(abs, solved - closed_form))
    fraction = quaternionic_fraction(closed)
    exterior_sum = exterior_magnitude_sum(closed)
    names = ("c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8")
    with _output(args.out) as fh:
        if args.format == "text":
            for label, table in (("barrier", asdict(spec)), ("wavenumbers", disp)):
                fh.write(label + "".join(f" {k}={_fmt(v)}" for k, v in table.items())
                         + "\n")
            fh.write(f"{'':>4} {'linear solve':>44} {'closed form':>44}\n")
            for name, s, c in zip(names, solved, closed_form):
                fh.write(f"{name:>4} {_fmt_complex(s):>44} "
                         f"{_fmt_complex(c):>44}\n")
            fh.write(f"max route difference {route_diff:.3e}\n")
            fh.write(f"condition estimate {amps.condition:.3e}\n")
            fh.write(f"quaternionic fraction {_fmt(fraction)}\n")
            fh.write(f"exterior magnitude sum {_fmt(exterior_sum)}\n")
        elif args.format == "json":
            payload = {
                "config": asdict(spec),
                "wavenumbers": disp,
                "amplitudes": dict(zip(names, solved.tolist())),
                "closed_form": dict(zip(names, closed_form.tolist())),
                "max_route_difference": route_diff,
                "condition": amps.condition,
                "quaternionic_fraction": fraction,
                "exterior_magnitude_sum": exterior_sum,
            }
            fh.write(_json_dump(payload) + "\n")
        else:
            labels = _text(names)
            numbers = (solved.real, solved.imag, closed_form.real, closed_form.imag)
            _write_table(fh, "csv", None, ["amplitude", "re_solve", "im_solve",
                                           "re_closed", "im_closed"], len(names),
                         lambda rows: [labels[rows], *(c[rows] for c in numbers)])
    return 0


def _gather(stack, point):
    """The rows of an exterior_factors stack at the grid points point, by one
    index: along an axis the stack does not read, its length is 1 and the
    index clips to 0.  A stack that reads no axis is one value a row, whole."""
    if stack.ndim == 1:
        return stack
    flat = np.ravel_multi_index(point, stack.shape[1:], mode="clip")
    return stack.reshape(len(stack), -1).take(flat, axis=1)


def cmd_sweep(args, config) -> int:
    sweeps = args.sweep or []
    if not sweeps:
        raise ValueError("sweep requires --sweep param:start:stop:step")
    if len(sweeps) > 2:
        raise ValueError("at most two --sweep axes are supported")
    names, values = zip(*map(_parse_sweep, sweeps))
    if len(set(names)) != len(names):
        raise ValueError("swept parameters must differ")
    shape = tuple(map(len, values))
    if math.prod(shape) > _MAX_GRID:
        raise ValueError(f"sweep grid exceeds {_MAX_GRID} points")

    base = _params(args, config)
    # np.ix_ lays each axis along its own dimension, so every factor keeps the
    # shape of the axes it reads; the whole grid is checked here, before any
    # output, and its points are formed a chunk of rows at a time
    factors = exterior_factors(**dict(base, **dict(zip(names, np.ix_(*values)))))
    # each axis value is formatted once; a row gathers its point's axis cells
    labels = [_text(map(_fmt, axis)) for axis in values]

    def cells(rows):
        point = np.unravel_index(np.arange(rows.start, rows.stop), shape)
        at = (_gather(stack, point) for stack in factors)
        # np.hypot, unlike np.abs, rounds as abs(complex), so |c| matches qkg solve's
        c1, c2, c7, c8 = (np.hypot(c.real, c.imag) for c in exterior_combine(*at))
        return [*(table.take(i, axis=0) for table, i in zip(labels, point)),
                c1, c2, c7, c8, quaternionic_fraction_grid(c7, c8)]

    columns = [*names, "abs_c1", "abs_c2", "abs_c7", "abs_c8",
               "quaternionic_fraction"]
    with _output(args.out) as fh:
        _write_table(fh, args.format, dict(base, sweep=list(sweeps)), columns,
                     math.prod(shape), cells)
    return 0


def cmd_field(args, config) -> int:
    spec = BarrierSpec(**_params(args, config))
    amps = amplitudes_closed(spec)
    x_min = _setting(args, config, "xmin", float, DEFAULTS["xmin"])
    x_max = _setting(args, config, "xmax", float, None)
    if x_max is None:
        x_max = spec.a + 2.0
    points = int(_setting(args, config, "points", int, DEFAULTS["points"]))
    if points > _MAX_GRID:
        raise ValueError(f"field grid exceeds {_MAX_GRID} points")
    field = sample_field(spec, amps, x_min, x_max, points)
    columns = ["x", "re_psi_alpha", "im_psi_alpha", "re_psi_beta",
               "im_psi_beta", "abs_psi", "region"]
    alpha, beta = field.values[:2]
    # the writer prints text cells as they are, so JSON's names carry quotes
    regions = _text(REGIONS if args.format == "csv" else map(json.dumps, REGIONS))
    # np.hypot rounds as abs(complex), so abs_psi is SymplecticPair.norm()'s
    abs_psi = magnitude(np.hypot(alpha.real, alpha.imag), np.hypot(beta.real, beta.imag))
    numbers = (field.x, alpha.real, alpha.imag, beta.real, beta.imag, abs_psi)

    def cells(rows):
        return [*(c[rows] for c in numbers), regions.take(field.region[rows], axis=0)]

    with _output(args.out) as fh:
        _write_table(fh, args.format, asdict(spec), columns, len(field.x), cells)
    return 0


def cmd_ordering(args, config) -> int:
    seg_a_text = _setting(args, config, "seg_a", str, None)
    seg_b_text = _setting(args, config, "seg_b", str, None)
    if not seg_a_text or not seg_b_text:
        raise ValueError("ordering requires --seg-a and --seg-b")
    seg_a = _parse_segment(seg_a_text, "--seg-a")
    seg_b = _parse_segment(seg_b_text, "--seg-b")
    gap = _setting(args, config, "gap", float, 0.0)
    omega0 = _setting(args, config, "omega0", float, DEFAULTS["omega0"])
    report = ordering_report(seg_a, seg_b, gap, omega0)
    with _output(args.out) as fh:
        if args.format == "text":
            fh.write(f"gap={_fmt(gap)} omega0={_fmt(omega0)}\n")
            for label, pair in (("a-then-b", report.transmission_ab),
                                ("b-then-a", report.transmission_ba)):
                fh.write(f"transmission {label} alpha={_fmt_complex(pair.alpha)} "
                         f"beta={_fmt_complex(pair.beta)}\n")
            fh.write(f"d_prob {_fmt(report.d_prob)}\n")
            fh.write(f"d_amp {_fmt(report.d_amp)}\n")
        else:
            setup = {"seg_a": seg_a_text, "seg_b": seg_b_text,
                     "gap": gap, "omega0": omega0}
            fh.write(_json_dump({"config": setup, **asdict(report)}) + "\n")
    return 0


def cmd_verify(args, config) -> int:
    from .verify import run_all     # only this command pays for the suite

    results = run_all(quick=args.quick)
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


def _add_io_flags(parser: argparse.ArgumentParser, formats, bad_format_error: str) -> None:
    parser.add_argument("--format", choices=formats,
                        help="output format (default: %s)" % formats[0])
    parser.add_argument("--out", help="write output to this file")
    parser.add_argument("--config", help="key=value defaults file")
    parser.set_defaults(formats=formats, bad_format_error=bad_format_error)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkg",
        description="scattering off rectangular quaternionic potentials")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="amplitudes for a single barrier")
    _add_spec_flags(p_solve)
    _add_io_flags(p_solve, ("text", "csv", "json"), "unknown format {}")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="scan one or two parameters")
    _add_spec_flags(p_sweep)
    p_sweep.add_argument("--sweep", action="append", metavar="PARAM:START:STOP:STEP",
                         help="axis to scan; repeat once for a 2-d grid")
    p_sweep.add_argument("--workers", type=int,
                         help="ignored: a sweep runs in one process")
    _add_io_flags(p_sweep, ("csv", "json"), "sweep supports csv or json output")
    p_sweep.set_defaults(func=cmd_sweep)

    p_field = sub.add_parser("field", help="sample the wavefunction")
    _add_spec_flags(p_field)
    p_field.add_argument("--xmin", type=float, help="left edge of the grid")
    p_field.add_argument("--xmax", type=float,
                         help="right edge of the grid (default: a + 2)")
    p_field.add_argument("--points", type=int, help="number of samples")
    _add_io_flags(p_field, ("csv", "json"), "field supports csv or json output")
    p_field.set_defaults(func=cmd_field)

    p_order = sub.add_parser("ordering",
                             help="swap two barriers and compare transmission")
    p_order.add_argument("--seg-a", metavar="LENGTH:V0:THETA:PHI",
                         help="first barrier")
    p_order.add_argument("--seg-b", metavar="LENGTH:V0:THETA:PHI",
                         help="second barrier")
    p_order.add_argument("--gap", type=float, help="free gap between them")
    p_order.add_argument("--omega0", type=float, help="incident frequency")
    _add_io_flags(p_order, ("text", "json"), "ordering supports text or json output")
    p_order.set_defaults(func=cmd_ordering)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--quick", action="store_true",
                          help="smaller samples, skip the subprocess check")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(format="%(message)s")    # warnings to stderr
    try:
        config = _load_config(args.config) if getattr(args, "config", None) else {}
        if hasattr(args, "formats"):    # before any work or --out is opened
            args.format = _setting(args, config, "format", str, args.formats[0])
            if args.format not in args.formats:
                raise ValueError(args.bad_format_error.format(repr(args.format)))
        return args.func(args, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SingularSystemError, UndefinedFractionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
