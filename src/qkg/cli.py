"""Command line front end: qkg solve, sweep, field, ordering and verify.

Two tables declare it.  PARAMS holds each flag once: type, default, help,
metavar, whether a --config file may set it and whether --sweep scans it.
COMMANDS holds each command once: help, function, flags in --help order,
formats (the default first) and the message that rejects any other format.
build_parser, the config keys, the defaults, the rule that a flag beats the
config file beats the default, and the format check all derive from them.

Floats print with 17 significant digits, reproducible bit for bit at one
numpy SIMD dispatch level.  A sweep runs in one process (--workers is
ignored) on blocks of whole grid rows: it checks every block, in output
order, then runs the closed-form kernel on one block at a time, forming the
block's axis values and axis cells with it.  A field checks its window, then
samples one block of grid positions at a time.  Every table streams through
one writer (_write_table), in CSV and JSON alike, from an iterable of row
blocks; the fraction and abs_psi are the array kernels of closedform and
quaternion.

Each command loads only the layers it runs: sweep none of matcher,
multilayer and wavefield, solve only matcher, field only wavefield and
ordering only multilayer.  The three are lazy module objects
(importlib.util.LazyLoader), in sys.modules and bound on qkg as an import
binds them, whose bodies run on first attribute access; imports inside the
commands would leave them out of sys.modules, where the benchmark's tracer
looks for the functions it wraps after importing this module.  The parser
declares the flags of the command being run only, json loads with the JSON
writer, and logging with the two commands that run the matcher.

Run as the program, reading sys.argv, main calls gc.freeze() before it builds
the parser: no collection, finalization's passes included, then walks what the
imports left (numpy's objects too); a caller passing argv keeps its collector.
Not os._exit, which would also skip atexit handlers and buffered output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import math
import re
import sys
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._digits import render
from .closedform import (
    amplitudes_closed,
    exterior_amplitudes_grid,
    exterior_magnitude_sum,
    quaternionic_fraction,
    quaternionic_fraction_grid,
)
from .errors import SingularSystemError, UndefinedFractionError
from .model import BarrierSpec, barrier_rules, require, require_each, window_rule
from .quaternion import magnitude


def _lazy(layer: str):
    """qkg.<layer>, as an import binds it, with its body run on first
    attribute access."""
    name = f"{__package__}.{layer}"
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], layer, module)
    return sys.modules[name]


matcher, multilayer, wavefield = map(_lazy, ("matcher", "multilayer", "wavefield"))


class Param(NamedTuple):
    """One flag, --NAME with dashes for underscores; a list is a repeatable
    flag."""

    type: type
    default: object
    help: str
    metavar: str | None = None
    config: bool = True
    sweep: bool = False

    def options(self, choices) -> dict:
        """add_argument's keywords, choices only for --format."""
        kind = {"action": "append"} if self.type is list else {"type": self.type}
        return dict(kind, metavar=self.metavar, choices=choices)


PARAMS = {
    "a": Param(float, 1.0, "barrier width", sweep=True),
    "v0": Param(float, 0.3, "potential magnitude", sweep=True),
    "omega0": Param(float, 1.0, "incident frequency", sweep=True),
    "theta": Param(float, math.pi / 2, "polar angle of the imaginary direction", sweep=True),
    "phi": Param(float, 0.0, "azimuthal angle of the imaginary direction", sweep=True),
    "sweep": Param(list, None, "axis to scan; repeat once for a 2-d grid",
                   "PARAM:START:STOP:STEP", config=False),
    "workers": Param(int, None, "ignored: a sweep runs in one process", config=False),
    "xmin": Param(float, -2.0, "left edge of the grid"),
    "xmax": Param(float, None, "right edge of the grid (default: a + 2)"),
    "points": Param(int, 201, "number of samples"),
    "seg_a": Param(str, None, "first barrier", "LENGTH:V0:THETA:PHI"),
    "seg_b": Param(str, None, "second barrier", "LENGTH:V0:THETA:PHI"),
    "gap": Param(float, 0.0, "free gap between them"),
    # a command's formats are the choices; the first is the default and fills {}
    "format": Param(str, None, "output format (default: {})"),
    "out": Param(str, None, "write output to this file", config=False),
    "config": Param(str, None, "key=value defaults file", config=False),
}
_SPEC = tuple(name for name, param in PARAMS.items() if param.sweep)   # BarrierSpec fields
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
    import json

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


def _output(path: str | None):
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="")


def _text(cells) -> np.ndarray:
    """ASCII text cells of at most _TEXT characters as a byte table for
    _write_table, one NUL-padded row each."""
    table = np.fromiter(cells, dtype=f"S{_TEXT}")
    return table.view(np.uint8).reshape(table.size, _TEXT)


def _write_table(handle, fmt: str, config, columns, chunks) -> None:
    """Stream a table as CSV or JSON from chunks, an iterable of row blocks.

    A block holds the cells of its rows, one array per column: a float array
    prints as "%.17g", and a uint8 byte table (_text) holds text already
    written for fmt (a bare name in CSV, a JSON string in JSON), which is
    never quoted.  At most _CHUNK rows of a block are laid out at a time, as
    one uint8 matrix, a row per table row, whose NUL padding is dropped in
    one pass.  config is the JSON table's "config" field; CSV has none.
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
    glue = [np.tile(np.frombuffer(text.encode(), np.uint8), (_CHUNK, 1))
            for text in [between + row_open, *[sep] * (len(columns) - 1), row_close]]
    skip = len(between)
    for block in chunks:
        for start in range(0, len(block[0]), _CHUNK):
            chunk = [cell[start:start + _CHUNK] for cell in block]
            size = len(chunk[0])
            numbers = [cell for cell in chunk if cell.dtype.kind == "f"]
            fields = iter(render(np.stack(numbers, axis=1))
                          .reshape(size, len(numbers), -1).transpose(1, 0, 2))
            pieces = [glue[0][:size]]
            for cell, text in zip(chunk, glue[1:]):
                pieces += [next(fields) if cell.dtype.kind == "f" else cell, text[:size]]
            lines = np.concatenate(pieces, axis=1).tobytes().translate(None, b"\0")
            handle.write(lines[skip:].decode("ascii"))
            skip = 0
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
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in PARAMS or not PARAMS[key].config:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        table[key] = value
    return table


def _params(args) -> dict[str, float]:
    return {name: getattr(args, name) for name in _SPEC}


def _grid_size(start: float, stop: float, step: float) -> int:
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError("sweep bounds must be finite")
    if step <= 0:
        raise ValueError("sweep step must be positive")
    if stop < start:
        raise ValueError("sweep stop must not precede start")
    span = (stop - start) / step
    if not math.isfinite(span):
        raise ValueError(f"sweep span (stop - start) / step = {span} leaves the float range")
    return int(math.floor(span + 1e-9)) + 1


def _grid_values(start: float, stop: float, step: float, cut=slice(None)) -> np.ndarray:
    """The points min(start + i * step, stop) of a sweep axis, for the i in cut."""
    values = start + np.arange(*cut.indices(_grid_size(start, stop, step))) * step
    # start + i * step can round one ulp past stop; where it equals stop it
    # is kept, as min(value, stop) keeps 0.0 against stop = -0.0
    return np.where(stop < values, stop, values)


def _parse_sweep(text: str) -> tuple[str, tuple[float, float, float], int]:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"bad sweep {text!r}: expected param:start:stop:step")
    name = parts[0]
    if name not in _SPEC:
        raise ValueError(f"bad sweep parameter {name!r}: choose from "
                         + ", ".join(_SPEC))
    try:
        start, stop, step = (float(p) for p in parts[1:])
    except ValueError:
        raise ValueError(f"bad sweep {text!r}: start, stop, step must be numbers")
    return name, (start, stop, step), _grid_size(start, stop, step)


def _parse_segment(text: str, label: str) -> multilayer.Segment:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"bad {label} {text!r}: expected length:v0:theta:phi")
    try:
        length, v0, theta, phi = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad {label} {text!r}: all four fields must be numbers")
    return multilayer.Segment(length, v0, theta, phi)


def _log_to_stderr() -> None:
    """Print the matcher's warnings to stderr; only the commands that run the
    matcher, solve and verify, load logging."""
    import logging

    logging.basicConfig(format="%(message)s")


def cmd_solve(args) -> int:
    _log_to_stderr()
    spec = BarrierSpec(**_params(args))
    amps = matcher.solve_spec(spec)
    closed = amplitudes_closed(spec)
    disp = closed.dispersion._asdict()
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
                                           "re_closed", "im_closed"], [[labels, *numbers]])
    return 0


def cmd_sweep(args) -> int:
    sweeps = args.sweep or []
    if not sweeps:
        raise ValueError("sweep requires --sweep param:start:stop:step")
    if len(sweeps) > 2:
        raise ValueError("at most two --sweep axes are supported")
    names, bounds, shape = zip(*map(_parse_sweep, sweeps))
    if len(set(names)) != len(names):
        raise ValueError("swept parameters must differ")
    if math.prod(shape) > _MAX_GRID:
        raise ValueError(f"sweep grid exceeds {_MAX_GRID} points")

    base = _params(args)
    # blocks of whole rows, ceil(_CHUNK / n_inner) of them, while a row fits in
    # _CHUNK, else one row in pieces of _CHUNK points; a 1-d grid's rows are points
    n_outer, n_inner = (*shape, 1)[:2]
    rows = -(-_CHUNK // n_inner)
    cuts = [(slice(i, i + rows), slice(j, j + _CHUNK))
            for i in range(0, n_outer, rows) for j in range(0, n_inner, _CHUNK)]

    def block_axes(at):
        return [_grid_values(*bound, cut) for bound, cut in zip(bounds, at)]

    def grid(axes):
        # np.ix_ lays each axis along its own dimension; the kernel broadcasts them
        return dict(base, **dict(zip(names, np.ix_(*axes))))

    # every block is checked, in the output's order, before any output
    for at in cuts:
        require_each(barrier_rules, *map(grid(block_axes(at)).get,
                                         ("a", "v0", "theta", "phi", "omega0")))
    # an axis value that heads several rows of a block is formatted once, as
    # a text cell: the outer axis's per block, the inner axis's once while
    # whole rows fit in a block
    whole = [None, None]
    if len(bounds) == 2 and n_inner <= _CHUNK:
        whole[1] = _text(map(_fmt, _grid_values(*bounds[1])))

    def block(at):
        axes = block_axes(at)
        # np.hypot, unlike np.abs, rounds as abs(complex), so |c| matches qkg solve's
        c1, c2, c7, c8 = (np.hypot(c.real, c.imag).ravel()
                          for c in exterior_amplitudes_grid(**grid(axes)))
        point = np.unravel_index(np.arange(c1.size), tuple(map(len, axes)))
        # an axis with a value per row of the block (a 1-d grid, or a long
        # row's pieces) is a float column, rendered with the numbers
        labels = (axis if len(axis) == c1.size else
                  _text(map(_fmt, axis)) if table is None else table
                  for axis, table in zip(axes, whole))
        return [*(table.take(i, axis=0) for table, i in zip(labels, point)),
                c1, c2, c7, c8, quaternionic_fraction_grid(c7, c8)]

    columns = [*names, "abs_c1", "abs_c2", "abs_c7", "abs_c8",
               "quaternionic_fraction"]
    with _output(args.out) as fh:
        _write_table(fh, args.format, dict(base, sweep=list(sweeps)), columns, map(block, cuts))
    return 0


def cmd_field(args) -> int:
    spec = BarrierSpec(**_params(args))
    amps = amplitudes_closed(spec)
    if args.points > _MAX_GRID:
        raise ValueError(f"field grid exceeds {_MAX_GRID} points")
    window = (args.xmin, spec.a + 2.0 if args.xmax is None else args.xmax, args.points)
    window_rule(require, *window, spec.omega0)      # before --out is opened
    columns = ["x", "re_psi_alpha", "im_psi_alpha", "re_psi_beta",
               "im_psi_beta", "abs_psi", "region"]
    # the writer prints text cells as they are, so JSON's names carry quotes
    regions = _text(wavefield.REGIONS if args.format == "csv"
                    else map(_json_dump, wavefield.REGIONS))
    # 8 * _CHUNK positions a block: at _CHUNK, sample_field's fixed cost made a
    # 1,000,000-point field 23-32% slower in process (2-core x86-64, medians of 6
    # alternating runs); 8 * _CHUNK ran within the whole grid's spread, at 1/5 its peak
    size = 8 * _CHUNK

    def block(start):
        field = wavefield.sample_field(spec, amps, *window, slice(start, start + size))
        alpha, beta = field.values[:2]
        # np.hypot rounds as abs(complex): abs_psi is magnitude(abs(psi.alpha), abs(psi.beta))
        abs_psi = magnitude(np.hypot(alpha.real, alpha.imag), np.hypot(beta.real, beta.imag))
        return [field.x, alpha.real, alpha.imag, beta.real, beta.imag, abs_psi,
                regions.take(field.region, axis=0)]

    with _output(args.out) as fh:
        _write_table(fh, args.format, asdict(spec), columns,
                     map(block, range(0, args.points, size)))
    return 0


def cmd_ordering(args) -> int:
    if not args.seg_a or not args.seg_b:
        raise ValueError("ordering requires --seg-a and --seg-b")
    seg_a = _parse_segment(args.seg_a, "--seg-a")
    seg_b = _parse_segment(args.seg_b, "--seg-b")
    report = multilayer.ordering_report(seg_a, seg_b, args.gap, args.omega0)
    with _output(args.out) as fh:
        if args.format == "text":
            fh.write(f"gap={_fmt(args.gap)} omega0={_fmt(args.omega0)}\n")
            for label, pair in (("a-then-b", report.transmission_ab),
                                ("b-then-a", report.transmission_ba)):
                fh.write(f"transmission {label} alpha={_fmt_complex(pair.alpha)} "
                         f"beta={_fmt_complex(pair.beta)}\n")
            fh.write(f"d_prob {_fmt(report.d_prob)}\n")
            fh.write(f"d_amp {_fmt(report.d_amp)}\n")
        else:
            setup = {"seg_a": args.seg_a, "seg_b": args.seg_b,
                     "gap": args.gap, "omega0": args.omega0}
            fh.write(_json_dump({"config": setup, **asdict(report)}) + "\n")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all     # only this command pays for the suite

    _log_to_stderr()
    results = run_all()
    for result in results:
        print(result.line())
    failures = [r for r in results if not r.passed]
    total = sum(r.seconds for r in results)
    print(f"total {total:.2f}s, {len(results) - len(failures)}"
          f"/{len(results)} passed")
    return 1 if failures else 0


class Command(NamedTuple):
    """One subcommand: func runs on the settled flags of params, in --help
    order; format_error, given its repr, rejects a value not in formats."""

    help: str
    func: object
    params: tuple[str, ...]
    formats: tuple[str, ...] = ()
    format_error: str = ""

    def __call__(self, args, config: dict[str, str]) -> int:
        """Settle each flag a config file may set, check the format before
        any work or --out is opened, and run."""
        for name in self.params:
            param = PARAMS[name]
            if not param.config or getattr(args, name) is not None:
                continue
            default = self.formats[0] if name == "format" else param.default
            try:
                setattr(args, name, param.type(config[name]) if name in config else default)
            except ValueError as exc:
                raise ValueError(f"config key {name!r}: {exc}") from exc
        if self.formats and args.format not in self.formats:
            raise ValueError(self.format_error.format(repr(args.format)))
        return self.func(args)


_IO = ("format", "out", "config")
COMMANDS = {
    "solve": Command("amplitudes for a single barrier", cmd_solve, _SPEC + _IO,
                     ("text", "csv", "json"), "unknown format {}"),
    "sweep": Command("scan one or two parameters", cmd_sweep,
                     _SPEC + ("sweep", "workers") + _IO,
                     ("csv", "json"), "sweep supports csv or json output"),
    "field": Command("sample the wavefunction", cmd_field,
                     _SPEC + ("xmin", "xmax", "points") + _IO,
                     ("csv", "json"), "field supports csv or json output"),
    "ordering": Command("swap two barriers and compare transmission", cmd_ordering,
                        ("seg_a", "seg_b", "gap", "omega0") + _IO,
                        ("text", "json"), "ordering supports text or json output"),
    "verify": Command("run the verification suite", cmd_verify, ()),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every command's subparser, with the flags of command only, or of every
    command when it is None: argparse reads no other subparser's flags, so
    parsing, --help and every usage and error line are the same either way."""
    parser = argparse.ArgumentParser(
        prog="qkg", description="scattering off rectangular quaternionic potentials")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in COMMANDS.items():
        p_command = sub.add_parser(name, help=entry.help)
        for key in entry.params if command in (None, name) else ():
            param = PARAMS[key]
            p_command.add_argument(
                _flag(key), help=param.help.format(*entry.formats[:1]),
                **param.options(entry.formats if key == "format" else None))
        p_command.set_defaults(func=entry)
    return parser


def _join_negative_floats(argv: list[str], command: str | None) -> list[str]:
    """'--xmin -1e-3' as '--xmin=-1e-3', for any negative decimal given to one
    of the command's float flags: argparse on Python 3.10 and 3.11 reads only
    -1 and -.5 as negative numbers, and takes -1e-3 for an option."""
    floats = {_flag(name) for name in (COMMANDS[command].params if command else ())
              if PARAMS[name].type is float}
    joined: list[str] = []
    for token in argv:
        if (joined and joined[-1] in floats
                and re.fullmatch(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?", token)):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    if argv is None:        # the program: its start-up objects outlive every command
        gc.freeze()
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command named first is the one argparse runs; any other argv (an
    # option first) gets every command's flags
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(_join_negative_floats(argv, command))
    try:
        config = _load_config(args.config) if getattr(args, "config", None) else {}
        return args.func(args, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SingularSystemError, UndefinedFractionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
