"""Command-line interface.

Every subcommand reads a quiver from JSON, computes or verifies, and prints
either human-readable text or canonical JSON (sorted keys, two-space indent,
no timing data) so identical invocations produce byte-identical output.
`main` loads the quiver once for every subcommand, after the bound checks,
and checks the vertex pair a b against it where the subcommand reads one:
both labels known, then distinct.
Each handler `cmd_*(quiver, args, err)` returns (payload, lines, status): a
zero-argument callable that builds the JSON payload, an iterable of text
lines without newlines, and the exit status.  `main` alone reads --output
and writes stdout, so a request that exits 2 writes nothing there, and it
builds only the form it prints.

Exit status: 0 on success / verified pass, 1 on a verified failure (an
identity check with mismatches, an inconclusive check that compared nothing
nonzero with |d| >= 1, such as --order 0 or a --qmax below 1, or DT
extraction with an unstable degree, a non-integral or negative invariant or
no nonzero invariant, which `dt` names in one line on stderr), 2 on usage or
input errors: argparse usage errors, an option or vertex labels a verify
target does not read among them, reported before any file is read; missing,
unreadable or malformed files, text that is not JSON or nests too deeply,
unknown vertex labels or a pair that is not distinct, a window given by one
bound only or an empty one, orders or level-weight bounds below their
minimum, which are also reported before any file is read.

`main` returns that status, for argparse usage errors (2) and --help (0)
too, and writes only to the streams it is given.  It may be called any
number of times in one process; every call reuses one parser."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache

from .algebra import (component_dimension, functional_dimension,
                      gr_linking_check, homology_check, loop_weight,
                      poincare_check)
from .dt import dt_check, dt_extract, dt_window
from .motivic import (Conventions, DEFAULT_CONVENTIONS, default_window,
                      diagonalize, motivic_series, verify_diagonalization,
                      verify_link_identity, verify_unlink_identity)
from .quiver import Quiver, link, read_json, unlink
from .series import SeriesError, exact_str


class InputError(Exception):
    """User-facing input problem; maps to exit status 2."""


def _fail(message):
    raise InputError(message)


def _load(parse, path):
    """parse(the JSON value in the file at path), with a file or format error
    as an input error that names the path once; text that is not JSON and a
    value parse rejects both raise ValueError."""
    try:
        return parse(read_json(path))
    except FileNotFoundError:
        _fail(f"{path}: no such file")
    except OSError as exc:
        _fail(f"{path}: {exc.strerror}")
    except ValueError as exc:
        _fail(f"{path}: {exc}")


def _check_pair(quiver, a, b):
    for label in (a, b):
        try:
            quiver.index(label)
        except KeyError:
            _fail(f"unknown vertex {label!r}; quiver has {list(quiver.vertices)}")
    if a == b:
        _fail(f"vertex pair must be distinct, got {a!r} twice")


def _window(args):
    """The --qmin/--qmax window, or None when neither is given."""
    qmin, qmax = args.qmin, args.qmax
    if (qmin is None) != (qmax is None):
        _fail("--qmin and --qmax must be given together")
    if qmin is None:
        return None
    if qmin > qmax:
        _fail(f"empty window: --qmin {qmin} > --qmax {qmax}")
    return (qmin, qmax)


def _conventions(args):
    if args.config is None:
        return DEFAULT_CONVENTIONS
    return _load(Conventions.from_dict, args.config)


def _save_quiver(quiver, path):
    try:
        quiver.save(path)
    except OSError as exc:
        _fail(f"{path}: {exc}")


_encode_str = json.encoder.encode_basestring_ascii


def _write_json(value, indent, out):
    """Append to `out` the text json.dumps gives `value` with sort_keys=True
    and indent=2, where `indent` ("\n" and spaces) starts its lines: the
    str, int, bool and None leaves, str-keyed dicts, lists and tuples.  A
    list of plain ints is one join.  Anything else (a float, a non-str key,
    a subclass) raises TypeError, as json.dumps does for a value it cannot
    encode; keys that do not sort raise the TypeError json.dumps raises."""
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        lead = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(lead + _encode_str(key) + ": ")
            _write_json(value[key], inner, out)
            lead = "," + inner
        out.append(indent + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        if all(type(x) is int for x in value):
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, value))
                       + indent + "]")
            return
        lead = "[" + inner
        for item in value:
            out.append(lead)
            _write_json(item, inner, out)
            lead = "," + inner
        out.append(indent + "]")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_text(value):
    """The canonical JSON text of `value`, as _write_json writes it."""
    out = []
    _write_json(value, "\n", out)
    return "".join(out)


def _matrix_lines(quiver):
    return [f"  {v}: {list(row)}" for v, row in zip(quiver.vertices, quiver.matrix)]


# -- subcommands ---------------------------------------------------------------
# The payload is a callable and lines that cost anything to format come
# from a generator, so main builds only the form that --output asks for.

def cmd_info(quiver, args, err):
    return (lambda: {"vertices": list(quiver.vertices),
                     "matrix": [list(r) for r in quiver.matrix],
                     "loops": {v: quiver.loops(v) for v in quiver.vertices},
                     "max_loops": quiver.max_loops(), "symmetric": True},
            [f"vertices: {', '.join(quiver.vertices)}", *_matrix_lines(quiver)], 0)


def cmd_series(quiver, args, err):
    window = _window(args) or default_window(args.order, quiver.max_loops())
    series = motivic_series(quiver, args.order, window)

    def lines():
        yield f"vertices: {', '.join(series.vertices)}"
        yield f"degree cap: {series.cap}; window: [{series.window[0]}, {series.window[1]}]"
        for d in sorted(series.terms, key=lambda d: (sum(d), d)):
            yield f"x^{d}: {series.terms[d].to_q_string()}"
    return series.to_json, lines(), 0


def cmd_dt(quiver, args, err):
    # on dt_window every degree is stable at the guard band dt.GUARD
    result = dt_extract(motivic_series(quiver, args.order, dt_window(quiver, args.order)))
    # dt_check needs every degree stable, then checks positivity and that
    # some invariant is nonzero; a failure names its reason on err
    try:
        report = dt_check(result)
    except ValueError as exc:
        reason = str(exc)
    else:
        bad = [tuple(mm["degree"]) for mm in report.mismatches if "degree" in mm]
        reason = (None if report.passed
                  else f"non-integral or negative invariants in degrees {bad}" if bad
                  else f"inconclusive: {report.mismatches[0]['reason']}")
    if reason:
        err.write(f"dt: {reason}\n")

    def lines():
        for entry in result.entries:
            flag = ("  UNSTABLE" if not entry.stable
                    else "" if entry.is_positive() else "  NOT POSITIVE")
            omega = ("{" + ", ".join(f"{e}: {exact_str(c)}" for e, c
                                     in sorted(entry.u_coeffs.items())) + "}"
                     if entry.u_coeffs else "0")
            yield f"Omega{entry.degree}: {omega}{flag}"
    return result.to_json, lines(), 1 if reason else 0


def cmd_transform(quiver, args, err):
    """link or unlink, as args.command names it."""
    try:
        transformed = (link if args.command == "link" else unlink)(quiver, args.a, args.b)
    except ValueError as exc:
        _fail(str(exc))
    if args.outfile:
        _save_quiver(transformed, args.outfile)
    new = transformed.vertices[-1]
    return (lambda: {"operation": args.command, "pair": [args.a, args.b],
                     "new_vertex": new, "quiver": transformed.to_json()},
            [f"{args.command}({args.a}, {args.b}) added vertex {new!r}",
             *_matrix_lines(transformed)], 0)


def cmd_diagonalize(quiver, args, err):
    result = diagonalize(quiver, args.order, _conventions(args))
    if args.outfile:
        _save_quiver(result.diagonal_quiver(), args.outfile)

    def lines():
        yield f"diagonal factors after {result.rounds} rounds ({result.pruned_count} pruned):"
        for f in result.factors:
            yield (f"  {f.label}: loops={f.loop_count} "
                   f"monomial=x^{f.monomial.exponents} qpow={f.monomial.qpow}")
    return result.to_json, lines(), 0


def cmd_algebra_dims(quiver, args, err):
    try:
        # an empty --degree is the empty vector, the degree of a 0-vertex quiver
        degree = tuple(int(part) for part in args.degree.split(",")) if args.degree else ()
    except ValueError:
        _fail(f"--degree must be comma-separated integers, got {args.degree!r}")
    if len(degree) != len(quiver) or any(x < 0 for x in degree):
        _fail(f"--degree needs {len(quiver)} nonnegative entries, got {args.degree!r}")
    rows = []
    base = loop_weight(quiver, degree)
    for s in range(args.smax + 1):
        h = -base - 2 * s
        rows.append({"hdeg": h, "k_weight": s,
                     "dimension": component_dimension(quiver, degree, h),
                     "functional_dimension": functional_dimension(quiver, degree, h)})
    lines = [f"degree {degree}:"] + [f"  h={r['hdeg']}: dim={r['dimension']} "
                                     f"functional={r['functional_dimension']}" for r in rows]
    status = 0 if all(r["dimension"] == r["functional_dimension"] for r in rows) else 1
    return (lambda: {"quiver": quiver.to_json(), "degree": list(degree), "components": rows},
            lines, status)


# Each verify target: the options it reads beside the quiver path, in the
# order its usage line shows them, its --order minimum and its check.
# build_parser gives each one a sub-parser of `verify` declaring just these,
# so argparse rejects any other option or label.
_VERIFY = {
    "linking": (("order", "window", "output", "config", "calibrate", "pair"), 0,
                lambda quiver, args: verify_link_identity(
                    quiver, args.a, args.b, args.order, _window(args),
                    _conventions(args), args.calibrate)),
    "unlinking": (("order", "window", "output", "config", "calibrate", "pair"), 0,
                  lambda quiver, args: verify_unlink_identity(
                      quiver, args.a, args.b, args.order, _window(args),
                      _conventions(args), args.calibrate)),
    # diagonalize runs at least one round, as on the diagonalize command;
    # without --qmin/--qmax the window is valuation_window(quiver, order)
    "diagonalization": (("order", "window", "output", "config"), 1,
                        lambda quiver, args: verify_diagonalization(
                            quiver, args.order, _window(args), _conventions(args))),
    "poincare": (("order", "window", "output"), 0,
                 lambda quiver, args: poincare_check(quiver, args.order, _window(args))),
    "gr": (("order", "output", "smax", "pair"), 0,
           lambda quiver, args: gr_linking_check(quiver, args.a, args.b, args.order,
                                                 s_max=args.smax)),
    "homology": (("order", "output", "smax", "pair"), 0,
                 lambda quiver, args: homology_check(quiver, args.a, args.b, args.order,
                                                     s_max=args.smax)),
}


def cmd_verify(quiver, args, err):
    try:
        report = args.check(quiver, args)
    except ValueError as exc:
        _fail(str(exc))

    def lines():
        yield report.summary()
        for mm in report.mismatches[:5]:
            yield f"  mismatch: {json.dumps(mm, sort_keys=True)}"
        if len(report.mismatches) > 5:
            yield f"  ... and {len(report.mismatches) - 5} more"
    return report.to_json, lines(), 0 if report.passed else 1


# -- parser ---------------------------------------------------------------------

def _arg(*flags, **kwargs):
    return flags, kwargs


# Every option a subcommand may read, by the name the tables use: the
# add_argument calls that declare it.
_OPTIONS = {
    "order": [_arg("--order", type=int, default=3,
                   help="total x-degree truncation (default 3)")],
    "window": [_arg("--qmin", type=int, help="window lower bound, in half-integer q powers"),
               _arg("--qmax", type=int, help="window upper bound, in half-integer q powers")],
    "output": [_arg("--output", choices=("text", "json"), default="text",
                    help="output format (default text)")],
    "config": [_arg("--config", help="JSON file overriding substitution conventions")],
    "calibrate": [_arg("--calibrate", action="store_true",
                       help="also scan substitution constants q^(k/2), k=-2..2")],
    "outfile": [_arg("-o", "--outfile", help="write the resulting quiver JSON here")],
    "degree": [_arg("--degree", required=True,
                    help="dimension vector, comma separated (e.g. 1,1)")],
    "smax": [_arg("--smax", type=int, default=8,
                  help="largest total level weight (default 8)")],
    "pair": [_arg("a", help="first vertex label"), _arg("b", help="second vertex label")],
}

# Each subcommand but verify: its help line, its handler, the options it
# reads beside the quiver path, in the order its usage line shows them, and
# its --order minimum, None where it reads no --order.
_COMMANDS = {
    "info": ("describe a quiver file", cmd_info, ("output",), None),
    "series": ("print the motivic generating series", cmd_series,
               ("order", "window", "output"), 0),
    "dt": ("extract motivic DT invariants", cmd_dt, ("order", "output"), 0),
    "link": ("link a vertex pair", cmd_transform, ("outfile", "output", "pair"), None),
    "unlink": ("unlink a vertex pair", cmd_transform, ("outfile", "output", "pair"), None),
    "diagonalize": ("unlink repeatedly and report diagonal factors", cmd_diagonalize,
                    ("order", "output", "config", "outfile"), 1),
    "algebra-dims": ("exact component dimensions of the quadratic algebra",
                     cmd_algebra_dims, ("output", "degree", "smax"), None),
}


def _add_options(sub, reads, min_order):
    """Declare on the leaf sub-parser `sub` the quiver path and then each
    option named in `reads`, in that order; set `minimums`, the lower bound
    of each numeric option it reads, and `parser`, `sub` itself."""
    sub.add_argument("quiver", help="path to a quiver JSON file")
    for name in reads:
        for flags, kwargs in _OPTIONS[name]:
            sub.add_argument(*flags, **kwargs)
    lows = {"order": min_order, "smax": 0}
    sub.set_defaults(parser=sub, minimums={name: lows[name] for name in reads
                                           if name in lows})


@cache
def build_parser():
    """The argument parser, built on the first call and shared by every later
    one.  It holds no per-call state: parse_known_args returns a fresh
    Namespace, and the `minimums` dicts it hands out are only read.  Every
    leaf sub-parser sets itself as `parser`, so main rejects an argument it
    left over with that sub-parser's usage."""
    parser = argparse.ArgumentParser(
        prog="quivercalc",
        description="Exact motivic series, DT invariants, and quadratic-algebra "
                    "computations for symmetric quivers.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, reads, min_order) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_line)
        _add_options(sub, reads, min_order)
        sub.set_defaults(handler=handler)
    targets = subs.add_parser("verify", help="run an exact identity check"
                              ).add_subparsers(dest="target", required=True)
    for target, (reads, min_order, check) in _VERIFY.items():
        sub = targets.add_parser(target)
        _add_options(sub, reads, min_order)
        sub.set_defaults(handler=cmd_verify, check=check)
    return parser


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args, extra = build_parser().parse_known_args(argv)
            if extra:
                args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        # --help (0) or a usage error (2), already written to out or err
        return exc.code
    try:
        # numeric arguments with a lower bound, declared per subcommand
        for name, low in args.minimums.items():
            value = getattr(args, name)
            if value is not None and value < low:
                _fail(f"--{name} must be >= {low}, got {value}")
        quiver = _load(Quiver.from_json, args.quiver)
        if "a" in args:
            _check_pair(quiver, args.a, args.b)
        payload, lines, status = args.handler(quiver, args, err)
        if args.output == "json":
            out.write(_json_text(payload()) + "\n")
        else:
            out.writelines(line + "\n" for line in lines)
        return status
    except (InputError, SeriesError) as exc:
        # a SeriesError (TruncationUnderflow among them) means the requested
        # window cannot carry the computation
        err.write(f"error: {exc}\n")
        return 2


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
