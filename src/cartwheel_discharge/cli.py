"""Command-line front end.

Exit codes: 0 verified / clean, 1 verification failure or lint
findings or golden-table mismatch, 2 malformed input (including a file
that cannot be read or decoded, or output that cannot be written), 3
internal invariant breach or any other escaping exception (always a
bug, never a property of the inputs).  Every write goes through
`_write`; a message stderr cannot take leaves the code as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import traceback

from .configurations import (build_good_configuration, load_database,
                             parse_configurations)
from .errors import (InputError, InternalInvariantError, VerificationFailure,
                     records)
from .hubcaps import check_hubcap_sum
from .presentation import parse_presentation, run_presentation, walk_levels
from .rules import (derive_outlets, diff_outlet_tables, format_outlet_table,
                    parse_outlet_table, parse_rules)


@contextlib.contextmanager
def _about(path):
    """An InputError escaping the block that names no file is about
    the file at path.  The CLI is the one place that names files: the
    library names only lines."""
    try:
        yield
    except InputError as e:
        if e.path is None:
            e.path = path
        raise


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(str(e))
    except UnicodeDecodeError as e:
        raise InputError(f"cannot decode byte {e.start} as UTF-8 "
                         f"({e.reason})")


def _open_trace(wanted, degree):
    """Context giving the file `verify --trace` writes in
    CARTWHEEL_TRACE_DIR, opened before verification so that a bad
    directory fails first; it gives None for stdout or no trace."""
    target = os.environ.get("CARTWHEEL_TRACE_DIR", "").strip()
    if not (wanted and target):
        return contextlib.nullcontext()
    path = os.path.join(target, f"trace-verify-d{degree}.txt")
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as e:
        raise _cannot_write("the trace", e, path)


def _cannot_write(what, e, path):
    return InputError(f"cannot write {what}: {e.strerror or e}", path=path)


def _write(text, out=None, what="the output"):
    """The CLI's one writer: text to out (stdout when None), flushed at
    once.  A stream that cannot take it, such as a full device or a
    closed pipe, is bad input naming the stream."""
    if not text:
        return
    out = out or sys.stdout
    try:
        out.write(text)
        out.flush()
    except OSError as e:
        raise _cannot_write(what, e, getattr(out, "name", "<stdout>"))


def _emit_trace(trace, fh):
    _write(_lines(trace), fh, "the trace")
    if fh is not None:
        _write(f"trace written to {fh.name}\n")


def _lines(items):
    return "".join(item + "\n" for item in items)


def _outlets(path, degree):
    """Outlet table of the rules file at path."""
    with _about(path):
        return derive_outlets(parse_rules(_read(path)), degree)


def _golden_mismatch(table, path):
    """Print how the derived outlet table differs from the golden table
    at path; True when it does."""
    with _about(path):
        golden = parse_outlet_table(_read(path))
    diffs = diff_outlet_tables(table, golden)
    if diffs:
        _write(_lines(diffs + [f"derived outlet table disagrees with "
                               f"{path}"]))
    return bool(diffs)


def cmd_verify(args) -> int:
    if not 7 <= args.degree <= 11:
        raise InputError(f"degree {args.degree} out of range 7..11")
    table = _outlets(args.rules, args.degree)
    if args.golden and _golden_mismatch(table, args.golden):
        return 1
    with _about(args.configs):
        db = load_database(_read(args.configs))
    with _about(args.presentation):
        text = _read(args.presentation)
        degree, lines = parse_presentation(text)
        if degree != args.degree:
            head, _ = next(records(text))
            raise InputError(f"presentation is for degree {degree}, "
                             f"requested {args.degree}", head)
        trace = [] if args.trace else None
        failure = None
        with _open_trace(args.trace, degree) as fh:
            try:
                report = run_presentation(degree, lines, table, db,
                                          trace=trace)
            except VerificationFailure as e:
                failure = e
            if trace is not None:
                _emit_trace(trace, fh)
    if failure is not None:
        raise failure
    disp = " ".join(f"{k}={v}" for k, v in sorted(report.dispositions.items()))
    _write(f"verified: degree {degree}, {report.steps} steps, "
           f"{report.branches} branches, dispositions {disp or 'none'}\n")
    return 0


def cmd_derive_outlets(args) -> int:
    if not 5 <= args.degree <= 11:
        raise InputError(f"degree {args.degree} out of range 5..11")
    table = _outlets(args.rules, args.degree)
    if args.golden:
        if _golden_mismatch(table, args.golden):
            return 1
        _write(f"outlet table matches {args.golden} "
               f"({len(table)} outlets at degree {args.degree})\n")
        return 0
    _write(format_outlet_table(table))
    return 0


def cmd_lint(args) -> int:
    if not (args.rules or args.presentation or args.configs):
        raise InputError("nothing to lint: pass -r, -p, or -c")
    findings = []

    @contextlib.contextmanager
    def finding(path, line=None):
        """An InputError or VerificationFailure escaping the block is a
        finding about path, at line when it names none."""
        try:
            yield
        except (InputError, VerificationFailure) as e:
            if e.path is None:
                e.path = path
            if e.line is None:
                e.line = line
            findings.append(str(e))

    if args.rules:
        with finding(args.rules):
            rules = parse_rules(_read(args.rules))
            for d in range(5, 12):
                derive_outlets(rules, d)

    if args.presentation:
        lines = []
        # the pool verify reads: see presentation's module docstring
        appeals = {}
        with finding(args.presentation):
            degree, lines = parse_presentation(_read(args.presentation))
            for ln, pool, opened in walk_levels(lines):
                if ln.kind == "S" and ln.payload[2:] not in pool:
                    l, m = ln.payload[2:]
                    appeals[ln.no] = (
                        f"symmetry appeal cites line {m}, whose branch is "
                        f"still open" if m in opened else
                        f"symmetry appeal cites line {m} at level {l}, "
                        f"which the pool does not hold")
        for ln in lines:
            if ln.kind == "H":
                with finding(args.presentation, ln.no):
                    check_hubcap_sum(ln.payload, degree)
            elif ln.no in appeals:
                findings.append(str(VerificationFailure(
                    appeals[ln.no], ln.no, args.presentation)))

    if args.configs:
        configs = []
        with finding(args.configs):
            configs = parse_configurations(_read(args.configs))
        for cfg in configs:
            with finding(args.configs):
                build_good_configuration(cfg)

    _write(_lines(findings))
    return 1 if findings else 0


def _parser():
    p = argparse.ArgumentParser(
        prog="cartwheel-discharge",
        description="verify machine-checked case analyses of hub "
                    "neighborhoods in plane triangulations")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a proof script")
    v.add_argument("-d", "--degree", type=int, required=True)
    v.add_argument("-r", "--rules", required=True)
    v.add_argument("-p", "--presentation", required=True)
    v.add_argument("-c", "--configs", required=True)
    v.add_argument("--golden", default=None,
                   help="outlet table the derived one must match")
    v.add_argument("--trace", action="store_true")
    v.set_defaults(func=cmd_verify)

    o = sub.add_parser("derive-outlets", help="print the outlet table")
    o.add_argument("-d", "--degree", type=int, required=True)
    o.add_argument("-r", "--rules", required=True)
    o.add_argument("--golden", default=None)
    o.set_defaults(func=cmd_derive_outlets)

    l = sub.add_parser("lint", help="static checks without verification")
    l.add_argument("-r", "--rules", default=None)
    l.add_argument("-p", "--presentation", default=None)
    l.add_argument("-c", "--configs", default=None)
    l.set_defaults(func=cmd_lint)
    return p


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        message, code = f"error: {e}", 2
    except InternalInvariantError as e:
        message, code = f"internal error: {e}", 3
    except VerificationFailure as e:
        message, code = f"verification failed: {e}", 1
    except Exception as e:
        message, code = (f"{traceback.format_exc()}internal error: "
                         f"{type(e).__name__}: {e}"), 3
    # a message stderr cannot take leaves the code as it is
    with contextlib.suppress(InputError):
        _write(message + "\n", sys.stderr)
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
