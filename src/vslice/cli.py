"""Command-line front end: forward sampling, the four inversions, checks.

Subcommands: forward, invert, svd-table, phantom, selftest.  Every flag can
also come from a JSON config object (--config FILE) keyed by the flag's
destination name (the long flag name, but `infile` for --in).  Each entry
is read as the token `--flag=value` placed after the subcommand and ahead
of the command-line flags, then argparse parses everything once: config
values pass the same type and choice checks as flags (so 8.0 is no
integer), and explicit flags win.  Lists are joined with commas, null
leaves a flag unset, and booleans, objects and the keys config and help are
usage errors.  A config may carry "schema_version": 1, like every JSON file
of the package.
Exit codes: 0 success, 1 validation failure, 2 usage error.
"""

import argparse
import csv
import io
import json
import math
import sys
import time

from .acceptance import CRITERIA, run_acceptance
from .grid import GridSpec, SliceData, _is_integer, default_spec
from .harness import (
    PHANTOM_KINDS,
    SCHEMA_VERSION,
    Phantom,
    _is_schema_version,
    compare,
    make_phantom,
    read_json,
    read_vsl,
    write_json,
    write_vsl,
)
from .invert_ac import full_transform, invert_ac
from .invert_hs import invert_hypersingular
from .invert_john import invert_john
from .invert_svd import reconstruct, svd_table
from .xform import vslice_forward


class _UsageError(Exception):
    pass


def _numbers(conv):
    """argparse type: a comma-separated list of conv() values, as a tuple."""
    def parse(text):
        try:
            return tuple(conv(v) for v in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                "expected comma-separated %s values, got %r" % (conv.__name__, text)) from None
    return parse


def _criteria(text):
    numbers = set(_numbers(int)(text))
    bad = sorted(numbers - set(range(1, len(CRITERIA) + 1)))
    if bad:
        raise argparse.ArgumentTypeError("no such criteria: %s" % ", ".join(map(str, bad)))
    return numbers


def _grid_counts(text):
    """argparse type: None for 'default', else the counts (A, R, T) of 'AxRxT'."""
    if text == "default":
        return None
    try:
        a, r, t = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError("expected 'default' or AxRxT, e.g. 256x96x128") from None
    return a, r, t


def _add_phantom_flags(p):
    p.add_argument("--phantom", choices=PHANTOM_KINDS,
                   help="phantom kind (alternative to --truth)")
    p.add_argument("--n", type=int, choices=[2, 3], help="sphere dimension")
    p.add_argument("--power", type=float, default=0.0, help="axial_power exponent")
    p.add_argument("--nu", type=_numbers(int), help="basis index as m,mu,k")
    p.add_argument("--lam", type=float, help="weight parameter (basis phantom / svd)")
    p.add_argument("--center", type=_numbers(float),
                   help="bump center, n+1 comma-separated coordinates")
    p.add_argument("--width", type=float, default=0.7, help="bump geodesic width")
    p.add_argument("--margin", type=float, default=0.0, help="bump equator margin")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="vslice",
        description="Vertical slice transform of even functions on the sphere "
                    "and its four inversions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="sample a phantom and write its slice data")
    _add_phantom_flags(p)
    p.add_argument("--grid", type=_grid_counts, default="default",
                   help="'default' or angular x radial x t node counts, e.g. 256x96x128")
    p.add_argument("--truth", help="phantom description JSON (instead of phantom flags)")
    p.add_argument("--out", required=True, help="output .vsl sinogram path")

    p = sub.add_parser("invert", help="reconstruct from a .vsl sinogram")
    p.add_argument("--method", required=True, choices=["john", "hs", "svd", "ac"])
    p.add_argument("--in", dest="infile", required=True, help="input .vsl sinogram")
    p.add_argument("--out", help="write the reconstruction as a .vsl file")
    p.add_argument("--truth", help="phantom description JSON to validate against")
    p.add_argument("--report", help="write the ValidationReport JSON here")
    p.add_argument("--band", type=int, default=8, help="svd: spectral cutoff band")
    p.add_argument("--lam", type=float, help="svd: weight parameter (default n/2)")
    p.add_argument("--eps", type=float, help="hs: inner cutoff radius")
    p.add_argument("--rmax", type=float, default=4.0, help="hs: outer truncation radius")

    p = sub.add_parser("svd-table", help="print (nu, c_nu, d_nu, s_nu) as CSV")
    p.add_argument("--n", type=int, required=True, choices=[2, 3])
    p.add_argument("--lam", type=float, help="weight parameter (default n/2)")
    p.add_argument("--band", type=int, default=8)
    p.add_argument("--out", help="write CSV here instead of stdout")

    p = sub.add_parser("phantom", help="write a phantom description JSON")
    _add_phantom_flags(p)
    p.add_argument("--grid", type=_grid_counts, default="default",
                   help="grid the description is checked on and --vsl samples: "
                        "'default' or AxRxT")
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--vsl", help="also sample the phantom and write a .vsl grid dump")

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--criteria", type=_criteria,
                   help="comma-separated subset, e.g. 1,2,9 (default all)")

    for p in sub.choices.values():
        p.add_argument("--config", help="JSON file mirroring the flags of this subcommand")
    return parser, sub.choices


def _config_tokens(path, sub):
    """The entries of the JSON config at `path` as --flag=value tokens of `sub`."""
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise _UsageError("config is not valid JSON: %s" % exc)
    if not isinstance(cfg, dict):
        raise _UsageError("config must be a JSON object")
    version = cfg.pop("schema_version", SCHEMA_VERSION)
    if not _is_schema_version(version):
        raise _UsageError("unsupported config schema version %r" % (version,))
    flags = {a.dest: a.option_strings[0] for a in sub._actions if a.dest not in ("config", "help")}
    unknown = sorted(set(cfg) - set(flags))
    if unknown:
        raise _UsageError("unknown config keys: %s" % ", ".join(unknown))
    tokens = []
    for key, value in cfg.items():
        if value is None:
            continue
        items = value if isinstance(value, list) else [value]
        if any(v is None or isinstance(v, (bool, dict, list)) for v in items):
            raise _UsageError("config %s must be a number, a string or a list of them, got %s"
                              % (key, json.dumps(value)))
        # the = form keeps a value such as -0.3,0.2,0.93 from reading as a flag
        tokens.append("%s=%s" % (flags[key], ",".join(map(str, items))))
    return tokens


def _parse(argv):
    """The Namespace of argv.  A --config file's entries are read as flags
    placed after the subcommand, so argparse checks them and explicit flags,
    which come later, win."""
    parser, commands = _build_parser()
    pre = argparse.ArgumentParser(prog="vslice", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path and argv[0] in commands:
        argv = argv[:1] + _config_tokens(path, commands[argv[0]]) + argv[1:]
    return parser.parse_args(argv)


def _grid_spec(counts, n):
    return default_spec(n) if counts is None else GridSpec(n, *counts)


def _read_description(path):
    """(Phantom, n) of the phantom description file at `path`."""
    payload = read_json(path)
    n = payload.get("n")
    if not _is_integer(n):
        raise ValueError("description field n must be an integer, got %r" % (n,))
    if "phantom" not in payload:
        raise ValueError("description has no field phantom")
    return Phantom.from_dict(payload["phantom"]), n


def _phantom_from_args(args):
    """(Phantom, n) from the flag group or a --truth description file."""
    if getattr(args, "truth", None):
        p, n = _read_description(args.truth)
        if args.n is not None and args.n != n:
            raise _UsageError("--n disagrees with the description file")
        return p, n
    if args.phantom is None:
        raise _UsageError("need --phantom (or --truth with a description file)")
    if args.n is None:
        raise _UsageError("need --n")
    if args.phantom == "basis" and args.nu is None:
        raise _UsageError("basis phantom needs --nu m,mu,k")
    if args.phantom == "bump" and args.center is None:
        raise _UsageError("bump phantom needs --center")
    # from_dict keeps the fields of the kind and drops the rest
    d = {"kind": args.phantom, "p": args.power, "nu": args.nu, "lam": args.lam,
         "center": args.center, "width": args.width, "equator_margin": args.margin}
    return Phantom.from_dict(d), args.n


def _run_forward(args):
    p, n = _phantom_from_args(args)
    spec = _grid_spec(args.grid, n)
    F = vslice_forward(make_phantom(p, spec))
    write_vsl(args.out, F)
    print("wrote %s  (n=%d, %d angles x %d offsets)"
          % (args.out, n, F.grid.n_ang_total, spec.n_t))
    return 0


def _run_phantom(args):
    p, n = _phantom_from_args(args)
    # sampling checks the description against the grid before anything is written
    f = make_phantom(p, _grid_spec(args.grid, n))
    write_json(args.out, {"n": n, "phantom": p.to_dict()})
    print("wrote %s" % args.out)
    if args.vsl:
        write_vsl(args.vsl, f)
        print("wrote %s" % args.vsl)
    return 0


def _run_invert(args):
    if args.report and not args.truth:
        raise _UsageError("--report needs --truth to validate against")
    data, lam_file = read_vsl(args.infile)
    if not isinstance(data, SliceData):
        raise ValueError("input file holds a hemisphere function, not slice data")
    if args.truth:
        # every route reconstructs on the data's grid; sampling the truth
        # there first rejects a bad description before --out is written
        described, n = _read_description(args.truth)
        if n != data.grid.spec.n:
            raise ValueError("description field n = %d, but the data have n = %d"
                             % (n, data.grid.spec.n))
        truth = make_phantom(described, data.grid.spec)

    t0 = time.perf_counter()
    if args.method == "john":
        rec = invert_john(data)
    elif args.method == "ac":
        # forward writes half-transform sinograms; the continuation formulas
        # take the full (doubled) transform
        rec = invert_ac(full_transform(data))
    elif args.method == "hs":
        rec = invert_hypersingular(data, eps=args.eps, r_max=args.rmax)
    else:
        lam = args.lam
        if lam is None and math.isfinite(lam_file):
            lam = lam_file
        rec = reconstruct(data, lam=lam, band=args.band)
    runtime_ms = int(round(1e3 * (time.perf_counter() - t0)))

    if args.out:
        write_vsl(args.out, rec)
        print("wrote %s" % args.out)
    if args.truth:
        rep = compare(truth, rec, method=args.method, runtime_ms=runtime_ms)
        body = rep.to_dict()
        print(json.dumps(body, indent=2, sort_keys=True))
        if args.report:
            write_json(args.report, body)
    return 0


def _run_svd_table(args):
    lam = args.n / 2.0 if args.lam is None else args.lam
    rows = svd_table(args.n, lam, args.band)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["m", "mu", "k", "c_nu", "d_nu", "s_nu"])
    for m, mu, k, c, d, s in rows:
        writer.writerow([m, mu, k, repr(float(c)), repr(float(d)), repr(float(s))])
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(buf.getvalue())
        print("wrote %s (%d rows)" % (args.out, len(rows)))
    else:
        sys.stdout.write(buf.getvalue())
    return 0


def _run_selftest(args):
    results = run_acceptance(args.criteria)
    return 0 if all(r.passed for r in results) else 1


_RUNNERS = {
    "forward": _run_forward,
    "invert": _run_invert,
    "svd-table": _run_svd_table,
    "phantom": _run_phantom,
    "selftest": _run_selftest,
}


def cli(argv=None):
    """Parse argv and run one subcommand; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        return _RUNNERS[args.command](args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
        return code if isinstance(code, int) else 2
    except _UsageError as exc:
        print("vslice: usage error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print("vslice: error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(cli())
