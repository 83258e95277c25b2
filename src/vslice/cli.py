"""Command-line front end: forward sampling, the four inversions, checks.

Subcommands: forward, invert, svd-table, phantom, selftest.  Every flag can
also come from a JSON config object (--config FILE) keyed by the long flag
names with underscores instead of dashes; explicit command-line flags win.
A config may carry "schema_version": 1, like every JSON file of the package.
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
from .grid import GridSpec, SliceData, default_spec
from .harness import (
    PHANTOM_KINDS,
    SCHEMA_VERSION,
    Phantom,
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


def _seq(value, conv):
    """Tuple of conv() items from a comma string or a JSON-config list."""
    items = value if isinstance(value, (list, tuple)) else str(value).split(",")
    try:
        return tuple(conv(v) for v in items)
    except (TypeError, ValueError):
        raise _UsageError("expected comma-separated numbers, got %r" % (value,)) from None


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise _UsageError("--%s is required" % name.replace("infile", "in"))


def _add_phantom_flags(p):
    p.add_argument("--phantom", choices=PHANTOM_KINDS,
                   help="phantom kind (alternative to --truth)")
    p.add_argument("--n", type=int, choices=[2, 3], help="sphere dimension")
    p.add_argument("--power", type=float, default=0.0, help="axial_power exponent")
    p.add_argument("--nu", help="basis index as m,mu,k")
    p.add_argument("--lam", type=float, help="weight parameter (basis phantom / svd)")
    p.add_argument("--center", help="bump center, n+1 comma-separated coordinates")
    p.add_argument("--width", type=float, default=0.7, help="bump geodesic width")
    p.add_argument("--margin", type=float, default=0.0, help="bump equator margin")


def _add_config_flag(p):
    p.add_argument("--config", help="JSON file mirroring the flags of this subcommand")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="vslice",
        description="Vertical slice transform of even functions on the sphere "
                    "and its four inversions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = sub.add_parser("forward", help="sample a phantom and write its slice data")
    _add_phantom_flags(p)
    p.add_argument("--grid", default="default",
                   help="'default' or angular x radial x t node counts, e.g. 256x96x128")
    p.add_argument("--truth", help="phantom description JSON (instead of phantom flags)")
    p.add_argument("--out", help="output .vsl sinogram path")
    _add_config_flag(p)
    commands["forward"] = p

    p = sub.add_parser("invert", help="reconstruct from a .vsl sinogram")
    p.add_argument("--method", choices=["john", "hs", "svd", "ac"])
    p.add_argument("--in", dest="infile", help="input .vsl sinogram")
    p.add_argument("--out", help="write the reconstruction as a .vsl file")
    p.add_argument("--truth", help="phantom description JSON to validate against")
    p.add_argument("--report", help="write the ValidationReport JSON here")
    p.add_argument("--band", type=int, default=8, help="svd: spectral cutoff band")
    p.add_argument("--lam", type=float, help="svd: weight parameter (default n/2)")
    p.add_argument("--eps", type=float, help="hs: inner cutoff radius")
    p.add_argument("--rmax", type=float, default=4.0, help="hs: outer truncation radius")
    _add_config_flag(p)
    commands["invert"] = p

    p = sub.add_parser("svd-table", help="print (nu, c_nu, d_nu, s_nu) as CSV")
    p.add_argument("--n", type=int, choices=[2, 3])
    p.add_argument("--lam", type=float, help="weight parameter (default n/2)")
    p.add_argument("--band", type=int, default=8)
    p.add_argument("--out", help="write CSV here instead of stdout")
    _add_config_flag(p)
    commands["svd-table"] = p

    p = sub.add_parser("phantom", help="write a phantom description JSON")
    _add_phantom_flags(p)
    p.add_argument("--grid", default="default",
                   help="grid for --vsl sampling: 'default' or AxRxT")
    p.add_argument("--out", help="output JSON path")
    p.add_argument("--vsl", help="also sample the phantom and write a .vsl grid dump")
    _add_config_flag(p)
    commands["phantom"] = p

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--criteria", help="comma-separated subset, e.g. 1,2,9 (default all)")
    _add_config_flag(p)
    commands["selftest"] = p

    return parser, commands


def _apply_config(parser, commands, argv, args):
    path = getattr(args, "config", None)
    if not path:
        return args
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise _UsageError("config is not valid JSON: %s" % exc)
    if not isinstance(cfg, dict):
        raise _UsageError("config must be a JSON object")
    version = cfg.pop("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise _UsageError("unsupported config schema version %r" % (version,))
    sub = commands[args.command]
    known = {a.dest for a in sub._actions}
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise _UsageError("unknown config keys: %s" % ", ".join(unknown))
    # set_defaults skips argparse validation, so handlers re-check values;
    # flags given explicitly on the command line still win over the config.
    sub.set_defaults(**cfg)
    return parser.parse_args(argv)


def _parse_grid(text, n):
    if text in (None, "default"):
        return default_spec(n)
    try:
        a, r, t = (int(v) for v in str(text).lower().split("x"))
    except ValueError:
        raise _UsageError("--grid expects 'default' or AxRxT, e.g. 256x96x128") from None
    return GridSpec(n, a, r, t)


def _phantom_from_args(args):
    """(Phantom, n) from the flag group or a --truth description file."""
    if getattr(args, "truth", None):
        payload = read_json(args.truth)
        n = int(payload["n"])
        if args.n is not None and int(args.n) != n:
            raise _UsageError("--n disagrees with the description file")
        return Phantom.from_dict(payload["phantom"]), n
    if args.phantom is None:
        raise _UsageError("need --phantom (or --truth with a description file)")
    if args.phantom not in PHANTOM_KINDS:
        raise _UsageError("--phantom must be one of %s" % ", ".join(PHANTOM_KINDS))
    if args.n is None:
        raise _UsageError("need --n")
    n = int(args.n)
    if n not in (2, 3):
        raise _UsageError("--n must be 2 or 3")
    d = {"kind": args.phantom}
    if args.phantom == "axial_power":
        d["p"] = float(args.power)
    elif args.phantom == "basis":
        if args.nu is None:
            raise _UsageError("basis phantom needs --nu m,mu,k")
        d["nu"] = list(_seq(args.nu, int))
        if args.lam is not None:
            d["lam"] = float(args.lam)
    elif args.phantom == "bump":
        if args.center is None:
            raise _UsageError("bump phantom needs --center")
        d["center"] = list(_seq(args.center, float))
        d["width"] = float(args.width)
        d["equator_margin"] = float(args.margin)
    return Phantom.from_dict(d), n


def _run_forward(args):
    _require(args, "out")
    p, n = _phantom_from_args(args)
    spec = _parse_grid(args.grid, n)
    F = vslice_forward(make_phantom(p, spec))
    write_vsl(args.out, F)
    print("wrote %s  (n=%d, %d angles x %d offsets)"
          % (args.out, n, F.grid.n_ang_total, spec.n_t))
    return 0


def _run_phantom(args):
    _require(args, "out")
    p, n = _phantom_from_args(args)
    write_json(args.out, {"n": n, "phantom": p.to_dict()})
    print("wrote %s" % args.out)
    if args.vsl:
        f = make_phantom(p, _parse_grid(args.grid, n))
        write_vsl(args.vsl, f)
        print("wrote %s" % args.vsl)
    return 0


def _run_invert(args):
    _require(args, "method", "infile")
    if args.method not in ("john", "hs", "svd", "ac"):
        raise _UsageError("--method must be one of john, hs, svd, ac")
    if args.report and not args.truth:
        raise _UsageError("--report needs --truth to validate against")
    data, lam_file = read_vsl(args.infile)
    if not isinstance(data, SliceData):
        raise ValueError("input file holds a hemisphere function, not slice data")

    t0 = time.perf_counter()
    if args.method == "john":
        rec = invert_john(data)
    elif args.method == "ac":
        # forward writes half-transform sinograms; the continuation formulas
        # take the full (doubled) transform
        rec = invert_ac(full_transform(data))
    elif args.method == "hs":
        eps = None if args.eps is None else float(args.eps)
        rec = invert_hypersingular(data, eps=eps, r_max=float(args.rmax))
    else:
        lam = None if args.lam is None else float(args.lam)
        if lam is None and math.isfinite(lam_file):
            lam = lam_file
        rec = reconstruct(data, lam=lam, band=int(args.band))
    runtime_ms = int(round(1e3 * (time.perf_counter() - t0)))

    if args.out:
        write_vsl(args.out, rec)
        print("wrote %s" % args.out)
    if args.truth:
        payload = read_json(args.truth)
        truth = make_phantom(Phantom.from_dict(payload["phantom"]), rec.grid.spec)
        rep = compare(truth, rec, method=args.method, runtime_ms=runtime_ms)
        body = rep.to_dict()
        print(json.dumps(body, indent=2, sort_keys=True))
        if args.report:
            write_json(args.report, body)
    return 0


def _run_svd_table(args):
    _require(args, "n")
    n = int(args.n)
    if n not in (2, 3):
        raise _UsageError("--n must be 2 or 3")
    lam = n / 2.0 if args.lam is None else float(args.lam)
    rows = svd_table(n, lam, int(args.band))
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
    numbers = None
    if args.criteria:
        numbers = set(_seq(args.criteria, int))
        bad = sorted(k for k in numbers if not 1 <= k <= len(CRITERIA))
        if bad:
            raise _UsageError("no such criteria: %s" % ", ".join(map(str, bad)))
    results = run_acceptance(numbers)
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
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(parser, commands, argv, args)
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
