"""Command-line front end.

Five commands, one job each:

* ``homology DESCRIPTOR``     homology of a catalog space (cacheable);
* ``counts --n N``            the closed-form counting values at rank N;
* ``verify SUITE``            run one named verification suite;
* ``catalog GROUP --n N``     the n-th stable factor for a rank-one group;
* ``su2 verify-psi``          randomized construction sweep, JSON report.

Exit codes: 0 success (or stdout closed by its reader), 1 a verification
failed, 2 bad usage or unsupported input, 3 a resource guard refused.
Output is deterministic for a fixed seed, in markdown (default), json
or csv.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import catalog, verifier
from .counting import (
    a_count,
    c_count,
    d_count,
    k_count,
    n_central_product,
    n_lower_bound_su2,
)
from .engine import cached_homology
from .errors import NotPrime, ResourceGuard, UnknownSpace, Unsupported, range_error

FORMATS = ("markdown", "json", "csv")
# K(n) ~ 7^n/24 has 3,611 digits at n = 4000, inside Python's default
# 4,300-digit limit on int -> str conversion.
COUNTS_MAX_N = 4000
# A verify-psi run at --n 6 takes about 35 µs on a 2-vCPU Xeon, so the
# largest sweep allowed takes about 3.5 s.
PSI_MAX_RUNS = 10**5


def _table(headers, rows, fmt, caption=None):
    """Render one table of pre-stringified rows to stdout."""
    if fmt == "csv":
        import csv  # only the csv format needs it

        w = csv.writer(sys.stdout)
        w.writerow(headers)
        w.writerows(rows)
        return
    if caption:
        print(caption)
        print()
    print("| " + " | ".join(headers) + " |")
    print("|" + "|".join(" --- " for _ in headers) + "|")
    for r in rows:
        print("| " + " | ".join(str(c) for c in r) + " |")


def _answer(fmt, doc, caption, headers, rows) -> int:
    """Print doc as indented JSON, or rows as a captioned table; exit 0."""
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    else:
        _table(headers, rows, fmt, caption)
    return 0


def _degrees(g) -> list:
    """(degree, group) rows of a graded group, degree 0 always included."""
    return [(k, str(g[k])) for k in range(max(g.top, 0) + 1)]


def cmd_homology(args) -> int:
    canonical, build = catalog.resolve(args.descriptor)
    g = cached_homology(canonical, build, cache_dir=args.cache_dir)
    doc = {"space": canonical, "homology": g.to_json()}
    return _answer(
        args.fmt, doc, f"space: {canonical}", ("degree", "group"), _degrees(g)
    )


def cmd_counts(args) -> int:
    n = args.n
    if not 1 <= n <= COUNTS_MAX_N:
        raise range_error(n, 1, f"counts need n >= 1 and n <= {COUNTS_MAX_N}")
    rows = [
        ("A", a_count(n)),
        ("C", c_count(n)),
        ("D", d_count(n)),
        ("K", k_count(n)),
        ("su2_lower_bound", n_lower_bound_su2(n)),
    ]
    if n >= 2:
        rows.append(("N(n,1,2)", n_central_product(n, 1, 2)))
        rows.append(("N(n,2,2)", n_central_product(n, 2, 2)))
    doc = {"n": n, "counts": dict(rows)}
    return _answer(args.fmt, doc, f"n = {n}", ("count", "value"), rows)


def cmd_verify(args) -> int:
    reports = verifier.run_suite(args.suite, seed=args.seed, n=args.n, m=args.m)
    if args.fmt == "json":
        print(json.dumps([r.to_json() for r in reports], indent=2))
    elif args.fmt == "csv":
        rows = [
            (r.name, row["item"], row["expected"], row["got"], row["ok"])
            for r in reports
            for row in r.rows
        ]
        _table(("report", "item", "expected", "got", "ok"), rows, "csv")
    else:
        for r in reports:
            print(r.render())
            print()
    return 0 if all(r.ok for r in reports) else 1


def cmd_catalog(args) -> int:
    desc, h = verifier.rank_one_catalog(args.group, args.n)
    doc = {
        "group": args.group,
        "n": args.n,
        "factor": desc,
        "reduced_homology": h.to_json(),
    }
    caption = f"{args.group}, n={args.n}: {desc}"
    return _answer(
        args.fmt, doc, caption, ("degree", "reduced group"), _degrees(h)
    )


def cmd_su2(args) -> int:
    # Always JSON: this subcommand is a machine-readable probe.
    if args.n < 1 or args.runs < 1:
        raise ValueError("su2 verify-psi needs --n >= 1 and --runs >= 1")
    if args.runs > PSI_MAX_RUNS:
        raise ResourceGuard(f"su2 verify-psi takes --runs <= {PSI_MAX_RUNS}")
    out = verifier.psi_sweep(args.n, args.runs, args.seed)
    print(json.dumps(out, indent=2))
    return 0 if out["failures"] == 0 else 1


# Built on the first call and kept for the process.  It holds no command
# functions: ``main`` finds ``cmd_<command>`` by name when it dispatches.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        dest="format_late",
        choices=FORMATS,
        default=None,
        help="output format (default: markdown)",
    )
    p = argparse.ArgumentParser(
        prog="repspace",
        description="Exact homology engine for commuting-variety splittings.",
    )
    p.add_argument("--format", choices=FORMATS, default=None)
    sub = p.add_subparsers(dest="command", required=True)

    h = sub.add_parser(
        "homology", parents=[fmt], help="homology of a catalog space"
    )
    h.add_argument("descriptor", help='e.g. "torus_conj_quotient(n=3)"')
    h.add_argument("--cache-dir", default=None, help="cache root (else $REPSPACE_CACHE)")

    c = sub.add_parser("counts", parents=[fmt], help="closed-form counts at rank n")
    c.add_argument("--n", type=int, required=True)

    v = sub.add_parser("verify", parents=[fmt], help="run a verification suite")
    v.add_argument("suite", choices=verifier.SUITES)
    v.add_argument("--seed", type=int, default=None, help="reseed snf or su2")
    v.add_argument("--n", type=int, default=None, help="narrow to one rank")
    v.add_argument("--m", type=int, default=None, help="narrow to one power")

    g = sub.add_parser(
        "catalog", parents=[fmt], help="stable factor of a rank-one group"
    )
    g.add_argument("group", choices=verifier.RANK_ONE_GROUPS)
    g.add_argument("--n", type=int, required=True)

    s = sub.add_parser("su2", parents=[fmt], help="numerical SU(2) probes")
    s.add_argument("action", choices=("verify-psi",))
    s.add_argument("--n", type=int, default=3)
    s.add_argument("--runs", type=int, default=1000)
    s.add_argument("--seed", type=int, default=42)
    return p


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as err:  # argparse printed help or a usage error
            code = 0 if err.code in (0, None) else 2
        else:
            args.fmt = args.format_late or args.format or "markdown"
            code = globals()["cmd_" + args.command](args)
        sys.stdout.flush()  # a reader that closed stdout shows here
        return code
    except BrokenPipeError:  # the reader stopped early (``| head``)
        sys.stdout = open(os.devnull, "w")  # so the final flush cannot raise
        return 0
    except (UnknownSpace, Unsupported, NotPrime, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ResourceGuard as err:
        print(f"resource guard: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
