"""Command-line front end.

Commands: wlp, hf, coker, nll, bx, verify-paper. Every command is
deterministic given (seed, prime, params): identical invocations produce
byte-identical serialized output.

Exit codes: 0 computed (and, for verify-paper, all checks passed); 1 usage
error; 2 check failure; 3 internal guard (dimension cap, prime too small).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .field import (
    DEFAULT_PRIME,
    NotPrimeError,
    PrimeField,
    PrimeTooSmallError,
    RationalField,
    SeedStream,
)
from .formulas import coker_formula_geproci
from .geometry import InvalidLocusError, make_grid
from .ideals import PowersHilbertTable
from .lefschetz import best_maps, bx_sequence, non_lefschetz_probe, wlp_test
from .linalg import DimensionCapError
from .verify import run_suite

DEFAULT_SEED = 0xC0FFEE

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_GUARD = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _common_flags(sp, formats=("table", "json", "csv"), trials=True, params=True):
    """The flags shared by the commands; a command that does not read
    --trials or --params, or prints fewer formats, is not given them."""
    sp.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    sp.add_argument("--rational", action="store_true", help="exact rational mode")
    if trials:
        sp.add_argument("--trials", type=int, default=3)
    sp.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    if params:
        sp.add_argument("--params", type=str, default=None,
                        help='explicit grid parameters, e.g. "u=1,2,3;v=1,2,3,4"')
    sp.add_argument("--format", choices=formats, default="table")
    sp.add_argument("--out", type=str, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="gridwlp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("wlp", help="Weak Lefschetz verdict for one grid and power")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    _common_flags(sp)

    sp = sub.add_parser("hf", help="Hilbert table of the quotient algebra")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--tmax", type=int, default=None)
    _common_flags(sp, trials=False)

    sp = sub.add_parser("coker", help="measured vs predicted cokernel at one degree")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    _common_flags(sp)

    sp = sub.add_parser("nll", help="non-Lefschetz locus probe")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--locus", type=str, required=True,
                    help='generic | plane:i,j | ruling:lambda,i | ruling:mu,j | chord:i,j;k,l (1-based)')
    _common_flags(sp, formats=("table", "json"))

    sp = sub.add_parser("bx", help="WLP bit sequence b_1..b_dmax")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--dmax", type=int, required=True)
    _common_flags(sp)

    sp = sub.add_parser("verify-paper", help="run the full verification suite")
    sp.add_argument("--a-max", type=int, default=5, dest="a_max")
    _common_flags(sp, formats=("table", "json"), params=False)

    return parser


def _field_for(args):
    if args.rational:
        return RationalField()
    return PrimeField(args.prime)


def _parse_params(spec: str):
    u = v = None
    for part in spec.split(";"):
        part = part.strip()
        if part.startswith("u="):
            u = [int(x) for x in part[2:].split(",")]
        elif part.startswith("v="):
            v = [int(x) for x in part[2:].split(",")]
        else:
            raise ValueError(f"bad --params fragment {part!r}")
    if u is None or v is None:
        raise ValueError("--params must give both u= and v=")
    return u, v


def _make_grid(args):
    field = _field_for(args)
    if args.params:
        u, v = _parse_params(args.params)
        return make_grid(args.a, args.b, field, u=u, v=v)
    return make_grid(args.a, args.b, field, seed=SeedStream(args.seed))


def _parse_locus(text: str):
    text = text.strip()
    if text == "generic":
        return "generic"
    kind, _, rest = text.partition(":")
    try:
        if kind == "plane":
            i, j = (int(x) for x in rest.split(","))
            return ("plane", i - 1, j - 1)
        if kind == "ruling":
            which, idx = rest.split(",")
            return ("ruling", which.strip(), int(idx) - 1)
        if kind == "chord":
            first, second = rest.split(";")
            i, j = (int(x) for x in first.split(","))
            k, l = (int(x) for x in second.split(","))
            return ("chord", (i - 1, j - 1), (k - 1, l - 1))
    except ValueError:
        pass  # a wrong count or a non-integer index
    raise InvalidLocusError(f"cannot parse locus {text!r}")


def _check_out(path: str):
    """Refuse an --out path that cannot be written before the command runs,
    with the error line _emit would give after it; nothing is created."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write --out {path}: {os.strerror(code)}")


def _emit(text: str, args):
    text = text if text.endswith("\n") else text + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        # a usage error, reported by main like any other
        raise ValueError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc


def cmd_wlp(args) -> int:
    grid = _make_grid(args)
    rep = wlp_test(PowersHilbertTable(grid, args.d), trials=args.trials, seed=SeedStream(args.seed))
    if args.format == "json":
        _emit(rep.to_json(), args)
    elif args.format == "csv":
        lines = ["t,dimFrom,dimTo,rank,ker,coker,maximal"]
        for r in rep.degrees:
            d = r.as_dict()
            lines.append(
                f"{d['t']},{d['dimFrom']},{d['dimTo']},{d['rank']},{d['ker']},{d['coker']},{int(d['maximal'])}"
            )
        lines.append(f"# verdict,{int(rep.verdict)}")
        _emit("\n".join(lines), args)
    else:
        lines = [f"grid {grid.a}x{grid.b}, power d={args.d}"]
        for r in rep.degrees:
            lines.append(
                f"  t={r.t:2d}  {r.dim_from:5d} -> {r.dim_to:5d}  rank {r.rank:5d}"
                f"  ker {r.kernel_dim:4d}  coker {r.coker_dim:4d}"
                f"  {'max' if r.maximal else 'NOT MAXIMAL'}"
            )
        lines.append(f"verdict: {'WLP holds' if rep.verdict else 'WLP fails'}"
                     + (f" (failing degrees {rep.failing})" if rep.failing else ""))
        _emit("\n".join(lines), args)
    return EXIT_OK


def cmd_hf(args) -> int:
    grid = _make_grid(args)
    table = PowersHilbertTable(grid, args.d)
    # by default up to 4(d - 1), the socle degree of (x_1^d, ..., x_4^d)
    tmax = 4 * (args.d - 1) if args.tmax is None else args.tmax
    rows = []  # (t, a_t, a_t - a_(t-1)), ending at the first zero past d
    prev = 0
    for t in range(0, tmax + 1):
        dim = table.quotient_dim(t)
        rows.append((t, dim, dim - prev))
        prev = dim
        if dim == 0 and t > args.d:
            break
    if args.format == "json":
        payload = [{"t": t, "dim": h, "delta": dh} for t, h, dh in rows]
        _emit(json.dumps({"kind": "quotient", "rows": payload}), args)
    elif args.format == "csv":
        _emit("\n".join(["t,dim,delta"] + [f"{t},{h},{dh}" for t, h, dh in rows]), args)
    else:
        lines = [f"h of the quotient, grid {grid.a}x{grid.b}, d={args.d}"]
        for t, h, dh in rows:
            lines.append(f"  t={t:2d}  dim {h:5d}  delta {dh:5d}")
        _emit("\n".join(lines), args)
    return EXIT_OK


def cmd_coker(args) -> int:
    grid = _make_grid(args)
    table = PowersHilbertTable(grid, args.d)
    stream = SeedStream(args.seed).child("form")
    # at a fixed t the highest rank is the lowest cokernel
    (best,) = best_maps(table, "generic", stream, args.trials, [args.t])
    pred = coker_formula_geproci(grid.a, grid.b, args.d, args.t - args.d)
    payload = {
        "t": args.t,
        "measured_coker": best.coker_dim,
        "predicted_coker": pred,
        "formula_applicable": pred is not None,
        "agree": (pred == best.coker_dim) if pred is not None else None,
    }
    if args.format == "json":
        _emit(json.dumps(payload), args)
    elif args.format == "csv":
        _emit(
            "t,measured,predicted,applicable\n"
            f"{args.t},{best.coker_dim},{'' if pred is None else pred},{int(pred is not None)}",
            args,
        )
    else:
        lines = [
            f"map into degree t={args.t}: measured coker {best.coker_dim}",
            f"formula: {'not applicable' if pred is None else pred}",
        ]
        _emit("\n".join(lines), args)
    return EXIT_OK


def cmd_nll(args) -> int:
    grid = _make_grid(args)
    locus = _parse_locus(args.locus)
    table = PowersHilbertTable(grid, args.d)
    rep = non_lefschetz_probe(table, locus, trials=args.trials, seed=SeedStream(args.seed))
    if args.format == "json":
        _emit(rep.to_json(), args)
    else:
        lines = [f"probe of locus {args.locus} for d={args.d}"]
        for e in rep.entries:
            lines.append(
                f"  t={e.t:2d}  generic rank {e.generic.rank:5d}"
                f"  specialized rank {e.specialized.rank:5d}"
                f"  ker {e.specialized.kernel_dim:3d} coker {e.specialized.coker_dim:3d}"
                f"  {'pass' if e.achieves_generic else 'FAIL'}"
            )
        lines.append(f"member of non-Lefschetz locus: {'yes' if rep.member_of_locus else 'no'}")
        _emit("\n".join(lines), args)
    return EXIT_OK


def cmd_bx(args) -> int:
    grid = _make_grid(args)
    seq = bx_sequence(grid, args.dmax, trials=args.trials, seed=SeedStream(args.seed))
    if args.format == "json":
        _emit(seq.to_json(), args)
    elif args.format == "csv":
        lines = ["d,bit,conjectural"] + [
            f"{d},{seq.bits[d-1]},{int(d in seq.conjectural)}" for d in range(1, args.dmax + 1)
        ]
        _emit("\n".join(lines), args)
    else:
        lines = [f"B_X for the {grid.a}x{grid.b} grid: {seq.bitstring()}"]
        if seq.conjectural:
            lines.append(
                f"  d >= {min(seq.conjectural)}: conjectural region"
                " (computed verdicts, no theorem)"
            )
        _emit("\n".join(lines), args)
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    # guard, in both modes: --rational compares F_p with Q. Explicit-parameter
    # grids up to 6 need distinct residues with headroom, and random
    # specializations need a large field
    bound = 2 * 6**4
    if args.prime <= bound:
        sys.stderr.write(f"error: prime too small for the verification suite (needs > {bound})\n")
        return EXIT_GUARD

    # in JSON mode stdout carries the JSON object alone
    log = sys.stderr if args.format == "json" else sys.stdout

    def progress(res):
        print(res.line(), file=log, flush=True)
        if not res.passed:
            for detail in res.details:
                if "MISMATCH" in detail or "FAILED" in detail:
                    print(f"      {detail}", file=log, flush=True)

    results = run_suite(
        prime=args.prime,
        seed=args.seed,
        trials=args.trials,
        a_max=args.a_max,
        rational=args.rational,
        progress=progress,
    )
    total = sum(r.seconds for r in results)
    passed = all(r.passed for r in results)
    summary = f"{'ALL CHECKS PASS' if passed else 'SOME CHECKS FAILED'} (total {total:.1f}s)"
    print(summary, file=log, flush=True)
    if args.format == "json" or args.out:
        payload = json.dumps(
            {
                "checks": [
                    {
                        "index": r.index,
                        "name": r.name,
                        "passed": r.passed,
                        "seconds": round(r.seconds, 2),
                        "details": r.details,
                    }
                    for r in results
                ],
                "passed": passed,
            }
        )
        _emit(payload, args)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


_COMMANDS = {
    "wlp": cmd_wlp,
    "hf": cmd_hf,
    "coker": cmd_coker,
    "nll": cmd_nll,
    "bx": cmd_bx,
    "verify-paper": cmd_verify_paper,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        return _COMMANDS[args.command](args)
    except (DimensionCapError, PrimeTooSmallError, NotPrimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_GUARD
    except (InvalidLocusError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
