"""Command-line front end: construct, verify, search, sweep.

Exit codes are scriptable: 0 success / all checks pass, 1 usage or parse
error or an output that cannot be written, 2 honest construction failure
(infeasible parameters, exhausted search, or a search that gave up at its
node budget) or an exact MDS check that gave up at its --budget (both say
so on stderr and prove nothing either way), 3 verification failure.  All
JSON output is deterministic for identical flags, including the --seed
driving randomized MDS sampling.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import chain
from pathlib import Path
from typing import Optional

from .construct import (
    FAMILY_TABLE,
    SEARCH_NODE_BUDGET,
    ConstructionRequest,
    build,
    result_to_json,
    search_square_difference_set,
)
from .errors import (
    BudgetExceededError,
    ConstructionInfeasible,
    GrsDualError,
    SearchGaveUpError,
)
from .gf import bounded_power, field_for_order, is_prime, split_prime_power
from .grs import code_from_json, stored_generator_from_json
from .verify import EXACT_MDS_BUDGET, RANDOM_MDS_SAMPLES, verify_code

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAIL = 3

_BUDGET_HELP = ("most column k-subsets an exact MDS check walks (auto "
                "samples above it); no ceiling, the work grows with it")
_SAMPLES_HELP = ("subsets a randomized MDS check draws if no Cauchy form "
                 "proves MDS; no ceiling, the work grows with it")


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _count(low: int):
    """argparse type: an int no smaller than low."""
    def count(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {text}")
        return int(text)
    return count


def _gave_up(exc: SearchGaveUpError) -> str:
    return (f"search gave up after {exc.budget} nodes without finding a set "
            "or ruling one out")


def json_text(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte.

    indent=2 makes the json module fall back to its pure-Python encoder,
    and code JSON is mostly lists of coordinate lists.  So a list of plain
    ints is written by one str.join, and a list of equally long such
    lists, a coordinate list, by one %-format.  Everything else, scalars,
    strings and keys included, goes through json.dumps, so escaping and
    number formatting stay its own.
    """
    parts: list[str] = []
    _json_parts(obj, "\n", parts)
    return "".join(parts)


def _json_parts(obj, newline: str, parts: list[str]) -> None:
    # newline is "\n" plus the indentation of the line obj starts on
    inner = newline + "  "
    if type(obj) is list and obj:
        kinds = set(map(type, obj))
        if kinds == {int}:
            parts.append("[" + inner + ("," + inner).join(map(str, obj))
                         + newline + "]")
            return
        if kinds == {list} and len(set(map(len, obj))) == 1:
            flat = tuple(chain.from_iterable(obj))
            if flat and set(map(type, flat)) == {int}:
                deeper = inner + "  "
                row = ("[" + deeper + ("," + deeper).join(["%s"] * len(obj[0]))
                       + inner + "]")
                parts.append("[" + inner + ("," + inner).join([row] * len(obj))
                             % flat + newline + "]")
                return
        sep = "[" + inner
        for x in obj:
            parts.append(sep)
            _json_parts(x, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    elif type(obj) is dict and obj and set(map(type, obj)) == {str}:
        sep = "{" + inner
        for key, value in obj.items():
            parts.append(sep + json.dumps(key) + ": ")
            _json_parts(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    else:
        # json.dumps escapes newlines inside strings, so every newline it
        # writes is layout and takes the current indentation
        parts.append(json.dumps(obj, indent=2).replace("\n", newline))


def _emit(payload: dict, output: Optional[str]) -> None:
    text = json_text(payload) + "\n"
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            raise GrsDualError(f"cannot write {output}: {exc}") from exc


def _resolve_q(args) -> Optional[int]:
    if args.p is not None or args.e is not None:
        if args.p is None:
            raise GrsDualError("--e given without --p")
        q = bounded_power(args.p, 1 if args.e is None else args.e)
        if not is_prime(args.p):
            raise GrsDualError(f"--p {args.p} is not prime")
        if args.q is not None and args.q != q:
            raise GrsDualError(f"--q {args.q} conflicts with --p/--e ({q})")
        return q
    return args.q


def _cmd_construct(args) -> int:
    request = ConstructionRequest(family=args.family, q=_resolve_q(args),
                                  r=args.r, t=args.t, n=args.n)
    _emit(result_to_json(build(request)), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        raw = (sys.stdin.read() if args.input == "-"
               else Path(args.input).read_text())
    except OSError as exc:
        raise GrsDualError(f"cannot read {args.input}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise GrsDualError(f"invalid JSON at line {exc.lineno}, column "
                           f"{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise GrsDualError("invalid JSON: nested too deeply") from exc
    try:
        code = code_from_json(obj)
        stored = stored_generator_from_json(obj, code)
    except (GrsDualError, ValueError) as exc:
        raise GrsDualError(f"not a valid code object: {exc}") from exc
    report = verify_code(code, mds_mode=args.mds_mode, budget=args.budget,
                         samples=args.samples, seed=args.seed,
                         dual_identity=args.dual_identity,
                         stored_generator=stored)
    _emit(report.to_json(), args.output)
    return EXIT_OK if report.overall else EXIT_VERIFY_FAIL


def _cmd_search(args) -> int:
    found = search_square_difference_set(args.q, args.n,
                                         node_budget=args.node_budget)
    ctx = field_for_order(args.q)
    payload = {
        "q": args.q,
        "n": args.n,
        "found": found is not None,
        "set": None if found is None else [ctx.coeffs(x) for x in found],
    }
    _emit(payload, args.output)
    return EXIT_OK if found is not None else EXIT_INFEASIBLE


# --- sweep -------------------------------------------------------------------

def _cell_label(request: ConstructionRequest) -> str:
    parts = []
    for name in ("q", "r", "t", "n"):
        value = getattr(request, name)
        if value is not None:
            parts.append(f"{name}{value}")
    return f"{request.family}_{'_'.join(parts)}"


def _cmd_sweep(args) -> int:
    if args.family == "all":
        families = FAMILY_TABLE.values()
    else:
        families = [FAMILY_TABLE[args.family]]
        # a grid flag the family does not read would be ignored, and the
        # square-set grid has default cells only when both axes are unset
        lone_axis = args.family == "square-set" and any((args.q, args.n))
        families[0].check_given(args, needed=lone_axis)
    # every --q and --r is a field order: one that is not could leave the
    # grid empty, a header-only table and exit 0
    for value in chain(args.q or (), args.r or ()):
        split_prime_power(value)
    rows = []
    all_ok = True
    for family in families:
        for request in family.sweep_requests(args):
            t0 = time.perf_counter()
            try:
                result = build(request)
                code = result.code
                report = verify_code(code, budget=args.budget,
                                     samples=args.samples, seed=args.seed)
                mode = next(c.mode for c in report.checks if c.name == "mds")
                ok = report.overall
                status = "pass" if ok else "FAIL"
                params = (f"[{code.block_length},{code.k}] over "
                          f"GF({code.ctx.q})")
            except SearchGaveUpError as exc:
                ok, status, mode, params, report, result = (
                    False, "gave-up", "-", _gave_up(exc), None, None)
            except ConstructionInfeasible as exc:
                ok, status, mode, params, report, result = (
                    False, "infeasible", "-", str(exc), None, None)
            elapsed = time.perf_counter() - t0
            all_ok = all_ok and ok
            rows.append((family.name, _cell_label(request), params, mode,
                         status, f"{elapsed:.3f}s"))
            if args.out_dir and result is not None:
                out = Path(args.out_dir)
                try:
                    out.mkdir(parents=True, exist_ok=True)
                except OSError as exc:
                    raise GrsDualError(f"cannot write {out}: {exc}") from exc
                payload = result_to_json(result)
                if report is not None:
                    payload["report"] = report.to_json()
                _emit(payload, str(out / f"{_cell_label(request)}.json"))
    _print_table(rows)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def _print_table(rows) -> None:
    header = ("family", "cell", "code", "mds", "status", "time")
    table = [header] + [tuple(str(x) for x in row) for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


# --- entry point ----------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="grsdual",
                     description="Construct and verify MDS self-dual codes "
                                 "built from generalized Reed-Solomon codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="build one code as JSON")
    p_con.add_argument("--family", required=True,
                       choices=[*FAMILY_TABLE, "auto"])
    p_con.add_argument("--p", type=int)
    p_con.add_argument("--e", type=_count(1))
    p_con.add_argument("--q", type=int)
    p_con.add_argument("--r", type=int)
    p_con.add_argument("--t", type=int)
    p_con.add_argument("--n", type=int)
    p_con.add_argument("--output", "-o")
    p_con.set_defaults(func=_cmd_construct)

    p_ver = sub.add_parser("verify", help="check a code JSON file")
    p_ver.add_argument("input", help="path to code JSON, or - for stdin")
    p_ver.add_argument("--mds-mode", default="auto",
                       choices=["auto", "exact", "randomized", "structural"])
    p_ver.add_argument("--budget", type=_count(0), default=EXACT_MDS_BUDGET,
                       help=_BUDGET_HELP)
    p_ver.add_argument("--samples", type=_count(1), default=RANDOM_MDS_SAMPLES,
                       help=_SAMPLES_HELP)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--dual-identity", action="store_true")
    p_ver.add_argument("--output", "-o")
    p_ver.set_defaults(func=_cmd_verify)

    p_sea = sub.add_parser("search",
                           help="search for a square-difference point set")
    p_sea.add_argument("--q", type=int, required=True)
    p_sea.add_argument("--n", type=int, required=True)
    p_sea.add_argument("--node-budget", type=_count(0),
                       default=SEARCH_NODE_BUDGET,
                       help="most nodes before the search gives up (exit "
                            "2); no ceiling, the work grows with it")
    p_sea.add_argument("--output", "-o")
    p_sea.set_defaults(func=_cmd_search)

    p_swp = sub.add_parser("sweep",
                           help="construct and verify a parameter grid")
    p_swp.add_argument("--family", default="all",
                       choices=[*FAMILY_TABLE, "all"])
    p_swp.add_argument("--q", type=int, nargs="*")
    p_swp.add_argument("--r", type=int, nargs="*")
    p_swp.add_argument("--t", type=int, nargs="*")
    p_swp.add_argument("--n", type=int, nargs="*")
    p_swp.add_argument("--budget", type=_count(0), default=EXACT_MDS_BUDGET,
                       help=_BUDGET_HELP)
    p_swp.add_argument("--samples", type=_count(1), default=RANDOM_MDS_SAMPLES,
                       help=_SAMPLES_HELP)
    p_swp.add_argument("--seed", type=int, default=0)
    p_swp.add_argument("--out-dir")
    p_swp.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; every failure it raises ends here as an exit code
    and one line on stderr."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SearchGaveUpError as exc:
        message, code = _gave_up(exc), EXIT_INFEASIBLE
    except BudgetExceededError as exc:
        message, code = (f"exact MDS check gave up: {exc}; it proved nothing "
                         "either way"), EXIT_INFEASIBLE
    except ConstructionInfeasible as exc:
        stage = "search" if args.command == "search" else "construction"
        message, code = f"{stage} infeasible: {exc}", EXIT_INFEASIBLE
    except (GrsDualError, ValueError) as exc:
        message, code = f"error: {exc}", EXIT_USAGE
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
