"""Command-line front end emitting homology tables and verification reports
as markdown or JSON.

Subcommands: rfh-w0, rfh-full, gysin, transfer, orderability, cp2-demo,
selftest; each accepts only the flags it reads (COMMAND_FLAGS).  Exit codes:
0 ok, 1 verification failure, 2 usage error, reported as one `error:` line
on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional

from . import selftest as selftest_mod
from .basemodel import BaseModel, cp_model, model_from_spec
from .chaincplx import verify_exactness
from .errors import EngineError
from .rfh import (GroupValue, action, boundary_full, enumerate_generators,
                  full_rfh, gysin, orderability_report, parse_coeff, rfh_index,
                  rfh_w0_table, transfer_failures, winding)


# ---------------------------------------------------------------------------
# Arguments
# ---------------------------------------------------------------------------

def _model(spec: str) -> BaseModel:
    try:
        return model_from_spec(spec)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError, EngineError) as exc:
        raise argparse.ArgumentTypeError(f"bad model {spec!r}: {exc}") from exc


def _bundle_degree(text: str) -> int:
    try:
        m = int(text)
    except ValueError:
        m = 0
    if m < 1:
        raise argparse.ArgumentTypeError(f"m must be an integer >= 1, got {text!r}")
    return m


def _radius(text: str) -> Fraction:
    try:
        tau = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        tau = Fraction(0)
    if tau <= 0:
        raise argparse.ArgumentTypeError(f"tau must be a positive rational, got {text!r}")
    return tau


def _range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(x) for x in text.split(".."))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo..hi, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _window(text: str) -> tuple[Fraction, Fraction]:
    try:
        a, b = (Fraction(x) for x in text.split(".."))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a..b, got {text!r}") from None
    return a, b


def _coeff(text: str) -> str:
    try:
        parse_coeff(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text.lower()


FLAGS = {
    "--model": dict(type=_model, default="cp:2",
                    help="cp:<n> | surface:<g> | point | file:<path>"),
    "--m": dict(type=_bundle_degree, default=1, help="bundle degree m >= 1"),
    "--tau": dict(type=_radius, default="1", help="radius as p/q or integer"),
    "--degrees": dict(type=_range, default="-8..8", help="lo..hi"),
    "--window": dict(type=_window, default=None, help="action window a..b"),
    "--coeff": dict(type=_coeff, default="z", help="z | fp:<prime>"),
    "--format": dict(dest="fmt", default="md", choices=("md", "json")),
}

COMMAND_FLAGS = {
    "rfh-w0": ("--model", "--m", "--degrees", "--format"),
    "rfh-full": ("--model", "--m", "--tau", "--degrees", "--coeff", "--format"),
    "gysin": ("--model", "--m", "--degrees", "--format"),
    "transfer": ("--model", "--m", "--degrees", "--format"),
    "orderability": ("--model", "--m", "--format"),
    "cp2-demo": ("--m", "--tau", "--window", "--format"),
    "selftest": ("--format",),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _preprocess(argv: list[str]) -> list[str]:
    """Glue option values that begin with a minus sign (like ``-6..6``)
    onto their flag so argparse does not mistake them for options."""
    out: list[str] = []
    it = iter(argv)
    value_flags = {"--degrees", "--window", "--tau", "--m"}
    for tok in it:
        if tok in value_flags:
            try:
                nxt = next(it)
            except StopIteration:
                out.append(tok)
                break
            out.append(f"{tok}={nxt}")
        else:
            out.append(tok)
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process on first use;
    `main` reuses it, since parsing leaves no state on it."""
    parser = _Parser(
        prog="rfh",
        description="Exact Rabinowitz Floer homology of negative line bundles")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in COMMAND_FLAGS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _md_table(headers: list[str], rows: list[list[str]]) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    out.extend("| " + " | ".join(str(c) for c in row) + " |" for row in rows)
    return "\n".join(out)


def emit(payload: dict, fmt: str, md_text: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(md_text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_rfh_w0(args: argparse.Namespace) -> int:
    model = args.model
    lo, hi = args.degrees
    # RFH^w0 does not depend on the radius, so the command takes no --tau
    table = rfh_w0_table(model, args.m, Fraction(1), args.degrees)
    payload = {
        "command": "rfh-w0", "model": model.name, "m": args.m,
        "degrees": [lo, hi],
        "table": [{"degree": d, "group": GroupValue.of(table[d]).to_json()}
                  for d in range(lo, hi + 1)],
    }
    rows = [[d, str(table[d])] for d in range(lo, hi + 1)]
    md = (f"RFH^w0({model.name}, m={args.m}) on degrees {lo}..{hi}\n\n"
          + _md_table(["degree", "group"], rows))
    emit(payload, args.fmt, md)
    return 0


def cmd_rfh_full(args: argparse.Namespace) -> int:
    model = args.model
    lo, hi = args.degrees
    result = full_rfh(model, args.m, args.tau, args.degrees, args.coeff)
    payload = {"command": "rfh-full", **result.to_json(),
               "degrees": [lo, hi]}
    rows = [[d, result.table[d].render(result.coeff)]
            for d in range(lo, hi + 1)]
    md = (f"RFH({model.name}, m={args.m}, tau={args.tau}, coeff={result.coeff}) "
          f"regime={result.regime.value}\n\n"
          + _md_table(["degree", "group"], rows))
    emit(payload, args.fmt, md)
    return 0


def cmd_gysin(args: argparse.Namespace) -> int:
    model = args.model
    les = gysin(model, args.m, args.degrees)
    report = verify_exactness(les)
    payload = {
        "command": "gysin", "model": model.name, "m": args.m,
        "degrees": list(args.degrees),
        "nodes": [{"label": n.label,
                   "group": GroupValue.of(n.presentation).to_json()}
                  for n in les.nodes],
        "exact": bool(report.ok),
        "failures": report.failures(),
    }
    rows = [[n.label, str(n.presentation),
             ("ok" if (n.label, True) in report.nodes else
              ("FAIL" if (n.label, False) in report.nodes else "-"))]
            for n in les.nodes]
    md = (f"Floer Gysin sequence for {model.name}, m={args.m}: "
          f"{'all interior nodes exact' if report.ok else 'EXACTNESS FAILURE'}\n\n"
          + _md_table(["node", "group", "exact"], rows))
    emit(payload, args.fmt, md)
    return 0 if report.ok else 1


def cmd_transfer(args: argparse.Namespace) -> int:
    model = args.model
    ok = not transfer_failures(model, args.m, args.degrees)
    payload = {"command": "transfer", "model": model.name, "m": args.m,
               "degrees": list(args.degrees),
               "identity": f"P.T = T.P = {args.m}.id", "pass": ok}
    md = f"transfer/projection on {model.name}: P.T = T.P = {args.m}.id: " + \
        ("PASS" if ok else "FAIL")
    emit(payload, args.fmt, md)
    return 0 if ok else 1


def cmd_orderability(args: argparse.Namespace) -> int:
    model = args.model
    rep = orderability_report(model, args.m)
    payload = {"command": "orderability", "model": model.name, "m": args.m, **rep}
    verdict = rep["orderable"]
    md = (f"{model.name}, m={args.m}: RFH^w0 "
          + ("nonzero" if rep["rfh_w0_nonzero"] else "= 0")
          + f"; orderability: {verdict}; translated points: {rep['translated_points']}")
    emit(payload, args.fmt, md)
    return 0


def cmd_cp2_demo(args: argparse.Namespace) -> int:
    model = cp_model(2)
    m = args.m
    k_bound = 2
    gens = enumerate_generators(model, m, args.tau, k_bound=k_bound, l_bound=3,
                                window=args.window)
    gen_rows = []
    bdy_rows = []
    for g in gens:
        gen_rows.append([str(g), rfh_index(g, model, m), winding(g, model, m),
                         str(action(g, model, m, args.tau))])
        if not g.hat:
            terms = boundary_full(g, model, m)
            text = " + ".join(f"{c}*{t}" if c != 1 else str(t)
                              for t, c in sorted(terms.items(), key=lambda x: str(x[0])))
            bdy_rows.append([str(g), text if text else "0"])
    payload = {
        "command": "cp2-demo", "m": m, "tau": str(args.tau),
        "generators": [{"generator": r[0], "index": r[1], "winding": r[2],
                        "action": r[3]} for r in gen_rows],
        "boundary": [{"generator": r[0], "image": r[1]} for r in bdy_rows],
    }
    md = (f"generators of the full complex for cp:2, m={m}, tau={args.tau} "
          f"(|k| <= {k_bound}, |l| <= 3)\n\n"
          + _md_table(["generator", "index", "winding", "action"], gen_rows)
          + "\n\nboundary images of the minima\n\n"
          + _md_table(["generator", "d(generator)"], bdy_rows))
    emit(payload, args.fmt, md)
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    results = selftest_mod.run_all()
    ok = all(r["pass"] for r in results)
    payload = {"command": "selftest", "criteria": results, "pass": ok}
    lines = [f"criterion {r['id']:>2} [{'PASS' if r['pass'] else 'FAIL'}] "
             f"{r['name']}" + ("" if r["pass"] else f" -- {r['detail']}")
             for r in results]
    md = "\n".join(lines) + ("\n\nall criteria passed" if ok
                             else "\n\nFAILURES present")
    emit(payload, args.fmt, md)
    return 0 if ok else 1


COMMANDS = {
    "rfh-w0": cmd_rfh_w0,
    "rfh-full": cmd_rfh_full,
    "gysin": cmd_gysin,
    "transfer": cmd_transfer,
    "orderability": cmd_orderability,
    "cp2-demo": cmd_cp2_demo,
    "selftest": cmd_selftest,
}


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser = build_parser()
        args = parser.parse_args(_preprocess(list(argv)))
        # argparse drops a value that is exactly "--" and leaves [] unconverted
        if any(isinstance(v, list) for v in vars(args).values()):
            parser.error("an option value may not be '--'")
        return COMMANDS[args.command](args)
    except SystemExit as exc:
        return 2 if exc.code else 0
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
