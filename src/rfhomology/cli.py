"""Command-line front end emitting homology tables and verification reports
as markdown or JSON.

    rfh <command> [--flag value | --flag=value] ...

Subcommands: rfh-w0, rfh-full, gysin, transfer, orderability, cp2-demo,
selftest; each accepts only the flags it reads (COMMAND_FLAGS), and FLAGS
gives each flag its converter, default and help.  A flag is spelled in full
or as a unique prefix of one of the subcommand's flags (`--m` is exact,
`--mo` is `--model`).  Its value is the token after it, even one beginning
with `-`, or the text after `=`.  A repeated flag keeps its last value, but
every value given is converted.  `-h`/`--help`, alone or after a
subcommand, prints the usage on stdout and exits 0.  The line is read left
to right, and its first fault is the usage error.  Exit codes: 0 ok,
1 verification failure, 2 usage error, reported as one `error:` line on
stderr.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

from .basemodel import BaseModel, cp_model, model_from_spec, rational
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
        raise ValueError(f"bad model {spec!r}: {exc}") from exc


def _bundle_degree(text: str) -> int:
    try:
        m = int(text)
    except ValueError:
        m = 0
    if m < 1:
        raise ValueError(f"m must be an integer >= 1, got {text!r}")
    return m


def _radius(text: str) -> Fraction:
    try:
        tau = rational(text.strip())
    except (ValueError, ZeroDivisionError):
        tau = Fraction(0)
    if tau <= 0:
        raise ValueError(f"tau must be a positive rational, got {text!r}")
    return tau


def _range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(x) for x in text.split(".."))
    except ValueError:
        raise ValueError(f"expected lo..hi, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _window(text: str) -> tuple[Fraction, Fraction]:
    try:
        a, b = (rational(x) for x in text.split(".."))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"expected a..b, got {text!r}") from None
    return a, b


def _coeff(text: str) -> str:
    parse_coeff(text)
    return text.lower()


def _format(text: str) -> str:
    if text not in ("md", "json"):
        raise ValueError(f"invalid choice: {text!r} (choose from 'md', 'json')")
    return text


# flag: (converter, default before conversion, help)
FLAGS = {
    "--model": (_model, "cp:2", "cp:<n> | surface:<g> | point | file:<path>"),
    "--m": (_bundle_degree, "1", "bundle degree m >= 1"),
    "--tau": (_radius, "1", "radius as p/q or integer"),
    "--degrees": (_range, "-8..8", "lo..hi"),
    "--window": (_window, None, "action window a..b"),
    "--coeff": (_coeff, "z", "z | fp:<prime>"),
    "--format": (_format, "md", "md | json"),
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


class _UsageError(Exception):
    """A malformed command line; `main` prints it as one `error:` line."""


def _usage(command: Optional[str]) -> str:
    """The help of `command`, or of `rfh` itself when it is None."""
    if command is None:
        return "\n".join(
            ["usage: rfh <command> [--flag value ...]", "",
             "Exact Rabinowitz Floer homology of negative line bundles", "",
             "commands and their flags (rfh <command> -h explains them):"]
            + [f"  {name:<13} {' '.join(flags)}" for name, flags in COMMAND_FLAGS.items()])
    lines = [f"usage: rfh {command} [--flag value ...]", ""]
    for flag in COMMAND_FLAGS[command]:
        _, default, text = FLAGS[flag]
        lines.append(f"  {flag:<10} {text}" + (f" (default {default})" if default else ""))
    return "\n".join(lines)


def _flag(token: str, names: tuple[str, ...]) -> Optional[str]:
    """The name in `names` that `token` spells in full or as a unique
    prefix (`-h` spells `--help`); None when it spells none."""
    if token in names:
        return token
    if token == "-h":
        return "--help"
    if len(token) <= 2 or not token.startswith("--"):
        return None
    matches = [name for name in names if name.startswith(token)]
    return matches[0] if len(matches) == 1 else None


def _convert(flag: str, text: str):
    try:
        return FLAGS[flag][0](text)
    except ValueError as exc:
        raise _UsageError(f"argument {flag}: {exc}") from None


def _parse(argv: list[str]) -> tuple[Optional[str], Optional[SimpleNamespace]]:
    """The command and its converted flags (`--format` as `format`), or the
    command (None at the top level) and None when the line asks for help."""
    command = argv[0] if argv else None
    if command not in COMMAND_FLAGS:
        if command and _flag(command, ("--help",)):
            return None, None
        raise _UsageError(f"expected a command ({', '.join(COMMAND_FLAGS)})"
                          + (f", got {command!r}" if command else ""))
    names = COMMAND_FLAGS[command] + ("--help",)
    given: dict = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        flag = _flag(name, names)
        if flag is None or (flag == "--help" and eq):
            raise _UsageError(f"unrecognized argument {token!r}")
        if flag == "--help":
            return command, None
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise _UsageError(f"argument {flag}: expected one argument")
        given[flag] = _convert(flag, value)
    for flag in COMMAND_FLAGS[command]:
        if flag not in given:
            default = FLAGS[flag][1]
            given[flag] = None if default is None else _convert(flag, default)
    return command, SimpleNamespace(**{flag[2:]: v for flag, v in given.items()})


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _md_table(headers: list[str], rows: list[list[str]]) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    out.extend("| " + " | ".join(str(c) for c in row) + " |" for row in rows)
    return "\n".join(out)


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


# ---------------------------------------------------------------------------
# Commands: each renders only the format it prints
# ---------------------------------------------------------------------------

def cmd_rfh_w0(args: SimpleNamespace) -> int:
    model = args.model
    lo, hi = args.degrees
    # RFH^w0 does not depend on the radius, so the command takes no --tau
    table = rfh_w0_table(model, args.m, Fraction(1), args.degrees)
    if args.format == "json":
        _print_json({
            "command": "rfh-w0", "model": model.name, "m": args.m,
            "degrees": [lo, hi],
            "table": [{"degree": d, "group": GroupValue.of(table[d]).to_json()}
                      for d in range(lo, hi + 1)],
        })
    else:
        rows = [[d, str(table[d])] for d in range(lo, hi + 1)]
        print(f"RFH^w0({model.name}, m={args.m}) on degrees {lo}..{hi}\n\n"
              + _md_table(["degree", "group"], rows))
    return 0


def cmd_rfh_full(args: SimpleNamespace) -> int:
    model = args.model
    lo, hi = args.degrees
    result = full_rfh(model, args.m, args.tau, args.degrees, args.coeff)
    if args.format == "json":
        _print_json({"command": "rfh-full", **result.to_json(),
                     "degrees": [lo, hi]})
    else:
        rows = [[d, result.table[d].render(result.coeff)]
                for d in range(lo, hi + 1)]
        print(f"RFH({model.name}, m={args.m}, tau={args.tau}, coeff={result.coeff}) "
              f"regime={result.regime.value}\n\n"
              + _md_table(["degree", "group"], rows))
    return 0


def cmd_gysin(args: SimpleNamespace) -> int:
    model = args.model
    les = gysin(model, args.m, args.degrees)
    report = verify_exactness(les)
    if args.format == "json":
        _print_json({
            "command": "gysin", "model": model.name, "m": args.m,
            "degrees": list(args.degrees),
            "nodes": [{"label": n.label,
                       "group": GroupValue.of(n.presentation).to_json()}
                      for n in les.nodes],
            "exact": bool(report.ok),
            "failures": report.failures(),
        })
    else:
        rows = [[n.label, str(n.presentation),
                 ("ok" if (n.label, True) in report.nodes else
                  ("FAIL" if (n.label, False) in report.nodes else "-"))]
                for n in les.nodes]
        print(f"Floer Gysin sequence for {model.name}, m={args.m}: "
              f"{'all interior nodes exact' if report.ok else 'EXACTNESS FAILURE'}\n\n"
              + _md_table(["node", "group", "exact"], rows))
    return 0 if report.ok else 1


def cmd_transfer(args: SimpleNamespace) -> int:
    model = args.model
    ok = not transfer_failures(model, args.m, args.degrees)
    if args.format == "json":
        _print_json({"command": "transfer", "model": model.name, "m": args.m,
                     "degrees": list(args.degrees),
                     "identity": f"P.T = T.P = {args.m}.id", "pass": ok})
    else:
        print(f"transfer/projection on {model.name}: P.T = T.P = {args.m}.id: "
              + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_orderability(args: SimpleNamespace) -> int:
    model = args.model
    rep = orderability_report(model, args.m)
    if args.format == "json":
        _print_json({"command": "orderability", "model": model.name, "m": args.m, **rep})
    else:
        print(f"{model.name}, m={args.m}: RFH^w0 "
              + ("nonzero" if rep["rfh_w0_nonzero"] else "= 0")
              + f"; orderability: {rep['orderable']}; "
              f"translated points: {rep['translated_points']}")
    return 0


def cmd_cp2_demo(args: SimpleNamespace) -> int:
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
    if args.format == "json":
        _print_json({
            "command": "cp2-demo", "m": m, "tau": str(args.tau),
            "generators": [{"generator": r[0], "index": r[1], "winding": r[2],
                            "action": r[3]} for r in gen_rows],
            "boundary": [{"generator": r[0], "image": r[1]} for r in bdy_rows],
        })
    else:
        print(f"generators of the full complex for cp:2, m={m}, tau={args.tau} "
              f"(|k| <= {k_bound}, |l| <= 3)\n\n"
              + _md_table(["generator", "index", "winding", "action"], gen_rows)
              + "\n\nboundary images of the minima\n\n"
              + _md_table(["generator", "d(generator)"], bdy_rows))
    return 0


def cmd_selftest(args: SimpleNamespace) -> int:
    # imported here, so that no other command pays for the criteria and oracles
    from . import selftest

    results = selftest.run_all()
    ok = all(r["pass"] for r in results)
    if args.format == "json":
        _print_json({"command": "selftest", "criteria": results, "pass": ok})
    else:
        lines = [f"criterion {r['id']:>2} [{'PASS' if r['pass'] else 'FAIL'}] "
                 f"{r['name']}" + ("" if r["pass"] else f" -- {r['detail']}")
                 for r in results]
        print("\n".join(lines) + ("\n\nall criteria passed" if ok
                                  else "\n\nFAILURES present"))
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
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(_usage(command))
            return 0
        return COMMANDS[command](args)
    except (_UsageError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
