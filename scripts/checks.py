#!/usr/bin/env python3
"""Every check that CI runs, as rows of one table run one at a time from
the root of the repository; each prints its name, time and verdict.  It
takes no options, and exits 1 when a row fails: python3 scripts/checks.py
- A command row runs its commands with PYTHONPATH=src, each in a child
  process under the row's bound in seconds (None: none).  Each must exit
  with its status (None: any), and its check must accept its stdout.
- A mutant row copies src/ to a temp directory and replaces `old`, which
  must occur exactly once, by `new` in one file.  It is killed when every
  tier-1 test and selftest criterion it names fails on the copy (a raising
  criterion fails).  A row marked `survives` must survive, and every other
  row must be killed."""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from collections import namedtuple
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Cmd = namedtuple("Cmd", "argv code check", defaults=(0, None))
Row = namedtuple("Row", "name bound cmds")
Mutant = namedtuple("Mutant", "name file old new kills survives", defaults=(False,))


def rfh(line, code=0, check=None):
    return Cmd(["-m", "rfhomology.cli", *line.split()], code, check)


def in_child(name):
    return Cmd(["-c", f"import checks; checks.{name}()"])


def cells(out):
    return {row["degree"]: row["group"] for row in json.loads(out)["table"]}


def junit_failing(path):
    """The ids of the failing test cases in a junit file; None when it has none."""
    cases = list(ET.parse(path).getroot().iter("testcase"))
    return {case.get("classname").replace(".", "/") + ".py::" + case.get("name") for case in cases
            if {child.tag for child in case} & {"failure", "error"}} if cases else None


def periodic(period, nonzero=None):
    """Cells in degrees -400..400, each equal to the cell `period` degrees
    up, `nonzero` of them nonzero (None: any number)."""
    def check(out, tmp):
        cell = cells(out)
        return (sorted(cell) == list(range(-400, 401))
                and nonzero in (None, sum(group != "0" for group in cell.values()))
                and all(cell[d] == cell[d + period] for d in cell if d + period in cell))
    return check


def gysin_periodic(out, tmp):
    """An exact sequence of 3 * 801 nodes, each equal to the node 8 degrees up."""
    result, node = json.loads(out), {}
    for row in result["nodes"]:     # FH_d is a node at d and at d + 2, with one group
        name, degree = row["label"].rsplit("_", 1)
        if node.setdefault((name, int(degree)), row["group"]) != row["group"]:
            return False
    return (result["exact"] is True and len(result["nodes"]) == 3 * 801
            and all(node[n, d] == node[n, d + 8] for n, d in node if (n, d + 8) in node))


# -- each runs in a child process of its own, through `in_child` -----------

def injectivity():
    """delta_injectivity builds no truncation, so its cost does not depend
    on k_range; each run must report every degree of -6..6 injective."""
    from fractions import Fraction
    from rfhomology.basemodel import cp_model, point_model, surface_model
    from rfhomology.rfh import delta_injectivity
    for model, m, tau, k_range in ((cp_model(2), 2, 2, 1024), (cp_model(3), 3, 3, 1024),
                                   (surface_model(2), 2, 1, 256), (point_model(), 2, 1, 256),
                                   (cp_model(2), 2, 2, 10**6)):
        rep = delta_injectivity(model, m, Fraction(tau), k_range, (-6, 6))
        assert rep["all"] is True, (model.name, m, tau, k_range, rep)


def generators():
    """Every generator of cp:3 with |k| <= 30, |l| <= 150 at m = 2, tau = 1, each one
    and each boundary term an RFHGenerator (a plain tuple would compare equal), with
    d.d = 0 on each; the N-term primitives of a hat, N <= 10, leave one residual +-2^N."""
    from rfhomology.basemodel import cp_model
    from rfhomology.rfh import (RFHGenerator, boundary_full, boundary_full_chain,
                                enumerate_generators, primitive_partial_sum)
    model = cp_model(3)
    gens = enumerate_generators(model, 2, 1, k_bound=30, l_bound=150)
    assert len(gens) == (2 * 30 + 1) * (2 * 150 + 1) * 4 * 2 == 146888, len(gens)
    assert all(type(g) is RFHGenerator for g in gens)
    images = ((g, boundary_full(g, model, 2)) for g in gens)
    bad = [g for g, d in images
           if any(type(t) is not RFHGenerator for t in d) or boundary_full_chain(d, model, 2)]
    assert not bad, bad[:3]
    for i in range(4):
        target = RFHGenerator(f"q{i}", 2 * i, 3 - 2 * i, i - 1, True)
        for N in range(1, 11):
            dx = boundary_full_chain(primitive_partial_sum(model, 2, target, N), model, 2)
            assert all(type(t) is RFHGenerator for t in dx), (target, N)
            dx[target] = dx.get(target, 0) - 1
            resid = [c for c in dx.values() if c]
            assert len(resid) == 1 and abs(resid[0]) == 2 ** N, (target, N, resid)


def golden():
    """Every tests/test_golden.py case in both formats, each in a process of
    its own, exits 0 with its golden output byte for byte."""
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    from test_golden import CASES, GOLDEN
    runs = {f"{name}.{fmt}": subprocess.run([sys.executable, "-m", "rfhomology.cli", *args,
                                             "--format", fmt], capture_output=True)
            for name, args in sorted(CASES.items()) for fmt in ("md", "json")}
    bad = [f"{key} (exit {run.returncode})" for key, run in runs.items()
           if run.returncode != 0 or run.stdout != Path(GOLDEN, key).read_bytes()]
    assert not bad, bad


# the cp:n cap pattern on an aspherical model: q0 -> t q2 does not lower the degree by 2
ASPHERICAL_CPN = json.dumps({"dim": 4, "nu": 0, "lambda": "0", "cM": None, "cap": "builtin:cpn",
                             "crit": [{"label": f"q{i}", "index": 2 * i} for i in range(3)]})
# one critical point in dimension int(1e300): orderability's window -dim-2..dim+2
HUGE_DIM = json.dumps({"dim": 1e300, "nu": 0, "lambda": "0", "cM": None, "cap": "builtin:zero",
                       "crit": [{"label": "pt", "index": 0}]})
CRITERION_1 = "tests/test_acceptance.py::test_criterion[criterion_1]"
SURFACE_2048_W0 = {-1: {"free": 1, "torsion": []}, 0: {"free": 4096, "torsion": [3]},
                   1: {"free": 4096, "torsion": []}, 2: {"free": 1, "torsion": []}}

ROWS = [
    # criterion 1's odd-degree placement for odd n is unattainable under the
    # engine's grading; see the README's acceptance-suite section
    Row("Tier-1 tests: only criterion 1 fails", None, [
        Cmd(["-m", "pytest", "-q", "--continue-on-collection-errors", "--junitxml={tmp}/junit.xml"],
            None, lambda out, tmp: junit_failing(f"{tmp}/junit.xml") == {CRITERION_1})]),
    Row("Benchmark smoke test", None, [Cmd(["bench/smoke.py"])]),
    # help at both levels exits 0; an abbreviated flag takes a value that begins with
    # a minus sign; importing the CLI loads neither the selftest criteria nor argparse
    Row("Command line through real processes", None, [
        rfh("--help"), rfh("rfh-full --help"), rfh("rfh-w0 --deg -1..1 --model cp:1 --format json"),
        Cmd(["-c", "import sys, rfhomology.cli; assert 'rfhomology.selftest' not in "
                   "sys.modules and 'argparse' not in sys.modules"])]),
    # exit 1 alone cannot tell criterion 1's documented failure from a new
    # one (a raising criterion is a failure too): the failing ids must be [1]
    Row("Selftest through a real process", 60, [rfh("selftest --format json", code=1, check=(
        lambda out, tmp: [(c["id"], c["pass"]) for c in json.loads(out)["criteria"]]
        == [(1, False)] + [(i, True) for i in range(2, 11)]))]),
    # seed 1 is used by no test
    Row("Exactness sweep over 400 random cones", None,
        [Cmd(["scripts/random_exactness_sweep.py", "200", seed]) for seed in ("0", "1")]),
    Row("cp:2 tables", None, [Cmd(["scripts/cp2_tables.py"], 0, lambda out, tmp: out == Path(
        ROOT, "tests/golden/cp2-tables.md").read_text())]),
    # exit 0 also means that every interior node is exact
    Row("Gysin sequence of surface:512", 30,
        [rfh("gysin --model surface:512 --m 2 --degrees -2..3 --format json")]),
    # the circle bundle's cellular homology shifted by one (criterion 4)
    Row("Zero-winding homology of surface:2048", 30, [
        rfh("rfh-w0 --model surface:2048 --m 3 --degrees -1..2 --format json",
            check=lambda out, tmp: cells(out) == SURFACE_2048_W0)]),
    Row("Gysin sequence of cp:4 far from degree 0", 30,
        [rfh("gysin --model cp:4 --m 3 --degrees 95..105 --format json")]),
    # the lazy cones of the degree-m and the unit cap: P.T = T.P = m.id at every degree
    Row("Transfer on surface:2048 and on cp:4 far from degree 0", 30, [
        rfh(f"transfer --model {args} --format json",
            check=lambda out, tmp: json.loads(out)["pass"] is True)
        for args in ("surface:2048 --m 3 --degrees -2..3", "cp:4 --m 3 --degrees 95..105")]),
    # every aspherical cell is 0 through the nilpotent cap, and the cp:n cap
    # pattern on an aspherical model is a usage error
    Row("Full homology of surface:2048", 30, [
        rfh("rfh-full --model surface:2048 --m 3 --tau 7/2 --coeff fp:3 --degrees -20..20 "
            "--format json", check=lambda out, tmp: [row["group"] for row in json.loads(out)[
                "table"]] == ["0"] * 41),
        Cmd(["-c", "import pathlib, sys; pathlib.Path(sys.argv[1]).write_text(sys.argv[2])",
             "{tmp}/cpn-aspherical.json", ASPHERICAL_CPN]),
        rfh("rfh-full --model file:{tmp}/cpn-aspherical.json", code=2)]),
    # the cap coefficient of relations_model.json is 3; at m = 1, tau = 1 the regime is
    # finite, and every cell is 0 over F_3 only (zero against nonzero, not the degrees)
    Row("Full homology of a cap that dies mod 3", 30, [
        rfh(f"rfh-full --model file:tests/golden/relations_model.json --m 1 --tau 1 "
            f"--coeff {coeff} --format json", check=lambda out, tmp, fp3=coeff == "fp:3":
            bool(cells(out)) and all(g == "0" for g in cells(out).values()) == fp3)
        for coeff in ("fp:3", "fp:2", "z")]),
    # the sectors are read once per residue modulo 2*lambda*nu = 8
    Row("Full homology of cp:3 over 100 periods", 30, [
        rfh("rfh-full --model cp:3 --m 2 --tau 1 --degrees -400..400 --format json",
            check=periodic(8))]),
    # each cell is the rank of a power of the cap, decided once per residue modulo 10
    Row("Field cells of cp:4 over 80 periods", 30, [
        rfh("rfh-full --model cp:4 --m 2 --tau 2/3 --coeff fp:3 --degrees -400..400 --format json",
            check=periodic(10, 400))]),
    Row("Injectivity of id + cap-shift on wide truncations", 30, [in_child("injectivity")]),
    # the base and the cone of the cap are read once per residue modulo 8
    Row("Gysin sequence of cp:3 over 100 periods", 30, [
        rfh("gysin --model cp:3 --m 2 --degrees -400..400 --format json", check=gysin_periodic)]),
    Row("Generators of a large cp:3 box", 30, [in_child("generators")]),
    Row("Golden outputs through a real process", None, [in_child("golden")]),
    # it reads the degrees that the critical points reach, not the whole window
    Row("Orderability of a model of dimension 1e300", 30, [
        Cmd(["-c", "import pathlib, sys; pathlib.Path(sys.argv[1]).write_text(sys.argv[2])",
             "{tmp}/huge.json", HUGE_DIM]),
        rfh("orderability --model file:{tmp}/huge.json --format json",
            check=lambda out, tmp: json.loads(out)["orderable"] is True)]),
]

# a test is named as file::function, and runs with all its parameters
ASSEMBLY = "test_assembly_reference.py"
MUTANTS = [
    Mutant("pivot sign dropped", "exactlin.py", "f = col.pop(p) * u", "f = col.pop(p)", (9,)),
    Mutant("Bezout coefficients swapped", "exactlin.py", "r[0], r[j] = s * r[0] + t * r[j],",
           "r[0], r[j] = t * r[0] + s * r[j],", (5,)),
    Mutant("_preimage_in_span returns True", "chaincplx.py", "return _kernel_part_in_span(",
           "return True or _kernel_part_in_span(",
           ("test_chaincplx.py::test_exact_at_compares_kernel_and_image_on_groups",)),
    Mutant("F_p rule powers psi once", "rfh.py", "len(model.crit), field)", "1, field)",
           ("test_rfh.py::test_full_rfh_field_cells_match_the_total_betti_power",)),
    Mutant("cap_unimodular always True", "rfh.py", "return all(M.is_square()",
           "return True or all(M.is_square()", (2, "test_rfh.py::test_full_rfh_cp2_regimes")),
    Mutant("orderability margin 0..0", "rfh.py", "dlo, dhi = -model.dim - 2, model.dim + 2",
           "dlo, dhi = 0, 0", ("test_rfh.py::test_orderability_reports",)),
    Mutant("c1_primitive ignores m", "rfh.py", '"c1_primitive": m == 1 and', '"c1_primitive":',
           ("test_rfh.py::test_orderability_reports",)),
    Mutant("cap_at drops m", "basemodel.py", "return block.scale(m)", "return block", (2, 4, 6, 9)),
    Mutant("fh_degree shifted by one", "basemodel.py", "- 2 * self.lambda_nu * k",
           "- 2 * self.lambda_nu * k + 1", (2, 4)),
    Mutant("regime_for boundary off by one", "novikov.py", "if lhs < m:", "if lhs <= m:",
           (2, "test_novikov.py::test_regime_examples")),
    Mutant("full_rfh leaves ALL_LOWER open", "rfh.py", "= (regime == CompletionRegime.ALL_LOWER or",
           "= (", (2, 3)),
    Mutant("boundary_full_chain drops m", "rfh.py", "+ mc * ct", "+ c * ct",
           (7, "test_rfh.py::test_primitive_residuals")),
    Mutant("action drops the 1/m", "rfh.py", "Fraction(tau, m) * gen.cov", "tau * gen.cov",
           (10, "test_rfh.py::test_winding_zero_relabeling")),
    Mutant("matrix_from_terms keeps a cancelled 0", "chaincplx.py",
           "columns.append({i: c for i, c in col.items() if c} if 0 in col.values() else col)",
           "columns.append(col)",
           (f"{ASSEMBLY}::test_matrix_from_terms_matches_reference_on_random_terms",)),
    Mutant("_cone_boundary reuses a hat column without negating it", "chaincplx.py",
           "{i: -x for i, x in col.items()} if col else col for", "col for",
           (f"{ASSEMBLY}::test_base_cap_and_cone_match_reference",)),
    Mutant("boundary_at reads the block when degree - 1 mixes indices", "basemodel.py",
           "self.class_index.get(self.degree_key(degree - 1), i - 1) == i - 1", "True",
           (f"{ASSEMBLY}::test_base_cap_and_cone_match_reference",)),
    # only the mixed-class reference model has a Morse term on a mixed class
    Mutant("boundary_at moves a mixed class's terms one sphere class up", "basemodel.py",
           "[((t, g[1]), c) for t, c in morse[g[0]]]",
           "[((t, g[1] + 1), c) for t, c in morse[g[0]]]",
           (f"{ASSEMBLY}::test_base_cap_and_cone_match_reference",)),
    Mutant("class_index drops its single-index test", "basemodel.py",
           "out[key] = None if key in out else idx", "out[key] = idx",
           (f"{ASSEMBLY}::test_base_cap_and_cone_match_reference",)),
    Mutant("cap_terms check drops its second loop", "basemodel.py",
           "for tgt, e in morse[src]:", "for tgt, e in ():",
           (f"{ASSEMBLY}::test_cap_check_accepts_a_cap_that_commutes_by_cancellation",)),
]
# prints the ids of the failing selftest criteria, once it has checked the copy of src/
CRITERIA = ("import json, sys; from rfhomology import selftest; "
            "assert selftest.__file__.startswith(sys.argv[1]); "
            "print(json.dumps([r['id'] for r in selftest.run_all() if not r['pass']]))")


def child(argv, tmp, bound, src="src"):
    return subprocess.run([sys.executable] + [a.replace("{tmp}", tmp) for a in argv], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join((src, "scripts"))),
                          capture_output=True, text=True, timeout=bound)


def run_row(row, tmp):
    for cmd in row.cmds:
        run = child(cmd.argv, tmp, row.bound)
        tail = (run.stdout + run.stderr)[-800:]
        assert cmd.code in (None, run.returncode), f"exit {run.returncode}, want {cmd.code}: {tail}"
        assert cmd.check is None or cmd.check(run.stdout, tmp), f"check failed: {tail}"
    return "ok"


def run_mutant(row, tmp):
    copy = os.path.join(tmp, "src")
    shutil.copytree(os.path.join(ROOT, "src"), copy)
    path = os.path.join(copy, "rfhomology", row.file)
    text = Path(path).read_text()
    assert text.count(row.old) == 1, f"`old` occurs {text.count(row.old)} times in {row.file}"
    Path(path).write_text(text.replace(row.old, row.new))
    tests = [k for k in row.kills if isinstance(k, str)]
    failed = set()
    if tests:
        run = child(["-m", "pytest", "-q", "-p", "no:cacheprovider", "--junitxml={tmp}/junit.xml",
                     *("tests/" + t for t in tests)], tmp, None, copy)
        assert run.returncode in (0, 1), f"pytest exit {run.returncode}: {run.stdout[-800:]}"
        failed |= {t[len("tests/"):].split("[")[0] for t in junit_failing(f"{tmp}/junit.xml")}
    if len(tests) < len(row.kills):
        run = child(["-c", CRITERIA, os.path.join(copy, "")], tmp, None, copy)
        assert run.returncode == 0, f"selftest raised: {run.stderr[-800:]}"
        failed |= set(json.loads(run.stdout))
    missed = [k for k in row.kills if k not in failed]
    verdict = f"survives: {missed} passed" if missed else f"killed by {list(row.kills)}"
    assert bool(missed) == row.survives, verdict + ", against its mark"
    return verdict


def main():
    if not __debug__:
        return "the checks are assert statements: run without -O"
    failed = 0
    for row in ROWS + MUTANTS:
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            try:
                note = (run_row if isinstance(row, Row) else run_mutant)(row, tmp)
            except Exception as exc:     # a failed assertion, or a bound exceeded
                note = f"FAIL: {type(exc).__name__}: {exc}"
        failed += note.startswith("FAIL")
        print(f"{time.perf_counter() - t0:6.1f} s  {'mutant: ' * isinstance(row, Mutant)}"
              f"{row.name}: {note}", flush=True)
    print(f"{len(ROWS) + len(MUTANTS) - failed} rows ok, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
