import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

try:
    import jsonschema
except ImportError:      # pragma: no cover
    jsonschema = None

from rfhomology import selftest
from rfhomology.cli import COMMAND_FLAGS, FLAGS, main
from rfhomology.errors import NotAComplex


GROUP_SCHEMA = {
    "oneOf": [
        {"const": "0"},
        {"type": "object", "required": ["free", "torsion"],
         "properties": {"free": {"type": "integer", "minimum": 0},
                        "torsion": {"type": "array",
                                    "items": {"type": "integer", "minimum": 2}}},
         "additionalProperties": False},
        {"type": "object", "required": ["Qm"],
         "properties": {"Qm": {"type": "integer", "minimum": 2}},
         "additionalProperties": False},
        {"type": "object", "required": ["QmTilde"],
         "properties": {"QmTilde": {"type": "integer", "minimum": 2}},
         "additionalProperties": False},
        {"type": "object", "required": ["relations"]},
    ]
}

TABLE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "table"],
    "properties": {
        "command": {"type": "string"},
        "table": {"type": "array",
                  "items": {"type": "object",
                            "required": ["degree", "group"],
                            "properties": {"degree": {"type": "integer"},
                                           "group": GROUP_SCHEMA}}},
    },
}


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_rfh_w0_md_and_json(capsys):
    code, out = run(capsys, "rfh-w0", "--model", "cp:2", "--m", "3",
                    "--degrees", "-6..6")
    assert code == 0
    assert "| 1 | Z_3 |" in out and "| 0 | 0 |" in out
    code, out = run(capsys, "rfh-w0", "--model", "cp:2", "--m", "3",
                    "--degrees", "-6..6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "rfh-w0"
    row = next(r for r in payload["table"] if r["degree"] == 1)
    assert row["group"] == {"free": 0, "torsion": [3]}
    if jsonschema:
        jsonschema.validate(payload, TABLE_SCHEMA)


def test_surface_table(capsys):
    code, out = run(capsys, "rfh-w0", "--model", "surface:1", "--m", "2",
                    "--degrees", "-1..2")
    assert code == 0
    assert "| 0 | Z^2 + Z_2 |" in out


def test_rfh_full_json_values(capsys):
    code, out = run(capsys, "rfh-full", "--model", "cp:2", "--m", "2",
                    "--tau", "3/1", "--degrees", "-4..4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "all_upper"
    row = next(r for r in payload["table"] if r["degree"] == 1)
    assert row["group"] == {"Qm": 2}
    if jsonschema:
        jsonschema.validate(payload, TABLE_SCHEMA)

    code, out = run(capsys, "rfh-full", "--model", "cp:2", "--m", "2",
                    "--tau", "2/1", "--coeff", "fp:5", "--degrees", "-2..2")
    assert code == 0
    assert "| 1 | F |" in out

    code, out = run(capsys, "rfh-full", "--model", "cp:2", "--m", "4",
                    "--tau", "100/1", "--degrees", "-2..2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(r["group"] == "0" for r in payload["table"])


def test_json_determinism(capsys):
    args = ("rfh-full", "--model", "cp:2", "--m", "2", "--tau", "2",
            "--degrees", "-5..5", "--format", "json")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_gysin_command(capsys):
    code, out = run(capsys, "gysin", "--model", "cp:3", "--m", "4",
                    "--degrees", "-6..6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True and payload["failures"] == []
    if jsonschema:
        for node in payload["nodes"]:
            jsonschema.validate(node["group"], GROUP_SCHEMA)


def test_transfer_command(capsys):
    code, out = run(capsys, "transfer", "--model", "cp:2", "--m", "5",
                    "--degrees", "-4..4")
    assert code == 0
    assert "P.T = T.P = 5.id: PASS" in out


def test_orderability_command(capsys):
    code, out = run(capsys, "orderability", "--model", "cp:2", "--m", "1")
    assert code == 0
    assert "RFH^w0 = 0" in out and "unknown" in out
    code, out = run(capsys, "orderability", "--model", "cp:2", "--m", "3",
                    "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["orderable"] is True and payload["translated_points"] is True


# one critical point in dimension int(1e300): the orderability window
# -dim-2..dim+2 cannot be read degree by degree.  The monotone one has
# lambda*nu = -dim/2, so its period is dim as well.
HUGE_DIM = int(1e300)
HUGE_DIM_MODELS = {
    "aspherical": {"dim": 1e300, "nu": 0, "lambda": "0", "cM": None,
                   "crit": [{"label": "pt", "index": 0}], "cap": "builtin:zero"},
    "monotone": {"dim": HUGE_DIM, "nu": 1, "lambda": str(-HUGE_DIM // 2), "cM": HUGE_DIM // 2,
                 "crit": [{"label": "pt", "index": 0}], "cap": "builtin:zero"},
}


@pytest.mark.parametrize("name", sorted(HUGE_DIM_MODELS))
def test_orderability_of_a_huge_dimension_returns_at_once(tmp_path, name):
    """`rfh orderability` on a model of dimension 1e300 exits 0 in a real
    process within 2 s: it reads the degrees its critical points reach,
    not the 2*dim + 5 degrees of its window."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(HUGE_DIM_MODELS[name]))
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-m", "rfhomology.cli", "orderability", "--model",
                          f"file:{path}", "--format", "json"], env=env, capture_output=True,
                         text=True, timeout=2)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["orderable"] is True


def test_cp2_demo(capsys):
    code, out = run(capsys, "cp2-demo", "--m", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] and payload["boundary"]
    # the boundary column shows the fiber shift and the cap term
    joined = json.dumps(payload["boundary"])
    assert "l=1" in joined


def test_usage_errors(capsys):
    assert main(["rfh-w0", "--model", "nosuch:1"]) == 2
    assert main(["rfh-full", "--tau", "0"]) == 2
    assert main(["rfh-full", "--tau", "-3"]) == 2
    assert main(["rfh-w0", "--m", "0"]) == 2
    assert main(["rfh-w0", "--degrees", "9..1"]) == 2
    assert main(["nosuchcommand"]) == 2


@pytest.mark.parametrize("argv", [
    ["rfh-w0", "--model", "cp:x"],
    ["rfh-w0", "--model", "file:/nonexistent/model.json"],
    ["rfh-full", "--coeff", "fp:x"],
    ["rfh-full", "--coeff", "fp:4"],
    ["rfh-full", "--coeff", "fp:1"],
    ["rfh-full", "--tau", "1/0"],
    ["gysin", "--coeff", "fp:5"],
    ["selftest", "--model", "cp:2"],
    ["cp2-demo", "--model", "cp:2"],
    ["cp2-demo", "--truncation", "1"],
    ["orderability", "--degrees", "-2..2"],
    ["rfh-w0", "--tau", "2"],
    ["gysin", "--tau", "2"],
    ["transfer", "--tau", "2"],
    ["orderability", "--tau", "2"],
    ["rfh-w0", "--model"],                          # a trailing flag without a value
    ["rfh-w0", "cp:2"],                             # a stray positional argument
    [],                                             # no subcommand
    ["rfh-w0", "--model", "nosuch:1", "--model", "cp:1"],   # a bad value, then a good one
    # an exponent: Fraction would build 10**n, and printing 10**9999 exceeds
    # the digit limit of int to str
    ["rfh-full", "--tau", "1e9999"],
    ["cp2-demo", "--tau", "1e9999"],
    ["cp2-demo", "--window", "1e9..2"],
])
def test_bad_input_is_a_usage_error(capsys, argv):
    """Malformed or unread arguments exit 2 with one `error:` line and no
    traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_negative_degree_token(capsys):
    """`--degrees -6..6` must parse even though the value starts with a
    minus sign."""
    code, out = run(capsys, "rfh-w0", "--model", "cp:1", "--m", "2",
                    "--degrees", "-2..2")
    assert code == 0
    assert "| -2 |" in out


def test_abbreviated_flag_takes_a_negative_value(capsys):
    """`--deg -1..1` used to be a usage error ("expected one argument"),
    though `--deg 0..1` worked: only a flag's full name took a value that
    begins with a minus sign."""
    assert run(capsys, "rfh-w0", "--deg", "-1..1", "--model", "cp:1") == \
        run(capsys, "rfh-w0", "--degrees", "-1..1", "--model", "cp:1")


# each pair of command lines spells the same request
SAME_REQUEST = {
    "flag=value": (["rfh-w0", "--model", "cp:1", "--degrees", "-2..2"],
                   ["rfh-w0", "--model=cp:1", "--degrees=-2..2"]),
    "negative window": (["cp2-demo", "--window", "-3..-1"],
                        ["cp2-demo", "--window=-3..-1"]),
    "repeated flag": (["rfh-w0", "--m", "2"], ["rfh-w0", "--m", "3", "--m", "2"]),
    "unique prefix": (["rfh-w0", "--model", "cp:1"], ["rfh-w0", "--mo", "cp:1"]),
}


@pytest.mark.parametrize("name", sorted(SAME_REQUEST))
def test_spellings_of_one_request_agree(capsys, name):
    first, second = SAME_REQUEST[name]
    code, out = run(capsys, *first)
    assert code == 0 and out
    assert run(capsys, *second) == (code, out)


def test_negative_window_is_applied(capsys):
    """Every generator `cp2-demo --window -3..-1` lists has action in the window."""
    code, out = run(capsys, "cp2-demo", "--window", "-3..-1", "--format", "json")
    actions = [Fraction(g["action"]) for g in json.loads(out)["generators"]]
    assert code == 0 and actions and all(-3 <= a <= -1 for a in actions)


@pytest.mark.parametrize("command", [None] + sorted(COMMAND_FLAGS))
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_exits_0_and_names_every_flag(capsys, command, flag):
    """Help, alone or after a subcommand, goes to stdout and names every
    subcommand, or every flag of the subcommand."""
    code, out = run(capsys, *([flag] if command is None else [command, flag]))
    names = COMMAND_FLAGS if command is None else COMMAND_FLAGS[command]
    assert code == 0
    assert all(re.search(re.escape(name) + r"\b", out) for name in names), out


def test_selftest_command_reports_faithfully(capsys):
    """The selftest subcommand runs the acceptance criteria and exits
    nonzero because criterion 1 (the stated odd-degree placement for every
    n) genuinely fails for odd n; all other criteria pass."""
    code, out = run(capsys, "selftest", "--format", "json")
    payload = json.loads(out)
    by_id = {r["id"]: r["pass"] for r in payload["criteria"]}
    assert by_id[1] is False
    assert all(by_id[i] for i in range(2, 11))
    assert payload["pass"] is False and code == 1


def test_selftest_reports_a_raising_criterion_as_its_failure(capsys, monkeypatch):
    """A criterion that raises an engine error is that criterion's FAIL,
    with the error as its detail; the others still run and the exit code
    is 1, not the usage error 2."""
    def raises():
        raise NotAComplex("d_-1 . d_0 != 0")

    criteria = [(cid, name, lambda: (True, "stub")) for cid, name, _ in selftest.CRITERIA]
    criteria[4] = (5, criteria[4][1], raises)
    monkeypatch.setattr(selftest, "CRITERIA", criteria)
    code, out = run(capsys, "selftest", "--format", "json")
    results = json.loads(out)["criteria"]
    assert code == 1
    assert [r["id"] for r in results] == list(range(1, 11))
    assert [r["id"] for r in results if not r["pass"]] == [5]
    assert "d_-1 . d_0 != 0" in results[4]["detail"]


def test_selftest_markdown_lists_each_criterion(capsys, monkeypatch):
    """`selftest --format md` prints one line per criterion, with the detail
    of a failure, and its verdict last."""
    records = [{"id": 1, "name": "one", "pass": True, "detail": "fine", "seconds": 0.1},
               {"id": 2, "name": "two", "pass": False, "detail": "broke", "seconds": 0.2}]
    monkeypatch.setattr(selftest, "run_all", lambda: records)
    assert run(capsys, "selftest", "--format", "md") == (
        1, "criterion  1 [PASS] one\ncriterion  2 [FAIL] two -- broke\n\nFAILURES present\n")
    monkeypatch.setattr(selftest, "run_all", lambda: records[:1])
    assert run(capsys, "selftest") == (0, "criterion  1 [PASS] one\n\nall criteria passed\n")


def test_point_model_through_main(capsys):
    """`--model point`: the cone of the zero cap on Z in degree 0 is Z in
    degrees 0 and 1."""
    code, out = run(capsys, "rfh-w0", "--model", "point", "--m", "2", "--degrees", "-2..2",
                    "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["model"] == "point"
    assert [row["degree"] for row in payload["table"] if row["group"] != "0"] == [0, 1]


# -- fuzzed malformed input ----------------------------------------------------

COMMANDS = sorted(COMMAND_FLAGS)
BAD_VALUES = {
    "--m": st.sampled_from(["0", "-2", "x", "1.5", "", "1/2"]),
    # an exponent is refused before Fraction builds 10**n
    "--tau": st.sampled_from(["0", "-1", "1/0", "x", "", "--", "1e9999", "2e3"]),
    "--degrees": st.sampled_from(["3..1", "1", "a..b", "1..2..3", "..", ""]),
    "--coeff": st.sampled_from(["q", "fp:", "fp:0", "fp:1", "fp:9", "fp:-3", "zz"]),
    "--format": st.sampled_from(["", "txt", "JSON", "--"]),
}
SMALL_MODEL = {"dim": 2, "nu": 0, "lambda": "0", "cM": None,
               "crit": [{"label": "bot", "index": 0}, {"label": "e", "index": 1},
                        {"label": "top", "index": 2}],
               "cap": "builtin:surface", "primitiveOmega": True,
               "morseBoundary": {"2": [[0]]}}
# each corruption makes the model file invalid on its own
MODEL_CORRUPTIONS = {
    "dim": [-2, 3, "x", None, [], {}],
    "nu": [-1, "x", None, [2]],
    "lambda": ["x", "1/0", [], {}, "2e3"],
    "cM": ["x", []],
    "crit": [None, 3, "ab", [1], [{"label": "a"}], [{"label": "a", "index": 9}],
             [{"label": "a", "index": "x"}], [{"index": 0}],
             [{"label": "a", "index": 0}, {"label": "b", "index": 2}],
             [{"label": "bot", "index": 0}, {"label": "e", "index": 1},
              {"label": "e", "index": 1}, {"label": "top", "index": 2}]],
    "cap": ["builtin:nosuch", 7, {"1": [[1, 2], [3]]}, {"x": [[1]]}],
    "morseBoundary": [{"2": [[1], [2, 3]]}, {"x": [[1]]}, {"2": "ab"},
                      {"2": [[1, 2, 3]]}, {"1": [[1, 2]]}, {"2": 5}, [1], "ab"],
}
# each of these also names its field or key in its one error line; `from_rows`
# reads a falsy entry as 0 unread, so null, [], {} and "" must be refused before it
NAMED_MODEL_CORRUPTIONS = [
    *(("morseBoundary", {"2": [[x]]}, f"morseBoundary entry at index 2 must be an integer, "
       f"got {json.dumps(x)}") for x in (None, [], {}, "", True)),
    *(("cap", {"1": [[x]]}, f"cap entry at degree 1 must be an integer, got {json.dumps(x)}")
      for x in (None, [], {}, "", True)),
    ("dim", None, "dim must be an integer, got null"),
    ("morseboundary", {"1": [[2]]}, 'unknown model key "morseboundary", did you mean '
     "morseBoundary?"),
    ("primitiveomega", True, 'unknown model key "primitiveomega", did you mean primitiveOmega?'),
    ("lamda", "1", 'unknown model key "lamda", did you mean lambda?'),
    ("crit", [{"label": "bot", "index": 0}, {"label": "e", "index": 1, "Index": 1},
              {"label": "top", "index": 2}], 'unknown crit entry key "Index", did you mean index?'),
    ("name", [1], "name must be a string, got [1]"),
    ("name", None, "name must be a string, got null"),
    ("crit", [5], "crit must be a list of objects {label, index}"),
    ("crit", [], "a model needs at least one critical point"),
    ("crit", [{"label": "bot", "index": 0}, {"label": ["a"], "index": 1},
              {"label": "top", "index": 2}], 'critical point label must be a string, got ["a"]'),
]
for _key, _value, _ in NAMED_MODEL_CORRUPTIONS:
    MODEL_CORRUPTIONS.setdefault(_key, []).append(_value)


@st.composite
def bad_argv(draw):
    """A command line with one malformed part: the subcommand, a flag the
    subcommand does not take, or a flag's value."""
    kind = draw(st.sampled_from(["command", "flag", "value"]))
    if kind == "command":
        # this alphabet spells no subcommand and no -h/--help
        return [draw(st.text("abcxyz-0123456789", max_size=8))]
    command = draw(st.sampled_from(COMMANDS))
    own = COMMAND_FLAGS[command]
    if kind == "flag":
        foreign = st.sampled_from(sorted(set(FLAGS) - set(own)))
        unknown = st.text("abcxyz", min_size=1, max_size=6).map(lambda s: "--x" + s)
        return [command, draw(foreign | unknown), "1"]
    flag = draw(st.sampled_from([f for f in BAD_VALUES if f in own]))
    return [command, flag, draw(BAD_VALUES[flag])]


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_usage_error(argv, code, err):
    assert code == 2, (argv, code, err)
    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert "Traceback" not in err


@settings(max_examples=150, deadline=None)
@given(bad_argv())
def test_fuzzed_argv_is_a_usage_error(argv):
    """Unknown subcommands and flags and bad --m/--tau/--degrees/--coeff/
    --format values exit 2 with one `error:` line and no traceback."""
    assert_usage_error(argv, *run_quietly(argv))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(MODEL_CORRUPTIONS)).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(MODEL_CORRUPTIONS[key]))),
    st.sampled_from([None, "list", "truncated"]),
    st.sampled_from([c for c in COMMANDS if "--model" in COMMAND_FLAGS[c]]))
def test_fuzzed_model_file_is_a_usage_error(corruption, wrapper, command):
    """A malformed `file:` model exits 2 with one `error:` line and no
    traceback, whether a field is wrong, the top level is not an object or
    the JSON is cut short."""
    key, value = corruption
    text = json.dumps({**SMALL_MODEL, key: value})
    if wrapper == "list":
        text = "[" + text + "]"
    elif wrapper == "truncated":
        text = text[:len(text) // 2]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w") as fh:
            fh.write(text)
        argv = [command, "--model", f"file:{path}"]
        assert_usage_error(argv, *run_quietly(argv))


@pytest.mark.parametrize("key,value,message", NAMED_MODEL_CORRUPTIONS,
                         ids=[f"{key}-{n}" for n, (key, _, _) in
                              enumerate(NAMED_MODEL_CORRUPTIONS)])
def test_bad_model_entry_or_key_is_named(tmp_path, key, value, message):
    """A non-number in a matrix row, a misspelt top-level or crit key, a
    name or a critical point label that is not a string, a crit entry that
    is not an object and an empty crit exit 2 with one `error:` line naming
    the field or the key.  A misspelt morseBoundary used to load as a model
    without it, a misspelt primitiveOmega as false, and an empty crit as a
    model whose homology is 0 in every degree."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**SMALL_MODEL, key: value}))
    argv = ["rfh-w0", "--model", f"file:{path}"]
    code, err = run_quietly(argv)
    assert_usage_error(argv, code, err)
    assert err == f"error: argument --model: bad model 'file:{path}': {message}\n"


def test_small_model_file_is_valid(tmp_path):
    """The fuzzed model files above differ from this one in one field."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(SMALL_MODEL))
    code, err = run_quietly(["rfh-w0", "--model", f"file:{path}", "--degrees", "-1..1"])
    assert code == 0 and err == ""


@pytest.mark.parametrize("cap,message", [
    ({"0": [[1]]}, "custom cap misses degree 1"),
    ({"1": [[1, 2]]}, "custom cap at degree 1 has the wrong shape"),
])
@pytest.mark.parametrize("command", ["rfh-w0", "rfh-full", "gysin"])
def test_bad_custom_cap_is_a_usage_error(tmp_path, cap, message, command):
    """A custom cap without a matrix for a degree whose generators have cap
    targets, or with a matrix of the wrong shape, exits 2 with one `error:`
    line naming the degree."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**SMALL_MODEL, "cap": cap}))
    argv = [command, "--model", f"file:{path}", "--degrees", "-1..1"]
    code, err = run_quietly(argv)
    assert_usage_error(argv, code, err)
    assert message in err


MONOTONE_MODEL = {"dim": 2, "nu": 1, "lambda": "2", "cM": 2,
                  "crit": [{"label": "q0", "index": 0}, {"label": "q1", "index": 2}],
                  "cap": {"1": [[3]], "-1": [[3]]}, "primitiveOmega": True}
# int() truncates each of these values to a model that is valid
NON_INTEGER_MODELS = {
    "dim": ({**SMALL_MODEL, "dim": 2.5}, "dim must be an integer, got 2.5"),
    "nu": ({**MONOTONE_MODEL, "nu": 1.5}, "nu must be an integer, got 1.5"),
    "cM": ({**MONOTONE_MODEL, "cM": 2.5}, "cM must be an integer, got 2.5"),
    "index": ({**SMALL_MODEL, "crit": [{"label": "bot", "index": 0},
                                       {"label": "e", "index": 1},
                                       {"label": "top", "index": 2.7}]},
              "crit index must be an integer, got 2.7"),
    "morseBoundary": ({**SMALL_MODEL, "morseBoundary": {"1": [[0.5]]}},
                      "morseBoundary entry at index 1 must be an integer, got 0.5"),
    "cap": ({**SMALL_MODEL, "cap": {"1": [[0.5]]}},
            "cap entry at degree 1 must be an integer, got 0.5"),
    # JSON's Infinity used to escape as an OverflowError with a traceback
    "morseBoundary-infinity": ({**SMALL_MODEL, "morseBoundary": {"2": [[float("inf")]]}},
                               "morseBoundary entry at index 2 must be an integer, got inf"),
    # int() reads JSON's true as 1 and false as 0
    "dim-bool": ({"dim": False, "nu": 0, "lambda": "0", "cM": None,
                  "crit": [{"label": "pt", "index": 0}], "cap": "builtin:zero"},
                 "dim must be an integer, got false"),
    "nu-bool": ({**MONOTONE_MODEL, "nu": True}, "nu must be an integer, got true"),
    "cM-bool": ({**MONOTONE_MODEL, "lambda": "-1", "cM": True, "cap": "builtin:zero"},
                "cM must be an integer, got true"),
    "index-bool": ({**SMALL_MODEL, "crit": [{"label": "bot", "index": False},
                                            {"label": "e", "index": True},
                                            {"label": "top", "index": 2}]},
                   "crit index must be an integer, got false"),
    "morseBoundary-bool": ({**SMALL_MODEL, "morseBoundary": {"1": [[True]]}},
                           "morseBoundary entry at index 1 must be an integer, got true"),
    "cap-bool": ({**SMALL_MODEL, "cap": {"1": [[False]]}},
                 "cap entry at degree 1 must be an integer, got false"),
    # int() strips the spaces of " 1 " and reads the underscore of "1_0"
    "dim-string": ({**SMALL_MODEL, "dim": "2"}, 'dim must be an integer, got "2"'),
    "index-string": ({**SMALL_MODEL, "crit": [{"label": "bot", "index": 0},
                                              {"label": "e", "index": " 1 "},
                                              {"label": "top", "index": 2}]},
                     'crit index must be an integer, got " 1 "'),
    "morseBoundary-string": ({**SMALL_MODEL, "morseBoundary": {"2": [["1_0"]]}},
                             'morseBoundary entry at index 2 must be an integer, got "1_0"'),
    "cap-string": ({**SMALL_MODEL, "cap": {"1": [["1"]]}},
                   'cap entry at degree 1 must be an integer, got "1"'),
    # bool() reads the string "false" as true, and any number as a flag
    "primitiveOmega-string": ({**SMALL_MODEL, "primitiveOmega": "false"},
                              'primitiveOmega must be true or false, got "false"'),
    "primitiveOmega-number": ({**SMALL_MODEL, "primitiveOmega": 1},
                              "primitiveOmega must be true or false, got 1"),
}


@pytest.mark.parametrize("field", sorted(NON_INTEGER_MODELS))
def test_non_integer_number_in_a_model_file_is_a_usage_error(tmp_path, field):
    """A model-file number whose value is not an integer used to be
    truncated by int(): `rfh-w0` read [[0.5]] as 0 and exited 0.  Now it
    exits 2 with one line naming the field, and so do an infinite one, a
    JSON true or false, which int() read as 1 or 0, a string, which int()
    read as the number it spells ("1_0" as 10), and a primitiveOmega
    that is not a JSON true or false, which bool() read as a flag."""
    spec, message = NON_INTEGER_MODELS[field]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    argv = ["rfh-w0", "--model", f"file:{path}"]
    code, err = run_quietly(argv)
    assert_usage_error(argv, code, err)
    assert err == f"error: argument --model: bad model 'file:{path}': {message}\n"


def test_primitive_omega_reads_only_a_json_boolean(tmp_path, capsys):
    """`orderability --m 1` reports c1_primitive as the file's JSON true or
    false, and false without the key.  Any other value is a usage error
    (`NON_INTEGER_MODELS`); the string "false" used to read as true."""
    path = tmp_path / "model.json"
    argv = ["orderability", "--model", f"file:{path}", "--m", "1", "--format", "json"]
    absent = {key: v for key, v in SMALL_MODEL.items() if key != "primitiveOmega"}
    for spec, want in (({**absent, "primitiveOmega": True}, True),
                       ({**absent, "primitiveOmega": False}, False), (absent, False)):
        path.write_text(json.dumps(spec))
        code, out = run(capsys, *argv)
        assert code == 0 and json.loads(out)["c1_primitive"] is want, (spec, out)


def test_whole_numbers_written_as_floats_stay_accepted(tmp_path, capsys):
    """2.0 in a model file reads as 2, in every field that holds an integer."""
    pairs = [(MONOTONE_MODEL, {**MONOTONE_MODEL, "dim": 2.0, "nu": 1.0, "cM": 2.0,
                               "crit": [{"label": "q0", "index": 0.0},
                                        {"label": "q1", "index": 2.0}],
                               "cap": {"1": [[3.0]], "-1": [[3.0]]}}),
             (SMALL_MODEL, {**SMALL_MODEL, "morseBoundary": {"1": [[0.0]], "2": [[0.0]]},
                            "cap": {"1": [[1.0]]}})]
    for spec, floats in pairs:
        outs = []
        for model in (spec, floats):
            path = tmp_path / "model.json"
            path.write_text(json.dumps(model))
            outs.append(run(capsys, "rfh-w0", "--model", f"file:{path}", "--format", "json"))
        assert outs[0][0] == 0 and outs[1] == outs[0], outs


@pytest.mark.parametrize("command", [c for c in COMMANDS if "--model" in COMMAND_FLAGS[c]])
def test_zero_lambda_nu_model_is_a_usage_error(tmp_path, command):
    """A monotone model with lambda*nu = 0 in dimension 0 used to crash
    every subcommand with a ZeroDivisionError and exit 1."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"dim": 0, "nu": 1, "lambda": "0", "cM": 0,
                                "crit": [{"label": "pt", "index": 0}],
                                "cap": "builtin:zero"}))
    argv = [command, "--model", f"file:{path}"]
    code, err = run_quietly(argv)
    assert_usage_error(argv, code, err)
    assert "lambda*nu = 0" in err


@pytest.mark.parametrize("command,message", [
    ("rfh-w0", "does not commute with boundaries at degree 1"),
    ("rfh-full", "does not commute with boundaries at degree 1"),
    ("gysin", "does not commute with boundaries at degree 1"),
    ("transfer", "does not commute with boundaries at degree 1"),
    ("orderability", "does not commute with boundaries at degree 1"),
])
def test_non_commuting_cap_is_a_usage_error(tmp_path, command, message):
    """The custom cap of `test_basemodel.test_custom_cap_validation` sends x
    to b although d(b) = 2a and d(x) = 0: the model rejects the cap at the
    degree of x, and every command that reads the model exits 2 with that
    one line."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "dim": 4, "nu": 0, "lambda": "0", "cM": None,
        "crit": [{"label": "a", "index": 0}, {"label": "b", "index": 1},
                 {"label": "x", "index": 3}, {"label": "c", "index": 4}],
        "cap": {"1": [[1]]}, "primitiveOmega": False,
        "morseBoundary": {"1": [[2]], "4": [[5]]}}))
    argv = [command, "--model", f"file:{path}"]
    code, err = run_quietly(argv)
    assert_usage_error(argv, code, err)
    assert err == f"error: cap {message}\n"


OFF_DEGREE_CAP_MODELS = {
    # q0 -> t q2 keeps the degree when nu = 0
    "cpn-aspherical": ({"dim": 4, "nu": 0, "lambda": "0", "cM": None,
                        "crit": [{"label": f"q{i}", "index": 2 * i} for i in range(3)],
                        "cap": "builtin:cpn"}, "q0 -> q2 (sphere shift 1)"),
    # q0 -> t q1 lowers the degree by 5 when 2*lambda*nu = 4
    "cpn-index-gap-1": ({"dim": 2, "nu": 1, "lambda": "2", "cM": 2,
                         "crit": [{"label": "q0", "index": 0}, {"label": "q1", "index": 1}],
                         "cap": "builtin:cpn"}, "q0 -> q1 (sphere shift 1)"),
    # top -> bot lowers the degree by 1
    "surface-top-index-1": ({"dim": 2, "nu": 0, "lambda": "0", "cM": None,
                             "crit": [{"label": "bot", "index": 0}, {"label": "top", "index": 1}],
                             "cap": "builtin:surface"}, "top -> bot (sphere shift 0)"),
}


@pytest.mark.parametrize("name", sorted(OFF_DEGREE_CAP_MODELS))
@pytest.mark.parametrize("command", [c for c in COMMANDS if "--model" in COMMAND_FLAGS[c]])
def test_cap_term_not_lowering_the_degree_by_2_is_a_usage_error(tmp_path, command, name):
    """A built-in cap pattern on critical points it does not fit has a term
    that does not lower the degree by 2.  `cap_at` used to drop such a term
    while a whole-cap matrix at t = 1, since deleted, kept it, so `rfh-full`
    read a cap that is not nilpotent off a cap that is zero, and exited 0.
    Now every command that reads the model exits 2 with one line naming
    the term."""
    spec, term = OFF_DEGREE_CAP_MODELS[name]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    argv = [command, "--model", f"file:{path}"]
    code, err = run_quietly(argv)
    assert_usage_error(argv, code, err)
    assert err == f"error: cap term {term} does not lower the degree by 2\n"


@pytest.mark.parametrize("tau", ["1/2", "1", "2"])
def test_off_degree_cap_is_rejected_by_rfh_full_in_every_regime(tmp_path, tau):
    """At m = 1 these radii give the lower, finite and upper regime.  No cell
    of the lower regime reads the cap, so only the check on the model
    catches the term there."""
    spec, term = OFF_DEGREE_CAP_MODELS["cpn-index-gap-1"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    argv = ["rfh-full", "--model", f"file:{path}", "--tau", tau]
    code, err = run_quietly(argv)
    assert_usage_error(argv, code, err)
    assert err == f"error: cap term {term} does not lower the degree by 2\n"


def write_bad_boundary_model(tmp_path, grading):
    """d_1 = d_2 = [[1]] on points of index 0, 1 and 2 gives d_1 . d_2 != 0."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "dim": 2, **grading,
        "crit": [{"label": "a", "index": 0}, {"label": "b", "index": 1},
                 {"label": "c", "index": 2}],
        "cap": "builtin:zero", "morseBoundary": {"1": [[1]], "2": [[1]]}}))
    return path


def assert_bad_boundary_rejected(argv, path):
    code, err = run_quietly(argv)
    assert_usage_error(argv, code, err)
    assert err == (f"error: argument --model: bad model 'file:{path}': Morse "
                   "differential does not square to zero: d_1 . d_2 != 0\n")


@pytest.mark.parametrize("command", [c for c in COMMANDS if "--model" in COMMAND_FLAGS[c]])
def test_morse_boundary_not_squaring_to_zero_is_a_usage_error(tmp_path, command):
    """`transfer` used to print PASS on such a model, as its maps commute
    with any boundary; the model rejects it, so every command exits 2 with
    the same line."""
    path = write_bad_boundary_model(tmp_path, {"nu": 0, "lambda": "0", "cM": None})
    assert_bad_boundary_rejected([command, "--model", f"file:{path}"], path)


@pytest.mark.parametrize("command", [c for c in COMMANDS if "--model" in COMMAND_FLAGS[c]])
@pytest.mark.parametrize("tau", ["1/2", "1", "2"])
def test_morse_boundary_not_squaring_to_zero_is_rejected_in_every_regime(tmp_path, command, tau):
    """Monotone with lambda*nu = 2 at m = 1: lower, finite and upper regime.
    With a zero cap no homology needs the boundaries in every regime, so
    only the check on the model catches the bad differential.  `--tau` goes
    only to the commands that read it; `gysin` runs without it."""
    path = write_bad_boundary_model(tmp_path, {"nu": 1, "lambda": "2", "cM": 2})
    argv = [command, "--model", f"file:{path}"]
    if "--tau" in COMMAND_FLAGS[command]:
        argv += ["--tau", tau]
    assert_bad_boundary_rejected(argv, path)
