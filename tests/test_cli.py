import json

import pytest

try:
    import jsonschema
except ImportError:      # pragma: no cover
    jsonschema = None

from rfhomology.cli import main


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
    assert main(["rfh-w0", "--tau", "0"]) == 2
    assert main(["rfh-w0", "--tau", "-3"]) == 2
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
    ["orderability", "--degrees", "-2..2"],
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
