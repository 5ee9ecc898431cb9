"""tools/output_digest.py gives one digest per battery from what `ldp`
writes, whatever the time a verify-paper check group took."""

import importlib.util
import inspect
import json
import re
from collections import Counter
from pathlib import Path

from ldp import graphs, verify

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_lct_battery_digests_alike_twice():
    tool = _load_tool()
    argvs = tool.lct_argvs()
    assert len(argvs) == tool.LCT_LINES
    records = [tool.run(argv) for argv in argvs]
    assert tool.digest(tool.run(argv) for argv in argvs) == tool.digest(records)
    # both the results and the errors of lct are in the battery
    codes = Counter(code for _, code, _, _ in records)
    assert set(codes) == {0, 2} and codes[0] > 10 * codes[2]
    # one character more on one stream makes another digest
    records[0][3] += "\n"
    assert tool.digest(records) != tool.digest(tool.run(argv) for argv in argvs)


def test_verify_paper_documents_that_differ_only_in_seconds_digest_alike(monkeypatch):
    tool = _load_tool()

    def document(seconds, actual="0"):
        outcome = verify.VerificationOutcome("ksq-A4", 1, "0", actual, seconds)
        monkeypatch.setattr(verify, "run_checks", lambda: [outcome])
        return tool.run(["verify-paper", "--json"])

    first, second = document(0.25), document(1234.5)
    assert json.loads(first[2])[0]["seconds"] is None
    assert tool.digest([first]) == tool.digest([second])
    # a check that fails is another document
    assert tool.digest([first]) != tool.digest([document(0.25, actual="1")])


def test_the_pencil_battery_holds_results_and_errors():
    tool = _load_tool()
    argvs = tool.pencil_argvs()
    assert ["crossratio"] in argvs and ["weighted-model"] in argvs
    codes = Counter(tool.run(argv)[1] for argv in argvs)
    # --char 2, 3, 4 and past the bound exit 2; every other line exits 0
    assert codes == {0: len(argvs) - 4, 2: 4}


def test_the_parse_battery_parses_every_table1_type():
    tool = _load_tool()
    records = [tool.run(argv) for argv in tool.parse_argvs()]
    assert len(records) == 530
    for (_, notation), code, out, err in records:
        assert (code, err) == (0, "")
        assert graphs.parse_dynkin(json.loads(out)["notation"]) == graphs.parse_dynkin(notation)


def test_the_malformed_battery_meets_every_parser_message():
    tool = _load_tool()
    errors = [tool.run(argv)[1:] for argv in tool.malformed_argvs()]
    assert errors == [
        [2, "", "error: expected '[' (at offset 0)\n"],
        [2, "", "error: expected ']' (at offset 4)\n"],
        [2, "", "error: unexpected character ']' (at offset 5)\n"],
        [2, "", "error: expected '[' (at offset 5)\n"],
        [2, "", "error: weight 1 < 2 (at offset 3)\n"],
        [2, "", "error: multiplicity prefix must be >= 2 (at offset 4)\n"],
        [2, "", "error: a star needs exactly three nonempty branches (at offset 11)\n"],
        [2, "", "error: a star needs exactly three nonempty branches (at offset 17)\n"],
        [2, "", "error: star center must be a single weight (at offset 1)\n"],
        [2, "", "error: the type has more than MAX_VERTICES = 2000 vertices (at offset 5)\n"],
        [2, "", "error: the type has more than MAX_VERTICES = 2000 vertices (at offset 6)\n"],
        [2, "", "error: expected an integer (at offset 3)\n"],
        [2, "", "error: expected an integer (at offset 3)\n"],
    ]
    # every message the parser can raise, up to its first placeholder
    raised = re.findall(r'self\.error\(f?"([^"{]*)', inspect.getsource(graphs._Parser))
    assert len(raised) == 8
    for message in raised:
        assert any(err.startswith("error: " + message) for _, _, err in errors), message
