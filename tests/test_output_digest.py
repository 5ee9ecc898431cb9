"""tools/output_digest.py gives one digest per battery from what `ldp`
writes, whatever the time a verify-paper check group took."""

import importlib.util
import json
from collections import Counter
from pathlib import Path

from ldp import verify

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
