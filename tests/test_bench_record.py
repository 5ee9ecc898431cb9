"""tools/bench_record.py refuses to record a side it cannot name, and
measures every side without a bytecode cache."""

import compileall
import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(root, *args):
    subprocess.run(["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   check=True, capture_output=True)


def test_a_side_with_uncommitted_src_changes_is_refused(tmp_path, capsys):
    tool = _load_tool()
    clean, dirty = tmp_path / "clean", tmp_path / "dirty"
    (clean / "src").mkdir(parents=True)
    (clean / "src" / "mod.py").write_text("x = 1\n")
    _git(tmp_path, "init", "-q", str(clean))
    _git(clean, "add", "-A")
    _git(clean, "commit", "-q", "-m", "init")
    _git(tmp_path, "clone", "-q", str(clean), str(dirty))
    (dirty / "src" / "mod.py").write_text("x = 2\n")
    # a change outside src/ does not count
    (clean / "notes.txt").write_text("scratch\n")
    assert not tool.dirty_src(str(clean))
    assert tool.dirty_src(str(dirty))
    with pytest.raises(SystemExit) as exc:
        tool.main(["--out", str(tmp_path / "out.json"),
                   "--side", f"parent={clean}", "--side", f"change={dirty}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "side change" in err and "side parent" not in err
    assert not (tmp_path / "out.json").exists()


def test_no_side_has_a_bytecode_cache_when_a_run_starts(tmp_path, monkeypatch):
    tool = _load_tool()
    sides = []
    for label in ("parent", "change"):
        for sub in ("src", "src/pkg", "perfbench", "tests"):
            (tmp_path / label / sub).mkdir(parents=True)
            (tmp_path / label / sub / "mod.py").write_text("x = 1\n")
        assert compileall.compile_dir(tmp_path / label, quiet=1)
        sides += ["--side", f"{label}={tmp_path / label}"]
    metrics = {m: {"value": 1.0} for m in ("setup_s", "wall_s", "items_per_s", "item_p50_ms",
                                           "item_p90_ms", "peak_rss_mib")}
    envs = []

    def child(cmd, cwd, env, **kwargs):
        # only the caches outside src/ and perfbench/ are left
        left = sorted(p.relative_to(tmp_path).parts[:2] for p in tmp_path.rglob("*.pyc"))
        assert left == [("change", "tests"), ("parent", "tests")]
        envs.append(env)
        if cmd[1] == "-c":  # the verify-paper child
            outcome = {"group": 1, "seconds": 0.1, "status": "Pass"}
            return SimpleNamespace(returncode=0, stdout=json.dumps([outcome]), stderr="1024\n")
        context = {"context": {"commit": "c", "error_rate": 0.0}}
        return SimpleNamespace(stdout=json.dumps(context) + "\n" + json.dumps({"metrics": metrics}))

    monkeypatch.setattr(tool, "dirty_src", lambda root: False)
    monkeypatch.setattr(tool, "src_tree", lambda root: None)
    monkeypatch.setattr(tool.subprocess, "run", child)
    assert tool.main(["--out", str(tmp_path / "out.json"), "--pairs", "2", *sides]) == 0
    # 3 workloads of 2 pairs, 3 traced runs a side, and 2 pairs of verify-paper
    assert len(envs) == 3 * 2 * 2 + 3 * 2 + 2 * 2
    assert all(env["PYTHONDONTWRITEBYTECODE"] == "1" for env in envs)
