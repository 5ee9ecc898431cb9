"""tools/bench_record.py refuses to record a side it cannot name, and
byte-compiles every side before it measures any."""

import importlib.util
import subprocess
from pathlib import Path

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


def test_every_side_is_byte_compiled_before_the_first_run(tmp_path, monkeypatch):
    tool = _load_tool()
    sides = []
    for label in ("parent", "change"):
        for sub in ("src", "perfbench"):
            (tmp_path / label / sub).mkdir(parents=True)
            (tmp_path / label / sub / "mod.py").write_text("x = 1\n")
        sides += ["--side", f"{label}={tmp_path / label}"]
    compiled = []

    class FirstRun(Exception):
        pass

    def first_run(root, *args):
        compiled.extend(sorted(p.relative_to(tmp_path).parts for p in tmp_path.rglob("*.pyc")))
        raise FirstRun

    monkeypatch.setattr(tool, "dirty_src", lambda root: False)
    monkeypatch.setattr(tool, "run", first_run)
    with pytest.raises(FirstRun):
        tool.main(["--out", str(tmp_path / "out.json"), *sides])
    assert sorted(parts[:2] for parts in compiled) == [
        ("change", "perfbench"), ("change", "src"), ("parent", "perfbench"), ("parent", "src")
    ]
    assert all(parts[2] == "__pycache__" and parts[3].startswith("mod.") for parts in compiled)
