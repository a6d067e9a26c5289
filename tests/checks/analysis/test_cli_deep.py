"""``repro check --changed`` outside a git work-tree: the fallback to a
full scan, and the whole-program ("deep") rules it keeps running."""

import pytest

from repro.checks.cli import main as check_main


RACY = """
import threading

_lock = threading.Lock()
_counter = 0


def locked_bump():
    global _counter
    with _lock:
        _counter += 1


def unlocked_bump():
    global _counter
    _counter += 1


def start():
    threading.Thread(target=locked_bump).start()
    threading.Thread(target=unlocked_bump).start()
"""


@pytest.fixture
def tree(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pkg = tmp_path / "src" / "repro" / "demo"
    pkg.mkdir(parents=True)
    return pkg


class TestChangedFallback:
    def test_changed_outside_git_falls_back_to_full_scan(self, tree, capsys):
        # tmp_path is not a git work-tree: --changed must warn and run the
        # per-file rules over every file rather than crash (regression for
        # the RuntimeError).
        (tree / "a.py").write_text("print('a')\n")
        (tree / "b.py").write_text("print('b')\n")
        rc = check_main(["src", "--changed", "--no-cache"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "falling back to a full scan" in captured.err
        assert "src/repro/demo/a.py" in captured.out
        assert "src/repro/demo/b.py" in captured.out

    def test_changed_deep_outside_git_still_runs_deep(self, tree, capsys):
        (tree / "state.py").write_text(RACY)
        rc = check_main(["src", "--changed", "--no-cache"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "THR210" in captured.out
        assert "src/repro/demo/state.py" in captured.out
        assert "falling back" in captured.err
