"""``repro check`` CLI: exit codes (0/1/2), formats, the whole-program
rules, ``--changed``, the summary cache, and dispatch wiring."""

import json
import shutil
import subprocess

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

CLEAN = """
import threading

_lock = threading.Lock()
_counter = 0


def bump():
    global _counter
    with _lock:
        _counter += 1


def start():
    threading.Thread(target=bump).start()
    threading.Thread(target=bump).start()
"""


@pytest.fixture
def clean_file(tmp_path):
    f = tmp_path / "clean.py"
    f.write_text("from repro.obs.log import console\nconsole('ok')\n")
    return f


@pytest.fixture
def dirty_file(tmp_path):
    f = tmp_path / "dirty.py"
    f.write_text("out = a @ b\nprint(out)\n")
    return f


@pytest.fixture
def tree(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pkg = tmp_path / "src" / "repro" / "demo"
    pkg.mkdir(parents=True)
    return pkg


class TestExitCodes:
    def test_zero_on_clean(self, clean_file, capsys):
        assert check_main([str(clean_file)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_one_on_findings(self, dirty_file, capsys):
        assert check_main([str(dirty_file)]) == 1
        out = capsys.readouterr().out
        assert "DTY101" in out and "OBS301" in out

    def test_two_on_unknown_rule(self, clean_file, capsys):
        assert check_main([str(clean_file), "--rules", "BOGUS123"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_two_on_missing_path(self, capsys):
        assert check_main(["/no/such/path.py"]) == 2
        assert "error" in capsys.readouterr().err


class TestOutput:
    def test_json_format(self, dirty_file, capsys):
        assert check_main([str(dirty_file), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["findings"] == len(doc["findings"])
        assert doc["summary"]["by_rule"].get("DTY101") == 1
        first = doc["findings"][0]
        assert {"rule", "severity", "path", "line", "col", "message"} <= set(first)

    def test_rules_filter_narrows_scan(self, dirty_file, capsys):
        assert check_main([str(dirty_file), "--rules", "OBS301"]) == 1
        out = capsys.readouterr().out
        assert "OBS301" in out and "DTY101" not in out

    def test_list_rules(self, capsys):
        assert check_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rid in ("DTY101", "THR201", "THR210", "OBS301", "NUM401", "SUP001"):
            assert rid in out
        assert "[plan discipline]" in out
        assert "deep" not in out


class TestWholeProgramRules:
    """Every run is whole-program: no flag is needed to see a race."""

    def test_race_found_without_any_flag(self, tree, capsys):
        (tree / "state.py").write_text(RACY)
        assert check_main(["src", "--no-cache"]) == 1
        assert "THR210" in capsys.readouterr().out

    def test_clean_tree_exits_zero(self, tree, capsys):
        (tree / "state.py").write_text(CLEAN)
        assert check_main(["src", "--no-cache"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_whole_program_rule_selected_alone_runs(self, tree, capsys):
        # --rules THR210 must run the lockset analysis, not pass silently.
        (tree / "state.py").write_text(RACY)
        assert check_main(["src", "--no-cache", "--rules", "THR211"]) == 0
        capsys.readouterr()
        assert check_main(["src", "--no-cache", "--rules", "THR210"]) == 1
        out = capsys.readouterr().out
        assert "THR210" in out and "THR201" not in out

    def test_cache_dir_is_written(self, tree, tmp_path, capsys):
        (tree / "state.py").write_text(CLEAN)
        cache = tmp_path / "custom-cache"
        assert check_main(["src", "--cache-dir", str(cache)]) == 0
        assert any(cache.iterdir())

    def test_retired_flags_and_rules_are_usage_errors(self, tree, capsys):
        (tree / "state.py").write_text(CLEAN)
        # DTY103 gave way to DTY110, THR203 guarded pools src/ no longer has.
        for retired in ("DTY103", "THR203"):
            assert check_main(["src", "--no-cache", "--rules", retired]) == 2
            assert "unknown rule" in capsys.readouterr().err
        assert check_main(["src", "--deep"]) == 2


class TestSarifFormat:
    def test_sarif_output_parses(self, tree, capsys):
        (tree / "state.py").write_text(RACY)
        rc = check_main(["src", "--no-cache", "--format", "sarif"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        assert any(r["ruleId"] == "THR210" for r in results)

    def test_sarif_clean_run(self, tree, capsys):
        (tree / "state.py").write_text(CLEAN)
        rc = check_main(["src", "--no-cache", "--format", "sarif"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []


class TestChanged:
    # The fallback outside a git work-tree is in analysis/test_cli_deep.py.
    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_changed_narrows_only_the_per_file_rules(self, tree, tmp_path, capsys):
        (tree / "state.py").write_text(RACY)
        (tree / "old.py").write_text("print('committed')\n")
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@t"]
        for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "seed"]):
            subprocess.run(git + cmd, cwd=tmp_path, check=True)
        (tree / "new.py").write_text("print('untracked')\n")
        assert check_main(["src", "--changed", "--no-cache"]) == 1
        out = capsys.readouterr().out
        # Per-file rules see only the changed file ...
        assert "new.py" in out and "old.py" not in out
        # ... while the whole-program rules still see the committed race.
        assert "THR210" in out


class TestMainDispatch:
    def test_repro_main_exposes_check(self, dirty_file):
        from repro.__main__ import HANDLERS, build_parser, main

        assert "check" in HANDLERS
        parser = build_parser()
        args = parser.parse_args(["check", str(dirty_file)])
        assert args.command == "check"
        assert main(["check", str(dirty_file)]) == 1
