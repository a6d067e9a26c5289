"""CLI dispatch: usage/exit codes, the dispatch table, and console entry.

Covers the contract that ``python -m repro`` (and the installed ``repro``
script) prints usage and exits 2 for missing/unknown commands instead of
tracebacking, and that every registered subcommand has a handler.
"""


import pytest

from repro.__main__ import HANDLERS, build_parser, main


class TestDispatchTable:
    def test_every_subcommand_has_a_handler(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if a.__class__.__name__ == "_SubParsersAction"
        )
        assert set(sub.choices) == set(HANDLERS)

    def test_serve_commands_registered(self):
        assert "serve" in HANDLERS
        assert "bench-serve" not in HANDLERS

    def test_handlers_are_callable(self):
        assert all(callable(h) for h in HANDLERS.values())


class TestExitCodes:
    def test_no_command_prints_usage_and_exits_2(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "command is required" in err

    @pytest.mark.parametrize(
        "command", ["definitely-not-a-command", "bench-serve"]
    )
    def test_unknown_command_exits_2(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_info_returns_zero(self, capsys):
        assert main(["info"]) == 0
        assert "ODQ" in capsys.readouterr().out

    def test_main_returns_int(self):
        # the [project.scripts] entry point requires an int return
        assert isinstance(main(["info"]), int)

    def test_module_entry_exits_with_main_result(self):
        # `python -m repro` wraps main() in sys.exit
        import repro.__main__ as mod

        assert mod.main.__module__ == "repro.__main__"
        assert "sys.exit(main())" in open(mod.__file__).read()


class TestServeArgs:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.model == "lenet"
        assert args.scheme == "odq"
        assert args.workers >= 1

    def test_serve_config_round_trip(self):
        from repro.__main__ import _serve_config_from_args

        args = build_parser().parse_args(
            ["serve", "--model", "lenet", "--scheme", "odq",
             "--threshold", "0.4", "--port", "0", "--max-batch-size", "4"]
        )
        cfg = _serve_config_from_args(args)
        assert cfg.threshold == 0.4
        assert cfg.port == 0
        assert cfg.max_batch_size == 4

    def test_serve_pins_one_malloc_arena(self, monkeypatch):
        """`repro serve` asks libc for one malloc arena before building
        anything, and carries on where libc has no mallopt."""
        import ctypes

        import repro.__main__ as cli

        calls = []

        class _Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: _Libc())
        cli._one_malloc_arena()
        assert calls == [(-8, 1)]  # M_ARENA_MAX from glibc's malloc.h
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        cli._one_malloc_arena()
        assert calls == [(-8, 1)]

        def stop(_config, verbose=False):
            raise RuntimeError("stop before the session build")

        monkeypatch.setattr(cli, "_one_malloc_arena", lambda: calls.append("serve"))
        monkeypatch.setattr("repro.serve.server.InferenceServer", stop)
        with pytest.raises(RuntimeError, match="session build"):
            main(["serve", "--port", "0"])
        assert calls[-1] == "serve"

    @pytest.mark.parametrize("flag", ["--replicas", "--telemetry-spool"])
    def test_process_lane_flags_are_usage_errors(self, flag, capsys):
        # Worker threads are the only serving lane; a replica-process
        # flag must fail loudly instead of being ignored.
        with pytest.raises(SystemExit) as exc:
            main(["serve", flag, "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["lenet", "lenet5"])
def test_lenet_alias_builds(name):
    from repro.models.registry import build_model

    model = build_model(name, num_classes=10, in_channels=1, image_size=28)
    assert model is not None


def test_console_script_declared():
    import pathlib

    pyproject = (
        pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    ).read_text()
    assert '[project.scripts]' in pyproject
    assert 'repro = "repro.__main__:main"' in pyproject


class TestGlobalFlagPosition:
    # The subcommand parser shares the observability parent and copies
    # its namespace over the root's — plain defaults would clobber
    # flags given before the subcommand (`repro --trace serve`).
    def test_flags_before_subcommand_survive(self):
        args = build_parser().parse_args(
            ["--trace", "--trace-out", "t.json", "serve"]
        )
        assert getattr(args, "trace", False) is True
        assert getattr(args, "trace_out", None) == "t.json"

    def test_flags_after_subcommand_survive(self):
        args = build_parser().parse_args(["serve", "--trace"])
        assert getattr(args, "trace", False) is True

    def test_unset_flags_are_absent_not_false_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert getattr(args, "trace", False) is False
        assert getattr(args, "trace_out", None) is None
