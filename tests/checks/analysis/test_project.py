"""Symbol table, call resolution, and call-graph facts."""

from repro.checks.analysis import CallGraph, Project
from repro.checks.analysis.project import module_name_for


class TestModuleNames:
    def test_src_prefix_stripped(self):
        assert module_name_for("src/repro/core/gemm.py") == "repro.core.gemm"

    def test_init_maps_to_package(self):
        assert module_name_for("src/repro/core/__init__.py") == "repro.core"

    def test_no_src_marker(self):
        assert module_name_for("repro/serve/http.py") == "repro.serve.http"


def build(sources):
    project = Project.from_sources(sources)
    return project, CallGraph.build(project)


class TestCallResolution:
    def test_local_function_call(self):
        project, graph = build(
            {
                "src/repro/demo/m.py": (
                    "def helper():\n"
                    "    pass\n"
                    "\n"
                    "def caller():\n"
                    "    helper()\n"
                ),
            }
        )
        assert any(
            e.caller == "repro.demo.m.caller" and e.callee == "repro.demo.m.helper"
            for e in graph.edges
        )

    def test_from_import_call(self):
        project, graph = build(
            {
                "src/repro/demo/a.py": "def target():\n    pass\n",
                "src/repro/demo/b.py": (
                    "from repro.demo.a import target\n"
                    "\n"
                    "def caller():\n"
                    "    target()\n"
                ),
            }
        )
        assert any(
            e.caller == "repro.demo.b.caller" and e.callee == "repro.demo.a.target"
            for e in graph.edges
        )

    def test_module_alias_attribute_call(self):
        project, graph = build(
            {
                "src/repro/demo/a.py": "def target():\n    pass\n",
                "src/repro/demo/b.py": (
                    "import repro.demo.a as util\n"
                    "\n"
                    "def caller():\n"
                    "    util.target()\n"
                ),
            }
        )
        assert any(e.callee == "repro.demo.a.target" for e in graph.edges)

    def test_self_method_call(self):
        project, graph = build(
            {
                "src/repro/demo/c.py": (
                    "class Worker:\n"
                    "    def _run(self):\n"
                    "        pass\n"
                    "\n"
                    "    def start(self):\n"
                    "        self._run()\n"
                ),
            }
        )
        assert any(
            e.caller == "repro.demo.c.Worker.start"
            and e.callee == "repro.demo.c.Worker._run"
            for e in graph.edges
        )

    def test_self_attr_method_call_via_attr_types(self):
        project, graph = build(
            {
                "src/repro/demo/c.py": (
                    "class Engine:\n"
                    "    def infer(self):\n"
                    "        pass\n"
                    "\n"
                    "class Server:\n"
                    "    def __init__(self):\n"
                    "        self.engine = Engine()\n"
                    "\n"
                    "    def handle(self):\n"
                    "        self.engine.infer()\n"
                ),
            }
        )
        assert any(
            e.caller == "repro.demo.c.Server.handle"
            and e.callee == "repro.demo.c.Engine.infer"
            for e in graph.edges
        )

    def test_method_resolution_through_base_class(self):
        project, graph = build(
            {
                "src/repro/demo/c.py": (
                    "class Base:\n"
                    "    def shared(self):\n"
                    "        pass\n"
                    "\n"
                    "class Child(Base):\n"
                    "    def go(self):\n"
                    "        self.shared()\n"
                ),
            }
        )
        assert any(
            e.caller == "repro.demo.c.Child.go"
            and e.callee == "repro.demo.c.Base.shared"
            for e in graph.edges
        )


class TestThreadRoots:
    def test_thread_target_resolved(self):
        _, graph = build(
            {
                "src/repro/demo/t.py": (
                    "import threading\n"
                    "\n"
                    "def loop():\n"
                    "    pass\n"
                    "\n"
                    "def start():\n"
                    "    threading.Thread(target=loop, daemon=True).start()\n"
                ),
            }
        )
        roots = [(r.kind, r.target, r.resolved) for r in graph.roots]
        assert roots == [("thread", "repro.demo.t.loop", True)]

    def test_unresolved_thread_target_kept_as_pseudo_root(self):
        _, graph = build(
            {
                "src/repro/demo/t.py": (
                    "import threading\n"
                    "\n"
                    "class S:\n"
                    "    def start(self):\n"
                    "        threading.Thread(target=self._httpd.serve_forever).start()\n"
                ),
            }
        )
        assert len(graph.roots) == 1
        r = graph.roots[0]
        assert not r.resolved
        assert "serve_forever" in r.target

    def test_unresolved_submit_arg_is_not_a_root(self):
        # The project's own Batcher.submit(arr) takes data, not a
        # callable — an unresolvable first arg must not become a root.
        _, graph = build(
            {
                "src/repro/demo/t.py": (
                    "def handle(batcher, arr):\n"
                    "    return batcher.submit(arr)\n"
                ),
            }
        )
        assert graph.roots == []

    def test_resolved_submit_arg_is_a_root(self):
        _, graph = build(
            {
                "src/repro/demo/t.py": (
                    "def work(block):\n"
                    "    pass\n"
                    "\n"
                    "def fan_out(pool, blocks):\n"
                    "    return [pool.submit(work, b) for b in blocks]\n"
                ),
            }
        )
        assert [(r.kind, r.target) for r in graph.roots] == [
            ("submit", "repro.demo.t.work")
        ]

    def test_process_target_discovered(self):
        _, graph = build(
            {
                "src/repro/demo/w.py": "def replica_main(cfg):\n    pass\n",
                "src/repro/demo/sup.py": (
                    "import multiprocessing as mp\n"
                    "\n"
                    "from repro.demo.w import replica_main\n"
                    "\n"
                    "def spawn(cfg):\n"
                    "    mp.Process(target=replica_main, args=(cfg,)).start()\n"
                ),
            }
        )
        assert [(r.kind, r.target, r.resolved) for r in graph.roots] == [
            ("process", "repro.demo.w.replica_main", True)
        ]


class TestEntryLocksets:
    SRC = (
        "import threading\n"
        "\n"
        "_lock = threading.Lock()\n"
        "\n"
        "\n"
        "def _helper():\n"
        "    pass\n"
        "\n"
        "\n"
        "def locked_caller():\n"
        "    with _lock:\n"
        "        _helper()\n"
        "\n"
        "\n"
        "def other_locked_caller():\n"
        "    with _lock:\n"
        "        _helper()\n"
    )

    def test_must_hold_intersection(self):
        _, graph = build({"src/repro/demo/e.py": self.SRC})
        assert graph.entry_lockset("repro.demo.e._helper") == {
            "repro.demo.e._lock"
        }

    def test_public_function_pinned_to_empty(self):
        # A public name is callable from anywhere — never assume locks.
        src = self.SRC.replace("_helper", "helper")
        _, graph = build({"src/repro/demo/e.py": src})
        assert graph.entry_lockset("repro.demo.e.helper") == frozenset()

    def test_one_unlocked_caller_clears_the_set(self):
        src = self.SRC + "\n\ndef unlocked_caller():\n    _helper()\n"
        _, graph = build({"src/repro/demo/e.py": src})
        assert graph.entry_lockset("repro.demo.e._helper") == frozenset()

    def test_reachability_from_roots(self):
        src = (
            "import threading\n"
            "\n"
            "def _leaf():\n"
            "    pass\n"
            "\n"
            "def _mid():\n"
            "    _leaf()\n"
            "\n"
            "def start():\n"
            "    threading.Thread(target=_mid).start()\n"
        )
        _, graph = build({"src/repro/demo/r.py": src})
        assert graph.roots_reaching("repro.demo.r._leaf") == {"repro.demo.r._mid"}
        assert graph.roots_reaching("repro.demo.r.start") == set()

