import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import diqkd


def test_every_exported_name_exists():
    # a stale __all__ entry makes `from module import *` raise
    names = ["diqkd"] + [f"diqkd.{m.name}" for m in pkgutil.iter_modules(diqkd.__path__) if m.name != "__main__"]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in module.__all__ if not hasattr(module, attr)]
    assert "diqkd.protocol" in names
    assert missing == []


def test_start_up_does_not_import_scipy_stats():
    # scipy is a test dependency only: importing scipy.special alone costs
    # about 0.25 s and 24 MB of every command's start-up, so no module of
    # it may be loaded by the package, an analytic run or a simulated run
    script = (
        "import dataclasses, sys\n"
        "import diqkd, diqkd.cli\n"
        "config = diqkd.cli.load_config(None, {})\n"
        "diqkd.cli.run_pipeline(dataclasses.replace(config, analytic=True))\n"
        "diqkd.cli.run_pipeline(dataclasses.replace(config, n=10_000))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = str(Path(diqkd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_every_import_is_used():
    # no linter is a dependency, so this stands in for an unused-import
    # rule: an imported name must be read somewhere or be re-exported
    unused = []
    for path in sorted(Path(diqkd.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, exported = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exported = set(ast.literal_eval(node.value))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used | exported]
    assert unused == []


def test_benchmark_targets_resolve_and_trace_the_same_report(monkeypatch):
    # perfbench wraps these names by module attribute; a renamed or
    # deleted one would only show in its own suite, outside testpaths
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    assert [t.attr for t in workloads.TARGETS if not callable(getattr(t.module, t.attr, None))] == []

    from diqkd import cli

    config = cli.load_config(None, {"security.method": "eat", "protocol.n": "20000", "seed": "7"})
    plain = cli.run_pipeline(config).to_json()
    tracer = spans.Tracer()
    with tracer.patched(workloads.TARGETS):
        traced = cli.run_pipeline(config).to_json()
    assert traced == plain
    assert tracer.counts["renyi.acceptance_box.calls"] == tracer.counts["eat.delta_for_completeness.calls"] == 1
