import ast
import importlib
import json
import os
import pkgutil
import statistics
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


ROOT = Path(__file__).resolve().parents[1]
SRC_FILES = sorted((ROOT / "src" / "diqkd").glob("*.py"))

# public names that no src code reads, each kept on purpose
UNREAD_BY_DESIGN = {
    "diqkd.__version__": "package metadata, read by users and packaging tools",
    "postprocess.tag_collision_bound": "the tag's collision bound, for the key tagging that no command runs yet",
}


def _reads(paths):
    """Names the code at paths loads, bare or as an attribute, outside any def or class of that name."""
    names = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in enclosing:
                names.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return names


def test_every_exported_name_is_read_by_the_program(monkeypatch):
    # a public name that only tests reach is a second copy to keep in step: each name in a module's
    # __all__ is read by src code other than its own definition, or perfbench wraps it (TARGETS)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    known = _reads(SRC_FILES) | {t.attr for t in importlib.import_module("workloads").TARGETS}
    unread = []
    for path in SRC_FILES:
        module = "diqkd" if path.stem == "__init__" else path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                unread += [f"{module}.{name}" for name in ast.literal_eval(node.value) if name not in known]
    assert sorted(unread) == sorted(UNREAD_BY_DESIGN)


def test_every_public_method_is_read_by_the_program():
    # the same rule for the methods of src classes; perfbench's workloads count as a reader, since
    # the extract workload builds its key and its report through two of them
    read = _reads([*SRC_FILES, ROOT / "perfbench" / "workloads.py"])
    unread = [
        f"{path.stem}.{cls.name}.{node.name}"
        for path in SRC_FILES
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and node.name not in read
    ]
    assert unread == []


def _defaulted_parameters(path):
    """(name, qualified name, parameter, position) of each defaulted parameter of path's public functions and of the
    public methods of its public classes.  The position is the parameter's index among a call's positional
    arguments, past self or cls; a keyword-only parameter has None."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defs = [(node, node.name, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                    defs.append((node, f"{cls.name}.{node.name}", 0 if static else 1))
    out = []
    for node, qualname, skip in defs:
        if node.name.startswith("_"):
            continue
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        first = len(positional) - len(args.defaults)
        out += [(node.name, qualname, a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
        out += [(node.name, qualname, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def test_every_defaulted_parameter_is_passed_by_the_program():
    # the rule above for argument forms: a parameter whose default every caller takes is a second call shape
    # that only tests reach.  Calls are matched by name, as _reads matches reads; a call passes a parameter by
    # position, by keyword, or through *args or **kwargs that reach it.  The console entry point calls main()
    # with no argv, so sys.argv is read.
    callers = [*SRC_FILES, ROOT / "perfbench" / "workloads.py", ROOT / "perfbench" / "worker.py"]
    calls = [
        node
        for path in callers
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    ]

    def passed(call, param, position):
        if any(k.arg in (param, None) for k in call.keywords):
            return True
        if position is None:
            return False
        return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args[: position + 1])

    never = [
        f"{path.stem}.{qualname}({param})"
        for path in SRC_FILES
        for name, qualname, param, position in _defaulted_parameters(path)
        if not any(
            passed(call, param, position)
            for call in calls
            if (call.func.id if isinstance(call.func, ast.Name) else call.func.attr) == name
        )
    ]
    assert sorted(never) == ["cli.main(argv)"]


def test_start_up_does_not_import_scipy_stats():
    # scipy is a test dependency only: importing scipy.special alone costs
    # about 0.25 s and 24 MB of every command's start-up, so no module of
    # it may be loaded by the package, an analytic run, a simulated run or
    # a sweep; nor statistics, which pulls in fractions and decimal
    # (4-8 ms), nor hashlib (3-5 ms), which only a written artifact needs
    script = (
        "import sys\n"
        "import diqkd, diqkd.cli\n"
        "config = diqkd.cli.load_config(None, {})\n"
        "diqkd.cli.run_pipeline(config.replace(analytic=True))\n"
        "diqkd.cli.run_pipeline(config.replace(n=10_000))\n"
        "diqkd.cli.sweep_keyrate_vs_n(config, [500_000, 10_000_000])\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy', '_hashlib'))\n"
        "             or m in ('statistics', 'hashlib')))\n"
    )
    src = str(Path(diqkd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_runs_load_no_numpy_module_past_import_numpy():
    # a numpy module first loaded by a run is start-up that every command pays
    # at its first call: np.unique, for one, imports numpy.ma (16-18 ms)
    script = (
        "import sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import diqkd.cli\n"
        "config = diqkd.cli.load_config(None, {})\n"
        "diqkd.cli.run_pipeline(config.replace(analytic=True))\n"
        "diqkd.cli.run_pipeline(config.replace(n=10_000))\n"
        "diqkd.cli.sweep_keyrate_vs_n(config, [500_000, 10_000_000])\n"
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy')))\n"
    )
    src = str(Path(diqkd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_start_up_creates_no_dataclass_and_leaves_the_tables_unloaded(tmp_path):
    # under PYTHONDONTWRITEBYTECODE every start compiles what it imports, and
    # a frozen dataclass costs about 1.2 ms of code generation; so the
    # benchmark's set-up imports (perfbench/workloads.py and worker.py), an
    # analytic run, a simulated run and a sweep create none and leave the
    # table builders unloaded; a config file then loads no further diqkd
    # module, and the distance table loads tables alone (diqkd.data, the
    # namespace package importlib.resources reads the bundle from, is data)
    (tmp_path / "run.cfg").write_text("protocol.n = 10000\n")
    script = (
        "import dataclasses, json, sys\n"
        "made = []\n"
        "process = dataclasses._process_class\n"
        "dataclasses._process_class = lambda cls, *a, **k: made.append(cls.__name__) or process(cls, *a, **k)\n"
        "from diqkd import cli, eat, postprocess, protocol, renyi, rng\n"
        "config = cli.load_config(None, {'security.analytic': 'true', 'analysis.s_obs': '2.612'})\n"
        "cli.run_pipeline(config)\n"
        "cli.run_pipeline(config.replace(analytic=False, s_obs=None, n=10_000))\n"
        "cli.sweep_keyrate_vs_n(config, [500_000, 10_000_000])\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('diqkd.') and m != 'diqkd.data')\n"
        "steps = [made, loaded()]\n"
        "cli.load_config('run.cfg')\n"
        "steps.append(loaded())\n"
        "assert cli.main(['--out', 'out', 'distance']) == 0\n"
        "steps.append(loaded())\n"
        "print(json.dumps(steps))\n"
    )
    src = str(Path(diqkd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
    made, started, with_file, with_table = json.loads(out.stdout)
    assert made == [] and "diqkd.cli" in started and "diqkd.tables" not in started
    assert with_file == started
    assert with_table == sorted([*started, "diqkd.tables"])


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

    from diqkd import cli, protocol
    from diqkd.rng import CounterRng

    config = cli.load_config(None, {"security.method": "eat", "protocol.n": "20000", "seed": "7"})
    plain = cli.run_pipeline(config).to_json()
    tracer = spans.Tracer()
    # the innermost open span at each draw: perfbench fails an operation
    # whose time sits outside the wrapped layers, in its root span
    drawn_in = []
    round_words = CounterRng.round_words

    def recorded(self, *args):
        drawn_in.append(tracer.spans[tracer._stack[-1]][0])
        return round_words(self, *args)

    monkeypatch.setattr(CounterRng, "round_words", recorded)
    with tracer.patched(workloads.TARGETS):
        traced = tracer.wrap("cli.run_pipeline", cli.run_pipeline)(config).to_json()
        # the column path, which no command calls: its byte measure reads the seven n-long int8 columns
        n = 1000
        params = protocol.ProtocolParams(n, 0.26, 0.13, 0.83, 0.0, (0, 0, 0), (n, n, n), seed=7)
        protocol.test_statistic(protocol.sift(protocol.generate_transcript(cli._model_behavior(config), params)))
    assert traced == plain
    assert tracer.counts["renyi.acceptance_box.calls"] == tracer.counts["eat.delta_for_completeness.calls"] == 1
    assert drawn_in and "cli.run_pipeline" not in drawn_in
    assert tracer.counts["protocol.generate.bytes"] == tracer.counts["protocol.sift.bytes"] == 7 * n


def test_traced_analytic_run_passes_the_worker_checks(monkeypatch):
    # the benchmark's traced analytic-11km operation, run through perfbench's own
    # worker functions: it fails if its report bytes differ from an untraced run's,
    # or if cli.run_pipeline's own frame holds over MAX_UNATTRIBUTED of its wall
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    worker = importlib.import_module("worker")
    workloads = importlib.import_module("workloads")

    from diqkd import cli

    config = cli.load_config(None, workloads.config_overrides("analytic-11km", 7))
    wl = workloads.prepare("analytic-11km", config, 7)
    plain = wl.report(wl.op())
    calls = ("renyi.h_alpha", "renyi.acceptance_box", "eat.delta_for_completeness", "eat.leak_ec")
    shares = []
    for _ in range(15):
        tracer = worker.Tracer()
        out, wall, draws, _ = worker.run_once(wl, tracer, None)
        assert wl.report(out) == plain
        assert wl.check(out, draws) == []
        layers = worker.layer_metrics(tracer, wl.root, draws)
        assert [layers[f"{name}_calls"] for name in calls] == [2, 1, 1, 1]
        shares.append(layers["cli.self_s"] / wall)
    assert statistics.median(shares) < worker.MAX_UNATTRIBUTED, shares


def test_traced_sweep_passes_the_worker_checks(monkeypatch):
    # the benchmark's traced sweep-n operation through perfbench's worker functions: the sweep's per-point
    # loop stays in cli.sweep_keyrate_vs_n's own frame, so its share of the wall is checked as the worker does;
    # the whole sweep makes one pair of order-search passes and one box call, and each point one delta and
    # leak_ec call
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    worker = importlib.import_module("worker")
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")

    from diqkd import cli

    config = cli.load_config(None, workloads.config_overrides("sweep-n", 7))
    wl = workloads.prepare("sweep-n", config, 7)
    plain = wl.report(wl.op())
    calls = ("renyi.h_alpha", "renyi.acceptance_box", "eat.delta_for_completeness", "eat.leak_ec")
    shares = []
    for _ in range(15):
        tracer = worker.Tracer()
        out, wall, draws, _ = worker.run_once(wl, tracer, None)
        assert wl.report(out) == plain
        assert checks.check_sweep(out) == []
        layers = worker.layer_metrics(tracer, wl.root, draws)
        assert [layers[f"{name}_calls"] for name in calls] == [2, 1, 2, 2]
        assert tracer.counts["renyi.key_length_renyi.calls"] == 1
        shares.append(layers["cli.self_s"] / wall)
    assert statistics.median(shares) < worker.MAX_UNATTRIBUTED, shares
