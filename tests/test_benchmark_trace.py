"""The benchmark still finds every barkfib name it uses.

``perfbench/layertrace.py`` wraps barkfib functions and methods by name
for traced benchmark runs, so deleting or renaming one of them breaks
those runs.  Its after-call hooks also read attributes of what those
functions return, such as ``SplittingReport.ambiguous``.  These tests
install the tracer, run barkfib under it and remove it again.  The
other perfbench files import barkfib names; their self-checks lie
outside ``testpaths``, so these tests read those imports too.  The
benchmark files are only imported or parsed, never changed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERTRACE = PERFBENCH / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_objects(layertrace):
    def module(name):
        return importlib.import_module("barkfib." + name)

    found = {(mod, attr): getattr(module(mod), attr) for mod, attr, *_ in layertrace.FUNCTIONS}
    for mod, cls, method, *_ in layertrace.METHODS:
        found[(mod, cls, method)] = vars(getattr(module(mod), cls))[method]
    return found


def test_layer_trace_installs_and_uninstalls():
    layertrace = _layertrace()
    before = _traced_objects(layertrace)
    trace = layertrace.LayerTrace()
    try:
        trace.install()
        patched = _traced_objects(layertrace)
        assert all(patched[key] is not before[key] for key in before)
    finally:
        trace.uninstall()
    assert _traced_objects(layertrace) == before


def test_layer_trace_hooks_read_the_results():
    from barkfib import crust, subord
    from barkfib.kodaira import parse_fiber

    models, cases = crust.load_catalog()
    case = next(c for c in cases if c["id"] == "5.3")
    trace = _layertrace().LayerTrace()
    try:
        trace.install()
        # called through the modules, whose names the tracer patched
        case_crust = crust.crust_from_json(models["IV"], case["crust"])
        subord.full_report(parse_fiber("IV"), parse_fiber("I2"), crust=case_crust)
        crust.enumerate_simple_crusts(models["IV"], 1)
    finally:
        trace.uninstall()
    assert trace.counts["subord.full_report_calls"] == 1
    assert trace.counts["subord.ambiguous"] == 1
    assert trace.counts["crust.crusts_found"] > 0


def _resolve(module, name):
    """``name`` from barkfib module ``module``: an attribute or a submodule."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    return importlib.import_module(module + "." + name)


def _barkfib_uses(tree):
    """(module, name) for every ``from barkfib... import name`` in ``tree``
    and every ``alias.name`` read from a barkfib module imported by name;
    ``import barkfib.x`` gives (barkfib.x, None)."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "barkfib":
                    yield alias.name, None
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:
                        aliases["barkfib"] = "barkfib"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "barkfib":
            for alias in node.names:
                yield node.module, alias.name
                if node.module == "barkfib":  # the package's names are its modules
                    aliases[alias.asname or alias.name] = "barkfib." + alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                yield aliases[node.value.id], node.attr


def test_perfbench_barkfib_names_resolve():
    missing, used = [], 0
    for path in sorted(PERFBENCH.glob("*.py")):
        for module, name in _barkfib_uses(ast.parse(path.read_text(), str(path))):
            used += 1
            try:
                importlib.import_module(module) if name is None else _resolve(module, name)
            except (ImportError, AttributeError):
                missing.append("%s: %s.%s" % (path.name, module, name))
    assert used > 0
    assert missing == []


def test_perfbench_corrupts_witnesses_with_word_mul():
    # test_corrupted_witness_fails appends a letter with `conjugator * word(...)`
    from barkfib.sl2z import Word, word

    assert "__mul__" in vars(Word)
    assert Word() * word(("s0", 1)) == word(("s0", 1))
