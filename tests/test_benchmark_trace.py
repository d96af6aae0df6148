"""The benchmark's layer tracer still finds every name it patches.

``perfbench/layertrace.py`` wraps barkfib functions and methods by name
for traced benchmark runs, so deleting or renaming one of them breaks
those runs.  Its after-call hooks also read attributes of what those
functions return, such as ``SplittingReport.ambiguous``.  These tests
install the tracer, run barkfib under it and remove it again; the
benchmark file is only imported, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


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
