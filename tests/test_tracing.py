"""The benchmark's tracer wraps the program's layer boundaries by
module and class attribute; these names must stay where it finds them."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

from scatcalc.ordinal import from_int
from scatcalc.term import parse_term

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
MODULES = ("term", "rank", "rewrite", "compare", "generators", "oracle", "cli")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_the_layers():
    sc = SimpleNamespace(**{n: importlib.import_module(f"scatcalc.{n}") for n in MODULES})
    normalize, engine_compare = sc.rewrite.normalize, sc.compare.Engine.compare
    tracer = _load_tracing().Tracer()
    tracer.install(sc)
    try:
        engine = sc.compare.Engine()
        engine.compare(parse_term("pgl{omega(pgl{omega(one)})}"), parse_term("pgl{omega(pgl{one})}"))
        sc.generators.generator_set(from_int(2))
        names = {span[0] for span in tracer.take()["spans"]}
    finally:
        tracer.uninstall()
    assert {"rewrite.normalize", "compare.Engine.compare", "generators.generator_raw"} <= names
    # the rewrite rules ask the calling engine, not the module-level compare
    assert "compare.compare" not in names
    assert sc.rewrite.normalize is normalize and sc.compare.Engine.compare is engine_compare
