"""The benchmark tracer patches library names by string; each must still exist.

perfbench/tracer.py wraps every name in its TRACED and COUNTED tables
when the benchmark runs with --trace 1.  A name deleted or renamed in
the library would crash that run only, so the tables are checked here.
"""

import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    tracer = load_tracer()
    tables = [*tracer.TRACED.items(), *tracer.COUNTED.items()]
    assert tables
    for short, attrs in tables:
        module = importlib.import_module(f"vilenkin_wavelets.{short}")
        for attr in attrs:
            if attr.startswith("PSet."):
                # The tracer takes methods from the class dictionary itself.
                assert attr.split(".", 1)[1] in module.PSet.__dict__, f"{short}.{attr}"
            else:
                assert callable(getattr(module, attr, None)), f"{short}.{attr}"
