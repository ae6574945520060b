"""The benchmark tracer patches library names by string; each must still exist.

perfbench/tracer.py wraps every name in its TRACED and COUNTED tables
when the benchmark runs with --trace 1, and its hooks read fields of
the results.  A name or field deleted or renamed in the library would
crash that run only, so both are checked here.
"""

import importlib
import importlib.util
import pathlib
import runpy

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


def test_every_hook_reads_what_the_library_returns(tmp_path, capsys):
    # After each traced call a hook reads fields of its result
    # (TwoScaleReport.checked_cells, MraReport.rows, ...); one gone would
    # make every traced op raise, which the name check above cannot see.
    import vilenkin_wavelets.cli as cli
    import vilenkin_wavelets.transform  # noqa: F401  (installed modules only)

    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        runpy.run_path(str(ROOT / "demos" / "02_mra_and_filters.py"), run_name="__main__")
        family = str(ROOT / "families" / "shannon2.json")
        code = cli.main(["verify", "--p", "2", "--input", family, "--output", str(tmp_path / "r.json")])
    finally:
        tracer.remove()
    assert code == 0 and "refinement equations" in capsys.readouterr().out
    for counter in (
        "mra.accumulate_calls",
        "mra.spectrum_resolved",
        "mra.mra_rows",
        "mra.identity_cells_checked",
        "mra.two_scale_cells_checked",
        "setalg.cells_at.cells",
        "famio.report_bytes",
    ):
        assert tracer.counters.get(counter, 0) > 0, counter
