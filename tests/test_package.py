"""The package's contracts with its own code and with ``bench/``.

A top-level public function or class must be named somewhere in the
package (as a name or an attribute), or be imported by the acceptance
tests, which read a few names that no production path calls. A name that
only unit tests use is test code living in ``src/``.

The benchmark reads risloc's modules by attribute, private names
included, and wraps ``harness.estimate`` with a fixed signature; it is
not edited when ``src/`` changes, so a dropped name or a new keyword
would crash it.
"""

import ast
import importlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "risloc"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
BENCH = ROOT / "bench"
#: Modules the bench imports as names and reads attributes of. Span
#: targets (``spans._TARGETS``) are strings that may name missing
#: functions by design, so the scan does not see them.
BENCH_MODULES = ("channel", "cli", "estimator", "geometry", "harness")


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def public_definitions(package):
    """(module, name) of every top-level public function and class in
    the modules of ``package``."""
    return [(path.stem, node.name)
            for path in sorted(package.glob("*.py"))
            for node in _parse(path).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def used_names(package):
    """Every identifier that the package's code names or looks up."""
    names = set()
    for path in package.glob("*.py"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def acceptance_imports(path):
    """Names that ``path`` imports from the risloc package."""
    return {alias.name for node in ast.walk(_parse(path))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "risloc"
            for alias in node.names}


def unused_public_names(package, acceptance):
    keep = used_names(package) | acceptance_imports(acceptance)
    return [f"{module}.{name}"
            for module, name in public_definitions(package)
            if name not in keep]


def test_every_public_name_has_a_caller():
    # The scan must see the package, or an empty tree would pass.
    assert {"estimate", "generate_snapshot", "main"} <= \
        {name for _, name in public_definitions(PACKAGE)}
    unused = unused_public_names(PACKAGE, ACCEPTANCE)
    assert not unused, ("public functions or classes that neither the "
                        f"package nor the acceptance tests use: {unused}")


def bench_reads(bench):
    """(module, name) of every risloc attribute and imported name that
    the scripts in ``bench`` read."""
    reads = set()
    for path in sorted(bench.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in BENCH_MODULES:
                reads.add((f"risloc.{node.value.id}", node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "risloc":
                reads.update((node.module, alias.name)
                             for alias in node.names)
    return reads


def _exists(module, name):
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_name_the_bench_reads_exists():
    reads = bench_reads(BENCH)
    # The scan must see the bench's private reads too.
    assert {("risloc.estimator", "_SINGLE_PRECISION_THRESHOLD"),
            ("risloc.harness", "estimate"),
            ("risloc.harness", "ExperimentConfig")} <= reads
    missing = sorted(f"{m}.{n}" for m, n in reads if not _exists(m, n))
    assert not missing, f"names that bench/ reads and risloc lacks: {missing}"


def test_bench_sweeps_capture_every_estimate(layout, scenario, monkeypatch):
    # The bench's own round: harness.estimate replaced by a wrapper of
    # signature (y, model, est_config, coarse_result=None).
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    from risloc import harness
    from risloc.estimator import GridSpec
    from risloc.harness import VARIANTS, AoiSpec, ExperimentConfig
    run = SimpleNamespace(in_round=lambda fn: fn(), scenario=scenario,
                          layout=layout, structural=[], trials=[])
    base = dict(scenario=scenario, layout=layout, runs=1, seed_base=3,
                grid=GridSpec(azimuth_deg=(-20, 20, 1),
                              elevation_deg=(-30, 10, 1),
                              range_m=(0.1, 3.9, 0.2)))
    line = ExperimentConfig(variants=tuple(VARIANTS), threads=1, **base)
    xs = (1.6, 2.0)
    aoi = ExperimentConfig(
        variants=("gs-nf",), threads=2, **base,
        aoi=AoiSpec(x_min=1.2, x_max=2.0, y_min=-0.4, y_max=0.4, step=0.4))
    rounds = [
        workloads._sweep(run, line,
                         lambda: harness.line_sweep(line, 0.0, -0.5, xs),
                         [np.array([x, 0.0, -0.5]) for x in xs], False),
        workloads._sweep(run, aoi, lambda: harness.aoi_sweep(aoi),
                         aoi.aoi.grid_points(), False)]
    for config, points, captured, _ in rounds:
        assert len(captured) \
            == len(points) * config.runs * len(config.variants)
    workloads._check_rounds(run, rounds)
    assert run.structural == []
    assert len(run.trials) == 2 * 4 + 9
