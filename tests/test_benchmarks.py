"""The benchmark scripts run against the package as it stands: a renamed
name they import fails here, not at the next measurement."""

import importlib.util
import json
from pathlib import Path

BENCH_SCALE = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_scale.py"


def load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_scale_runs_every_family(tmp_path):
    bench = load(BENCH_SCALE)
    out = tmp_path / "scale.json"
    assert bench.main(["--sizes", "40,80", "--repeat", "1", "--json", str(out)]) == 0
    points = json.loads(out.read_text())["points"]
    assert sorted(points) == sorted(f"{f} {v}" for f, v in bench.POINTS)
    assert {f for f, _ in bench.POINTS} == set(bench.FAMILIES)
    for point in points.values():
        assert len(point["rows"]) == 2
