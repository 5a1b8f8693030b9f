"""The benchmark scripts run against the package as it stands: a renamed
name they import fails here, not at the next measurement."""

import importlib.util
import json
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_SCALE = BENCHMARKS / "bench_scale.py"
BENCH_SEARCH = BENCHMARKS / "bench_search.py"


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


def test_bench_search_runs_every_case(capsys):
    bench = load(BENCH_SEARCH)
    assert bench.main(["--repeat", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    names = [name for name, *_ in bench.CASES + bench.FOLD_CASES] + ["--p sweeps"]
    assert [row[:28].rstrip() for row in rows] == names
