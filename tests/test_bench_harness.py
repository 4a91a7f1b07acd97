"""The shared driver of bench/: the resolution rule, the rounds and the child interpreter."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "harness", Path(__file__).resolve().parent.parent / "bench" / "harness.py")
harness = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(harness)


def test_overlapping_ranges_are_unresolved_even_when_quartiles_part():
    base = [10.0] * 8 + [5.0]
    new = [6.0] * 8 + [11.0]
    # the quartile ranges, [10, 10] and [6, 6], do not overlap; the full ranges do
    assert harness.ratio(base, new) == "unresolved"
    assert harness.ratio(base, base) == "unresolved"  # equal, but not one value


def test_an_exact_tie_on_every_round_is_a_ratio_of_one():
    assert harness.ratio([12.184012] * 5, [12.184012] * 5) == 1.0
    assert harness.ratio([3], [3, 3, 3]) == 1.0
    # one differing round anywhere leaves overlapping ranges unresolved
    assert harness.ratio([12.184012] * 4 + [12.2], [12.184012] * 5) == "unresolved"
    assert harness.ratio([12.184012] * 5, [12.184012] * 4 + [12.1]) == "unresolved"


def test_a_ratio_when_every_round_of_one_tree_beats_the_other():
    assert harness.ratio([10.0, 11.0, 12.0], [5.0, 5.5, 6.0]) == 2.0
    assert harness.ratio([5.0, 5.5, 6.0], [10.0, 11.0, 12.0]) == 0.5


def test_compare_alternates_the_first_tree_and_writes_every_round(tmp_path):
    orders = []

    def round_fn(trees):
        orders.append(list(trees))
        r = len(orders)
        return {"baseline": {"t": 10.0 + r}, "change": {"t": 5.0 + r % 2}}

    out = tmp_path / "BENCH_fake.json"
    harness.compare("fake benchmark", out, 4, round_fn,
                    argv=["--baseline", str(tmp_path)], unit="ms")
    assert orders == [["baseline", "change"], ["change", "baseline"]] * 2
    result = json.loads(out.read_text())
    assert result["unit"] == "ms" and result["rounds"] == 4
    assert result["samples"] == {"baseline": {"t": [11.0, 12.0, 13.0, 14.0]},
                                 "change": {"t": [6.0, 5.0, 6.0, 5.0]}}
    assert result["figures"] == {"baseline": {"t": 12.5}, "change": {"t": 5.5}}
    assert result["quartiles"]["baseline"]["t"] == [11.75, 13.25]
    assert result["ratio_baseline_over_change"] == {"t": 12.5 / 5.5}


def test_child_runs_measure_in_a_fresh_interpreter(tmp_path):
    script = tmp_path / "probe.py"
    script.write_text(
        "import os\n"
        "import harness  # bench/ is on the child's sys.path\n"
        "def measure():\n"
        "    return {'pid': os.getpid(), 'path': os.environ['PYTHONPATH'],\n"
        "            'nobytecode': os.environ['PYTHONDONTWRITEBYTECODE']}\n")
    got = harness.child(script, tmp_path / "src")
    assert got["pid"] != os.getpid()
    assert got["path"] == str(tmp_path / "src") and got["nobytecode"] == "1"
    script.write_text("def measure():\n    raise RuntimeError('probe failed')\n")
    with pytest.raises(harness.ChildFailed, match="probe failed"):
        harness.child(script, tmp_path / "src")
