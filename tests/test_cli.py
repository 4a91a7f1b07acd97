import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from infcc.cli import main, parse_triangulation
from infcc.triangulation import nested_zigzag


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cc_text(capsys):
    code, out, _ = run(capsys, "cc", "--triangulation", "fountain:0", "--arc", "-3,-1")
    assert code == 0
    assert out.strip() == "(x[-3,0] + 1)/x[-2,0]"


def test_cc_unreachable_exit_2(capsys):
    code, _, err = run(capsys, "cc", "--triangulation", "fountain:0", "--arc", "-1,1")
    assert code == 2
    diag = json.loads(err)
    assert diag["unreachable"]["fountain"] == 0


def test_cc_json_roundtrip(capsys):
    code, out, _ = run(capsys, "cc", "--triangulation", "polygon:0-4:0.2,0.3",
                       "--arc", "1,4", "--format", "json")
    assert code == 0
    from infcc.laurent import LaurentPoly
    from infcc.exchange import cc
    from infcc.arcs import Arc

    parsed = LaurentPoly.from_json(json.loads(out))
    P = parse_triangulation("polygon:0-4:0.2,0.3")
    assert parsed == cc(P, Arc(1, 4))


def test_shorthand_parsing():
    assert parse_triangulation("fountain:3").base.n == 3
    assert parse_triangulation("zigzag:-1") == nested_zigzag(-1)
    P = parse_triangulation("polygon:0-4:0.2,0.3")
    assert P.is_polygon and len(P.polygon_members()) == 2
    spec = json.dumps({"base": {"kind": "zigzag", "anchor": 0}, "flips": []})
    assert parse_triangulation(spec).base == nested_zigzag(0).base


def test_usage_error_exit_1(capsys):
    code, _, err = run(capsys, "cc", "--triangulation", "klein:0", "--arc", "0,2")
    assert code == 1


@pytest.mark.parametrize("spec", ["zigzag:0", "fountain:0"])
@pytest.mark.parametrize("bad_arc", ["0,1", "2,0", "3,0"])
def test_boundary_and_reversed_arcs_exit_1(capsys, spec, bad_arc):
    code, out, err = run(capsys, "cc", "--triangulation", spec, "--arc", bad_arc)
    assert code == 1 and out == ""
    assert err.startswith("usage error:")


def test_tiling_check_and_formats(capsys):
    code, out, _ = run(capsys, "tiling", "--triangulation", "zigzag:0",
                       "--window", "-4,4", "--check", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("j\\i,")
    code, out, _ = run(capsys, "tiling", "--triangulation", "zigzag:0",
                       "--window", "-4,4", "--format", "json")
    cells = {(i, j): v for i, j, v in json.loads(out)}
    assert cells[(0, 3)] == 2


def test_tiling_fountain_exit_2(capsys):
    code, _, err = run(capsys, "tiling", "--triangulation", "fountain:0", "--window", "-4,4")
    assert code == 2
    assert "not_locally_finite" in err


def test_flip_json(capsys):
    code, out, _ = run(capsys, "flip", "--triangulation", "fountain:0",
                       "--arc", "-2,0", "--format", "json")
    payload = json.loads(out)
    assert payload["replacement"] == [-3, -1]
    assert payload["quad"] == [-3, -2, -1, 0]


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", "--triangulation", "zigzag:0",
                       "--window", "-5,5", "--format", "json")
    assert code == 0 and json.loads(out)["valid"]
    # a polygon spec that is not a triangulation is refused before validation
    code, out, err = run(capsys, "validate", "--triangulation", "polygon:0-4:0.2",
                         "--window", "0,4", "--format", "json")
    assert code == 1 and out == "" and err.startswith("usage error:")


def test_quiver(capsys):
    code, out, _ = run(capsys, "quiver", "--triangulation", "polygon:0-4:0.2,0.3",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["arrows"] == [[[0, 3], [0, 2]]]


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "--triangulation", "fountain:0",
                       "--arc", "-4,0", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["rank"] == 2 and payload["all_agree"]


def test_frontier(capsys):
    code, out, _ = run(capsys, "frontier", "--word", "RURU", "--bbox", "-3,-3,3,3",
                       "--format", "json")
    assert code == 0
    cells = {(i, j): v for i, j, v in json.loads(out)}
    assert cells[(0, 2)] == 1 and cells[(-3, 3)] == 5


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "2,3", "--size", "small")
    assert code == 0
    assert out.count("[PASS]") == 2


@pytest.mark.parametrize("verb", ["cc", "flip"])
@pytest.mark.parametrize("spec", ["polygon:0-4:0.2,1.3", "polygon:0-5:0.2"])
def test_polygon_that_is_not_a_triangulation_exit_1(capsys, verb, spec):
    code, out, err = run(capsys, verb, "--triangulation", spec, "--arc", "0,2")
    assert code == 1 and out == ""
    assert err.startswith("usage error:")


@pytest.mark.parametrize("argv", [
    ["tiling", "--triangulation", "zigzag:0", "--window", "4,-4"],
    ["validate", "--triangulation", "zigzag:0", "--window", "4,-4"],
    ["quiver", "--triangulation", "zigzag:0", "--window", "4,-4"],
])
def test_window_without_arcs_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error:")


@pytest.mark.parametrize("spec", [
    '{"base":3}',
    '{"base":{"kind":"zigzag"}}',
    '{"base":{"kind":"fountain","n":null}}',
    '{"base":{"kind":"fountain","n":[0]}}',
    '{"base":{"kind":"zigzag","anchor":0},"flips":[[0,"2"]]}',
    '{"base":{"kind":"polygon","lo":0,"hi":4,"diagonals":7}}',
])
def test_malformed_json_spec_exit_1(capsys, spec):
    code, out, err = run(capsys, "cc", "--triangulation", spec, "--arc", "2,7")
    assert code == 1 and out == ""
    assert err.startswith("usage error:")


@pytest.mark.parametrize("argv", [
    ["cc", "--triangulation", "zigzag:0", "--arc", "2,7"],
    ["flip", "--triangulation", "zigzag:0", "--arc", "0,2"],
    ["validate", "--triangulation", "zigzag:0", "--window", "-3,3"],
    ["reduce", "--triangulation", "fountain:0", "--arc", "-4,0"],
    ["tiling", "--triangulation", "zigzag:0", "--window", "-3,3"],
    ["frontier", "--word", "RURU", "--bbox", "-3,-3,3,3"],
    ["quiver", "--triangulation", "polygon:0-4:0.2,0.3"],
])
def test_unknown_format_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "bogus")
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and "bogus" in err
    code, _, _ = run(capsys, *argv)  # the verb's default format
    assert code == 0


def test_window_text_format_is_ascii(capsys):
    argv = ["tiling", "--triangulation", "zigzag:0", "--window", "-4,4"]
    _, default, _ = run(capsys, *argv)
    _, text, _ = run(capsys, *argv, "--format", "text")
    _, ascii_, _ = run(capsys, *argv, "--format", "ascii")
    assert default == text == ascii_ and " | " in ascii_


@pytest.mark.parametrize("argv", [
    ["cc", "--triangulation", "zigzag:0", "--arc", "0,1"],
    ["cc", "--triangulation", "fountain:0", "--arc", "3,0"],
    ["cc", "--triangulation", "polygon:0-4:0.2,1.3", "--arc", "0,3"],
    ["tiling", "--triangulation", "zigzag:0", "--window", "4,-4"],
    ["cc", "--triangulation", '{"base":3}', "--arc", "2,7"],
    ["cc", "--triangulation", "zigzag:0", "--arc", "2,7", "--format", "bogus"],
])
def test_usage_errors_survive_optimized_mode(argv):
    # python -O strips asserts: a check the CLI relies on must not be one
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-m", "infcc.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
