import hashlib
import json
import resource
import subprocess
import sys

import pytest

from infcc.arcs import Arc
from infcc.cli import main, parse_triangulation
from infcc.tilings import Frontier, extend_frontier
from infcc.triangulation import nested_zigzag

from tests.subproc import src_env


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


# sha1 of `frontier` stdout per argv and format; the last bbox lies about
# 20 rows and columns off the path
FRONTIER_PINS = {
    ("--word", "RURU", "--bbox", "-3,-3,3,3"): {
        "text": "56a71302afe5663a5134035ae584c0426bc674e5",
        "ascii": "56a71302afe5663a5134035ae584c0426bc674e5",
        "csv": "884d8b5e56c4ececbaf8831a8dd8cd81cc3e0505",
        "json": "a9cc8f86b0baf85ed2376b3aca1f195fc5f1d3b3",
    },
    ("--word", "RRUURRRUUR", "--anchor", "2", "--bbox", "-6,-4,5,8"): {
        "text": "bd4d80f2617a615ce6f751f7184f2dc77f31435f",
        "ascii": "bd4d80f2617a615ce6f751f7184f2dc77f31435f",
        "csv": "be195934bc5cee3307c708b804160969a9901b4d",
        "json": "f69f0063b4384e8a292eec8e86291701a4862d49",
    },
    ("--word", "UUR", "--anchor", "-1", "--bbox", "18,20,22,25"): {
        "text": "a3aef5539d36f14f31170852677e377d28156968",
        "ascii": "a3aef5539d36f14f31170852677e377d28156968",
        "csv": "4d7ec8b25ff58c31e446b01a7cc41903e214a574",
        "json": "0193e5b2a7699f9a3eee1f2df1ae9845733190f5",
    },
}


@pytest.mark.parametrize("argv, fmt", [(argv, fmt) for argv in FRONTIER_PINS for fmt in FRONTIER_PINS[argv]])
def test_frontier_output_is_pinned(capsys, argv, fmt):
    code, out, _ = run(capsys, "frontier", *argv, "--format", fmt)
    assert code == 0 and hashlib.sha1(out.encode()).hexdigest() == FRONTIER_PINS[argv][fmt]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))


def test_frontier_far_from_the_path_prints_exact_digits():
    # values with 8,360 and 83,596 digits, past Python's default int-to-str
    # limit of 4,300; the walk keeps only the vectors of the bbox, so 1.5 GB
    # of address space is plenty
    fars = (10_000, 100_000)
    procs = [subprocess.Popen([sys.executable, "-m", "infcc.cli", "frontier", "--word", "RU",
                               "--bbox", f"{far},{far},{far + 2},{far + 2}", "--format", "csv"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=src_env(), preexec_fn=_limit_address_space)
             for far in fars]
    windows = [extend_frontier(Frontier("RU"), (far, far, far + 2, far + 2)) for far in fars]
    limit = sys.get_int_max_str_digits()
    for far, proc, W in zip(fars, procs, windows):
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0 and err == "", err[-500:]
        sys.set_int_max_str_digits(0)
        try:
            want = {(i, j): str(v) for (i, j), v in W.values.items()}
        finally:
            sys.set_int_max_str_digits(limit)
        got = {}
        for line in out.splitlines()[1:]:
            j, *row = line.split(",")
            got.update({(far + k, int(j)): digits for k, digits in enumerate(row)})
        assert got == want and len(want[(far, far)]) > 4300


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


# one working argv per verb except verify
VERB_ARGV = {
    "cc": ["cc", "--triangulation", "zigzag:0", "--arc", "2,7"],
    "flip": ["flip", "--triangulation", "zigzag:0", "--arc", "0,2"],
    "validate": ["validate", "--triangulation", "zigzag:0", "--window", "-3,3"],
    "reduce": ["reduce", "--triangulation", "fountain:0", "--arc", "-4,0"],
    "tiling": ["tiling", "--triangulation", "zigzag:0", "--window", "-3,3"],
    "frontier": ["frontier", "--word", "RURU", "--bbox", "-3,-3,3,3"],
    "quiver": ["quiver", "--triangulation", "polygon:0-4:0.2,0.3"],
}


@pytest.mark.parametrize("argv", list(VERB_ARGV.values()))
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
    proc = subprocess.run([sys.executable, "-O", "-m", "infcc.cli", *argv],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, option", [
    (["validate", "--triangulation", "zigzag:0", "--window", "1,2,3"], "--window"),
    (["tiling", "--triangulation", "zigzag:0", "--window", "a,4"], "--window"),
    (["quiver", "--triangulation", "zigzag:0", "--window", "4"], "--window"),
    (["frontier", "--word", "RU", "--bbox", "1,2"], "--bbox"),
    (["frontier", "--word", "RU", "--bbox", "1,2,3,x"], "--bbox"),
    (["cc", "--triangulation", "zigzag:0", "--arc", "1,2,3"], "--arc"),
    (["flip", "--triangulation", "zigzag:0", "--arc", "x,2"], "--arc"),
    (["cc", "--triangulation", "zigzag:x", "--arc", "2,7"], "--triangulation"),
    (["cc", "--triangulation", "fountain:", "--arc", "2,7"], "--triangulation"),
    (["cc", "--triangulation", "polygon:0-x:", "--arc", "0,2"], "--triangulation"),
    (["cc", "--triangulation", "polygon:0-4:0.2,0.x", "--arc", "0,2"], "--triangulation"),
    (["verify", "--suite", "2,x"], "--suite"),
    (["verify", "--suite", "11"], "--suite"),
])
def test_malformed_option_values_name_the_option(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and option in err and "expects" in err
    assert "unpack" not in err and "invalid literal" not in err


def test_polygon_shorthand_takes_negative_vertices(capsys):
    P = parse_triangulation("polygon:-2-2:-2.0,-2.1")
    assert P.polygon_members() == [Arc(-2, 0), Arc(-2, 1)]
    code, out, _ = run(capsys, "cc", "--triangulation", "polygon:-2-2:-2.0,-2.1", "--arc", "-1,1")
    assert code == 0 and out.strip() == "(x[-2,1] + 1)/x[-2,0]"


# one fresh interpreter running cli.main once: its exit code, its stdout
# and the infcc modules it loaded
_FRESH = """
import contextlib, io, json, sys
from infcc import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "out": out.getvalue(),
                  "modules": sorted(m for m in sys.modules if m.startswith("infcc"))}))
"""

# several verbs in a row in one interpreter, usage errors between them
_IN_A_ROW = """
import contextlib, io, json, sys
from infcc import cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        results.append({"code": cli.main(argv), "out": out.getvalue()})
print(json.dumps(results))
"""

_BAD_ARC = ["cc", "--triangulation", "zigzag:0", "--arc", "1,2,3"]

# the infcc modules beyond infcc, infcc.cli, infcc.arcs and infcc.errors
# that each verb loads (README, "Cold start")
VERB_MODULES = {
    "cc": {"triangulation", "laurent", "exchange"},
    "flip": {"triangulation"},
    "validate": {"triangulation"},
    "quiver": {"triangulation"},
    "tiling": {"triangulation", "modules", "tilings"},
    "frontier": {"triangulation", "modules", "tilings"},
    "reduce": {"triangulation", "laurent", "exchange", "modules", "reduction"},
}


def _start(*args):
    return subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=src_env())


def _result(proc):
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    return json.loads(out)


@pytest.fixture(scope="module")
def fresh_runs():
    procs = {verb: _start("-c", _FRESH, *argv) for verb, argv in VERB_ARGV.items()}
    return {verb: _result(proc) for verb, proc in procs.items()}


@pytest.mark.parametrize("verb", sorted(VERB_MODULES))
def test_each_verb_loads_only_its_modules(fresh_runs, verb):
    run_ = fresh_runs[verb]
    assert run_["code"] == 0
    base = {"infcc", "infcc.cli", "infcc.arcs", "infcc.errors"}
    assert set(run_["modules"]) == base | {f"infcc.{m}" for m in VERB_MODULES[verb]}


def test_verbs_in_a_row_print_what_fresh_processes_print(fresh_runs):
    verbs = list(VERB_ARGV)
    argvs = []
    for verb in verbs:
        argvs += [VERB_ARGV[verb], _BAD_ARC]
    results = _result(_start("-c", _IN_A_ROW, json.dumps(argvs)))
    for i, verb in enumerate(verbs):
        fresh = fresh_runs[verb]
        assert results[2 * i] == {"code": fresh["code"], "out": fresh["out"]}, verb
        assert results[2 * i + 1] == {"code": 1, "out": ""}
