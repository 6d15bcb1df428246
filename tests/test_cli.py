import json
import math
import time
import warnings

import pytest

from substochastic import honesty, montecarlo
from substochastic.cli import main, parse_t_grid
from substochastic.honesty import delta_by_routes, honesty_verdict
from substochastic.l1 import PosSeq
from substochastic.models import dump_model, load_model
from substochastic.montecarlo import CSV_HEADER
from substochastic.zoo import bd_kill, pure_loss, quadratic_birth, two_state, yule
from test_minimal import FAR_OK

EXP1 = math.exp(-1.0)
EXP2 = math.exp(-2.0)


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("models")
    paths = {}
    for m in (yule(), quadratic_birth(), two_state(), pure_loss(), bd_kill()):
        p = d / f"{m.name}.json"
        dump_model(m, str(p))
        paths[m.name] = str(p)
    bad = d / "bad.json"
    bad.write_text('{"name": "x", "bogus": 1}')
    paths["bad"] = str(bad)
    notjson = d / "notjson.json"
    notjson.write_text("{{{")
    paths["notjson"] = str(notjson)
    return paths


class TestGridParsing:
    def test_range_inclusive_of_both_ends(self):
        assert parse_t_grid("0:1:0.25") == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert parse_t_grid("0.5:2:0.7") == (0.5, 1.2, 1.9, 2.0)

    def test_single_and_list(self):
        assert parse_t_grid("0") == (0.0,)
        assert parse_t_grid("0.5,1,2") == (0.5, 1.0, 2.0)

    def test_rejects_bad_specs(self):
        for spec in ("1:0:0.5", "0:1:0", "2,1", "0:1:0.1:9", "-1:1:0.5"):
            with pytest.raises(ValueError):
                parse_t_grid(spec)


_NON_FINITE = [
    ("verdict", "quadratic_birth", ["--lambda", "inf"]),
    ("verdict", "quadratic_birth", ["--lambda", "nan"]),
    ("verdict", "quadratic_birth", ["--tol", "nan"]),
    ("verdict", "quadratic_birth", ["--tol", "inf"]),
    ("trajectory", "two_state", ["--t-grid", "0:inf:1"]),
    ("trajectory", "two_state", ["--t-grid", "0:nan:1"]),
    ("trajectory", "two_state", ["--t-grid", "0:1:nan"]),
    ("trajectory", "two_state", ["--t-grid", "0:1:inf"]),
    ("trajectory", "two_state", ["--t-grid", "inf"]),
    ("trajectory", "two_state", ["--t-grid", "0,nan"]),
    ("compare", "two_state", ["--t-grid", "inf"]),
    ("compare", "two_state", ["--t-grid", "0.5,inf"]),
]


@pytest.mark.parametrize("command, model, args", _NON_FINITE, ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_non_finite_input_exits_one(model_files, tmp_path, capsys, command, model, args):
    out = tmp_path / "r.out"
    assert main([command, "--model", model_files[model], *args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error:")
    assert not out.exists()


# starts beyond what each command can hold: every command reads below 2^22
# from a start below 2^21, the bound on every named state
_HUGE_START = [
    ("trajectory", "two_state", str(10**12)),
    ("verdict", "quadratic_birth", str(10**21)),
    ("verdict", "quadratic_birth", str(2**21)),
    ("verdict", "quadratic_birth", str(5_000_000)),
    ("simulate", "bd_kill", str(10**8)),
]


@pytest.mark.parametrize("command, model, initial", _HUGE_START)
def test_huge_initial_state_exits_one(model_files, tmp_path, capsys, command, model, initial):
    out = tmp_path / "r.out"
    t0 = time.perf_counter()
    assert main([command, "--model", model_files[model], "--initial", initial, "--out", str(out)]) == 1
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("command", ["verdict", "trajectory", "simulate"])
def test_subnormal_rate_exits_one(tmp_path, capsys, command):
    # 1/5e-324 overflows, which the certified tail bounds of this explosive
    # cascade would divide by
    doc = {
        "name": "subnormal",
        "space": "l1",
        "A": {"kind": "power", "c": 5e-324, "p": 1.5},
        "B": {"kind": "pure_birth"},
        "conservative": True,
    }
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.out"
    assert main([command, "--model", str(path), "--paths", "100", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("command", ["verdict", "trajectory", "simulate"])
def test_tiny_rate_ends_in_a_result_without_warnings(tmp_path, capsys, command):
    # c = 5.6e-309 loads (its reciprocal is finite), but lam/a, the holding
    # times and 1/c^2 overflow; each command must still end in a result or
    # in one error line, with every warning an error
    doc = {
        "name": "tiny",
        "space": "l1",
        "A": {"kind": "power", "c": 5.6e-309, "p": 1.5},
        "B": {"kind": "pure_birth"},
        "conservative": True,
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--model", str(path), "--paths", "1000", "--out", str(out)])
    err = capsys.readouterr().err
    if rc == 1:
        assert err.count("error:") == 1 and err.startswith("error:")
        return
    assert rc in (0, 10, 20) and err == ""
    if command == "verdict":
        # xi > 0 (sum 1/a_k converges), far below the smallest float: the
        # upper edge must not round down to 0
        doc = json.loads(out.read_text())
        for b in [doc["xi"], *doc["evidence"]["lambda_sweep"].values()]:
            assert 0.0 <= b["lo"] <= b["hi"] and b["hi"] > 0.0


def test_overflowing_poisson_window_gives_a_flagged_row(tmp_path, capsys):
    # c t = 1e310 leaves floating point: the uniformized pass fits no
    # budget, so the row is the trivial certified [0, |u|], without warnings
    doc = {
        "name": "huge_rate",
        "space": "l1",
        "A": {"kind": "power", "c": 1e300, "p": 0},
        "B": {"kind": "pure_birth"},
        "conservative": True,
    }
    path = tmp_path / "huge_rate.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["trajectory", "--model", str(path), "--t-grid", "1e10", "--out", str(out)])
    assert rc == 0 and capsys.readouterr().err == ""
    t, mass_lo, mass_hi, *_ = (float(x) for x in out.read_text().strip().split("\n")[1].split(","))
    assert (t, mass_lo, mass_hi) == (1e10, 0.0, 1.0)


def test_overflowing_rate_exits_one(tmp_path, capsys):
    # 1e300 (k+1)^10 leaves floating point at k = 6: the loader says so in
    # one error line, with every warning an error
    doc = {
        "name": "overflowing_rate",
        "space": "l1",
        "A": {"kind": "power", "c": 1e300, "p": 10},
        "B": {"kind": "pure_birth"},
        "conservative": True,
    }
    path = tmp_path / "overflowing_rate.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["trajectory", "--model", str(path), "--t-grid", "0.5", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and err.count("error:") == 1 and err.startswith("error:")
    assert "overflows" in err and not out.exists()


@pytest.mark.parametrize("command", ["verdict", "trajectory", "simulate"])
def test_rate_overflowing_past_the_audit_depth_exits_one(tmp_path, capsys, command):
    # 1e280 (k+1)^10 is finite on the states 0..256 but not at 2^22, past
    # everything the three commands read from a start below 2^21
    doc = {
        "name": "deep_overflow",
        "space": "l1",
        "A": {"kind": "power", "c": 1e280, "p": 10},
        "B": {"kind": "pure_birth"},
        "conservative": True,
    }
    path = tmp_path / "deep_overflow.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--model", str(path), "--paths", "100", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and err.count("error:") == 1 and err.startswith("error:")
    assert "overflows" in err and not out.exists()


# a table column naming a state at or past 2^21: the target 2^40 under
# A = (k+1)^30, and a key past int64
_FAR_STATES = {
    "target": ({"kind": "power", "c": 1.0, "p": 30.0}, [[0, [[1 << 40, 0.5]]]]),
    "key": ({"kind": "power", "c": 1.0, "p": 1.0}, [[10**20, [[0, 0.5]]]]),
}


@pytest.mark.parametrize("command", ["verdict", "trajectory", "simulate"])
@pytest.mark.parametrize("far", sorted(_FAR_STATES))
def test_table_state_past_the_state_limit_exits_one(tmp_path, capsys, command, far):
    a, columns = _FAR_STATES[far]
    doc = {"name": "far", "space": "l1", "A": a, "B": {"kind": "table", "columns": columns, "tail": None}, "conservative": False}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.out"
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--model", str(path), "--paths", "100", "--out", str(out)])
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert rc == 1 and err.count("error:") == 1 and err.startswith("error:")
    assert "2^21" in err and not out.exists()


@pytest.mark.parametrize("args", [["trajectory", "--t-grid", "0.5,1"], ["compare"]])
def test_a_far_table_target_exits_one(tmp_path, capsys, args):
    # a valid model, but the Dyson-Phillips state of trajectory and compare
    # would hold about 1.7e8 counted states
    path = tmp_path / "far_ok.json"
    path.write_text(json.dumps(FAR_OK))
    out = tmp_path / "r.out"
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([*args, "--model", str(path), "--out", str(out)])
    assert time.perf_counter() - t0 < 2.0
    err = capsys.readouterr().err
    assert rc == 1 and err.count("\n") == 1 and err.startswith("error:")
    assert "counted chain" in err and not out.exists()


def test_command_line_exit_codes(model_files, capsys):
    # an unknown command and --help end in argparse's SystemExit, which
    # main turns into its exit code; a check of main's own ends in one line
    assert main(["bogus"]) == 1
    assert main(["--help"]) == 0
    assert main(["simulate", "--model", model_files["pure_loss"], "--paths", "0"]) == 1
    err = capsys.readouterr().err
    assert err.endswith("error: paths must be >= 1\n")


_POWER = {"kind": "power", "c": 1.0, "p": 0.0}

# one malformed piece each, in an otherwise valid model, and its message
_MALFORMED = {
    "not_an_object": ([], "model file: expected a JSON object"),
    "B_not_an_object": ({"B": []}, "B: expected an object"),
    "B_tail_not_null": ({"B": {"kind": "table", "columns": [], "tail": {}}}, "B.tail: only null is supported"),
    "unknown_kernel_kind": ({"B": {"kind": "jump"}}, "B: unknown kernel kind 'jump'"),
    "rate_not_an_object": ({"A": 5}, "A: expected an object"),
    "rate_tail_not_an_object": ({"A": {"kind": "table", "values": [1.0], "tail": 5}}, "A.tail: expected an object"),
    "unknown_rate_kind": ({"A": {"kind": "exp"}}, "A: unknown rate kind 'exp'"),
}


class TestVerdictCommand:
    def test_honest_exit_zero(self, model_files, tmp_path):
        out = tmp_path / "r.json"
        assert main(["verdict", "--model", model_files["yule"], "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "Honest"

    def test_dishonest_exit_ten(self, model_files, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["verdict", "--model", model_files["quadratic_birth"], "--out", str(out)])
        assert rc == 10
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "Dishonest"
        assert doc["xi"]["lo"] == pytest.approx(0.2720290, abs=1e-6)

    def test_malformed_model_exit_one(self, model_files, capsys):
        assert main(["verdict", "--model", model_files["bad"]]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["verdict", "--model", model_files["notjson"]]) == 1

    @pytest.mark.parametrize("change, message", list(_MALFORMED.values()), ids=list(_MALFORMED))
    def test_malformed_model_file_exit_one(self, tmp_path, capsys, change, message):
        doc = {"name": "x", "space": "l1", "A": _POWER, "B": {"kind": "zero"}, "conservative": False}
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({**doc, **change} if isinstance(change, dict) else change))
        assert main(["verdict", "--model", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and message in err

    def test_deep_column_violation_exit_one(self, tmp_path, capsys):
        # a column at k = 300 feeding rate 5 while a_300 = 1
        doc = {
            "name": "deep",
            "space": "l1",
            "A": {"kind": "power", "c": 1.0, "p": 0.0},
            "B": {"kind": "table", "columns": [[300, [[301, 5.0]]]], "tail": None},
            "conservative": False,
        }
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc))
        assert main(["verdict", "--model", str(path), "--initial", "300"]) == 1
        assert "column 300" in capsys.readouterr().err

    def test_deep_tail_violation_exit_one(self, tmp_path, capsys):
        # birth 1e-40 (k+1)^10 outgrows the constant diagonal only far past k = 256
        doc = {
            "name": "deep_tail",
            "space": "l1",
            "A": {"kind": "table", "values": [1.0], "tail": {"c": 2.0, "p": 0.0}},
            "B": {
                "kind": "birth_death",
                "b": {"kind": "power", "c": 1e-40, "p": 10.0},
                "d": {"kind": "power", "c": 1.0, "p": 0.0},
                "kill": {"kind": "power", "c": 1.0, "p": 0.0},
            },
            "conservative": False,
        }
        path = tmp_path / "deep_tail.json"
        path.write_text(json.dumps(doc))
        for k in ("12000", "20000"):
            assert main(["verdict", "--model", str(path), "--initial", k]) == 1
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and "tail mismatch" in err

    def test_lambda_sweep_disagreement_exit_twenty(self, model_files, tmp_path):
        # at tol 0.3 the cascade's defect (0.272 at lambda 1) classifies as
        # zero at lambda 1 and 2 but not at 0.5; the zero set of xi cannot
        # depend on lambda, so the verdict is Undetermined
        out = tmp_path / "r.json"
        rc = main(["verdict", "--model", model_files["quadratic_birth"], "--tol", "0.3", "--out", str(out)])
        assert rc == 20
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "Undetermined" and doc["route"] == "resolvent"
        assert doc["evidence"]["lambda_sweep_consistent"] is False
        sweep = {lam: v["verdict"] for lam, v in doc["evidence"]["lambda_sweep"].items()}
        assert sweep == {"0.5": "Dishonest", "1.0": "Honest", "2.0": "Honest"}

    def test_subsolution_route_exit_zero(self, tmp_path):
        # a self-loop at state 0: J e0 = e0/(1+lam) <= e0 certifies honesty,
        # while at lambda 1e-9 the iterated bound is still ~1 after the cap
        doc = {
            "name": "self_loop",
            "space": "l1",
            "A": {"kind": "table", "values": [1.0], "tail": {"c": 1.0, "p": 0.0}},
            "B": {"kind": "table", "columns": [[0, [[0, 1.0]]]], "tail": None},
            "conservative": False,
        }
        path = tmp_path / "self_loop.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert main(["verdict", "--model", str(path), "--lambda", "1e-9", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["verdict"] == "Honest" and rep["route"] == "subsolution"
        assert rep["evidence"]["subsolution_certificate"] is True
        assert rep["evidence"]["iterations"] == 5000
        assert rep["xi"]["hi"] == pytest.approx(math.exp(-5000 * math.log1p(1e-9)), rel=1e-9)

    def test_report_is_the_library_verdict_at_tol(self, model_files, tmp_path):
        # the CLI passes --tol as given; the 1e-12 floors live in honesty_verdict
        m = load_model(model_files["bd_kill"])
        u = PosSeq.basis(1)
        out = tmp_path / "r.json"
        for tol in (1e-8, 1.5e-12, 1e-13):
            args = ["verdict", "--model", model_files["bd_kill"], "--initial", "1", "--lambda", "0.5"]
            assert main(args + ["--tol", repr(tol), "--out", str(out)]) == 0
            doc = honesty_verdict(m, u, 0.5, tol).to_json()
            doc["config"] = {"model": "bd_kill", "initial": 1, "lambda": 0.5, "tol": tol}
            assert out.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert honesty_verdict(m, u, 0.5, 1e-13) == honesty_verdict(m, u, 0.5, 1e-12)

    def test_table_head_past_first_window_exit_zero(self, tmp_path):
        # A's head runs to k = 2048, twice the first product window; birth
        # (k+1)^2 equals A only past the head, where prod n^2/(n^2+lam) over
        # n >= 1 is pi sqrt(lam) / sinh(pi sqrt(lam)), so the exact xi is
        # about e^-717 (subnormal) and the trajectory is honest
        a = [(k + 1) ** 2 + 10 for k in range(1024)] + [2 * (k + 1) ** 2 for k in range(1024, 2048)]
        doc = {
            "name": "half_head",
            "space": "l1",
            "A": {"kind": "table", "values": a, "tail": {"c": 1.0, "p": 2.0}},
            "B": {"kind": "pure_birth", "birth": {"kind": "power", "c": 1.0, "p": 2.0}},
            "conservative": False,
        }
        path = tmp_path / "half_head.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert main(["verdict", "--model", str(path), "--tol", "2e-6", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["verdict"] == "Honest"
        for lam, br in rep["evidence"]["lambda_sweep"].items():
            lam = float(lam)
            s = math.pi * math.sqrt(lam)
            log_xi = math.fsum(math.log((n * n + lam) / (lam + a[n - 1])) for n in range(1, 2049))
            log_xi += math.log(s / math.sinh(s))
            assert math.log(br["lo"]) <= log_xi <= math.log(br["hi"]), lam

    def test_report_round_trips_bit_exactly(self, model_files, tmp_path):
        out = tmp_path / "r.json"
        main(["verdict", "--model", model_files["quadratic_birth"], "--out", str(out)])
        text = out.read_text()
        doc = json.loads(text)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text
        again = json.loads(json.dumps(doc))
        assert again["xi"]["lo"] == doc["xi"]["lo"]
        assert again["xi"]["hi"] == doc["xi"]["hi"]


class TestTrajectoryCommand:
    def test_single_zero_row(self, model_files, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["trajectory", "--model", model_files["two_state"], "--t-grid", "0", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,mass_lo,mass_hi,abar,ahat,delta_lo,delta_hi"
        row = [float(x) for x in lines[1].split(",")]
        assert row == [0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]

    def test_two_state_masses(self, model_files, tmp_path):
        out = tmp_path / "t.csv"
        main(["trajectory", "--model", model_files["two_state"], "--t-grid", "0:1:0.5", "--out", str(out)])
        lines = out.read_text().strip().split("\n")[1:]
        exact = {0.0: 1.0, 0.5: math.exp(-0.5) + math.exp(-0.5) - math.exp(-1.0), 1.0: EXP1 + EXP1 - EXP2}
        for line in lines:
            t, mass_lo, mass_hi, *_ = (float(x) for x in line.split(","))
            assert mass_lo == pytest.approx(exact[t], abs=1e-8)
            assert mass_hi == pytest.approx(exact[t], abs=1e-8)

    def test_quadratic_delta_negative_nonincreasing(self, model_files, tmp_path):
        out = tmp_path / "t.csv"
        main(
            [
                "trajectory",
                "--model",
                model_files["quadratic_birth"],
                "--t-grid",
                "0.25,0.5",
                "--out",
                str(out),
            ]
        )
        rows = [
            [float(x) for x in line.split(",")]
            for line in out.read_text().strip().split("\n")[1:]
        ]
        his = [r[6] for r in rows]
        los = [r[5] for r in rows]
        assert all(h < 0 for h in his)
        assert los[1] <= his[0]


class TestCompareCommand:
    def test_two_state_routes_agree(self, model_files, tmp_path):
        out = tmp_path / "c.json"
        assert main(
            ["compare", "--model", model_files["two_state"], "--t-grid", "0.5,1", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] and doc["max_discrepancy"] <= 1e-8
        assert len(doc["rows"]) == 2

    def test_yule_both_routes_flat(self, model_files, tmp_path):
        out = tmp_path / "c.json"
        main(["compare", "--model", model_files["yule"], "--t-grid", "1", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["max_discrepancy"] == 0.0

    def test_zero_kernel_exact_agreement(self, model_files, tmp_path):
        out = tmp_path / "c.json"
        main(["compare", "--model", model_files["pure_loss"], "--t-grid", "0.5,1", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["pass"] and doc["max_discrepancy"] <= 1e-9


LOSS_243 = {
    "name": "loss243",
    "space": "l1",
    "A": {"kind": "table", "values": [243.0], "tail": {"c": 1.0, "p": 0.0}},
    "B": {"kind": "table", "columns": [[0, []]], "tail": None},
    "conservative": False,
}
CHAIN_9 = {
    "name": "chain9",
    "space": "l1",
    "A": {
        "kind": "table",
        "values": [148.74, 73.51, 13.002, 18.082, 361.0, 2.198, 229.104, 20.034, 1.806],
        "tail": {"c": 1.0, "p": 0.0},
    },
    "B": {
        "kind": "table",
        "columns": [
            [0, [[4, 22.346], [5, 5.171], [7, 92.442]]],
            [1, [[4, 40.255], [2, 8.306], [6, 2.653]]],
            [2, [[7, 0.113], [6, 8.913], [0, 0.04]]],
            [3, [[8, 2.093], [5, 2.466], [6, 7.639]]],
            [4, [[2, 0.246], [8, 5.971], [0, 76.921]]],
            [5, [[7, 1.439], [4, 0.362], [2, 0.115]]],
            [6, [[2, 141.565], [5, 18.065], [8, 17.828]]],
            [7, [[4, 8.382], [0, 0.782], [6, 10.48]]],
            [8, [[6, 0.125], [7, 0.089], [3, 1.039]]],
        ],
        "tail": None,
    },
    "conservative": False,
}


class TestStiffRates:
    """Stiff finite chains, where every route must still certify."""

    @pytest.mark.parametrize("doc, a, t", [(LOSS_243, 243.0, 2.9), ("pure_loss", 1.0, 700.0)])
    def test_flushed_mass_ends_in_a_certified_row(self, model_files, tmp_path, capsys, doc, a, t):
        # V(t)u falls below the flush threshold 1e-300: the resolvent route
        # carries the flushed tail as a pad instead of an error exit
        if doc == "pure_loss":
            path = model_files["pure_loss"]
        else:
            path = tmp_path / "m.json"
            path.write_text(json.dumps(doc))
        out = tmp_path / "t.csv"
        assert main(["trajectory", "--model", str(path), "--t-grid", repr(t), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, mass_lo, mass_hi, abar, ahat, delta_lo, delta_hi = (float(x) for x in out.read_text().split("\n")[1].split(","))
        assert mass_lo <= math.exp(-a * t) <= mass_hi
        assert delta_lo <= 0.0 <= delta_hi

    def test_loss_compare_passes_and_ahat_holds_the_closed_form(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(LOSS_243))
        out = tmp_path / "c.json"
        assert main(["compare", "--model", str(path), "--t-grid", "0.5,2.8", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["pass"] is True
        rows = delta_by_routes(load_model(str(path)), (0.5, 2.8), PosSeq.basis(0))
        for t, (_, dp) in zip((0.5, 2.8), rows):
            assert dp.functional.lo <= -math.expm1(-243.0 * t) <= dp.functional.hi

    def test_chain_compare_passes_with_one_quick_build(self, tmp_path, monkeypatch):
        builds = []

        class Timed(honesty.DPState):
            def __init__(self, *args):
                start = time.perf_counter()
                super().__init__(*args)
                builds.append(time.perf_counter() - start)

        monkeypatch.setattr(honesty, "DPState", Timed)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(CHAIN_9))
        out = tmp_path / "c.json"
        args = ["compare", "--model", str(path), "--initial", "0", "--t-grid", "2.011,3.216,4.01"]
        assert main([*args, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["pass"] is True
        assert len(builds) == 1 and builds[0] < 3.0


class TestSimulateCommand:
    def test_csv_shape_and_determinism(self, model_files, tmp_path):
        o1, o2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = [
            "simulate",
            "--model",
            model_files["two_state"],
            "--t-grid",
            "0.5,1",
            "--paths",
            "5000",
            "--seed",
            "3",
        ]
        assert main(args + ["--out", str(o1)]) == 0
        assert main(args + ["--out", str(o2)]) == 0
        assert o1.read_text() == o2.read_text()
        lines = o1.read_text().strip().split("\n")
        assert lines[0] == "t,survival,survival_ci,exploded,exploded_ci,killed,killed_ci"
        assert len(lines) == 3

    def test_aborted_paths_warned(self, model_files, tmp_path, capsys, monkeypatch):
        # under a cap of 2^10 the remaining time of a quadratic_birth path is
        # about 1e-3, so every path that reaches the cap within that of t is
        # left undecided: some of 100k are, at any seed
        monkeypatch.setattr(montecarlo, "STATE_CAP", 1 << 10)
        out = tmp_path / "sim.csv"
        args = ["simulate", "--model", model_files["quadratic_birth"], "--t-grid", "0.5,1"]
        assert main(args + ["--paths", "100000", "--seed", "1", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        expected = []
        for t in (0.5, 1.0):
            aborted = montecarlo.simulate(quadratic_birth(), PosSeq.basis(0), t, 100_000, 1).aborted
            assert aborted > 0
            expected.append(
                f"warning: t={t!r}: {aborted} of 100000 paths reached the state cap undecided"
                " and are left out of every fraction"
            )
        assert captured.err.splitlines() == expected
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER and len(lines) == 3

    def test_header_and_shape(self, model_files, tmp_path):
        out = tmp_path / "sim.csv"
        args = ["simulate", "--model", model_files["quadratic_birth"], "--t-grid", "0.5,1"]
        assert main(args + ["--paths", "2000", "--seed", "3", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        first = dict(zip(CSV_HEADER.split(","), lines[1].split(",")))
        assert float(first["t"]) == 0.5
        assert float(first["survival"]) + float(first["exploded"]) + float(first["killed"]) == 1.0
