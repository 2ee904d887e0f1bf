"""CLI behavior: JSON outputs, exit codes, file artifacts, determinism."""

import json
import math

import pytest

from kmajority import cli, experiments, meanfield
from kmajority.cli import main
from kmajority.graph import load_edge_list, parse_graph_spec
from kmajority.meanfield import MAX_K


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestMeanfieldCommand:
    def test_near_critical(self, capsys):
        doc = run_json(capsys, "meanfield", "--k", "3", "--p", "0.111111111",
                       "--mode", "edge")
        assert doc["schema"] == 1
        assert doc["regime"] in ("critical", "subcritical")
        for root in doc["roots"][1:]:
            assert abs(root - 27 / 32) < 1e-4
        assert doc["roots"][0] == 0.0

    def test_supercritical(self, capsys):
        doc = run_json(capsys, "meanfield", "--k", "3", "--p", "0.3")
        assert doc["regime"] == "supercritical"
        assert doc["roots"] == [0.0]
        doc = run_json(capsys, "meanfield", "--k", "3", "--p", "0.3", "--mode", "node")
        assert (doc["regime"], doc["roots"]) == ("supercritical", [0.0])

    @pytest.mark.parametrize("mode, tangency", [("edge", 27 / 32), ("node", 3 / 4)])
    def test_roots_below_threshold(self, capsys, mode, tangency):
        # roots lists the distinct fixed points in ascending order: 0 and the
        # tangency point, or 0, phi- and phi+
        args = ("meanfield", "--k", "3", "--mode", mode, "--p")
        doc = run_json(capsys, *args, "0.1111111111111111")
        assert doc["regime"] == "critical"
        assert doc["roots"] == [0.0, doc["phi_plus"]]
        assert doc["phi_minus"] == doc["phi_plus"] == doc["mu"]
        assert abs(doc["mu"] - tangency) < 1e-9
        doc = run_json(capsys, *args, "0.05")
        assert doc["regime"] == "subcritical"
        assert doc["roots"] == [0.0, doc["phi_minus"], doc["phi_plus"]]

    def test_node_mode_phi_plus(self, capsys):
        doc = run_json(capsys, "meanfield", "--k", "3", "--p", "0.05", "--mode", "node")
        assert doc["phi_plus"] == pytest.approx(0.94022, abs=1e-4)

    def test_trajectory(self, capsys):
        doc = run_json(capsys, "meanfield", "--k", "3", "--p", "0.05",
                       "--q0", "1.0", "--rounds", "5")
        vals = doc["trajectory"]["values"]
        assert len(vals) == 6
        assert vals[1] == pytest.approx(0.99275, abs=1e-12)

    def test_even_k_requires_q0(self, capsys):
        code, _, err = run_cli(capsys, "meanfield", "--k", "4", "--p", "0.05")
        assert code == 2
        assert "error" in json.loads(err)
        doc = run_json(capsys, "meanfield", "--k", "4", "--p", "0.05",
                       "--q0", "1.0", "--rounds", "3")
        assert "regime" not in doc
        assert len(doc["trajectory"]["values"]) == 4

    def test_k1_orbit(self, capsys):
        # k = 1 follows the linear law F(x) = (1-p) x; it used to exit 2
        # while k = 2, which follows the same law, printed its orbit
        doc = run_json(capsys, "meanfield", "--k", "1", "--p", "0.1",
                       "--q0", "0.9", "--rounds", "3")
        assert "regime" not in doc
        assert doc["trajectory"]["values"] == [0.9, 0.9 * 0.9, 0.9 * 0.9 * 0.9,
                                               0.9 * 0.9 * 0.9 * 0.9]
        code, _, err = run_cli(capsys, "meanfield", "--k", "1", "--p", "0.1")
        assert code == 2
        assert "--q0" in json.loads(err)["error"]


class TestCriticalCommand:
    def test_k3(self, capsys):
        doc = run_json(capsys, "critical", "--k", "3")
        assert doc["p_star_k"] == pytest.approx(1 / 9, abs=1e-9)
        assert doc["p_star_kq"] is None

    def test_k3_with_q_one(self, capsys):
        doc = run_json(capsys, "critical", "--k", "3", "--q", "1.0")
        assert doc["p_star_kq"] == doc["p_star_k"]

    def test_k5_between_bounds(self, capsys):
        doc = run_json(capsys, "critical", "--k", "5")
        assert 1 / 9 < doc["p_star_k"] < 0.5

    def test_even_k_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "critical", "--k", "4")
        assert code == 2
        assert "odd" in json.loads(err)["error"]

    @pytest.mark.parametrize("q", [None, "0.6"])
    def test_tol_above_cap_exits_2_before_solving(self, capsys, count_calls, q):
        # --tol 1 printed p*_3 = 0.3056, the first bracket's midpoint, and
        # exited 0; the true value is 1/9
        solves = count_calls(meanfield, "_classify")
        argv = ["critical", "--k", "3", "--tol", "1"] + (["--q", q] if q else [])
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, solves) == (2, "", [])
        assert "at most 0.001" in json.loads(err)["error"]

    def test_k_above_cap_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "critical", "--k", "10001")
        assert code == 2
        assert "10000" in json.loads(err)["error"]


class TestSimulateCommand:
    def test_no_bias_censors_at_full_r(self, capsys):
        doc = run_json(capsys, "simulate", "--graph", "complete:n=500",
                       "--family", "kmaj", "--k", "3", "--p", "0", "--q", "1",
                       "--seed", "1")
        assert doc["censored"] is True
        assert doc["final_r_fraction"] == 1.0
        assert doc["params"]["max_rounds"] == 262  # 10 ln 500 + 200

    def test_graph_spec_parses_back(self, capsys):
        # the label kept six significant digits of p: gnp:n=50,p=0.123457
        text = "gnp:n=50,p=0.123456789"
        doc = run_json(capsys, "simulate", "--graph", text, "--k", "3", "--p", "0.05",
                       "--max-rounds", "3")
        assert doc["graph"]["spec"] == text
        assert parse_graph_spec(doc["graph"]["spec"]) == parse_graph_spec(text)

    def test_det_fast_disruption(self, capsys):
        doc = run_json(capsys, "simulate", "--graph", "complete:n=500",
                       "--family", "det", "--p", "0.6", "--mode", "edge",
                       "--q", "1", "--seed", "1")
        assert doc["tau"] == 1

    def test_voter_disrupts_within_bound(self, capsys):
        doc = run_json(capsys, "simulate", "--graph", "complete:n=500",
                       "--family", "voter", "--p", "0.1", "--q", "1", "--seed", "1")
        assert doc["tau"] is not None and doc["tau"] <= 207

    def test_voter_accepts_k1(self, capsys):
        args = ("simulate", "--graph", "complete:n=200", "--family", "voter",
                "--p", "0.1", "--q", "1", "--seed", "3")
        plain = run_json(capsys, *args)
        with_k = run_json(capsys, *args, "--k", "1")
        assert with_k["params"].pop("k") == 1 and plain["params"].pop("k") is None
        assert with_k == plain

    def test_trace_file(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        doc = run_json(capsys, "simulate", "--graph", "complete:n=100",
                       "--k", "3", "--p", "0.2", "--seed", "2",
                       "--trace", str(trace), "--phi-detail")
        lines = trace.read_text().splitlines()
        assert lines[0] == "round,r_volume_fraction,phi_min,phi_max"
        assert len(lines) == doc["rounds_simulated"] + 2

    def test_byte_identical_output(self, capsys):
        args = ("simulate", "--graph", "complete:n=300", "--k", "3", "--p", "0.15",
                "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_det_rejects_k(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--graph", "complete:n=100",
                               "--family", "det", "--k", "3", "--p", "0.6")
        assert code == 2

    def test_missing_graph_file_is_runtime_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--graph", "file:/nonexistent.edges",
                               "--k", "3", "--p", "0.1")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("simulate", "--graph", "file:{}", "--k", "3", "--p", "0.1"),
        ("graphgen", "--spec", "file:{}", "--out", "{}.out"),
    ], ids=lambda argv: argv[0])
    def test_non_utf8_graph_file_is_runtime_error(self, capsys, tmp_path, argv):
        # exited 2 with a bare codec message; a malformed edge list exits 1
        path = tmp_path / "bad.edges"
        path.write_bytes(b"\xff\xfe0 1\n")
        code, out, err = run_cli(capsys, *(a.format(path) for a in argv))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"].startswith("line 1: not UTF-8 text")
        assert not (tmp_path / "bad.edges.out").exists()

    def test_allocation_failure_is_runtime_error(self, capsys):
        # K_n's offsets for n = 10**15 would take 8 PB; MemoryError used to
        # escape main with a traceback and no JSON
        code, out, err = run_cli(capsys, "simulate", "--graph", f"complete:n={10**15}",
                                 "--k", "3", "--p", "0.1")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"].startswith("Unable to allocate")

    def test_bare_memory_error_is_named(self, capsys, monkeypatch):
        # a MemoryError that Python raises itself carries no message
        def fail(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "run", fail)
        code, out, err = run_cli(capsys, "simulate", "--graph", "complete:n=50", "--k", "3",
                                 "--p", "0.05")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "MemoryError"

    def test_large_header_is_isolated_node_error(self, capsys, tmp_path):
        # the header asks for 10**15 nodes, which the load used to allocate
        path = tmp_path / "big.edges"
        path.write_text(f"# n={10**15}\n0 1\n")
        code, out, err = run_cli(capsys, "graphgen", "--spec", f"file:{path}",
                                 "--out", str(tmp_path / "g.edges"))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"].startswith("node 2 is isolated")
        assert not (tmp_path / "g.edges").exists()

    @pytest.mark.parametrize("trace", ["afile/t.csv", "adir"])
    def test_unwritable_trace_runs_nothing(self, capsys, tmp_path, count_calls, trace):
        # a trace path under a file or naming a directory used to fail with
        # exit 1 only after the whole simulation had run
        runs = count_calls(cli, "run")
        (tmp_path / "afile").write_text("kept\n")
        (tmp_path / "adir").mkdir()
        code, _, err = run_cli(capsys, "simulate", "--graph", "complete:n=200", "--k", "3",
                               "--p", "0.05", "--trace", str(tmp_path / trace))
        assert (code, len(runs)) == (1, 0)
        assert json.loads(err.splitlines()[-1])["error"]
        assert (tmp_path / "afile").read_text() == "kept\n"

    def test_trace_makes_missing_directories(self, capsys, tmp_path):
        trace = tmp_path / "missing" / "sub" / "t.csv"
        doc = run_json(capsys, "simulate", "--graph", "complete:n=50", "--k", "3",
                       "--p", "0.05", "--max-rounds", "3", "--trace", str(trace))
        assert len(trace.read_text().splitlines()) == doc["rounds_simulated"] + 2

    def test_phi_detail_without_trace_rejected(self, capsys, count_calls):
        # the JSON carries no phi, so the per-round R counts were discarded
        runs = count_calls(cli, "run")
        code, _, err = run_cli(capsys, "simulate", "--graph", "complete:n=50", "--k", "3",
                               "--p", "0.05", "--phi-detail")
        assert (code, len(runs)) == (2, 0)
        assert "--trace" in json.loads(err.splitlines()[-1])["error"]

    def test_k_above_cap_builds_nothing(self, capsys, count_calls):
        # simulate used to run a k that every other command rejects
        builds = count_calls(cli, "generate")
        code, out, err = run_cli(capsys, "simulate", "--graph", "complete:n=50",
                                 "--k", str(MAX_K + 1), "--p", "0.05", "--max-rounds", "1")
        assert (code, out, len(builds)) == (2, "", 0)
        assert str(MAX_K) in json.loads(err)["error"]

    def test_degree_above_cap_rejected_before_running(self, capsys, tmp_path, count_calls):
        # the check ran inside run, where a ValueError is a runtime failure
        runs = count_calls(cli, "run")
        star = tmp_path / "star.edges"
        star.write_text("".join(f"0 {v}\n" for v in range(1, MAX_K + 2)))
        code, out, err = run_cli(capsys, "simulate", "--graph", f"file:{star}", "--family",
                                 "det", "--p", "0.1", "--max-rounds", "1")
        assert (code, out, len(runs)) == (2, "", 0)
        assert f"degree {MAX_K + 1}" in json.loads(err)["error"]

    @pytest.mark.parametrize("graph, min_degree, warning", [
        ("complete:n=100", 99, False),
        ("file:{path}", 1, True),  # degree 1 < 4 ln 3
        ("regular:n=100,d=10", 10, True),
        # 4 ln 100 = 18.42 lies between degrees 18 and 19
        ("regular:n=100,d=18", 18, True),
        ("regular:n=100,d=19", 19, False),
    ])
    def test_density_fields(self, capsys, tmp_path, graph, min_degree, warning):
        path = tmp_path / "p.edges"
        path.write_text("0 1\n1 2\n")
        doc = run_json(capsys, "simulate", "--graph", graph.format(path=path), "--k", "3",
                       "--p", "0.1", "--seed", "1", "--max-rounds", "1")
        assert (doc["graph"]["min_degree"], doc["graph"]["density_warning"]) == (
            min_degree, warning)


class TestCompareCommand:
    def test_subcritical_pass(self, capsys):
        doc = run_json(capsys, "compare", "--graph", "complete:n=2000", "--k", "3",
                       "--p", "0.05", "--q0", "1.0", "--rounds", "10",
                       "--gamma", "0.02", "--seed", "3")
        assert doc["pass"] is True
        assert len(doc["deviations"]) == 11

    def test_zero_rounds(self, capsys):
        doc = run_json(capsys, "compare", "--graph", "complete:n=2000", "--k", "3",
                       "--p", "0.3", "--rounds", "0", "--seed", "3")
        assert doc["pass"] is True

    def test_gamma_zero(self, capsys):
        # from q0 = 1 every node's R-neighbour fraction is q_0 = 1 at round 0
        doc = run_json(capsys, "compare", "--graph", "complete:n=200", "--k", "3",
                       "--p", "0.05", "--rounds", "5", "--gamma", "0", "--seed", "3")
        assert doc["deviations"][0] == 0.0 and doc["rounds_passed"][0] is True
        assert doc["pass"] is False
        assert doc["rounds_passed"] == [d <= 0 for d in doc["deviations"]]


class TestGraphgenCommand:
    def test_complete_four(self, capsys, tmp_path):
        out = tmp_path / "k4.edges"
        doc = run_json(capsys, "graphgen", "--spec", "complete:n=4", "--out", str(out))
        assert doc["edges"] == 6
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 6

    def test_regular(self, capsys, tmp_path):
        out = tmp_path / "r.edges"
        run_json(capsys, "graphgen", "--spec", "regular:n=10,d=3", "--out", str(out),
                 "--seed", "2")
        g = load_edge_list(out)
        assert g.degrees.tolist() == [3] * 10
        assert g.edge_count == 15

    def test_gnp_zero_prob_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "graphgen", "--spec", "gnp:n=10,p=0",
                               "--out", str(tmp_path / "x.edges"))
        assert code == 2

    @pytest.mark.parametrize("out", ["afile/g.edges", "adir"])
    def test_unwritable_out_builds_nothing(self, capsys, tmp_path, count_calls, out):
        # an out path under a file or naming a directory used to fail with
        # exit 1 only after the graph was built
        builds = count_calls(cli, "generate")
        (tmp_path / "afile").write_text("kept\n")
        (tmp_path / "adir").mkdir()
        code, _, err = run_cli(capsys, "graphgen", "--spec", "complete:n=50",
                               "--out", str(tmp_path / out))
        assert (code, len(builds)) == (1, 0)
        assert json.loads(err.splitlines()[-1])["error"]
        assert (tmp_path / "afile").read_text() == "kept\n"

    def test_out_makes_missing_directories(self, capsys, tmp_path):
        out = tmp_path / "missing" / "g.edges"
        run_json(capsys, "graphgen", "--spec", "complete:n=4", "--out", str(out))
        assert load_edge_list(out).edge_count == 6


class TestSweepCommand:
    def config(self, tmp_path, **overrides):
        doc = {
            "graph": "complete:n=300",
            "family": "kmaj",
            "mode": "edge",
            "k": [3],
            "p_grid": {"min": 0.05, "max": 0.17, "steps": 3},
            "q_grid": [1.0],
            "replicas": 3,
            "max_rounds": 100,
            "base_seed": 5,
            "out": str(tmp_path / "results"),
        }
        doc.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_writes_artifacts(self, capsys, tmp_path):
        cfg = self.config(tmp_path)
        doc = run_json(capsys, "sweep", "--config", str(cfg))
        assert doc["cells"] == 3 and doc["runs"] == 9
        runs = tmp_path / "results" / "runs.csv"
        summary = tmp_path / "results" / "summary.json"
        assert runs.exists() and summary.exists()
        assert json.loads(summary.read_text())["schema"] == 1

    def test_k2_takes_voter_attachment(self, capsys, tmp_path):
        # 2-majority with fair tie coins follows the voter law, so its cells
        # carry the voter attachment instead of reaching the k=1 solver.
        grid = {"graph": "complete:n=50", "p_grid": [0.05], "replicas": 2}
        cfg = self.config(tmp_path, k=[2], **grid)
        run_json(capsys, "sweep", "--config", str(cfg))
        results = tmp_path / "results"
        assert (results / "runs.csv").exists()
        cells = json.loads((results / "summary.json").read_text())["cells"]
        voter_cfg = self.config(tmp_path, family="voter", k=[1], **grid,
                                out=str(tmp_path / "voter"))
        run_json(capsys, "sweep", "--config", str(voter_cfg))
        voter = json.loads((tmp_path / "voter" / "summary.json").read_text())["cells"]
        assert cells[0]["k"] == 2
        assert cells[0]["meanfield"] == voter[0]["meanfield"]
        assert cells[0]["meanfield"]["regime"] == "supercritical"

    def test_q_at_most_half_has_no_q_threshold(self, capsys, tmp_path):
        # p*_{k,q} exists for q > 1/2 only; such cells used to crash the
        # sweep after simulating instead of carrying null
        cfg = self.config(tmp_path, graph="complete:n=50", p_grid=[0.05],
                          q_grid=[0.5, 0.3], replicas=2)
        run_json(capsys, "sweep", "--config", str(cfg))
        cells = json.loads((tmp_path / "results" / "summary.json").read_text())["cells"]
        assert [c["meanfield"]["p_star_kq"] for c in cells] == [None, None]
        assert all(c["meanfield"]["p_star_k"] > 0.11 for c in cells)

    def test_k_above_cap_rejected_before_running(self, capsys, tmp_path):
        cfg = self.config(tmp_path, graph="complete:n=20", k=[3, 10001], p_grid=[0.3],
                          replicas=1, max_rounds=1)
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "10000" in json.loads(err.splitlines()[-1])["error"]
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("grid", [
        {"p_grid": [0.05, 0.05]},
        {"k": [3, 3]},
        {"p_grid": {"min": 0.05, "max": 0.05, "steps": 3}},
        {"q_grid": [1.0, 1.0]},
    ])
    def test_repeated_grid_value_rejected_before_running(self, capsys, tmp_path, grid):
        # equal grid values give equal replica seeds; such sweeps used to
        # simulate the first cell and then fail on the seed collision
        cfg = self.config(tmp_path, graph="complete:n=20", replicas=1, max_rounds=1, **grid)
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "distinct" in json.loads(err.splitlines()[-1])["error"]
        assert not (tmp_path / "results").exists()

    def det_config(self, tmp_path, **overrides):
        cfg = self.config(tmp_path, family="det", **overrides)
        doc = json.loads(cfg.read_text())
        del doc["k"]  # det takes no k
        cfg.write_text(json.dumps(doc))
        return cfg

    def test_degree_above_cap_rejected_before_running(self, capsys, tmp_path):
        # det edge bias on a degree above MAX_K used to fail inside the first
        # replica with exit 1 and an empty out dir; simulate exits 2 on it
        star = tmp_path / "star.edges"
        star.write_text("".join(f"0 {v}\n" for v in range(1, MAX_K + 2)))
        cfg = self.det_config(tmp_path, graph=f"file:{star}", p_grid=[0.1], replicas=1,
                              max_rounds=1)
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert f"degree {MAX_K + 1}" in json.loads(err.splitlines()[-1])["error"]
        assert not (tmp_path / "results").exists()

    def test_value_error_in_a_solve_exits_1(self, capsys, tmp_path, monkeypatch):
        # a ValueError of the plan's mean-field solve exited 2, as if the
        # config had been rejected
        monkeypatch.setattr(experiments, "fixed_points", lambda *args: math.sqrt(-1.0))
        cfg = self.config(tmp_path, graph="complete:n=20", replicas=1)
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert "mean-field solve failed: math domain error" in json.loads(err)["error"]
        assert not (tmp_path / "results").exists()

    def test_cell_graph_failure_runs_no_replica(self, capsys, tmp_path, monkeypatch):
        # the fourth cell's G(50, 0.1) has an isolated node; the sweep used to
        # simulate three cells first and leave an empty out dir
        calls = []
        real_run = experiments.run
        monkeypatch.setattr(experiments, "run",
                            lambda *args, **kw: calls.append(args) or real_run(*args, **kw))
        cfg = self.det_config(tmp_path, graph="gnp:n=50,p=0.1",
                              p_grid={"min": 0.1, "max": 0.45, "steps": 8}, q_grid=[0.9],
                              replicas=2, max_rounds=20, base_seed=1, share_graph=False)
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 1
        assert "p=0.25" in json.loads(err.splitlines()[-1])["error"]
        assert calls == []
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_unmakeable_out_dir_runs_no_replica(self, capsys, tmp_path, monkeypatch, out):
        # an out path at or under a file used to fail with exit 1 only after
        # every replica had run
        calls = []
        real_run = experiments.run
        monkeypatch.setattr(experiments, "run",
                            lambda *args, **kw: calls.append(args) or real_run(*args, **kw))
        (tmp_path / "afile").write_text("kept\n")
        cfg = self.config(tmp_path, graph="complete:n=200", p_grid=[0.05, 0.1], replicas=3,
                          out=str(tmp_path / out))
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert (code, len(calls)) == (1, 0)
        assert "afile is not a directory" in json.loads(err.splitlines()[-1])["error"]
        assert (tmp_path / "afile").read_text() == "kept\n"

    def test_output_file_naming_a_directory_runs_no_replica(self, capsys, tmp_path,
                                                              count_calls):
        runs = count_calls(experiments, "run")
        (tmp_path / "results" / "summary.json").mkdir(parents=True)
        cfg = self.config(tmp_path, graph="complete:n=200", p_grid=[0.05], replicas=2)
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert (code, len(runs)) == (1, 0)
        assert "is a directory" in json.loads(err.splitlines()[-1])["error"]

    def test_p_range_ends_exactly_at_max(self, capsys, tmp_path):
        # 0.08 + 3 * (0.92 / 3) is 1.0000000000000002, which used to exit 2
        cfg = self.config(tmp_path, graph="complete:n=20", replicas=1, max_rounds=1,
                          p_grid={"min": 0.08, "max": 1.0, "steps": 4})
        run_json(capsys, "sweep", "--config", str(cfg))
        cells = json.loads((tmp_path / "results" / "summary.json").read_text())["cells"]
        assert cells[-1]["p"] == 1.0

    def test_one_step_range_needs_min_equal_to_max(self, capsys, tmp_path):
        # {"min": 0.05, "max": 0.2, "steps": 1} ran the grid [0.05] alone
        small = dict(graph="complete:n=20", replicas=1, max_rounds=1)
        cfg = self.config(tmp_path, **small, p_grid={"min": 0.05, "max": 0.2, "steps": 1})
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "/p_grid/steps" in json.loads(err)["error"]
        assert not (tmp_path / "results").exists()
        cfg = self.config(tmp_path, **small, p_grid={"min": 0.05, "max": 0.05, "steps": 1})
        run_json(capsys, "sweep", "--config", str(cfg))
        cells = json.loads((tmp_path / "results" / "summary.json").read_text())["cells"]
        assert [cell["p"] for cell in cells] == [0.05]

    def test_rerun_byte_identical(self, capsys, tmp_path):
        cfg = self.config(tmp_path)
        run_json(capsys, "sweep", "--config", str(cfg))
        first = (tmp_path / "results" / "runs.csv").read_bytes()
        run_json(capsys, "sweep", "--config", str(cfg))
        assert (tmp_path / "results" / "runs.csv").read_bytes() == first

    def test_schema_violation_json_pointer(self, capsys, tmp_path):
        cfg = self.config(tmp_path, p_grid={"min": 0.05, "max": 0.17, "steps": 0})
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "/p_grid" in json.loads(err)["error"]

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = self.config(tmp_path, bogus=1)
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2

    _P_RANGE = {"min": 0.05, "max": 0.17, "steps": 3}

    @pytest.mark.parametrize("edit", [
        {"graph": ...},  # ... drops the key
        {"p_grid": ...},
        {"q_grid": ...},
        {"replicas": ...},
        {"base_seed": ...},
        {"out": ...},
        {"bogus": 1},
        {"schema": "1"},
        {"schema": 2},
        {"graph": 5},
        {"graph_seed": "1"},
        {"family": 3},
        {"mode": 3},
        {"k": 3},
        {"k": ["3"]},
        {"p_grid": "0.1"},
        {"p_grid": [0.05, "0.1"]},
        {"p_grid": {**_P_RANGE, "steps": "3"}},
        {"p_grid": {**_P_RANGE, "min": "0.05"}},
        {"p_grid": {"min": 0.05, "max": 0.17}},
        {"p_grid": {**_P_RANGE, "bogus": 1}},
        {"q_grid": 1.0},
        {"q_grid": ["1.0"]},
        {"replicas": "3"},
        {"max_rounds": "100"},
        {"base_seed": "5"},
        {"share_graph": "yes"},
        {"out": 5},
        {"k": [0]},
        {"p_grid": [1.5]},
        {"p_grid": [-0.1]},
        {"q_grid": [1.5]},
        {"q_grid": [-0.1]},
        {"p_grid": {**_P_RANGE, "steps": 0}},
        {"p_grid": {**_P_RANGE, "min": -0.1}},
        {"p_grid": {**_P_RANGE, "max": 1.5}},
        {"replicas": 0},
        {"max_rounds": -1},
        {"base_seed": -1},
        {"graph_seed": -1},
        {"k": []},
        {"p_grid": []},
        {"q_grid": []},
        {"family": "majority"},
        {"mode": "both"},
    ], ids=repr)
    def test_config_rule_rejected_before_running(self, capsys, tmp_path, edit):
        # every rule of the config format exits 2 before the out dir is made
        self.assert_rejected_up_front(capsys, tmp_path, edit)

    @pytest.mark.parametrize("edit", [
        {"replicas": 2.0},
        {"k": [3.0]},
        {"max_rounds": 5.0},
        {"base_seed": 5.0},
        {"graph_seed": 5.0},
        {"p_grid": {**_P_RANGE, "steps": 3.0}},
        {"replicas": True},
        {"base_seed": False},
    ], ids=repr)
    def test_integer_fields_take_only_integers(self, capsys, tmp_path, edit):
        # 2.0 and true used to pass as integers and then crash mid-sweep,
        # write 5.0 into the tau column, or shift the replica seeds
        self.assert_rejected_up_front(capsys, tmp_path, edit)

    def assert_rejected_up_front(self, capsys, tmp_path, edit):
        cfg = self.config(tmp_path, graph="complete:n=20", replicas=1, max_rounds=1)
        doc = json.loads(cfg.read_text())
        doc.update(edit)
        cfg.write_text(json.dumps({k: v for k, v in doc.items() if v is not ...}))
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert json.loads(err.splitlines()[-1])["error"]
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("field, pairs, key", [
        ("replicas", '"replicas": 2, "replicas": 3', "replicas"),
        ("p_grid", '"p_grid": {"min": 0.05, "max": 0.17, "steps": 3, "steps": 2}', "steps"),
    ])
    def test_repeated_key_rejected_before_running(self, capsys, tmp_path, field, pairs, key):
        # json.load kept the last value: "replicas": 2, "replicas": 3 wrote
        # 3 replicas and exited 0
        cfg = self.config(tmp_path, graph="complete:n=20", replicas=1, max_rounds=1)
        doc = json.loads(cfg.read_text())
        del doc[field]
        cfg.write_text(f"{json.dumps(doc)[:-1]}, {pairs}}}")
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == f'sweep config invalid: repeated key "{key}"'
        assert not (tmp_path / "results").exists()

    def test_config_not_an_object_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("[1]")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert json.loads(err.splitlines()[-1])["error"]


# command line -> its error: each is refused before any graph build or solve
UP_FRONT_REJECTIONS = {
    "compare --graph gnp:n=3000,p=0.5 --k 3 --p 0.1 --gamma -1":
        "argument --gamma: expected a finite number >= 0, got '-1'",
    "compare --graph gnp:n=3000,p=0.5 --k 3 --p 0.1 --q0 1.5":
        "argument --q0: expected a number in [0, 1], got '1.5'",
    "compare --graph gnp:n=3000,p=0.5 --k 3 --p 0.1 --rounds -1":
        "argument --rounds: expected an integer >= 0, got '-1'",
    "compare --graph gnp:n=3000,p=0.5 --k 0 --p 0.1":
        "k-majority requires 1 <= k <= 10000, got k=0",
    "simulate --graph gnp:n=3000,p=0.5 --k 3 --p 0.1 --q 1.5":
        "argument --q: expected a number in [0, 1], got '1.5'",
    "meanfield --k 10001 --p 0.1 --q0 0.5":
        "sample size k=10001 exceeds the supported cap 10000",
    "simulate --graph gnp:n=3000,p=0.5 --k 3 --p abc":
        "argument --p: expected a finite number, got 'abc'",
    "meanfield --k 1001 --p 0.4 --q0 1.5":
        "argument --q0: expected a number in [0, 1], got '1.5'",
    "meanfield --k 1001 --p 0.4 --q0 0.9 --rounds -1":
        "argument --rounds: expected an integer >= 0, got '-1'",
}


class TestCLIPlumbing:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [
        ("meanfield", "--k", "3", "--p"),
        ("meanfield", "--k", "4", "--p", "0.1", "--q0"),
        ("meanfield", "--k", "3", "--p", "0.1", "--tol"),
        ("critical", "--k", "3", "--q"),
        ("critical", "--k", "3", "--tol"),
        ("simulate", "--graph", "complete:n=50", "--k", "3", "--p"),
        ("simulate", "--graph", "complete:n=50", "--k", "3", "--p", "0.1", "--q"),
        ("compare", "--graph", "complete:n=50", "--k", "3", "--p"),
        ("compare", "--graph", "complete:n=50", "--k", "3", "--p", "0.1", "--q0"),
        ("compare", "--graph", "complete:n=50", "--k", "3", "--p", "0.1", "--gamma"),
    ], ids=" ".join)
    def test_non_finite_float_flag_exits_2(self, capsys, argv, value):
        # critical --tol inf printed a wrong p*_3 and compare --gamma inf a
        # document with a non-JSON Infinity, both with exit 0
        *args, flag = argv
        code, out, err = run_cli(capsys, *args, f"{flag}={value}")
        assert (code, out) == (2, "")
        assert f"argument {flag}" in json.loads(err)["error"]

    @pytest.mark.parametrize("value", ["0", "-1", "-0.0"])
    @pytest.mark.parametrize("argv", [
        ("meanfield", "--k", "3", "--p", "0.1"),
        ("meanfield", "--k", "4", "--p", "0.1", "--q0", "0.9"),
        ("meanfield", "--k", "1", "--p", "0.1", "--q0", "0.9"),
        ("critical", "--k", "3"),
        ("critical", "--k", "3", "--q", "0.6"),
    ], ids=" ".join)
    def test_non_positive_tol_exits_2(self, capsys, argv, value):
        # meanfield --k 4 ... --tol -1 used to exit 0 and print the tolerance
        code, out, err = run_cli(capsys, *argv, f"--tol={value}")
        assert (code, out) == (2, "")
        assert "argument --tol" in json.loads(err)["error"]

    @pytest.mark.parametrize("case", sorted(UP_FRONT_REJECTIONS))
    def test_out_of_range_flag_does_no_work(self, capsys, count_calls, case):
        # each used to build its graph or solve the fixed points, then exit 2
        builds = count_calls(cli, "generate")
        solves = count_calls(cli, "fixed_points")
        code, out, err = run_cli(capsys, *case.split())
        assert (code, out, len(builds), len(solves)) == (2, "", 0, 0)
        assert json.loads(err)["error"] == UP_FRONT_REJECTIONS[case]

    @pytest.mark.parametrize("name, argv", [
        ("fixed_points", "meanfield --k 3 --p 0.05"),
        ("trajectory", "meanfield --k 4 --p 0.05 --q0 0.9"),
        ("critical_bias_k", "critical --k 3"),
        ("critical_bias_kq", "critical --k 3 --q 0.6"),
        ("run", "simulate --graph complete:n=50 --k 3 --p 0.05"),
        ("meanfield_comparison", "compare --graph complete:n=50 --k 3 --p 0.05"),
        ("save_edge_list", "graphgen --spec complete:n=5 --out {tmp}/g.edges"),
        ("write_runs_csv", "sweep --config {tmp}/config.json"),
    ], ids=lambda value: value.split()[0])
    def test_value_error_during_work_exits_1(self, capsys, tmp_path, monkeypatch, name, argv):
        # every ValueError exited 2, as if the input had been rejected, also
        # one raised by a solve, a replica or an output write
        (tmp_path / "config.json").write_text(json.dumps({
            "graph": "complete:n=20", "k": [3], "p_grid": [0.05], "q_grid": [1.0],
            "replicas": 1, "max_rounds": 1, "base_seed": 5, "out": str(tmp_path / "out")}))

        def fail(*args, **kwargs):
            raise ValueError("failed during the work")

        monkeypatch.setattr(cli, name, fail)
        code, out, err = run_cli(capsys, *argv.format(tmp=tmp_path).split())
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "failed during the work"

    def test_unknown_flag_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "critical", "--k", "3", "--bogus", "1")
        assert code == 2
        assert "error" in json.loads(err.splitlines()[-1])

    def test_unknown_command_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    @pytest.mark.parametrize(
        "command", ["meanfield", "critical", "simulate", "sweep", "compare", "graphgen"]
    )
    def test_help_exits_zero(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert "--" in out and "default" in out.lower()
