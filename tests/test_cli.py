"""CLI behavior: JSON outputs, exit codes, file artifacts, determinism."""

import json

import pytest

from kmajority.cli import main
from kmajority.graph import load_edge_list


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


class TestSimulateCommand:
    def test_no_bias_censors_at_full_r(self, capsys):
        doc = run_json(capsys, "simulate", "--graph", "complete:n=500",
                       "--family", "kmaj", "--k", "3", "--p", "0", "--q", "1",
                       "--seed", "1")
        assert doc["censored"] is True
        assert doc["final_r_fraction"] == 1.0
        assert doc["params"]["max_rounds"] == 262  # 10 ln 500 + 200

    def test_det_fast_disruption(self, capsys):
        doc = run_json(capsys, "simulate", "--graph", "complete:n=500",
                       "--family", "det", "--p", "0.6", "--mode", "edge",
                       "--q", "1", "--seed", "1")
        assert doc["tau"] == 1

    def test_voter_disrupts_within_bound(self, capsys):
        doc = run_json(capsys, "simulate", "--graph", "complete:n=500",
                       "--family", "voter", "--p", "0.1", "--q", "1", "--seed", "1")
        assert doc["tau"] is not None and doc["tau"] <= 207

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


class TestCLIPlumbing:
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
