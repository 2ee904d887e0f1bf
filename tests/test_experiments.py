"""Sweep harness, mean-field comparison, and disruption-curve tests."""

import csv
import json
import statistics

import pytest

from oracles import disruption_curve

from kmajority import experiments, meanfield
from kmajority.dynamics import DynamicsParams, Family
from kmajority.experiments import (
    CSV_COLUMNS,
    SweepSpec,
    meanfield_comparison,
    run_sweep,
    write_runs_csv,
    write_summary_json,
)
from kmajority.graph import GraphKind, GraphSpec, generate
from kmajority.meanfield import BiasMode, MeanFieldParams, fixed_points

EDGE = BiasMode.EDGE


def small_spec(**overrides):
    base = dict(
        graph_spec=GraphSpec(GraphKind.COMPLETE, n=400),
        family=Family.KMAJORITY,
        mode=EDGE,
        k_values=(3,),
        p_values=(0.05, 0.16),
        q_values=(1.0,),
        replicas=6,
        base_seed=77,
        max_rounds=120,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestRunSweep:
    def test_cell_structure_and_regimes(self):
        spec = small_spec()
        cells = run_sweep(spec)
        assert len(cells) == 2
        slow = next(c for c in cells if c.p == 0.05)
        fast = next(c for c in cells if c.p == 0.16)
        assert slow.taus.count(None) == spec.replicas
        assert fast.taus.count(None) == 0
        assert slow.meanfield["regime"] == "subcritical"
        assert fast.meanfield["regime"] == "supercritical"

    def test_determinism_and_byte_identical_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        spec = small_spec()
        write_runs_csv(spec, run_sweep(spec), a)
        write_runs_csv(spec, run_sweep(spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_seeds_pairwise_distinct(self):
        cells = run_sweep(small_spec(replicas=20))
        seeds = [s for c in cells for s in c.seeds]
        assert len(seeds) == len(set(seeds))

    def test_csv_schema(self, tmp_path):
        path = tmp_path / "runs.csv"
        spec = small_spec(replicas=2)
        write_runs_csv(spec, run_sweep(spec), path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        first = lines[1].split(",")
        assert len(first) == len(CSV_COLUMNS)
        assert first[0] == "3"
        assert first[4] == "kmaj"
        assert first[5] == "complete:n=400"
        # censored rows carry the round cap as the (lower-bound) tau
        censored_rows = [l.split(",") for l in lines[1:] if l.split(",")[9] == "true"]
        assert censored_rows and all(r[8] == "120" for r in censored_rows)

    def test_meanfield_attachment_consistency(self):
        spec = small_spec(p_values=(0.05,), k_values=(3, 4), replicas=2)
        for cell in run_sweep(spec):
            k_odd = cell.k if cell.k % 2 == 1 else cell.k - 1
            fp = fixed_points(MeanFieldParams(k_odd, cell.p, spec.mode))
            assert cell.meanfield["regime"] == fp.regime.value
            assert cell.meanfield["phi_plus"] == pytest.approx(fp.phi_plus, abs=1e-12)

    def test_summary_json(self, tmp_path):
        path = tmp_path / "summary.json"
        spec = small_spec(replicas=2)
        write_summary_json(spec, run_sweep(spec), path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == 1
        assert len(doc["cells"]) == 2
        assert doc["spec"]["graph"] == "complete:n=400"
        cell = doc["cells"][0]
        assert {"tau_median", "censored_count", "meanfield"} <= set(cell)

    def test_summary_statistics_reduce_the_csv_rows(self, tmp_path):
        # each cell's five statistics in summary.json, recomputed here from
        # that cell's rows of runs.csv; the cells are fully censored, mixed
        # and uncensored
        spec = small_spec(graph_spec=GraphSpec(GraphKind.COMPLETE, n=200),
                          p_values=(0.05, 0.12, 0.16), replicas=4, max_rounds=30)
        cells = run_sweep(spec)
        write_runs_csv(spec, cells, tmp_path / "runs.csv")
        write_summary_json(spec, cells, tmp_path / "summary.json")
        with open(tmp_path / "runs.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        summary = json.loads((tmp_path / "summary.json").read_text())["cells"]
        censored_counts = []
        for cell in summary:
            mine = [r for r in rows if float(r["p"]) == cell["p"]]
            assert len(mine) == cell["replicas"] == 4
            censored = sum(r["censored"] == "true" for r in mine)
            taus = [int(r["tau"]) for r in mine]  # a censored row holds the cap
            finals = [float(r["final_r_fraction"]) for r in mine]
            assert cell["censored_count"] == censored
            assert cell["censored_fraction"] == censored / len(mine)
            assert cell["tau_median"] == statistics.median(taus)
            assert cell["tau_mean"] == statistics.fmean(taus)
            # numpy and fmean may round the float sum differently
            assert cell["final_r_fraction_mean"] == pytest.approx(statistics.fmean(finals),
                                                                  rel=1e-15, abs=0)
            censored_counts.append(censored)
        assert censored_counts == [4, 1, 0]

    def test_voter_and_det_k_validation(self):
        with pytest.raises(ValueError):
            small_spec(family=Family.DETERMINISTIC_MAJORITY)
        spec = small_spec(family=Family.DETERMINISTIC_MAJORITY, k_values=(None,),
                          p_values=(0.7,), replicas=2)
        cells = run_sweep(spec)
        assert cells[0].meanfield["p_star_k"] == 0.5
        with pytest.raises(ValueError):
            small_spec(family=Family.VOTER, k_values=(3,))

    @pytest.mark.parametrize("p, regime", [
        (0.3, "subcritical"), (0.5, "critical"), (0.7, "supercritical"),
    ])
    def test_det_attachment_regime(self, p, regime):
        # deterministic majority has threshold 1/2, critical at exactly 1/2
        spec = small_spec(family=Family.DETERMINISTIC_MAJORITY, k_values=(None,),
                          p_values=(p,), replicas=1)
        assert run_sweep(spec)[0].meanfield["regime"] == regime

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            small_spec(p_values=())
        with pytest.raises(ValueError):
            small_spec(replicas=0)
        with pytest.raises(ValueError):
            small_spec(p_values=(1.2,))

    @pytest.mark.parametrize("field", [
        {"replicas": 2.0}, {"replicas": True}, {"base_seed": 5.0}, {"base_seed": True},
        {"base_seed": -1},
    ], ids=repr)
    def test_count_and_seed_fields(self, field):
        with pytest.raises(ValueError):
            small_spec(**field)

    def test_per_cell_graphs(self):
        spec = small_spec(
            graph_spec=GraphSpec(GraphKind.GNP, n=150, edge_prob=0.4, seed=1),
            share_graph=False,
            replicas=2,
        )
        cells_a = run_sweep(spec)
        cells_b = run_sweep(spec)
        assert [c.taus for c in cells_a] == [c.taus for c in cells_b]

    def test_errors_carry_cell_coordinates(self):
        spec = small_spec(
            graph_spec=GraphSpec(GraphKind.FILE, path="/nonexistent/graph.edges"),
            share_graph=False,
            replicas=1,
        )
        with pytest.raises(RuntimeError) as err:
            run_sweep(spec)
        assert "cell (k=3" in str(err.value)


class TestSweepPlan:
    """Every cell is planned (graph, replica seeds, mean-field attachment)
    before any replica runs, and each derived quantity is solved once."""

    def test_failing_attachment_runs_no_replica(self, monkeypatch, count_calls):
        # the last cell's attachment used to be solved after every replica
        # of every cell had run
        runs = count_calls(experiments, "run")
        real = experiments._meanfield_attachment

        def attachment(family, mode, k, p, q):
            if p == 0.16:
                raise ArithmeticError("attachment failed")
            return real(family, mode, k, p, q)

        monkeypatch.setattr(experiments, "_meanfield_attachment", attachment)
        with pytest.raises(ArithmeticError):
            run_sweep(small_spec(replicas=2))
        assert runs == []

    def test_critical_bias_k_solved_once_per_k(self):
        # p*_k is solved once per k and read from the memo for every q;
        # critical_bias_kq used to solve it again for each (k, q) pair
        cells = run_sweep(small_spec(graph_spec=GraphSpec(GraphKind.COMPLETE, n=20),
                                     k_values=(3, 101), p_values=(0.05,), q_values=(0.6, 0.9),
                                     replicas=1, max_rounds=1))
        # one miss per (k, None) entry, which solves p*_k, and one per (k, q)
        assert meanfield._critical_values.cache_info().misses == 2 + 2 * 2
        assert cells[0].meanfield["p_star_k"] == meanfield.critical_bias_k(3).p_star_k
        assert cells[0].meanfield["p_star_kq"] == meanfield.critical_bias_kq(3, 0.6).p_star_kq

    def test_graph_seed_draws_the_per_cell_graphs(self, count_calls):
        # per-cell graphs used to hash base_seed, so graph_seed had no effect
        drawn = count_calls(experiments, "generate")
        for graph_seed in (1, 2):
            run_sweep(small_spec(graph_spec=GraphSpec(GraphKind.GNP, n=60, edge_prob=0.5,
                                                      seed=graph_seed),
                                 share_graph=False, replicas=1))
        seeds = [spec.seed for (spec,) in drawn]
        assert len(seeds) == 8 and not set(seeds[:4]) & set(seeds[4:])


class TestMeanFieldComparison:
    def test_subcritical_tracks(self):
        g = generate(GraphSpec(GraphKind.COMPLETE, n=2000))
        params = DynamicsParams(family=Family.KMAJORITY, p=0.05, mode=EDGE, seed=4, k=3)
        rep = meanfield_comparison(g, params, 1.0, 15)
        assert max(rep.deviations) <= 0.02
        assert len(rep.deviations) == 16
        assert rep.mean_field[0] == 1.0

    def test_round_zero_initialization_noise(self):
        g = generate(GraphSpec(GraphKind.COMPLETE, n=2000))
        params = DynamicsParams(family=Family.KMAJORITY, p=0.3, mode=EDGE, seed=4, k=3)
        rep = meanfield_comparison(g, params, 0.8, 0)
        assert max(rep.deviations) <= 0.02  # binomial concentration at round 0 on a dense graph
        assert rep.deviations[0] < 0.02

    def test_report_produced_even_when_failing(self):
        g = generate(GraphSpec(GraphKind.COMPLETE, n=300))
        params = DynamicsParams(family=Family.KMAJORITY, p=0.05, mode=EDGE, seed=4, k=3)
        rep = meanfield_comparison(g, params, 1.0, 10)
        assert not max(rep.deviations) <= 1e-6
        assert not rep.deviations[1] <= 1e-6

    def test_bool_round_count_rejected(self):
        # T=True used to compare two rounds as if it were T=1
        g = generate(GraphSpec(GraphKind.COMPLETE, n=50))
        params = DynamicsParams(family=Family.KMAJORITY, p=0.05, mode=EDGE, seed=4, k=3)
        with pytest.raises(ValueError, match="nonnegative integer"):
            meanfield_comparison(g, params, 0.9, True)

    def test_rejects_det_family(self):
        g = generate(GraphSpec(GraphKind.COMPLETE, n=50))
        params = DynamicsParams(family=Family.DETERMINISTIC_MAJORITY, p=0.3,
                                mode=EDGE, seed=1)
        with pytest.raises(ValueError):
            meanfield_comparison(g, params, 1.0, 5)


class TestDisruptionCurve:
    def test_knee_brackets_critical_bias(self):
        spec = small_spec(
            graph_spec=GraphSpec(GraphKind.COMPLETE, n=600),
            p_values=(0.05, 0.08, 0.14, 0.17),
            replicas=8,
            max_rounds=150,
        )
        curve = disruption_curve(spec)
        assert curve.knee == 0.14  # first supercritical grid point
        assert [r[0] for r in curve.rows] == sorted(r[0] for r in curve.rows)
        censored_fracs = [r[2] for r in curve.rows]
        assert censored_fracs[0] == 1.0 and censored_fracs[-1] == 0.0
        assert curve.p_star_kq == pytest.approx(1 / 9, abs=1e-8)

    def test_requires_single_k_and_q(self):
        with pytest.raises(ValueError):
            disruption_curve(small_spec(k_values=(3, 5)))
        with pytest.raises(ValueError):
            disruption_curve(small_spec(q_values=(0.8, 1.0)))
