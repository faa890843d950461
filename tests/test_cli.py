import json

import pytest

from pmdag.cli import main
from pmdag.gauss import CovMatrix, save_cov_csv
from pmdag.generate import canonical, ground_truth
from pmdag.graph import load_graph, save_graph, validate
from pmdag.solver import FitConfig


@pytest.fixture
def single_edge_files(tmp_path):
    g = validate([("L", "latent"), ("V", "visible")], [("L", "V")])
    gpath = tmp_path / "g.json"
    save_graph(g, gpath)
    cpath = tmp_path / "cov.csv"
    save_cov_csv(CovMatrix(("V",), [[4.0]]), cpath)
    return str(gpath), str(cpath)


class TestValidateCommand:
    def test_ok(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        save_graph(canonical("bow"), path)
        assert main(["validate", str(path)]) == 0
        assert "ok:" in capsys.readouterr().out

    @pytest.mark.parametrize("graph", [
        {"nodes": [{"name": "X", "role": "visible"}], "edges": []},
        {"nodes": [{"name": "L", "role": "latent"}]},
        {"nodes": [{"name": "L", "role": "latent"}, {"name": "X"}], "edges": [["L", "X"]]},
    ], ids=["visible_root", "no_edges", "no_role"])
    def test_invalid_graph_exits_1(self, tmp_path, capsys, graph):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(graph))
        assert main(["validate", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_1(self):
        assert main(["validate", "/nonexistent/g.json"]) == 1


class TestGenAndCanon:
    def test_gen_writes_graph(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["gen", "--v", "5", "--lstar", "0.4", "--estar", "0.5",
                     "--seed", "3", "-o", str(out)]) == 0
        g = load_graph(out)
        assert len(g.visible_names) == 5

    def test_gen_seed_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PMDAG_SEED", "12")
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["gen", "--v", "4", "-o", str(out1)]) == 0
        assert main(["gen", "--v", "4", "--seed", "12", "-o", str(out2)]) == 0
        assert load_graph(out1) == load_graph(out2)

    def test_canon_with_ground_truth(self, tmp_path):
        out = tmp_path / "bow.json"
        assert main(["canon", "bow", "-o", str(out), "--ground-truth-seed", "5"]) == 0
        assert load_graph(out) == canonical("bow")
        assert (tmp_path / "bow.json.cov.csv").exists()

    def test_canon_unknown_name(self):
        assert main(["canon", "nonesuch"]) == 1


class TestSyncCommand:
    def test_prints_layers_and_masks(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        save_graph(canonical("bow"), path)
        dot = tmp_path / "sync.dot"
        assert main(["sync", str(path), "--masks", "--dot", str(dot)]) == 0
        out = capsys.readouterr().out
        assert "depth" in out and "trainable entries:" in out
        assert "style=dashed" in dot.read_text()


class TestFitCommand:
    def test_fit_single_edge(self, single_edge_files, tmp_path, capsys):
        gpath, cpath = single_edge_files
        out = tmp_path / "fit.json"
        trace = tmp_path / "trace.csv"
        code = main(["fit", gpath, cpath, "--seed", "3", "--restarts", "2",
                     "-o", str(out), "--trace", str(trace)])
        assert code == 0
        result = json.loads(out.read_text())
        assert abs(abs(result["weights"]["L->V"]) - 2.0) < 1e-2
        assert result["converged"] is True
        assert trace.read_text().startswith("iteration,surrogate_loss,true_kl")

    def test_fit_accepts_method_aliases(self, single_edge_files, capsys):
        gpath, cpath = single_edge_files
        assert main(["fit", gpath, cpath, "--method", "acc", "--seed", "3",
                     "--restarts", "1"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["method"] == "accumulation"

    def test_fit_bad_target_exits_1(self, tmp_path, single_edge_files):
        gpath, _ = single_edge_files
        bad = tmp_path / "bad.csv"
        bad.write_text("V\n-1.0\n")
        assert main(["fit", gpath, str(bad)]) == 1


class TestIdentifyCommand:
    def write_case(self, tmp_path, name, truth_seed):
        g = canonical(name)
        _, target = ground_truth(g, seed=truth_seed)
        gpath = tmp_path / f"{name}.json"
        cpath = tmp_path / f"{name}.csv"
        save_graph(g, gpath)
        save_cov_csv(target, cpath)
        return str(gpath), str(cpath)

    def test_bow_exits_3(self, tmp_path, capsys):
        gpath, cpath = self.write_case(tmp_path, "bow", truth_seed=5)
        code = main(["identify", gpath, cpath, "--do", "X=0", "--effect", "Y",
                     "--iters", "10", "--seed", "77", "--restarts", "2"])
        assert code == 3
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["outcome"] == "not_identifiable"
        assert verdict["witness_seeds"] is not None

    def test_backdoor_exits_0(self, tmp_path, capsys):
        gpath, cpath = self.write_case(tmp_path, "backdoor", truth_seed=5)
        code = main(["identify", gpath, cpath, "--do", "X=0", "--effect", "Y",
                     "--iters", "2", "--seed", "77", "--restarts", "2"])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["outcome"] == "presumed_identifiable"

    def test_not_inducible_exits_2(self, tmp_path, capsys):
        g = validate(
            [("P", "latent"), ("E1", "latent"), ("E2", "latent"), ("E3", "latent"),
             ("X", "visible"), ("Y", "visible"), ("Z", "visible")],
            [("P", "X"), ("P", "Y"), ("P", "Z"), ("E1", "X"), ("E2", "Y"), ("E3", "Z")],
        )
        r = 0.45
        target = CovMatrix(("X", "Y", "Z"), [[1.0, r, r], [r, 1.0, -r], [r, -r, 1.0]])
        gpath = tmp_path / "g.json"
        cpath = tmp_path / "c.csv"
        out = tmp_path / "verdict.json"
        save_graph(g, gpath)
        save_cov_csv(target, cpath)
        code = main(["identify", str(gpath), str(cpath), "--do", "X=0", "--effect", "Y",
                     "--iters", "2", "--seed", "1", "--restarts", "2", "--epochs", "4000",
                     "-o", str(out)])
        assert code == 2

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        verdict = json.loads(out.read_text(), parse_constant=reject)
        assert verdict["outcome"] == "not_inducible"
        assert verdict["max_divergence"] is None

    def test_exhausted_budget_says_why(self, tmp_path, capsys):
        # the reference fit only runs out of iterations; the verdict names that
        gpath, cpath = self.write_case(tmp_path, "bow", truth_seed=101)
        code = main(["identify", gpath, cpath, "--do", "X=0", "--effect", "Y",
                     "--epochs", "50", "--seed", "0"])
        assert code == 2
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["outcome"] == "not_inducible"
        assert verdict["ref_stop_reason"] == "max_iters"

    def test_malformed_do_exits_1(self, tmp_path):
        gpath, cpath = self.write_case(tmp_path, "bow", truth_seed=5)
        assert main(["identify", gpath, cpath, "--do", "X", "--effect", "Y"]) == 1

    @pytest.mark.parametrize("flags", [["--do", "X=nan"], ["--do", "X=0", "--iters", "0"],
                                       ["--do", "X=0", "--retry-cap", "0"],
                                       ["--do", "X=1", "--do", "X=2"]],
                             ids=["nan_value", "zero_iters", "zero_retry_cap", "repeated_target"])
    def test_bad_probe_settings_exit_1(self, tmp_path, capsys, flags):
        gpath, cpath = self.write_case(tmp_path, "bow", truth_seed=5)
        assert main(["identify", gpath, cpath, *flags, "--effect", "Y",
                     "--epochs", "50", "--restarts", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_nan_in_covariance_exits_1(self, tmp_path, capsys):
        gpath, cpath = self.write_case(tmp_path, "bow", truth_seed=5)
        lines = (tmp_path / "bow.csv").read_text().splitlines()
        lines[1] = ",".join(["nan"] + lines[1].split(",")[1:])
        (tmp_path / "bow.csv").write_text("\n".join(lines) + "\n")
        assert main(["identify", gpath, cpath, "--do", "X=0", "--effect", "Y"]) == 1
        assert "non-finite" in capsys.readouterr().err


class TestBenchCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--v", "8", "--lstar", "0.5", "--estar", "0.5",
                     "--methods", "cov,acc", "--reps", "2", "--seed", "0",
                     "-o", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "v,l_star,e_star,method,phase,mean_seconds"
        assert len(lines) == 1 + 4  # two methods x two phases


class TestExperimentCommand:
    def test_spec_round_trip(self):
        from pmdag.experiment import Experiment
        from pmdag.generate import GenSpec

        exp = Experiment(graph=GenSpec(v=4, l_star=0.5, e_star=0.4, seed=2),
                         truth_seed=7, fit_config=FitConfig(max_iters=100, seed=3),
                         repetitions=3, do_target="V0", do_effect="V1")
        again = Experiment.from_dict(exp.to_dict())
        assert again == exp

    def test_runs_from_spec(self, tmp_path):
        spec = {
            "graph": "bow",
            "truth_seed": 2,
            "fit_config": {"max_iters": 3000, "restarts": 1, "seed": 4},
            "repetitions": 2,
            "do_target": "X",
            "do_effect": "Y",
        }
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps(spec))
        outdir = tmp_path / "out"
        assert main(["experiment", str(spec_path), "-o", str(outdir)]) == 0
        assert (outdir / "summary.json").exists()
        assert (outdir / "kl_deciles.csv").exists()
        assert (outdir / "trace_rep00.csv").exists()
        assert (outdir / "trace_rep01.csv").exists()
        summary = json.loads((outdir / "summary.json").read_text())
        assert len(summary["repetitions"]) == 2

    @pytest.mark.parametrize("spec", [
        {"graph": "bow", "fit_config": {"bogus": 1}},
        {"fit_config": {}},
        {"graph": {"v": 3, "zz": 1}},
        {"graph": "bow", "repetitions": "2"},
        {"graph": "bow", "fit_config": {"max_iters": 1.5}},
        {"graph": "bow", "truth_seed": True},
        {"graph": "bow", "repetitions": 0},
        {"graph": "bow", "hook_stride": 0},
        [1, 2],
    ], ids=["unknown_fit_key", "missing_graph", "unknown_graph_key", "string_repetitions",
            "float_iterations", "bool_seed", "zero_repetitions", "zero_stride", "not_an_object"])
    def test_malformed_spec_exits_1(self, tmp_path, capsys, spec):
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["experiment", str(spec_path), "-o", str(tmp_path / "out")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_hook_builds_params_only_when_recording(self, tmp_path, monkeypatch):
        from pmdag import solver
        from pmdag.experiment import Experiment, run_experiment

        calls = []
        extract = solver.extract_params
        monkeypatch.setattr(solver, "extract_params", lambda *a: calls.append(1) or extract(*a))
        exp = Experiment(graph="bow", truth_seed=2, repetitions=1, do_target="X", do_effect="Y",
                         fit_config=FitConfig(max_iters=500, restarts=1, seed=4, kl_tol=0.0),
                         hook_stride=50)
        summary = run_experiment(exp, tmp_path)
        iterations = summary["repetitions"][0]["iterations"]
        assert iterations > 100
        # iteration 1 and every 50th are recorded, then the fit's result is built
        assert len(calls) == iterations // 50 + 2
