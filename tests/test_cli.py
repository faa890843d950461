import functools
import hashlib
import inspect
import json
import re
from pathlib import Path

import pytest

import pmdag
from pmdag import bench as bench_mod
from pmdag.bench import bench
from pmdag.cli import _cmd_experiment, _fit_config, _parse_do, build_parser, main
from pmdag.experiment import SpecError
from pmdag.gauss import CovMatrix, save_cov_csv
from pmdag.generate import canonical, ground_truth
from pmdag.graph import GraphError, PmDag, load_graph, save_graph, validate
from pmdag.identify import identify
from pmdag.solver import FitConfig

from conftest import run_python


@pytest.fixture
def single_edge_files(tmp_path):
    g = validate([("L", "latent"), ("V", "visible")], [("L", "V")])
    gpath = tmp_path / "g.json"
    save_graph(g, gpath)
    cpath = tmp_path / "cov.csv"
    save_cov_csv(CovMatrix(("V",), [[4.0]]), cpath)
    return str(gpath), str(cpath)


class TestPublicSurface:
    def test_readme_quickstart_names_the_package_api(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"from pmdag import \(([^)]*)\)", readme).group(1)
        names = [name.strip() for name in block.split(",") if name.strip()]
        assert sorted(names) == sorted(pmdag.__all__)
        for name in names:
            getattr(pmdag, name)

    @pytest.mark.parametrize("argv", [["fit", "g.json", "c.csv"],
                                      ["identify", "g.json", "c.csv", "--do", "X=0",
                                       "--effect", "Y"]], ids=["fit", "identify"])
    def test_fit_flag_defaults_are_fit_config_defaults(self, argv):
        assert _fit_config(build_parser().parse_args(argv)) == FitConfig(seed=0)

    def test_probe_and_bench_flag_defaults_are_signature_defaults(self):
        probe = inspect.signature(identify).parameters
        args = build_parser().parse_args(["identify", "g.json", "c.csv", "--do", "X=0",
                                          "--effect", "Y"])
        assert (args.iters, args.tol_id) == tuple(
            probe[name].default for name in ("iters", "tol_id"))
        timing = inspect.signature(bench).parameters
        args = build_parser().parse_args(["bench", "-o", "b.csv"])
        assert tuple(args.methods.split(",")) == tuple(timing["methods"].default)
        assert args.reps == timing["repetitions"].default


class TestUsageErrors:
    # argparse exits 2 on a usage error, which would read as EXIT_NOT_INDUCIBLE
    @pytest.mark.parametrize("argv", [["identify", "g.json", "c.csv", "--do", "X=0", "--effect", "Y",
                                       "--method", "bogus"],
                                      ["fit", "g.json", "c.csv", "--epochs", "notanint"],
                                      ["fit", "g.json"]],
                             ids=["unknown_method", "non_integer_epochs", "missing_positional"])
    def test_usage_error_exits_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestConsoleScript:
    """The installed entry point, ``console_main``, run as its own process."""

    @pytest.mark.parametrize("argv, code", [(["canon", "bow"], 0),
                                            (["validate", "/nonexistent/g.json"], 1),
                                            (["fit", "g.json", "c.csv", "--method", "bogus"], 1),
                                            (["identify", "g.json", "c.csv", "--do", "X=0",
                                              "--effect", "Y", "--retry-cap", "5"], 1)],
                             ids=["canon", "missing_file", "usage_error", "retry_cap_flag"])
    def test_exit_code_without_traceback(self, argv, code):
        run = run_python("from pmdag.cli import console_main; console_main()", *argv)
        assert run.returncode == code
        assert "Traceback" not in run.stderr


LX_NODES = [{"name": "L", "role": "latent"}, {"name": "X", "role": "visible"}]
# graphs with one key that the graph format does not have
WEIGHTS_KEY = {"nodes": LX_NODES, "edges": [["L", "X"]], "weights": {"L->X": 1.0}}
COLOR_KEY = {"nodes": [LX_NODES[0], {"name": "X", "role": "visible", "color": "red"}],
             "edges": [["L", "X"]]}


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
        {"nodes": LX_NODES, "edges": 5},
        {"nodes": 5, "edges": []},
        {"nodes": LX_NODES, "edges": [["L", ["X"]]]},
        {"nodes": [{"name": ["L"], "role": "latent"}], "edges": []},
        {"nodes": LX_NODES + [None], "edges": [["L", "X"]]},
        {"nodes": LX_NODES, "edges": [["L", "X", "X"]]},
        '{"nodes": [',
        WEIGHTS_KEY,
        COLOR_KEY,
        {"nodes": [["L", "latent"], ["X", "visible", "red"]], "edges": [["L", "X"]]},
        {"nodes": [["L", "latent"], ["X", 1]], "edges": [["L", "X"]]},
    ], ids=["visible_root", "no_edges", "no_role", "int_edges", "int_nodes", "list_in_edge",
            "list_node_name", "null_node", "edge_triple", "not_json", "top_level_key",
            "node_key", "node_triple", "int_role_in_pair"])
    def test_invalid_graph_exits_1(self, tmp_path, capsys, graph):
        path = tmp_path / "bad.json"
        path.write_text(graph if isinstance(graph, str) else json.dumps(graph))
        assert main(["validate", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("graph, key", [(WEIGHTS_KEY, "weights"), (COLOR_KEY, "color")],
                             ids=["top_level_key", "node_key"])
    def test_unknown_key_is_named(self, tmp_path, capsys, graph, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(graph))
        assert main(["validate", str(path)]) == 1
        assert f"unknown keys ['{key}']" in capsys.readouterr().err

    def test_name_role_pairs_validate(self, tmp_path, capsys):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"nodes": [["L", "latent"], ["X", "visible"]], "edges": [["L", "X"]]}))
        assert main(["validate", str(path)]) == 0
        assert "ok: 2 nodes, 1 edges" in capsys.readouterr().out

    def test_missing_file_exits_1(self):
        assert main(["validate", "/nonexistent/g.json"]) == 1


class TestGenAndCanon:
    def test_gen_writes_graph(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["gen", "--v", "5", "--lstar", "0.4", "--estar", "0.5",
                     "--seed", "3", "-o", str(out)]) == 0
        g = load_graph(out)
        assert len(g.visible_names) == 5
        assert main(["validate", str(out), "--strict"]) == 0

    def test_canon_with_ground_truth(self, tmp_path):
        out = tmp_path / "bow.json"
        assert main(["canon", "bow", "-o", str(out), "--ground-truth-seed", "5"]) == 0
        assert load_graph(out) == canonical("bow")
        assert (tmp_path / "bow.json.cov.csv").exists()

    @pytest.mark.parametrize("argv", [["gen", "--v", "3"], ["canon", "bow"]], ids=["gen", "canon"])
    def test_graph_without_output_goes_to_stdout(self, argv, tmp_path, capsys):
        # the printed graph is the one -o writes
        assert main(argv) == 0
        printed = PmDag.from_dict(json.loads(capsys.readouterr().out))
        assert main(argv + ["-o", str(tmp_path / "g.json")]) == 0
        assert printed == load_graph(tmp_path / "g.json")

    def test_canon_unknown_name(self):
        assert main(["canon", "nonesuch"]) == 1

    def test_canon_ground_truth_seed_without_output_exits_1(self, capsys):
        assert main(["canon", "bow", "--ground-truth-seed", "5"]) == 1
        captured = capsys.readouterr()
        assert "--ground-truth-seed" in captured.err
        assert captured.out == ""

    def test_canon_negative_ground_truth_seed_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["canon", "bow", "-o", str(out), "--ground-truth-seed", "-1"]) == 1
        assert "seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSyncCommand:
    # SHA-256 of ``pmdag sync <graph> --masks``'s stdout, taken on the commit
    # that still stored the masks as dense 0/1 stacks
    MASKS_DIGESTS = {
        "backdoor": "3fe9c77c048f14a2777d919daf3d4f2a3cac7c83d65290fcc2203934d73d0712",
        "bad_m": "209886126ff5a24a1a6cabae82563455968bc12112cc797bbfc652aa77a1a419",
        "bow": "6387bb908e4eb3c843e23a2eba7f3e6a319f86dbc5e48d469feec89555173270",
        "extended_bow": "a46f137b9b8203740719b72116954cf5a84f500dc638f3ff1d937754ceaaabde",
        "frontdoor": "0730a2e68a0c0f0ac6de437b3f50012ca1f7f7d37abc05bf310b732376599ea3",
        "iv": "4182329bc0e10705f2f69f2ae3f1749af078fb9c066a4569d1fd4e5e6291e637",
        "m": "4368a46cd9160b94bf2a038fe52e01d524cc8a9bd96b8b7cfe956b9327713f44",
        "napkin": "837eba597b95f459d33b6dc50cafdbbc29d94f4987e246446e60577c56ea4bee",
    }

    @pytest.mark.parametrize("name", sorted(MASKS_DIGESTS))
    def test_masks_output_pinned(self, name, tmp_path, capsys):
        path = tmp_path / f"{name}.json"
        save_graph(canonical(name), path)
        assert main(["sync", str(path), "--masks"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.MASKS_DIGESTS[name]

    def test_prints_layers_and_masks(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        save_graph(canonical("bow"), path)
        dot = tmp_path / "sync.dot"
        assert main(["sync", str(path), "--masks", "--dot", str(dot)]) == 0
        out = capsys.readouterr().out
        assert "depth" in out and "trainable entries:" in out
        lines = dot.read_text().splitlines()
        # bow's 5 graph edges are drawn solid, its 3 identity carries dashed
        assert sum("style=solid" in line for line in lines) == 5
        assert sum("style=dashed" in line for line in lines) == 3


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
        for name, method in [("acc", "accumulation"), ("cov", "covariance"),
                             ("accumulation", "accumulation"), ("covariance", "covariance"),
                             ("reduced", "reduced")]:
            assert main(["fit", gpath, cpath, "--method", name, "--seed", "3",
                         "--restarts", "1"]) == 0
            result = json.loads(capsys.readouterr().out)
            assert result["method"] == method

    def test_fit_negative_seed_exits_1(self, single_edge_files, capsys):
        gpath, cpath = single_edge_files
        assert main(["fit", gpath, cpath, "--seed", "-1"]) == 1
        assert "seed" in capsys.readouterr().err

    def test_fit_overflowing_last_step_reports_diverged(self, tmp_path, capsys):
        gpath = tmp_path / "bow.json"
        assert main(["canon", "bow", "-o", str(gpath), "--ground-truth-seed", "101"]) == 0
        capsys.readouterr()
        assert main(["fit", str(gpath), f"{gpath}.cov.csv", "--optimizer", "sgd", "--lr", "1e100",
                     "--epochs", "1", "--restarts", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["stop_reason"] == "diverged"

    def test_fit_bad_target_exits_1(self, tmp_path, single_edge_files):
        gpath, _ = single_edge_files
        bad = tmp_path / "bad.csv"
        bad.write_text("V\n-1.0\n")
        assert main(["fit", gpath, str(bad)]) == 1

    @pytest.mark.parametrize("data", [b"V,W\n4.0,1.0\n1.0\n", b"V\nfour\n", b"V\n\xff\xfe",
                                      b"V\nnan\n", b"V\n-1.0\n", b"V,V\n1,0\n0,1\n"],
                             ids=["ragged_row", "non_numeric_cell", "non_utf8", "non_finite_cell",
                                  "not_positive_semidefinite", "duplicate_labels"])
    def test_fit_unreadable_target_names_the_file(self, tmp_path, single_edge_files, capsys, data):
        gpath, _ = single_edge_files
        bad = tmp_path / "unreadable.csv"
        bad.write_bytes(data)
        assert main(["fit", gpath, str(bad)]) == 1
        assert "error: covariance file" in capsys.readouterr().err

    def test_fit_empty_target_exits_1(self, tmp_path, single_edge_files, capsys):
        gpath, _ = single_edge_files
        empty = tmp_path / "empty.csv"
        empty.write_bytes(b"")
        assert main(["fit", gpath, str(empty)]) == 1
        assert f"error: empty covariance file: {empty}" in capsys.readouterr().err

    def test_fit_target_with_byte_order_mark(self, tmp_path, single_edge_files):
        gpath, cpath = single_edge_files
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(cpath).read_bytes())
        assert main(["fit", gpath, str(marked), "--epochs", "5", "--restarts", "1"]) == 0


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
        assert isinstance(verdict["witness_seeds"], list)

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

    def test_unknown_effect_exits_1_before_fitting(self, tmp_path, capsys):
        # five epochs leave the reference fit short of kl_tol, which would answer not_inducible
        gpath, cpath = self.write_case(tmp_path, "bow", truth_seed=5)
        code = main(["identify", gpath, cpath, "--do", "X=1", "--effect", "Q",
                     "--epochs", "5", "--restarts", "1"])
        assert code == 1
        assert "unknown node 'Q'" in capsys.readouterr().err

    def test_exhausted_budget_says_why(self, tmp_path, capsys):
        # the reference fit only runs out of iterations; the verdict names that
        gpath, cpath = self.write_case(tmp_path, "bow", truth_seed=101)
        code = main(["identify", gpath, cpath, "--do", "X=0", "--effect", "Y",
                     "--epochs", "50", "--seed", "0"])
        assert code == 2
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["outcome"] == "not_inducible"
        assert verdict["ref_stop_reason"] == "max_iters"

    def test_unconverged_slot_exits_1(self, tmp_path, capsys, monkeypatch):
        # the reference fit converges; every compared slot returns weights far off the target
        gpath, cpath = self.write_case(tmp_path, "bow", truth_seed=5)
        bow = canonical("bow")
        truth, _ = ground_truth(bow, seed=5)
        fits = iter([truth, truth.with_edge_weight(bow, "X", "Y", 50.0)])

        # a partial keeps the signature that build_parser reads the probe defaults from
        monkeypatch.setattr("pmdag.cli.identify",
                            functools.partial(identify, fn=lambda *_: (next(fits), None)))
        assert main(["identify", gpath, cpath, "--do", "X=0", "--effect", "Y"]) == 1
        err = capsys.readouterr().err
        assert "error: slot 1:" in err and "restarts" in err

    def test_malformed_do_exits_1(self, tmp_path):
        gpath, cpath = self.write_case(tmp_path, "bow", truth_seed=5)
        assert main(["identify", gpath, cpath, "--do", "X", "--effect", "Y"]) == 1

    @pytest.mark.parametrize("flags", [["--do", "X=nan"], ["--do", "X=0", "--iters", "0"],
                                       ["--do", "X=1", "--do", "X=2"],
                                       ["--do", "X=0", "--tol-id", "nan"],
                                       ["--do", "X=0", "--tol-id", "-1"],
                                       ["--do", "X=0", "--effect", "Y"], ["--do", "U_XY=0"],
                                       ["--do", "X=abc"]],
                             ids=["nan_value", "zero_iters", "repeated_target",
                                  "nan_tol_id", "negative_tol_id", "repeated_effect",
                                  "latent_target", "non_numeric_value"])
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


class TestTypedInputErrors:
    def test_non_numeric_do_value_is_a_graph_error(self):
        with pytest.raises(GraphError, match="X=abc"):
            _parse_do(["X=abc"])

    def test_spec_that_is_not_json_is_a_spec_error(self, tmp_path):
        spec_path = tmp_path / "exp.json"
        spec_path.write_text('{"graph": bow}')
        args = build_parser().parse_args(["experiment", str(spec_path), "-o", str(tmp_path / "out")])
        with pytest.raises(SpecError, match="exp.json"):
            _cmd_experiment(args)


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

    def test_repeated_method_timed_once(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--v", "8", "--lstar", "0.5", "--estar", "0.5",
                     "--methods", "cov,covariance", "--reps", "1", "-o", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[3:5] for row in rows] == [["covariance", "forward"], ["covariance", "backward"]]

    @pytest.mark.parametrize("kwargs", [{"methods": ("covariance", "foo")}, {"repetitions": True},
                                        {"repetitions": 1.0}],
                             ids=["unknown_second_method", "bool_repetitions", "float_repetitions"])
    def test_bad_arguments_rejected_before_any_graph(self, kwargs, monkeypatch):
        def no_graph(_spec):
            raise AssertionError("a graph was drawn")

        monkeypatch.setattr(bench_mod, "random_pmdag", no_graph)
        with pytest.raises(ValueError, match="unknown method 'foo'|must be an integer"):
            bench([8], [0.5], [0.5], **kwargs)

    def test_zero_reps_exits_1(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--v", "8", "--reps", "0", "-o", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method_exits_1(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--v", "4", "--lstar", "0", "--estar", "0.5", "--reps", "1",
                     "--methods", "foo", "-o", str(out)]) == 1
        assert "error: unknown method 'foo'" in capsys.readouterr().err
        assert not out.exists()


class TestExperimentCommand:
    def test_spec_round_trip(self):
        from pmdag.experiment import Experiment
        from pmdag.generate import GenSpec

        exp = Experiment(graph=GenSpec(v=4, l_star=0.5, e_star=0.4, seed=2),
                         truth_seed=7, fit_config=FitConfig(max_iters=100, seed=3),
                         repetitions=3, do_target="V0", do_effect="V1")
        again = Experiment.from_dict(exp.to_dict())
        assert again == exp

    def test_negative_truth_seed_is_a_spec_error(self):
        from pmdag.experiment import Experiment, SpecError

        with pytest.raises(SpecError, match="truth_seed"):
            Experiment.from_dict({"graph": "bow", "truth_seed": -2})

    @pytest.mark.parametrize("kwargs", [{"repetitions": 2.0}, {"hook_stride": 2.5}, {"truth_seed": True}],
                             ids=["float_repetitions", "float_hook_stride", "bool_truth_seed"])
    def test_non_integer_count_is_a_spec_error(self, kwargs):
        from pmdag.experiment import Experiment, SpecError

        with pytest.raises(SpecError, match=f"{next(iter(kwargs))} must be an integer"):
            Experiment("bow", **kwargs)

    def test_runs_from_spec(self, tmp_path):
        self.run_spec(tmp_path, {
            "graph": "bow",
            "truth_seed": 2,
            "fit_config": {"max_iters": 3000, "restarts": 1, "seed": 4},
            "repetitions": 2,
            "do_target": "X",
            "do_effect": "Y",
        })

    def test_runs_from_a_generator_spec(self, tmp_path):
        summary = self.run_spec(tmp_path, {
            "graph": {"v": 3, "l_star": 0.5, "e_star": 0.5, "seed": 1},
            "fit_config": {"max_iters": 50, "restarts": 1},
            "repetitions": 2,
        })
        assert (summary["graph_nodes"], summary["graph_edges"]) == (9, 12)

    @staticmethod
    def run_spec(tmp_path, spec) -> dict:
        """Run a two-repetition spec through the CLI, check its files, and return its summary."""
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
        return summary

    def test_do_deciles_follow_the_returned_restart(self, tmp_path):
        # no repetition converges within 120 iterations, so each spends all 3
        # restarts; only the returned restart's hook records reach the deciles
        spec = {
            "graph": "napkin",
            "truth_seed": 3,
            "fit_config": {"max_iters": 120, "restarts": 3, "seed": 5},
            "repetitions": 2,
            "do_target": "X",
            "do_effect": "Y",
            "hook_stride": 50,
        }
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps(spec))
        outdir = tmp_path / "out"
        assert main(["experiment", str(spec_path), "-o", str(outdir)]) == 0
        rows = (outdir / "do_deciles.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == [1, 50, 100]

    def test_spec_with_byte_order_mark(self, tmp_path):
        spec = {"graph": "bow", "fit_config": {"max_iters": 5, "restarts": 1}, "repetitions": 1}
        spec_path = tmp_path / "exp.json"
        spec_path.write_bytes(b"\xef\xbb\xbf" + json.dumps(spec).encode())
        assert main(["experiment", str(spec_path), "-o", str(tmp_path / "out")]) == 0

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
        {"graph": "bow", "do_target": "X"},
        {"graph": "bow", "do_effect": "Y"},
        {"graph": "nosuch"},
        {"graph": "bow", "do_target": "U_XY", "do_effect": "Y"},
        '{"graph": bow}',
    ], ids=["unknown_fit_key", "missing_graph", "unknown_graph_key", "string_repetitions",
            "float_iterations", "bool_seed", "zero_repetitions", "zero_stride", "not_an_object",
            "do_target_alone", "do_effect_alone", "unknown_graph", "latent_do_target", "not_json"])
    def test_malformed_spec_exits_1(self, tmp_path, capsys, spec):
        """A rejected spec exits 1 and leaves no output directory behind."""
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
        assert main(["experiment", str(spec_path), "-o", str(tmp_path / "out")]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_spec_rejected_by_fit_leaves_no_directory(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"nodes": [["A", "latent"]], "edges": []}))
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps({"graph": str(gpath)}))
        assert main(["experiment", str(spec_path), "-o", str(tmp_path / "out")]) == 1
        assert "no visible nodes" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
