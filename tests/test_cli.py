import json
import math

import numpy as np
import pytest

from tensorgeo.cli import main
from tensorgeo.polytope import Region, simplex


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_polytope(self, capsys):
        code = main(["measure", "--j", "1"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["crofton-verify", "--builtin", "cube2", "--k", "1", "--j", "0"],
        ["kinematic-verify", "--builtin", "cube2", "--builtin2", "cube2", "--j", "0"],
        ["steiner-check", "--builtin", "cube2", "--eps", "0.5"]])
    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_samples_below_one(self, capsys, argv, samples):
        assert main(argv + ["--samples", samples]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--samples" in captured.err

    @pytest.mark.parametrize("argv", [
        ["measure", "--builtin", "cube2", "--j", "5"],
        ["measure", "--builtin", "cube2", "--j", "-1"],
        ["crofton-verify", "--builtin", "cube2", "--k", "1", "--j", "2"],
        ["crofton-verify", "--builtin", "cube2", "--k", "3", "--j", "0"],
        ["crofton-verify", "--builtin", "cube2", "--k", "1", "--j", "0", "--l", "1"],
        ["kinematic-verify", "--builtin", "cube2", "--builtin2", "cube2", "--j", "3"],
        ["kinematic-verify", "--builtin", "cube2", "--builtin2", "cube2", "--j", "0", "--l", "1"],
        ["coeff", "d", "--n", "3", "--j", "2", "--k", "1"],
        ["coeff", "thm31", "--n", "3", "--k", "5"],
        ["independence", "--n", "0", "--p", "2"],
        ["independence", "--n", "1", "--p", "2"],
        ["independence", "--n", "2", "--p", "-1"],
        ["independence", "--n", "2", "--p", "2", "--trials", "0"],
        ["crofton-verify", "--builtin", "cube2", "--k", "0", "--j", "0"],
        ["crofton-verify", "--builtin", "cube2", "--k", "2", "--j", "0"],
        ["kinematic-verify", "--builtin", "cube2", "--builtin2", "cube3", "--j", "0"],
        ["steiner-check", "--builtin", "cube2", "--eps", "0.5", "-0.5"],
        ["crofton-verify", "--builtin", "cube3", "--k", "2", "--j", "1", "--s", "-1"],
        ["kinematic-verify", "--builtin", "cube2", "--builtin2", "cube2", "--j", "1", "--s", "-1"],
        ["measure", "--builtin", "cube3", "--j", "1", "--s", "-1"],
        ["measure", "--builtin", "cube3", "--j", "1", "--r", "-1"],
        ["measure", "--builtin", "cube3", "--j", "1", "--l", "-1"]],
        ids=["measure-j-above-n", "measure-j-negative", "crofton-j-above-k", "crofton-k-above-n",
             "crofton-l-at-j0", "kinematic-j-above-n", "kinematic-l-at-j0", "coeff-d-j-above-k",
             "coeff-thm31-k-above-n", "independence-n-0", "independence-n-1",
             "independence-p-negative", "independence-trials-0", "crofton-k-0", "crofton-k-n",
             "kinematic-dimensions-differ", "steiner-eps-negative", "crofton-s-negative",
             "kinematic-s-negative", "measure-s-negative", "measure-r-negative",
             "measure-l-negative"])
    def test_index_out_of_range(self, capsys, argv):
        # coeff, independence and measure draw no samples
        samples = [] if argv[0] in ("coeff", "independence", "measure") else ["--samples", "10"]
        assert main(argv + samples) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["coeff", "d", "--n", "3", "--j", "1", "--k", "2", "--s", "-2"],
        ["coeff", "d", "--n", "3", "--j", "1", "--k", "2", "--s", "2", "--l", "-1"],
        ["coeff", "iota", "--n", "3", "--k", "2", "--s", "-1"],
        ["coeff", "kappa", "--n", "3", "--k", "2", "--s", "-2"],
        ["coeff", "lambda", "--n", "4", "--k", "2", "--s", "-2"],
        ["coeff", "thm31", "--s", "-2"],
        ["measure", "--builtin", "simplex3", "--j", "0", "--budget", "0"],
        ["measure", "--builtin", "simplex3", "--j", "0", "--budget", "-5"]],
        ids=["d-s", "d-l", "iota-s", "kappa-s", "lambda-s", "thm31-s", "budget-0",
             "budget-negative"])
    def test_negative_s_l_and_budget_below_one(self, capsys, argv):
        # the tables must not print a bare header or -0.0, nor may a budget
        # below one leave each sampled cone to the 1 / _RATE_FLOOR escalation
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["measure", "--builtin", "simplex3", "--j", "0"],
        ["crofton-verify", "--builtin", "cube2", "--k", "1", "--j", "0", "--samples", "10"],
        ["kinematic-verify", "--builtin", "cube2", "--builtin2", "cube2", "--samples", "10"],
        ["steiner-check", "--builtin", "cube2", "--samples", "10"],
        ["independence", "--n", "2", "--p", "2"]],
        ids=["measure", "crofton", "kinematic", "steiner", "independence"])
    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "abc", "env:-1", "env:abc"])
    def test_seed_outside_key_word(self, capsys, monkeypatch, argv, seed):
        # a seed keys one 64-bit Philox word; a bad TENSORGEO_SEED is a usage
        # error of the commands that take --seed, not of building the parser
        if seed.startswith("env:"):
            monkeypatch.setenv("TENSORGEO_SEED", seed[4:])
        else:
            argv = argv + ["--seed", seed]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_commands_without_a_seed_ignore_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("TENSORGEO_SEED", "abc")
        code, out = run(capsys, "coeff", "alpha", "--n", "3", "--j", "1", "--k", "2")
        assert code == 0 and out.startswith("j,k,value")

    def test_rotate2_outside_key_word(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kinematic-verify", "--builtin", "cube2", "--builtin2", "cube2",
                  "--rotate2", "-1", "--samples", "10"])
        assert exc.value.code == 2


class TestFlags:
    """Each command takes only the flags it reads."""

    @pytest.mark.parametrize("argv", [
        ["measure", "--builtin", "cube2", "--j", "1", "--samples", "5"],
        ["measure", "--builtin", "cube2", "--j", "1", "--margin", "0.5"],
        ["steiner-check", "--builtin", "cube2", "--eps", "0.5", "--budget", "100"],
        ["steiner-check", "--builtin", "cube2", "--eps", "0.5", "--margin", "0.5"]],
        ids=["measure-samples", "measure-margin", "steiner-budget", "steiner-margin"])
    def test_unread_flags_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestMeasure:
    def test_builtin_cube(self, capsys):
        code, out = run(capsys, "measure", "--builtin", "cube2", "--j", "1")
        assert code == 0
        report = json.loads(out)
        assert report["coordinates"][0]["value"] == pytest.approx(2.0)
        assert report["exact"] is True
        assert report["schema_version"] == 1
        assert report["cone_methods"] == {"point": 4}       # one facet ray per edge

    def test_cone_methods_name_the_sampled_cones(self, capsys):
        code, out = run(capsys, "measure", "--builtin", "simplex3", "--j", "0", "--s", "2",
                        "--budget", "500", "--seed", "1")
        report = json.loads(out)
        assert code == 0 and report["exact"] is False
        assert report["cone_methods"] == {"product": 1, "monte-carlo": 3}
        assert report["mc_samples"] == 1500

    def test_polytope_file(self, tmp_path, capsys):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(simplex(2).to_json()))
        code, out = run(capsys, "measure", "--polytope", str(path), "--j", "2")
        assert code == 0
        assert json.loads(out)["coordinates"][0]["value"] == pytest.approx(0.5)

    def test_region_file(self, tmp_path, capsys):
        rpath = tmp_path / "region.json"
        rpath.write_text(json.dumps(Region.box([0, 0], [0.5, 1]).to_json()))
        code, out = run(capsys, "measure", "--builtin", "cube2", "--j", "2",
                        "--region", str(rpath))
        assert code == 0
        assert json.loads(out)["coordinates"][0]["value"] == pytest.approx(0.5)

    def test_bad_file(self, capsys):
        assert main(["measure", "--polytope", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("flag, obj, key", [
        ("--polytope", {"halfspaces": [{"normal": [1, 0, 0], "offset": 1}]}, "vertices"),
        ("--polytope", [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], "vertices"),
        ("--region", {"vertices": [[0, 0, 0], [1, 0, 0]]}, "halfspaces"),
        ("--region", {"halfspaces": [{"normal": [1, 0, 0]}]}, "offset")],
        ids=["polytope-halfspaces-only", "polytope-list", "region-without-halfspaces",
             "halfspace-without-offset"])
    def test_malformed_json_is_a_usage_error(self, tmp_path, capsys, flag, obj, key):
        # a region file passed as --polytope, and the like, is an input
        # error (exit 2) that names the missing key, not a KeyError (exit 3)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        body = [] if flag == "--polytope" else ["--builtin", "cube3"]
        assert main(["measure", *body, flag, str(path), "--j", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and repr(key) in captured.err

    @pytest.mark.parametrize("normal, message", [([1, 0], "a window in R^2 does not fit a body in R^3"),
                                                 ([], "needs a halfspace")], ids=["narrow", "empty"])
    def test_region_of_the_wrong_width_is_a_usage_error(self, tmp_path, capsys, normal, message):
        # a window must be as wide as the body; a halfspace with an empty
        # normal is no window (the whole space is a file of no halfspaces)
        path = tmp_path / "region.json"
        path.write_text(json.dumps({"halfspaces": [{"normal": normal, "offset": 1}]}))
        # also where the measure is zero: j = n with s != 0, j = 0 with l != 0
        for index in (["--j", "1"], ["--j", "3", "--s", "2"], ["--j", "0", "--l", "1"]):
            assert main(["measure", "--builtin", "cube3", *index, "--region", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("name", ["cube5", "cross5", "simplex7", "random9"])
    def test_builtin_outside_the_scope_is_a_usage_error(self, capsys, name):
        assert main(["measure", "--builtin", name, "--j", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "dimension 1 to 4" in captured.err

    @pytest.mark.parametrize("region", [{"universe": True}, {"halfspaces": []}])
    def test_whole_space_region_file(self, tmp_path, capsys, region):
        rpath = tmp_path / "region.json"
        rpath.write_text(json.dumps(region))
        code, windowed = run(capsys, "measure", "--builtin", "cube3", "--j", "1", "--s", "2",
                             "--region", str(rpath))
        _, plain = run(capsys, "measure", "--builtin", "cube3", "--j", "1", "--s", "2")
        assert code == 0
        assert json.loads(windowed)["coordinates"] == json.loads(plain)["coordinates"]

    def test_collapsed_sampling_is_an_internal_error(self, tmp_path, capsys):
        # the apex cone of a square pyramid 1e-3 high takes about 3e-7 of
        # the sphere: no direction of 1 / _RATE_FLOOR hits it
        path = tmp_path / "pyramid.json"
        path.write_text(json.dumps({"vertices": [[-1, -1, 0], [1, -1, 0], [1, 1, 0], [-1, 1, 0],
                                                 [0, 0, 1e-3]]}))
        assert main(["measure", "--polytope", str(path), "--j", "0", "--budget", "2000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "ConeMomentBudgetError" in captured.err

    def test_thin_slab_is_a_segment(self, tmp_path, capsys):
        # eight points in a slab 2.2e-7 thick, within its slack: V_1 is the
        # length of the segment between the outermost two
        pts = np.random.default_rng(0).standard_normal((8, 2))
        pts[:, 1] *= 1e-7
        c, s = math.cos(0.7), math.sin(0.7)
        path = tmp_path / "slab.json"
        path.write_text(json.dumps({"vertices": (pts @ np.array([[c, -s], [s, c]]).T).tolist()}))
        code, out = run(capsys, "measure", "--polytope", str(path), "--j", "1")
        assert code == 0
        ends = pts[[np.argmin(pts[:, 0]), np.argmax(pts[:, 0])]]
        assert json.loads(out)["coordinates"][0]["value"] == pytest.approx(
            np.linalg.norm(ends[1] - ends[0]), rel=1e-12)


class TestCoeff:
    def test_d_table_csv(self, capsys):
        code, out = run(capsys, "coeff", "d", "--n", "3", "--j", "1", "--k", "2",
                        "--s", "2", "--l", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,m,value"
        assert len(lines) == 4  # (0,0), (0,1), (1,1)

    def test_alpha(self, capsys):
        code, out = run(capsys, "coeff", "alpha", "--n", "2", "--j", "0", "--k", "1")
        assert code == 0
        value = float(out.strip().splitlines()[1].split(",")[-1])
        assert value == pytest.approx(2 / math.pi)

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        code, _ = run(capsys, "coeff", "kappa", "--n", "3", "--k", "2", "--s", "2",
                      "--out", str(path))
        assert code == 0
        assert path.read_text().startswith("m,value")


class TestVerifyCommands:
    def test_crofton_pass(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out = run(capsys, "crofton-verify", "--builtin", "cube2",
                        "--k", "1", "--j", "0", "--samples", "20000",
                        "--seed", "7", "--out", str(path))
        assert code == 0
        report = json.loads(path.read_text())
        assert report["passed"] is True
        assert report["config"]["samples"] == 20000
        assert report["schema_version"] == 1

    def test_kinematic_pass(self, capsys):
        code, out = run(capsys, "kinematic-verify", "--builtin", "cube2",
                        "--builtin2", "cube2", "--rotate2", "5", "--j", "0",
                        "--samples", "20000", "--seed", "3")
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("argv, evaluator", [
        (["kinematic-verify", "--builtin", "cube3", "--builtin2", "cube3", "--rotate2", "1",
          "--j", "1", "--s", "2", "--samples", "400"], "face-sum"),
        (["crofton-verify", "--builtin", "cube4", "--k", "3", "--j", "0", "--samples", "40"],
         "per-sample")], ids=["face-sum", "per-sample"])
    def test_report_names_its_evaluator(self, capsys, argv, evaluator):
        """Vertices of 3-flat sections of the 4-cube have cones with three
        rays, which only the per-sample evaluator measures."""
        code, out = run(capsys, *argv, "--seed", "1")
        report = json.loads(out)
        assert code == 0 and report["evaluator"] == evaluator
        assert report["schema_version"] == 1

    def test_margin_is_no_flag(self, capsys):
        """Every flat or motion that meets the body lies in the samplers'
        support without a margin, so there is none to set."""
        with pytest.raises(SystemExit) as exc:
            main(["crofton-verify", "--builtin", "cube2", "--k", "1", "--j", "0",
                  "--margin", "0.5", "--samples", "10"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --margin" in capsys.readouterr().err

    def test_independence(self, capsys):
        code, out = run(capsys, "independence", "--n", "2", "--p", "2",
                        "--trials", "6", "--seed", "1")
        assert code == 0
        report = json.loads(out)
        assert report["rank"] == report["expected_count"] == 10

    def test_independence_reports_its_margin(self, capsys):
        code, out = run(capsys, "independence", "--n", "2", "--p", "4", "--seed", "1")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True and report["rank"] == report["expected_count"] == 21
        sv = report["singular_values"]
        assert report["sv_rank_ratio"] == sv[20] / sv[0] and report["sv_rank_ratio"] > 1e-6
        assert report["sv_next_ratio"] is None

    def test_rotate2_draws_from_its_own_stream(self, capsys, monkeypatch):
        """The rotation of the second body and the motion sampler never read
        one stream, though --rotate2 and --seed are equal."""
        import tensorgeo.flats as flats_module
        import tensorgeo.rng as rng_module
        real, keys = rng_module.stream, []

        def recorded(seed, index=0, purpose=0):
            keys.append((seed, index, purpose))
            return real(seed, index, purpose)
        monkeypatch.setattr(rng_module, "stream", recorded)
        monkeypatch.setattr(flats_module, "stream", recorded)
        code, _ = run(capsys, "kinematic-verify", "--builtin", "cube2", "--builtin2", "cube2",
                      "--rotate2", "5", "--j", "0", "--samples", "200", "--seed", "5")
        assert code in (0, 1) and len(keys) >= 2
        assert len(keys) == len(set(keys))

    def test_rotate2_zero_turns_the_second_body(self, capsys):
        # 0 is a seed like any other, not "no rotation"
        argv = ["kinematic-verify", "--builtin", "cube2", "--builtin2", "cube2", "--j", "0",
                "--samples", "2000", "--seed", "1"]
        _, plain = run(capsys, *argv)
        _, turned = run(capsys, *argv, "--rotate2", "0")
        lhs = [[c["lhs"] for c in json.loads(out)["coordinates"]] for out in (plain, turned)]
        assert lhs[0] != lhs[1]

    def test_steiner(self, capsys):
        code, out = run(capsys, "steiner-check", "--builtin", "cube2",
                        "--eps", "0.5", "--samples", "200000", "--seed", "2")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["steiner_volume"][0] == pytest.approx(1 + 2 + math.pi / 4, rel=1e-12)

    @pytest.mark.parametrize("argv, eps", [([], [0.25, 0.5, 1.0]),
                                           (["--eps", "0.25", "--eps", "0.5"], [0.25, 0.5]),
                                           (["--eps", "0.25", "0.5", "--eps", "1"], [0.25, 0.5, 1.0])],
                             ids=["default", "repeated", "list-then-repeated"])
    def test_steiner_eps_accumulates(self, capsys, argv, eps):
        code, out = run(capsys, "steiner-check", "--builtin", "cube2", *argv,
                        "--samples", "2000", "--seed", "2", "--rel-tol", "1")
        assert code == 0
        report = json.loads(out)
        assert report["eps"] == report["config"]["eps"] == eps
        assert len(report["mc_volume"]) == len(eps)

    def test_steiner_cube4(self, capsys):
        code, out = run(capsys, "steiner-check", "--builtin", "cube4",
                        "--eps", "0.5", "--samples", "200000", "--seed", "2")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_steiner_rejects_a_segment(self, tmp_path, capsys):
        path = tmp_path / "segment.json"
        path.write_text(json.dumps({"vertices": [[0.0, 0.0], [1.0, 0.0]]}))
        assert main(["steiner-check", "--polytope", str(path), "--samples", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "full-dimensional" in captured.err


class TestReproducibility:
    def test_same_seed_same_report(self, capsys):
        code1, out1 = run(capsys, "crofton-verify", "--builtin", "cube2",
                          "--k", "1", "--j", "0", "--samples", "5000", "--seed", "9")
        code2, out2 = run(capsys, "crofton-verify", "--builtin", "cube2",
                          "--k", "1", "--j", "0", "--samples", "5000", "--seed", "9")
        r1, r2 = json.loads(out1), json.loads(out2)
        for r in (r1, r2):
            r.pop("wall_time_s")
        assert r1 == r2

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("TENSORGEO_SEED", "42")
        code, out = run(capsys, "independence", "--n", "2", "--p", "0")
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 42
