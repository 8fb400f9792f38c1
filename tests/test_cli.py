import json
from dataclasses import asdict

import numpy as np
import pytest

from wocd import (
    Cover,
    SynthConfig,
    TrainConfig,
    load_cover,
    load_edge_list,
    load_features,
    write_cover,
    write_features,
)
from wocd.cli import CONFIG_FLAGS, main

from conftest import graph_to_adj
from oracles import weak_cliques_reference


NAN, INF = float("nan"), float("inf")  # json.dumps writes NaN and Infinity


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    assert run(["synth", "--nodes", 60, "--communities", 3, "--p-in", 0.3,
                "--p-out", 0.01, "--dims-per-community", 6, "--seed", 7,
                "--out", out]) == 0
    return out


class TestSynth:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["synth", "--nodes", 50, "--communities", 4,
                        "--seed", 7, "--out", out]) == 0
        for name in ("edges.tsv", "features.csv", "cover.txt", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_forced_cliques_match_components(self, tmp_path):
        out = tmp_path / "c"
        assert run(["synth", "--nodes", 20, "--communities", 4, "--overlap", 0,
                    "--p-in", 1, "--p-out", 0, "--seed", 1, "--out", out]) == 0
        g = load_edge_list(out / "edges.tsv")
        cover = load_cover(out / "cover.txt")
        for u in range(20):
            for v in g.neighbors(u):
                assert np.array_equal(cover.memberships[u], cover.memberships[int(v)])

    def test_missing_flag_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["synth", "--communities", 3, "--out", tmp_path / "x"])
        assert exc.value.code != 0

    @pytest.mark.parametrize("flag, value, field, want", [
        ("--nodes", 40, "n_nodes", 40),
        ("--communities", 2, "n_communities", 2),
        ("--overlap", 0.3, "overlap_fraction", 0.3),
        ("--p-in", 0.2, "p_in", 0.2),
        ("--p-out", 0.01, "p_out", 0.01),
        ("--dims-per-community", 4, "dims_per_community", 4),
        ("--feature-signal", 0.7, "feature_signal", 0.7),
        ("--feature-noise", 0.1, "feature_noise", 0.1),
        ("--attribute-only-overlap", None, "overlap_edges", False),
        ("--seed", 5, "seed", 5),
    ])
    def test_flag_reaches_manifest(self, tmp_path, flag, value, field, want):
        flags = {"--nodes": 30, "--communities": 3, flag: value}
        argv = [tok for f, v in flags.items() for tok in (f, v) if tok is not None]
        assert run(["synth", *argv, "--out", tmp_path]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        del manifest["n_edges"], manifest["feature_dims"]
        assert manifest == {**asdict(SynthConfig(n_nodes=30, n_communities=3)), field: want}


class TestCliquesAndPseudo:
    def test_cliques_dump(self, synth_dir, tmp_path):
        out = tmp_path / "cliques.txt"
        assert run(["cliques", "--edges", synth_dir / "edges.tsv", "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines
        head, _, members = lines[0].partition(":")
        assert len(head.split()) == 2
        assert members.split()

    def test_cliques_dump_matches_reference(self, synth_dir, tmp_path):
        out = tmp_path / "cliques.txt"
        assert run(["cliques", "--edges", synth_dir / "edges.tsv", "--out", out]) == 0
        ref = weak_cliques_reference(graph_to_adj(load_edge_list(synth_dir / "edges.tsv")))
        want = "".join(f"{u} {v}: " + " ".join(map(str, members)) + "\n"
                       for u, v, members in ref)
        assert out.read_text() == want

    def test_pseudo_cover(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "pseudo.txt"
        assert run(["pseudo", "--edges", synth_dir / "edges.tsv",
                    "--cover", synth_dir / "cover.txt", "--rho", 0.2,
                    "--seed", 0, "--out", out]) == 0
        stats = capsys.readouterr().out
        assert "n_pseudo=" in stats and "cliques=" in stats
        cover = load_cover(out)
        assert cover.n_nodes == 60


class TestTrain:
    def test_end_to_end(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        assert run(["train", "--edges", synth_dir / "edges.tsv",
                    "--features", synth_dir / "features.csv",
                    "--cover", synth_dir / "cover.txt",
                    "--epochs-initial", 15, "--epochs-refined", 15,
                    "--hidden", 16, "--rho", 0.2, "--seed", 1,
                    "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["onmi"] <= 1.0
        assert (out / "c_final.txt").exists()

    def test_config_file_with_flag_override(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs_initial": 10, "epochs_refined": 5,
                                   "hidden": 16, "rho": 0.2, "lam2": 3.0}))
        out = tmp_path / "run"
        assert run(["train", "--edges", synth_dir / "edges.tsv",
                    "--features", synth_dir / "features.csv",
                    "--cover", synth_dir / "cover.txt",
                    "--config", cfg, "--lambda2", 0.0, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["lam2"] == 0.0
        assert report["config"]["epochs_initial"] == 10

    def test_missing_file_exit_code(self, synth_dir, tmp_path):
        assert run(["train", "--edges", tmp_path / "nope.tsv",
                    "--features", synth_dir / "features.csv",
                    "--cover", synth_dir / "cover.txt",
                    "--out", tmp_path / "run"]) == 3


# one case per CONFIG_FLAGS entry: the flag, a value, and the config field it
# sets as a path into TrainConfig.to_dict(); every value differs from both the
# default and the config file of test_flag_reaches_config
FLAG_CASES = [
    ("--lambda1", 0.5, ("lam1",), 0.5),
    ("--lambda2", 0.25, ("lam2",), 0.25),
    ("--epochs-initial", 2, ("epochs_initial",), 2),
    ("--epochs-refined", 2, ("epochs_refined",), 2),
    ("--lr", 0.002, ("lr",), 0.002),
    ("--hidden", 5, ("hidden",), 5),
    ("--seed", 3, ("seed",), 3),
    ("--alpha", 0.3, ("fusion", "alpha"), 0.3),
    ("--beta", 0.7, ("fusion", "beta"), 0.7),
    ("--gamma", 0.2, ("fusion", "gamma"), 0.2),
    ("--rc", 2, ("pseudo", "r_c"), 2),
    ("--tau", 0.8, ("pseudo", "tau"), 0.8),
    ("--binarize-threshold", 0.4, ("binarize_threshold",), 0.4),
    ("--rho", 0.3, ("rho",), 0.3),
    ("--activate-final", None, ("activate_final",), True),
    ("--refresh-union", None, ("refresh_union",), True),
]


class TestConfigFlags:
    def test_every_flag_has_a_case(self):
        assert [case[0] for case in FLAG_CASES] == list(CONFIG_FLAGS)

    @pytest.mark.parametrize("flag, value, path, want", FLAG_CASES,
                             ids=[case[0] for case in FLAG_CASES])
    def test_flag_reaches_config(self, synth_dir, tmp_path, flag, value, path, want):
        file_values = {"epochs_initial": 1, "epochs_refined": 1, "hidden": 4}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_values))
        out = tmp_path / "run"
        assert run(["train", "--edges", synth_dir / "edges.tsv",
                    "--features", synth_dir / "features.csv",
                    "--cover", synth_dir / "cover.txt", "--config", cfg,
                    *[tok for tok in (flag, value) if tok is not None], "--out", out]) == 0
        expected = {**TrainConfig().to_dict(), **file_values}
        section = expected
        for key in path[:-1]:
            section = section[key]
        assert section[path[-1]] != want
        section[path[-1]] = want
        assert json.loads((out / "report.json").read_text())["config"] == expected


# flag values the config dataclasses reject
OUT_OF_RANGE = [
    ["train", "--rho", 2], ["train", "--tau", 1.0], ["train", "--hidden", 0],
    ["train", "--rc", 0], ["train", "--seed", -1], ["ablate", "--rhos", 2],
    ["ablate", "--seeds", -1], ["pseudo", "--rho", 2], ["pseudo", "--rc", 0],
    ["synth", "--nodes", 0], ["synth", "--communities", 0],
    ["train", "--lr", -1], ["train", "--lr", 0], ["train", "--alpha", "nan"],
    ["train", "--lambda1", "inf"], ["synth", "--feature-signal", "nan"],
    ["synth", "--feature-noise", "inf"],
]


class TestExitCodes:
    def train(self, synth_dir, tmp_path, *extra, features=None):
        return run(["train", "--edges", synth_dir / "edges.tsv",
                    "--features", features or synth_dir / "features.csv",
                    "--cover", synth_dir / "cover.txt",
                    "--epochs-initial", 2, "--epochs-refined", 2, "--hidden", 8,
                    "--out", tmp_path / "run", *extra])

    def assert_one_line_error(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err

    def test_malformed_config_json(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert self.train(synth_dir, tmp_path, "--config", cfg) == 3
        self.assert_one_line_error(capsys)

    def test_unknown_config_key(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 3}))
        assert self.train(synth_dir, tmp_path, "--config", cfg) == 3
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("body", [{"fusion": 3}, {"pseudo": []}, {"select_best": True},
                                      {"rho": 2}, {"pseudo": {"tau": 1.0}}, {"hidden": 0},
                                      {"pseudo": {"r_c": 0}}, {"seed": -1},
                                      {"hidden": 2.5}, {"epochs_initial": 1.5}, {"lr": "0.1"},
                                      {"pseudo": {"r_c": 1.5}}, {"seed": 1.5},
                                      {"lr": NAN}, {"fusion": {"alpha": NAN}}, {"lam2": NAN},
                                      {"lr": INF}, {"lam1": INF}, {"fusion": {"beta": INF}},
                                      {"lr": -1}, {"lr": 0}],
                             ids=["fusion_not_object", "pseudo_not_object", "select_best",
                                  "rho_2", "tau_1", "hidden_0", "rc_0", "seed_-1",
                                  "hidden_float", "epochs_float", "lr_str", "rc_float",
                                  "seed_float", "lr_nan", "alpha_nan", "lam2_nan", "lr_inf",
                                  "lam1_inf", "beta_inf", "lr_-1", "lr_0"])
    def test_config_value_rejected(self, synth_dir, tmp_path, capsys, body):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body))
        assert self.train(synth_dir, tmp_path, "--config", cfg) == 3
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("short", ["features", "cover"])
    def test_node_count_mismatch(self, synth_dir, tmp_path, capsys, command, short):
        files = {"features": synth_dir / "features.csv", "cover": synth_dir / "cover.txt"}
        files[short] = tmp_path / f"short_{short}"
        if short == "features":  # the first 30 of 60 rows
            write_features(load_features(synth_dir / "features.csv")[:30], files[short])
        else:
            cover = load_cover(synth_dir / "cover.txt")
            write_cover(Cover(memberships=cover.memberships[:30]), files[short])
        sweep = ["--rhos", 0.2, "--seeds", 0] if command == "ablate" else []
        assert run([command, "--edges", synth_dir / "edges.tsv",
                    "--features", files["features"], "--cover", files["cover"], *sweep,
                    "--epochs-initial", 2, "--epochs-refined", 2, "--hidden", 8,
                    "--out", tmp_path / "run"]) == 3
        self.assert_one_line_error(capsys)

    @pytest.mark.filterwarnings("error")  # an empty features file is no NumPy warning
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_zero_nodes(self, tmp_path, capsys, command):
        (tmp_path / "edges.tsv").write_text("#nodes=0\n")
        (tmp_path / "cover.txt").write_text("#nodes=0\n#communities=2\n")
        (tmp_path / "features.csv").write_text("")
        sweep = ["--rhos", 0.2, "--seeds", 0] if command == "ablate" else []
        assert run([command, "--edges", tmp_path / "edges.tsv",
                    "--features", tmp_path / "features.csv", "--cover", tmp_path / "cover.txt",
                    *sweep, "--epochs-initial", 2, "--epochs-refined", 2, "--hidden", 8,
                    "--out", tmp_path / "run"]) == 3
        self.assert_one_line_error(capsys)

    def test_degenerate_projection(self, synth_dir, tmp_path, capsys):
        # all-zero features and zero initial biases make Q and K the zero matrix
        zeros = tmp_path / "zeros.csv"
        zeros.write_text("0,0,0\n" * 60)
        assert self.train(synth_dir, tmp_path, features=zeros) == 4
        self.assert_one_line_error(capsys)

    @pytest.mark.filterwarnings("error")  # the overflow is reported, not warned about
    def test_non_finite_projection(self, synth_dir, tmp_path, capsys):
        # finite features whose projection's Frobenius norm overflows
        huge = tmp_path / "huge.csv"
        write_features(1e200 * load_features(synth_dir / "features.csv"), huge)
        assert self.train(synth_dir, tmp_path, features=huge) == 4
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("case", ["bad_cell", "ragged_row", "no_communities"])
    def test_malformed_input(self, synth_dir, tmp_path, capsys, command, case):
        files = {"features": synth_dir / "features.csv", "cover": synth_dir / "cover.txt"}
        bad = tmp_path / case
        if case == "no_communities":
            bad.write_text("#nodes=60\n#communities=0\n")
            files["cover"] = bad
        else:
            rows = (synth_dir / "features.csv").read_text().splitlines()
            rows[1] = "x," + rows[1] if case == "bad_cell" else rows[1].rpartition(",")[0]
            bad.write_text("\n".join(rows) + "\n")
            files["features"] = bad
        sweep = ["--rhos", 0.2, "--seeds", 0] if command == "ablate" else []
        assert run([command, "--edges", synth_dir / "edges.tsv",
                    "--features", files["features"], "--cover", files["cover"], *sweep,
                    "--epochs-initial", 2, "--epochs-refined", 2, "--hidden", 8,
                    "--out", tmp_path / "run"]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["train", "ablate", "synth"])
    def test_out_names_a_file(self, synth_dir, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("")
        if command == "synth":
            argv = ["synth", "--nodes", 20, "--communities", 2]
        else:
            argv = [command, "--edges", synth_dir / "edges.tsv",
                    "--features", synth_dir / "features.csv",
                    "--cover", synth_dir / "cover.txt",
                    "--epochs-initial", 1, "--epochs-refined", 1, "--hidden", 4]
            argv += ["--rhos", 0.2, "--seeds", 0] if command == "ablate" else []
        assert run([*argv, "--out", out]) == 1
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("case", ["eval", "cliques", "max_int64_id", "key_overflow_id"])
    def test_unallocatable_size_header(self, tmp_path, capsys, case):
        # 178 PiB and 711 PiB: beyond any address space, so the allocation
        # fails at once without touching memory; a node id of 2**63 - 1 or
        # 3037000500 implies an N whose edge keys src * N + dst overflow int64
        if case == "eval":
            cover = tmp_path / "cover.txt"
            cover.write_text("#nodes=2\n#communities=100000000000000000\n0: 0\n1: 1\n")
            argv = ["eval", "--pred", cover, "--truth", cover]
        else:
            edges = tmp_path / "edges.tsv"
            edges.write_text({"cliques": "#nodes=100000000000000000\n0\t1\n",
                              "max_int64_id": "0\t9223372036854775807\n",
                              "key_overflow_id": "0\t3037000500\n"}[case])
            argv = ["cliques", "--edges", edges]
        assert run(argv) == 1
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("command, text, lineno", [
        ("cliques", "#nodes=-1\n", 1), ("cliques", "0\t1\n#nodes=x\n", 2),
        ("eval", "#communities=-2\n0: 0\n", 1)], ids=["nodes_-1", "nodes_x", "communities_-2"])
    def test_bad_size_header(self, tmp_path, capsys, command, text, lineno):
        # a size header that is negative or not an integer is a bad line, and
        # the error names the file and the line like any other
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        argv = ["--edges", bad] if command == "cliques" else ["--pred", bad, "--truth", bad]
        assert run([command, *argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert f"{bad}:{lineno}: bad header line" in err

    @pytest.mark.parametrize("command, bad", [
        ("cliques", "edges"), ("eval", "cover"), ("pseudo", "edges"), ("pseudo", "cover"),
        ("train", "edges"), ("train", "cover")])
    def test_non_utf8_input(self, synth_dir, tmp_path, capsys, command, bad):
        files = {"edges": synth_dir / "edges.tsv", "cover": synth_dir / "cover.txt"}
        files[bad] = tmp_path / f"{bad}.txt"
        files[bad].write_bytes(b"0\t1\n\xff\xfe\t2\n" if bad == "edges" else b"0: 0\n\xff: 1\n")
        argv = {"cliques": ["--edges", files["edges"]],
                "eval": ["--pred", files["cover"], "--truth", synth_dir / "cover.txt"],
                "pseudo": ["--edges", files["edges"], "--cover", files["cover"], "--rho", 0.2],
                "train": ["--edges", files["edges"], "--features", synth_dir / "features.csv",
                          "--cover", files["cover"], "--epochs-initial", 1,
                          "--epochs-refined", 1, "--hidden", 4]}[command]
        out = [] if command == "eval" else ["--out", tmp_path / "out"]
        assert run([command, *argv, *out]) == 3
        err = capsys.readouterr().err
        assert str(files[bad]) in err and err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("argv", OUT_OF_RANGE, ids=lambda a: f"{a[0]}{a[1]}={a[2]}")
    def test_out_of_range_flag(self, tmp_path, capsys, argv):
        # the inputs do not exist: the value must be rejected before they are read;
        # the flag under test comes last, so it overrides a required one
        command = argv[0]
        inputs = {"synth": [], "pseudo": ["--edges", "--cover"]}.get(
            command, ["--edges", "--features", "--cover"])
        required = {"synth": ["--nodes", 10, "--communities", 2], "pseudo": ["--rho", 0.1],
                    "ablate": ["--rhos", 0.1, "--seeds", 0]}.get(command, [])
        out = tmp_path / "out"
        assert run([command, *[tok for f in inputs for tok in (f, tmp_path / f[2:])],
                    *required, *argv[1:], "--out", out]) == 2
        self.assert_one_line_error(capsys)
        assert not out.exists()


class TestEval:
    def test_self_eval(self, synth_dir, capsys):
        assert run(["eval", "--pred", synth_dir / "cover.txt",
                    "--truth", synth_dir / "cover.txt"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["onmi"] == pytest.approx(1.0, abs=1e-12)

    def test_node_count_mismatch_exit_code(self, synth_dir, tmp_path, capsys):
        truth = load_cover(synth_dir / "cover.txt")
        short = tmp_path / "short.txt"
        write_cover(Cover(memberships=truth.memberships[:-1]), short)
        assert run(["eval", "--pred", short, "--truth", synth_dir / "cover.txt"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err


class TestAblate:
    def test_sweep_outputs(self, synth_dir, tmp_path):
        out = tmp_path / "sweep"
        assert run(["ablate", "--edges", synth_dir / "edges.tsv",
                    "--features", synth_dir / "features.csv",
                    "--cover", synth_dir / "cover.txt",
                    "--rhos", "0.1,0.2", "--seeds", "0,1",
                    "--epochs-initial", 10, "--epochs-refined", 10,
                    "--hidden", 16, "--out", out]) == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 4  # header + 2 rhos x 2 seeds
        summary = (out / "sweep_summary.csv").read_text().strip().splitlines()
        assert len(summary) == 1 + 2

    def test_sweep_deterministic(self, synth_dir, tmp_path):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert run(["ablate", "--edges", synth_dir / "edges.tsv",
                        "--features", synth_dir / "features.csv",
                        "--cover", synth_dir / "cover.txt",
                        "--rhos", "0.2", "--seeds", "0,1",
                        "--epochs-initial", 8, "--epochs-refined", 8,
                        "--hidden", 16, "--out", out]) == 0
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("flag, rhos, seeds", [("--rhos", "0.1,x", "0"),
                                                   ("--seeds", "0.1", "0,1.5")])
    def test_malformed_list_usage_error(self, tmp_path, capsys, flag, rhos, seeds):
        # the inputs do not exist: the list must be rejected before they are read
        with pytest.raises(SystemExit) as exc:
            run(["ablate", "--edges", tmp_path / "e.tsv", "--features", tmp_path / "f.csv",
                 "--cover", tmp_path / "c.txt", "--rhos", rhos, "--seeds", seeds,
                 "--out", tmp_path / "out"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
