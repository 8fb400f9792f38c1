import json

import numpy as np
import pytest

from wocd import Cover, load_cover, load_edge_list, load_features, write_cover, write_features
from wocd.cli import main

from conftest import graph_to_adj
from oracles import weak_cliques_reference


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

    @pytest.mark.parametrize("body", [{"fusion": 3}, {"pseudo": []}, {"select_best": True}],
                             ids=["fusion_not_object", "pseudo_not_object", "select_best"])
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

    def test_degenerate_projection(self, synth_dir, tmp_path, capsys):
        # all-zero features and zero initial biases make Q and K the zero matrix
        zeros = tmp_path / "zeros.csv"
        zeros.write_text("0,0,0\n" * 60)
        assert self.train(synth_dir, tmp_path, features=zeros) == 4
        self.assert_one_line_error(capsys)


class TestEval:
    def test_self_eval(self, synth_dir, capsys):
        assert run(["eval", "--pred", synth_dir / "cover.txt",
                    "--truth", synth_dir / "cover.txt"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["onmi"] == pytest.approx(1.0, abs=1e-12)


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
