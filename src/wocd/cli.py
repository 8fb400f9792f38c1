"""Command-line surface: synth | cliques | pseudo | train | eval | ablate."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .cliques import identify_weak_cliques
from .graph import (
    FormatError,
    SynthConfig,
    load_cover,
    load_edge_list,
    load_features,
    sample_labels,
    synth_graph,
    write_cover,
    write_edge_list,
    write_features,
)
from .metrics import metric_report
from .model import DegenerateProjectionError, FusionParams
from .pseudo import PseudoConfig, construct_pseudo_labels, pseudo_coverage
from .train import TrainConfig, run_pipeline

EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_NUMERIC = 4
EXIT_OTHER = 1


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON config; flags override its keys")
    p.add_argument("--lambda1", type=float, dest="lam1")
    p.add_argument("--lambda2", type=float, dest="lam2")
    p.add_argument("--epochs-initial", type=int, dest="epochs_initial")
    p.add_argument("--epochs-refined", type=int, dest="epochs_refined")
    p.add_argument("--lr", type=float)
    p.add_argument("--hidden", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--rc", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--binarize-threshold", type=float, dest="binarize_threshold")
    p.add_argument("--rho", type=float)
    p.add_argument("--activate-final", action="store_true", default=None,
                   dest="activate_final")
    p.add_argument("--refresh-union", action="store_true", default=None,
                   dest="refresh_union")


def _build_config(args) -> TrainConfig:
    cfg = TrainConfig()
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                cfg = TrainConfig.from_dict(json.load(fh))
            except (json.JSONDecodeError, TypeError) as exc:  # not JSON, or a bad key or value
                raise FormatError(f"config {args.config}: {exc}") from None
    fusion = {"alpha": cfg.fusion.alpha, "beta": cfg.fusion.beta, "gamma": cfg.fusion.gamma}
    pseudo = {"r_c": cfg.pseudo.r_c, "tau": cfg.pseudo.tau}
    plain = cfg.to_dict()
    for key in ("lam1", "lam2", "epochs_initial", "epochs_refined", "lr", "hidden",
                "seed", "binarize_threshold", "rho", "activate_final",
                "refresh_union"):
        val = getattr(args, key, None)
        if val is not None:
            plain[key] = val
    for flag, key in (("alpha", "alpha"), ("beta", "beta"), ("gamma", "gamma")):
        val = getattr(args, flag, None)
        if val is not None:
            fusion[key] = val
    if getattr(args, "rc", None) is not None:
        pseudo["r_c"] = args.rc
    if getattr(args, "tau", None) is not None:
        pseudo["tau"] = args.tau
    plain["fusion"] = fusion
    plain["pseudo"] = pseudo
    return TrainConfig.from_dict(plain)


def cmd_synth(args) -> int:
    config = SynthConfig(
        n_nodes=args.nodes,
        n_communities=args.communities,
        overlap_fraction=args.overlap,
        p_in=args.p_in,
        p_out=args.p_out,
        dims_per_community=args.dims_per_community,
        feature_signal=args.feature_signal,
        feature_noise=args.feature_noise,
        overlap_edges=not args.attribute_only_overlap,
        seed=args.seed,
    )
    graph, x, cover = synth_graph(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_edge_list(graph, out / "edges.tsv")
    write_features(x, out / "features.csv")
    write_cover(cover, out / "cover.txt")
    manifest = asdict(config)
    manifest.update(n_edges=graph.n_edges, feature_dims=x.shape[1])
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_cliques(args) -> int:
    graph = load_edge_list(args.edges)
    cliques = identify_weak_cliques(graph)
    lines = [
        f"{rec.seed_u} {rec.seed_v}: " + " ".join(str(m) for m in rec.members)
        for rec in cliques.cliques
    ]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_pseudo(args) -> int:
    graph = load_edge_list(args.edges)
    cover = load_cover(args.cover)
    if cover.n_nodes != graph.n_nodes:
        raise FormatError("edge list and cover disagree on the number of nodes")
    sampled = sample_labels(cover, args.rho, args.seed)
    cliques = identify_weak_cliques(graph)
    pseudo = construct_pseudo_labels(
        cliques, sampled, graph.n_nodes, cover.n_communities, args.rc
    )
    write_cover(pseudo, args.out)
    n_pseudo = pseudo_coverage(pseudo, sampled)
    print(f"n_pseudo={n_pseudo} cliques={len(cliques)} sampled={sampled.n_sampled}")
    return 0


def _load_inputs(args):
    """Edge list, features and cover of ``train``/``ablate``; all must agree on N."""
    graph = load_edge_list(args.edges)
    x = load_features(args.features, header=args.features_header)
    cover = load_cover(args.cover)
    if x.shape[0] != graph.n_nodes or cover.n_nodes != graph.n_nodes:
        raise FormatError("edge list, features and cover disagree on the number of nodes")
    return graph, x, cover


def cmd_train(args) -> int:
    graph, x, cover = _load_inputs(args)
    config = _build_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    artifacts: dict = {}
    report = run_pipeline(graph, x, cover, config, artifacts=artifacts)
    write_cover(artifacts["c_final"], out / "c_final.txt")
    payload = report.to_dict()
    payload["config"] = config.to_dict()
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"onmi={report.onmi:.6f} n_pseudo_initial={report.n_pseudo_initial} "
          f"n_pseudo_refined={report.n_pseudo_refined}")
    return 0


def cmd_eval(args) -> int:
    pred = load_cover(args.pred)
    truth = load_cover(args.truth)
    report = metric_report(pred, truth)
    json.dump(asdict(report), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_ablate(args) -> int:
    graph, x, cover = _load_inputs(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for rho in args.rhos:
        for seed in args.seeds:
            config = _build_config(args)
            config = TrainConfig.from_dict({**config.to_dict(), "rho": rho, "seed": seed})
            report = run_pipeline(graph, x, cover, config)
            rows.append((rho, seed, report))

    with open(out / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["rho", "seed", "onmi_pct", "onmi_initial_pct",
                    "n_pseudo_initial", "n_pseudo_refined"])
        for rho, seed, rep in rows:
            w.writerow([rho, seed, f"{100 * rep.onmi:.1f}",
                        f"{100 * rep.onmi_initial:.1f}",
                        rep.n_pseudo_initial, rep.n_pseudo_refined])

    with open(out / "sweep_summary.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["rho", "n_seeds", "onmi_pct_mean", "onmi_pct_std"])
        for rho in args.rhos:
            vals = np.array([rep.onmi for r, _, rep in rows if r == rho])
            w.writerow([rho, vals.size, f"{100 * vals.mean():.1f}",
                        f"{100 * vals.std():.1f}"])

    with open(out / "sweep.json", "w", encoding="utf-8") as fh:
        json.dump(
            [{"rho": rho, "seed": seed, **rep.to_dict()} for rho, seed, rep in rows],
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    return 0


def _comma_list(kind):
    """argparse type: a comma-separated list of ``kind`` values, so a
    malformed list is a usage error before any input is read."""
    def parse(text: str) -> list:
        try:
            return [kind(tok) for tok in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma list of {kind.__name__}: {text!r}") from None
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wocd",
        description="Semi-supervised overlapping community detection with weak cliques",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--communities", type=int, required=True)
    p.add_argument("--overlap", type=float, default=0.15)
    p.add_argument("--p-in", type=float, default=0.08)
    p.add_argument("--p-out", type=float, default=0.002)
    p.add_argument("--dims-per-community", type=int, default=16)
    p.add_argument("--feature-signal", type=float, default=0.6)
    p.add_argument("--feature-noise", type=float, default=0.05)
    p.add_argument("--attribute-only-overlap", action="store_true",
                   help="draw edges from primary communities only, so secondary "
                        "memberships appear in features alone")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("cliques", help="dump the weak clique set")
    p.add_argument("--edges", type=Path, required=True)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_cliques)

    p = sub.add_parser("pseudo", help="emit the weak-clique pseudo cover")
    p.add_argument("--edges", type=Path, required=True)
    p.add_argument("--cover", type=Path, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rc", type=int, default=1)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_pseudo)

    p = sub.add_parser("train", help="run the full two-phase pipeline")
    p.add_argument("--edges", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--cover", type=Path, required=True)
    p.add_argument("--features-header", action="store_true")
    p.add_argument("--out", type=Path, required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="ONMI between two cover files")
    p.add_argument("--pred", type=Path, required=True)
    p.add_argument("--truth", type=Path, required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="rho x seed sweep to CSV")
    p.add_argument("--edges", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--cover", type=Path, required=True)
    p.add_argument("--features-header", action="store_true")
    p.add_argument("--rhos", type=_comma_list(float), required=True,
                   help="comma list, e.g. 0.05,0.1")
    p.add_argument("--seeds", type=_comma_list(int), required=True,
                   help="comma list, e.g. 0,1,2")
    p.add_argument("--out", type=Path, required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (FloatingPointError, DegenerateProjectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
