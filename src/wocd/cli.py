"""Command-line surface: synth | cliques | pseudo | train | eval | ablate."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, fields, replace
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
from .model import DegenerateProjectionError
from .pseudo import construct_pseudo_labels, pseudo_coverage
from .train import TrainConfig, run_pipeline

# flag -> (type, TrainConfig key) for train/ablate; a dotted key names a
# field of the fusion or pseudo section, and a bool flag is a switch
CONFIG_FLAGS = {
    "--lambda1": (float, "lam1"),
    "--lambda2": (float, "lam2"),
    "--epochs-initial": (int, "epochs_initial"),
    "--epochs-refined": (int, "epochs_refined"),
    "--lr": (float, "lr"),
    "--hidden": (int, "hidden"),
    "--seed": (int, "seed"),
    "--alpha": (float, "fusion.alpha"),
    "--beta": (float, "fusion.beta"),
    "--gamma": (float, "fusion.gamma"),
    "--rc": (int, "pseudo.r_c"),
    "--tau": (float, "pseudo.tau"),
    "--binarize-threshold": (float, "binarize_threshold"),
    "--rho": (float, "rho"),
    "--activate-final": (bool, "activate_final"),
    "--refresh-union": (bool, "refresh_union"),
}


class UsageError(Exception):
    """A flag value that the config dataclasses reject."""


# exit code of each error the CLI reports in one line; an error takes the code
# of its most specific class listed here
EXIT_CODES = {
    UsageError: 2,
    FormatError: 3, FileNotFoundError: 3,
    FloatingPointError: 4, DegenerateProjectionError: 4,
    ValueError: 1, IndexError: 1, OSError: 1, MemoryError: 1,
}


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``, where a rejected value is a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(exc) from None


def _add_config_flag(p: argparse.ArgumentParser, flag: str, **settings) -> None:
    kind, key = CONFIG_FLAGS[flag]
    if kind is bool:
        p.add_argument(flag, action="store_true", default=None, dest=key)
    else:
        p.add_argument(flag, type=kind, dest=key, **settings)


def _build_config(args) -> TrainConfig:
    """The ``--config`` file, if any, with every flag that was set applied
    over it; the file's values are checked first, on their own."""
    plain = TrainConfig().to_dict()
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                plain = TrainConfig.from_dict(json.load(fh)).to_dict()
            except (TypeError, ValueError) as exc:  # not JSON, a bad key or a bad value
                raise FormatError(f"config {args.config}: {exc}") from None
    for _, key in CONFIG_FLAGS.values():
        value = getattr(args, key, None)
        if value is not None:
            section, _, name = key.rpartition(".")
            (plain[section] if section else plain)[name] = value
    return _checked(TrainConfig.from_dict, plain)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_json(path, obj) -> None:
    Path(path).write_text(_json_text(obj), encoding="utf-8")


def _write_csv(path, header: list, rows: list) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])


def cmd_synth(args) -> int:
    values = {f.name: v for f in fields(SynthConfig) if (v := getattr(args, f.name)) is not None}
    config = _checked(SynthConfig, **values)
    graph, x, cover = synth_graph(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_edge_list(graph, out / "edges.tsv")
    write_features(x, out / "features.csv")
    write_cover(cover, out / "cover.txt")
    _write_json(out / "manifest.json",
                {**asdict(config), "n_edges": graph.n_edges, "feature_dims": x.shape[1]})
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
    config = _build_config(args)
    graph = load_edge_list(args.edges)
    cover = load_cover(args.cover)
    if cover.n_nodes != graph.n_nodes:
        raise FormatError("edge list and cover disagree on the number of nodes")
    sampled = sample_labels(cover, config.rho, config.seed)
    cliques = identify_weak_cliques(graph)
    pseudo = construct_pseudo_labels(
        cliques, sampled, graph.n_nodes, cover.n_communities, config.pseudo.r_c
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
    if graph.n_nodes == 0:
        raise FormatError(f"{args.edges}: the graph has no nodes")
    if cover.n_communities == 0:
        raise FormatError(f"{args.cover}: the cover declares no communities")
    return graph, x, cover


def cmd_train(args) -> int:
    config = _build_config(args)
    graph, x, cover = _load_inputs(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    artifacts: dict = {}
    report = run_pipeline(graph, x, cover, config, artifacts=artifacts)
    write_cover(artifacts["c_final"], out / "c_final.txt")
    _write_json(out / "report.json", {**report.to_dict(), "config": config.to_dict()})
    print(f"onmi={report.onmi:.6f} n_pseudo_initial={report.n_pseudo_initial} "
          f"n_pseudo_refined={report.n_pseudo_refined}")
    return 0


def cmd_eval(args) -> int:
    pred = load_cover(args.pred)
    truth = load_cover(args.truth)
    if pred.n_nodes != truth.n_nodes:
        raise FormatError("prediction and truth disagree on the number of nodes")
    sys.stdout.write(_json_text(asdict(metric_report(pred, truth))))
    return 0


def cmd_ablate(args) -> int:
    config = _build_config(args)
    runs = [(rho, seed, _checked(replace, config, rho=rho, seed=seed))
            for rho in args.rhos for seed in args.seeds]
    graph, x, cover = _load_inputs(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = [(rho, seed, run_pipeline(graph, x, cover, run_config))
            for rho, seed, run_config in runs]

    _write_csv(out / "sweep.csv", ["rho", "seed", "onmi_pct", "onmi_initial_pct",
                                   "n_pseudo_initial", "n_pseudo_refined"],
               [[rho, seed, f"{100 * rep.onmi:.1f}", f"{100 * rep.onmi_initial:.1f}",
                 rep.n_pseudo_initial, rep.n_pseudo_refined] for rho, seed, rep in rows])
    onmis = [np.array([rep.onmi for r, _, rep in rows if r == rho]) for rho in args.rhos]
    _write_csv(out / "sweep_summary.csv", ["rho", "n_seeds", "onmi_pct_mean", "onmi_pct_std"],
               [[rho, vals.size, f"{100 * vals.mean():.1f}", f"{100 * vals.std():.1f}"]
                for rho, vals in zip(args.rhos, onmis)])
    _write_json(out / "sweep.json",
                [{"rho": rho, "seed": seed, **rep.to_dict()} for rho, seed, rep in rows])
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
    # each dest is the SynthConfig field the flag sets; a field whose flag is
    # unset (None) keeps its default
    p.add_argument("--nodes", type=int, required=True, dest="n_nodes")
    p.add_argument("--communities", type=int, required=True, dest="n_communities")
    p.add_argument("--overlap", type=float, dest="overlap_fraction")
    p.add_argument("--p-in", type=float)
    p.add_argument("--p-out", type=float)
    p.add_argument("--dims-per-community", type=int)
    p.add_argument("--feature-signal", type=float)
    p.add_argument("--feature-noise", type=float)
    p.add_argument("--attribute-only-overlap", action="store_false", default=None,
                   dest="overlap_edges", help="draw edges from primary communities only, "
                   "so secondary memberships appear in features alone")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("cliques", help="dump the weak clique set")
    p.add_argument("--edges", type=Path, required=True)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_cliques)

    p = sub.add_parser("pseudo", help="emit the weak-clique pseudo cover")
    p.add_argument("--edges", type=Path, required=True)
    p.add_argument("--cover", type=Path, required=True)
    _add_config_flag(p, "--rho", required=True)
    _add_config_flag(p, "--seed")
    _add_config_flag(p, "--rc")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_pseudo)

    _pipeline_parser(sub, "train", "run the full two-phase pipeline", cmd_train)

    p = sub.add_parser("eval", help="ONMI between two cover files")
    p.add_argument("--pred", type=Path, required=True)
    p.add_argument("--truth", type=Path, required=True)
    p.set_defaults(func=cmd_eval)

    p = _pipeline_parser(sub, "ablate", "rho x seed sweep to CSV", cmd_ablate)
    p.add_argument("--rhos", type=_comma_list(float), required=True,
                   help="comma list, e.g. 0.05,0.1")
    p.add_argument("--seeds", type=_comma_list(int), required=True,
                   help="comma list, e.g. 0,1,2")

    return parser


def _pipeline_parser(sub, name: str, help_text: str, func) -> argparse.ArgumentParser:
    """The inputs, ``--out``, ``--config`` and config flags of train/ablate."""
    p = sub.add_parser(name, help=help_text)
    for flag in ("--edges", "--features", "--cover", "--out"):
        p.add_argument(flag, type=Path, required=True)
    p.add_argument("--features-header", action="store_true")
    p.add_argument("--config", type=Path, help="JSON config; flags override its keys")
    for flag in CONFIG_FLAGS:
        _add_config_flag(p, flag)
    p.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[kind] for kind in type(exc).__mro__ if kind in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
