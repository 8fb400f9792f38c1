"""wocd benchmark harness.

One workload, as the metric contract in ``BENCHMARK.json`` expects::

    python3 bench/run.py --workload acceptance --seed 0 --seconds 30 --trace 0

``--seed`` is the workload seed: every input (graphs, features, covers and
the training seeds) is derived from it, so one seed always gives the same
inputs. ``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps wocd's layers (see ``tracing.py``) and reports the
per-layer metrics instead. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

All workloads, untraced and traced, each in its own process so that peak
memory is per workload::

    python3 bench/run.py --all --seed 0 --seconds 30

Each workload is one caller in a closed loop: the next operation starts when
the previous one returns, in one process with no extra threads. The first
operation warms up and is not timed; operations then repeat for about
``--seconds`` (the last one ends at most half an operation later, on
average) and until every seed of the workload's cycle has run; ``run_s`` is
their mean. BLAS runs on ``BLAS_THREADS`` threads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1  # fixed so that runs compare; leaves a core to the rest of the box
SETUP_REPEATS = 3
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
WORKLOAD_NAMES = ("acceptance", "scale", "pseudo_cli")


def contract() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "wocd").glob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "src_lines": src_lines}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Checker:
    """Per-operation output checks; a seed's digests must repeat exactly."""

    def __init__(self):
        self.digests: dict = {}
        self.onmi: dict = {}
        self.pseudo: dict = {}  # op seed -> (true, all) pseudo memberships
        self.attempted = 0
        self.failed = 0

    def record(self, op_seed: int, result) -> list:
        from checks import check_cover, digest

        problems = check_cover(result.cover, result.truth, result.onmi)
        d = [digest(result.cover), digest(result.loss_trace)]
        seen = self.digests.setdefault(op_seed, d)
        if seen != d:
            problems.append(f"seed {op_seed}: digests {d} differ from {seen}")
        self.onmi.setdefault(op_seed, result.onmi)
        self.note_pseudo(op_seed, result)
        return problems

    def note_pseudo(self, op_seed: int, result) -> None:
        from checks import pseudo_counts

        if op_seed not in self.pseudo:
            self.pseudo[op_seed] = pseudo_counts(result.pseudo, result.truth,
                                                 result.sampled_ids)


def run_workload(workload, seed: int, seconds: float, trace: bool, work_dir: Path,
                 import_s: float = 0.0) -> dict:
    """Set up, warm up, then run operations for ``seconds``; returns every
    computed value by metric name plus counts, digests and spans."""
    from tracing import Tracer, traced

    tracer = Tracer()

    def spans(on: bool):
        return traced(tracer) if on else contextlib.nullcontext()

    setup_times = []
    for rep in range(SETUP_REPEATS):
        tracer.op = f"setup{rep}"
        gc.collect()
        t = time.perf_counter()
        with spans(trace):
            inputs = workload.setup(seed, work_dir)
        setup_times.append(time.perf_counter() - t)

    checker = Checker()
    captured: dict = {}

    def operation(tag: str, op_seed: int, wrapped: bool) -> float:
        tracer.op = tag
        checker.attempted += 1
        # the previous operation's cyclic garbage would otherwise be collected
        # at a random point of this one; each CLI call is a fresh process
        gc.collect()
        t = time.perf_counter()
        try:
            with spans(wrapped):
                raw = workload.run(inputs, op_seed)
            elapsed = time.perf_counter() - t
            taken = tracer.take_captured()
            if tag == "op0t":
                captured.update(taken)
            problems = checker.record(op_seed, workload.result(inputs, op_seed, raw))
        except Exception:  # an operation that raises is a failed operation
            traceback.print_exc()
            checker.failed += 1
            return time.perf_counter() - t
        if problems:
            print(f"check failed ({tag}): " + "; ".join(problems), file=sys.stderr)
            checker.failed += 1
        return elapsed

    seeds = workload.op_seeds(seed)
    operation("warmup", seeds[0], trace)
    times = {False: [], True: []}  # keyed by traced
    start = time.perf_counter()

    def due() -> bool:  # the next round would end less than half a round late
        per_round = sum(_median(t) for t in times.values() if t)
        return time.perf_counter() - start + per_round / 2 < seconds

    # every seed of the cycle runs at least once, so that onmi and
    # pseudo_precision always pool the same instances
    i = 0
    while i < len(seeds) or due():
        op_seed = seeds[i % len(seeds)]
        times[False].append(operation(f"op{i}", op_seed, False))
        if trace:
            times[True].append(operation(f"op{i}t", op_seed, True))
        i += 1

    # one instance of n=500 swings ONMI and pseudo-label precision from seed
    # to seed, so both pool every instance of the cycle
    pooled = [sum(c) for c in zip(*(checker.pseudo[s] for s in seeds))]
    values = {
        "run_s": statistics.fmean(times[False]),
        "setup_s": import_s + _median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "onmi": statistics.fmean(checker.onmi[s] for s in seeds),
        "pseudo_precision": pooled[0] / pooled[1] if pooled[1] else 0.0,
        "failed_frac": checker.failed / checker.attempted,
    }
    if trace:
        traced_ops = [f"op{j}t" for j in range(i)]
        values.update(layer_values(tracer, traced_ops, captured, times))
    return {"values": values, "attempted": checker.attempted, "failed": checker.failed,
            "digests": {str(k): v for k, v in checker.digests.items()},
            "times": times, "tracer": tracer}


def layer_values(tracer, ops: list, captured: dict, times: dict) -> dict:
    """Per-layer values from the spans of the traced operations ``ops``.

    Times are seconds per operation (median over ``ops``), inclusive unless
    named a self time; counts come from the first traced operation.
    """
    import numpy as np
    import wocd

    from tracing import epoch_stats, per_op_totals

    totals = per_op_totals(tracer.spans)

    def per_op(name: str, kind: int = 0, over=ops) -> float:  # 0 inclusive, 1 self, 2 calls
        return _median([totals[op][name][kind] if name in totals[op] else 0 for op in over])

    per_op_spans = _median([sum(acc[2] for acc in totals[op].values()) for op in ops])
    steady = epoch_stats(tracer.spans, set(ops))
    warm = epoch_stats(tracer.spans, {"warmup"})
    n_epochs = max(steady["n_epochs"], 1)

    cliques = captured.get("cliques.identify", [])
    construct = captured.get("pseudo.construct", [])
    refresh = captured.get("pseudo.refresh", [])
    count, mean_size, voted_frac, n_initial, n_refined = 0, 0.0, 0.0, 0, 0
    if cliques:
        members = [rec.members for rec in cliques[0][1].cliques]
        count = len(members)
        mean_size = float(np.mean([m.size for m in members])) if members else 0.0
    if construct:
        (clique_set, sampled, n_nodes, *_), cover = construct[0]
        is_sampled = np.zeros(n_nodes, dtype=bool)
        is_sampled[sampled.node_ids] = True
        voted = sum(bool(is_sampled[rec.members].any()) for rec in clique_set.cliques)
        voted_frac = voted / len(clique_set) if len(clique_set) else 0.0
        n_initial = wocd.pseudo_coverage(cover, sampled)
    if refresh:
        (_, sampled, *_), cover = refresh[0]
        n_refined = wocd.pseudo_coverage(cover, sampled)

    return {
        "graph.synth_s": per_op("graph.synth",
                                over=[f"setup{r}" for r in range(SETUP_REPEATS)]),
        "graph.load_edges_s": per_op("graph.load_edges"),
        "graph.load_cover_s": per_op("graph.load_cover"),
        "graph.write_cover_s": per_op("graph.write_cover"),
        "graph.sample_labels_s": per_op("graph.sample_labels"),
        "cliques.identify_s": per_op("cliques.identify"),
        "cliques.count": count,
        "cliques.mean_size": mean_size,
        "cliques.voted_frac": voted_frac,
        "pseudo.construct_s": per_op("pseudo.construct"),
        "pseudo.refresh_s": per_op("pseudo.refresh"),
        "pseudo.n_initial": n_initial,
        "pseudo.n_refined": n_refined,
        "model.epoch_s": _median(steady["epochs"]),
        "model.first_epoch_s": warm["epochs"][0] if warm["epochs"] else 0.0,
        "model.gcn_forward_s": per_op("model.gcn_forward", 1),
        "model.gt_forward_s": per_op("model.gt_forward", 1),
        "model.backward_s": per_op("model.loss_and_gradients", 1),
        "model.adam_s": per_op("model.adam"),
        "model.spmm_s": per_op("model.spmm"),
        "model.spmm_calls_per_epoch": steady["spmm_calls"] / n_epochs,
        "model.spmm_bytes_per_epoch": steady["spmm_bytes"] / n_epochs,
        "model.gcn_norm_calls": per_op("model.gcn_norm", 2),
        "model.gcn_norm_s": per_op("model.gcn_norm"),
        "train.initial_s": per_op("train.initial"),
        "train.refined_s": per_op("train.refined"),
        "metrics.onmi_s": per_op("metrics.onmi"),
        "trace.spans": per_op_spans,
        "trace.run_s": statistics.fmean(times[True]),
        "trace.overhead_s": statistics.fmean(times[True]) - statistics.fmean(times[False]),
    }


def select_metrics(values: dict, specs: list) -> dict:
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def run_one(args) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads its BLAS
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import wocd  # noqa: F401  (imports numpy and scipy)
    import_s = time.perf_counter() - t
    from workloads import WORKLOADS

    spec = contract()
    workload = WORKLOADS[args.workload]
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        out = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                           work_dir, import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    values = out["values"]
    print("env " + json.dumps(environment(), sort_keys=True))
    print("digests " + json.dumps(out["digests"], sort_keys=True))
    if args.trace:
        spans = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        out["tracer"].dump(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
    metrics = select_metrics(values, spec["per_layer" if args.trace else "end_to_end"])
    for wrapped, label in ((False, "untraced"), (True, "traced")):
        ts = out["times"][wrapped]
        if ts:
            print(f"{label} operation seconds ({len(ts)} ops): mean {statistics.fmean(ts):.3f} "
                  f"min {min(ts):.3f} median {_median(ts):.3f} max {max(ts):.3f}; "
                  + " ".join(f"{t:.3f}" for t in ts))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac = {values['failed_frac']:.6g} ({out['failed']}/{out['attempted']})")
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in a child process."""
    spec = contract()
    summary, ok = {}, True
    for name in WORKLOAD_NAMES:
        runs = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit code {proc.returncode}")
                return 1
            result = json.loads(lines[-1])
            result["digests"] = next(json.loads(l[len("digests "):]) for l in lines
                                     if l.startswith("digests "))
            result["env"] = next(json.loads(l[len("env "):]) for l in lines
                                 if l.startswith("env "))
            runs.append(result)
        plain, traced_run = runs
        common = plain["digests"].keys() & traced_run["digests"].keys()
        same = bool(common) and all(plain["digests"][k] == traced_run["digests"][k]
                                    for k in common)
        failed = plain["failed"] + traced_run["failed"]
        attempted = plain["attempted"] + traced_run["attempted"]
        ok = ok and same and failed == 0
        summary[name] = {"end_to_end": plain["metrics"], "per_layer": traced_run["metrics"],
                         "failed_frac": failed / attempted,
                         "traced_digests_match": same}
        print(f"{name}:")
        for m in spec["end_to_end"]:
            v = plain["metrics"][m["name"]]
            print(f"  {m['name']:<18} {v['value']:>14.6g} {v['unit']}")
        print(f"  {'failed_frac':<18} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
        print(f"  traced run: overhead "
              f"{traced_run['metrics']['trace.overhead_s']['value']:.4g} s per operation, "
              f"digests {'match' if same else 'DIFFER'}")
    print("env " + json.dumps(runs[0]["env"], sort_keys=True))
    print(json.dumps(summary, sort_keys=True))
    return 0 if ok else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--all", action="store_true", help="run every workload, both modes")
    p.add_argument("--seed", type=int, default=0, help="workload seed; inputs derive from it")
    p.add_argument("--seconds", type=float,
                   help="measuring time; default run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.all and args.workload is None:
        p.error("give --workload NAME or --all")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wocd" / "__init__.py").is_file():
        print(f"error: wocd sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = contract()["run_seconds"]
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
