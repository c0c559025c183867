"""Walk-forward backtest benchmark: workloads, runs, checks and metrics.

One run measures one workload for a given number of seconds. It is a closed
loop with one client: each iteration writes a fresh synthetic panel with
``fundcast synth`` and then runs ``fundcast backtest`` on it, each command in
a child process of its own (child.py), the next only after the previous one
ends. End-to-end metrics come from untraced iterations. With tracing on,
traced and untraced iterations alternate; the traced ones give the per-layer
metrics and the pair gives the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

HARD_LIMIT_S = 165.0
# An untraced run cycles through this many panels, each synthesized from
# its own seed derived from the run's seed, so that a run averages over
# panels as well as over time: how many trees the search grows varies from
# panel to panel. A run makes at least PANELS + 1 iterations, so the first
# panel is backtested twice and its reports can be compared. Traced runs
# use the first panel only, so that counts can be compared exactly; they
# alternate traced and untraced iterations, starting and ending traced.
PANELS = 2
MIN_ITERATIONS = PANELS + 1
# Untraced iterations run synth this many times, each in its own process,
# because one synth takes well under a second and a single sample reads
# whatever speed the shared host runs at in that moment.
SYNTH_RUNS = 2

COMMON = {
    "paths.output_dir": "out",
    "paths.schema": "out/schema.csv",
    "paths.panel": "out/panel.csv",
    "paths.consensus": "out/consensus.csv",
    "label.horizon": "qoq",
    "label.n_classes": 3,
    "label.scheme": "quantile_rank",
    "pipeline.standardize": "true",
    "pipeline.pca_threshold": 0.75,
    "validation.size": 4,
    # The default 500-1400 assumes paper-scale panels; on a few thousand
    # training rows it leaves most trees without a split.
    "search.space.min_data_in_leaf": "200, 600, integer",
    "synth.consensus": "true",
}

# Every workload uses the paper-default classes (qoq, 3, quantile_rank).
# Panels are far smaller than the paper's so that one iteration takes
# seconds; n_quarters stays at synthgen's minimum of 25 or above. Each
# backtest runs several subsets: their seeds differ, so one backtest
# already averages over several searches.
SEARCH_HEAVY = {
    "synth.n_companies": 140,
    "synth.n_quarters": 28,
    "pipeline.train_len": 12,
    "pipeline.max_subsets": 4,
    "pipeline.n_lags": 2,
    "pipeline.look_back": 2,
    "search.budget": 25,
    # 200 in the paper. With 200, most trials stopped after 21 rounds and
    # the rest ran 60-200, so the work of a subset varied ~20% with the seed.
    "gbdt.n_rounds": 50,
    "gbdt.early_stopping": 20,
}

MINIMAL_SEARCH = {
    "search.budget": 2,
    "gbdt.n_rounds": 20,
    "gbdt.early_stopping": 20,
}


@dataclass(frozen=True)
class Workload:
    why: str
    config: dict


WORKLOADS = {
    "search_heavy": Workload(
        "paper-default search (25 trials, patience 20; 50 rounds) over four "
        "subsets on narrow lags, so boostwood.fit dominates", SEARCH_HEAVY),
    "lags_wide": Workload(
        "wide lag block (d about 125) with minimal search, so the "
        "eigendecomposition in spectral_reduce.fit_pca dominates",
        {"synth.n_companies": 160, "synth.n_quarters": 27,
         "pipeline.train_len": 24, "pipeline.max_subsets": 2,
         "pipeline.n_lags": 6, "pipeline.look_back": 6, **MINIMAL_SEARCH}),
    "ingest_wide": Workload(
        "long panel CSV and four short subsets, so the panel_ingest read and "
        "write paths and per-key passes dominate",
        {"synth.n_companies": 300, "synth.n_quarters": 60,
         "pipeline.train_len": 12, "pipeline.max_subsets": 4,
         "pipeline.n_lags": 2, "pipeline.look_back": 2, **MINIMAL_SEARCH}),
}

# Applied on top of any workload for the benchmark's own smoke test.
TINY = {
    "synth.n_companies": 40,
    "synth.n_quarters": 34,
    "pipeline.train_len": 30,
    "pipeline.max_subsets": 2,
    "pipeline.n_lags": 2,
    "pipeline.look_back": 2,
    "search.budget": 2,
    "gbdt.n_rounds": 10,
    "gbdt.early_stopping": 3,
}

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("synth_s", "s", "lower"),
    ("backtest_s", "s", "lower"),
    ("subset_s_p50", "s", "lower"),
    ("subsets_per_min", "1/min", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("accuracy_mean", "fraction", "higher"),
    ("subset_ok_ratio", "fraction", "higher"),
]

PER_LAYER = [
    ("panel_ingest.load_panel.s", "s", "lower"),
    ("panel_ingest.rows_read", "count", "higher"),
    ("panel_ingest.load_panel.rows_per_s", "1/s", "higher"),
    ("panel_ingest.save_panel.s", "s", "lower"),
    ("panel_ingest.shift_forward_aligned.s", "s", "lower"),
    ("panel_ingest.apply_sample_filters.s", "s", "lower"),
    ("synthgen.generate_panel.s", "s", "lower"),
    ("feature_forge.convert_formats.s", "s", "lower"),
    ("feature_forge.build_labels.s", "s", "lower"),
    ("feature_forge.clip_outliers.s", "s", "lower"),
    ("feature_forge.impute.s", "s", "lower"),
    ("feature_forge.build_lags.s", "s", "lower"),
    ("feature_forge.correlation_dedupe_inputs.s", "s", "lower"),
    ("feature_forge.lagged_cols", "count", "higher"),
    ("feature_forge.dedupe_dropped", "count", "lower"),
    ("feature_forge.impute.deleted_rows", "count", "lower"),
    ("feature_forge.impute.constant_filled", "count", "lower"),
    ("spectral_reduce.fit_pca.s", "s", "lower"),
    ("spectral_reduce.transform.s", "s", "lower"),
    ("spectral_reduce.pca_input_dim", "count", "higher"),
    ("spectral_reduce.pca_kept", "count", "higher"),
    ("tuner.search.self_s", "s", "lower"),
    ("tuner.trials", "count", "higher"),
    ("tuner.trial_ok_ratio", "fraction", "higher"),
    ("boostwood.fit.s", "s", "lower"),
    ("boostwood.fit.calls", "count", "higher"),
    ("boostwood.bin_features.s", "s", "lower"),
    ("boostwood.predict.s", "s", "lower"),
    ("boostwood.rounds_run", "count", "lower"),
    ("boostwood.rounds_kept", "count", "higher"),
    ("boostwood.round_keep_ratio", "fraction", "higher"),
    ("boostwood.null_tree_ratio", "fraction", "lower"),
    ("boostwood.row_rounds_per_s", "1/s", "higher"),
    ("rollcast.run_subset.self_s", "s", "lower"),
    ("rollcast.load_consensus.s", "s", "lower"),
    ("rollcast.build_consensus_vectors.s", "s", "lower"),
    ("rollcast.report.s", "s", "lower"),
    ("cli.cmd_backtest.self_s", "s", "lower"),
    ("cli.run_backtest.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Deterministic counts: runs of the same code and seed must repeat them.
GUARDED = [name for name, unit, _ in PER_LAYER if unit == "count"]

# Sums of span facts: metric -> (span name, fact key).
FACT_SUMS = {
    "feature_forge.lagged_cols": ("feature_forge.build_lags", "cols"),
    "feature_forge.dedupe_dropped":
        ("feature_forge.correlation_dedupe_inputs", "dropped"),
    "feature_forge.impute.deleted_rows": ("feature_forge.impute", "deleted_rows"),
    "feature_forge.impute.constant_filled":
        ("feature_forge.impute", "constant_filled"),
    "spectral_reduce.pca_input_dim": ("spectral_reduce.fit_pca", "input_dim"),
    "spectral_reduce.pca_kept": ("spectral_reduce.choose_components", "kept"),
    "tuner.trials": ("tuner.search", "trials"),
    "boostwood.rounds_run": ("boostwood.fit", "rounds_run"),
    "boostwood.rounds_kept": ("boostwood.fit", "rounds_kept"),
}

REPORT_SPANS = ("rollcast.build_records", "rollcast.render_text",
                "rollcast.write_jsonl")

# The layer each workload was chosen to stress, by traced self time.
STRESSED = {
    "search_heavy": ("boostwood.fit",),
    "lags_wide": ("spectral_reduce.fit_pca",),
    "ingest_wide": ("panel_ingest.load_panel", "panel_ingest.save_panel"),
}


def workload_config(name: str, seed: int, tiny: bool = False) -> dict:
    """The experiment config of one workload; the seed reaches the program
    only through synth.seed and seed here."""
    config = dict(COMMON)
    config.update(WORKLOADS[name].config)
    if tiny:
        config.update(TINY)
    config["synth.seed"] = seed
    config["seed"] = seed
    return config


def panel_seed(seed: int, panel: int) -> int:
    return seed * PANELS + panel


def expected_subsets(config: dict) -> int:
    windows = config["synth.n_quarters"] - config["pipeline.train_len"]
    return min(config["pipeline.max_subsets"], windows)


@dataclass
class Iteration:
    """One synth + backtest pair."""

    traced: bool
    panel: int
    synth: dict | None = None
    synth_walls: list = field(default_factory=list)
    backtest: dict | None = None
    rows_read: int = 0
    report_sha: str = ""
    accuracy_mean: float = float("nan")
    error: str | None = None


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    lines: list = field(default_factory=list)


def child_env() -> dict:
    """Child environment: BLAS pools pinned to one thread unless set."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def environment(env: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "num_threads": {k: v for k, v in sorted(env.items())
                        if k.endswith("_NUM_THREADS")},
        "git_commit": commit,
    }


def write_config(path: str, config: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in config.items():
            fh.write(f"{key} = {value}\n")


def run_child(command: str, cwd: str, traced: bool, run_id: int, env: dict,
              deadline: float):
    """Run child.py once; returns (result dict or None, error text)."""
    result_path = os.path.join(cwd, f"{command}.result.json")
    argv = [sys.executable, CHILD, command, "--config", "exp.cfg",
            "--result", result_path, "--trace", str(int(traced)),
            "--run-id", str(run_id)]
    try:
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, f"{command} timed out"
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"{command} exited {proc.returncode}: {' | '.join(tail)}"
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), None


def check_report(path: str, expected: int):
    """(sha256, accuracy_mean) of a report.jsonl, or raise ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    records = [json.loads(line) for line in data.splitlines() if line.strip()]
    subsets = [r for r in records if r.get("record_type") == "subset"]
    indices = [r["subset"] for r in subsets]
    if indices != list(range(1, expected + 1)):
        raise ValueError(f"report holds subsets {indices}, expected 1..{expected}")
    accuracies = [r["metrics"]["accuracy"] for r in subsets]
    if any(a is None for a in accuracies):
        raise ValueError("a subset scored no test rows")
    return hashlib.sha256(data).hexdigest(), statistics.fmean(accuracies)


def count_data_rows(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip()) - 1


def run_iteration(it_dir: str, config: dict, traced: bool, panel: int,
                  run_id: int, env: dict, deadline: float,
                  synth_runs: int = 1) -> Iteration:
    """synth (synth_runs times, each rewriting the same panel), then backtest."""
    os.makedirs(it_dir)
    write_config(os.path.join(it_dir, "exp.cfg"), config)
    it = Iteration(traced, panel)
    for _ in range(synth_runs):
        it.synth, it.error = run_child("synth", it_dir, traced, run_id, env,
                                       deadline)
        if it.error:
            return it
        it.synth_walls.append(it.synth["wall_s"])
    it.rows_read = count_data_rows(os.path.join(it_dir, config["paths.panel"]))
    it.backtest, it.error = run_child("backtest", it_dir, traced, run_id, env,
                                      deadline)
    if it.error:
        return it
    try:
        it.report_sha, it.accuracy_mean = check_report(
            os.path.join(it_dir, config["paths.output_dir"], "report.jsonl"),
            expected_subsets(config))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        it.error = f"report check: {exc}"
    return it


def span_totals(spans: list):
    """Per span name: summed duration, summed self time, summed facts.

    Self time is a span's duration minus the part of its interval that its
    child spans cover (their union, so overlapping pool spans count once).
    """
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append((span["start"], span["end"]))
    total = defaultdict(float)
    self_time = defaultdict(float)
    facts = defaultdict(lambda: defaultdict(int))
    for span in spans:
        lo, hi = span["start"], span["end"]
        covered, reach = 0.0, lo
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        total[span["name"]] += hi - lo
        self_time[span["name"]] += hi - lo - covered
        for key, value in span.get("facts", {}).items():
            facts[span["name"]][key] += value
    return total, self_time, facts


def layer_metrics(it: Iteration) -> tuple:
    """(per-layer metrics, self time by span name) of one traced iteration."""
    synth_total, synth_self, _ = span_totals(it.synth["spans"])
    total, self_time, facts = span_totals(it.backtest["spans"])
    total.update(synth_total)
    m = {}
    for name, _, _ in PER_LAYER:
        if name.endswith(".self_s"):
            m[name] = self_time[name[:-len(".self_s")]]
        elif name.endswith(".s"):
            m[name] = total[name[:-2]]
    for name, (span, key) in FACT_SUMS.items():
        m[name] = facts[span][key]
    fit = facts["boostwood.fit"]
    m["panel_ingest.rows_read"] = it.rows_read
    m["panel_ingest.load_panel.rows_per_s"] = \
        it.rows_read / total["panel_ingest.load_panel"]
    m["tuner.trial_ok_ratio"] = facts["tuner.search"]["ok"] / m["tuner.trials"]
    m["boostwood.fit.calls"] = sum(
        1 for s in it.backtest["spans"] if s["name"] == "boostwood.fit")
    m["boostwood.round_keep_ratio"] = fit["rounds_kept"] / fit["rounds_run"]
    m["boostwood.null_tree_ratio"] = fit["null_trees"] / fit["tree_slots"]
    m["boostwood.row_rounds_per_s"] = fit["row_rounds"] / total["boostwood.fit"]
    m["rollcast.report.s"] = sum(total[name] for name in REPORT_SPANS)
    self_all = dict(self_time)
    for name, value in synth_self.items():
        self_all[f"synth:{name}"] = value
    return m, self_all


def e2e_samples(it: Iteration) -> dict:
    spans = it.backtest["spans"]
    outer = next(s for s in spans if s["name"] == "rollcast.run_all_subsets")
    subsets = [s["end"] - s["start"] for s in spans
               if s["name"] == "rollcast.run_subset"]
    return {
        "setup_s": outer["start"] - it.backtest["t0"],
        "backtest_s": it.backtest["wall_s"],
        "subset_s": subsets,
        "all_subsets_s": outer["end"] - outer["start"],
        "peak_rss_mb": it.backtest["maxrss_kb"] / 1024.0,
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> Outcome:
    """Run one workload for about `seconds` and check its outputs."""
    configs = [workload_config(name, panel_seed(seed, p), tiny)
               for p in range(PANELS)]
    env = child_env()
    work = os.path.join(WORK_ROOT, f"{name}-s{seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    iterations = []
    try:
        while True:
            k = len(iterations)
            traced = trace and k % 2 == 0
            panel = 0 if trace else k % PANELS
            it_dir = os.path.join(work, f"iter{k:03d}")
            iterations.append(run_iteration(
                it_dir, configs[panel], traced, panel, k, env, deadline,
                synth_runs=1 if trace else SYNTH_RUNS))
            shutil.rmtree(it_dir, ignore_errors=True)
            if iterations[-1].error:
                break
            # Stop when one more iteration (two while tracing, so that the
            # run ends on a traced one) would end after `seconds`.
            n = len(iterations)
            step = 2 if trace else 1
            elapsed = time.monotonic() - start
            if n >= MIN_ITERATIONS and (n - 1) % step == 0 \
                    and elapsed * (n + step) / n > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    return summarize(name, configs, iterations, trace)


def summarize(name, configs, iterations, trace) -> Outcome:
    config = configs[0]
    expected = expected_subsets(config)
    seeds = sorted({configs[it.panel]["seed"] for it in iterations})
    lines = [
        f"workload {name}: closed loop, 1 client, 1 backtest at a time; "
        f"{config['synth.n_companies']} companies x {config['synth.n_quarters']} "
        f"quarters, {expected} subsets per backtest, {len(iterations)} "
        f"iterations over panel seeds {seeds}",
    ]
    failed_its = [it for it in iterations if it.error]
    attempted = expected * len(iterations)
    failed = expected * len(failed_its)
    checks = {"every command exited 0 and its report passed": not failed_its}
    for it in failed_its:
        lines.append(f"error: {it.error}")
    good = [it for it in iterations if not it.error]
    by_panel = defaultdict(list)
    for it in good:
        by_panel[it.panel].append(it)
    checks["report.jsonl identical across iterations of a panel"] = all(
        len({it.report_sha for it in its}) == 1 for its in by_panel.values())
    chance = 1.0 / config["label.n_classes"]
    checks[f"accuracy_mean above chance {chance:.4f}"] = all(
        it.accuracy_mean > chance for it in good)
    for panel, its in sorted(by_panel.items()):
        lines.append(f"report_sha256 seed {configs[panel]['seed']}: "
                     f"{' '.join(sorted({it.report_sha for it in its}))}")

    metrics = {}
    plain = [it for it in good if not it.traced]
    if plain:
        samples = defaultdict(list)
        for it in plain:
            samples[it.panel].append(e2e_samples(it))

        def panel_mean(median_of):
            # Median over a panel's iterations, then mean over the panels.
            return statistics.fmean(median_of(s) for s in samples.values())

        values = {key: panel_mean(lambda s: statistics.median(x[key] for x in s))
                  for key in ("setup_s", "backtest_s", "peak_rss_mb")}
        # Pooled over the run: every synth, every subset.
        synths = [t for it in plain for t in it.synth_walls]
        flat = [x for s in samples.values() for x in s]
        subsets = [t for x in flat for t in x["subset_s"]]
        values["synth_s"] = statistics.median(synths)
        values["subset_s_p50"] = statistics.median(subsets)
        values["subsets_per_min"] = 60.0 * len(subsets) / sum(
            x["all_subsets_s"] for x in flat)
        values["accuracy_mean"] = statistics.fmean(
            its[0].accuracy_mean for its in by_panel.values())
        values["subset_ok_ratio"] = (attempted - failed) / attempted
        if not trace:
            metrics = {n: {"value": values[n], "unit": u} for n, u, _ in END_TO_END}
        lines.append(f"untraced samples: {len(plain)} backtests over "
                     f"{len(samples)} panels, {len(synths)} synths, "
                     f"{len(subsets)} subsets")

    traced = [it for it in good if it.traced]
    if trace and traced and plain:
        per_it = [layer_metrics(it) for it in traced]
        layer = {n: statistics.median(m[n] for m, _ in per_it)
                 for n, _, _ in PER_LAYER if n != "trace.overhead_s"}
        for n in GUARDED:
            seen = {m[n] for m, _ in per_it}
            checks[f"{n} repeats exactly"] = len(seen) == 1
        traced_bt = statistics.median(it.backtest["wall_s"] for it in traced)
        overhead = traced_bt - values["backtest_s"]
        layer["trace.overhead_s"] = overhead
        metrics = {n: {"value": layer[n], "unit": u} for n, u, _ in PER_LAYER}
        lines.extend(self_time_lines(name, per_it, traced_bt, overhead,
                                     values["backtest_s"]))

    correct = all(checks.values()) and bool(metrics)
    for label, ok in checks.items():
        if not ok:
            lines.append(f"check failed: {label}")
    return Outcome(correct, attempted, failed, metrics, lines)


def self_time_lines(name, per_it, traced_bt, overhead, plain_bt) -> list:
    selfs = defaultdict(list)
    for _, self_all in per_it:
        for span, value in self_all.items():
            selfs[span].append(value)
    med = {span: statistics.median(v) for span, v in selfs.items()}
    backtest_self = sum(v for span, v in med.items()
                        if not span.startswith("synth:"))
    top = sorted(med.items(), key=lambda kv: -kv[1])
    lines = ["self time by span, median over traced iterations (s):"]
    lines += [f"  {span:<44} {value:10.4f}" for span, value in top[:14]]
    largest = next(span for span, _ in top if not span.startswith("synth:"))
    want = STRESSED[name]
    lines.append(f"largest backtest self time: {largest} "
                 f"(workload chosen to stress {' + '.join(want)})")
    lines.append(
        f"backtest self times sum to {backtest_self:.4f} s; traced backtest_s "
        f"{traced_bt:.4f} s = untraced {plain_bt:.4f} s + overhead "
        f"{overhead:.4f} s")
    return lines
