"""One fundcast CLI command in its own process, timed from outside src/.

    python3 perfbench/child.py {synth,backtest} --config CFG --result OUT.json
                               [--trace 0|1] [--run-id K]

The command runs in-process through ``fundcast.cli.main``; its wall time is
taken after imports. Untraced, the only timers are boundary spans on
``rollcast.run_all_subsets`` and each ``rollcast.run_subset``. Traced, every
public function named in ``TRACED`` is replaced, as a module attribute, by a
wrapper that records a span. Spans stay in memory and are written to the
result file when the command returns, together with the exit code and the
process's peak RSS. The exit code of this process is the command's.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import os
import resource
import sys
import threading
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

BOUNDARY = {"rollcast": ("run_all_subsets", "run_subset")}

TRACED = {
    "panel_ingest": ("load_panel", "save_panel", "apply_sample_filters",
                     "shift_forward_aligned"),
    "synthgen": ("generate_panel",),
    "feature_forge": ("convert_formats", "build_labels", "clip_outliers",
                      "impute", "build_lags", "correlation_dedupe_inputs"),
    "spectral_reduce": ("fit_pca", "choose_components", "transform"),
    "tuner": ("search",),
    "boostwood": ("bin_features", "fit", "predict"),
    "rollcast": ("load_consensus", "build_consensus_vectors",
                 "enumerate_subsets", "run_all_subsets", "run_subset",
                 "build_records", "render_text", "write_jsonl"),
    "cli": ("cmd_synth", "cmd_backtest", "run_backtest"),
}


def _fit_facts(args, kwargs, model):
    # The loop stops at round best_round + patience, so that many rounds ran
    # unless n_rounds came first; without early stopping every round is kept.
    kept = model.n_rounds_fitted
    run = kept
    if model.best_round is not None:
        patience = kwargs["early_stopping_rounds"]
        run = min(model.params.n_rounds, model.best_round + 1 + patience)
    slots = [tree for round_trees in model.trees for tree in round_trees]
    return {"row_rounds": args[0].n_rows * run * model.n_classes,
            "rounds_run": run, "rounds_kept": kept, "tree_slots": len(slots),
            "null_trees": sum(tree is None for tree in slots)}


# Deterministic facts read off arguments and return values, per span.
FACTS = {
    "feature_forge.build_lags": lambda a, k, r: {"cols": r.n_cols},
    "feature_forge.correlation_dedupe_inputs":
        lambda a, k, r: {"dropped": len(r.dedupe_pairs)},
    "feature_forge.impute": lambda a, k, r: {
        "deleted_rows": r[1].deleted_rows,
        "constant_filled": r[1].constant_filled},
    "spectral_reduce.fit_pca": lambda a, k, r: {"input_dim": a[0].shape[1]},
    "spectral_reduce.choose_components": lambda a, k, r: {"kept": r},
    "tuner.search": lambda a, k, r: {
        "trials": len(r[1]), "ok": sum(t.ok for t in r[1])},
    "boostwood.fit": _fit_facts,
}


class Tracer:
    """Spans in memory: name, id, parent, start, end, thread, run id.

    Each thread keeps its own span stack. A span opened on a thread whose
    stack is empty (a pool worker) is parented to the innermost span open
    on the thread that created the tracer.
    """

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        facts = FACTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parents = stack or self._main_stack
            span = {"name": name, "id": next(self._ids),
                    "parent": parents[-1] if parents else 0,
                    "thread": threading.get_ident(), "run": self.run_id}
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if facts is not None:
                span["facts"] = facts(args, kwargs, result)
            return result

        return traced

    def install(self, targets: dict) -> None:
        for module_name, functions in targets.items():
            module = importlib.import_module(f"fundcast.{module_name}")
            for fn_name in functions:
                original = getattr(module, fn_name)
                setattr(module, fn_name,
                        self.wrap(f"{module_name}.{fn_name}", original))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("synth", "backtest"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", type=int, default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    from fundcast import cli

    tracer = Tracer(args.run_id)
    tracer.install(TRACED if args.trace else BOUNDARY)
    cli_argv = [args.command, "--config", args.config]
    t0 = time.perf_counter()
    code = cli.main(cli_argv)
    t1 = time.perf_counter()
    result = {
        "command": args.command,
        "exit_code": code,
        "t0": t0,
        "wall_s": t1 - t0,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
