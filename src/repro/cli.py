"""Command-line interface: ``repro-mine`` (or ``python -m repro.cli``).

Subcommands:

* ``mine``        — mine probabilistic frequent closed itemsets from a
  ``.utd`` file with any of the paper's algorithms;
* ``generate``    — synthesize a workload (Quest or Mushroom-like) with
  Gaussian uncertainty and write it as ``.utd``;
* ``inspect``     — print the characteristics of a ``.utd`` file
  (Table VIII-style);
* ``convert``     — rewrite a dataset between the ``.utd`` text format and
  the zero-copy columnar ``.utdz`` format (dispatch is by suffix);
* ``shard``       — split a dataset into 64-aligned ``.utdz`` row-range
  shards plus a ``.shards.json`` manifest; ``mine`` accepts the manifest
  directly and treats each shard as a supervised failure domain
  (``--shards`` / ``--shard-policy``, see docs/robustness.md);
* ``experiments`` — regenerate the paper's tables and figures (delegates to
  :mod:`repro.eval.experiments`);
* ``stream-mine`` — replay a ``.utd`` file through a sliding window and
  maintain its PFCI set incrementally (:mod:`repro.streaming`), reporting
  per-slide deltas.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .core.bfs import MPFCIBreadthFirstMiner
from .core.config import MinerConfig
from .core.miner import MPFCIMiner
from .core.naive import NaiveMiner
from .data.gaussian import attach_gaussian_probabilities
from .data.io import load_uncertain_database, save_uncertain_database
from .data.mushroom import generate_mushroom_like
from .data.quest import QuestParameters, generate_quest
from .eval.reporting import format_table
from .registry import (
    DEGRADATION_POLICIES,
    SHARD_LOSS_POLICIES,
    TIDSET_BACKENDS,
    UNION_LOWER_BOUNDS,
    UNION_UPPER_BOUNDS,
)

__all__ = ["main"]


def _add_mine_parser(subparsers) -> None:
    parser = subparsers.add_parser("mine", help="mine PFCIs from a .utd file")
    parser.add_argument("input", help="path to the .utd database")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--min-sup", type=int, help="absolute minimum support")
    group.add_argument(
        "--min-sup-ratio", type=float, help="minimum support as a fraction of |UTD|"
    )
    parser.add_argument("--pfct", type=float, default=0.8)
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--delta", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=20120401)
    parser.add_argument(
        "--framework",
        choices=["dfs", "bfs", "naive"],
        default="dfs",
        help="mining framework (dfs = MPFCI)",
    )
    parser.add_argument(
        "--disable",
        nargs="*",
        choices=["ch", "super", "sub", "bound"],
        default=[],
        help="pruning rules to disable (Table VII variants)",
    )
    parser.add_argument(
        "--tidset-backend",
        choices=TIDSET_BACKENDS.names(),
        default="bitmap",
        help="tidset engine (bitmap = packed words; tuple = oracle backend)",
    )
    parser.add_argument(
        "--lower-bound",
        choices=UNION_LOWER_BOUNDS.names(),
        default="de_caen",
        help="Lemma 4.4 union lower bound method",
    )
    parser.add_argument(
        "--upper-bound",
        choices=UNION_UPPER_BOUNDS.names(),
        default="kwerel",
        help="Lemma 4.4 union upper bound method",
    )
    parser.add_argument(
        "--degradation-policy",
        choices=DEGRADATION_POLICIES.names(),
        default="budget-deadline",
        help="when exact closedness checks degrade to sampling "
        "(see docs/robustness.md)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print work counters (summary line + JSON report) after mining",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit results as JSON instead of a table"
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        metavar="N",
        help="mine root branches in N worker processes under the supervised "
        "runtime (dfs framework only)",
    )
    parser.add_argument(
        "--max-size", type=int, default=None, help="cap on result itemset length"
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="re-check every result against the exact probability after mining",
    )
    checkpoint_group = parser.add_mutually_exclusive_group()
    checkpoint_group.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="run under the supervised runtime, appending each completed "
        "branch to this JSONL checkpoint (dfs framework only)",
    )
    checkpoint_group.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="resume an interrupted supervised run from this checkpoint, "
        "skipping already-completed branches (dfs framework only)",
    )
    parser.add_argument(
        "--branch-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="supervised runtime: wall-clock budget per mining branch",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="supervised runtime: pool retries per branch before the "
        "inline fallback (default 2)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="split the database into N row-range shards and mine each as a "
        "supervised failure domain (dfs framework only); a .shards.json "
        "input implies this and fixes the partition",
    )
    parser.add_argument(
        "--shard-policy",
        choices=SHARD_LOSS_POLICIES.names(),
        default=None,
        help="what to do when a shard exhausts every recovery path: "
        "fail-strict aborts the run, degrade-bounds continues on the "
        "survivors and reports certified bounds (default fail-strict)",
    )
    parser.add_argument(
        "--exact-check-budget",
        type=int,
        default=None,
        metavar="TERMS",
        help="degrade a closedness check to sampling when its exact "
        "inclusion-exclusion would exceed TERMS terms",
    )
    parser.add_argument(
        "--check-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="degrade all further closedness checks to sampling once the "
        "run has spent SECONDS in the checking phase",
    )


def _add_stream_mine_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "stream-mine",
        help="replay a .utd file through a sliding window, maintaining PFCIs",
    )
    parser.add_argument("input", help="path to the .utd database to replay")
    parser.add_argument(
        "--window", type=int, required=True, metavar="W",
        help="sliding-window length in transactions",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--min-sup", type=int, help="absolute minimum support over the window"
    )
    group.add_argument(
        "--min-sup-ratio", type=float,
        help="minimum support as a fraction of the window length",
    )
    parser.add_argument("--pfct", type=float, default=0.8)
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--delta", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=20120401)
    parser.add_argument(
        "--max-slides", type=int, default=None, metavar="N",
        help="stop after N transactions (default: replay the whole file)",
    )
    parser.add_argument(
        "--report-every", type=int, default=None, metavar="K",
        help="print a delta summary every K slides (default: only changes)",
    )
    parser.add_argument(
        "--tidset-backend",
        choices=TIDSET_BACKENDS.names(),
        default="bitmap",
        help="tidset engine (bitmap = packed words; tuple = oracle backend)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print cumulative work counters after the replay",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit results as JSON instead of a table"
    )


def _add_generate_parser(subparsers) -> None:
    parser = subparsers.add_parser("generate", help="synthesize a .utd workload")
    parser.add_argument("output", help="path of the .utd file to write")
    parser.add_argument(
        "--kind", choices=["quest", "mushroom"], default="quest"
    )
    parser.add_argument("--transactions", type=int, default=1000)
    parser.add_argument("--items", type=int, default=40, help="quest: distinct items")
    parser.add_argument(
        "--avg-length", type=float, default=20.0, help="quest: average transaction length"
    )
    parser.add_argument(
        "--avg-pattern", type=float, default=10.0, help="quest: average pattern length"
    )
    parser.add_argument("--mean", type=float, default=0.8, help="Gaussian mean")
    parser.add_argument("--variance", type=float, default=0.1, help="Gaussian variance")
    parser.add_argument("--seed", type=int, default=0)


def _add_inspect_parser(subparsers) -> None:
    parser = subparsers.add_parser("inspect", help="describe a .utd file")
    parser.add_argument("input", help="path to the .utd database")


def _add_convert_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "convert",
        help="convert a dataset between .utd text and .utdz columnar formats",
    )
    parser.add_argument("input", help="source dataset (.utd, .utd.gz or .utdz)")
    parser.add_argument(
        "output",
        help="destination path; a .utdz suffix writes the zero-copy "
        "columnar format, anything else the text format",
    )


def _add_shard_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "shard",
        help="split a dataset into .utdz row-range shards plus a manifest",
    )
    parser.add_argument("input", help="source dataset (.utd, .utd.gz or .utdz)")
    parser.add_argument(
        "output_dir", help="directory the shard files and manifest are written into"
    )
    parser.add_argument(
        "--shards", type=int, required=True, metavar="N",
        help="number of shards (clamped to the number of 64-row blocks)",
    )
    parser.add_argument(
        "--stem", default="shard",
        help="shard filename stem (writes <stem>.NN.utdz + <stem>.shards.json)",
    )


def _add_experiments_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    parser.add_argument("--scale", choices=["ci", "standard", "paper"], default="ci")
    parser.add_argument("--only", nargs="*", default=None)
    parser.add_argument(
        "--export", default=None, metavar="DIR",
        help="also write machine-readable reports into DIR",
    )
    parser.add_argument(
        "--export-format", choices=["json", "csv"], default="json"
    )
    parser.add_argument(
        "--tidset-backend",
        choices=TIDSET_BACKENDS.names(),
        default="bitmap",
        help="tidset engine (bitmap = packed words; tuple = oracle backend)",
    )



def _add_serve_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="run the durable mining-job HTTP service (see docs/service.md)",
    )
    parser.add_argument(
        "--data-dir", required=True,
        help="directory for job state, checkpoints, and the result cache",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8765,
        help="bind port (0 picks an ephemeral port, published to service.json)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="concurrent mining jobs (each runs its own process pool)",
    )


def _error(message: str) -> int:
    """One-line operational error: stderr + exit code 2, no traceback."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _command_mine(args: argparse.Namespace) -> int:
    manifest_input = args.input.endswith(".shards.json")
    sharded = (
        args.shards is not None or args.shard_policy is not None or manifest_input
    )
    if manifest_input and args.shards is not None:
        return _error(
            "--shards cannot be combined with a .shards.json input "
            "(the manifest already fixes the partition)"
        )
    if manifest_input and args.verify:
        return _error(
            "--verify cannot be combined with a .shards.json input "
            "(the exact audit needs the whole database in memory)"
        )
    if args.shards is not None and args.shards < 1:
        return _error("--shards must be >= 1")
    shards = None
    if manifest_input:
        # The manifest alone identifies the run; the shard files themselves
        # are only opened shard-by-shard, so a lost shard goes through the
        # shard-loss policy instead of failing the load up front.
        from .runtime import ShardSet

        try:
            shards = ShardSet.from_manifest(args.input)
        except (OSError, ValueError) as error:
            return _error(str(error))
        database = None
        database_size = shards.total_transactions
    else:
        try:
            database = load_uncertain_database(args.input)
        except (OSError, ValueError) as error:
            return _error(str(error))
        database_size = len(database)
    try:
        if args.min_sup is not None:
            config = MinerConfig(
                min_sup=args.min_sup,
                pfct=args.pfct,
                epsilon=args.epsilon,
                delta=args.delta,
                seed=args.seed,
            )
        else:
            config = MinerConfig.with_relative_min_sup(
                database_size,
                args.min_sup_ratio,
                pfct=args.pfct,
                epsilon=args.epsilon,
                delta=args.delta,
                seed=args.seed,
            )
        config = config.variant(
            use_chernoff_pruning="ch" not in args.disable,
            use_superset_pruning="super" not in args.disable,
            use_subset_pruning="sub" not in args.disable,
            use_probability_bounds="bound" not in args.disable,
            max_itemset_size=args.max_size,
            tidset_backend=args.tidset_backend,
            lower_bound=args.lower_bound,
            upper_bound=args.upper_bound,
            degradation_policy=args.degradation_policy,
            exact_check_budget=args.exact_check_budget,
            check_deadline_seconds=args.check_deadline,
        )
    except ValueError as error:
        return _error(str(error))
    dfs_only_flags = [
        name
        for name, value in (
            ("--processes", args.processes),
            ("--checkpoint", args.checkpoint),
            ("--resume", args.resume),
            ("--branch-timeout", args.branch_timeout),
            ("--max-retries", args.max_retries),
            ("--shards", args.shards),
            ("--shard-policy", args.shard_policy),
        )
        if value is not None
    ]
    supervised = bool(dfs_only_flags) or sharded
    if supervised and args.framework != "dfs":
        names = dfs_only_flags or ["sharded mining (.shards.json input)"]
        verb = "is" if len(names) == 1 else "are"
        return _error(f"{'/'.join(names)} {verb} only supported with --framework dfs")
    if args.processes is not None and args.processes < 1:
        return _error("--processes must be >= 1")
    if supervised:
        from .runtime import (
            CheckpointError,
            ShardLossError,
            ShardSet,
            SupervisorConfig,
            run_sharded,
            run_supervised,
        )

        try:
            supervisor = SupervisorConfig(
                branch_timeout_seconds=args.branch_timeout,
                max_retries=args.max_retries if args.max_retries is not None else 2,
            )
        except ValueError as error:
            return _error(str(error))
        if sharded and shards is None:
            shards = ShardSet.from_database(database, args.shards or 1)
        checkpoint_path = args.resume or args.checkpoint
        try:
            if sharded:
                report = run_sharded(
                    shards,
                    config,
                    processes=args.processes,
                    supervisor=supervisor,
                    shard_policy=args.shard_policy or "fail-strict",
                    checkpoint_path=checkpoint_path,
                    resume_from_checkpoint=args.resume is not None,
                )
            else:
                report = run_supervised(
                    database,
                    config,
                    processes=args.processes,
                    supervisor=supervisor,
                    checkpoint_path=checkpoint_path,
                    resume_from_checkpoint=args.resume is not None,
                )
        except (OSError, CheckpointError, ShardLossError) as error:
            return _error(str(error))
        results = report.results
        stats = report.stats
        if sharded:
            for index, reason in sorted(report.lost_shards.items()):
                print(f"warning: shard {index} lost: {reason}", file=sys.stderr)
            if report.degraded:
                print(
                    f"warning: {len(report.lost_shards)} shard(s) lost; results "
                    "cover the surviving shards only and carry certified "
                    "support/frequency bounds (provenance shard-degraded)",
                    file=sys.stderr,
                )
        for outcome in report.failed:
            print(
                f"warning: branch {outcome.rank} ({outcome.item!r}) failed "
                f"after {outcome.attempts} attempt(s): {outcome.error}",
                file=sys.stderr,
            )
        if report.failed:
            print(
                f"warning: {len(report.failed)} branch(es) failed; "
                "results are partial",
                file=sys.stderr,
            )
    else:
        if args.framework == "dfs":
            miner = MPFCIMiner(database, config)
        elif args.framework == "bfs":
            miner = MPFCIBreadthFirstMiner(database, config)
        else:
            miner = NaiveMiner(database, config)
        results = miner.mine()
        stats = miner.stats
    exit_code = 1 if supervised and report.failed else 0
    if args.json:
        import json

        payload = {
            "config": config.describe(),
            "results": [result.to_dict() for result in results],
        }
        if args.stats:
            payload["stats"] = stats.as_dict()
            payload["stats_report"] = stats.report()
        print(json.dumps(payload, indent=2))
        return exit_code
    rows = [
        [
            " ".join(str(item) for item in result.itemset),
            result.probability,
            result.lower,
            result.upper,
            result.method,
            result.provenance,
        ]
        for result in results
    ]
    print(
        format_table(
            ["itemset", "Pr_FC", "lower", "upper", "method", "provenance"],
            rows,
            title=f"{len(results)} probabilistic frequent closed itemsets "
            f"({config.describe()})",
        )
    )
    if args.stats:
        import json

        print(stats.summary())
        print(json.dumps(stats.report(), indent=2))
    if args.verify:
        from .core.verify import verify_results

        verification = verify_results(
            database, results, config.min_sup, pfct=config.pfct
        )
        print(f"verification: {verification.summary()}")
        if not verification.all_sound:
            return 1
    return exit_code


def _command_stream_mine(args: argparse.Namespace) -> int:
    from .streaming import PFCIMonitor

    try:
        database = load_uncertain_database(args.input)
    except (OSError, ValueError) as error:
        return _error(str(error))
    if args.window < 1:
        return _error("--window must be >= 1")
    if args.max_slides is not None and args.max_slides < 1:
        return _error("--max-slides must be >= 1")
    if args.report_every is not None and args.report_every < 1:
        return _error("--report-every must be >= 1")
    try:
        if args.min_sup is not None:
            config = MinerConfig(
                min_sup=args.min_sup,
                pfct=args.pfct,
                epsilon=args.epsilon,
                delta=args.delta,
                seed=args.seed,
            )
        else:
            # The ratio is relative to the *window*, not the whole file: the
            # window is the database being mined at any instant.
            config = MinerConfig.with_relative_min_sup(
                args.window,
                args.min_sup_ratio,
                pfct=args.pfct,
                epsilon=args.epsilon,
                delta=args.delta,
                seed=args.seed,
            )
        config = config.variant(tidset_backend=args.tidset_backend)
    except ValueError as error:
        return _error(str(error))
    monitor = PFCIMonitor(config, window=args.window)
    transactions = list(database)
    if args.max_slides is not None:
        transactions = transactions[: args.max_slides]
    changes = 0
    for number, transaction in enumerate(transactions, start=1):
        delta = monitor.slide(transaction)
        if delta.changed:
            changes += 1
        if not args.json:
            periodic = args.report_every and number % args.report_every == 0
            if delta.changed or periodic:
                print(f"slide {number:>6}: {delta.summary()}")
    results = monitor.results()
    if args.json:
        import json

        payload = {
            "config": config.describe(),
            "window": args.window,
            "slides": monitor.stats.slides_processed,
            "result_changes": changes,
            "results": [result.to_dict() for result in results],
        }
        if args.stats:
            payload["stats"] = monitor.stats.as_dict()
            payload["stats_report"] = monitor.stats.report()
        print(json.dumps(payload, indent=2))
        return 0
    rows = [
        [
            " ".join(str(item) for item in result.itemset),
            result.probability,
            result.lower,
            result.upper,
            result.method,
        ]
        for result in results
    ]
    print(
        format_table(
            ["itemset", "Pr_FC", "lower", "upper", "method"],
            rows,
            title=f"{len(results)} PFCIs in the final window "
            f"(window={args.window}, {monitor.stats.slides_processed} slides, "
            f"{changes} result changes, {config.describe()})",
        )
    )
    if args.stats:
        import json

        print(monitor.stats.summary())
        print(json.dumps(monitor.stats.report(), indent=2))
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    if args.kind == "quest":
        transactions = generate_quest(
            QuestParameters(
                num_transactions=args.transactions,
                avg_transaction_length=args.avg_length,
                avg_pattern_length=args.avg_pattern,
                num_items=args.items,
                seed=args.seed,
            )
        )
    else:
        transactions = generate_mushroom_like(
            num_rows=args.transactions, seed=args.seed
        )
    database = attach_gaussian_probabilities(
        transactions, mean=args.mean, variance=args.variance, seed=args.seed
    )
    save_uncertain_database(database, args.output)
    print(
        f"wrote {len(database)} transactions over {len(database.items)} items "
        f"to {args.output}"
    )
    return 0


def _command_inspect(args: argparse.Namespace) -> int:
    try:
        database = load_uncertain_database(args.input)
    except (OSError, ValueError) as error:
        return _error(str(error))
    lengths = [len(txn.items) for txn in database]
    probabilities = database.probabilities
    rows = [
        ["transactions", len(database)],
        ["distinct items", len(database.items)],
        ["avg length", sum(lengths) / len(lengths) if lengths else 0.0],
        ["max length", max(lengths) if lengths else 0],
        [
            "avg probability",
            sum(probabilities) / len(probabilities) if probabilities else 0.0,
        ],
        ["min probability", min(probabilities) if probabilities else 0.0],
    ]
    print(format_table(["property", "value"], rows, title=args.input))
    return 0


def _command_convert(args: argparse.Namespace) -> int:
    try:
        database = load_uncertain_database(args.input)
    except (OSError, ValueError) as error:
        return _error(str(error))
    try:
        save_uncertain_database(database, args.output)
    except (OSError, ValueError) as error:
        return _error(str(error))
    print(
        f"wrote {len(database)} transactions over {len(database.items)} items "
        f"to {args.output}"
    )
    return 0


def _command_shard(args: argparse.Namespace) -> int:
    if args.shards < 1:
        return _error("--shards must be >= 1")
    try:
        database = load_uncertain_database(args.input)
    except (OSError, ValueError) as error:
        return _error(str(error))
    from .data.columnar import save_shards

    try:
        manifest_path = save_shards(
            database, args.output_dir, args.shards, stem=args.stem
        )
    except (OSError, ValueError) as error:
        return _error(str(error))
    from .data.columnar import load_shard_manifest

    manifest = load_shard_manifest(manifest_path)
    print(
        f"wrote {len(manifest['shards'])} shard(s) covering "
        f"{len(database)} transactions; manifest: {manifest_path}"
    )
    for entry in manifest["shards"]:
        print(
            f"  shard {entry['index']}: rows [{entry['start']}, "
            f"{entry['stop']}) -> {entry['path']}"
        )
    return 0


def _command_experiments(args: argparse.Namespace) -> int:
    from .eval.experiments import ExperimentScale, iter_reports, set_default_tidset_backend

    set_default_tidset_backend(args.tidset_backend)
    scale = ExperimentScale(args.scale)
    reports = []
    for report in iter_reports(scale, args.only):
        print(report.render(), flush=True)
        print(flush=True)
        reports.append(report)
    if args.export:
        from .eval.export import export_reports

        written = export_reports(reports, args.export, fmt=args.export_format)
        print(f"exported {len(written)} report(s) to {args.export}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the service pulls in asyncio plumbing no other
    # subcommand needs.
    from .service import serve

    if args.workers < 1:
        return _error(f"--workers must be >= 1, got {args.workers}")
    try:
        return serve(
            args.data_dir, host=args.host, port=args.port, workers=args.workers
        )
    except OSError as error:
        return _error(f"cannot start service: {error}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-mine",
        description="Probabilistic frequent closed itemset mining (MPFCI).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_mine_parser(subparsers)
    _add_stream_mine_parser(subparsers)
    _add_generate_parser(subparsers)
    _add_inspect_parser(subparsers)
    _add_convert_parser(subparsers)
    _add_shard_parser(subparsers)
    _add_experiments_parser(subparsers)
    _add_serve_parser(subparsers)
    args = parser.parse_args(argv)
    handlers = {
        "mine": _command_mine,
        "stream-mine": _command_stream_mine,
        "generate": _command_generate,
        "inspect": _command_inspect,
        "convert": _command_convert,
        "shard": _command_shard,
        "experiments": _command_experiments,
        "serve": _command_serve,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe; suppress the
        # traceback and exit with the conventional SIGPIPE status.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
