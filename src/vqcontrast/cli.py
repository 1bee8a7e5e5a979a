"""Command-line entry points.

Subcommands: gen-data, train, eval, gradcheck, protocol.  Every one takes
``--config`` and reads it first, in ``main``, before it touches any other
file.  Only gen-data writes a dataset; train, eval and protocol read one
from ``--data``.  Each subcommand finishes or raises; ``main`` turns the
outcome into the exit code and, on failure, one stderr line: 0 on success,
1 on validation errors (bad flags, configs, files, shapes), 2 on numeric
failures (non-finite loss, floating-point overflow, failed gradient checks).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .data import MANIFEST_FILE, DatasetManifest, generate_dataset
from .errors import NumericError
from .gradcheck import run_all_checks
from .harness import (
    RetrievalModel,
    RunConfig,
    evaluate_zero_shot,
    run_protocol,
    train,
    write_metrics,
)

# ConfigurationError and json.JSONDecodeError are ValueErrors, and so is
# numpy's refusal of an array it cannot size.
_VALIDATION_ERRORS = (ValueError, OSError, MemoryError)


class _Parser(argparse.ArgumentParser):
    # argparse prints its usage line and exits with 2 on usage errors; our
    # contract reserves 2 for numeric failures and prints one line per refusal.
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _cmd_gen_data(config: RunConfig, args) -> None:
    generate_dataset(
        args.out_dir,
        seed=config.seed,
        n_train_classes=config.n_train_classes,
        n_test_classes=config.n_test_classes,
        samples_per_class=config.samples_per_class,
        electrodes=config.electrodes,
        time_samples=config.time_samples,
        image_dim=config.image_dim,
        noise_sigma=config.noise_sigma,
        latent_dim=config.latent_dim,
    )
    print(Path(args.out_dir) / MANIFEST_FILE)


def _cmd_train(config: RunConfig, args) -> None:
    manifest = DatasetManifest.load(args.data)
    model, records = train(config, manifest)
    write_metrics(records, args.out)
    if args.params:
        model.save(args.params)
    if records:
        print(f"trained {len(records)} epochs; final loss {records[-1].train_loss:.6f}")
    else:
        print("no epochs configured; wrote empty metrics stream")


def _cmd_eval(config: RunConfig, args) -> None:
    manifest = DatasetManifest.load(args.data)
    model = RetrievalModel.from_saved(config, args.params)
    record = evaluate_zero_shot(model, manifest)
    write_metrics([record], args.out)
    print(f"top1 {record.top1:.4f}  top5 {record.top5:.4f}")


def _cmd_gradcheck(config: RunConfig, args) -> None:
    # the checks run on fixed tiny geometries; the config contributes only the seed
    results = run_all_checks(seed=config.seed)
    for result in results:
        print(result)
    failed = [r.name for r in results if not r.passed]
    if failed:
        raise NumericError(f"{len(failed)} of {len(results)} gradient checks failed: "
                           + ", ".join(failed))
    print(f"all {len(results)} gradient checks passed")


def _cmd_protocol(config: RunConfig, args) -> None:
    report = run_protocol(config, DatasetManifest.load(args.data))
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"top1 {report['top1']['formatted']}  top5 {report['top5']['formatted']}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vqcontrast",
        description="Quantum-circuit contrastive EEG/image retrieval experiments.",
    )
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[config], help="write a synthetic paired dataset")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", parents=[config], help="train one run and emit per-epoch metrics")
    p.add_argument("--data", required=True, help="dataset manifest JSON")
    p.add_argument("--out", required=True, help="metrics JSONL output path")
    p.add_argument("--params", help="optionally save trained parameters here")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", parents=[config], help="zero-shot evaluation of saved parameters")
    p.add_argument("--data", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", parents=[config], help="finite-difference checks for every op")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("protocol", parents=[config], help="multi-seed train+eval aggregate report")
    p.add_argument("--out", required=True, help="aggregate report JSON path")
    p.add_argument("--data", required=True, help="dataset manifest JSON")
    p.set_defaults(func=_cmd_protocol)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        # numpy's floating-point warnings (overflow, invalid) are numeric failures
        # too; the filter is process-wide, so one in an eval pool thread raises
        # there and reaches here through the future's result
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            args.func(RunConfig.load(args.config), args)
    except (NumericError, RuntimeWarning) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
