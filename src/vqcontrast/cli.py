"""Command-line entry points.

Subcommands: gen-data, train, eval, gradcheck, protocol.  Exit codes:
0 on success, 1 on validation errors (bad flags, configs, files, shapes),
2 on numeric failures (non-finite loss, failed gradient checks).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data import MANIFEST_FILE, DatasetManifest, generate_dataset
from .errors import ConfigurationError, NumericError, ShapeError, TensorFormatError
from .gradcheck import run_all_checks
from .harness import (
    RetrievalModel,
    RunConfig,
    evaluate_zero_shot,
    run_protocol,
    train,
    write_metrics,
)

_VALIDATION_ERRORS = (
    ConfigurationError,
    ShapeError,
    TensorFormatError,
    OSError,
    json.JSONDecodeError,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; our contract reserves 2 for
    # numeric failures, so usage problems must exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _generate_from_config(config: RunConfig, out_dir) -> DatasetManifest:
    return generate_dataset(
        out_dir,
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


def _cmd_gen_data(args) -> int:
    config = RunConfig.load(args.config)
    _generate_from_config(config, args.out_dir)
    print(Path(args.out_dir) / MANIFEST_FILE)
    return 0


def _cmd_train(args) -> int:
    config = RunConfig.load(args.config)
    manifest = DatasetManifest.load(args.data)
    model, records = train(config, manifest)
    write_metrics(records, args.out)
    if args.params:
        model.save(args.params)
    if records:
        print(f"trained {len(records)} epochs; final loss {records[-1].train_loss:.6f}")
    else:
        print("no epochs configured; wrote empty metrics stream")
    return 0


def _cmd_eval(args) -> int:
    config = RunConfig.load(args.config)
    manifest = DatasetManifest.load(args.data)
    model = RetrievalModel.from_saved(config, args.params)
    record = evaluate_zero_shot(model, manifest)
    write_metrics([record], args.out)
    print(f"top1 {record.top1:.4f}  top5 {record.top5:.4f}")
    return 0


def _cmd_gradcheck(args) -> int:
    config = RunConfig.load(args.config)
    # the checks run on fixed tiny geometries; the config contributes only the seed
    results = run_all_checks(seed=config.seed)
    for result in results:
        print(result)
    failures = [r for r in results if not r.passed]
    if failures:
        first = failures[0]
        print(
            f"first failure: {first.name} (max deviation {first.max_deviation:.3e})",
            file=sys.stderr,
        )
        return 2
    print(f"all {len(results)} gradient checks passed")
    return 0


def _cmd_protocol(args) -> int:
    config = RunConfig.load(args.config)
    if args.data:
        manifest = DatasetManifest.load(args.data)
    elif config.data_manifest:
        manifest = DatasetManifest.load(config.data_manifest)
    else:
        out = Path(args.out)
        manifest = _generate_from_config(config, out.with_name(out.name + ".data"))
    report = run_protocol(config, manifest)
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"top1 {report['top1']['formatted']}  top5 {report['top5']['formatted']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vqcontrast",
        description="Quantum-circuit contrastive EEG/image retrieval experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[], help="write a synthetic paired dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train one run and emit per-epoch metrics")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="dataset manifest JSON")
    p.add_argument("--out", required=True, help="metrics JSONL output path")
    p.add_argument("--params", help="optionally save trained parameters here")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="zero-shot evaluation of saved parameters")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference checks for every op")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("protocol", help="multi-seed train+eval aggregate report")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="aggregate report JSON path")
    p.add_argument("--data", help="dataset manifest (default: from config, else generated)")
    p.set_defaults(func=_cmd_protocol)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
