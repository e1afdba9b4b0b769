"""Command-line entry point wiring the library into runnable workflows.

Subcommands: synth, train-source, adapt, eval, protocol, sweep, embed.
Exit codes: 0 success, 1 validation error, 2 runtime error.
Diagnostics go to stderr; data goes to the requested output files.  Output
files are written atomically (temp file + rename), so a failing run never
leaves a partial file.  All randomness flows from the --seed flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields

from .core import AdaptedModel, Hyperparams, _check_int, _check_real, embed_bag
from .data import (
    SynthConfig,
    generate_synthetic,
    load_dataset,
    load_model,
    load_source_model,
    save_dataset,
    save_model,
    write_text_atomic,
)
from .errors import InvalidInputError
from .evaluate import accuracy, run_protocol, sweep, sweep_rows_to_csv
from .learn import FitReport, _capture_warnings, fit_dtc, train_source

_DEFAULTS = Hyperparams()


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _add_hyper_flags(parser: argparse.ArgumentParser, weights: bool = True) -> None:
    # the one place that names a flag per Hyperparams field; sweep passes
    # weights=False because its --c1/--c2 are grids
    parser.add_argument("--kappa", type=int, default=_DEFAULTS.kappa, help="transfer dictionary size")
    if weights:
        parser.add_argument("--c1", type=float, default=_DEFAULTS.c1, help="adaptation weight regularizer")
        parser.add_argument("--c2", type=float, default=_DEFAULTS.c2, help="transfer dictionary regularizer")
    parser.add_argument("--eta", type=float, default=_DEFAULTS.eta, help="codeword step size")
    parser.add_argument("--inner-iters", type=int, default=_DEFAULTS.inner_iters, help="descent steps per codeword")
    parser.add_argument("--max-outer", type=int, default=_DEFAULTS.max_outer, help="outer iteration cap")
    parser.add_argument("--tol", type=float, default=_DEFAULTS.tol, help="relative dual-change stop")
    parser.add_argument("--seed", type=int, default=_DEFAULTS.seed, help="seed for all randomness")


def _hyper_from_args(args) -> Hyperparams:
    # a field with no flag on this subcommand keeps its dataclass default
    given = vars(args)
    return Hyperparams(**{f.name: given[f.name] for f in fields(Hyperparams) if f.name in given})


def _print_fit_report(label: str, report: FitReport, rounds: bool = True) -> None:
    for warning in report.warnings:
        _log(f"{label}: warning: {warning}")
    if not rounds:
        return
    for it in range(report.outer_iterations):
        _log(
            f"{label}: outer {it + 1}: dual {report.dual_values[it]:.6g} "
            f"(warm start {report.warm_start_dual_values[it]:.6g}), "
            f"primal {report.primal_values[it]:.6g}"
        )
    _log(
        f"{label}: {'converged' if report.converged else 'budget exhausted'} "
        f"after {report.outer_iterations} outer iteration(s), "
        f"{report.wall_time_seconds:.3f}s"
    )


def _cmd_synth(args) -> int:
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                raw = json.load(handle)
            except UnicodeDecodeError as exc:
                raise InvalidInputError(f"{args.config}: not UTF-8 text ({exc.reason})") from exc
        config = SynthConfig.from_dict(raw)
    else:
        config = SynthConfig()
    source, target = generate_synthetic(config, args.seed)
    save_dataset(source, args.out_source)
    save_dataset(target, args.out_target)
    _log(f"wrote {len(source)} source bags to {args.out_source}")
    _log(f"wrote {len(target)} target bags to {args.out_target}")
    return 0


def _cmd_train_source(args) -> int:
    # the library's own rules, applied before any file is read
    _check_int(args.words, "--words", 1)
    _check_real(args.c, "--c", positive=True)
    _check_int(args.seed, "--seed", 0)
    data = load_dataset(args.data)
    model, caught = _capture_warnings(train_source, data, args.words, args.c, args.seed)
    for message in caught:
        _log(f"train-source: warning: {message}")
    save_model(model, args.out)
    _log(f"trained source model ({args.words} words) on {len(data)} bags -> {args.out}")
    return 0


def _cmd_adapt(args) -> int:
    hyper = _hyper_from_args(args)  # validate flags before touching any file
    source_model = load_source_model(args.source_model)
    train = load_dataset(args.target_train)
    model, report = fit_dtc(train, source_model, hyper)
    _print_fit_report("adapt", report, rounds=args.verbose)
    save_model(model, args.out)
    _log(f"adapted on {len(train)} bags -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    bags = load_dataset(args.data)
    acc = accuracy(model, bags)
    write_text_atomic(
        args.out, json.dumps({"accuracy": acc, "n": len(bags)}, sort_keys=True) + "\n"
    )
    _log(f"accuracy {acc:.4f} on {len(bags)} bags -> {args.out}")
    return 0


def _cmd_protocol(args) -> int:
    hyper = _hyper_from_args(args)
    source = load_dataset(args.source)
    target = load_dataset(args.target)
    # fold warnings reach on_fit; a warning caught here is the shared source model's
    report, caught = _capture_warnings(
        run_protocol, source, target, hyper, args.folds, conventional=args.conventional,
        on_fit=lambda fold, rep: _print_fit_report(f"fold {fold}", rep, rounds=args.verbose),
    )
    for message in caught:
        _log(f"protocol: warning: {message}")
    # wall-clock timings stay out of the file so identical seeds produce
    # byte-identical reports
    doc = {
        "folds": args.folds,
        "seed": args.seed,
        "conventional": args.conventional,
        "per_fold_accuracy": report.per_fold_accuracy,
        "mean_accuracy": report.mean_accuracy,
        "baselines": report.baseline_accuracies,
        "hyper": asdict(hyper),
    }
    write_text_atomic(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    _log(
        f"protocol mean accuracy {report.mean_accuracy:.4f} "
        f"(source-only {report.baseline_accuracies['source_only']:.4f}, "
        f"target-only {report.baseline_accuracies['target_only']:.4f}) -> {args.out}"
    )
    return 0


def _parse_grid(text: str, flag: str) -> list[float]:
    try:
        grid = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise InvalidInputError(f"{flag} must be a comma-separated list of reals: {exc}") from exc
    if not grid:
        raise InvalidInputError(f"{flag} must contain at least one value")
    return grid


def _cmd_sweep(args) -> int:
    hyper = _hyper_from_args(args)  # --c1/--c2 are grids, so the base keeps default weights
    c1_grid = _parse_grid(args.c1_grid, "--c1")
    c2_grid = _parse_grid(args.c2_grid, "--c2")
    source = load_dataset(args.source)
    target = load_dataset(args.target)
    rows, caught = _capture_warnings(sweep, source, target, hyper, c1_grid, c2_grid, args.folds)
    for message in caught:
        _log(f"sweep: warning: {message}")
    for row in rows:
        for warning in row["warnings"]:
            _log(f"c1={row['c1']} c2={row['c2']} fold {row['fold']}: warning: {warning}")
    write_text_atomic(args.out, sweep_rows_to_csv(rows))
    _log(f"swept {len(c1_grid)}x{len(c2_grid)} grid over {args.folds} folds -> {args.out}")
    return 0


def _cmd_embed(args) -> int:
    model = load_model(args.model)
    bags = load_dataset(args.data)
    if args.dict == "phi":
        dictionary = model.source.phi if isinstance(model, AdaptedModel) else model.phi
    else:
        if not isinstance(model, AdaptedModel):
            raise InvalidInputError("model file holds no transfer dictionary; --dict psi needs an adapted model")
        dictionary = model.psi
    lines = [
        json.dumps({"id": bag.id, "features": embed_bag(bag, dictionary).tolist()})
        for bag in bags
    ]
    write_text_atomic(args.out, "\n".join(lines) + "\n")
    _log(f"embedded {len(bags)} bags against {args.dict} -> {args.out}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="dtmil", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic cross-domain dataset pair")
    p.add_argument("--config", help="JSON file of generator parameters (defaults used when omitted)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-source", required=True)
    p.add_argument("--out-target", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train-source", help="train a source dictionary and classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--words", type=int, default=_DEFAULTS.kappa, help="source dictionary size")
    p.add_argument("--c", type=float, default=_DEFAULTS.c1, help="classifier regularizer weight")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_source)

    p = sub.add_parser("adapt", help="adapt a source model to target training bags")
    p.add_argument("--source-model", required=True)
    p.add_argument("--target-train", required=True)
    _add_hyper_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("eval", help="evaluate a model file on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("protocol", help="cross-validated evaluation with baselines")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--folds", type=int, required=True)
    _add_hyper_flags(p)
    p.add_argument("--conventional", action="store_true", help="train on k-1 folds instead of one")
    p.add_argument("--out", required=True)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_protocol)

    p = sub.add_parser("sweep", help="accuracy over a (c1, c2) grid, CSV output")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--c1", dest="c1_grid", required=True, help="comma-separated c1 values")
    p.add_argument("--c2", dest="c2_grid", required=True, help="comma-separated c2 values")
    p.add_argument("--folds", type=int, required=True)
    _add_hyper_flags(p, weights=False)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("embed", help="dump bag features for debugging")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--dict", choices=("phi", "psi"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_embed)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _log(f"error: {exc}")
        return 1
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (InvalidInputError, OSError, json.JSONDecodeError) as exc:
        _log(f"error: {exc}")
        return 1
    except Exception as exc:  # runtime failures
        _log(f"runtime error: {type(exc).__name__}: {exc}")
        return 2


def main(argv: list[str] | None = None) -> int:
    return run_cli(argv)


if __name__ == "__main__":
    sys.exit(main())
