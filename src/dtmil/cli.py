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
import warnings
from dataclasses import asdict, fields

from .core import AdaptedModel, Hyperparams, _check_int, _check_match, _check_real, _frozen, embed_bag
from .data import (
    SynthConfig,
    generate_synthetic,
    load_dataset,
    load_model,
    load_source_model,
    load_synth_config,
    save_dataset,
    save_model,
    write_text_atomic,
)
from .errors import InvalidInputError
from .evaluate import accuracy, run_protocol, sweep, sweep_rows_to_csv
from .learn import FitReport, fit_dtc, train_source

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


def _check_dim(bags, path: str, dim: int, against: str) -> None:
    # a dataset unlike the model or source file it meets fails naming both, before any work
    _check_match(bags[0].dim, dim, f"{path} dimension", f"{against} dimension")


def _cmd_synth(args) -> int:
    _check_int(args.seed, "seed", 0)  # before the config file is read
    config = SynthConfig() if args.config is None else load_synth_config(args.config)
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
    model = train_source(data, args.words, args.c, args.seed)
    save_model(model, args.out)
    _log(f"trained source model ({args.words} words) on {len(data)} bags -> {args.out}")
    return 0


def _cmd_adapt(args) -> int:
    hyper = _hyper_from_args(args)  # validate flags before touching any file
    source_model = load_source_model(args.source_model)
    train = load_dataset(args.target_train)
    _check_dim(train, args.target_train, source_model.phi.dim, args.source_model)
    model, report = fit_dtc(train, source_model, hyper)
    _print_fit_report("adapt", report, rounds=args.verbose)
    save_model(model, args.out)
    _log(f"adapted on {len(train)} bags -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    bags = load_dataset(args.data)
    _check_dim(bags, args.data, (model.source if isinstance(model, AdaptedModel) else model).phi.dim, args.model)
    acc = accuracy(model, bags)
    write_text_atomic(args.out, [json.dumps({"accuracy": acc, "n": len(bags)}, sort_keys=True) + "\n"])
    _log(f"accuracy {acc:.4f} on {len(bags)} bags -> {args.out}")
    return 0


def _cmd_protocol(args) -> int:
    hyper = _hyper_from_args(args)  # validate flags before touching any file
    _check_int(args.folds, "--folds", 2)
    source = load_dataset(args.source)
    target = load_dataset(args.target)
    _check_dim(target, args.target, source[0].dim, args.source)
    report = run_protocol(
        source, target, hyper, args.folds, conventional=args.conventional,
        on_fit=lambda fold, rep: _print_fit_report(f"fold {fold}", rep, rounds=args.verbose),
    )
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
    write_text_atomic(args.out, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])
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
    return [_check_real(value, flag, positive=True) for value in grid]


def _cmd_sweep(args) -> int:
    hyper = _hyper_from_args(args)  # --c1/--c2 are grids, so the base keeps default weights
    c1_grid = _parse_grid(args.c1_grid, "--c1")
    c2_grid = _parse_grid(args.c2_grid, "--c2")
    _check_int(args.folds, "--folds", 2)
    source = load_dataset(args.source)
    target = load_dataset(args.target)
    _check_dim(target, args.target, source[0].dim, args.source)
    rows = sweep(source, target, hyper, c1_grid, c2_grid, args.folds)
    for row in rows:
        for warning in row["warnings"]:
            _log(f"c1={row['c1']} c2={row['c2']} fold {row['fold']}: warning: {warning}")
    write_text_atomic(args.out, [sweep_rows_to_csv(rows)])
    _log(f"swept {len(c1_grid)}x{len(c2_grid)} grid over {args.folds} folds -> {args.out}")
    return 0


def _cmd_embed(args) -> int:
    model = load_model(args.model)
    if args.dict == "phi":
        dictionary = model.source.phi if isinstance(model, AdaptedModel) else model.phi
    elif isinstance(model, AdaptedModel):
        dictionary = model.psi
    else:  # before the dataset is read, as for any flag
        raise InvalidInputError("model file holds no transfer dictionary; --dict psi needs an adapted model")
    bags = load_dataset(args.data)
    _check_dim(bags, args.data, dictionary.dim, args.model)

    def line(bag) -> str:
        # the one array rule keeps inf and NaN, which JSON lacks, out of the file
        features = _frozen(embed_bag(bag, dictionary), f"feature vector of bag {bag.id!r}", 1)
        return json.dumps({"id": bag.id, "features": features.tolist()}) + "\n"

    write_text_atomic(args.out, (line(bag) for bag in bags))
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
        with warnings.catch_warnings():
            # a library warning, such as a source solve at its sweep cap, is
            # one plain line as it is issued, not Python's file:line form
            warnings.simplefilter("always", RuntimeWarning)
            warnings.showwarning = lambda message, *_: _log(f"{args.command}: warning: {message}")
            return args.func(args)
    except (InvalidInputError, OSError) as exc:
        _log(f"error: {exc}")
        return 1
    except Exception as exc:  # runtime failures
        _log(f"runtime error: {type(exc).__name__}: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(run_cli())
