"""Command-line front end.

Subcommands:
  run                       run a bound-coverage campaign
  verify <lemma_id>|all     run one lemma's verification protocol, or all of them
  figures <fig_id>|all      emit one figure's data CSV, or all of them
  coeffs --delta D          print both bounds' leading constants at delta

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import bounds, harness
from .config import ExperimentConfig, load_config


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="64-bit master seed (overrides config)")
    parser.add_argument("--trials", type=int, default=None, help="trial / draw count (overrides config)")
    parser.add_argument("--out", default="out", help="output directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gpei", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a coverage campaign")
    _add_config_flags(p_run)
    p_run.add_argument("--workers", type=int, default=1, help="parallel trial workers (>= 1)")

    p_verify = sub.add_parser("verify", help="verify one lemma, or all")
    p_verify.add_argument("lemma", choices=sorted(harness.LEMMA_IDS) + ["all"])
    _add_config_flags(p_verify)

    p_fig = sub.add_parser("figures", help="emit figure data CSV, one or all")
    p_fig.add_argument("figure", choices=list(harness.FIGURE_IDS) + ["all"])
    p_fig.add_argument("--out", default="out", help="output directory")

    p_coeffs = sub.add_parser("coeffs", help="print bound constants at a given delta")
    p_coeffs.add_argument("--delta", type=float, required=True)

    return parser


def _load(args) -> ExperimentConfig:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.trials is not None:
        overrides["trials"] = str(args.trials)
    return load_config(args.config, overrides)


def _cmd_run(args) -> int:
    config = _load(args)
    result = harness.run_experiment(config, args.out, workers=args.workers)
    for line in harness.campaign_summary_lines(result):
        print(line)
    return 0 if result.passed else 1


def _cmd_verify(args) -> int:
    config = _load(args)
    # every protocol runs before anything is written, so one that refuses
    # leaves no partial output
    lemmas = harness.LEMMA_IDS if args.lemma == "all" else (args.lemma,)
    reports = harness.verify_lemmas(lemmas, config, n=args.trials)
    for report in reports:
        harness.write_lemma_report(args.out, report, config)
        print(report.line)
    return 0 if all(report.passed for report in reports) else 1


def _cmd_figures(args) -> int:
    for figure in harness.FIGURE_IDS if args.figure == "all" else (args.figure,):
        path = harness.emit_figure_data(figure, os.path.join(args.out, f"{figure}.csv"))
        print(f"wrote {path}")
    return 0


def _cmd_coeffs(args) -> int:
    c42, c46 = bounds.compare_coefficients(args.delta)
    table = {"delta": args.delta, "beta_42": c42.beta, "C4_42": c42.c4, "C5_42": c42.c5, "beta_46": c46.beta,
             "C1_46": c46.c1, "C2_46": c46.c2, "C5_46": c46.c5, "w_46": c46.w, "sqrt_beta_42": math.sqrt(c42.beta)}
    for name, value in table.items():
        print(f"{name} = {value!r}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "verify": _cmd_verify,
    "figures": _cmd_figures,
    "coeffs": _cmd_coeffs,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
