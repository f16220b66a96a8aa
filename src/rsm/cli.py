"""Command-line entry point.

Subcommands: ``synth`` (generate a dataset), ``train`` (learn weights),
``eval`` (flip-prediction experiment), ``demo-shredder`` (a worked
three-item catalog walkthrough). Every command is deterministic given its
flags and seed. Exit codes: 0 success, 2 bad configuration, 3 data problems,
4 numeric failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from . import config, learner
from .data import (
    BASE_COLUMNS,
    DatasetSchema,
    SyntheticSpec,
    batch_from_rows,
    derive_seed,
    generate_flip_dataset,
    generate_synthetic,
    load_csv,
    load_instances,
    mine_flip_pairs,
    save_csv,
    save_instances,
)
from .errors import (
    ContextTooSmall,
    DanglingItem,
    DegenerateVariance,
    GridBudgetExceeded,
    NoUniqueStationary,
    ParseError,
    SchemaError,
    ShapeError,
    SplitTooSmall,
)
from .evaluation import (
    Model,
    check_experiment,
    constant_model,
    least_squares_model,
    rsm_model,
    run_experiment,
    true_ctr_model,
)
from .markov import StochasticMatrix, stationary
from .topology import Direction, FeatureSpec, WeightVector, combine, encode_rank_topology, rank_items

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_DATA_ERRORS = (SchemaError, ParseError, SplitTooSmall, FileNotFoundError, IsADirectoryError)
_NUMERIC_ERRORS = (
    NoUniqueStationary,
    GridBudgetExceeded,
    DegenerateVariance,
    ShapeError,
    ContextTooSmall,
    DanglingItem,
)

MODELS: Dict[str, Callable[[DatasetSchema, Optional[learner.LearnerConfig]], Model]] = {
    "rsm": rsm_model,
    "least_squares": lambda schema, cfg: least_squares_model(schema),
    "constant": lambda schema, cfg: constant_model(),
    "train_ctr": lambda schema, cfg: true_ctr_model(),
}


def _parse_weights(text: str) -> WeightVector:
    try:
        values = np.array([float(part) for part in text.split(",")], dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"--weights must be comma-separated numbers, got {text!r}") from exc
    total = values.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError("--weights must sum to a positive number")
    return WeightVector(values / total)


def _parse_lambdas(text: str) -> List[float]:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"--lambda-sweep must be comma-separated numbers, got {text!r}") from exc
    for lam in values:
        if not 0.0 < lam < 1.0:
            raise ValueError("every sweep rate must lie in (0, 1)")
    labels = [f"{lam:g}" for lam in values]  # each rate's report section is named by its label
    if len(set(labels)) != len(labels):
        raise ValueError(f"--lambda-sweep rates must have distinct labels, got {', '.join(labels)}")
    return values


def _schema_for_csv(path: Path) -> DatasetSchema:
    """Feature schema for a CSV: the manifest next to it, else the header.

    A ``manifest.json`` in the same directory (written by ``synth``) names
    the features; without one, every non-base header column is treated as a
    higher-is-better numeric feature, the header read as :func:`load_csv` reads it.
    Both files may start with a UTF-8 byte-order mark.
    """
    manifest_path = path.parent / "manifest.json"
    if manifest_path.is_file():
        features = _manifest_features(manifest_path)
        if features:
            return DatasetSchema(
                features=tuple(
                    FeatureSpec(name=f["name"], direction=Direction(f["direction"]))
                    for f in features
                )
            )
    with open(path, newline="", encoding="utf-8-sig") as handle:
        header = next(csv.reader(handle), None)
    if not header:
        raise SchemaError(f"{path} is empty")
    names = [col for col in header if col not in BASE_COLUMNS]
    if not names:
        raise SchemaError(f"{path} has no feature columns")
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise SchemaError(f"{path} repeats the feature column {repeated[0]!r}")
    return DatasetSchema(
        features=tuple(FeatureSpec(name=n, direction=Direction.HIGHER_IS_BETTER) for n in names)
    )


def _manifest_features(path: Path) -> list:
    """The ``features`` of a ``manifest.json``, empty if it has none, or a ``SchemaError`` naming the file unless it
    is a JSON object whose ``features``, if any, lists objects each with a nonempty string ``name``, no two alike,
    and a ``direction`` of "higher" or "lower"."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            manifest = json.load(handle)
    except ValueError as exc:  # invalid JSON or UTF-8
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    features = manifest.get("features") if isinstance(manifest, dict) else None
    directions = [direction.value for direction in Direction]
    valid = isinstance(manifest, dict) and (not features or isinstance(features, list) and all(
        isinstance(f, dict) and isinstance(f.get("name"), str) and f["name"] and f.get("direction") in directions
        for f in features) and len({f["name"] for f in features}) == len(features))
    if not valid:
        raise SchemaError(f"{path} must be a JSON object whose 'features' lists objects, each with a nonempty "
                          f"'name', no two alike, and a 'direction' of {' or '.join(map(repr, directions))}")
    return features or []


def _load_rows(path: Path, schema: DatasetSchema):
    result = load_csv(path, schema)
    for err in result.errors:
        log.warning("%s line %d: %s", path, err.line_number, err.message)
    if not result.rows:
        raise SchemaError(f"{path} produced no usable contexts")
    return result.rows


def _learner_config(args, lam: float) -> learner.LearnerConfig:
    return learner.LearnerConfig(lam=lam, eta=args.eta, halt_eps=args.halt_eps, max_iters=args.max_iters)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    out_dir = Path(args.out_dir)
    if args.k < 1:
        raise ValueError(f"--k must be at least 1, got {args.k}")
    weights = _parse_weights(args.weights) if args.weights else WeightVector(np.full(args.k, 1.0 / args.k))
    if weights.k != args.k:
        raise ValueError(f"--weights has {weights.k} entries but --k is {args.k}")
    synth_seed = derive_seed(args.seed, "synth")
    clicks = args.clicks or (10_000 if args.flips else None)  # the clicks drawn per context, if any
    if args.flips:
        dataset = generate_flip_dataset(num_queries=args.queries, weights=weights, lam=args.lam, n=args.n,
                                        clicks_per_context=clicks, seed=synth_seed)
    else:
        dataset = generate_synthetic(SyntheticSpec(k=args.k, num_queries=args.queries, weights=weights, n=args.n,
                                                   lam=args.lam, clicks_per_context=clicks, seed=synth_seed))
    schema = dataset.schema
    manifest = {
        "command": "synth",
        "seed": args.seed,
        "k": args.k,
        "n": args.n,
        "queries": args.queries,
        "lam": args.lam,
        "true_weights": [float(v) for v in weights.values],
        "clicks_per_context": clicks,
        "flips": bool(args.flips),
        "features": [
            {"name": f.name, "direction": f.direction.value} for f in schema.features
        ],
        "num_rows": len(dataset.rows),
        "num_instances": len(dataset.instances),
    }
    if args.flips:
        if not dataset.rows:
            raise ValueError(f"--flips kept none of the {args.queries} queries requested, "
                             f"from {dataset.candidates_drawn} candidates drawn")
        manifest.update(queries_kept=len(dataset.rows) // 2, candidates_drawn=dataset.candidates_drawn)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    save_instances(dataset.instances, out_dir / "instances.json")
    if dataset.rows:
        save_csv(dataset.rows, out_dir / "dataset.csv", schema)
        log.info("wrote %d rows to %s", len(dataset.rows), out_dir / "dataset.csv")
    log.info("wrote %d instances to %s", len(dataset.instances), out_dir / "instances.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    data_path = Path(args.data)
    out_dir = Path(args.out_dir)
    if args.grid:  # the chosen learner's flags are checked before any read
        learner.grid_steps(args.grid_step, args.lam)
    else:
        cfg = _learner_config(args, args.lam)
    if data_path.suffix == ".json":
        batch = load_instances(data_path)
    else:
        schema = _schema_for_csv(data_path)
        batch = batch_from_rows(_load_rows(data_path, schema), schema)
    if not len(batch):
        raise SchemaError(f"{data_path} produced no training instances")

    if args.grid:
        weights = learner.grid_search(batch, grid_step=args.grid_step, lam=args.lam)
        err = learner.sample_error(batch, weights, args.lam)
        payload = {
            "method": "grid",
            "grid_step": args.grid_step,
            "lam": args.lam,
            "normalization": "sums_to_one",
            "weights": [float(v) for v in weights.values],
            "sample_error": err,
        }
        log.info("grid best error %.6g", err)
    else:
        result = learner.fit(batch, cfg)
        final_step = result.final_step_norm
        payload = {
            "method": "iterative",
            "lam": cfg.lam,
            "eta": cfg.eta,
            "halt_eps": cfg.halt_eps,
            "max_iters": cfg.max_iters,
            "normalization": "sums_to_one",
            "weights": [float(v) for v in result.weights.values],
            "iterations": result.iterations,
            "converged": result.converged,
            "qp_steps": result.qp_steps,
            "max_kkt_residual": result.max_kkt_residual,
            "final_step_norm": final_step if np.isfinite(final_step) else None,
            "sample_error": learner.sample_error(batch, result.weights, cfg.lam),
        }
    out_dir.mkdir(parents=True, exist_ok=True)
    if not args.grid:
        with open(out_dir / "loss.csv", "w", encoding="utf-8") as handle:
            handle.write("iteration,mse,mae,step_norm\n")
            figures = zip(result.per_iteration_loss, result.per_iteration_error, result.per_iteration_step)
            for it, (mse, mae, step_norm) in enumerate(figures):
                log.info("iteration %d: mse %.6g mae %.6g step %.3g", it, mse, mae, step_norm)
                handle.write(f"{it},{mse!r},{mae!r},{step_norm!r}\n")
    with open(out_dir / "weights.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    log.info("wrote %s", out_dir / "weights.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    data_path = Path(args.data)
    out_dir = Path(args.out_dir)
    names = [part.strip() for part in args.models.split(",") if part.strip()]
    for name in names:
        if name not in MODELS:
            raise ValueError(f"unknown model {name!r}; choose from {', '.join(MODELS)}")
    check_experiment(names, args.splits, args.train_frac)  # each registry name is its model's name
    lambdas = _parse_lambdas(args.lambda_sweep) if args.lambda_sweep else [args.lam]
    # the learner flags matter only to rsm; every option above is checked before the CSV is read
    configs = {lam: _learner_config(args, lam) if "rsm" in names else None for lam in lambdas}
    schema = _schema_for_csv(data_path)
    pairs = mine_flip_pairs(_load_rows(data_path, schema))  # a view of its record's pairs, for every rate of a sweep
    reports = {lam: run_experiment(pairs, [MODELS[name](schema, cfg) for name in names], num_splits=args.splits,
                                   seed=args.seed, train_fraction=args.train_frac) for lam, cfg in configs.items()}
    if args.lambda_sweep:
        json_payload, text_sections, csv_lines = {}, [], []
        for lam, report in reports.items():
            json_payload[f"{lam:g}"] = json.loads(report.to_json())
            text_sections.append(f"lambda = {lam:g}\n" + report.to_text())
            body = report.splits_csv().splitlines()
            if not csv_lines:
                csv_lines.append("lambda," + body[0])
            csv_lines.extend(f"{lam:g},{line}" for line in body[1:])
        report_json = json.dumps({"lambda_sweep": json_payload}, indent=2, sort_keys=True) + "\n"
        report_text = "\n".join(text_sections)
        report_csv = "\n".join(csv_lines) + "\n"
    else:
        report = reports[args.lam]
        report_json = report.to_json()
        report_text = report.to_text()
        report_csv = report.splits_csv()
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report_json, encoding="utf-8")
    (out_dir / "report.txt").write_text(report_text, encoding="utf-8")
    (out_dir / "report_splits.csv").write_text(report_csv, encoding="utf-8")
    sys.stdout.write(report_text)
    log.info("wrote report files to %s", out_dir)
    return EXIT_OK


# ---------------------------------------------------------------------------
# demo-shredder
# ---------------------------------------------------------------------------

_SHREDDERS = (("A", 20.0, 7.0), ("B", 50.0, 11.0), ("C", 95.0, 12.0))


def _shredder_chain(item_ids, lam: float, weights: WeightVector) -> tuple:
    """The shredders among ``item_ids``, in catalogue order, and their mixed price and capacity chain."""
    rows = [r for r in _SHREDDERS if r[0] in item_ids]
    items = tuple(r[0] for r in rows)
    t_price = encode_rank_topology([r[1] for r in rows], Direction.LOWER_IS_BETTER, items, "price")
    t_cap = encode_rank_topology([r[2] for r in rows], Direction.HIGHER_IS_BETTER, items, "sheet_capacity")
    return items, combine((t_price, t_cap), weights, lam)


def _context_report(item_ids, lam: float, weights: WeightVector, out) -> list:
    items, combined = _shredder_chain(item_ids, lam, weights)
    ranked = rank_items(combined, items)
    order = [item for item, _ in ranked]
    out.append(f"context {{{', '.join(items)}}}:")
    for item, prob in ranked:
        out.append(f"  {item}: stationary probability {prob:.6f}")
    out.append(f"  ordering: {' > '.join(order)}")
    return order


def _power_stationary(matrix: StochasticMatrix, steps: int = 20_000) -> np.ndarray:
    p = np.full(matrix.n, 1.0 / matrix.n)
    for _ in range(steps):
        p = p @ matrix.entries
    return p


def cmd_demo_shredder(args) -> int:
    lam = config.DEFAULT_LAMBDA
    weights = WeightVector(np.array([0.6, 0.4]))
    out: List[str] = []
    out.append("Paper shredders: A ($20, 7 sheets), B ($50, 11 sheets), C ($95, 12 sheets).")
    out.append("Features: price (lower is better), sheet capacity (higher is better).")
    out.append(f"Weights: price 0.6, sheet capacity 0.4; restart rate {lam:g}.")
    out.append("")
    order_ab = _context_report(("A", "B"), lam, weights, out)
    out.append("")
    order_abc = _context_report(("A", "B", "C"), lam, weights, out)
    out.append("")
    a_first_small = order_ab.index("A") < order_ab.index("B")
    a_first_large = order_abc.index("A") < order_abc.index("B")
    flipped = a_first_small != a_first_large
    if flipped:
        out.append("The A/B preference FLIPS between the two contexts.")
    else:
        out.append("The A/B preference does NOT flip between these two contexts under rank")
        out.append("topologies, at these weights or any others. The reason is structural:")
        out.append("B is the middle item on both features in {A, B, C}, so every column of")
        out.append("both topologies gives B exactly 1/3, and any mixture leaves B at")
        out.append("stationary probability exactly 1/3 regardless of the weights. In the")
        out.append("{A, B} context the two chains are reversible, so A beats B there")
        out.append("exactly when price outweighs capacity; matching a B-win in {A, B, C}")
        out.append("would need the opposite inequality at the same time.")
        out.append("")
        out.append("Grid sweep over price weight 0..1 (step 0.01), tie margin 1e-9:")
        flips = _search_flip_grid(lam)
        out.append(f"  weight settings checked: {flips['checked']}, flips found: {flips['found']}")
    out.append("")
    out.append("Cross-check: orderings recomputed by long-run simulation (power iteration)")
    ok = _verify_by_power(lam, weights)
    out.append("agree with the direct solve." if ok else "DISAGREE with the direct solve!")
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK


def _search_flip_grid(lam: float, step: float = 0.01, margin: float = 1e-9) -> dict:
    found = 0
    checked = 0
    for i in range(int(round(1.0 / step)) + 1):
        wp = i * step
        weights = WeightVector(np.array([wp, 1.0 - wp]))
        orders = []
        for item_ids in (("A", "B"), ("A", "B", "C")):
            items, combined = _shredder_chain(item_ids, lam, weights)
            probs = stationary(combined).probs
            ia, ib = items.index("A"), items.index("B")
            gap = probs[ia] - probs[ib]
            orders.append(0.0 if abs(gap) <= margin else float(np.sign(gap)))
        checked += 1
        if orders[0] * orders[1] < 0:
            found += 1
    return {"checked": checked, "found": found}


def _verify_by_power(lam: float, weights: WeightVector) -> bool:
    for item_ids in (("A", "B"), ("A", "B", "C")):
        _, combined = _shredder_chain(item_ids, lam, weights)
        direct = stationary(combined).probs
        powered = _power_stationary(combined)
        if np.argsort(-direct).tolist() != np.argsort(-powered).tolist():
            return False
        if np.max(np.abs(direct - powered)) > 1e-9:
            return False
    return True


# ---------------------------------------------------------------------------
# Argument plumbing.
# ---------------------------------------------------------------------------


def _add_learner_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lambda", dest="lam", type=float, default=config.DEFAULT_LAMBDA,
                        help="restart rate in (0, 1)")
    parser.add_argument("--eta", type=float, default=config.DEFAULT_ETA,
                        help="per-iteration step cap")
    parser.add_argument("--halt-eps", type=float, default=config.DEFAULT_HALT_EPS,
                        help="stop when the step max-norm drops to this")
    parser.add_argument("--max-iters", type=int, default=config.DEFAULT_MAX_ITERS,
                        help="iteration budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsm",
        description="Random-shopper ranking: topology mixtures, weight learning, flip experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--queries", type=int, default=100)
    p_synth.add_argument("--k", type=int, default=3)
    p_synth.add_argument("--n", type=int, default=5)
    p_synth.add_argument("--weights", default=None,
                         help="true mixture weights, comma separated (normalized; default uniform)")
    p_synth.add_argument("--clicks", type=int, default=0,
                         help="multinomial clicks per context (0 = noise-free labels only)")
    p_synth.add_argument("--flips", action="store_true",
                         help="generate paired contexts engineered to contain preference flips")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--lambda", dest="lam", type=float, default=config.DEFAULT_LAMBDA)
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="learn topology weights from a dataset")
    p_train.add_argument("data", help="dataset.csv, or an instances.json of format 2 as rsm synth writes it")
    p_train.add_argument("--out-dir", required=True)
    _add_learner_flags(p_train)
    p_train.add_argument("--grid", action="store_true", help="brute-force grid search instead")
    p_train.add_argument("--grid-step", type=float, default=0.05)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="run the paired-split flip experiment")
    p_eval.add_argument("data", help="click-log CSV")
    p_eval.add_argument("--out-dir", required=True)
    _add_learner_flags(p_eval)
    p_eval.add_argument("--models", default="rsm,least_squares,constant",
                        help=f"comma list from: {', '.join(MODELS)}")
    p_eval.add_argument("--splits", type=int, default=config.DEFAULT_NUM_SPLITS)
    p_eval.add_argument("--train-frac", type=float, default=config.DEFAULT_TRAIN_FRACTION)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--lambda-sweep", default=None,
                        help="comma list of restart rates; one report section per rate")
    p_eval.set_defaults(func=cmd_eval)

    p_demo = sub.add_parser("demo-shredder", help="worked three-item catalog example")
    p_demo.set_defaults(func=cmd_demo_shredder)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        log.error("%s", exc)
        return EXIT_DATA
    except _NUMERIC_ERRORS as exc:
        log.error("%s", exc)
        return EXIT_NUMERIC
    except ValueError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
