"""Command-line entry point wiring the library into complete workflows.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numerical failure. All randomness funnels through a single --seed flag
(default 42), so re-running any subcommand with the same inputs and seed
reproduces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import empirics, evaluation, ranking, selection, weighting
from .distributions import ModelId, Sample
from .errors import (
    AdrankError,
    ConfigError,
    DomainError,
    FormatError,
    IngestError,
    NumericalError,
    OptimizationInitError,
    ParameterError,
    SupportError,
    UsageError,
)
from .numerics import RandomSource

CONFIG_ENV_VAR = "ADRANK_CONFIG"
_CONFIG_KEYS = {
    "seed": int,
    "significance": float,
    "c": float,
    "mu": float,
    "k": int,
    "tag": str,
}
_DEFAULTS = {
    "seed": 42,
    "significance": 0.05,
    "c": 1.0,
    "mu": 1000.0,
    "k": 1000,
    "tag": "adrank",
}

_USAGE_ERRORS = (UsageError, ConfigError, DomainError, ParameterError)
_DATA_ERRORS = (FormatError, IngestError, SupportError)
_NUMERICAL_ERRORS = (OptimizationInitError, NumericalError)


def _load_config_file(path: str) -> dict:
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](raw)
        except ValueError:
            raise ConfigError(f"config line {lineno}: bad value for {key}") from None
    return values


def _resolve_config(args) -> dict:
    config = dict(_DEFAULTS)
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    if path:
        config.update(_load_config_file(path))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            config[key] = flag
    for key in sorted(config):
        print(f"# {key}={config[key]}", file=sys.stderr)
    return config


def _parse_models(spec: str) -> list[ModelId]:
    if spec == "all":
        return list(ModelId)
    if spec == "discrete":
        from .distributions import is_discrete_model

        return [m for m in ModelId if is_discrete_model(m)]
    out = []
    for name in spec.split(","):
        name = name.strip()
        try:
            out.append(ModelId(name))
        except ValueError:
            raise UsageError(f"unknown model {name!r}") from None
    if not out:
        raise UsageError("empty model list")
    return out


def _load_sample(args) -> Sample:
    if args.input:
        return corpus_mod.read_counts_file(args.input)
    if args.index and args.property:
        index = corpus_mod.load_index(args.index)
        return corpus_mod.extract_distribution(index, args.property)
    raise UsageError("provide --input COUNTS or --index plus --property")


def _write(path: str | None, text: str):
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _fit_summary(table) -> str:
    parts = []
    for label, model in (
        ("overall", table.best_overall),
        ("discrete", table.best_discrete),
    ):
        if model is None:
            parts.append(f"best {label}: none")
            continue
        fit = table.fitted[model]
        params = ", ".join(f"{k}={v:.4g}" for k, v in fit.params.items())
        parts.append(f"best {label}: {model.value} ({params})")
    return "; ".join(parts)


def _cmd_fit(args, config):
    sample = _load_sample(args)
    models = _parse_models(args.models)
    table = selection.build_vuong_table(
        sample, models, significance=config["significance"]
    )
    overall, discrete, agree = selection.select_best(table)
    _write(args.out, table.to_tsv())
    if args.records:
        Path(args.records).write_text(table.to_records())
    print(_fit_summary(table))
    print(f"AICc agreement with pairwise winner: {str(agree).lower()}")
    picked = [m for m in (overall, discrete) if m is not None]
    return 0 if all(table.fitted[m].converged for m in picked) else 3


def _cmd_plotdata(args, config):
    sample = _load_sample(args)
    if args.method == "gm1":
        series = empirics.raw_histogram(sample)
    elif args.method == "gm2":
        series = empirics.eccdf(sample)
    else:
        series = empirics.log_binned_histogram(sample, base=args.base)
    out = series.to_tsv(gnuplot_ready=args.gnuplot_ready)
    if args.fitline:
        alpha = empirics.loglog_exponent_estimate(series)
        out += f"# loglog_exponent_estimate={alpha:.6f}\n"
    _write(args.out, out)
    return 0


def _cmd_ingest(args, config):
    src = Path(args.corpus)
    if src.is_dir():
        docs = corpus_mod.iter_documents_from_dir(src)
    else:
        docs = corpus_mod.iter_documents_from_tsv(src)
    index = corpus_mod.build_index(docs)
    corpus_mod.save_index(index, args.out)
    s = index.stats
    print(f"indexed N={s.N} total_terms={s.total_terms} vocab={s.vocab_size}")
    return 0


def _cmd_stats(args, config):
    index = corpus_mod.load_index(args.index)
    s = index.stats
    print(f"N={s.N}")
    print(f"total_terms={s.total_terms}")
    print(f"avg_l={s.avg_l:.6f}")
    print(f"vocab_size={s.vocab_size}")
    if args.property:
        sample = corpus_mod.extract_distribution(index, args.property)
        text = "\n".join(f"{int(v)}" for v in sample.values) + "\n"
        _write(args.out, text)
    return 0


def _cmd_classify(args, config):
    index = corpus_mod.load_index(args.index)
    rule = weighting.parse_rule(args.rule, target=args.target)
    informative, non_informative = weighting.classify_terms(index, rule)
    Path(args.out_informative).write_text(
        "\n".join(sorted(informative)) + ("\n" if informative else "")
    )
    Path(args.out_non_informative).write_text(
        "\n".join(sorted(non_informative)) + ("\n" if non_informative else "")
    )
    if args.weights_out:
        classes, of_term = weighting.term_classes(index)
        cells = [
            f"\t{w.idf:.6f}\t{w.gain:.6f}\t{w.x_i:.6f}"
            f"\t{w.burstiness:.6f}\t{w.ridf:.6f}\t{w.f_tc}\t{w.n_t}"
            for w in classes
        ]
        lines = ["term\tidf\tgain\tx_i\tburstiness\tridf\tf_tc\tn_t"]
        # index.terms is sorted, so the rows come out in term order
        lines += [term + cells[k] for term, k in zip(index.terms, of_term.tolist())]
        Path(args.weights_out).write_text("\n".join(lines) + "\n")
    print(
        f"informative={len(informative)} non_informative={len(non_informative)}"
    )
    return 0


def _cmd_cascade(args, config):
    if not 0.0 < args.fraction <= 1.0:
        raise UsageError("--fraction must lie in (0, 1]")
    index = corpus_mod.load_index(args.index)
    if args.non_informative_list:
        # imported classification: one term per line, unknown terms skipped
        non_informative = set(Path(args.non_informative_list).read_text().split())
    else:
        rule = weighting.parse_rule(args.rule, target=args.target)
        _, non_informative = weighting.classify_terms(index, rule)
    labelled = np.fromiter(
        map(non_informative.__contains__, index.terms), dtype=bool, count=len(index.terms)
    )
    if not labelled.any():
        raise UsageError("no terms were labelled non-informative")
    freqs = np.sort(index.f_tc[labelled]).tolist()
    rng = RandomSource(config["seed"])
    sub = empirics.subsample(freqs, args.method, args.fraction, rng)
    sample = Sample(values=np.asarray(sorted(sub), dtype=np.float64), is_discrete=True)
    models = _parse_models(args.models)
    table = selection.build_vuong_table(
        sample, models, significance=config["significance"]
    )
    _, discrete, _ = selection.select_best(table)
    if discrete is None:
        raise UsageError("no discrete model could be fitted")
    fit = table.fitted[discrete]
    params = " ".join(f"{k}={v:.6g}" for k, v in fit.params.items())
    print(f"chosen_model={discrete.value} {params} n={fit.n}")
    suggestion = {
        ModelId.YULE_SIMON: "YSL2-Tdc2",
        ModelId.POWERLAW: "PLL2-Tdc+1",
    }.get(discrete)
    if suggestion:
        print(f"rank_spec={suggestion}")
    return 0 if fit.converged else 3


def _read_queries(path: str) -> list[corpus_mod.QueryRecord]:
    queries = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        if "\t" in line:
            qid, text = line.split("\t", 1)
        else:
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise FormatError(f"queries line {lineno}: expected qid and text")
            qid, text = parts
        queries.append(
            corpus_mod.QueryRecord(qid.strip(), corpus_mod.tokenize(text), text)
        )
    if not queries:
        raise FormatError("no queries found")
    return queries


def _cmd_rank(args, config):
    index = corpus_mod.load_index(args.index)
    cfg = ranking.parse_model_spec(
        args.model, c=config["c"], mu=config["mu"], pl_xmin=args.pl_xmin
    )
    queries = _read_queries(args.queries)
    lists = [ranking.rank(q, index, cfg, k=config["k"]) for q in queries]
    _write(args.out, ranking.format_trec_run(lists, tag=config["tag"]))
    return 0


def _cmd_eval(args, config):
    run = evaluation.parse_run(Path(args.run).read_text())
    qrels = evaluation.parse_qrels(Path(args.qrels).read_text())
    metrics = tuple(m.strip() for m in args.metrics.split(","))
    report = evaluation.evaluate_run(run, qrels, metrics)
    for flag in report.flags:
        print(f"# warning: {flag}", file=sys.stderr)
    _write(args.out, report.to_tsv(model=args.run))
    if args.per_query:
        for metric in metrics:
            for qid in sorted(report.per_query[metric]):
                print(f"{metric}\t{qid}\t{report.per_query[metric][qid]:.6f}")
    if args.baseline_run:
        base = evaluation.parse_run(Path(args.baseline_run).read_text())
        base_report = evaluation.evaluate_run(base, qrels, metrics)
        for metric in metrics:
            shared = sorted(
                set(report.per_query[metric]) & set(base_report.per_query[metric])
            )
            a = [report.per_query[metric][q] for q in shared]
            b = [base_report.per_query[metric][q] for q in shared]
            t, p = evaluation.paired_t_test(a, b)
            if t != t:  # NaN: degenerate differences
                print(f"t-test {metric}: degenerate (all differences zero)")
            else:
                sig = "significant" if p < config["significance"] else "not significant"
                print(f"t-test {metric}: t={t:.4f} p={p:.4f} ({sig} at "
                      f"{config['significance']:g})")
    return 0


def _cmd_tune(args, config):
    index = corpus_mod.load_index(args.index)
    queries = _read_queries(args.queries)
    qrels = evaluation.parse_qrels(Path(args.qrels).read_text())
    grid = [float(v) for v in args.grid.split(",") if v.strip()]
    if not grid:
        raise UsageError("empty grid")

    def factory(value):
        kwargs = {"c": config["c"], "mu": config["mu"]}
        kwargs[args.param] = value
        return ranking.parse_model_spec(args.model, **kwargs)

    folds, test_mean = evaluation.cv_tune(
        queries,
        qrels,
        index,
        factory,
        grid,
        folds=args.folds,
        objective=args.objective,
        k=config["k"],
    )
    for fr in folds:
        metrics = " ".join(f"{m}={v:.4f}" for m, v in sorted(fr["test_mean"].items()))
        print(f"fold={fr['fold']} best_{args.param}={fr['best']:g} {metrics}")
    overall = " ".join(f"{m}={v:.4f}" for m, v in sorted(test_mean.items()))
    print(f"mean_over_folds {overall}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adrank",
        description=(
            "Fit and select statistical models for count data, and rank "
            "documents with divergence-based models adapted to the selected "
            "distribution."
        ),
    )
    parser.add_argument("--config", help=f"key=value config file (or ${CONFIG_ENV_VAR})")
    parser.add_argument("--seed", type=int, help="random seed (default 42)")
    parser.add_argument("--significance", type=float, help="test level (default .05)")
    sub = parser.add_subparsers(dest="command", required=True)

    def _shared(p):
        # accepted after the subcommand as well; SUPPRESS keeps a value
        # given before the subcommand from being overwritten by a default
        p.add_argument("--config", default=argparse.SUPPRESS)
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        p.add_argument("--significance", type=float, default=argparse.SUPPRESS)
        return p

    p = sub.add_parser("fit", help="fit models and emit the pairwise selection table")
    p.add_argument("--input", help="counts file, one nonnegative integer per line")
    p.add_argument("--index", help="saved index file")
    p.add_argument("--property", choices=["term_frequency", "document_length"])
    p.add_argument("--models", default="all", help="all | discrete | comma list")
    p.add_argument("--out", help="table TSV path (stdout when omitted)")
    p.add_argument("--records", help="also write line-delimited records here")
    _shared(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("plotdata", help="emit GM1/GM2/GM3 series as two-column TSV")
    p.add_argument("--input", help="counts file")
    p.add_argument("--index")
    p.add_argument("--property", choices=["term_frequency", "document_length"])
    p.add_argument("--method", choices=["gm1", "gm2", "gm3"], required=True)
    p.add_argument("--base", type=int, default=2, help="log-binning base (gm3)")
    p.add_argument("--fitline", action="store_true", help="append the OLS exponent")
    p.add_argument("--gnuplot-ready", action="store_true", help="comment headers")
    p.add_argument("--out")
    _shared(p)
    p.set_defaults(func=_cmd_plotdata)

    p = sub.add_parser("ingest", help="build and save an index")
    p.add_argument("--corpus", required=True, help="directory of .txt or TSV file")
    p.add_argument("--out", required=True)
    _shared(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("stats", help="dump corpus statistics and property samples")
    p.add_argument("--index", required=True)
    p.add_argument("--property", choices=["term_frequency", "document_length"])
    p.add_argument("--out")
    _shared(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("classify", help="split the vocabulary by a threshold rule")
    p.add_argument("--index", required=True)
    p.add_argument("--rule", default="all", help="e.g. 'ridf < 0.5 and burstiness < 3'")
    p.add_argument("--target", default="non_informative",
                   choices=["non_informative", "informative"],
                   help="class assigned to matching terms")
    p.add_argument("--out-informative", required=True)
    p.add_argument("--out-non-informative", required=True)
    p.add_argument("--weights-out", help="also dump a per-term weight TSV here")
    _shared(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "cascade",
        help="classify, subsample non-informative frequencies, select a model",
    )
    p.add_argument("--index", required=True)
    p.add_argument("--rule", default="all")
    p.add_argument("--target", default="non_informative",
                   choices=["non_informative", "informative"])
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--non-informative-list",
                   help="skip classification and import this term list")
    p.add_argument("--method", default="simple",
                   choices=["simple", "stratified", "systematic"])
    p.add_argument("--models", default="discrete")
    _shared(p)
    p.set_defaults(func=_cmd_cascade)

    p = sub.add_parser("rank", help="score queries against an index")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True, help="lines of qid<TAB>text")
    p.add_argument("--model", required=True,
                   help="compact spec, e.g. YSL2-Tdc2, PLL2-Tdc+1, LMDir")
    p.add_argument("--k", type=int, help="result depth (default 1000)")
    p.add_argument("--c", type=float, help="logarithmic normalisation c")
    p.add_argument("--mu", type=float, help="LMDir smoothing mass")
    p.add_argument("--pl-xmin", type=float, default=1.0)
    p.add_argument("--tag", help="run tag")
    p.add_argument("--out", help="run file (stdout when omitted)")
    _shared(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("eval", help="score a run against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--metrics", default=",".join(evaluation.METRICS))
    p.add_argument("--per-query", action="store_true")
    p.add_argument("--baseline-run", help="paired t-test against this run")
    p.add_argument("--out")
    _shared(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("tune", help="cross-validated grid tuning")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--param", default="c", choices=["c", "mu"])
    p.add_argument("--grid", required=True, help="comma-separated values")
    p.add_argument("--folds", type=int, default=3)
    p.add_argument("--objective", default="map")
    p.add_argument("--k", type=int)
    _shared(p)
    p.set_defaults(func=_cmd_tune)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        config = _resolve_config(args)
        return args.func(args, config)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except AdrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
