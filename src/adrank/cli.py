"""Command-line entry point wiring the library into complete workflows.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numerical failure. All randomness funnels through ``cascade --seed``
(default 42), so re-running any subcommand with the same inputs and seed
reproduces byte-identical outputs. Each command imports the library
modules it runs when it runs, so it loads no others.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import AdrankError, ConfigError, FormatError, UsageError

CONFIG_ENV_VAR = "ADRANK_CONFIG"


class _Setting(NamedTuple):
    type: type
    default: object
    help: str
    ok: Callable | None = None  # false for a bad value, NaN included
    needs: str = ""  # what the check's error message says the value must be


# every setting a command can read; each subparser declares the ones it reads
_SETTINGS = {
    "seed": _Setting(int, 42, "random seed", lambda v: v >= 0, "must be >= 0"),
    "significance": _Setting(float, 0.05, "test level", lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "c": _Setting(float, 1.0, "logarithmic normalisation c"),
    "mu": _Setting(float, 1000.0, "LMDir smoothing mass"),
    "k": _Setting(int, 1000, "result depth", lambda v: v >= 1, "must be >= 1"),
    "tag": _Setting(str, "adrank", "run tag"),
}

_PROPERTIES = ["term_frequency", "document_length"]


def _load_config_file(path: str) -> dict:
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _SETTINGS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        try:
            values[key] = _SETTINGS[key].type(raw)
        except ValueError:
            raise ConfigError(f"config line {lineno}: bad value for {key}") from None
    return values


def _resolve_config(args) -> dict:
    """The settings the command declares: its flag, else the config file,
    else the default. Each is checked, then echoed on stderr."""
    config = {key: _SETTINGS[key].default for key in sorted(args.settings)}
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    if config and path:  # a command that reads no setting reads no config file
        config.update((k, v) for k, v in _load_config_file(path).items() if k in config)
    for key in config:
        flag = getattr(args, key)
        if flag is not None:
            config[key] = flag
        setting = _SETTINGS[key]
        if setting.ok and not setting.ok(config[key]):
            raise ConfigError(f"{key} {setting.needs}, got {config[key]}")
    for key in config:
        print(f"# {key}={config[key]}", file=sys.stderr)
    return config


def _parse_models(spec: str) -> list:
    from .distributions import ModelId, is_discrete_model

    if spec == "all":
        return list(ModelId)
    if spec == "discrete":
        return [m for m in ModelId if is_discrete_model(m)]
    out = []
    for name in spec.split(","):
        name = name.strip()
        try:
            out.append(ModelId(name))
        except ValueError:
            raise UsageError(f"unknown model {name!r}") from None
        if out[-1] in out[:-1]:
            raise UsageError(f"model {name!r} repeated")
    if not out:
        raise UsageError("empty model list")
    return out


def _load_sample(args):
    from . import corpus

    if args.input:
        return corpus.read_counts_file(args.input)
    if args.index and args.property:
        index = corpus.load_index(args.index)
        return corpus.extract_distribution(index, args.property)
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
    from . import selection

    models = _parse_models(args.models)
    sample = _load_sample(args)
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
    from . import empirics

    if args.method == "gm3":
        empirics.check_base(args.base)
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
    from . import corpus

    src = Path(args.corpus)
    if src.is_dir():
        docs = corpus.iter_documents_from_dir(src)
    else:
        docs = corpus.iter_documents_from_tsv(src)
    index = corpus.build_index(docs)
    corpus.save_index(index, args.out)
    s = index.stats
    print(f"indexed N={s.N} total_terms={s.total_terms} vocab={s.vocab_size}")
    return 0


def _cmd_stats(args, config):
    from . import corpus

    index = corpus.load_index(args.index)
    s = index.stats
    print(f"N={s.N}")
    print(f"total_terms={s.total_terms}")
    print(f"avg_l={s.avg_l:.6f}")
    print(f"vocab_size={s.vocab_size}")
    if args.property:
        sample = corpus.extract_distribution(index, args.property)
        text = "".join(f"{int(v)}\n" * int(c) for v, c in zip(sample.support, sample.counts))
        _write(args.out, text)
    return 0


def _cmd_classify(args, config):
    from . import corpus, weighting

    rule = weighting.parse_rule(args.rule, target=args.target)
    index = corpus.load_index(args.index)
    informative, non_informative = weighting.classify_terms(index, rule)
    lists = ((args.out_informative, informative), (args.out_non_informative, non_informative))
    for path, terms in lists:
        Path(path).write_text("".join(t + "\n" for t in sorted(terms)))
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
    from . import corpus, empirics, selection, weighting
    from .distributions import ModelId, Sample
    from .numerics import RandomSource

    if not 0.0 < args.fraction <= 1.0:
        raise UsageError("--fraction must lie in (0, 1]")
    models = _parse_models(args.models)
    # an imported list replaces the rule, which is then neither parsed nor used
    rule = None if args.non_informative_list else weighting.parse_rule(args.rule, target=args.target)
    index = corpus.load_index(args.index)
    if rule is None:
        # imported classification: one term per line, unknown terms skipped
        listed = set(Path(args.non_informative_list).read_text().split())
        labelled = np.fromiter(map(listed.__contains__, index.terms), bool, index.stats.vocab_size)
    else:
        labelled = weighting.non_informative_mask(index, rule)
    if not labelled.any():
        raise UsageError("no terms were labelled non-informative")
    freqs = np.sort(index.f_tc[labelled])
    del index, labelled  # before numpy.random is first imported, which reuses their memory
    rng = RandomSource(config["seed"])
    sub = empirics.subsample(freqs, args.method, args.fraction, rng)
    sample = Sample.of(sub, True)
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


def _read_queries(path: str) -> list:
    from . import corpus

    queries = []
    seen = set()
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
        qid = qid.strip()
        if qid.split() != [qid]:  # a run file separates its fields by whitespace
            raise FormatError(
                f"queries line {lineno}: query id {qid!r} is empty or contains whitespace"
            )
        if qid in seen:  # a run file holds one ranked list per query id
            raise FormatError(f"queries line {lineno}: query id {qid!r} repeated")
        seen.add(qid)
        terms = corpus.tokenize(text)
        if not terms:
            raise FormatError(f"queries line {lineno}: query {qid!r} is empty after tokenization")
        queries.append(corpus.QueryRecord(qid, terms, text))
    if not queries:
        raise FormatError("no queries found")
    return queries


def _cmd_rank(args, config):
    from . import corpus, ranking

    cfg = ranking.parse_model_spec(
        args.model, c=config["c"], mu=config["mu"], pl_xmin=args.pl_xmin
    )
    index = corpus.load_index(args.index)
    queries = _read_queries(args.queries)
    runs = []  # each query's lines: its ranked list and decoded ids go once formatted
    for q in queries:
        rl = ranking.rank(q, index, cfg, k=config["k"])
        if rl.skipped_terms:
            print(f"# warning: query {rl.query_id}: terms not in the index skipped: "
                  f"{rl.skipped_terms}", file=sys.stderr)
        runs.append(ranking.format_trec_run([rl], tag=config["tag"]))
    _write(args.out, "".join(runs))
    return 0


def _cmd_eval(args, config):
    from . import evaluation

    if args.metrics is None:
        metrics = evaluation.METRICS
    else:
        metrics = tuple(m.strip() for m in args.metrics.split(","))
        for i, m in enumerate(metrics):
            if m in metrics[:i]:
                raise UsageError(f"metric {m!r} repeated")
        evaluation.check_metrics(metrics)  # before any file is read
    run = evaluation.parse_run(Path(args.run).read_text())
    qrels = evaluation.parse_qrels(Path(args.qrels).read_text())
    report = evaluation.evaluate_run(run, qrels, metrics)
    del run  # only the per-query values are compared with the baseline
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
    from . import corpus, evaluation, ranking

    try:
        grid = [float(v) for v in args.grid.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"--grid takes comma-separated numbers, not {args.grid!r}") from None
    evaluation.check_tuning(grid, args.folds, args.objective)

    def factory(value):
        cfg = ranking.parse_model_spec(args.model, **{args.param: value})
        if args.param == "c" and cfg.second_norm != "logarithmic":
            raise ConfigError(f"{args.model} does not read c: only logarithmic normalisation does")
        if args.param == "mu" and cfg.randomness != "LMDir":
            raise ConfigError(f"{args.model} does not read mu: only LMDir does")
        return cfg

    configs = {value: factory(value) for value in grid}  # before any file is read
    index = corpus.load_index(args.index)
    queries = _read_queries(args.queries)
    qrels = evaluation.parse_qrels(Path(args.qrels).read_text())
    folds, test_mean = evaluation.cv_tune(
        queries,
        qrels,
        index,
        configs.__getitem__,
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
    sub = parser.add_subparsers(dest="command", required=True)

    def _command(name, func, settings=(), **kw):
        p = sub.add_parser(name, **kw)
        # accepted after the subcommand as well; SUPPRESS keeps a value
        # given before the subcommand from being overwritten by a default
        p.add_argument("--config", default=argparse.SUPPRESS)
        for key in settings:  # the settings that func reads from its config
            setting = _SETTINGS[key]
            p.add_argument(f"--{key}", type=setting.type,
                           help=f"{setting.help} (default {setting.default})")
        p.set_defaults(func=func, settings=settings)
        return p

    def _sample_source(p):  # what _load_sample reads
        p.add_argument("--input", help="counts file, one nonnegative integer per line")
        p.add_argument("--index", help="saved index file")
        p.add_argument("--property", choices=_PROPERTIES)

    def _rule(p):
        p.add_argument("--rule", default="all", help="e.g. 'ridf < 0.5 and burstiness < 3'")
        p.add_argument("--target", default="non_informative",
                       choices=["non_informative", "informative"],
                       help="class assigned to matching terms")

    p = _command("fit", _cmd_fit, ["significance"],
                 help="fit models and emit the pairwise selection table")
    _sample_source(p)
    p.add_argument("--models", default="all", help="all | discrete | comma list")
    p.add_argument("--out", help="table TSV path (stdout when omitted)")
    p.add_argument("--records", help="also write line-delimited records here")

    p = _command("plotdata", _cmd_plotdata, help="emit GM1/GM2/GM3 series as two-column TSV")
    _sample_source(p)
    p.add_argument("--method", choices=["gm1", "gm2", "gm3"], required=True)
    p.add_argument("--base", type=int, default=2, help="log-binning base (gm3)")
    p.add_argument("--fitline", action="store_true", help="append the OLS exponent")
    p.add_argument("--gnuplot-ready", action="store_true", help="comment headers")
    p.add_argument("--out")

    p = _command("ingest", _cmd_ingest, help="build and save an index")
    p.add_argument("--corpus", required=True, help="directory of .txt or TSV file")
    p.add_argument("--out", required=True)

    p = _command("stats", _cmd_stats, help="dump corpus statistics and property samples")
    p.add_argument("--index", required=True)
    p.add_argument("--property", choices=_PROPERTIES)
    p.add_argument("--out")

    p = _command("classify", _cmd_classify, help="split the vocabulary by a threshold rule")
    p.add_argument("--index", required=True)
    _rule(p)
    p.add_argument("--out-informative", required=True)
    p.add_argument("--out-non-informative", required=True)
    p.add_argument("--weights-out", help="also dump a per-term weight TSV here")

    p = _command("cascade", _cmd_cascade, ["seed", "significance"],
                 help="classify, subsample non-informative frequencies, select a model")
    p.add_argument("--index", required=True)
    _rule(p)
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--non-informative-list",
                   help="skip classification and import this term list")
    p.add_argument("--method", default="simple",
                   choices=["simple", "systematic"])
    p.add_argument("--models", default="discrete")

    p = _command("rank", _cmd_rank, ["k", "c", "mu", "tag"],
                 help="score queries against an index")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True, help="lines of qid<TAB>text")
    p.add_argument("--model", required=True,
                   help="compact spec, e.g. YSL2-Tdc2, PLL2-Tdc+1, LMDir")
    p.add_argument("--pl-xmin", type=float, default=1.0)
    p.add_argument("--out", help="run file (stdout when omitted)")

    p = _command("eval", _cmd_eval, ["significance"], help="score a run against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--metrics")
    p.add_argument("--per-query", action="store_true")
    p.add_argument("--baseline-run", help="paired t-test against this run")
    p.add_argument("--out")

    p = _command("tune", _cmd_tune, ["k"], help="cross-validated grid tuning")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--param", default="c", choices=["c", "mu"])
    p.add_argument("--grid", required=True, help="comma-separated values")
    p.add_argument("--folds", type=int, default=3)
    p.add_argument("--objective", default="map")

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
    except AdrankError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, UnicodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
