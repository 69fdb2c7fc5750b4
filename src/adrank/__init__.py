"""adrank: distribution fitting, pairwise model selection and adaptive
distributional ranking for empirical count data."""

from .corpus import (
    InvertedIndex,
    QueryRecord,
    build_index,
    extract_distribution,
    load_index,
    read_counts_file,
    save_index,
    tokenize,
)
from .distributions import (
    FitOptions,
    FittedModel,
    ModelId,
    Sample,
    cdf,
    log_density,
    log_likelihood,
    mle_fit,
    nested_pairs,
    random_sample,
)
from .empirics import (
    HistogramSeries,
    OlsFit,
    eccdf,
    log_binned_histogram,
    loglog_exponent_estimate,
    ols_fit,
    raw_histogram,
    subsample,
)
from .evaluation import (
    MetricReport,
    Qrels,
    average_precision,
    bpref,
    cv_tune,
    err_at_k,
    evaluate_run,
    ndcg,
    paired_t_test,
    parse_qrels,
    parse_run,
)
from .numerics import (
    OptimizationProblem,
    OptimizationResult,
    RandomSource,
    hurwitz_zeta,
    log_gamma,
    nelder_mead_minimize,
    regularized_incomplete_beta,
    regularized_incomplete_gamma_lower,
    std_normal_cdf,
)
from .ranking import (
    ParamScheme,
    RankedList,
    RankingConfig,
    format_trec_run,
    inf1,
    inf2_risk,
    model_parameter,
    normalized_tf,
    parse_model_spec,
    rank,
)
from .selection import (
    ComparisonCell,
    VuongTable,
    ad_statistic,
    aicc,
    build_vuong_table,
    ks_statistic,
    nested_lr_test,
    select_best,
    vuong_nonnested_test,
)
from .weighting import (
    ClassifierRule,
    Condition,
    TermWeights,
    classify_terms,
    mixture2_pmf,
    parse_rule,
    rel_df,
    term_weights,
    z_measure,
)

__version__ = "0.1.0"
