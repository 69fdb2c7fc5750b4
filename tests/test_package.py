"""The package's public names: each is listed once, in its module's
``__all__``, and ``from adrank import X`` resolves it from there."""

import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import adrank

MODULES = ("corpus", "distributions", "empirics", "evaluation",
           "numerics", "ranking", "selection", "weighting")

# the names the package exposed when its __init__ imported every module
EXPOSED = {
    "corpus": "InvertedIndex QueryRecord build_index extract_distribution load_index "
              "read_counts_file save_index tokenize",
    "distributions": "FitOptions FittedModel ModelId Sample cdf log_density log_likelihood "
                     "mle_fit nested_pairs random_sample",
    "empirics": "HistogramSeries OlsFit eccdf log_binned_histogram loglog_exponent_estimate "
                "ols_fit raw_histogram subsample",
    "evaluation": "MetricReport Qrels average_precision bpref cv_tune err_at_k evaluate_run "
                  "ndcg paired_t_test parse_qrels parse_run",
    "numerics": "OptimizationProblem OptimizationResult RandomSource hurwitz_zeta log_gamma "
                "nelder_mead_minimize regularized_incomplete_beta "
                "regularized_incomplete_gamma_lower std_normal_cdf",
    "ranking": "ParamScheme RankedList RankingConfig format_trec_run inf1 inf2_risk "
               "model_parameter normalized_tf parse_model_spec rank",
    "selection": "ComparisonCell VuongTable ad_statistic aicc build_vuong_table ks_statistic "
                 "nested_lr_test select_best vuong_nonnested_test",
    "weighting": "ClassifierRule Condition TermWeights classify_terms mixture2_pmf parse_rule "
                 "rel_df term_weights z_measure",
}


def test_every_listed_name_exists_in_its_module():
    for module in MODULES:
        mod = importlib.import_module(f"adrank.{module}")
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == [], module


def test_no_name_is_listed_by_two_modules():
    listed = Counter(
        name for module in MODULES for name in importlib.import_module(f"adrank.{module}").__all__
    )
    assert [name for name, times in listed.items() if times > 1] == []


@pytest.mark.parametrize("module", sorted(EXPOSED))
def test_package_names_are_the_modules_objects(module):
    mod = importlib.import_module(f"adrank.{module}")
    for name in EXPOSED[module].split():
        assert name in mod.__all__
        scope = {}
        exec(f"from adrank import {name}", scope)
        assert scope[name] is getattr(mod, name) is getattr(adrank, name)


def test_version_and_unknown_names():
    assert adrank.__version__ == "0.1.0"
    for name in ("no_such_name", "_private", "__wrapped__"):
        with pytest.raises(AttributeError):
            getattr(adrank, name)
    with pytest.raises(ImportError):
        exec("from adrank import no_such_name", {})


def test_a_submodule_import_loads_only_what_it_imports():
    # ``from adrank import corpus`` asks the package for ``corpus`` before
    # importing it; the lookup must not load the other modules first
    probe = ("import sys\nfrom adrank import corpus\n"
             "print(*sorted(m for m in sys.modules if m.startswith('adrank')))")
    src = str(Path(adrank.__file__).resolve().parents[1])
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.split() == ["adrank", "adrank.corpus", "adrank.errors"]
