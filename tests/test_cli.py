"""Subcommand behaviour, exit codes, config handling and determinism."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import adrank
from adrank.cli import main
from adrank.distributions import ModelId, random_sample
from adrank.numerics import RandomSource


@pytest.fixture
def yule_counts(tmp_path):
    samp = random_sample(ModelId.YULE_SIMON, {"p": 1.5}, 3000, RandomSource(1))
    path = tmp_path / "counts.txt"
    path.write_text("\n".join(str(int(v)) for v in samp.values) + "\n")
    return path


@pytest.fixture
def small_corpus(tmp_path):
    lines = [
        "d1\tapple banana apple cherry",
        "d2\tbanana cherry cherry dates",
        "d3\tapple apple apple dates eel",
        "d4\tfig grape grape",
    ]
    path = tmp_path / "corpus.tsv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def small_index(tmp_path, small_corpus):
    out = tmp_path / "small.idx"
    assert main(["ingest", "--corpus", str(small_corpus), "--out", str(out)]) == 0
    return out


class TestFit:
    def test_counts_file_names_yule(self, tmp_path, yule_counts, capsys):
        out = tmp_path / "table.tsv"
        code = main(
            ["fit", "--input", str(yule_counts), "--models", "discrete",
             "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "best discrete: yule_simon" in stdout
        assert out.read_text().splitlines()[-1].startswith("AICc")

    def test_poisson_on_non_integer_is_support_error(self, tmp_path):
        path = tmp_path / "real.txt"
        path.write_text("1.5\n2.5\n3.5\n4.5\n")
        assert main(["fit", "--input", str(path), "--models", "poisson"]) == 2

    def test_empty_file_no_partial_output(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        out = tmp_path / "table.tsv"
        assert main(["fit", "--input", str(empty), "--out", str(out)]) == 2
        assert not out.exists()

    def test_records_output(self, tmp_path, yule_counts):
        rec = tmp_path / "records.txt"
        main(["fit", "--input", str(yule_counts), "--models", "discrete",
              "--records", str(rec), "--out", str(tmp_path / "t.tsv")])
        text = rec.read_text()
        assert "fit model=yule_simon" in text
        assert "selected overall=" in text


    @pytest.fixture
    def huge_values(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("1e200\n2e200\n3.5e200\n")
        return path

    def test_overflowing_fit_is_a_numerical_failure(self, huge_values, capsys):
        capsys.readouterr()
        assert main(["fit", "--input", str(huge_values), "--models", "inverse_gaussian"]) == 3
        err = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("#")]
        assert len(err) == 1 and err[0].startswith("numerical failure: ")
        assert "inverse_gaussian fit overflowed" in err[0]

    def test_overflowing_models_are_recorded_as_failures(self, tmp_path, huge_values, capsys):
        rec = tmp_path / "huge.rec"
        code = main(["fit", "--input", str(huge_values), "--models", "all",
                     "--records", str(rec), "--out", str(tmp_path / "huge.tsv")])
        assert code == 0
        assert all(line.startswith("#") for line in capsys.readouterr().err.splitlines())
        failures = [line for line in rec.read_text().splitlines() if line.startswith("failure")]
        for model in ("gamma", "inverse_gaussian"):
            assert any(f"model={model} reason=" in line and "overflowed" in line for line in failures)

    def test_constant_sample_fails_the_unbounded_models_without_warnings(self, tmp_path, capsys):
        for text in ("2\n2\n2\n2\n", "1\n1\n1\n1\n1\n"):
            data, rec = tmp_path / "const.txt", tmp_path / "const.rec"
            data.write_text(text)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["fit", "--input", str(data), "--models", "all",
                             "--records", str(rec), "--out", str(tmp_path / "const.tsv")])
            assert code == 0 and caught == []
            assert all(line.startswith("#") for line in capsys.readouterr().err.splitlines())
            lines = rec.read_text().splitlines()
            for model in ("gamma", "gev", "generalized_pareto", "logistic", "nakagami", "weibull"):
                assert f"failure model={model} reason='{model} needs at least two distinct values'" in lines
            # a variance of 0 is below the mean: the likelihood rises as r grows
            assert ("failure model=negative_binomial reason="
                    "'negative binomial needs a sample variance above its mean'") in lines
            # a mean of 1: the likelihood rises as p grows
            ones = text.startswith("1")
            assert ("failure model=yule_simon reason='yule-simon needs a sample mean above 1'" in lines) is ones

    def test_records_do_not_depend_on_blas_threads(self, tmp_path):
        # more distinct values than OpenBLAS's threading threshold for a dot
        x = np.random.default_rng(5).normal(100.0, 15.0, 20_000)
        data = tmp_path / "reals.txt"
        data.write_text("".join(f"{v!r}\n" for v in x.tolist()))
        src = str(Path(adrank.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            tsv, rec = tmp_path / f"t{threads}.tsv", tmp_path / f"t{threads}.rec"
            subprocess.run(
                [sys.executable, "-m", "adrank.cli", "fit", "--input", str(data),
                 "--models", "all", "--out", str(tsv), "--records", str(rec)],
                env=env, check=True, capture_output=True,
            )
            outputs.append((tsv.read_bytes(), rec.read_bytes()))
        assert outputs[0] == outputs[1]


class TestPlotdata:
    def test_gm2_hand_rows(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("1\n1\n2\n")
        assert main(["plotdata", "--input", str(path), "--method", "gm2"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "1\t1"
        assert rows[1].startswith("2\t0.333333")

    def test_gm3_base2_edges(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("1\n1\n2\n3\n")
        assert main(["plotdata", "--input", str(path), "--method", "gm3",
                     "--base", "2"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "1\t0.5"  # bin [1,1]
        assert rows[1].startswith("2.449489")  # geometric middle of [2,3]

    def test_gm1_on_continuous_data_rejected(self, tmp_path):
        path = tmp_path / "real.txt"
        path.write_text("1.5\n2.5\n")
        assert main(["plotdata", "--input", str(path), "--method", "gm1"]) == 2

    def test_fitline_and_headers(self, tmp_path, capsys):
        samp = random_sample(ModelId.POWERLAW, {"alpha": 2.5, "xmin": 1.0}, 5000, RandomSource(2))
        path = tmp_path / "pl.txt"
        path.write_text("\n".join(str(int(v)) for v in samp.values) + "\n")
        assert main(["plotdata", "--input", str(path), "--method", "gm2",
                     "--fitline", "--gnuplot-ready"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# kind=eccdf")
        assert "# loglog_exponent_estimate=" in out


class TestCorpusCommands:
    def test_ingest_and_stats(self, small_index, capsys):
        assert main(["stats", "--index", str(small_index)]) == 0
        out = capsys.readouterr().out
        assert "N=4" in out and "vocab_size=7" in out

    def test_stats_property_dump(self, small_index, tmp_path, capsys):
        out = tmp_path / "tf.txt"
        main(["stats", "--index", str(small_index), "--property", "term_frequency",
              "--out", str(out)])
        vals = sorted(int(line) for line in out.read_text().splitlines())
        assert sum(vals) == 16  # total term occurrences

    def test_classify_writes_lists(self, small_index, tmp_path):
        inf, noninf = tmp_path / "inf.txt", tmp_path / "noninf.txt"
        assert main(["classify", "--index", str(small_index), "--rule", "all",
                     "--out-informative", str(inf),
                     "--out-non-informative", str(noninf)]) == 0
        assert inf.read_text() == ""
        assert len(noninf.read_text().splitlines()) == 7

    def test_missing_index_is_data_error(self, tmp_path):
        assert main(["stats", "--index", str(tmp_path / "nope.idx")]) == 2


class TestCascade:
    def test_zero_fraction_rejected(self, small_index):
        assert main(["cascade", "--index", str(small_index), "--fraction", "0"]) == 1

    def test_selects_discrete_model(self, tmp_path, capsys):
        # corpus whose term frequencies are an exact materialized yule draw
        samp = random_sample(ModelId.YULE_SIMON, {"p": 1.5}, 4000, RandomSource(3))
        counts = samp.values.astype(int)
        terms = np.repeat([f"t{i:05d}" for i in range(4000)], counts)
        gen = np.random.Generator(np.random.PCG64(4))
        gen.shuffle(terms)
        docs = np.array_split(terms, 400)
        lines = [f"d{i:04d}\t" + " ".join(d) for i, d in enumerate(docs) if len(d)]
        corpus = tmp_path / "yule.tsv"
        corpus.write_text("\n".join(lines) + "\n")
        idx = tmp_path / "yule.idx"
        main(["ingest", "--corpus", str(corpus), "--out", str(idx)])
        capsys.readouterr()
        assert main(["cascade", "--index", str(idx), "--fraction", "0.5",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "chosen_model=yule_simon" in out
        assert "rank_spec=YSL2-Tdc2" in out


class TestRankEval:
    def _write_queries(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\tapple\n")
        return path

    def test_rank_writes_trec_run(self, small_index, tmp_path):
        run = tmp_path / "run.txt"
        queries = self._write_queries(tmp_path)
        assert main(["rank", "--index", str(small_index), "--queries", str(queries),
                     "--model", "InL2-Tdc", "--out", str(run)]) == 0
        lines = run.read_text().strip().splitlines()
        assert all(len(line.split()) == 6 for line in lines)
        assert lines[0].split()[3] == "1"

    def test_bad_model_spec_is_usage_error(self, small_index, tmp_path):
        queries = self._write_queries(tmp_path)
        assert main(["rank", "--index", str(small_index), "--queries", str(queries),
                     "--model", "WAT-Tdc"]) == 1

    def test_eval_perfect_run(self, small_index, tmp_path, capsys):
        run, queries = tmp_path / "run.txt", self._write_queries(tmp_path)
        main(["rank", "--index", str(small_index), "--queries", str(queries),
              "--model", "InL2-Tdc", "--out", str(run)])
        ranked = [line.split()[2] for line in run.read_text().splitlines()]
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("".join(f"q1 0 {d} 1\n" for d in ranked))
        capsys.readouterr()
        assert main(["eval", "--run", str(run), "--qrels", str(qrels)]) == 0
        out = capsys.readouterr().out
        assert "map\t1.000000" in out and "ndcg\t1.000000" in out

    def test_eval_against_itself_degenerate_ttest(self, small_index, tmp_path, capsys):
        run = tmp_path / "run.txt"
        queries = tmp_path / "q2.tsv"
        queries.write_text("q1\tapple\nq2\tbanana\n")
        main(["rank", "--index", str(small_index), "--queries", str(queries),
              "--model", "InL2-Tdc", "--out", str(run)])
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 1\nq1 0 d2 1\nq1 0 d3 0\nq2 0 d2 1\n")
        capsys.readouterr()
        assert main(["eval", "--run", str(run), "--qrels", str(qrels),
                     "--metrics", "map", "--baseline-run", str(run)]) == 0
        assert "degenerate" in capsys.readouterr().out


class TestTune:
    def test_tune_smoke(self, small_index, tmp_path, capsys):
        queries = tmp_path / "q.tsv"
        queries.write_text("q1\tapple\nq2\tbanana\nq3\tcherry\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d3 1\nq2 0 d2 1\nq3 0 d2 1\n")
        assert main(["tune", "--index", str(small_index), "--queries", str(queries),
                     "--qrels", str(qrels), "--model", "YSL2-Tdc",
                     "--grid", "0.5,1,2", "--folds", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("fold=") == 3
        assert "mean_over_folds" in out


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path, yule_counts):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsuch=1\n")
        assert main(["--config", str(cfg), "fit", "--input", str(yule_counts)]) == 1

    def test_file_sets_and_flag_overrides(self, tmp_path, small_index, capsys, monkeypatch):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("seed=7\nk=5\n")
        queries = tmp_path / "q.tsv"
        queries.write_text("q1\tapple\n")
        main(["--config", str(cfg), "rank", "--index", str(small_index),
              "--queries", str(queries), "--model", "InL2-Tdc", "--k", "1"])
        err = capsys.readouterr().err
        assert "# seed=7" in err
        assert "# k=1" in err  # the flag wins over the file

    def test_env_var_default_path(self, tmp_path, yule_counts, capsys, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("significance=0.01\n")
        monkeypatch.setenv("ADRANK_CONFIG", str(cfg))
        main(["fit", "--input", str(yule_counts), "--models", "poisson,geometric"])
        assert "# significance=0.01" in capsys.readouterr().err

    def test_resolved_config_logged(self, yule_counts, capsys):
        main(["fit", "--input", str(yule_counts), "--models", "poisson,geometric"])
        err = capsys.readouterr().err
        for key in ("seed", "significance", "c", "mu", "k", "tag"):
            assert f"# {key}=" in err


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path, small_corpus):
        outs = []
        for name in ("one", "two"):
            idx = tmp_path / f"{name}.idx"
            run = tmp_path / f"{name}.run"
            queries = tmp_path / "q.tsv"
            queries.write_text("q1\tapple banana\n")
            main(["ingest", "--corpus", str(small_corpus), "--out", str(idx)])
            main(["--seed", "42", "rank", "--index", str(idx), "--queries",
                  str(queries), "--model", "YSL2-Tdc2", "--out", str(run)])
            outs.append((idx.read_bytes(), run.read_bytes()))
        assert outs[0] == outs[1]


class TestWeightDumpAndListImport:
    def test_classify_weight_dump(self, small_index, tmp_path):
        weights = tmp_path / "weights.tsv"
        assert main(["classify", "--index", str(small_index), "--rule", "all",
                     "--out-informative", str(tmp_path / "i.txt"),
                     "--out-non-informative", str(tmp_path / "n.txt"),
                     "--weights-out", str(weights)]) == 0
        lines = weights.read_text().splitlines()
        assert lines[0] == "term\tidf\tgain\tx_i\tburstiness\tridf\tf_tc\tn_t"
        assert len(lines) == 8  # header + 7 vocabulary terms

    def test_cascade_imports_term_list(self, small_index, tmp_path, capsys):
        listed = tmp_path / "terms.txt"
        listed.write_text("apple\nbanana\ncherry\ndates\neel\nfig\ngrape\n")
        capsys.readouterr()
        assert main(["cascade", "--index", str(small_index), "--fraction", "1.0",
                     "--non-informative-list", str(listed),
                     "--models", "poisson,geometric"]) == 0
        assert "chosen_model=" in capsys.readouterr().out


class TestExitContract:
    @pytest.mark.parametrize(
        "case, code",
        [
            ("non_utf8_counts", 2),
            ("non_utf8_queries", 2),
            ("directory_as_input", 2),
            ("non_numeric_fixed_value", 1),
        ],
    )
    def test_one_line_error_instead_of_traceback(
        self, case, code, small_index, tmp_path, capsys
    ):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"q1\tcaf\xe9\n")
        queries = tmp_path / "q.tsv"
        queries.write_text("q1\tapple\n")
        rank = ["rank", "--index", str(small_index), "--queries"]
        argv = {
            "non_utf8_counts": ["fit", "--input", str(bad)],
            "non_utf8_queries": rank + [str(bad), "--model", "InL2-Tdc"],
            "directory_as_input": ["fit", "--input", str(tmp_path)],
            "non_numeric_fixed_value": rank + [str(queries), "--model", "P-fixed:abc"],
        }[case]
        capsys.readouterr()
        assert main(argv) == code
        err = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("#")]
        assert len(err) == 1 and err[0].startswith(("error: ", "data error: "))
