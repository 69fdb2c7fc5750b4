"""Subcommand behaviour, exit codes, config handling and determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import adrank
from adrank import cli
from adrank.cli import main
from adrank.corpus import iter_documents_from_dir, iter_documents_from_tsv, save_index
from adrank.distributions import ModelId, random_variates
from adrank.errors import AdrankError
from adrank.numerics import RandomSource
from planted import build_planted_corpus
from test_reference_oracles import build_index as regex_build_index


@pytest.fixture
def yule_counts(tmp_path):
    draws = random_variates(ModelId.YULE_SIMON, {"p": 1.5}, 3000, RandomSource(1))
    path = tmp_path / "counts.txt"
    path.write_text("\n".join(str(int(v)) for v in draws) + "\n")
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

    def test_index_property_fits_the_sample_stats_dumps(self, small_index, tmp_path, capsys):
        dump = tmp_path / "tf.txt"
        assert main(["stats", "--index", str(small_index), "--property", "term_frequency",
                     "--out", str(dump)]) == 0
        outs = []
        for source in (["--index", str(small_index), "--property", "term_frequency"],
                       ["--input", str(dump)]):
            capsys.readouterr()
            assert main(["fit", *source, "--models", "poisson,geometric"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and "best discrete: " in outs[0]

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

    @pytest.mark.parametrize(
        "model, text, reason",
        [
            ("logistic", "0\n0\n4.500138108209585e-253\n", "positive sample variance"),
            ("nakagami", "1e-300\n2e-300\n3e-300\n", "squares are positive"),
            ("generalized_pareto", "0\n1e-313\n2e-313\n4e-313\n", "not finite at its start"),
        ],
        ids=["logistic", "nakagami", "generalized_pareto"],
    )
    def test_underflowing_fit_is_a_one_line_data_failure(self, tmp_path, capsys, model, text, reason):
        data, rec = tmp_path / "tiny.txt", tmp_path / "tiny.rec"
        data.write_text(text)
        capsys.readouterr()
        assert main(["fit", "--input", str(data), "--models", model]) == 2
        err = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("#")]
        assert len(err) == 1 and err[0].startswith(f"error: every candidate model failed to fit: {model}: ")
        assert reason in err[0]
        # among all the models, it is one recorded failure
        code = main(["fit", "--input", str(data), "--models", "all",
                     "--records", str(rec), "--out", str(tmp_path / "tiny.tsv")])
        assert code == 0
        assert all(line.startswith("#") for line in capsys.readouterr().err.splitlines())
        failures = [line for line in rec.read_text().splitlines() if line.startswith(f"failure model={model} ")]
        assert len(failures) == 1 and reason in failures[0]

    def test_data_failures_of_two_kinds_are_one_data_failure(self, tmp_path, capsys):
        # the Poisson's SupportError and the Gaussian's DegenerateSampleError
        # each exit 2 alone, and so they do together
        data = tmp_path / "flat.txt"
        data.write_text("1.5\n1.5\n1.5\n")
        capsys.readouterr()
        assert main(["fit", "--input", str(data), "--models", "poisson,gaussian"]) == 2
        err = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("#")]
        assert len(err) == 1 and err[0].startswith("error: every candidate model failed to fit: poisson: ")
        assert "; gaussian: " in err[0]

    def test_overflowing_models_are_recorded_as_failures(self, tmp_path, huge_values, capsys):
        rec = tmp_path / "huge.rec"
        code = main(["fit", "--input", str(huge_values), "--models", "all",
                     "--records", str(rec), "--out", str(tmp_path / "huge.tsv")])
        assert code == 0
        assert all(line.startswith("#") for line in capsys.readouterr().err.splitlines())
        failures = [line for line in rec.read_text().splitlines() if line.startswith("failure")]
        for model in ("gamma", "inverse_gaussian"):
            assert any(f"model={model} reason=" in line and "overflowed" in line for line in failures)
        # a pmf at x > 1 has a negative log-mass; the Yule-Simon one read 0
        yule = next(line for line in rec.read_text().splitlines() if "fit model=yule_simon" in line)
        assert float(yule.split("total_loglik=")[1].split()[0]) < 0.0

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
        # the Newton fits, the GP's profile sums among them, are in the records
        fitted = [line.split()[1] for line in outputs[0][1].decode().splitlines() if line.startswith("fit ")]
        for model in ("gamma", "gev", "generalized_pareto", "logistic", "nakagami", "weibull"):
            assert f"model={model}" in fitted


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
        params = {"alpha": 2.5, "xmin": 1.0}
        draws = random_variates(ModelId.POWERLAW, params, 5000, RandomSource(2))
        path = tmp_path / "pl.txt"
        path.write_text("\n".join(str(int(v)) for v in draws) + "\n")
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

    @pytest.mark.parametrize("layout", ["directory", "tsv"])
    def test_ingest_writes_the_regex_tokenizers_index(self, tmp_path, layout):
        words = ["Caf\xe9", "na\xefve", "Stra\xdfe", "\u6771\u4eac", "\u0130stanbul",
                 "\u212aelvin", "\u1e9e", "e\u0301t\xe9", "x9", "The", "it's", "A-1"]
        seps = [" ", ", ", "\xa0", "\x85", "\u2003", "_", "\ufffd"]
        gen = np.random.default_rng(17)
        texts = ["".join(w + seps[s] for w, s in zip(gen.choice(words, n), gen.integers(0, 7, n)))
                 for n in gen.integers(0, 40, 300)]  # fmt: skip
        src = tmp_path / "corpus"
        if layout == "directory":
            src.mkdir()
            for i, text in enumerate(texts[:30]):
                (src / f"d{i:02d}\xe9.txt").write_text(text, encoding="utf-8")
            (src / "latin1.txt").write_bytes("caf\xe9 na\xefve 42".encode("latin-1"))
            docs = iter_documents_from_dir(src)
        else:
            src.write_text("".join(f"d{i:03d}\t{t}\n" for i, t in enumerate(texts)), encoding="utf-8")
            docs = iter_documents_from_tsv(src)
        save_index(regex_build_index(docs), tmp_path / "ref.idx")
        assert main(["ingest", "--corpus", str(src), "--out", str(tmp_path / "new.idx")]) == 0
        assert (tmp_path / "new.idx").read_bytes() == (tmp_path / "ref.idx").read_bytes()

    def test_ingest_names_an_id_it_cannot_store(self, tmp_path, capsys):
        # a file name that is not UTF-8 decodes to a stem with a lone surrogate
        src = tmp_path / "corpus"
        src.mkdir()
        (src / "ok.txt").write_text("apple")
        (src / os.fsdecode(b"\xffdoc.txt")).write_text("banana")
        capsys.readouterr()
        assert main(["ingest", "--corpus", str(src), "--out", str(tmp_path / "x.idx")]) == 2
        err = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("#")]
        assert err == ["data error: document id '\\udcffdoc' cannot be encoded as UTF-8"]
        assert not (tmp_path / "x.idx").exists()


class TestCascade:
    def test_zero_fraction_rejected(self, small_index):
        assert main(["cascade", "--index", str(small_index), "--fraction", "0"]) == 1

    def test_stratified_is_not_a_method_choice(self, small_index, capsys):
        # the command has no way to give strata bounds, which stratified needs
        capsys.readouterr()
        assert main(["cascade", "--index", str(small_index), "--fraction", "0.5",
                     "--method", "stratified"]) == 1
        assert "invalid choice: 'stratified'" in capsys.readouterr().err

    def test_selects_discrete_model(self, tmp_path, capsys):
        # corpus whose term frequencies are an exact materialized yule draw
        counts = random_variates(ModelId.YULE_SIMON, {"p": 1.5}, 4000, RandomSource(3)).astype(int)
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

    def test_query_of_unindexed_terms_gives_an_empty_run(self, tmp_path, capsys):
        corpus, idx = tmp_path / "c.tsv", tmp_path / "c.idx"
        corpus.write_text("d1\tapple\n")
        assert main(["ingest", "--corpus", str(corpus), "--out", str(idx)]) == 0
        queries, run, qrels = tmp_path / "q.tsv", tmp_path / "run.txt", tmp_path / "qrels.txt"
        queries.write_text("q1\tzebra\n")
        capsys.readouterr()
        assert main(["rank", "--index", str(idx), "--queries", str(queries),
                     "--model", "InL2-Tdc", "--out", str(run)]) == 0
        assert run.read_bytes() == b""
        err = capsys.readouterr().err.splitlines()
        assert "# warning: query q1: terms not in the index skipped: ['zebra']" in err
        qrels.write_text("q1 0 d1 1\n")
        assert main(["eval", "--run", str(run), "--qrels", str(qrels)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == "data error: empty run"

    def test_query_empty_after_tokenization_is_a_data_error(self, small_index, tmp_path, capsys):
        # it used to be a usage error (exit 1) that named no line
        queries = tmp_path / "q.tsv"
        queries.write_text("q0\tapple\n\nq1\t--- !!\n")
        capsys.readouterr()
        assert main(["rank", "--index", str(small_index), "--queries", str(queries),
                     "--model", "InL2-Tdc"]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "data error: queries line 3: query 'q1' is empty after tokenization"
        )

    def test_space_separated_queries_line(self, small_index, tmp_path, capsys):
        runs = []
        for line in ("q1\tapple cherry\n", "q1   apple cherry\n"):
            queries = tmp_path / "q.txt"
            queries.write_text(line)
            capsys.readouterr()
            assert main(["rank", "--index", str(small_index), "--queries", str(queries),
                         "--model", "InL2-Tdc"]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1] and runs[0].startswith("q1 Q0 ")

    @pytest.mark.parametrize("text, message", [
        ("q0\tapple\nq1 \n", "queries line 2: expected qid and text"),
        ("\n  \n", "no queries found"),
    ])
    def test_malformed_queries_file_is_a_data_error(
        self, text, message, small_index, tmp_path, capsys
    ):
        queries = tmp_path / "q.txt"
        queries.write_text(text)
        capsys.readouterr()
        assert main(["rank", "--index", str(small_index), "--queries", str(queries),
                     "--model", "InL2-Tdc"]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"data error: {message}"

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

    def test_eval_holds_one_run_at_a_time(self, small_index, tmp_path, monkeypatch):
        # the baseline run is parsed only once the first run's lists are gone
        from adrank import evaluation

        queries = tmp_path / "q2.tsv"
        queries.write_text("q1\tapple\nq2\tbanana\n")
        runs = {model: tmp_path / f"{model}.run" for model in ("InL2-Tdc", "PL2-Tdc")}
        for model, run in runs.items():
            assert main(["rank", "--index", str(small_index), "--queries", str(queries),
                         "--model", model, "--out", str(run)]) == 0
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 1\nq1 0 d3 0\nq2 0 d2 1\n")
        parse, first, alive = evaluation.parse_run, [], []

        def spy(text):
            alive.append(sum(ref() is not None for ref in first))
            lists = parse(text)
            if not first:
                first.extend(weakref.ref(rl) for rl in lists)
            return lists

        monkeypatch.setattr(evaluation, "parse_run", spy)
        assert main(["eval", "--run", str(runs["PL2-Tdc"]), "--qrels", str(qrels),
                     "--baseline-run", str(runs["InL2-Tdc"])]) == 0
        assert len(first) == 2 and alive == [0, 0]


class TestEvalDataErrors:
    def _eval(self, tmp_path, capsys, run_text, qrels_text):
        run, qrels = tmp_path / "run.txt", tmp_path / "qrels.txt"
        run.write_text(run_text)
        qrels.write_text(qrels_text)
        capsys.readouterr()
        code = main(["eval", "--run", str(run), "--qrels", str(qrels)])
        captured = capsys.readouterr()
        err = [line for line in captured.err.splitlines() if not line.startswith("#")]
        return code, captured.out, err

    def test_document_listed_twice_is_a_data_error(self, tmp_path, capsys):
        # accepted, this run scored map 2.000000, bpref 2.000000, ndcg 1.630930
        code, out, err = self._eval(
            tmp_path, capsys,
            "q1 Q0 a 1 3.0 t\nq1 Q0 a 2 2.0 t\nq1 Q0 b 3 1.0 t\n",
            "q1 0 a 1\nq1 0 b 0\n",
        )  # fmt: skip
        assert code == 2 and out == ""
        assert err == ["data error: run line 2: document 'a' listed twice for query 'q1'"]

    def test_negative_grade_is_a_data_error(self, tmp_path, capsys):
        code, out, err = self._eval(
            tmp_path, capsys, "q1 Q0 a 1 3.0 t\n", "q1 0 a 1\nq1 0 b -1\n"
        )
        assert code == 2 and out == ""
        assert err == ["data error: qrels line 2: grade '-1' outside 0..1023"]

    def test_grade_without_finite_gain_is_a_data_error(self, tmp_path, capsys):
        code, _, err = self._eval(tmp_path, capsys, "q1 Q0 a 1 3.0 t\n", "q1 0 a 1024\n")
        assert code == 2
        assert err == ["data error: qrels line 1: grade '1024' outside 0..1023"]


class TestRepeatedQueryId:
    @pytest.mark.parametrize("command", ["rank", "tune"])
    def test_repeated_query_id_is_a_data_error(self, command, small_index, tmp_path, capsys):
        # rank used to write q1's list twice, and tune to keep only the last
        queries, qrels, out = tmp_path / "q.tsv", tmp_path / "qrels.txt", tmp_path / "out"
        queries.write_text("q1\tapple banana\nq2\tcherry\nq1\tdates\n")
        qrels.write_text("q1 0 d1 1\nq2 0 d2 1\n")
        argv = {
            "rank": ["rank", "--index", str(small_index), "--queries", str(queries),
                     "--model", "InL2-Tdc", "--out", str(out)],
            "tune": ["tune", "--index", str(small_index), "--queries", str(queries),
                     "--qrels", str(qrels), "--model", "InL2-Tdc", "--grid", "1,2",
                     "--folds", "2"],
        }[command]  # fmt: skip
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = [line for line in captured.err.splitlines() if not line.startswith("#")]
        assert err == ["data error: queries line 3: query id 'q1' repeated"]
        assert captured.out == "" and not out.exists()


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

    def test_tune_mu_of_lmdir(self, small_index, tmp_path, capsys):
        queries = tmp_path / "q.tsv"
        queries.write_text("q1\tapple\nq2\tbanana\nq3\tcherry\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d3 1\nq2 0 d2 1\nq3 0 d2 1\n")
        assert main(["tune", "--index", str(small_index), "--queries", str(queries),
                     "--qrels", str(qrels), "--model", "LMDir", "--param", "mu",
                     "--grid", "10,1000", "--folds", "3"]) == 0
        assert capsys.readouterr().out.count("best_mu=") == 3


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path, yule_counts):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsuch=1\n")
        assert main(["--config", str(cfg), "fit", "--input", str(yule_counts)]) == 1

    def test_file_sets_and_flag_overrides(self, tmp_path, small_index, capsys, monkeypatch):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("seed=7\nk=5\ntag=filed\n")
        queries = tmp_path / "q.tsv"
        queries.write_text("q1\tapple\n")
        capsys.readouterr()
        assert main(["--config", str(cfg), "rank", "--index", str(small_index),
                     "--queries", str(queries), "--model", "InL2-Tdc", "--k", "1"]) == 0
        err = capsys.readouterr().err.splitlines()
        # the flag wins over the file; rank never reads the file's seed
        assert err == ["# c=1.0", "# k=1", "# mu=1000.0", "# tag=filed"]

    def test_env_var_default_path(self, tmp_path, yule_counts, capsys, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("significance=0.01\n")
        monkeypatch.setenv("ADRANK_CONFIG", str(cfg))
        main(["fit", "--input", str(yule_counts), "--models", "poisson,geometric"])
        assert "# significance=0.01" in capsys.readouterr().err

    def test_resolved_config_logged(self, yule_counts, small_index, tmp_path, capsys):
        # each command echoes the settings it reads, and no others
        for argv, echoed in [
            (["fit", "--input", str(yule_counts), "--models", "poisson,geometric"],
             ["# significance=0.05"]),
            (["cascade", "--index", str(small_index), "--fraction", "1"],
             ["# seed=42", "# significance=0.05"]),
            # a command that reads no setting does not open the config file
            (["--config", str(tmp_path / "no_such_file"), "stats", "--index", str(small_index)], []),
        ]:
            capsys.readouterr()
            assert main(argv) == 0
            assert [line for line in capsys.readouterr().err.splitlines() if line.startswith("#")] == echoed


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path, small_corpus):
        outs = []
        for name in ("one", "two"):
            idx = tmp_path / f"{name}.idx"
            run = tmp_path / f"{name}.run"
            queries = tmp_path / "q.tsv"
            queries.write_text("q1\tapple banana\n")
            main(["ingest", "--corpus", str(small_corpus), "--out", str(idx)])
            main(["rank", "--index", str(idx), "--queries",
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
        outs = []
        for rule in ([], ["--rule", "bogus rule"], ["--rule", "ridf < nan"]):  # a list replaces the rule
            capsys.readouterr()
            assert main(["cascade", "--index", str(small_index), "--fraction", "1.0",
                         "--non-informative-list", str(listed),
                         "--models", "poisson,geometric", *rule]) == 0
            outs.append(capsys.readouterr().out)
        assert "chosen_model=" in outs[0] and outs[1:] == outs[:1] * 2


def _error_classes(cls=AdrankError):
    return [cls] + [sub for c in cls.__subclasses__() for sub in _error_classes(c)]


# the exit code and stderr prefix that main gives each error class
ERROR_CONTRACT = {
    "AdrankError": (2, "error"),
    "UsageError": (1, "error"),
    "ConfigError": (1, "error"),
    "DomainError": (1, "error"),
    "ParameterError": (1, "error"),
    "SupportError": (2, "data error"),
    "DegenerateSampleError": (2, "error"),
    "BoundaryError": (2, "error"),
    "OptimizationInitError": (3, "numerical failure"),
    "NumericalError": (3, "numerical failure"),
    "FormatError": (2, "data error"),
    "IngestError": (2, "data error"),
}


class TestExitContract:
    @pytest.mark.parametrize("error", _error_classes(), ids=lambda cls: cls.__name__)
    def test_each_error_class_keeps_its_exit_code_and_prefix(self, error, monkeypatch, capsys):
        assert error.__name__ in ERROR_CONTRACT, "add the new class to ERROR_CONTRACT"
        code, prefix = ERROR_CONTRACT[error.__name__]

        def command(args, config):
            raise error("what went wrong")

        monkeypatch.setattr(cli, "_cmd_stats", command)
        capsys.readouterr()
        assert main(["stats", "--index", "unread"]) == code
        err = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("#")]
        assert err == [f"{prefix}: what went wrong"]

    @pytest.mark.parametrize(
        "case, code",
        [
            ("non_utf8_counts", 2),
            ("non_utf8_queries", 2),
            ("directory_as_input", 2),
            ("non_numeric_fixed_value", 1),
            ("space_in_doc_id", 2),
            ("empty_doc_id", 2),
            ("space_in_query_id", 2),
            ("nan_c", 1),
            ("nan_mu", 1),
            ("inf_mu", 1),
            ("nan_pl_xmin", 1),
            ("nan_fixed_value", 1),
            ("inf_fixed_value", 1),
            ("nan_in_tune_grid", 1),
            ("negative_seed", 1),
            ("negative_seed_in_config_file", 1),
            ("nan_significance", 1),
            ("significance_above_one", 1),
            ("tune_c_of_lmdir", 1),
            ("tune_c_without_logarithmic_normalisation", 1),
            ("tune_mu_of_pl2", 1),
            ("tune_bad_model_before_reading", 1),
            ("tune_c_of_lmdir_before_reading", 1),
            ("non_numeric_tune_grid", 1),
            ("repeated_metric", 1),
        ],
    )
    def test_one_line_error_instead_of_traceback(
        self, case, code, small_index, tmp_path, capsys
    ):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"q1\tcaf\xe9\n")
        queries = tmp_path / "q.tsv"
        queries.write_text("q1\tapple\n")
        spaced = tmp_path / "spaced.tsv"  # ids a whitespace-separated run file would split
        spaced.write_text("q 1\tapple\n")
        blank = tmp_path / "blank.tsv"
        blank.write_text("d1\tapple\n\tbanana\n")
        tune_queries = tmp_path / "tq.tsv"  # three queries for three folds
        tune_queries.write_text("q1\tapple\nq2\tcherry\nq3\tgrape\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 1\nq2 0 d2 1\nq3 0 d4 1\n")
        config = tmp_path / "seed.cfg"
        config.write_text("seed=-5\n")
        counts = tmp_path / "counts.txt"
        counts.write_text("1\n2\n2\n3\n")
        rank = ["rank", "--index", str(small_index), "--queries"]
        ingest = ["ingest", "--out", str(tmp_path / "bad.idx"), "--corpus"]
        cascade = ["cascade", "--index", str(small_index), "--fraction", "1"]
        fit = ["fit", "--input", str(counts), "--models", "discrete"]
        tune = ["tune", "--index", str(small_index), "--queries", str(tune_queries),
                "--qrels", str(qrels), "--model"]
        no = str(tmp_path / "no_such_file")  # the model and grid are checked first
        tune_missing = ["tune", "--index", no, "--queries", no, "--qrels", no, "--grid", "1,2", "--model"]
        run = tmp_path / "run.txt"
        run.write_text("q1 Q0 d1 1 1.0 t\n")
        argv = {
            "non_utf8_counts": ["fit", "--input", str(bad)],
            "non_utf8_queries": rank + [str(bad), "--model", "InL2-Tdc"],
            "directory_as_input": ["fit", "--input", str(tmp_path)],
            "non_numeric_fixed_value": rank + [str(queries), "--model", "P-fixed:abc"],
            "space_in_doc_id": ingest + [str(spaced)],
            "empty_doc_id": ingest + [str(blank)],
            "space_in_query_id": rank + [str(spaced), "--model", "InL2-Tdc"],
            "nan_c": rank + [str(queries), "--model", "PL2-Tdc", "--c", "nan"],
            "nan_mu": rank + [str(queries), "--model", "LMDir", "--mu", "nan"],
            "inf_mu": rank + [str(queries), "--model", "LMDir", "--mu", "inf"],
            "nan_pl_xmin": rank + [str(queries), "--model", "PLL2-Tdc+1", "--pl-xmin", "nan"],
            "nan_fixed_value": rank + [str(queries), "--model", "PL2-fixed:nan"],
            "inf_fixed_value": rank + [str(queries), "--model", "PL2-fixed:inf"],
            "nan_in_tune_grid": ["tune", "--index", str(small_index), "--queries", str(tune_queries),
                                 "--qrels", str(qrels), "--model", "PL2-Tdc", "--grid", "nan,1"],
            "negative_seed": cascade + ["--seed", "-1"],
            "negative_seed_in_config_file": ["--config", str(config)] + cascade,
            "nan_significance": fit + ["--significance", "nan"],
            "significance_above_one": fit + ["--significance", "7"],
            "tune_c_of_lmdir": tune + ["LMDir", "--param", "c", "--grid", "0.5,5000"],
            "tune_c_without_logarithmic_normalisation": tune + ["InL1-Tdc", "--grid", "0.5,2"],
            "tune_mu_of_pl2": tune + ["PL2-Tdc", "--param", "mu", "--grid", "100,1000"],
            "tune_bad_model_before_reading": tune_missing + ["WAT-Tdc"],
            "tune_c_of_lmdir_before_reading": tune_missing + ["LMDir", "--param", "c"],
            "non_numeric_tune_grid": tune + ["PL2-Tdc", "--grid", "0.5,abc"],
            "repeated_metric": ["eval", "--run", str(run), "--qrels", str(qrels),
                                "--metrics", "map,p10,map"],
        }[case]
        capsys.readouterr()
        assert main(argv) == code
        err = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("#")]
        assert len(err) == 1 and err[0].startswith(("error: ", "data error: "))


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", "--metrics", "map,wat"], "unknown metric 'wat'"),
            (["tune", "--model", "PL2-Tdc", "--grid", "1", "--folds", "1"], "need at least two folds"),
            (["tune", "--model", "PL2-Tdc", "--grid", "1", "--objective", "wat"], "unknown objective 'wat'"),
            (["tune", "--model", "PL2-Tdc", "--grid", ","], "empty grid"),
            (["rank", "--model", "WAT-Tdc"], "cannot parse randomness model from 'WAT'"),
            (["rank", "--model", "PL2-Tdc", "--k", "0"], "k must be >= 1, got 0"),
            (["tune", "--model", "PL2-Tdc", "--grid", "1", "--k", "0"], "k must be >= 1, got 0"),
            (["fit", "--models", "wat"], "unknown model 'wat'"),
            (["classify", "--rule", "bogus"], "cannot parse condition 'bogus'"),
            (["classify", "--rule", "ridf < nan"], "threshold of 'ridf' is NaN"),
            (["cascade", "--fraction", "0.5", "--rule", "bogus rule"], "cannot parse condition 'bogus rule'"),
            (["cascade", "--fraction", "0.5", "--models", "wat"], "unknown model 'wat'"),
            (["plotdata", "--method", "gm3", "--base", "1"], "base must be an integer >= 2"),
            (["fit", "--models", "gamma,gamma,poisson"], "model 'gamma' repeated"),
            (["cascade", "--fraction", "0.5", "--models", "gamma,gamma,poisson"], "model 'gamma' repeated"),
            # a fixed parameter outside its randomness model's domain
            (["rank", "--model", "PLL2-fixed:0.5"], "PowerLawADR randomness needs a fixed parameter above 1, got 0.5"),
            (["rank", "--model", "PL2-fixed:0"], "P randomness needs a fixed parameter above 0, got 0"),
            (["rank", "--model", "GL2-fixed:0"], "G randomness needs a fixed parameter above 0, got 0"),
            (["rank", "--model", "LLL2-fixed:0"], "LL randomness needs a fixed parameter above 0, got 0"),
            (["rank", "--model", "YSL2-fixed:0"], "YuleADR randomness needs a fixed parameter above 0, got 0"),
            (["tune", "--model", "PLL2-fixed:0.5", "--grid", "1"],
             "PowerLawADR randomness needs a fixed parameter above 1, got 0.5"),
        ],
    )
    def test_settings_checked_before_any_file_is_read(self, argv, message, tmp_path, capsys):
        no = str(tmp_path / "no_such_file")
        files = {"eval": ["--run", no, "--qrels", no],
                 "tune": ["--index", no, "--queries", no, "--qrels", no],
                 "rank": ["--index", no, "--queries", no],
                 "fit": ["--input", no],
                 "classify": ["--index", no, "--out-informative", no, "--out-non-informative", no],
                 "cascade": ["--index", no],
                 "plotdata": ["--input", no]}[argv[0]]  # fmt: skip
        capsys.readouterr()
        assert main(argv[:1] + files + argv[1:]) == 1
        err = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("#")]
        assert err == [f"error: {message}"]

    def test_fixed_parameter_checked_when_no_query_term_is_indexed(self, small_index, tmp_path, capsys):
        # no term is scored, so the randomness model's own check never runs
        queries = tmp_path / "q.tsv"
        queries.write_text("q1\tzebra\n")
        capsys.readouterr()
        argv = ["rank", "--index", str(small_index), "--queries", str(queries), "--model", "PLL2-fixed:0.5"]
        assert main(argv) == 1
        err = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("#")]
        assert err == ["error: PowerLawADR randomness needs a fixed parameter above 1, got 0.5"]

    @pytest.mark.parametrize("command, setting", [("fit", "k=0"), ("tune", "mu=-1"), ("rank", "seed=-5")])
    def test_a_setting_the_command_never_reads_is_not_checked(
        self, command, setting, small_index, yule_counts, tmp_path, monkeypatch
    ):
        cfg = tmp_path / "unread.cfg"
        cfg.write_text(setting + "\n")
        queries, qrels = tmp_path / "q.tsv", tmp_path / "qrels.txt"
        queries.write_text("q1\tapple\nq2\tcherry\nq3\tgrape\n")
        qrels.write_text("q1 0 d1 1\nq2 0 d2 1\nq3 0 d4 1\n")
        rank = ["--index", str(small_index), "--queries", str(queries), "--model", "PL2-Tdc"]
        if command == "fit":
            monkeypatch.setenv("ADRANK_CONFIG", str(cfg))
            argv = ["fit", "--input", str(yule_counts), "--models", "poisson,geometric"]
        elif command == "tune":
            argv = ["--config", str(cfg), "tune", *rank, "--qrels", str(qrels), "--grid", "0.5,1"]
        else:
            argv = ["--config", str(cfg), "rank", *rank, "--out", str(tmp_path / "run.txt")]
        assert main(argv) == 0

    @pytest.mark.parametrize("before, after", [([], ["ingest", "--seed", "1"]), (["--seed", "1"], ["rank"])])
    def test_a_setting_flag_the_command_never_reads_is_refused(self, before, after, tmp_path):
        no = str(tmp_path / "no_such_file")  # exit 2 if it were read
        files = {"ingest": ["--corpus", no, "--out", no],
                 "rank": ["--index", no, "--queries", no, "--model", "LMDir"]}[after[0]]  # fmt: skip
        assert main(before + after + files) == 1


class TestDeclaredSettings:
    """Each command reads exactly the settings it declares: a setting that
    no command reads is neither accepted, checked nor echoed."""

    def test_each_command_reads_the_settings_it_declares(
        self, small_corpus, small_index, yule_counts, tmp_path, monkeypatch
    ):
        read = set()

        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        resolve = cli._resolve_config
        monkeypatch.setattr(cli, "_resolve_config", lambda args: Recording(resolve(args)))
        out = str(tmp_path / "out")
        queries, qrels = tmp_path / "q.tsv", tmp_path / "qrels.txt"
        queries.write_text("q1\tapple\nq2\tcherry\nq3\tgrape\n")
        qrels.write_text("q1 0 d1 1\nq2 0 d3 1\nq3 0 d4 1\n")
        # per-query differences that are not all zero, so the t-test reads the level
        runs = [tmp_path / "a.run", tmp_path / "b.run"]
        runs[0].write_text("q1 Q0 d1 1 2 a\nq1 Q0 d2 2 1 a\nq2 Q0 d2 1 2 a\nq2 Q0 d3 2 1 a\n")
        runs[1].write_text("q1 Q0 d2 1 2 b\nq1 Q0 d1 2 1 b\nq2 Q0 d3 1 2 b\nq2 Q0 d2 2 1 b\n")
        index = ["--index", str(small_index)]
        rank = ["rank", *index, "--queries", str(queries), "--out", out, "--model"]
        argvs = [
            ["fit", "--input", str(yule_counts), "--models", "poisson,geometric"],
            ["plotdata", "--input", str(yule_counts), "--method", "gm2", "--out", out],
            ["ingest", "--corpus", str(small_corpus), "--out", out],
            ["stats", *index],
            ["classify", *index, "--out-informative", out, "--out-non-informative", out],
            ["cascade", *index, "--fraction", "1"],
            rank + ["PL2-Tdc"],  # logarithmic normalisation, which reads c
            rank + ["LMDir"],  # which reads mu
            ["eval", "--run", str(runs[0]), "--qrels", str(qrels), "--baseline-run", str(runs[1])],
            ["tune", *index, "--queries", str(queries), "--qrels", str(qrels),
             "--model", "PL2-Tdc", "--grid", "0.5,1"],
        ]
        parser = cli._build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        assert {argv[0] for argv in argvs} == set(commands)
        for argv in argvs:
            read.clear()
            assert main(argv) == 0, argv
            assert read == set(commands[argv[0]].get_default("settings")), argv


class TestModuleLoading:
    """A command loads only the modules it runs: the retrieval commands
    never load the selection half (a fresh interpreter, since this one has
    loaded every module)."""

    PROBE = (
        "import json, sys\n"
        "from adrank.cli import main\n"
        "loaded = {}\n"
        "for name, argv in json.loads(sys.argv[1]):\n"
        "    code = main(argv)\n"
        "    loaded[name] = [code, sorted(m for m in sys.modules if m.startswith('adrank.'))]\n"
        "print(json.dumps(loaded))\n"
    )
    SELECTION_HALF = {
        "adrank.distributions", "adrank.selection", "adrank.empirics", "adrank.weighting"
    }

    def test_retrieval_commands_leave_the_selection_half_unloaded(
        self, tmp_path, small_corpus, yule_counts
    ):
        idx, run = str(tmp_path / "p.idx"), tmp_path / "p.run"
        queries, qrels = tmp_path / "q.tsv", tmp_path / "qrels.txt"
        queries.write_text("q1\tapple\nq2\tbanana\nq3\tcherry\n")
        qrels.write_text("q1 0 d3 1\nq2 0 d2 1\nq3 0 d2 1\n")
        run.write_text("q1 Q0 d3 1 2.000000 t\nq1 Q0 d1 2 1.000000 t\n")
        rank = ["rank", "--index", idx, "--queries", str(queries), "--out", str(run), "--model"]
        steps = [  # eval first: it reads no index, so it loads no corpus code
            ("eval", ["eval", "--run", str(run), "--qrels", str(qrels)]),
            ("ingest", ["ingest", "--corpus", str(small_corpus), "--out", idx]),
            ("stats", ["stats", "--index", idx]),
            ("rank YSL2-Tdc2", rank + ["YSL2-Tdc2"]),
            ("rank LMDir", rank + ["LMDir"]),
            ("rank PL2-Tdc", rank + ["PL2-Tdc"]),
            ("tune", ["tune", "--index", idx, "--queries", str(queries), "--qrels", str(qrels),
                      "--model", "PL2-Tdc", "--grid", "0.5,1,2"]),
            ("fit", ["fit", "--input", str(yule_counts), "--models", "discrete"]),
            ("plotdata", ["plotdata", "--input", str(yule_counts), "--method", "gm2"]),
            ("cascade", ["cascade", "--index", idx, "--fraction", "1"]),
        ]
        src = str(Path(adrank.__file__).resolve().parents[1])
        env = {**os.environ}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", self.PROBE, json.dumps(steps)],
            env=env, check=True, capture_output=True, text=True,
        )
        loaded = json.loads(done.stdout.splitlines()[-1])
        assert {name: code for name, (code, _) in loaded.items()} == dict.fromkeys(loaded, 0)
        assert not self.SELECTION_HALF & set(loaded["tune"][1])
        assert loaded["eval"][1] == [
            "adrank.cli", "adrank.errors", "adrank.evaluation", "adrank.numerics", "adrank.ranking"
        ]
        assert set(loaded["ingest"][1]) - set(loaded["eval"][1]) == {"adrank.corpus"}
        assert self.SELECTION_HALF <= set(loaded["cascade"][1])


class TestGoldenOutputs:
    """``ingest``, ``stats``, ``classify``, ``rank``, ``eval`` and ``tune``
    output bytes on a seeded planted corpus, pinned by SHA-256 digests. The
    run, eval and tune digests were recorded before the ranked list became
    columnar; the index, term-frequency and classify digests before the
    index lost its dict views. A digest that moves is an output change, not
    noise."""

    DIGESTS = {
        "c.idx": "f617b082634f66f983ced75911027e8fa96e587241ed755a386a0068d456a0e3",
        "tf.txt": "94eb57f9547959b5187f4a0ab5e1c116f91654987bf9a0c2465bd802b9de1dcb",
        "inf.txt": "7ff11821629eaf39f49f49dc5090a7a44cca4ea3c82a452518e2597408a5c207",
        "noninf.txt": "2711f236e1a9ee762ca7f3a269b24cc4fd4daa8a191a28062a59e54f16c8f282",
        "weights.tsv": "6d8f78f07f1002e1a405d76aca8d1ba81f0776c1d211797074940824b4ae0b8c",
        "YSL2-Tdc2.run": "ff5ef7d6faad8bb7ed1b77263d206dc3bd0ef6fd01b1d45095e4db4b191ed4ba",
        "PL2-Tdc.run": "140e689ea526efff58339b665f3420787da39a1763bb270ed8689c60d36ed577",
        "LMDir.run": "71d5b8fbb6cbbefa2965963cd678872810845a4926c7c2cd21bf2d19a8fb6f72",
        "YSL2-Tdc2.run.eval.stdout": "a1b1277f47e6a76c2771416f7c784a29b98b1bfa1766ce98944285f08ad47eff",
        "YSL2-Tdc2.run.eval.tsv": "904f840d24700fd0864829869b3862421b75079bc2b414e5adc498469e9cd9e2",
        "LMDir.run.eval.stdout": "0fe85989fdd2c24d8940f1ff3a31e3b1f0d35f0d163adc7cb1ae8119a43b553e",
        "LMDir.run.eval.tsv": "6b380d0468049e7ff88f3437cef860f906ec162408368b09d20e00908d767e09",
        "tune.map.stdout": "1b75802a0e1d1cc32948a58a8c0945878bb20f5a2381c47765b9f65da62bc5fd",
        "tune.ndcg10.stdout": "407ca309f26ee7fc5c0a27200c247760ab0646340464fc5c9bf357e34bf709d2",
    }

    @staticmethod
    def _inputs(root: Path):
        documents, queries, grades, _ = build_planted_corpus(
            seed=31, n_docs=1500, n_queries=6, vocab=10_000
        )
        (root / "corpus.tsv").write_text("".join(f"{d}\t{t}\n" for d, t in documents))
        # each query adds two mid-frequency noise terms, so its candidates
        # mix planted and noise documents whose order depends on the model
        freq = Counter(w for _, text in documents for w in text.split())
        noise = sorted(w for w, n in freq.items() if w.startswith("w") and 8 <= n <= 40)
        extra = {qid: noise[7 * i : 7 * i + 14 : 7] for i, (qid, _) in enumerate(queries)}
        (root / "q.tsv").write_text(
            "".join(f"{q}\t{t} {' '.join(extra[q])}\n" for q, t in queries)
        )
        # graded and partly unjudged: planted relevant documents get 1-3,
        # distractors mostly 0, noise documents holding an added term 0-2
        for doc, text in documents:
            words = set(text.split())
            for qid, terms in extra.items():
                if (qid, doc) not in grades and words.intersection(terms):
                    grades[(qid, doc)] = -1
        gen = np.random.default_rng(5)
        lines = []
        for (qid, doc), g in sorted(grades.items()):
            u, draw = gen.random(), int(gen.integers(0, 3))
            if u < 0.15:
                continue
            grade = draw if g < 0 else 1 + draw if g else int(u > 0.9)
            lines.append(f"{qid} 0 {doc} {grade}\n")
        (root / "qrels.txt").write_text("".join(lines))

    def test_outputs_match_recorded_digests(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        self._inputs(tmp_path)
        assert main(["ingest", "--corpus", "corpus.tsv", "--out", "c.idx"]) == 0
        got = {"c.idx": (tmp_path / "c.idx").read_bytes()}
        assert main(["stats", "--index", "c.idx", "--property", "term_frequency",
                     "--out", "tf.txt"]) == 0
        got["tf.txt"] = (tmp_path / "tf.txt").read_bytes()
        assert main(["classify", "--index", "c.idx", "--rule", "ridf < 0.3 and f_tc > 2",
                     "--out-informative", "inf.txt", "--out-non-informative", "noninf.txt",
                     "--weights-out", "weights.tsv"]) == 0
        for name in ("inf.txt", "noninf.txt", "weights.tsv"):
            got[name] = (tmp_path / name).read_bytes()
        for spec in ("YSL2-Tdc2", "PL2-Tdc", "LMDir"):
            run = f"{spec}.run"
            assert main(["rank", "--index", "c.idx", "--queries", "q.tsv",
                         "--model", spec, "--out", run]) == 0
            got[run] = (tmp_path / run).read_bytes()
        capsys.readouterr()
        for run, base in (("YSL2-Tdc2.run", "PL2-Tdc.run"), ("LMDir.run", "YSL2-Tdc2.run")):
            tsv = f"{run}.eval.tsv"
            assert main(["eval", "--run", run, "--qrels", "qrels.txt", "--per-query",
                         "--baseline-run", base, "--out", tsv]) == 0
            got[f"{run}.eval.stdout"] = capsys.readouterr().out.encode()
            got[tsv] = (tmp_path / tsv).read_bytes()
        for objective in ("map", "ndcg10"):
            assert main(["tune", "--index", "c.idx", "--queries", "q.tsv",
                         "--qrels", "qrels.txt", "--model", "PL2-Tdc",
                         "--grid", "0.25,0.5,1,2,4,8", "--objective", objective]) == 0
            got[f"tune.{objective}.stdout"] = capsys.readouterr().out.encode()
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in got.items()}
        assert digests == self.DIGESTS

    # recorded before the parameter domains were declared once per model;
    # counts.rec re-recorded when the power law moved to Newton on its score
    # (alpha=2.100324098 -> 2.100324103, the exact root)
    FIT_DIGESTS = {
        "counts.tsv": "4d23baa657be645a71ace8656477315eece60bd278c269c11c6e372c27ea5f3e",
        "counts.rec": "2c0394900559f098ae33282675e0205bba6e2a885117372a26c82aa565d8da9a",
        "counts.stdout": "b0e042f97338e557999d0accbc8c3b14db3916db77a0dcf3d3719b798c8e0e5f",
        "reals.tsv": "8f02f38e1f1f3cb700120fa030de2ee78424fc95ac323e5a7b780206c8c648fb",
        "reals.rec": "dff96097ad9d85ad3db46ac9ffc17c5dc4135db2243027f7860acb115e6c412e",
        "reals.stdout": "49076b03a0cab73d16686abb75927f62b41954371acecbc0417689b92d411e22",
        "cascade.stdout": "e8ae3da0af5c658b20c9afd650045bc71c99f452102223919940959e6887b163",
    }

    def test_fit_and_cascade_match_recorded_digests(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        gen = np.random.default_rng(17)
        counts = random_variates(ModelId.YULE_SIMON, {"p": 1.5}, 20_000, RandomSource(17))
        (tmp_path / "counts.txt").write_text("".join(f"{int(v)}\n" for v in counts))
        reals = gen.normal(100.0, 15.0, size=5_000)
        (tmp_path / "reals.txt").write_text("\n".join(map(repr, reals.tolist())) + "\n")
        capsys.readouterr()
        got, codes = {}, []
        for name in ("counts", "reals"):
            codes.append(main(["fit", "--input", f"{name}.txt", "--models", "all",
                                "--out", f"{name}.tsv", "--records", f"{name}.rec"]))
            got[f"{name}.stdout"] = capsys.readouterr().out.encode()
            for ext in ("tsv", "rec"):
                got[f"{name}.{ext}"] = (tmp_path / f"{name}.{ext}").read_bytes()
        self._inputs(tmp_path)
        assert main(["ingest", "--corpus", "corpus.tsv", "--out", "c.idx"]) == 0
        capsys.readouterr()
        codes.append(main(["cascade", "--index", "c.idx", "--rule", "ridf < 0.4",
                           "--fraction", "0.5", "--seed", "7"]))
        got["cascade.stdout"] = capsys.readouterr().out.encode()
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in got.items()}
        assert codes == [0, 0, 0]
        assert digests == self.FIT_DIGESTS
