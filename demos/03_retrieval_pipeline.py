"""End to end: from raw documents to an adapted ranking model.

Builds a synthetic collection whose non-informative term frequencies are
Yule-Simon distributed, identifies those terms by a threshold rule,
subsamples their collection frequencies, selects the best-fitting discrete
model, and plugs it into the divergence scorer. The adapted model is then
evaluated against a Dirichlet language-model baseline on planted relevance
judgments, with a paired t-test and a cross-validated sweep of the length
normalisation parameter.
"""

import numpy as np

from adrank import (
    ModelId,
    Qrels,
    QueryRecord,
    RandomSource,
    Sample,
    build_index,
    build_vuong_table,
    classify_terms,
    cv_tune,
    evaluate_run,
    paired_t_test,
    parse_model_spec,
    rank,
    random_variates,
    select_best,
    subsample,
)
from adrank.weighting import parse_rule

# --- 1. a corpus with planted topical structure -------------------------
rng = RandomSource(7)
V = 20_000
draws = random_variates(ModelId.YULE_SIMON, {"p": 1.5}, V, rng).astype(int)
stream = np.repeat([f"w{i:05d}" for i in range(V)], draws)
rng.generator.shuffle(stream)

docs, grades, queries = [], {}, []
pos = 0
def take(k):
    global pos
    chunk = stream[pos:pos + k]
    pos += k
    return list(chunk)

for q in range(3):
    qid, terms = f"q{q}", [f"topic{q}{j}" for j in range(4)]
    queries.append(QueryRecord(qid, terms, " ".join(terms)))
    for r in range(7):  # strongly relevant: every query term, densely
        did = f"rel{q}x{r}"
        docs.append((did, " ".join(take(18) + [t for t in terms for _ in range(3)])))
        grades[(qid, did)] = 1
    for r in range(3):  # marginally relevant: two terms, one mention each
        did = f"rel{q}y{r}"
        docs.append((did, " ".join(take(28) + terms[:2])))
        grades[(qid, did)] = 1
    for i in range(10):  # hard distractors: two terms, densely
        did = f"non{q}h{i}"
        docs.append((did, " ".join(take(24) + [terms[2]] * 3 + [terms[3]] * 3)))
        grades[(qid, did)] = 0
    for i in range(30):  # light distractors: one query term, once
        did = f"non{q}x{i}"
        docs.append((did, " ".join(take(29) + [terms[i % 4]])))
        grades[(qid, did)] = 0
n_noise = (len(stream) - pos) // 30
for i in range(min(n_noise, 2000)):
    docs.append((f"noise{i:05d}", " ".join(take(30))))

index = build_index(docs)
print(f"corpus: N={index.stats.N} docs, vocab={index.stats.vocab_size}, "
      f"avg length {index.stats.avg_l:.1f}")

# --- 2. identify and subsample the non-informative terms ----------------
rule = parse_rule("ridf < 0.4")
informative, non_informative = classify_terms(index, rule)
print(f"classified {len(non_informative)} terms non-informative, "
      f"{len(informative)} informative")
print("  sample informative terms:", sorted(informative)[:4])

freqs = sorted(index.f_tc[index.term_id(t)] for t in non_informative)
picked = subsample(freqs, "simple", 0.25, RandomSource(13))
print(f"subsampled {len(picked)} of {len(freqs)} collection frequencies")

# --- 3. select the best-fitting discrete model ---------------------------
candidates = [ModelId.GEOMETRIC, ModelId.NEGATIVE_BINOMIAL, ModelId.POISSON,
              ModelId.POWERLAW, ModelId.YULE_SIMON]
table = build_vuong_table(Sample.of(picked, True), candidates)
_, best, _ = select_best(table)
fit = table.fitted[best]
print(f"best discrete model: {best.value} "
      f"({', '.join(f'{k}={v:.3f}' for k, v in fit.params.items())})")

# --- 4. rank with the adapted model and a baseline ----------------------
adapted = parse_model_spec("YSL2-Tdc2", c=1.0)
baseline = parse_model_spec("LMDir", mu=1000.0)
qrels = Qrels(grades)
runs = {}
for name, cfg in (("YSL2-Tdc2", adapted), ("LMDir", baseline)):
    lists = [rank(q, index, cfg, k=100) for q in queries]
    runs[name] = evaluate_run(lists, qrels, ("map", "ndcg", "p10"))
    means = "  ".join(f"{m}={v:.4f}" for m, v in sorted(runs[name].mean.items()))
    print(f"{name:10s} {means}")

a = [runs["YSL2-Tdc2"].per_query["map"][q.query_id] for q in queries]
b = [runs["LMDir"].per_query["map"][q.query_id] for q in queries]
t, p = paired_t_test(a, b)
if t != t:
    print("paired t-test on per-query AP: degenerate "
          "(the per-query differences have zero variance)")
else:
    print(f"paired t-test on per-query AP: t={t:.3f}, p={p:.3f}")

# --- 5. tune the normalisation constant by cross-validation -------------
folds, test_mean = cv_tune(
    queries, qrels, index,
    lambda c: parse_model_spec("YSL2-Tdc2", c=c),
    grid=[0.5, 1.0, 2.0, 4.0, 6.0, 8.0], folds=3,
)
for fr in folds:
    print(f"fold {fr['fold']}: best c={fr['best']:g}, "
          f"held-out MAP={fr['test_mean']['map']:.4f}")
print(f"mean held-out MAP over folds: {test_mean['map']:.4f}")
print("(when several c values tie on the training folds, the smallest wins)")
