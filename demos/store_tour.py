"""A guided tour of the edge vector store.

Shows question/answer insertion, approximate search against the exact
oracle, the retrieval filter that weighs similarity against use counts,
the cache-value recurrence, and an eviction sweep.

    python demos/store_tour.py
"""

import numpy as np

from edgesched.vecstore import VectorStore, filter_best
from edgesched.workload import generate_topics, random_unit, unit

SEED = 21
DIM = 32


def paraphrase(rng, centroid):
    return unit(centroid + 0.05 * random_unit(rng, DIM))


def main():
    topics = generate_topics(80, DIM, seed=SEED)
    rng = np.random.default_rng(SEED)

    print("== inserting question/answer pairs ==")
    store = VectorStore(dim=DIM, nlist=16, min_candidates=10, seed=SEED)
    for i in range(600):
        t = int(rng.integers(80))
        q = paraphrase(rng, topics.centroids[t])
        store.insert_qa(q, topics.reference_for(t), slot=i,
                        initial_cache_value=-1.0)
    print(f"{len(store)} records across {store.index_builds} index rebuilds "
          f"(k-means repartitions every 1000 inserts)\n")

    print("== approximate search vs exact scan ==")
    hits = 0
    for _ in range(100):
        t = int(rng.integers(80))
        q = paraphrase(rng, topics.centroids[t])
        ann = {e.record.rid for e in store.query(q, 10)}
        exact = {e.record.rid for e in store.exact_knn(q, 10)}
        hits += len(ann & exact)
    print(f"recall@10 over 100 queries: {hits / 1000:.3f} "
          "(probing stops once 10 candidates are gathered)\n")

    print("== the retrieval filter ==")
    t = int(rng.integers(80))
    q = paraphrase(rng, topics.centroids[t])
    corr = store.query(q, 5)
    for e in corr:
        print(f"  rid {e.record.rid:4d}  distance {e.distance:.3f}  "
              f"similarity {e.similarity:.3f}  uses {e.record.freq}")
    best = filter_best(corr, value_weight=1.0, freq_weight=0.1)
    print(f"filter picks rid {best.record.rid}: highest "
          "similarity + 0.1 * use count\n")

    print("== cache-value recurrence ==")
    rec = corr[0].record
    print(f"record {rec.rid} starts at cache value {rec.cache_value:.3f}")
    for q_score, d in ((-0.10, 0.8), (-0.05, 0.8)):
        store.update_cache_value(rec, q=q_score, d=d)
        print(f"  after payoff q={q_score:+.2f}, d={d}: value "
              f"averages to {rec.cache_value:.4f} (freq {rec.freq})")
    print()

    print("== eviction sweep ==")
    # spread the values out so the sweep has something to drop
    for rec in store.records():
        store.update_cache_value(rec, q=float(-rng.uniform(0.05, 3.0)), d=0.8)
    before = len(store)
    mean = store.mean_cache_value()
    store.evict(slot=999)
    print(f"mean cache value was {mean:.3f}; sweep dropped "
          f"{before - len(store)} of {before} records (all strictly below "
          "the mean), leaving the rest untouched")


if __name__ == "__main__":
    main()
