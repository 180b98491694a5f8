"""E7 — ablation: vector index variant (flat exact vs IVF approximate).

Substrate-level ablation for the RAG stack: recall@10 of the IVF index
against exact flat search over the benchmark's row corpus, sweeping
nprobe.  (FAISS's IndexFlatIP vs IndexIVFFlat trade-off.)
"""

import numpy as np
import pytest

from repro.core import row_records
from repro.embed import HashingEmbedder, serialize_row
from repro.vector import FlatIndex, IVFIndex

from benchmarks.conftest import write_artifact

NPROBES = (1, 2, 4, 8)
N_CLUSTERS = 24


def _corpus(datasets) -> np.ndarray:
    records = row_records(datasets["formula_1"])
    return HashingEmbedder().embed_batch([serialize_row(r) for r in records])


def _recall_at_10(corpus: np.ndarray, nprobe: int) -> float:
    flat = FlatIndex(corpus.shape[1])
    flat.add(corpus)
    ivf = IVFIndex(
        corpus.shape[1], n_clusters=N_CLUSTERS, nprobe=nprobe, seed=0
    )
    ivf.train(corpus)
    ivf.add(corpus)
    hits = 0
    probes = range(0, len(corpus), max(1, len(corpus) // 50))
    for row in probes:
        true_ids, _ = flat.search(corpus[row], 10)
        got_ids, _ = ivf.search(corpus[row], 10)
        hits += len(set(true_ids.tolist()) & set(got_ids.tolist()))
    return hits / (len(list(probes)) * 10)


@pytest.mark.parametrize("nprobe", (1, 4))
def test_ivf_search_speed(benchmark, nprobe, datasets):
    corpus = _corpus(datasets)
    ivf = IVFIndex(
        corpus.shape[1], n_clusters=N_CLUSTERS, nprobe=nprobe, seed=0
    )
    ivf.train(corpus)
    ivf.add(corpus)
    benchmark(lambda: ivf.search(corpus[0], 10))


def test_flat_search_speed(benchmark, datasets):
    corpus = _corpus(datasets)
    flat = FlatIndex(corpus.shape[1])
    flat.add(corpus)
    benchmark(lambda: flat.search(corpus[0], 10))


def test_recall_improves_with_nprobe(benchmark, datasets):
    corpus = _corpus(datasets)
    recalls = benchmark.pedantic(
        lambda: {
            nprobe: _recall_at_10(corpus, nprobe) for nprobe in NPROBES
        },
        rounds=1,
        iterations=1,
    )
    lines = [
        f"IVF recall@10 vs flat exact search "
        f"({len(corpus)} rows, {N_CLUSTERS} clusters):"
    ]
    lines += [
        f"  nprobe={nprobe}  recall={recall:.3f}"
        for nprobe, recall in recalls.items()
    ]
    write_artifact("ablation_vector_index.txt", "\n".join(lines))

    assert recalls[8] >= recalls[1]
    assert recalls[8] >= 0.9
