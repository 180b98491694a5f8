"""Feature-hashing embedder.

Replaces the E5 embedding model in the RAG baselines: each text is
embedded as a unit-norm bag of hashed word and character-trigram
features.  Texts sharing vocabulary land near each other in cosine
space, which is the property row-level RAG retrieval depends on —
without any model weights, and fully deterministic.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping, Sequence

import numpy as np

from repro.text.tokenize import tokens


def _bucket(feature: str, dimensions: int) -> tuple[int, float]:
    digest = hashlib.md5(feature.encode("utf-8")).digest()
    index = int.from_bytes(digest[:4], "big") % dimensions
    sign = 1.0 if digest[4] % 2 == 0 else -1.0
    return index, sign


class HashingEmbedder:
    """Hashes word unigrams and character trigrams into a dense vector.

    Degenerate-text contract.  A text that contributes *no* features
    (empty, or punctuation-only/stopword-only with trigrams disabled)
    used to embed as the all-zero vector, which makes cosine similarity
    against it ill-defined: depending on the caller's convention a zero
    key "matches" nothing or everything.  Every embedding is now
    unit-norm: degenerate texts all map to one reserved *sentinel
    bucket*, so they are mutually identical (cosine 1.0 against each
    other) and near-orthogonal to real content — a well-defined point,
    never an ill-defined one.  Callers that must not conflate distinct
    degenerate texts (the semantic serving cache) should test
    :meth:`is_degenerate` and refuse to key on such texts at all.
    """

    def __init__(
        self, dimensions: int = 256, use_trigrams: bool = True
    ) -> None:
        if dimensions < 8:
            raise ValueError("dimensions must be at least 8")
        self.dimensions = dimensions
        self.use_trigrams = use_trigrams

    def is_degenerate(self, text: str) -> bool:
        """True when ``text`` yields no hashed features.

        Such a text embeds as the shared sentinel-bucket vector (see the
        class docstring), so all degenerate texts are indistinguishable
        in cosine space; similarity-keyed callers should treat them as
        uncacheable rather than rely on their embedding.
        """
        if tokens(text):
            return False
        return not (self.use_trigrams and len(text) >= 1)

    def embed(self, text: str) -> np.ndarray:
        """Unit-norm embedding of one text (sentinel for degenerate)."""
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """(n, dimensions) matrix of unit-norm embeddings.

        Each distinct feature is hashed once per call.  A text's vector
        is summed in feature order (words at +-1, then trigrams at
        +-0.4), so every row equals what a per-feature loop adding into
        a zero vector gives, bit for bit.

        The sums are Python floats and the matrix is never zero-filled:
        ``np.zeros`` and ``np.bincount`` release the GIL, and each
        release hands it to another thread, a context switch per call
        on the serving hot path (the semantic cache and the registry
        embed one text per request).  The norm is the one release left.
        """
        dimensions = self.dimensions
        buckets: dict[str, tuple[int, float]] = {}
        matrix = np.empty((len(texts), dimensions), dtype=np.float64)
        for row, text in enumerate(texts):
            features = ["w:" + word for word in tokens(text)]
            if self.use_trigrams:
                lowered = " " + text.lower() + " "
                features += [
                    "t:" + lowered[position : position + 3]
                    for position in range(len(lowered) - 2)
                ]
            sums = [0.0] * dimensions
            for feature in features:
                bucket = buckets.get(feature)
                if bucket is None:
                    index, sign = _bucket(feature, dimensions)
                    weight = sign if feature[0] == "w" else 0.4 * sign
                    bucket = buckets[feature] = (index, weight)
                sums[bucket[0]] += bucket[1]
            vector = np.array(sums)
            norm = np.linalg.norm(vector)
            if norm > 0:
                matrix[row] = vector / norm
            else:
                index, sign = _bucket("degenerate:", dimensions)
                sums[index] = sign
                matrix[row] = sums
        return matrix


def serialize_row(record: Mapping[str, object]) -> str:
    """Serialize one row as the paper's RAG baseline does: "- col: val"."""
    return "\n".join(f"- {key}: {value}" for key, value in record.items())
