"""Unit tests for the hashing embedder."""

import hashlib

import numpy as np
import pytest

from repro.core import row_records
from repro.embed import HashingEmbedder, serialize_row
from repro.text.tokenize import tokens


@pytest.fixture()
def embedder() -> HashingEmbedder:
    return HashingEmbedder(dimensions=128)


class TestEmbedder:
    def test_unit_norm(self, embedder):
        vector = embedder.embed("hello world of data")
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_deterministic(self, embedder):
        a = embedder.embed("gradient descent")
        b = embedder.embed("gradient descent")
        assert np.array_equal(a, b)

    def test_similar_texts_closer_than_dissimilar(self, embedder):
        query = embedder.embed("races on Sepang International Circuit")
        near = embedder.embed("Sepang International Circuit Malaysia")
        far = embedder.embed("free meal count for elementary schools")
        assert float(query @ near) > float(query @ far)

    def test_batch_shape(self, embedder):
        matrix = embedder.embed_batch(["a", "b", "c"])
        assert matrix.shape == (3, 128)

    def test_empty_batch(self, embedder):
        assert embedder.embed_batch([]).shape == (0, 128)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            HashingEmbedder(dimensions=4)

    def test_trigrams_optional(self):
        plain = HashingEmbedder(dimensions=64, use_trigrams=False)
        vector = plain.embed("abc")
        assert np.linalg.norm(vector) == pytest.approx(1.0)


class TestDegenerateTextContract:
    """Regression tests for the all-zero-embedding bug.

    ``embed`` used to return the zero vector for texts contributing no
    features, making cosine similarity against them ill-defined (inner
    product 0 against everything).  The contract now: every embedding
    is unit-norm; feature-less texts share one sentinel bucket; callers
    that must not conflate degenerate texts ask :meth:`is_degenerate`.
    """

    def test_empty_text_embeds_unit_norm(self, embedder):
        # Pre-fix this was the zero vector (norm 0.0).
        assert np.linalg.norm(embedder.embed("")) == pytest.approx(1.0)

    def test_featureless_text_embeds_unit_norm(self):
        plain = HashingEmbedder(dimensions=64, use_trigrams=False)
        for text in ["", "?!...", "   "]:
            assert np.linalg.norm(plain.embed(text)) == pytest.approx(
                1.0
            ), repr(text)

    def test_degenerate_texts_share_the_sentinel(self):
        plain = HashingEmbedder(dimensions=64, use_trigrams=False)
        empty = plain.embed("")
        punct = plain.embed("?!")
        assert np.array_equal(empty, punct)

    def test_sentinel_near_orthogonal_to_content(self, embedder):
        sentinel = embedder.embed("")
        content = embedder.embed("top romance movies by revenue")
        assert abs(float(sentinel @ content)) < 0.5

    def test_is_degenerate(self):
        plain = HashingEmbedder(dimensions=64, use_trigrams=False)
        assert plain.is_degenerate("")
        assert plain.is_degenerate("?!...")
        assert not plain.is_degenerate("movies")
        # With trigrams on, any non-empty text contributes features.
        tri = HashingEmbedder(dimensions=64, use_trigrams=True)
        assert tri.is_degenerate("")
        assert not tri.is_degenerate("?!")

    def test_empty_text_no_longer_matches_nothing(self):
        """The observable bug: a zero query vector scored 0 against
        every index entry, so ``search`` ranked arbitrarily."""
        plain = HashingEmbedder(dimensions=64, use_trigrams=False)
        query = plain.embed("")
        stored = plain.embed_batch(["", "alpha beta", "gamma delta"])
        scores = stored @ query
        # The degenerate entry now outranks real content for a
        # degenerate query instead of tying everything at 0.
        assert scores[0] == pytest.approx(1.0)
        assert scores[0] > max(abs(scores[1]), abs(scores[2]))


class TestSerializeRow:
    def test_paper_format(self):
        record = {"School": "A High", "AvgScrMath": 600}
        assert serialize_row(record) == (
            "- School: A High\n- AvgScrMath: 600"
        )


def _reference_bucket(feature: str, dimensions: int) -> tuple[int, float]:
    digest = hashlib.md5(feature.encode("utf-8")).digest()
    index = int.from_bytes(digest[:4], "big") % dimensions
    return index, 1.0 if digest[4] % 2 == 0 else -1.0


def _reference_embed(embedder: HashingEmbedder, text: str) -> np.ndarray:
    """The per-feature loop the batched embedder must reproduce: hash
    every feature occurrence and add it into a zero vector, words
    first, then trigrams at 0.4."""
    dimensions = embedder.dimensions
    vector = np.zeros(dimensions, dtype=np.float64)
    for word in tokens(text):
        index, sign = _reference_bucket("w:" + word, dimensions)
        vector[index] += sign
    if embedder.use_trigrams:
        lowered = " " + text.lower() + " "
        for position in range(len(lowered) - 2):
            trigram = lowered[position : position + 3]
            index, sign = _reference_bucket("t:" + trigram, dimensions)
            vector[index] += 0.4 * sign
    norm = np.linalg.norm(vector)
    if norm > 0:
        return vector / norm
    index, sign = _reference_bucket("degenerate:", dimensions)
    vector[index] = sign
    return vector


EDGE_TEXTS = [
    "",
    "?!",
    "?!...",
    "   ",
    "\n\t",
    "a",
    "ab",
    "Zürich 東京 😀 café",
    "𝔘𝔫𝔦𝔠𝔬𝔡𝔢 \U0001f600\U0001f600",
    "repeat repeat repeat repeat",
    "- name: Sepang\n- lat: 2.76",
]

CONFIGS = [(256, True), (128, True), (8, True), (128, False), (8, False)]


def _corpus_texts(datasets, stride: int = 1) -> list[str]:
    return [
        serialize_row(record)
        for name in sorted(datasets)
        for record in row_records(datasets[name])[::stride]
    ]


class TestBitIdenticalToReference:
    """``embed_batch`` hashes each distinct feature once per call; every
    row must still equal the per-feature reference loop bit for bit."""

    def _assert_identical(self, embedder, texts):
        matrix = embedder.embed_batch(texts)
        assert matrix.dtype == np.float64
        assert matrix.shape == (len(texts), embedder.dimensions)
        for row, text in enumerate(texts):
            expected = _reference_embed(embedder, text)
            assert matrix[row].tobytes() == expected.tobytes(), repr(text)

    def test_all_seed0_row_corpora(self, datasets):
        texts = _corpus_texts(datasets)
        assert len(texts) == 5477
        self._assert_identical(HashingEmbedder(), texts)

    @pytest.mark.parametrize(
        "dimensions,use_trigrams", CONFIGS, ids=lambda v: str(v)
    )
    def test_configs_on_corpus_sample_and_edge_texts(
        self, datasets, dimensions, use_trigrams
    ):
        embedder = HashingEmbedder(dimensions, use_trigrams=use_trigrams)
        texts = _corpus_texts(datasets, stride=9) + EDGE_TEXTS
        self._assert_identical(embedder, texts)

    @pytest.mark.parametrize(
        "dimensions,use_trigrams", CONFIGS, ids=lambda v: str(v)
    )
    def test_single_text_embed(self, dimensions, use_trigrams):
        embedder = HashingEmbedder(dimensions, use_trigrams=use_trigrams)
        for text in EDGE_TEXTS:
            expected = _reference_embed(embedder, text)
            assert embedder.embed(text).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("use_trigrams", [True, False])
    def test_all_degenerate_batch_is_float64(self, use_trigrams):
        # A batch of only sentinel rows never takes the normalizing
        # path; its rows must still come back as float64 (np.bincount
        # over no features, an earlier summing scheme, gave int64).
        embedder = HashingEmbedder(64, use_trigrams=use_trigrams)
        texts = [""] if use_trigrams else ["", "?!", "   "]
        matrix = embedder.embed_batch(texts)
        assert matrix.dtype == np.float64
        assert matrix.shape == (len(texts), 64)
        self._assert_identical(embedder, texts)
