import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bnbprice import textfeat


def test_tokenize_lowercases_and_splits_on_non_word():
    assert textfeat.tokenize("Great, QUIET place!") == ["great", "quiet", "place"]
    assert textfeat.tokenize("wi-fi_fast café") == ["wi", "fi", "fast", "café"]
    assert textfeat.tokenize("") == []


def test_score_review_hand_examples():
    lex = textfeat.lexicon_from_entries({"great": 3, "dirty": -2})
    score = textfeat.score_review("great place but dirty bathroom", lex)
    assert score == pytest.approx((3 - 2) / 2 / 3, abs=1e-12)

    lex2 = textfeat.lexicon_from_entries({"good": 3})
    assert textfeat.score_review("good good good", lex2) == pytest.approx(1.0)
    assert textfeat.score_review("nothing matches here", lex2) == 0.0


def test_listing_sentiment_mean_and_count():
    lex = textfeat.lexicon_from_entries({"great": 3, "dirty": -2, "good": 3})
    texts = ["great place but dirty bathroom", "good good good"]
    mean, count = textfeat.listing_sentiment(texts, lex)
    assert count == 2
    assert mean == pytest.approx((1 / 6 + 1.0) / 2, abs=1e-12)
    assert textfeat.listing_sentiment([], lex) == (0.0, 0)


def test_lexicon_rejects_zero_valence_and_empty():
    with pytest.raises(ValueError):
        textfeat.lexicon_from_entries({"meh": 0})
    with pytest.raises(ValueError):
        textfeat.lexicon_from_entries({})


def test_load_lexicon_reports_line_numbers(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("good\t2\nbroken line\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"lex\.tsv:2"):
        textfeat.load_lexicon(path)


def test_build_vocab_idf_hand_example():
    vocab = textfeat.build_vocab(["cozy beach house", "beach condo"],
                                 min_df=1, max_terms=10)
    assert vocab.terms == ("beach", "condo", "cozy", "house")
    by = dict(zip(vocab.terms, vocab.idf))
    assert by["beach"] == pytest.approx(math.log(3 / 3) + 1, abs=1e-9)
    assert by["cozy"] == pytest.approx(math.log(3 / 2) + 1, abs=1e-9)

    only_beach = textfeat.build_vocab(["cozy beach house", "beach condo"],
                                      min_df=2, max_terms=10)
    assert only_beach.terms == ("beach",)


def test_build_vocab_stopwords_and_caps():
    docs = ["the beach view", "the beach house", "the house condo"]
    vocab = textfeat.build_vocab(docs, 1, 2, stopwords=frozenset({"the"}))
    # beach and house tie at df=2 and beat view/condo; stored sorted
    assert vocab.terms == ("beach", "house")


def test_build_vocab_empty_corpus_errors():
    with pytest.raises(ValueError, match="no descriptions"):
        textfeat.build_vocab([], 1, 10)
    with pytest.raises(ValueError, match="no descriptions"):
        textfeat.build_vocab(["", "  "], 1, 10)


def test_tfidf_vector_hand_example():
    vocab = textfeat.build_vocab(["cozy beach house", "beach condo"],
                                 min_df=1, max_terms=10)
    v = textfeat.tfidf_vector("cozy beach house", vocab)
    idx = {t: i for i, t in enumerate(vocab.terms)}
    idf_cozy = math.log(1.5) + 1
    length = math.sqrt(1.0 + 2 * idf_cozy ** 2)
    assert length == pytest.approx(2.22501, abs=1e-5)
    assert v[idx["beach"]] == pytest.approx(1.0 / length, abs=1e-5)
    assert v[idx["beach"]] == pytest.approx(0.44944, abs=1e-5)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_tfidf_vector_degenerate_cases():
    vocab = textfeat.build_vocab(["cozy beach house", "beach condo"], 1, 10)
    assert not textfeat.tfidf_vector("", vocab).any()
    idx = {t: i for i, t in enumerate(vocab.terms)}
    one = textfeat.tfidf_vector("beach beach", vocab)
    assert one[idx["beach"]] == pytest.approx(1.0)
    assert np.count_nonzero(one) == 1


def test_description_direction_signs_and_degenerate_zero():
    # v1 = e_beach with high price, v2 = e_condo with low price
    V = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([math.log(400), math.log(100)])
    d = textfeat.fit_description_direction(V, y)
    assert d.weights[0] > 0 > d.weights[1]
    assert abs(d.weights[0]) == pytest.approx(abs(d.weights[1]), abs=1e-12)

    # identical vectors with exactly-representable mean cancel exactly
    same = np.array([[0.5, 0.5], [0.5, 0.5]])
    flat = textfeat.fit_description_direction(same, np.array([2.0, 4.0]))
    assert flat.norm == 0.0
    assert not flat.weights.any()

    # single doc: y - ybar is exactly zero, direction degenerates to zero
    solo = textfeat.fit_description_direction(V[:1], y[:1])
    assert solo.norm == 0.0
    assert not solo.weights.any()


def test_description_score_is_projection():
    vocab = textfeat.build_vocab(["cozy beach house", "beach condo"], 1, 10)
    direction = textfeat.DescriptionDirection(
        np.array([0.6, 0.0, 0.8, 0.0]), 1.0)
    v = textfeat.tfidf_vector("beach cozy", vocab)
    assert textfeat.description_score(v, direction) == pytest.approx(
        0.6 * v[0] + 0.8 * v[2], abs=1e-12)
    assert textfeat.description_score(
        textfeat.tfidf_vector("unknown words", vocab), direction) == 0.0


def reference_vocab(descriptions, min_df, max_terms, stopwords):
    """build_vocab as the per-document set count it was defined by."""
    doc_tokens = [set(textfeat.tokenize(d)) for d in descriptions]
    df = {}
    for toks in doc_tokens:
        for t in toks:
            if t not in stopwords:
                df[t] = df.get(t, 0) + 1
    kept = sorted(t for t in df if df[t] >= min_df)
    kept = sorted(sorted(kept, key=lambda t: (-df[t], t))[:max_terms])
    n = len(doc_tokens)
    return kept, [math.log((1.0 + n) / (1.0 + df[t])) + 1.0 for t in kept]


# 60 plain words, so a vocabulary can be wider than BLAS's unrolled blocks, plus
# non-ASCII ones; "Straße" and "ÉTÉ" lowercase on the way in
WORDS = ["w%d" % i for i in range(60)] + ["café", "Straße", "naïve", "ÉTÉ", "日本", "ß"]
SEPARATORS = [" ", ", ", "-", "_", "! ", "\n"]


TEXTS = st.lists(st.lists(st.tuples(st.sampled_from(WORDS), st.sampled_from(SEPARATORS)),
                          max_size=25).map(lambda pairs: "".join(w + s for w, s in pairs)),
                 max_size=30)


@st.composite
def texts_and_vocab(draw):
    texts = draw(TEXTS)
    # any subset of the words, including none or one, plus terms no text holds
    pool = sorted(set(t for w in WORDS for t in textfeat.tokenize(w)) | {"absent", "zz"})
    terms = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    idf = draw(st.lists(st.floats(0.5, 20.0), min_size=len(terms), max_size=len(terms)))
    weights = draw(st.lists(st.floats(-1e3, 1e3), min_size=len(terms), max_size=len(terms)))
    return texts, textfeat.Vocabulary(terms, idf, 7), np.array(weights)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(case=texts_and_vocab(), rows=st.integers(1, 31))
@example(case=([], textfeat.Vocabulary([], [], 1), np.zeros(0)), rows=1)
@example(case=(["", "café café", "x"], textfeat.Vocabulary([], [], 1), np.zeros(0)), rows=2)
@example(case=(["café Café CAFÉ", "ß ss", ""], textfeat.Vocabulary(["café"], [1.5], 3),
               np.array([-2.0])), rows=1)
def test_tfidf_block_rows_and_scores_are_the_per_row_functions_bit_for_bit(case, rows):
    texts, vocab, weights = case
    direction = textfeat.DescriptionDirection(weights, 1.0)
    tokens = textfeat.tokenize_all(texts)
    assert len(tokens) == len(texts)
    block, = tokens.tfidf_blocks(vocab)
    assert block.shape == (len(texts), len(vocab.terms))
    blocks = list(tokens.tfidf_blocks(vocab, rows))
    # no text still makes one, empty, block
    assert [len(b) for b in blocks] == [min(rows, len(texts) - i)
                                        for i in range(0, max(len(texts), 1), rows)]
    assert same_bits(np.concatenate([block[:0], *blocks]), block)
    scores = textfeat.description_scores(tokens, vocab, direction)
    assert scores.shape == (len(texts),)
    for text, row, score in zip(texts, block, scores):
        vector = textfeat.tfidf_vector(text, vocab)
        assert same_bits(row, vector), text
        assert score == textfeat.description_score(vector, direction), text


def test_dense_tfidf_rows_and_scores_are_the_per_row_functions_bit_for_bit(monkeypatch):
    # long texts over many terms with irregular idf and weights: a batched
    # product (matmul, einsum) adds these rows in another order and differs
    rng = np.random.RandomState(11)
    texts = [" ".join(rng.choice(WORDS, size=rng.randint(0, 90))) for _ in range(300)]
    terms = sorted({t for w in WORDS for t in textfeat.tokenize(w)})
    vocab = textfeat.Vocabulary(terms, rng.uniform(0.5, 20.0, len(terms)), 300)
    direction = textfeat.DescriptionDirection(rng.uniform(-1e3, 1e3, len(terms)), 1.0)
    tokens = textfeat.tokenize_all(texts)
    block, = tokens.tfidf_blocks(vocab)
    vectors = np.array([textfeat.tfidf_vector(text, vocab) for text in texts])
    assert same_bits(block, vectors)
    expected = [textfeat.description_score(v, direction) for v in vectors]
    # the scores come a block of rows at a time; 300 texts make 7 blocks of 45 and less
    monkeypatch.setattr(textfeat, "SCORE_BLOCK_ROWS", 45)
    assert textfeat.description_scores(tokens, vocab, direction).tolist() == expected


@settings(max_examples=200, deadline=None)
@given(texts=TEXTS, min_df=st.integers(1, 4), max_terms=st.integers(1, 70),
       stopwords=st.sets(st.sampled_from(["w0", "w1", "café", "ß"])))
def test_tokens_vocab_is_the_per_document_count(texts, min_df, max_terms, stopwords):
    expected_terms, expected_idf = reference_vocab(texts, min_df, max_terms, stopwords)
    if not any(textfeat.tokenize(t) for t in texts):
        with pytest.raises(ValueError, match="no descriptions"):
            textfeat.build_vocab(texts, min_df, max_terms, stopwords)
        return
    vocab = textfeat.build_vocab(texts, min_df, max_terms, stopwords)
    assert vocab.terms == tuple(expected_terms)
    assert vocab.idf.tolist() == expected_idf
    assert vocab.doc_count == len(texts)
