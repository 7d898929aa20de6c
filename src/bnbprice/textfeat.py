"""Text features from reviews and listing descriptions.

Two signals come out of here: a lexicon-averaged sentiment score per
listing and a scalar description score, which projects a listing's unit
TF-IDF vector onto a direction fitted against training log-prices.
"""

import math
import re
from dataclasses import dataclass

from . import np

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text):
    """Lowercase and split on every non-alphanumeric character."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class SentimentLexicon:
    entries: dict[str, int]  # lowercase token -> nonzero integer valence
    max_abs: int             # the largest |valence|

    def __post_init__(self):
        if not self.entries:
            raise ValueError("empty lexicon")
        for token, valence in self.entries.items():
            if not isinstance(valence, int) or valence == 0:
                raise ValueError("valence for %r must be a nonzero integer" % token)
        largest = max(map(abs, self.entries.values()))
        if self.max_abs != largest:
            raise ValueError("max_abs %r must be the largest |valence|, %d"
                             % (self.max_abs, largest))


def lexicon_from_entries(entries):
    return SentimentLexicon(entries=dict(entries),
                            max_abs=max(map(abs, entries.values()), default=0))


def load_lexicon(path):
    """Read a lexicon file of token<TAB>integer_valence lines."""
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                token, raw = line.split("\t")
                valence = int(raw)
            except ValueError:
                raise ValueError("%s:%d: expected token<TAB>integer_valence" % (path, lineno))
            if valence == 0:
                raise ValueError("%s:%d: zero valence not allowed" % (path, lineno))
            entries[token.strip().lower()] = valence
    return lexicon_from_entries(entries)


def load_stopwords(path):
    words = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            word = line.strip().lower()
            if word:
                words.add(word)
    return frozenset(words)


def score_review(text, lexicon):
    """Mean matched valence scaled into [-1, 1]; 0 when nothing matches.

    Every token instance counts, so repeated words weigh more.
    """
    total = 0
    matched = 0
    for tok in tokenize(text):
        valence = lexicon.entries.get(tok)
        if valence is not None:
            total += valence
            matched += 1
    if matched == 0:
        return 0.0
    return (total / matched) / lexicon.max_abs


def listing_sentiment(review_texts, lexicon):
    """Arithmetic mean of per-review scores and the review count.

    A listing without reviews scores a neutral (0.0, 0).
    """
    texts = list(review_texts)
    if not texts:
        return 0.0, 0
    scores = [score_review(t, lexicon) for t in texts]
    return sum(scores) / len(scores), len(scores)


@dataclass(eq=False)
class Vocabulary:
    """Fitted TF-IDF vocabulary: terms in canonical sorted order plus idf."""

    terms: list[str]  # a tuple
    idf: list[float]  # an ndarray
    doc_count: int

    def __post_init__(self):
        self.terms = tuple(self.terms)
        self.idf = np.asarray(self.idf, dtype=float)
        if self.idf.shape != (len(self.terms),):
            raise ValueError("%d idf values for %d terms" % (self.idf.size, len(self.terms)))
        self._index = {t: i for i, t in enumerate(self.terms)}


def build_vocab(train_descriptions, min_df=5, max_terms=500, stopwords=frozenset()):
    """Select terms by document frequency and compute smoothed idf.

    Candidates are non-stopword tokens seen in at least min_df documents;
    the max_terms most frequent survive (ties lexicographic) and are then
    stored sorted lexicographically. idf(t) = ln((1+N)/(1+df(t))) + 1.
    """
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    doc_tokens = [set(tokenize(d)) for d in train_descriptions]
    n_docs = len(doc_tokens)
    if n_docs == 0 or all(not toks for toks in doc_tokens):
        raise ValueError("no descriptions")
    df = {}
    for toks in doc_tokens:
        for t in toks:
            if t not in stopwords:
                df[t] = df.get(t, 0) + 1
    kept = [t for t in df if df[t] >= min_df]
    kept.sort(key=lambda t: (-df[t], t))
    kept = sorted(kept[:max_terms])
    idf = [math.log((1.0 + n_docs) / (1.0 + df[t])) + 1.0 for t in kept]
    return Vocabulary(kept, idf, n_docs)


def tfidf_vector(description, vocab):
    """Raw term counts times idf, scaled to unit length (zero stays zero)."""
    v = np.zeros(len(vocab.terms))
    for tok in tokenize(description):
        i = vocab._index.get(tok)
        if i is not None:
            v[i] += 1.0
    v *= vocab.idf
    norm = math.sqrt(float(np.dot(v, v)))
    if norm > 0.0:
        v /= norm
    return v


@dataclass(eq=False)
class DescriptionDirection:
    """Unit direction in vocabulary space pointing toward expensive listings."""

    weights: list[float]  # an ndarray
    norm: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)


def fit_description_direction(train_vectors, train_log_prices):
    """d_raw = sum_i (y_i - ybar) v_i, unit-normalized (or zero if degenerate)."""
    V = np.asarray(train_vectors, dtype=float)
    y = np.asarray(train_log_prices, dtype=float)
    if V.ndim != 2 or V.shape[0] != y.shape[0] or V.shape[0] == 0:
        raise ValueError("vectors and log-prices must align and be non-empty")
    d_raw = (y - y.mean()) @ V
    norm = math.sqrt(float(np.dot(d_raw, d_raw)))
    if norm > 0.0:
        return DescriptionDirection(d_raw / norm, norm)
    return DescriptionDirection(np.zeros(V.shape[1]), 0.0)


def description_score(vector, direction):
    return float(np.dot(vector, direction.weights))
