"""Synthetic listings with a known price function, for end-to-end checks.

The generator only uses mechanisms the pipeline can express: city
membership (recoverable from coordinates via clustering), review
sentiment built from lexicon tokens, and description tokens with a
monotone price signal. The noiseless log price of every listing lands
in a truth table so a run's attainable r2 can be computed exactly.
"""

import csv
import datetime
import io
import math
import random
from dataclasses import dataclass
from importlib import resources

from . import serialize
from .textfeat import listing_sentiment, load_lexicon

BASE_LOG_PRICE = 4.0
ACCOMMODATES_COEF = 0.35
SENTIMENT_COEF = 0.3
DESCRIPTION_COEF = 0.2
CITY_OFFSET_MAX = 0.35
CITY_GRID_ORIGIN = (33.5, -122.5)
CITY_GRID_STEP = 1.2
COORD_SCATTER_DEG = 0.05

# skewed toward small homes, long tail upward, to keep ln() visibly curved
_ACCOMMODATES_POOL = (1, 1, 2, 2, 2, 3, 3, 4, 4, 5, 6, 8, 10, 12, 16)
_REVIEW_COUNT_POOL = (0, 1, 1, 2, 2, 3, 3, 4, 5)

_POSITIVE_REVIEWS = (
    "wonderful clean spacious comfortable",
    "fantastic great lovely",
    "excellent perfect spotless",
    "amazing cozy charming",
    "friendly helpful responsive great",
    "stunning beautiful relaxing",
)
_NEGATIVE_REVIEWS = (
    "dirty noisy cramped cold",
    "terrible awful horrible",
    "filthy disgusting broken",
    "bad dark outdated",
    "rude unresponsive overpriced",
    "dreadful grim smelly",
)
_MIXED_REVIEWS = (
    "nice good bad cold",
    "good quiet convenient",
    "nice cozy outdated",
    "clean noisy",
    "great worn dull",
)
_REVIEW_POOLS = (_POSITIVE_REVIEWS, _NEGATIVE_REVIEWS, _MIXED_REVIEWS)

_DESCRIPTION_BASES = (
    "bright apartment near the center with fast wifi",
    "sunny room with a view of the park",
    "quiet flat close to transit and cafes",
    "modern studio with a full kitchen",
    "family home with a garden and patio\nfresh linen provided",
    "renovated loft near the river walk",
)
_LUXURY_TOKENS = "luxury premium designer finish"
_BUDGET_TOKENS = "budget cheap basic furnishing"

_NEIGHBOURHOODS = ("Center", "North", "South", "East", "West", "Harbor")
_ROOM_TYPES = ("Entire home/apt", "Entire home/apt", "Private room",
               "Private room", "Shared room", "Hotel room")
_ABSENT_RATE = 0.05


@dataclass(frozen=True)
class SynthSpec:
    n_listings: int = 5000
    n_cities: int = 8
    seed: int = 1
    noise_sigma: float = 0.15


def default_lexicon_path():
    return str(resources.files("bnbprice") / "data" / "lexicon.tsv")


def default_stopwords_path():
    return str(resources.files("bnbprice") / "data" / "stopwords.txt")


def city_centers(n_cities):
    lat0, lon0 = CITY_GRID_ORIGIN
    return [(lat0 + (i // 3) * CITY_GRID_STEP, lon0 + (i % 3) * CITY_GRID_STEP)
            for i in range(n_cities)]


def city_offsets(n_cities):
    if n_cities == 1:
        return [0.0]
    span = 2.0 * CITY_OFFSET_MAX
    return [-CITY_OFFSET_MAX + span * i / (n_cities - 1)
            for i in range(n_cities)]


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def generate(spec):
    """Emit (listings_csv, reviews_csv, truth_csv) as UTF-8 bytes.

    Truth rows record each listing's noiseless ln(price) at full float
    precision so the attainable r2 ceiling can be recomputed exactly.
    """
    if spec.n_listings < 100:
        raise ValueError("n_listings must be at least 100")
    if spec.n_cities < 1:
        raise ValueError("n_cities must be at least 1")
    if not (spec.noise_sigma >= 0.0):
        raise ValueError("noise_sigma must be non-negative")
    rng = random.Random(spec.seed)
    lexicon = load_lexicon(default_lexicon_path())
    centers = city_centers(spec.n_cities)
    offsets = city_offsets(spec.n_cities)

    listing_rows = []
    review_rows = []
    truth_rows = []
    review_id = 1
    for lid in range(1, spec.n_listings + 1):
        city = rng.randrange(spec.n_cities)
        lat = centers[city][0] + rng.gauss(0.0, COORD_SCATTER_DEG)
        lon = centers[city][1] + rng.gauss(0.0, COORD_SCATTER_DEG)
        accommodates = rng.choice(_ACCOMMODATES_POOL)

        desc_signal = rng.choice((-1, 0, 1))
        description = rng.choice(_DESCRIPTION_BASES)
        if desc_signal > 0:
            description = description + " " + _LUXURY_TOKENS
        elif desc_signal < 0:
            description = description + " " + _BUDGET_TOKENS

        pool = _REVIEW_POOLS[rng.randrange(len(_REVIEW_POOLS))]
        comments = [rng.choice(pool)
                    for _ in range(rng.choice(_REVIEW_COUNT_POOL))]
        for text in comments:
            day = datetime.date(2019, 1, 1) + datetime.timedelta(
                days=rng.randrange(900))
            review_rows.append([lid, review_id, day.isoformat(),
                                70000 + review_id, "guest", text])
            review_id += 1
        sentiment = listing_sentiment(comments, lexicon)[0]

        ln_true = (BASE_LOG_PRICE
                   + ACCOMMODATES_COEF * math.log(accommodates)
                   + offsets[city]
                   + SENTIMENT_COEF * sentiment
                   + DESCRIPTION_COEF * desc_signal)
        price = math.exp(ln_true + rng.gauss(0.0, spec.noise_sigma))

        def opt(value):
            return "" if rng.random() < _ABSENT_RATE else value

        bedrooms = opt(str(max(1, accommodates // 2)))
        availability = opt(str(rng.randrange(366)))
        rpm = opt("%.2f" % (rng.random() * 4.0))
        superhost = opt(rng.choice(("t", "f")))
        since = opt((datetime.date(2010, 1, 1) + datetime.timedelta(
            days=rng.randrange(3200))).isoformat())
        neighbourhood = opt("city%d %s" % (city, rng.choice(_NEIGHBOURHOODS)))
        room_type = opt(rng.choice(_ROOM_TYPES))

        listing_rows.append([
            lid, "listing %d" % lid, description, neighbourhood,
            "%.6f" % lat, "%.6f" % lon, room_type, accommodates, bedrooms,
            "$" + format(price, ",.2f"), availability, rpm, superhost, since,
        ])
        truth_rows.append([lid, serialize.format_float(ln_true)])

    listings = _csv_text(
        ["id", "name", "description", "neighbourhood_cleansed", "latitude",
         "longitude", "room_type", "accommodates", "bedrooms", "price",
         "availability_365", "reviews_per_month", "host_is_superhost",
         "host_since"],
        listing_rows)
    reviews = _csv_text(
        ["listing_id", "id", "date", "reviewer_id", "reviewer_name",
         "comments"],
        review_rows)
    truth = _csv_text(["id", "ln_price_true"], truth_rows)
    return (listings.encode("utf-8"), reviews.encode("utf-8"),
            truth.encode("utf-8"))
