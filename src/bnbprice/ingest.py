"""CSV ingestion of InsideAirbnb-style listings and reviews files.

Rows failing a required-field rule are dropped and tallied by reason,
never coerced; optional fields that fail to parse come back absent and
get imputed downstream. Quoted multi-line fields are supported because
real exports embed newlines inside descriptions and review comments.
"""

import csv
import math
import re
from dataclasses import dataclass
from datetime import date

from .serialize import field


class IngestError(ValueError):
    """Fatal ingest problem: bad header, duplicate ids, unreadable input."""


LISTING_REQUIRED = ("id", "price", "latitude", "longitude", "accommodates", "description")
REVIEW_REQUIRED = ("listing_id", "id", "date", "comments")

# leading "$" and "," separators only; anything else in the field is an error
_PRICE_RE = re.compile(r"^-?\d+(\.\d+)?$")


@dataclass(frozen=True)
class ListingRecord:
    id: int
    city: str
    latitude: float
    longitude: float
    price_usd: float
    accommodates: int
    availability_365: int | None
    reviews_per_month: float | None
    host_is_superhost: bool | None
    host_since: date | None
    neighbourhood: str | None
    room_type: str | None
    bedrooms: float | None
    description: str


@dataclass(frozen=True)
class ReviewRecord:
    listing_id: int
    review_id: int
    date: date
    comments: str


@dataclass(frozen=True)
class Dataset:
    listings: tuple
    reviews_by_listing: dict  # listing id -> tuple of ReviewRecord
    drop_log: dict            # reason -> count


def parse_price(text):
    """Strip a leading dollar sign and comma separators.

    Empty input is absent (None). Malformed residue raises ValueError so
    the caller can log the drop; the function never silently returns 0.
    """
    if text is None:
        return None
    s = text.strip()
    if not s:
        return None
    if s.startswith("$"):
        s = s[1:]
    s = s.replace(",", "")
    if not _PRICE_RE.match(s):
        raise ValueError("malformed price %r" % text)
    return float(s)


def _opt_text(raw):
    if raw is None:
        return None
    s = raw.strip()
    return s if s else None


def _opt_int_in_range(raw, lo, hi):
    s = _opt_text(raw)
    if s is None:
        return None
    try:
        v = int(s)
    except ValueError:
        return None
    return v if lo <= v <= hi else None


def _opt_nonneg_float(raw):
    s = _opt_text(raw)
    if s is None:
        return None
    try:
        v = float(s)
    except ValueError:
        return None
    return v if math.isfinite(v) and v >= 0.0 else None


def _opt_bool(raw):
    # InsideAirbnb encodes booleans as "t"/"f"; anything else is absent
    s = _opt_text(raw)
    if s == "t":
        return True
    if s == "f":
        return False
    return None


def _opt_date(raw):
    s = _opt_text(raw)
    if s is None:
        return None
    try:
        return date.fromisoformat(s)
    except ValueError:
        return None


def parse_listings(csv_stream, city_label):
    """Parse one city's listings CSV into records plus a drop tally.

    The header must contain id, price, latitude, longitude, accommodates
    and description; a missing column is fatal. Each retained record gets
    city set to city_label.
    """
    reader = csv.DictReader(csv_stream)
    if reader.fieldnames is None:
        raise IngestError("empty listings file for %s" % city_label)
    for col in LISTING_REQUIRED:
        if col not in reader.fieldnames:
            raise IngestError("listings header missing column %r" % col)
    records = []
    drops = {}

    def drop(reason):
        drops[reason] = drops.get(reason, 0) + 1

    for row in reader:
        try:
            listing_id = int((row.get("id") or "").strip())
        except ValueError:
            drop("bad id")
            continue
        try:
            lat = float((row.get("latitude") or "").strip())
            lon = float((row.get("longitude") or "").strip())
        except ValueError:
            drop("bad coordinate")
            continue
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            drop("coordinate out of range")
            continue
        try:
            price = parse_price(row.get("price"))
        except ValueError:
            drop("bad price")
            continue
        if price is None:
            drop("missing price")
            continue
        if price <= 0.0:
            drop("nonpositive price")
            continue
        try:
            accommodates = int((row.get("accommodates") or "").strip())
        except ValueError:
            drop("bad accommodates")
            continue
        if accommodates < 1:
            drop("bad accommodates")
            continue
        records.append(ListingRecord(
            id=listing_id,
            city=city_label,
            latitude=lat,
            longitude=lon,
            price_usd=price,
            accommodates=accommodates,
            availability_365=_opt_int_in_range(row.get("availability_365"), 0, 365),
            reviews_per_month=_opt_nonneg_float(row.get("reviews_per_month")),
            host_is_superhost=_opt_bool(row.get("host_is_superhost")),
            host_since=_opt_date(row.get("host_since")),
            neighbourhood=_opt_text(row.get("neighbourhood_cleansed")) or _opt_text(row.get("neighbourhood")),
            room_type=_opt_text(row.get("room_type")),
            bedrooms=_opt_nonneg_float(row.get("bedrooms")),
            description=row.get("description") or "",
        ))
    return records, drops


def parse_reviews(csv_stream):
    """Parse a reviews CSV; rows without a parseable date are dropped.

    Empty comments are retained, they count toward review totals and
    score 0 later.
    """
    reader = csv.DictReader(csv_stream)
    if reader.fieldnames is None:
        raise IngestError("empty reviews file")
    for col in REVIEW_REQUIRED:
        if col not in reader.fieldnames:
            raise IngestError("reviews header missing column %r" % col)
    records = []
    drops = {}
    for row in reader:
        try:
            listing_id = int((row.get("listing_id") or "").strip())
            review_id = int((row.get("id") or "").strip())
        except ValueError:
            drops["bad review id"] = drops.get("bad review id", 0) + 1
            continue
        when = _opt_date(row.get("date"))
        if when is None:
            drops["bad date"] = drops.get("bad date", 0) + 1
            continue
        records.append(ReviewRecord(listing_id=listing_id, review_id=review_id,
                                    date=when, comments=row.get("comments") or ""))
    return records, drops


def join_dataset(listings, reviews, drops=None):
    """Group reviews under their listings, counting orphans.

    Listing order and per-listing review order stay exactly as given.
    A duplicate listing id is fatal.
    """
    merged = dict(drops or {})
    seen = set()
    for rec in listings:
        if rec.id in seen:
            raise IngestError("duplicate listing id %d" % rec.id)
        seen.add(rec.id)
    grouped = {rec.id: [] for rec in listings}
    orphans = 0
    for review in reviews:
        bucket = grouped.get(review.listing_id)
        if bucket is None:
            orphans += 1
        else:
            bucket.append(review)
    if orphans:
        merged["orphan review"] = merged.get("orphan review", 0) + orphans
    return Dataset(
        listings=tuple(listings),
        reviews_by_listing={lid: tuple(rvs) for lid, rvs in grouped.items()},
        drop_log=merged,
    )


def dataset_to_doc(dataset):
    """Flatten a Dataset into the JSON document shape used on disk."""
    return {
        "schema_version": 1,
        "listings": [
            [r.id, r.city, r.latitude, r.longitude, r.price_usd, r.accommodates,
             r.availability_365, r.reviews_per_month, r.host_is_superhost,
             r.host_since.isoformat() if r.host_since else None,
             r.neighbourhood, r.room_type, r.bedrooms, r.description]
            for r in dataset.listings
        ],
        "reviews": {
            str(lid): [[rv.review_id, rv.date.isoformat(), rv.comments] for rv in rvs]
            for lid, rvs in dataset.reviews_by_listing.items()
        },
        "drop_log": dict(dataset.drop_log),
    }


def dataset_from_doc(doc):
    version = field(doc, "schema_version", int, "dataset")
    if version != 1:
        raise IngestError("unsupported dataset schema_version %r" % version)
    listings = tuple(
        ListingRecord(
            id=row[0], city=row[1], latitude=row[2], longitude=row[3],
            price_usd=row[4], accommodates=row[5], availability_365=row[6],
            reviews_per_month=row[7], host_is_superhost=row[8],
            host_since=date.fromisoformat(row[9]) if row[9] else None,
            neighbourhood=row[10], room_type=row[11], bedrooms=row[12],
            description=row[13],
        )
        for row in field(doc, "listings", list, "dataset")
    )
    reviews = {
        int(lid): tuple(ReviewRecord(listing_id=int(lid), review_id=rv[0],
                                     date=date.fromisoformat(rv[1]), comments=rv[2])
                        for rv in rvs)
        for lid, rvs in field(doc, "reviews", dict, "dataset").items()
    }
    return Dataset(listings=listings, reviews_by_listing=reviews,
                   drop_log=dict(field(doc, "drop_log", dict, "dataset")))
