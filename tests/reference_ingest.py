"""Test oracle: the csv.DictReader parsers that the declared CSV tables replaced.

`parse_listings` and `parse_reviews` below are the hand-written parsers,
one `row.get` and one `try` block per field. The ingest domain rules
that came with the tables are added as separate lines, each marked
`# domain rule`, so `ingest.parse_listings` and `ingest.parse_reviews`
can be checked against them record for record and drop for drop.
"""

import csv
import math
from datetime import date

from bnbprice.ingest import Drop, IngestError, ListingRecord, ReviewRecord, parse_price

LISTING_REQUIRED = ("id", "price", "latitude", "longitude", "accommodates", "description")
REVIEW_REQUIRED = ("listing_id", "id", "date", "comments")


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


def _at_most_1e6(v):  # domain rule
    return v if v is None or v <= 1e6 else None  # domain rule


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


def parse_listings(csv_stream, city_label, require_price=True):
    """Parse one city's listings CSV into records plus a list of Drops.

    The header must contain id, price, latitude, longitude, accommodates
    and description; a missing column is fatal. Each retained record gets
    city set to city_label. Without require_price, a listing with an empty
    price is kept with price_usd None.
    """
    reader = csv.DictReader(csv_stream)
    if reader.fieldnames is None:
        raise IngestError("empty listings file for %s" % city_label)
    for col in LISTING_REQUIRED:
        if col not in reader.fieldnames:
            raise IngestError("listings header missing column %r" % col)
    records = []
    drops = []
    for number, row in enumerate(reader, 1):
        try:
            listing_id = int((row.get("id") or "").strip())
        except ValueError:
            drops.append(Drop(number, None, "bad id"))
            continue
        try:
            lat = float((row.get("latitude") or "").strip())
            lon = float((row.get("longitude") or "").strip())
        except ValueError:
            drops.append(Drop(number, listing_id, "bad coordinate"))
            continue
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            drops.append(Drop(number, listing_id, "coordinate out of range"))
            continue
        try:
            price = parse_price(row.get("price"))
        except ValueError:
            drops.append(Drop(number, listing_id, "bad price"))
            continue
        if price is not None and not math.isfinite(price):  # domain rule
            drops.append(Drop(number, listing_id, "bad price"))  # domain rule
            continue  # domain rule
        if price is None and require_price:
            drops.append(Drop(number, listing_id, "missing price"))
            continue
        if price is not None and price <= 0.0:
            drops.append(Drop(number, listing_id, "nonpositive price"))
            continue
        try:
            accommodates = int((row.get("accommodates") or "").strip())
        except ValueError:
            drops.append(Drop(number, listing_id, "bad accommodates"))
            continue
        if accommodates < 1:
            drops.append(Drop(number, listing_id, "bad accommodates"))
            continue
        if accommodates > 2**53:  # domain rule
            drops.append(Drop(number, listing_id, "bad accommodates"))  # domain rule
            continue  # domain rule
        records.append(ListingRecord(
            id=listing_id,
            city=city_label,
            latitude=lat,
            longitude=lon,
            price_usd=price,
            accommodates=accommodates,
            availability_365=_opt_int_in_range(row.get("availability_365"), 0, 365),
            reviews_per_month=_at_most_1e6(_opt_nonneg_float(row.get("reviews_per_month"))),
            host_is_superhost=_opt_bool(row.get("host_is_superhost")),
            host_since=_opt_date(row.get("host_since")),
            neighbourhood=_opt_text(row.get("neighbourhood_cleansed")) or _opt_text(row.get("neighbourhood")),
            room_type=_opt_text(row.get("room_type")),
            bedrooms=_at_most_1e6(_opt_nonneg_float(row.get("bedrooms"))),
            description=row.get("description") or "",
        ))
    return records, drops


def parse_reviews(csv_stream):
    """Parse a reviews CSV; rows without parseable ids or date become Drops.

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
    drops = []
    for number, row in enumerate(reader, 1):
        try:
            listing_id = int((row.get("listing_id") or "").strip())
            review_id = int((row.get("id") or "").strip())
        except ValueError:
            drops.append(Drop(number, None, "bad review id"))
            continue
        when = _opt_date(row.get("date"))
        if when is None:
            drops.append(Drop(number, review_id, "bad date"))
            continue
        records.append(ReviewRecord(listing_id=listing_id, review_id=review_id,
                                    date=when, comments=row.get("comments") or ""))
    return records, drops
