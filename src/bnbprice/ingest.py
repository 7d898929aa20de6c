"""CSV ingestion of InsideAirbnb-style listings and reviews files.

`LISTING_CSV` and `REVIEW_CSV` are the one declaration of the CSV schema:
per record field, in field order, the columns it reads, its converter
with its domain rule, and whether the header must hold it. Rows failing a
required field's rule are dropped and tallied by reason, never coerced;
optional fields that fail to parse or break their rule come back absent
and get imputed downstream. A listing stored in `dataset.json` must obey
the same domains, or the file is refused. Quoted multi-line fields are
supported because real exports embed newlines inside descriptions and
review comments.
"""

import collections
import csv
import itertools
import math
import operator
import re
import reprlib
import sys
from dataclasses import dataclass, fields
from datetime import date

from .serialize import field, rows_from_doc, rows_to_doc


class IngestError(ValueError):
    """Fatal ingest problem: bad header, duplicate ids, unreadable input."""


# leading "$" and "," separators only; anything else in the field is an error
_PRICE_RE = re.compile(r"^-?\d+(\.\d+)?$")


@dataclass(frozen=True)
class ListingRecord:
    id: int
    city: str
    latitude: float
    longitude: float
    price_usd: float | None  # None only for an unpriced listing read at predict
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


# one input record left out: its 1-based data record number, its id if parsed, and why
Drop = collections.namedtuple("Drop", "row id reason")


def tally(drops):
    """Drop counts by reason, keyed in the order reasons first occur."""
    return dict(collections.Counter(d.reason for d in drops))


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
    s = (text or "").strip()
    if not s:
        return None
    if s.startswith("$"):
        s = s[1:]
    s = s.replace(",", "")
    if not _PRICE_RE.match(s):
        raise ValueError("malformed price %r" % text)
    return float(s)


class _Refused(Exception):
    """A required cell broke its field's rule; args[0] is the row's drop reason."""


def _parsed(parse, lo, hi, reason=None):
    """Converter of a cell to parse(cell stripped) in [lo, hi], else None or a refusal;
    its domain is (lo, hi)."""
    def convert(cell):
        try:
            value = parse(cell.strip())
            if lo <= value <= hi:
                return value
        except ValueError:
            pass
        if reason:
            raise _Refused(reason)
        return None
    convert.domain = (lo, hi)
    return convert


def _latitude(lat, lon):
    """The latitude of a pair on the globe, so the longitude field reads a checked cell."""
    try:
        lat, lon = float(lat.strip()), float(lon.strip())
    except ValueError:
        raise _Refused("bad coordinate") from None
    lo, hi = _latitude.domain
    if lo <= lat <= hi and -180.0 <= lon <= 180.0:
        return lat
    raise _Refused("coordinate out of range")


_latitude.domain = (-90.0, 90.0)


def _price(required):
    """Converter of a price cell to a finite positive price, or to None if empty and not
    required."""
    lo, hi = math.ulp(0.0), sys.float_info.max  # the finite positive floats
    def convert(cell):
        try:
            price = parse_price(cell)
        except ValueError:
            raise _Refused("bad price") from None
        if price is None and required:
            raise _Refused("missing price")
        if price is None or lo <= price <= hi:
            return price
        raise _Refused("bad price" if price > 0.0 else "nonpositive price")  # > 0: an infinite price
    convert.domain = (lo, hi)
    return convert


def _text(cell, fallback=""):
    """The cell stripped, else the fallback cell stripped; None if both are blank."""
    return cell.strip() or fallback.strip() or None


_BOOLS = {"t": True, "f": False}  # InsideAirbnb's booleans; anything else is absent


def _bool(cell):
    return _BOOLS.get(cell.strip())


# A record field as its CSV table declares it: the columns it reads, the converter of their
# cells, and whether the header must hold them. Only a required field's converter refuses a
# row, with its drop reason; a field without columns is given by the caller. A converter
# with a domain attribute, (lo, hi), gives only values in [lo, hi].
CsvField = collections.namedtuple("CsvField", "field columns convert required")
_ID = (-math.inf, math.inf)  # an id is never a feature, so it may pass float64's 2**53

LISTING_CSV = (
    CsvField("id", ("id",), _parsed(int, *_ID, "bad id"), True),
    CsvField("city", (), None, False),
    CsvField("latitude", ("latitude", "longitude"), _latitude, True),
    CsvField("longitude", ("longitude",), _parsed(float, -180.0, 180.0, "bad coordinate"), True),
    CsvField("price_usd", ("price",), _price(required=True), True),
    CsvField("accommodates", ("accommodates",), _parsed(int, 1, 2**53, "bad accommodates"), True),
    CsvField("availability_365", ("availability_365",), _parsed(int, 0, 365), False),
    CsvField("reviews_per_month", ("reviews_per_month",), _parsed(float, 0.0, 1e6), False),
    CsvField("host_is_superhost", ("host_is_superhost",), _bool, False),
    CsvField("host_since", ("host_since",), _parsed(date.fromisoformat, date.min, date.max), False),
    CsvField("neighbourhood", ("neighbourhood_cleansed", "neighbourhood"), _text, False),
    CsvField("room_type", ("room_type",), _text, False),
    CsvField("bedrooms", ("bedrooms",), _parsed(float, 0.0, 1e6), False),
    CsvField("description", ("description",), str, True),
)
# predict keeps a listing with an empty price, to score it
_UNPRICED_LISTING_CSV = tuple(f._replace(convert=_price(required=False))
                              if f.field == "price_usd" else f for f in LISTING_CSV)
REVIEW_CSV = (
    CsvField("listing_id", ("listing_id",), _parsed(int, *_ID, "bad review id"), True),
    CsvField("review_id", ("id",), _parsed(int, *_ID, "bad review id"), True),
    CsvField("date", ("date",), _parsed(date.fromisoformat, date.min, date.max, "bad date"), True),
    CsvField("comments", ("comments",), str, True),
)


def _reader(field, at, given):
    """The function of a row to field's value, at being its columns' indices in the header."""
    convert = field.convert
    if not at:  # the caller's value, or None
        value = given.get(field.field)
        return lambda row: value
    if len(at) == 1:
        i, = at
        return lambda row: convert(row[i])
    i, j = at
    return lambda row: convert(row[i], row[j])


def _csv_rows(csv_stream, what):
    """csv.reader's rows of csv_stream; a line the csv module refuses (a field over its
    limit, say) is an IngestError naming what and the line."""
    rows = csv.reader(csv_stream)
    try:
        yield from rows
    except csv.Error as exc:
        raise IngestError("%s line %d: %s" % (what, rows.line_num, exc)) from None


def _read_table(csv_stream, what, record, table, key, **given):
    """Records built from the CSV's rows through table, plus a Drop per refused row, which
    carries the value of the field named key if that field was read before the refusal.

    A repeated header name keeps its last column. Blank lines are skipped and not numbered,
    a short row's missing cells read as empty, and a long row's extra cells are never read.
    """
    rows = _csv_rows(csv_stream, what)
    header = next(rows, None)
    if header is None:
        raise IngestError("empty %s file" % what)
    at = {name: i for i, name in enumerate(header)}
    for name in (name for f in table if f.required for name in f.columns):
        if name not in at:
            raise IngestError("%s header missing column %r" % (what, name))
    readers = [_reader(f, [at[name] for name in f.columns if name in at], given) for f in table]
    through = [f.field for f in table].index(key) + 1
    records, drops = [], []
    for number, row in enumerate(filter(None, rows), 1):
        if len(row) < len(header):
            row += [""] * (len(header) - len(row))
        try:
            records.append(record(*[read(row) for read in readers]))
        except _Refused as exc:
            try:  # the key field's value, if it and every field before it read
                value = [read(row) for read in readers[:through]][-1]
            except _Refused:
                value = None
            drops.append(Drop(number, value, exc.args[0]))
    return records, drops


def parse_listings(csv_stream, city_label, require_price=True):
    """One city's listings CSV as records, each with city city_label, plus a list of Drops.
    Without require_price, a listing with an empty price is kept with price_usd None."""
    table = LISTING_CSV if require_price else _UNPRICED_LISTING_CSV
    return _read_table(csv_stream, "listings", ListingRecord, table, "id", city=city_label)


def parse_reviews(csv_stream):
    """A reviews CSV as records plus a list of Drops. Empty comments are retained: they
    count toward review totals and score 0 later."""
    return _read_table(csv_stream, "reviews", ReviewRecord, REVIEW_CSV, "review_id")


def _check_unique_ids(listings):
    seen = set()
    for rec in listings:
        if rec.id in seen:
            raise IngestError("duplicate listing id %d" % rec.id)
        seen.add(rec.id)


def join_dataset(listings, reviews, drops=None):
    """Group reviews under their listings, counting orphans.

    Listing order and per-listing review order stay exactly as given.
    A duplicate listing id is fatal.
    """
    merged = dict(drops or {})
    _check_unique_ids(listings)
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


# (field, annotation) per dataset.json column; ingest keeps only priced listings, so
# a stored price is never null
_LISTING_COLUMNS = tuple((f.name, float if f.name == "price_usd" else f.type)
                         for f in fields(ListingRecord))
# a review row is stored under its listing id, without it
_REVIEW_COLUMNS = tuple((f.name, f.type) for f in fields(ReviewRecord))[1:]


def dataset_to_doc(dataset):
    """Flatten a Dataset into the JSON document shape used on disk."""
    grouped = dataset.reviews_by_listing
    # every review row in one pass, then cut into each listing's share
    rows = iter(rows_to_doc(itertools.chain.from_iterable(grouped.values()), _REVIEW_COLUMNS))
    return {
        "schema_version": 1,
        "listings": rows_to_doc(dataset.listings, _LISTING_COLUMNS),
        "reviews": {str(lid): list(itertools.islice(rows, len(rvs)))
                    for lid, rvs in grouped.items()},
        "drop_log": dict(dataset.drop_log),
    }


def _listing_key(key):
    """The listing id of a reviews key, which dataset_to_doc writes as str(id)."""
    if key.removeprefix("-").isdecimal() and str(int(key)) == key:
        return int(key)
    raise ValueError("dataset: reviews key %r must be a listing id" % key)


def _check_domains(records, table, where):
    """Refuse a record whose field lies outside its converter's domain: a stored value
    obeys the rule its CSV cell did, and is never coerced."""
    for f in table:
        if not hasattr(f.convert, "domain"):
            continue
        lo, hi = f.convert.domain
        values = [v for v in map(operator.attrgetter(f.field), records) if v is not None]
        if values and lo <= min(values) and max(values) <= hi:
            continue
        for number, rec in enumerate(records, 1):
            value = getattr(rec, f.field)
            if value is not None and not lo <= value <= hi:
                raise ValueError("%s row %d: %r must lie in [%r, %r], got %s"
                                 % (where, number, f.field, lo, hi, reprlib.repr(value)))


def dataset_from_doc(doc):
    version = field(doc, "schema_version", int, "dataset")
    if version != 1:
        raise IngestError("unsupported dataset schema_version %r" % version)
    listings = tuple(itertools.starmap(ListingRecord, rows_from_doc(
        field(doc, "listings", list, "dataset"), _LISTING_COLUMNS, "dataset: listings")))
    _check_domains(listings, LISTING_CSV, "dataset: listings")
    grouped = field(doc, "reviews", dict, "dataset")
    lids = list(map(_listing_key, grouped))
    rows = rows_from_doc([rv for rvs in grouped.values() for rv in rvs], _REVIEW_COLUMNS,
                         "dataset: reviews")
    reviews = {lid: tuple(ReviewRecord(lid, *row) for row in itertools.islice(rows, len(rvs)))
               for lid, rvs in zip(lids, grouped.values())}
    _check_unique_ids(listings)
    return Dataset(listings=listings, reviews_by_listing=reviews,
                   drop_log=dict(field(doc, "drop_log", dict, "dataset")))
