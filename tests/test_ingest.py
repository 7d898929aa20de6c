import io

import pytest

from bnbprice import ingest


LISTING_HEADER = ("id,name,description,neighbourhood_cleansed,latitude,longitude,"
                  "room_type,accommodates,bedrooms,price,availability_365,"
                  "reviews_per_month,host_is_superhost,host_since")


def parse(rows, header=LISTING_HEADER):
    text = header + "\n" + "\n".join(rows) + "\n"
    return ingest.parse_listings(io.StringIO(text), "cityx")


def test_parse_price_strips_dollar_and_commas():
    assert ingest.parse_price("$1,234.00") == 1234.0
    assert ingest.parse_price("99") == 99.0
    assert ingest.parse_price(" $7.50 ") == 7.5
    assert ingest.parse_price("") is None
    assert ingest.parse_price(None) is None


def test_parse_price_malformed_raises():
    for bad in ("$", "12.3.4", "USD 40", "4,0,0x"):
        with pytest.raises(ValueError):
            ingest.parse_price(bad)


def test_missing_required_header_is_fatal():
    with pytest.raises(ingest.IngestError):
        ingest.parse_listings(io.StringIO("id,price,latitude,longitude,accommodates\nx\n"), "c")
    with pytest.raises(ingest.IngestError):
        ingest.parse_reviews(io.StringIO("listing_id,id,comments\n"))


def test_row_level_problems_drop_with_reasons():
    rows = [
        '1,a,desc,Mission,34.0,-118.0,Private room,2,1,$100,10,0.5,t,2015-01-01',
        'oops,a,desc,Mission,34.0,-118.0,Private room,2,1,$100,10,0.5,t,2015-01-01',
        '2,a,desc,Mission,word,-118.0,Private room,2,1,$100,10,0.5,t,2015-01-01',
        '3,a,desc,Mission,95.0,-118.0,Private room,2,1,$100,10,0.5,t,2015-01-01',
        '4,a,desc,Mission,34.0,-118.0,Private room,2,1,$x,10,0.5,t,2015-01-01',
        '5,a,desc,Mission,34.0,-118.0,Private room,2,1,,10,0.5,t,2015-01-01',
        '6,a,desc,Mission,34.0,-118.0,Private room,2,1,$0,10,0.5,t,2015-01-01',
        '7,a,desc,Mission,34.0,-118.0,Private room,zero,1,$100,10,0.5,t,2015-01-01',
    ]
    records, drops = parse(rows)
    assert [r.id for r in records] == [1]
    assert ingest.tally(drops) == {"bad id": 1, "bad coordinate": 1,
                                   "coordinate out of range": 1, "bad price": 1,
                                   "missing price": 1, "nonpositive price": 1,
                                   "bad accommodates": 1}
    assert [(d.row, d.id) for d in drops] == [(2, None), (3, 2), (4, 3), (5, 4), (6, 5),
                                              (7, 6), (8, 7)]


def test_unpriced_listing_kept_only_without_require_price():
    rows = [
        '1,a,desc,Mission,34.0,-118.0,Private room,2,1,,10,0.5,t,2015-01-01',
        '2,a,desc,Mission,34.0,-118.0,Private room,2,1,$x,10,0.5,t,2015-01-01',
        '3,a,desc,Mission,34.0,-118.0,Private room,2,1,$0,10,0.5,t,2015-01-01',
    ]
    text = LISTING_HEADER + "\n" + "\n".join(rows) + "\n"
    records, drops = ingest.parse_listings(io.StringIO(text), "c", require_price=False)
    assert [(r.id, r.price_usd) for r in records] == [(1, None)]
    assert [(d.row, d.id, d.reason) for d in drops] == [(2, 2, "bad price"),
                                                       (3, 3, "nonpositive price")]
    records, drops = parse(rows)
    assert records == []
    assert [d.reason for d in drops] == ["missing price", "bad price", "nonpositive price"]


def test_optional_fields_tolerate_garbage():
    row = '8,a,desc,,34.0,-118.0,,2,,$50,900,-3,yes,not-a-date'
    records, drops = parse([row])
    assert drops == []
    rec = records[0]
    assert rec.availability_365 is None  # out of the 0..365 range
    assert rec.reviews_per_month is None  # negative
    assert rec.host_is_superhost is None  # not t/f
    assert rec.host_since is None
    assert rec.neighbourhood is None
    assert rec.room_type is None
    assert rec.bedrooms is None


def test_superhost_t_f_parsing():
    records, _ = parse([
        '1,a,d,M,34,-118,Private room,2,1,$10,0,0,t,2015-01-01',
        '2,a,d,M,34,-118,Private room,2,1,$10,0,0,f,2015-01-01',
    ])
    assert records[0].host_is_superhost is True
    assert records[1].host_is_superhost is False


def test_neighbourhood_cleansed_preferred_over_plain():
    header = "id,description,latitude,longitude,accommodates,price,neighbourhood,neighbourhood_cleansed"
    text = header + "\n9,d,34,-118,2,$10,Raw Name,Clean Name\n10,d,34,-118,2,$10,Raw Only,\n"
    records, _ = ingest.parse_listings(io.StringIO(text), "c")
    assert records[0].neighbourhood == "Clean Name"
    assert records[1].neighbourhood == "Raw Only"


def test_multiline_quoted_description_survives():
    text = (LISTING_HEADER + "\n"
            '1,a,"line one\nline two",M,34,-118,Private room,2,1,$10,0,0,t,2015-01-01\n')
    records, _ = ingest.parse_listings(io.StringIO(text), "c")
    assert records[0].description == "line one\nline two"


def test_reviews_parse_and_drop_reasons():
    text = ("listing_id,id,date,comments\n"
            "1,11,2021-05-01,great stay\n"
            "1,12,not-a-date,fine\n"
            "x,13,2021-05-01,fine\n"
            "2,14,2021-05-02,\n")
    reviews, drops = ingest.parse_reviews(io.StringIO(text))
    assert [r.review_id for r in reviews] == [11, 14]
    assert reviews[1].comments == ""  # retained, scores zero later
    assert ingest.tally(drops) == {"bad date": 1, "bad review id": 1}
    assert [(d.row, d.id) for d in drops] == [(2, 12), (3, None)]


def test_join_counts_orphans_and_keeps_order():
    records, _ = parse([
        '1,a,d,M,34,-118,Private room,2,1,$10,0,0,t,2015-01-01',
        '2,a,d,M,34,-118,Private room,2,1,$10,0,0,t,2015-01-01',
    ])
    text = ("listing_id,id,date,comments\n"
            "2,21,2021-01-02,second\n"
            "99,22,2021-01-03,orphan\n"
            "2,23,2021-01-01,first by file order\n")
    reviews, _ = ingest.parse_reviews(io.StringIO(text))
    dataset = ingest.join_dataset(records, reviews)
    assert dataset.drop_log == {"orphan review": 1}
    assert [rv.review_id for rv in dataset.reviews_by_listing[2]] == [21, 23]
    assert dataset.reviews_by_listing[1] == ()


def test_duplicate_listing_id_is_fatal():
    records, _ = parse([
        '1,a,d,M,34,-118,Private room,2,1,$10,0,0,t,2015-01-01',
        '1,a,d,M,35,-118,Private room,2,1,$10,0,0,t,2015-01-01',
    ])
    with pytest.raises(ingest.IngestError, match="duplicate listing id 1"):
        ingest.join_dataset(records, [])


def test_dataset_doc_round_trip():
    records, drops = parse([
        '1,a,"two\nlines",M,34.25,-118.5,Private room,2,1.0,$10.50,12,0.25,t,2015-01-01',
        '2,a,d,,35,-117,,4,,$99,,,,',
    ])
    text = "listing_id,id,date,comments\n1,5,2020-02-02,nice and clean\n"
    reviews, _ = ingest.parse_reviews(io.StringIO(text))
    dataset = ingest.join_dataset(records, reviews, ingest.tally(drops))
    doc = ingest.dataset_to_doc(dataset)
    back = ingest.dataset_from_doc(doc)
    assert back == dataset


def test_dataset_doc_version_guard():
    with pytest.raises(ingest.IngestError):
        ingest.dataset_from_doc({"schema_version": 99, "listings": [], "reviews": {}})
