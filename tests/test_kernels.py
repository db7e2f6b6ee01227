"""Per-kernel batch↔row consistency + reference-semantics spot checks
(mirrors the reference's per-UDF test files,
engine/stdlib/udfs/tests/ — SURVEY §5)."""

import numpy as np
import pyarrow as pa
import pytest

from osprey_ray.expr import EvalContext, ExprError
from osprey_ray.kernels import get_kernel, list_kernels
from osprey_ray.kernels.misc import murmur3_32


def run_both(name, data: dict, consts: dict, n=None):
    """Run a kernel batch-wise and row-wise; return (batch list, row list)."""
    k = get_kernel(name)
    n = n or len(next(iter(data.values())))
    tbl = pa.table({"_dummy": list(range(n))})
    ctx = EvalContext(tbl)
    arrays = {key: pa.array(vals) for key, vals in data.items()}
    batch_out = k.batch(ctx, **arrays, **consts).to_pylist()
    row_out = []
    for i in range(n):
        kw = {key: vals[i] for key, vals in data.items()}
        try:
            row_out.append(k.row(None, **kw, **consts))
        except ExprError:
            row_out.append(None)
        except Exception:
            row_out.append(None)
    return batch_out, row_out


TEXTS = ["Hello World", "", None, "the QUICK brown", "héllo wörld", "a b c"]

CASES = [
    ("StringLength", {"target": TEXTS}, {}),
    ("ToLower", {"target": TEXTS}, {}),
    ("ToUpper", {"target": TEXTS}, {}),
    ("StartsWith", {"target": TEXTS}, {"prefix": "He"}),
    ("EndsWith", {"target": TEXTS}, {"suffix": "ld"}),
    ("Strip", {"target": ["  x  ", None, "y"]}, {}),
    ("LStrip", {"target": ["  x  ", None]}, {}),
    ("RStrip", {"target": ["  x  ", None]}, {}),
    ("Replace", {"target": TEXTS}, {"old": "o", "new": "0"}),
    ("Split", {"target": ["a b c", None, ""]}, {"sep": " "}),
    ("StringContains", {"target": TEXTS}, {"substring": "hello"}),
    ("StringContains", {"target": TEXTS}, {"substring": "brown", "word": True}),
    # word boundary abutting non-ASCII letters: RE2 \b is ASCII-only, so both
    # paths use an explicit Unicode class — these rows would diverge under \b
    ("StringContains", {"target": ["helloé", "héllo hello there", "xhello", "hello"]},
     {"substring": "hello", "word": True}),
    ("SubstrCount", {"target": TEXTS}, {"substring": "o"}),
    ("RegexMatch", {"target": TEXTS}, {"pattern": r"w.rld", "case_insensitive": True}),
    ("RegexExtract", {"target": TEXTS}, {"pattern": r"(\w+)$"}),
    # r5 vectorized-path parity: RE2 rewrite (group naming, no-group wrap,
    # non-capturing prefix, class parens), $-semantics fallback (trailing
    # newline), Unicode \w patch rows, ci flag, backref full fallback
    ("RegexExtract", {"target": ["ab12cd", "xyz", None, "", "tél 42"]}, {"pattern": r"(\d+)"}),
    ("RegexExtract", {"target": ["HeLLo world", "nope"]}, {"pattern": r"hello", "case_insensitive": True}),
    ("RegexExtract", {"target": ["a-b", "c-d", "nodash"]}, {"pattern": r"(?:\w)-(\w)"}),
    ("RegexExtract", {"target": ["x(1)", "[y]2"]}, {"pattern": r"\((\d)\)"}),
    ("RegexExtract", {"target": ["end\n", "end"]}, {"pattern": r"(end)$"}),
    ("RegexExtract", {"target": ["café word", "abc def"]}, {"pattern": r"(\w+)"}),
    ("RegexExtract", {"target": ["aa", "ab"]}, {"pattern": r"(.)\1"}),
    ("RegexExtract", {"target": ["k=v; b=2", ""]}, {"pattern": r"b=([^;]*)"}),
    ("RegexMatchMap", {"target": [["spam mail", "ok"], [], None, ["tölt", "x1"]]}, {"pattern": r"\w\d"}),
    ("RegexMatchMap", {"target": [["abc", "abd"], ["zz"]]}, {"pattern": r"ab", "mode": "all"}),
    ("RegexMatchMap", {"target": [["end\n"], ["end"]]}, {"pattern": r"end$", "mode": "any"}),
    ("RegexMatchMap", {"target": [[None, "hit9"], [None]]}, {"pattern": r"\d", "mode": "all"}),
    ("StringExtractURLs", {"target": ["go to https://a.com/x now", None, "none"]}, {}),
    ("StringExtractDomains", {"target": ["https://A.com/x http://b.co.uk/y", None]}, {}),
    ("HashMd5", {"target": ["abc", None]}, {}),
    ("HashSha256", {"target": ["abc", None]}, {}),
    ("Base64Encode", {"target": ["abc", None]}, {}),
    ("Base64Decode", {"target": ["YWJj", None, "!!!"]}, {}),
    ("StringClean", {"target": ["FRĖE  M0ney", None, "plain"]}, {}),
    ("CheckCensorized", {"target": ["frėe montey now", "f r e e  m o n e y", "hi there", None]}, {"words": ("free money",)}),
    ("Tokenize", {"target": ["Héllo, World! x2", None]}, {}),
    ("ListLength", {"target": [["a", "b"], None, []]}, {}),
    ("ListRead", {"target": [["a", "b"], None, []]}, {"index": 1}),
    ("ListSort", {"target": [["b", "a"], None]}, {}),
    ("ListContains", {"target": [["a", "b"], ["x"], None, []]}, {"values": ("b", "z")}),
    ("ListContainsCount", {"target": [["a", "b", "b"], ["x"], None]}, {"values": ("b",)}),
    ("RegexListContains", {"target": [["abc", "def"], ["xyz"], None]}, {"patterns": ("a.c",)}),
    ("ConcatStringLists", {"left": [["a"], None], "right": [["b"], ["c"]]}, {}),
    ("EmailDomain", {"target": ["a@sub.mail.co.uk", "bad", None, "x@y.com"]}, {}),
    ("EmailSubdomain", {"target": ["a@sub.mail.co.uk", None]}, {}),
    ("EmailLocalPart", {"target": ["a.b@y.com", "bad", None]}, {}),
    ("DomainTld", {"target": ["a.co.uk", "x.com", "plain", None]}, {}),
    ("RootDomain", {"target": ["deep.sub.example.com", "a.co.uk", None]}, {}),
    ("DomainChopper", {"target": [["https://a.b.com/x", "c.co.uk"], None]}, {}),
    ("IpNetwork", {"target": ["192.168.12.34", "2001:0db8::1", "bad", None]}, {}),
    ("PhonePrefix", {"target": ["+49 170 123", "+1 555 0100", "xxx", None]}, {}),
    ("PhoneCountry", {"target": ["+49 170 123", "+1 555 0100", None]}, {}),
    ("ExtractCookie", {"header": ["a=1; b=2", "x=9", None]}, {"name": "b"}),
    ("TimeDelta", {}, {"minutes": 5}),
    ("ResolveOptional", {"target": ["x", None]}, {"default": "d"}),
    ("Entity", {"id": ["u1", None]}, {"type": "user"}),
    ("RandomBool", {"key": ["a", "b", None]}, {"percentage": 50}),
    ("RandomInt", {"key": ["a", "b", None]}, {"start": 0, "end": 9}),
    ("ExperimentBucket", {"entity": ["u1", "u2", None]}, {"name": "exp1"}),
    ("JsonData", {"target": ['{"a": {"b": 3}}', "notjson", None]}, {"path": "$.a.b", "required": False}),
    ("ExtractEmoji", {"target": ["hi 😀🚀 there ✈", "none", None]}, {}),
    ("CensorizedListContains", {"target": [["frėe", "m0ney"], ["ok"], None]}, {"words": ("m0ney",)}),
    ("EntityJson", {"target": ['{"did": "u99"}', "bad", None]}, {"type": "user", "path": "$.did"}),
    ("DidFromUri", {"target": ["at://did:plc:abc123/app.bsky.feed.post/xyz", "https://x", None]}, {}),
    ("MXLookup", {"target": ["example.com", "other.org", None]}, {}),
    ("LinksFromFacets", {"facets": ['[{"features":[{"$type":"app.bsky.richtext.facet#link","uri":"https://A.com"}]}]', "[]", None]}, {}),
    ("MentionsFromFacets", {"facets": ['[{"features":[{"$type":"app.bsky.richtext.facet#mention","did":"did:plc:X"}]}]', None]}, {}),
    ("TagsFromFacets", {"facets": ['[{"features":[{"$type":"app.bsky.richtext.facet#tag","tag":"T"}]}]', "notjson"]}, {}),
    ("SimpleListContains", {"target": [["free money"], ["none"], None]}, {"words": ("free",)}),
    ("ExtractListDomains", {"target": [["https://A.com/x", "http://b.co/y"], [], None]}, {}),
    ("Experiment", {"entity": ["u1", "u2", None]},
     {"name": "exp", "buckets": ("control", "treatment"), "bucket_sizes": (50.0, 50.0)}),
    # adversarial vectorized-kernel parity (r4: net family vectorized)
    ("EmailDomain", {"target": ["a@b@c.co.uk", "@x.com", "a@", "a@B.Example.ORG.", "a\nb@x.com", ""]}, {}),
    ("EmailSubdomain", {"target": ["a@b@Sub.X.COM", "@", "weird@a..b", ""]}, {}),
    ("EmailLocalPart", {"target": ["UP.per@x.com", "a@b@c.d", "@x", "a@"]}, {}),
    ("DomainTld", {"target": ["a..b", "..", ".", "", "x.CO.UK.", "single"]}, {}),
    ("RootDomain", {"target": ["a..b.c", "..x..", "Deep.Sub.co.uk", "", "."]}, {}),
    ("IpNetwork", {"target": ["10.0.0.255", " 1.2.3.4 ", "256.1.1.1", "01.2.3.4", "::1", "2001:DB8:0:0:0:0:0:1", "1.2.3", ""]}, {}),
    ("ExtractCookie", {"header": ["b", "b=", "b ; b=2", " b = 1; c=2", "a=1;b=x=y", "xb=1; b=2 ", "b=v ;c=1"]}, {"name": "b"}),
    # adversarial vectorized-kernel parity (r5: the last four rowwise loops)
    ("PhonePrefix", {"target": ["+49 170", "001", "12", "1", "", "abc", "٤٩ ١٢٣", "＋４４ ７７", "+999", None]}, {}),
    ("PhoneCountry", {"target": ["+49x", "+1 (555)", "۹۸-21", "nope", "+351 9", None, ""]}, {}),
    ("DomainChopper", {"target": [["https://A.Co.UK/x", "b.com:8080", "http://", "", " lead.com"], [], [None, "plain"], None, ["юникод.рф/д", "x.com"]]}, {}),
    ("Base64Decode", {"target": ["YWJj", "YQ==", "YWI=", "", "YQ=", "YQ===", "Y WJj", "####", "/w==", "gA==", "YWJjZA==", None, "4pyT"]}, {}),
]


@pytest.mark.parametrize("name,data,consts", CASES, ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
def test_kernel_batch_row_parity(name, data, consts):
    n = len(next(iter(data.values()))) if data else 3
    batch_out, row_out = run_both(name, data, consts, n=n)
    assert batch_out == row_out, f"{name}: batch {batch_out} != row {row_out}"


@pytest.mark.parametrize("name,data,consts", CASES, ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
def test_kernel_batch_zero_rows(name, data, consts):
    """A 0-row slice of every case's input (an empty epoch, or a schema
    derived from an empty table) gives a 0-length array."""
    ctx = EvalContext(pa.table({"_dummy": pa.array([], pa.int64())}))
    arrays = {key: pa.array(vals).slice(0, 0) for key, vals in data.items()}
    out = get_kernel(name).batch(ctx, **arrays, **consts)
    assert isinstance(out, pa.Array) and len(out) == 0


def test_all_kernels_have_a_case():
    covered = {c[0] for c in CASES} | {
        "HashSha1", "HashSha512", "Join", "ForceString", "RegexMatchMap",
        "Coalesce", "GetActionName", "TimeSince", "GetTimestampBucket",
        "GetTimedeltaBucket", "GetSnowflakeBucket",
    }
    missing = set(list_kernels()) - covered
    assert not missing, f"kernels without a test case: {missing}"


def test_time_buckets():
    ts = pa.array([1_700_000_123_000_000], pa.timestamp("us"))
    tbl = pa.table({"ts": ts})
    ctx = EvalContext(tbl)
    k = get_kernel("GetTimestampBucket")
    out = k.batch(ctx, timestamp=ts.combine_chunks() if hasattr(ts, "combine_chunks") else ts, bucket_seconds=3600)
    assert out[0].as_py() == (1_700_000_123 // 3600) * 3600
    import datetime

    rv = k.row(None, timestamp=datetime.datetime(2023, 11, 14, 22, 15, 23), bucket_seconds=3600)
    assert rv == out[0].as_py()


def test_time_since_uses_ts_column():
    t0 = 1_700_000_000_000_000
    tbl = pa.table({"ts": pa.array([t0 + 90_000_000], pa.timestamp("us"))})
    ctx = EvalContext(tbl)
    k = get_kernel("TimeSince")
    out = k.batch(ctx, timestamp=pa.array([t0], pa.timestamp("us")))
    assert out[0].as_py() == 90.0


def test_murmur3_test_vectors():
    # public murmur3-x86-32 test vectors
    assert murmur3_32(b"", 0) == 0
    assert murmur3_32(b"", 1) == 0x514E28B7
    assert murmur3_32(b"abc", 0) == 0xB3DD93FA
    assert murmur3_32(b"test", 0) == 0xBA6BD213
    assert murmur3_32(b"Hello, world!", 0) == 0xC0363E43
    assert murmur3_32(b"The quick brown fox jumps over the lazy dog", 0) == 0x2E4FF723


def test_experiment_bucket_range():
    k = get_kernel("ExperimentBucket")
    v = k.row(None, name="exp", entity="user123")
    assert 0 <= v < 10_000
    # deterministic
    assert v == k.row(None, name="exp", entity="user123")


def test_censorize_catches_planted_variants():
    from osprey_ray.datagen import SPAM_PHRASES

    k = get_kernel("CheckCensorized")
    for phrase in SPAM_PHRASES:
        assert k.row(None, target=str(phrase), words=("free money",)) is True


FACETS_JSON = [
    '[{"features":[{"$type":"app.bsky.richtext.facet#link","uri":"https://EX.com/a"},'
    '{"$type":"app.bsky.richtext.facet#mention","did":"did:plc:ABC"}]},'
    '{"features":[{"$type":"app.bsky.richtext.facet#tag","tag":"HotTag"}]}]',
    '[]',
    None,
    '[{"nofeatures":true},{"features":[{"$type":"app.bsky.richtext.facet#tag","tag":"late"}]}]',
    '[{"features":[{"$type":"app.bsky.richtext.facet#link"},{"notype":1}]}]',
]


def test_facets_extractors():
    """Reference parity (facets.py:36-103): lowercased values, facet without
    'features' stops the scan, missing $type/value-key skipped."""
    b, r = run_both("LinksFromFacets", {"facets": FACETS_JSON}, {})
    assert b == r == [["https://ex.com/a"], [], [], [], []]
    b, r = run_both("MentionsFromFacets", {"facets": FACETS_JSON}, {})
    assert b == r == [["did:plc:abc"], [], [], [], []]
    b, r = run_both("TagsFromFacets", {"facets": FACETS_JSON}, {})
    assert b == r == [["hottag"], [], [], [], []]


def test_simple_list_contains():
    phrases = [["free money now", "ok text"], ["nothing here"], None, ["FREE stuff"], ["xfreex"]]
    b, r = run_both(
        "SimpleListContains", {"target": phrases}, {"words": ("free", "money")}
    )
    assert b == r == ["free", None, None, "free", None]
    b, r = run_both(
        "SimpleListContains", {"target": phrases},
        {"words": ("free",), "word_boundaries": False},
    )
    assert b == r == ["free", None, None, "free", "free"]


def test_extract_list_domains():
    lists_ = [
        ["go to https://A.com/x", "also http://b.co.uk/y and https://a.com/z"],
        [],
        None,
        ["no urls at all"],
    ]
    b, r = run_both("ExtractListDomains", {"target": lists_}, {})
    assert b == r == [["a.com", "b.co.uk"], [], None, []]


def test_extract_list_domains_null_elements():
    """Round-3 advice: a null STRING inside a list must be skipped (row
    semantics), not null the whole row's result (binary_join semantics)."""
    lists_ = [
        ["https://a.com/x", None, "http://b.co/y"],
        [None],
        [None, "https://c.org/"],
    ]
    b, r = run_both("ExtractListDomains", {"target": lists_}, {})
    assert b == r == [["a.com", "b.co"], [], ["c.org"]]


def test_experiment_full_semantics():
    """ExperimentT parity (experiments.py:50-212): slot assignment, ramp
    cutoff, '' outside the experiment, validation errors."""
    from osprey_ray.kernels.misc import (
        EXPERIMENT_GRANULARITY,
        _resolve_bucket,
        murmur3_32,
        validate_experiment_config,
    )

    buckets = ("control", "treatment")
    # full ramp: every entity lands in its slot's bucket
    full = (50.0, 50.0)
    for e in ["u1", "u2", "u3", "zz"]:
        unit = murmur3_32(f"exp/{e}".encode(), 42) % EXPERIMENT_GRANULARITY
        want = buckets[unit // (EXPERIMENT_GRANULARITY // 2)]
        assert _resolve_bucket("exp", e, buckets, full) == want
    # zero ramp: nobody is in the experiment
    assert _resolve_bucket("exp", "u1", buckets, (0.0, 0.0)) == ""
    # partial ramp: exactly units below the cutoff are in
    got = {_resolve_bucket("exp", f"u{i}", buckets, (10.0, 10.0)) for i in range(200)}
    assert "" in got and ("control" in got or "treatment" in got)

    import pytest as _pytest

    with _pytest.raises(ValueError, match="control"):
        validate_experiment_config(("a", "b"), (50.0, 50.0))
    with _pytest.raises(ValueError, match="same number"):
        validate_experiment_config(("control", "t"), (50.0,))
    with _pytest.raises(ValueError, match="precision"):
        validate_experiment_config(("control", "t"), (33.333, 50.0))
    with _pytest.raises(ValueError, match="over the max"):
        validate_experiment_config(("control", "t"), (60.0, 40.0))

    b, r = run_both(
        "Experiment", {"entity": ["u1", "u2", None]},
        {"name": "exp", "buckets": ("control", "treatment"), "bucket_sizes": (50.0, 50.0)},
    )
    assert b == r


def test_udaf_registry_and_partition_invariance(ray_session):
    """UDAF surface: unknown names error with the known list; geomean
    matches numpy on a fixture; results are identical at 1 vs many
    input blocks (the associative-merge contract)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from osprey_ray.kernels.aggregates import get_udaf, list_udafs, run_udaf

    with pytest.raises(KeyError, match="unknown udaf 'nope'"):
        get_udaf("nope")
    assert {"geomean", "span"} <= set(list_udafs())

    rng = np.random.RandomState(7)
    vals = rng.uniform(0.1, 9.0, 400)
    keys = np.repeat(["a", "b", "c", "d"], 100)
    t = pa.table({"k": pa.array(keys), "v": pa.array(vals, pa.float64())})

    one = (
        run_udaf(rd.from_arrow(t), "k", "v", ["geomean", "span"])
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    many = (
        run_udaf(
            rd.from_arrow(t).repartition(13), "k", "v", ["geomean", "span"]
        )
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        one, many, check_exact=False, rtol=1e-12
    )
    for k in "abcd":
        want = float(np.exp(np.log(vals[keys == k]).sum() / 100))
        got = float(one.loc[one["k"] == k, "geomean"].iloc[0])
        assert abs(got - want) < 1e-9
        assert abs(
            float(one.loc[one["k"] == k, "span"].iloc[0])
            - (vals[keys == k].max() - vals[keys == k].min())
        ) < 1e-12


def test_mx_resolver_injectable_and_memoized():
    """The MXLookup resolver seam: a swapped-in resolver is called once
    per DISTINCT domain across batches (the reference's external-service
    memoisation), and restoring the default brings the stub back."""
    import pyarrow as pa

    from osprey_ray.kernels.extra import MXLookup, set_mx_resolver

    calls = []

    def fake(domain):
        calls.append(domain)
        return f"resolved:{domain}"

    prev = set_mx_resolver(fake)
    try:
        out1 = MXLookup.batch(
            None, pa.array(["a.com", "b.com", "a.com", None])
        ).to_pylist()
        assert out1 == ["resolved:a.com", "resolved:b.com", "resolved:a.com", None]
        # second batch: b.com cached, only c.com resolves
        out2 = MXLookup.batch(None, pa.array(["b.com", "c.com"])).to_pylist()
        assert out2 == ["resolved:b.com", "resolved:c.com"]
        assert sorted(calls) == ["a.com", "b.com", "c.com"]
    finally:
        set_mx_resolver(prev)
    assert MXLookup.batch(None, pa.array(["a.com"])).to_pylist()[0].startswith("mx.a.com|")


def test_kernels_large_string_parity():
    """The engine's ``text`` column is LARGE_string (int64 offsets).  A
    batch kernel that reads offset buffers as int32 silently nulls or
    corrupts every row on that input (found live in EmailDomain /
    Base64Encode / Base64Decode) — so every kernel whose batch accepts a
    lone string target must produce identical output for string and
    large_string arrays."""
    import pyarrow as pa

    from osprey_ray.kernels import _REGISTRY

    samples = [
        "a@x.com", "hello world", "aGVsbG8=", "http://a.b.com/x",
        "+1-555-0100", None, "日本語@例え.jp", "", "a@b@c.co.uk",
    ]
    checked = 0
    for name, k in sorted(_REGISTRY.items()):
        def run(typ):
            try:
                out = k.batch(None, pa.array(samples, typ))
                return out.to_pylist() if hasattr(out, "to_pylist") else list(out)
            except Exception as e:
                return ("ERR", type(e).__name__)

        a, b = run(pa.string()), run(pa.large_string())
        assert a == b, f"kernel {name}: string vs large_string diverge"
        if not (isinstance(a, tuple) and a[0] == "ERR"):
            checked += 1
    assert checked >= 30  # the sweep actually exercises the string kernels
