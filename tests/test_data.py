import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hazardvlm.data import (
    CAPTION_TEMPLATE,
    END_ID,
    PAD_ID,
    RESERVED,
    START_ID,
    UNK_ID,
    AnnotatedSample,
    DataError,
    SynthConfig,
    Vocabulary,
    build_vocab,
    detokenize,
    load_dataset,
    load_image,
    patch_center,
    save_dataset,
    split,
    synth_caption,
    synth_generate,
    tokenize,
)
from hazardvlm.localization import PixelPoint


def valid_record(size=4):
    return {
        "image": np.zeros((1, size, size)).tolist(),
        "hazard": [1, 2],
        "caption": "a hazard here",
    }


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for r in records:
            fh.write((r if isinstance(r, str) else json.dumps(r)) + "\n")


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------

def test_empty_file_is_empty_dataset(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text("")
    samples, errors = load_dataset(p)
    assert samples == [] and errors == []


def test_hazard_at_image_size_rejected(tmp_path):
    p = tmp_path / "d.jsonl"
    bad = valid_record()
    bad["hazard"] = [4, 0]  # x == S is out of the half-open bound
    write_jsonl(p, [bad])
    samples, errors = load_dataset(p)
    assert not samples
    assert errors[0].category == "hazard"


def test_malformed_line_diagnostic_names_line_four(tmp_path):
    p = tmp_path / "d.jsonl"
    write_jsonl(p, [valid_record(), valid_record(), valid_record(), "{not json"])
    samples, errors = load_dataset(p)
    assert len(samples) == 3
    assert len(errors) == 1
    assert errors[0].line == 4
    assert errors[0].category == "json"


def test_missing_image_file_rejected(tmp_path):
    p = tmp_path / "d.jsonl"
    rec = valid_record()
    rec["image"] = "nope.npy"
    write_jsonl(p, [rec])
    _, errors = load_dataset(p)
    assert errors and errors[0].category == "image"


def test_unreadable_image_file_rejected(tmp_path):
    (tmp_path / "junk.npy").write_bytes(b"this is not an npy file")
    rec = valid_record()
    rec["image"] = "junk.npy"
    p = tmp_path / "d.jsonl"
    write_jsonl(p, [rec])
    _, errors = load_dataset(p)
    assert errors and errors[0].category == "image"


NON_NUMERIC_IMAGES = {
    "structured": np.zeros((1, 32, 32), dtype=[("a", "f4"), ("b", "i4")]),
    "datetime64": np.zeros((1, 32, 32), dtype="datetime64[s]"),
    "complex": np.full((1, 32, 32), 0.5 + 0.5j, np.complex64),
}


@pytest.mark.parametrize("kind", sorted(NON_NUMERIC_IMAGES))
def test_non_numeric_image_file_rejected(tmp_path, kind):
    np.save(tmp_path / "img.npy", NON_NUMERIC_IMAGES[kind])
    with pytest.raises(ValueError, match="expected bool, integer or floating"):
        load_image(str(tmp_path / "img.npy"))
    rec = valid_record()
    rec["image"] = "img.npy"
    p = tmp_path / "d.jsonl"
    write_jsonl(p, [rec])
    _, errors = load_dataset(p)
    assert errors and errors[0].category == "image"


@pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int64, np.float16, np.float64])
def test_numeric_image_file_loads_as_float32(tmp_path, dtype):
    np.save(tmp_path / "img.npy", np.eye(4, dtype=dtype)[None])
    image = load_image(str(tmp_path / "img.npy"))
    assert image.dtype == np.float32 and image.tolist() == np.eye(4)[None].tolist()


def test_image_file_reference_loads(tmp_path):
    img = np.random.default_rng(0).uniform(0, 1, (1, 4, 4)).astype(np.float32)
    np.save(tmp_path / "img.npy", img)
    rec = valid_record()
    rec["image"] = "img.npy"
    p = tmp_path / "d.jsonl"
    write_jsonl(p, [rec])
    samples, errors = load_dataset(p)
    assert not errors
    np.testing.assert_allclose(samples[0].image, img, atol=1e-7)


@pytest.mark.parametrize(
    "corrupt, category",
    [
        (lambda r: r.pop("hazard"), "schema"),
        (lambda r: r.pop("caption"), "schema"),
        (lambda r: r.update(hazard=[1, 2, 3]), "hazard"),
        (lambda r: r.update(hazard=[1, "a"]), "hazard"),
        (lambda r: r.update(hazard=[-1, 0]), "hazard"),
        (lambda r: r.update(caption=""), "caption"),
        (lambda r: r.update(caption=7), "caption"),
        (lambda r: r.update(image=[[0.5, 2.0], [0.1, 0.1]]), "image"),
        (lambda r: r.update(image=[[0.5, 0.5], [0.1]]), "image"),  # ragged rows
        (lambda r: r.update(image="missing.npy"), "image"),
        (lambda r: r.update(hazard=[True, False]), "hazard"),
        (lambda r: r.update(extra=1), "schema"),
        (lambda r: r.update(category="weird"), "schema"),
    ],
)
def test_each_corruption_class_is_caught(tmp_path, corrupt, category):
    rec = valid_record()
    corrupt(rec)
    p = tmp_path / "d.jsonl"
    write_jsonl(p, [rec])
    samples, errors = load_dataset(p)
    assert not samples
    assert errors[0].category == category, errors[0]


def _line(**changes):
    record = valid_record()
    for key, value in changes.items():
        if value is None:
            record.pop(key)
        else:
            record[key] = value
    return json.dumps(record)


# (line, category, message) of each kind of rejected record
REJECTIONS = [
    ("{not json", "json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("[1, 2]", "schema", "record must be a JSON object"),
    (_line(extra=1), "schema", "\"unknown keys ['extra']\""),
    (_line(**{"it's": 1}), "schema", "'unknown keys [\"it\\'s\"]'"),
    (_line(image=None), "schema", "\"missing key 'image'\""),
    (_line(caption=None), "schema", "\"missing key 'caption'\""),
    (_line(category="weird"), "schema", "category must be one of ('predictable', 'unpredictable')"),
    # json.loads raises RecursionError, not JSONDecodeError: it was filed as schema
    ("[" * 100_000 + "]" * 100_000, "json", "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
    (_line(hazard=7), "hazard", "hazard must be a single [x, y] point"),
    (_line(hazard=[1, "a"]), "hazard", "hazard coordinates must be finite numbers"),
    (_line(hazard=[float("nan"), 0]), "hazard", "hazard coordinates must be finite numbers"),
    (_line(hazard=[4, 0]), "hazard", "hazard (4, 0) outside image bounds [0, 4)"),
    # too large for a float: it was filed as schema ("int too large to convert to float")
    (_line(hazard=[10**400, 0]), "hazard", f"hazard ({10**400}, 0) outside image bounds [0, 4)"),
    (_line(caption=" "), "caption", "caption must be a non-empty string"),
    (_line(image=[[0.5, 2.0], [0.1, 0.1]]), "image", "image values outside [0, 1]"),
    (_line(image=[[[]]]), "image", "image must be square, got shape (1, 1, 0)"),
    (_line(image=[1, 2]), "image", "image must be C x S x S, got shape (2,)"),
    (_line(image={"a": 1}), "image", "image array malformed: float() argument must be a string or a real number, not 'dict'"),
    # numpy's message for an empty reduction was filed as schema
    (_line(image="empty.npy"), "image", "image must not be empty, got shape (1, 0, 0)"),
    (_line(image="no-channels.npy"), "image", "image must not be empty, got shape (0, 4, 4)"),
]


def test_each_rejection_has_its_category_and_message(tmp_path):
    np.save(tmp_path / "empty.npy", np.zeros((1, 0, 0)))
    np.save(tmp_path / "no-channels.npy", np.zeros((0, 4, 4)))
    p = tmp_path / "d.jsonl"
    write_jsonl(p, [line for line, _, _ in REJECTIONS])
    samples, errors = load_dataset(p)
    assert samples == []
    got = [(e.line, e.category, e.message) for e in errors]
    assert got == [(i, category, message) for i, (_, category, message) in enumerate(REJECTIONS, 1)]


def test_save_load_round_trip(tmp_path):
    samples = synth_generate(5, SynthConfig(), seed=0)
    p = tmp_path / "d.jsonl"
    save_dataset(samples, p)
    loaded, errors = load_dataset(p)
    assert not errors
    assert len(loaded) == 5
    for a, b in zip(samples, loaded):
        assert a.hazard == b.hazard
        assert a.caption == b.caption
        assert a.category == b.category
        np.testing.assert_allclose(a.image, b.image, atol=1e-5)


def test_undecodable_line_is_a_record_error(tmp_path):
    p = tmp_path / "d.jsonl"
    good = json.dumps(valid_record()).encode()
    p.write_bytes(good + b"\n" + b'{"caption": "caf\xe9"}\n' + good + b"\n")
    samples, errors = load_dataset(p)
    assert len(samples) == 2
    assert [(e.line, e.category) for e in errors] == [(2, "json")]
    assert "can't decode byte 0xe9" in errors[0].message


def test_unreadable_dataset_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read dataset"):
        load_dataset(tmp_path)  # a directory
    with pytest.raises(DataError, match="cannot read dataset"):
        load_dataset(tmp_path / "missing.jsonl")


_VALID_LINE = json.dumps(valid_record()).encode()


@given(
    st.lists(
        st.one_of(
            st.binary(max_size=48),
            st.sampled_from([_VALID_LINE, _VALID_LINE[:30], b"\xff\xfe{}", b'{"image": "\xc3"}']),
        ),
        max_size=8,
    )
)
@settings(max_examples=200, deadline=None)
def test_random_byte_lines_never_raise(lines):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "d.jsonl"
        p.write_bytes(b"\n".join(lines))
        samples, errors = load_dataset(p)
    assert len(samples) == lines.count(_VALID_LINE)
    assert all(e.line >= 1 and e.category in ("json", "schema", "image", "hazard", "caption") for e in errors)


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

def test_tokenize_empty_caption_is_start_end():
    vocab = build_vocab(["a b"])
    assert tokenize("", vocab) == [START_ID, END_ID]


def test_round_trip_in_vocab_caption():
    vocab = build_vocab(["the area around", "should be paid"])
    caption = "The Area  should be"
    normalized = "the area should be"
    assert detokenize(tokenize(caption, vocab), vocab) == normalized


def test_vocab_counts_unique_content_tokens():
    vocab = build_vocab(["a b", "b c"])
    assert len(vocab) == 3 + len(RESERVED)


def test_unknown_tokens_map_to_unk():
    vocab = build_vocab(["a b"])
    ids = tokenize("a zebra", vocab)
    assert ids[2] == UNK_ID


def test_vocab_save_load_preserves_reserved_ids(tmp_path):
    vocab = build_vocab(["x y z"])
    path = tmp_path / "v.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.tokens == vocab.tokens
    assert [loaded.index[t] for t in RESERVED] == [PAD_ID, START_ID, END_ID, UNK_ID] == [0, 1, 2, 3]


@given(st.lists(st.text(alphabet="abcxyz ", min_size=1, max_size=20), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_tokenize_is_pure_and_round_trips(captions):
    corpus = [c for c in captions if c.split()]
    if not corpus:
        return
    vocab = build_vocab(corpus)
    for caption in corpus:
        ids = tokenize(caption, vocab)
        assert ids == tokenize(caption, vocab)
        assert detokenize(ids, vocab) == " ".join(caption.lower().split())


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def _dummy_samples(n):
    img = np.zeros((1, 4, 4), dtype=np.float32)
    return [AnnotatedSample(img, PixelPoint(0, 0), f"caption {i}") for i in range(n)]


def test_split_sizes():
    train, val = split(_dummy_samples(10), 0.2, seed=0)
    assert len(train) == 8 and len(val) == 2


def test_split_deterministic_and_exhaustive():
    samples = _dummy_samples(17)
    t1, v1 = split(samples, 0.3, seed=9)
    t2, v2 = split(samples, 0.3, seed=9)
    assert [s.caption for s in t1] == [s.caption for s in t2]
    assert [s.caption for s in v1] == [s.caption for s in v2]
    union = sorted(s.caption for s in t1 + v1)
    assert union == sorted(s.caption for s in samples)
    assert not {s.caption for s in t1} & {s.caption for s in v1}


def test_split_errors():
    with pytest.raises(DataError):
        split(_dummy_samples(3), 0.0, seed=0)
    with pytest.raises(DataError):
        split(_dummy_samples(2), 0.1, seed=0)  # val side would be empty


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

def test_synth_deterministic_and_argmax_is_hazard():
    a = synth_generate(1, SynthConfig(), seed=123)[0]
    b = synth_generate(1, SynthConfig(), seed=123)[0]
    np.testing.assert_array_equal(a.image, b.image)
    assert a.hazard == b.hazard and a.caption == b.caption
    flat = int(np.argmax(a.image[0]))
    y, x = divmod(flat, a.image.shape[2])
    assert (x, y) == (a.hazard.x, a.hazard.y)


def test_synth_quadrant_coverage():
    samples = synth_generate(1000, SynthConfig(), seed=7)
    half = SynthConfig().image_size / 2
    counts = {"tl": 0, "tr": 0, "bl": 0, "br": 0}
    for s in samples:
        key = ("t" if s.hazard.y < half else "b") + ("l" if s.hazard.x < half else "r")
        counts[key] += 1
    for quadrant, count in counts.items():
        assert 150 <= count <= 350, (quadrant, count)


def test_caption_names_the_patch_center():
    cfg = SynthConfig()
    for s in synth_generate(50, cfg, seed=3):
        x = patch_center(int(s.hazard.x), cfg.patch_size)
        y = patch_center(int(s.hazard.y), cfg.patch_size)
        assert s.caption == CAPTION_TEMPLATE.format(x=x, y=y)


def test_brightest_pixel_near_hazard_property():
    cfg = SynthConfig()
    for s in synth_generate(200, cfg, seed=11):
        flat = int(np.argmax(s.image[0]))
        y, x = divmod(flat, cfg.image_size)
        dist = ((x - s.hazard.x) ** 2 + (y - s.hazard.y) ** 2) ** 0.5
        assert dist <= 3.0 * cfg.blob_sigma


def test_synth_caption_template():
    caption = synth_caption(PixelPoint(20.0, 28.0), patch_size=8)
    assert caption == "the area around (20, 28) should be paid more attention to"


def test_synth_config_validation():
    with pytest.raises(DataError):
        SynthConfig(blob_peak=0.5)
    with pytest.raises(DataError):
        SynthConfig(blob_sigma=20.0)
    with pytest.raises(DataError):
        SynthConfig(noise_high=0.9)
    with pytest.raises(DataError):
        synth_generate(0, SynthConfig(), seed=0)


def test_synth_with_a_tiny_sigma_warns_of_no_overflow():
    # the blob's float32 exponent overflows to -inf, which exp maps to 0; it
    # printed numpy's "overflow encountered in divide" three times
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = synth_generate(3, SynthConfig(blob_sigma=1e-22), seed=0)
    for s in samples:
        assert np.all(np.isfinite(s.image))
        # the blob is one pixel of its peak over noise below 0.3
        assert s.image[0, int(s.hazard.y), int(s.hazard.x)] >= 0.85
        assert np.sum(s.image > 0.3) == 1


def test_synth_images_in_unit_range():
    for s in synth_generate(20, SynthConfig(), seed=5):
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0
