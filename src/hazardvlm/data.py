"""Dataset schema, JSONL ingestion with per-line validation, a corpus
tokenizer, deterministic splits, and a synthetic hazard-scene generator.

Record schema (one JSON object per line):

    {"image": <path or nested array>, "hazard": [x, y], "caption": <text>}

plus an optional "category" field ("predictable" / "unpredictable"),
stored but unused by the losses. Images are C x S x S float grids in
[0, 1]; a string image value is a path to a .npy file relative to the
dataset file's directory. Each sample has exactly one hazard point,
inside the image.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .localization import PixelPoint

PAD, START, END, UNK = "<pad>", "<s>", "</s>", "<unk>"
RESERVED = (PAD, START, END, UNK)
# every vocabulary starts with RESERVED, so these ids hold for all of them
PAD_ID, START_ID, END_ID, UNK_ID = range(len(RESERVED))

CAPTION_TEMPLATE = "the area around ({x}, {y}) should be paid more attention to"

VALID_CATEGORIES = ("predictable", "unpredictable")


class DataError(ValueError):
    """A dataset-level failure (not a single bad record)."""


@dataclass
class AnnotatedSample:
    image: np.ndarray  # C x S x S float32 in [0, 1]
    hazard: PixelPoint
    caption: str
    category: str | None = None


@dataclass
class RecordError:
    """One rejected JSONL record: line number, error class, and detail."""

    line: int
    category: str  # json | schema | image | hazard | caption
    message: str

    def __str__(self):
        return f"line {self.line}: [{self.category}] {self.message}"


class _Rejected(Exception):
    """A record's fault, raised with the RecordError category it is filed
    under."""

    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


def load_image(value, image_root: Path | None = None) -> np.ndarray:
    """A C x S x S float32 image from a .npy path or a nested array.

    Raises FileNotFoundError for a missing file and ValueError for an
    unreadable, malformed, non-numeric (not bool, integer or floating),
    non-square, empty, non-finite or out-of-[0, 1] image."""
    if isinstance(value, str):
        path = Path(value)
        if image_root is not None and not path.is_absolute():
            path = image_root / path
        if not path.exists():
            raise FileNotFoundError(f"image file not found: {path}")
        try:
            arr = np.load(path)
        except Exception as exc:
            raise ValueError(f"image file unreadable: {path}: {exc}") from exc
    else:
        try:
            arr = np.asarray(value, dtype=np.float32)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"image array malformed: {exc}") from exc
    if arr.dtype == object:
        raise ValueError("image array malformed: ragged rows")
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"image array has dtype {arr.dtype}; expected bool, integer or floating")
    arr = arr.astype(np.float32)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3:
        raise ValueError(f"image must be C x S x S, got shape {arr.shape}")
    if arr.shape[1] != arr.shape[2]:
        raise ValueError(f"image must be square, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"image must not be empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("image contains non-finite values")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError("image values outside [0, 1]")
    return arr


def _parse_record(record, image_root: Path) -> AnnotatedSample:
    """The sample a decoded JSON record describes; _Rejected otherwise."""
    if not isinstance(record, dict):
        raise _Rejected("schema", "record must be a JSON object")
    # the key messages are printed quoted
    unknown = set(record) - {"image", "hazard", "caption", "category"}
    if unknown:
        raise _Rejected("schema", repr(f"unknown keys {sorted(unknown)}"))
    for key in ("image", "hazard", "caption"):
        if key not in record:
            raise _Rejected("schema", repr(f"missing key '{key}'"))

    try:
        image = load_image(record["image"], image_root)
    except (ValueError, FileNotFoundError) as exc:
        raise _Rejected("image", str(exc)) from exc
    size = image.shape[1]

    hazard = record["hazard"]
    if not isinstance(hazard, (list, tuple)) or len(hazard) != 2:
        raise _Rejected("hazard", "hazard must be a single [x, y] point")
    x, y = hazard
    # compared, not converted: an integer too large for a float is finite
    if not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and -math.inf < v < math.inf
        for v in (x, y)
    ):
        raise _Rejected("hazard", "hazard coordinates must be finite numbers")
    if not (0 <= x < size and 0 <= y < size):
        raise _Rejected("hazard", f"hazard ({x}, {y}) outside image bounds [0, {size})")

    caption = record["caption"]
    if not isinstance(caption, str) or not caption.strip():
        raise _Rejected("caption", "caption must be a non-empty string")

    category = record.get("category")
    if category is not None and category not in VALID_CATEGORIES:
        raise _Rejected("schema", f"category must be one of {VALID_CATEGORIES}")

    return AnnotatedSample(
        image=image, hazard=PixelPoint(float(x), float(y)), caption=caption, category=category
    )


def load_dataset(path: str | Path) -> tuple[list[AnnotatedSample], list[RecordError]]:
    """Parse a JSONL dataset, validating every record; a relative image
    path resolves against the dataset's directory.

    Returns (accepted samples, rejections); each rejection names its line
    number and error category, and a line that is not UTF-8 is one. An
    empty file is an empty dataset, not an error; a file that cannot be
    read is a DataError.
    """
    path = Path(path)
    samples: list[AnnotatedSample] = []
    errors: list[RecordError] = []
    try:
        # surrogateescape keeps undecodable bytes, so they fail their own line
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line.encode("utf-8", "surrogateescape").decode("utf-8"))
                    samples.append(_parse_record(record, path.parent))
                except _Rejected as exc:
                    errors.append(RecordError(line=lineno, category=exc.category, message=str(exc)))
                except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
                    # json.loads raises RecursionError for JSON nested too deep
                    errors.append(RecordError(line=lineno, category="json", message=str(exc)))
                except Exception as exc:  # noqa: BLE001 - every failure becomes a diagnostic
                    errors.append(RecordError(line=lineno, category="schema", message=str(exc)))
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    return samples, errors


def save_dataset(samples: Iterable[AnnotatedSample], path: str | Path) -> None:
    """Write samples as JSONL with inline image arrays."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            record = {
                "image": np.round(s.image.astype(float), 6).tolist(),
                "hazard": [s.hazard.x, s.hazard.y],
                "caption": s.caption,
            }
            if s.category is not None:
                record["category"] = s.category
            fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

@dataclass
class Vocabulary:
    """Token <-> id bijection with reserved pad/start/end/unknown ids."""

    tokens: list[str]
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        if list(self.tokens[: len(RESERVED)]) != list(RESERVED):
            raise ValueError("vocabulary must start with the reserved tokens")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")
        self.index = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self):
        return len(self.tokens)

    def save(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """A vocabulary saved by ``save``; an unreadable or malformed file
        is a DataError."""
        try:
            return cls(Path(path).read_text(encoding="utf-8").splitlines())
        except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
            raise DataError(f"cannot read vocabulary {path}: {exc}") from exc


def normalize(text: str) -> list[str]:
    return text.lower().split()


def build_vocab(captions: Sequence[str]) -> Vocabulary:
    """Whitespace-tokenized, lowercased vocabulary; content tokens sorted."""
    if not captions:
        raise DataError("cannot build a vocabulary from an empty corpus")
    content = sorted({tok for caption in captions for tok in normalize(caption)})
    return Vocabulary(list(RESERVED) + content)


def tokenize(caption: str, vocab: Vocabulary) -> list[int]:
    """start + content ids + end; unseen tokens map to unknown."""
    ids = [vocab.index.get(tok, UNK_ID) for tok in normalize(caption)]
    return [START_ID] + ids + [END_ID]


def caption_targets(caption: str, vocab: Vocabulary) -> list[int]:
    """The ids a decoder predicts for ``caption``: its content ids, then
    the end token (``tokenize`` without the start token)."""
    return tokenize(caption, vocab)[1:]


def detokenize(ids: Sequence[int], vocab: Vocabulary) -> str:
    """Inverse of tokenize for in-vocab text; reserved ids are dropped."""
    words = [vocab.tokens[i] for i in ids if vocab.tokens[i] not in RESERVED]
    return " ".join(words)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def split(
    samples: Sequence[AnnotatedSample], val_fraction: float, seed: int
) -> tuple[list[AnnotatedSample], list[AnnotatedSample]]:
    """Disjoint, exhaustive, seed-deterministic train/val split."""
    if not 0.0 < val_fraction < 1.0:
        raise DataError(f"val_fraction must be in (0, 1), got {val_fraction}")
    n = len(samples)
    n_val = int(n * val_fraction)
    if n_val < 1 or n - n_val < 1:
        raise DataError(f"{n} samples cannot give both splits >= 1 sample at fraction {val_fraction}")
    order = np.random.default_rng(seed).permutation(n)
    val_idx = set(order[:n_val].tolist())
    train = [samples[i] for i in range(n) if i not in val_idx]
    val = [samples[i] for i in range(n) if i in val_idx]
    return train, val


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------

def check_sizes(config) -> None:
    """ValueError unless every integer field of the dataclass ``config``,
    each a size or a count, is at least 1."""
    for f in fields(config):
        if f.type == "int" and getattr(config, f.name) < 1:
            raise ValueError(f"{f.name} must be at least 1, got {getattr(config, f.name)}")


# What synthetic generation may make, in float32 values, checked before
# anything is allocated: one image (16 MiB; generating a scene briefly
# holds a few arrays of that size) and a whole dataset (64 MiB, which the
# JSONL text takes several times over)
MAX_IMAGE_FLOATS = 2**22
MAX_SYNTH_FLOATS = 2**24


@dataclass(frozen=True)
class SynthConfig:
    image_size: int = 32
    channels: int = 1
    patch_size: int = 8
    blob_sigma: float = 1.0
    blob_peak: float = 0.85
    noise_high: float = 0.3

    def __post_init__(self):
        check_sizes(self)
        if self.image_floats > MAX_IMAGE_FLOATS:
            raise DataError(f"a {self.image_floats}-value image exceeds MAX_IMAGE_FLOATS = {MAX_IMAGE_FLOATS}")
        if self.image_size % self.patch_size:
            raise DataError("image_size must be divisible by patch_size")
        # written as `not <valid>`, so NaN fails every check
        if not 0 < self.blob_sigma < math.inf:
            raise DataError(f"blob_sigma must be positive and finite, got {self.blob_sigma}")
        if not 0 <= self.noise_high < math.inf:
            raise DataError(f"noise_high must be finite and non-negative, got {self.noise_high}")
        if not 0.8 <= self.blob_peak < math.inf:
            raise DataError(f"blob_peak must be finite and at least 0.8 to dominate the noise, got {self.blob_peak}")
        if 3.0 * self.blob_sigma > self.image_size:
            raise DataError("blob radius exceeds the image")
        if not np.float32(2.0 * self.blob_sigma**2) > 0:  # synth_generate divides by it
            raise DataError(f"blob_sigma {self.blob_sigma} is too small: 2 * blob_sigma**2 is 0 in float32")
        # keep the blob center the argmax: the brightest non-center pixel is
        # bounded by noise_high + peak * exp(-1/(2 sigma^2))
        if self.noise_high + self.blob_peak * math.exp(-1.0 / (2.0 * self.blob_sigma**2)) >= self.blob_peak:
            raise DataError("noise/sigma combination lets neighbors outshine the blob center")

    @property
    def image_floats(self) -> int:
        return self.channels * self.image_size**2


def patch_center(coord: int, patch_size: int) -> int:
    return (coord // patch_size) * patch_size + patch_size // 2


def synth_caption(hazard: PixelPoint, patch_size: int) -> str:
    """Caption with coordinates snapped to the patch-center vocabulary."""
    cx = patch_center(int(hazard.x), patch_size)
    cy = patch_center(int(hazard.y), patch_size)
    return CAPTION_TEMPLATE.format(x=cx, y=cy)


def synth_generate(n: int, cfg: SynthConfig, seed: int) -> list[AnnotatedSample]:
    """Noise background plus one bright Gaussian blob; the blob center is
    the hazard and the caption names its patch center."""
    if n < 1:
        raise DataError("need n >= 1 synthetic samples")
    rng = np.random.default_rng(seed)
    size = cfg.image_size
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float32)
    samples = []
    for _ in range(n):
        cx = int(rng.integers(0, size))
        cy = int(rng.integers(0, size))
        noise = rng.uniform(0.0, cfg.noise_high, size=(cfg.channels, size, size)).astype(np.float32)
        # a tiny sigma overflows the float32 exponent to -inf, which exp maps to 0
        with np.errstate(over="ignore"):
            exponent = -((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * cfg.blob_sigma**2)
        blob = cfg.blob_peak * np.exp(exponent).astype(np.float32)
        image = np.clip(noise + blob[None, :, :], 0.0, 1.0)
        hazard = PixelPoint(float(cx), float(cy))
        category = "predictable" if rng.random() < 0.5 else "unpredictable"
        samples.append(
            AnnotatedSample(
                image=image,
                hazard=hazard,
                caption=synth_caption(hazard, cfg.patch_size),
                category=category,
            )
        )
    return samples
