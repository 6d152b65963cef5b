"""Multi-view dataset I/O, synthetic generation, and noise injection.

On-disk format: a directory holding ``view_1.csv`` .. ``view_v.csv``
(one row per feature, one comma-separated column per sample, no header),
an optional ``labels.csv`` with one integer per line, and an optional
``meta.json`` manifest which is validated when present. Values are
written with 17 significant digits so a save/load round trip is exact.
View and label files are read by one reader, numpy's C text reader; a
file it refuses, or one holding a NaN or infinite value, is rejected
naming its first bad line (and column).
"""

import json
import math
import os
import re
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import (
    InvalidArgs,
    InvalidRatio,
    LabelLengthMismatch,
    MissingView,
    ParseError,
    RaggedRows,
)

_VIEW_RE = re.compile(r"^view_(\d+)\.csv$")

# the ASCII file, group, record and unit separators: str.isspace() accepts
# them, so numpy's reader would strip one around a cell
_SEPARATORS = "\x1c\x1d\x1e\x1f"


@dataclass
class MultiViewData:
    views: list                      # each d_p x n, shared n
    labels: Optional[np.ndarray]     # length n, or None
    name: str = "dataset"

    @property
    def n(self):
        return self.views[0].shape[1]

    @property
    def dims(self):
        return [v.shape[0] for v in self.views]


def _loadtxt(source, dtype):
    """numpy's C text reader, on a path or a list of lines: comma-separated
    cells, no comment character, a 2-D result. A warning it would give (an
    input with no data) is raised instead."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(source, dtype=dtype, delimiter=",", comments=None, ndmin=2)


def _read_numbers(path, dtype, columns=None):
    """Read a numeric text file into a 2-D ``dtype`` array: one row per
    non-empty line, one column per comma-separated cell, as many as the
    first line holds or else ``columns``.

    Every value comes from one :func:`_loadtxt` of the whole file, which
    holds no Python object per value. Where it refuses the file, finds no
    data, returns a NaN or Inf or the wrong number of columns, or the file
    holds an ASCII separator byte, :func:`_reject` names the bad line.
    """
    if not _has_separators(path):
        try:
            table = _loadtxt(path, dtype)
        except (ValueError, Warning):
            pass
        else:
            if np.isfinite(table).all() and columns in (None, table.shape[1]):
                return table
    _reject(path, dtype, columns)


def _has_separators(path, chunk=1 << 18):
    """Whether the file holds one of _SEPARATORS, scanned in chunks so
    that no copy of the whole file is held."""
    with open(path, "rb") as fh:
        while block := fh.read(chunk):
            if any(sep in block for sep in _SEPARATORS.encode()):
                return True
    return False


def _reject(path, dtype, columns):
    """Raise the error for a file :func:`_read_numbers` will not return.

    One scan judges each non-empty line with the same reader and raises,
    for the first bad line, ParseError naming the file and line when the
    line holds a separator byte, a cell the reader refuses (with its
    column; a byte that is not text in the file's encoding makes its cell
    one), a NaN or Inf (with its column) or a number of cells other than
    ``columns``, and RaggedRows when it holds a number of cells other than
    the first line's. A file with no bad line holds no value.
    """
    width = columns
    # a byte the file's encoding cannot decode reads as a lone surrogate
    # (U+DC80..U+DCFF), which no cell may hold, so its line is refused
    with open(path, errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line == "\n":
                continue
            where = f"{path}: line {lineno}"
            if any(sep in line for sep in _SEPARATORS):
                raise ParseError(f"{where}: ASCII separator byte", path=path, line=lineno)
            try:
                row = _loadtxt([line], dtype)[0]
            except (ValueError, Warning) as exc:
                col, cell = _refused_cell(line, dtype)
                raise ParseError(
                    f"{where}: cannot read {cell!r} in column {col} as {np.dtype(dtype)}",
                    path=path, line=lineno,
                ) from exc
            if width is None:
                width = row.size
            elif row.size != width:
                raise (ParseError if columns else RaggedRows)(
                    f"{where} has {row.size} columns, expected {width}",
                    path=path, line=lineno,
                )
            bad = np.flatnonzero(~np.isfinite(row))
            if bad.size:
                raise ParseError(
                    f"{where}, column {bad[0] + 1}: non-finite value {row[bad[0]]}",
                    path=path, line=lineno,
                )
    raise ParseError(f"{path}: file is empty", path=path)


def _refused_cell(line, dtype):
    """The column, from 1, and text of the first cell of a line that the
    reader refuses on its own. A line it refuses has one, since the reader
    splits a line at commas alone and reads each cell by itself."""
    for col, cell in enumerate(line.rstrip("\n").split(","), start=1):
        try:
            _loadtxt([cell], dtype)
        except (ValueError, Warning):
            return col, cell


def parse_labels_file(path):
    """Read a label file, one integer per line with blank lines skipped,
    into a 1-D int64 array."""
    return _read_numbers(path, np.int64, columns=1)[:, 0]


def load_multiview(path):
    """Load a dataset directory, validating the shared sample count."""
    try:
        entries = sorted(os.listdir(path))
    except OSError as exc:
        raise MissingView(f"{path}: not a readable directory ({exc})", path=path)
    numbered = {}
    for entry in entries:
        match = _VIEW_RE.match(entry)
        if match:
            if match.group(1).startswith("0"):
                raise MissingView(
                    f"{path}: {entry} is misnumbered (views must be numbered "
                    f"1, 2, ... without leading zeros)", path=path,
                )
            numbered[int(match.group(1))] = entry
    if not numbered:
        raise MissingView(f"{path}: no view_<p>.csv files found", path=path)
    v = max(numbered)
    for p in range(1, v + 1):
        if p not in numbered:
            raise MissingView(
                f"{path}: view_{p}.csv is missing (views must be numbered "
                f"1..{v} without gaps)", path=path,
            )
    views = []
    n = None
    for p in range(1, v + 1):
        view_path = os.path.join(path, numbered[p])
        view = _read_numbers(view_path, np.float64)
        if n is None:
            n = view.shape[1]
        elif view.shape[1] != n:
            raise RaggedRows(
                f"{view_path}: {view.shape[1]} samples, but view_1.csv has {n}",
                path=view_path,
            )
        views.append(view)

    labels = None
    labels_path = os.path.join(path, "labels.csv")
    if os.path.exists(labels_path):
        labels = parse_labels_file(labels_path)
        if len(labels) != n:
            raise LabelLengthMismatch(
                f"{labels_path}: {len(labels)} labels for {n} samples",
                path=labels_path,
            )

    name = os.path.basename(os.path.normpath(path))
    meta_path = os.path.join(path, "meta.json")
    if os.path.exists(meta_path):
        try:
            with open(meta_path) as fh:
                meta = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"{meta_path}: {exc}", path=meta_path) from exc
        if not isinstance(meta, dict):
            raise ParseError(
                f"{meta_path}: top level must be a JSON object, got "
                f"{type(meta).__name__}", path=meta_path)
        name = meta.get("name", name)
        if not isinstance(name, str):
            raise ParseError(
                f"{meta_path}: name must be a string, got {name!r}", path=meta_path)
        declared = {
            "views": v, "n": n, "dims": [vw.shape[0] for vw in views],
        }
        for key, actual in declared.items():
            if key in meta and meta[key] != actual:
                raise RaggedRows(
                    f"{meta_path}: declares {key}={meta[key]} but files have "
                    f"{actual}", path=meta_path,
                )
    return MultiViewData(views=views, labels=labels, name=name)


def save_multiview(data, path, force=False):
    """Write a dataset directory (inverse of :func:`load_multiview`).

    Refuses to overwrite existing view/label files unless ``force``. With
    ``force``, view files numbered above the new view count and a labels
    file the data does not have are removed, so the directory loads as
    ``data``.
    """
    os.makedirs(path, exist_ok=True)
    targets = [
        os.path.join(path, f"view_{p + 1}.csv") for p in range(len(data.views))
    ]
    targets.append(os.path.join(path, "labels.csv"))
    targets.append(os.path.join(path, "meta.json"))
    if not force:
        for target in targets:
            if os.path.exists(target):
                raise FileExistsError(
                    f"{target} already exists (use force to overwrite)"
                )
    for p, view in enumerate(data.views):
        np.savetxt(
            os.path.join(path, f"view_{p + 1}.csv"),
            view, fmt="%.17g", delimiter=",",
        )
    if force:
        for entry in os.listdir(path):
            match = _VIEW_RE.match(entry)
            if match and int(match.group(1)) > len(data.views):
                os.remove(os.path.join(path, entry))
    labels_path = os.path.join(path, "labels.csv")
    if data.labels is not None:
        np.savetxt(labels_path, np.asarray(data.labels, dtype=int), fmt="%d")
    elif force and os.path.exists(labels_path):
        os.remove(labels_path)
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump(
            {
                "name": data.name,
                "views": len(data.views),
                "n": data.n,
                "dims": data.dims,
            },
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")


def gen_gaussian_clusters(k, v, n, dims, sep, seed):
    """Synthetic multi-view dataset: per view, k unit-variance isotropic
    Gaussian clusters whose means sit on a sphere of radius ``sep``.

    Cluster sizes are near-equal and labels are included. Deterministic
    per seed.
    """
    if k < 1 or n < k or v < 1:
        raise InvalidArgs(f"need k >= 1, n >= k, v >= 1; got k={k}, n={n}, v={v}")
    if len(dims) != v or any(d < 1 for d in dims):
        raise InvalidArgs(f"dims must list {v} positive dimensionalities, got {dims}")
    if not 0 <= sep < np.inf:
        raise InvalidArgs(f"sep must be finite and >= 0, got {sep}")
    rng = np.random.default_rng(seed)
    counts = [n // k + (1 if c < n % k else 0) for c in range(k)]
    labels = np.repeat(np.arange(k), counts)
    views = []
    for d in dims:
        directions = rng.standard_normal((d, k))
        norms = np.linalg.norm(directions, axis=0)
        norms[norms == 0] = 1.0
        means = sep * directions / norms
        cols = [
            means[:, [c]] + rng.standard_normal((d, counts[c]))
            for c in range(k)
        ]
        views.append(np.hstack(cols))
    name = f"gaussian_k{k}_v{v}_n{n}"
    return MultiViewData(views=views, labels=labels, name=name)


def salt_pepper(view, ratio, seed):
    """Corrupt exactly floor(ratio * size) entries, chosen uniformly
    without replacement, to the view's global min (pepper) or max (salt)
    with equal probability. All other entries are untouched."""
    if not 0 <= ratio <= 1:
        raise InvalidRatio(f"noise ratio must be in [0, 1], got {ratio}")
    view = np.asarray(view, dtype=float)
    out = view.copy()
    count = math.floor(ratio * view.size)
    if count == 0:
        return out
    rng = np.random.default_rng(seed)
    positions = rng.choice(view.size, size=count, replace=False)
    salt = rng.integers(0, 2, size=count).astype(bool)
    lo, hi = view.min(), view.max()
    flat = out.reshape(-1)
    flat[positions[salt]] = hi
    flat[positions[~salt]] = lo
    return out
