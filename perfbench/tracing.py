"""Spans and counts at the program's public functions, for the traced run.

`Tracer` replaces each function named in SITES by a wrapper, at the module
attribute its caller looks up (`extract_features` calls
`arfex.features.build_response_maps`; `query_image` calls
`arfex.store.ransac_verify`), and puts the originals back on exit.  Each
call becomes a span: name, start, end, parent span and the operation it
belongs to.  Spans stay in flat arrays in memory until the run ends.  A
function the program no longer has is skipped and shows 0 calls.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, module, attribute): one row per place a caller looks the function up.
SITES = (
    ("image_io.read_image", "arfex.image_io", "read_image"),
    ("image.to_grayscale", "arfex.image", "to_grayscale"),
    ("image.to_grayscale", "arfex.features", "to_grayscale"),
    ("image.build_integral", "arfex.features", "build_integral"),
    ("features.build_response_maps", "arfex.features", "build_response_maps"),
    ("features.detect_interest_points", "arfex.features", "detect_interest_points"),
    ("features.assign_orientation", "arfex.features", "assign_orientation"),
    ("features.extract_descriptor", "arfex.features", "extract_descriptor"),
    ("features.extract_features", "arfex.features", "extract_features"),
    ("features.extract_features", "arfex.store", "extract_features"),
    ("matching.match_descriptors", "arfex.store", "match_descriptors"),
    ("geometry.ransac_verify", "arfex.store", "ransac_verify"),
    ("geometry.estimate_homography", "arfex.geometry", "estimate_homography"),
    ("store.query_image", "arfex.store", "query_image"),
    ("store.save_db", "arfex.store", "save_db"),
    ("store.save_db", "arfex.cli", "save_db"),
    ("store.load_db", "arfex.store", "load_db"),
    ("store.load_db", "arfex.cli", "load_db"),
    ("blobs.binarize", "arfex.blobs", "binarize"),
    ("blobs.detect_blobs", "arfex.blobs", "detect_blobs"),
    ("cli.main", "arfex.cli", "main"),
)
NAMES = tuple(dict.fromkeys(name for name, _, _ in SITES))


# Counts taken from a call's arguments and result, outside its span.
COUNTERS = {
    "image_io.read_image": lambda args, out: {"image_io.pixels": out.width * out.height},
    "features.detect_interest_points": lambda args, out: {"features.points": len(out)},
    "matching.match_descriptors": lambda args, out: {"matching.matches": len(out)},
    "geometry.ransac_verify": lambda args, out: {"geometry.verified": int(out.verified)},
    "blobs.detect_blobs": lambda args, out: {
        "blobs.blobs": len(out),
        "blobs.runs": sum(len(b.member_runs) for b in out),
    },
    "store.save_db": lambda args, out: {"store.bytes": os.path.getsize(args[1])},
    "store.load_db": lambda args, out: {"store.bytes": os.path.getsize(args[0])},
}

SETUP_OP = -1


class Tracer:
    """Context manager that wraps SITES while active and keeps every span."""

    def __init__(self):
        from arfex.errors import DegenerateConfiguration, SingularSystem

        self._degenerate = (DegenerateConfiguration, SingularSystem)
        self.op = SETUP_OP  # the operation that new spans belong to
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.ops = array("i")
        self.degenerate = array("b")  # 1 if the call raised a degenerate-sample error
        self.counts: dict[tuple[str, int], int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for name, module_name, attr in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(NAMES.index(name), fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, name_id: int, fn):
        counter = COUNTERS.get(NAMES[name_id])

        def traced(*args, **kwargs):
            span = len(self.name)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op)
            self.end.append(0.0)
            self.degenerate.append(0)
            self._stack.append(span)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except self._degenerate:
                self.degenerate[span] = 1
                raise
            finally:
                self.end[span] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(args, out).items():
                    self.counts[key, self.op] = self.counts.get((key, self.op), 0) + value
            return out

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.ops, dtype=np.int32),
            "degenerate": np.array(self.degenerate, dtype=np.int8),
        }

    def save(self, stem: Path) -> None:
        """Spans to `<stem>-spans.npz`, span names and counts to `<stem>-counts.json`."""
        np.savez_compressed(f"{stem}-spans.npz", **self.arrays())
        counts: dict[str, dict[str, int]] = {}
        for (key, op), value in sorted(self.counts.items()):
            counts.setdefault(key, {})[str(op)] = value
        doc = {"names": list(NAMES), "counts_by_op": counts}
        Path(f"{stem}-counts.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="ascii")


def self_times(duration: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans of one thread nest without overlap, so the children of a span
    cover exactly the sum of their durations.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=duration.size)
    return duration - covered


# Layers whose only calls on some workload happen in set-up (persistence in
# `query`) are summed over set-up as well; every other sum covers timed
# operations only.
SETUP_INCLUDED = ("store.save_db", "store.load_db")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer sums over the traced operations: {metric: (value, unit)}."""
    a = tracer.arrays()
    duration = a["end"] - a["start"]
    self_s = self_times(duration, a["parent"])
    timed = a["op"] != SETUP_OP

    def spans(name):
        keep = a["name"] == NAMES.index(name)
        return keep if name in SETUP_INCLUDED else keep & timed

    def total(name):
        return float(duration[spans(name)].sum())

    def own(name):
        return float(self_s[spans(name)].sum())

    def calls(name):
        return int(spans(name).sum())

    def count(key, setup=False):
        return sum(v for (k, op), v in tracer.counts.items() if k == key and (setup or op != SETUP_OP))

    def ratio(num, den):
        return num / den if den else 0.0

    hypotheses = calls("geometry.estimate_homography")
    degenerate = int(a["degenerate"][spans("geometry.estimate_homography")].sum())
    persist_s = total("store.save_db") + total("store.load_db")
    return {
        "image_io.read_image_s": (total("image_io.read_image"), "s"),
        "image_io.decode_mpx_per_s": (ratio(count("image_io.pixels") / 1e6, total("image_io.read_image")), "Mpx/s"),
        "image.to_grayscale_s": (total("image.to_grayscale"), "s"),
        "image.build_integral_s": (total("image.build_integral"), "s"),
        "features.build_response_maps_s": (total("features.build_response_maps"), "s"),
        "features.detect_interest_points_s": (total("features.detect_interest_points"), "s"),
        "features.points": (count("features.points"), "count"),
        "features.assign_orientation_s": (total("features.assign_orientation"), "s"),
        "features.assign_orientation_calls": (calls("features.assign_orientation"), "count"),
        "features.extract_descriptor_s": (total("features.extract_descriptor"), "s"),
        "features.extract_descriptor_calls": (calls("features.extract_descriptor"), "count"),
        "features.extract_features_self_s": (own("features.extract_features"), "s"),
        "matching.match_descriptors_s": (total("matching.match_descriptors"), "s"),
        "matching.match_descriptors_calls": (calls("matching.match_descriptors"), "count"),
        "matching.matches": (count("matching.matches"), "count"),
        "geometry.ransac_verify_self_s": (own("geometry.ransac_verify"), "s"),
        "geometry.ransac_verify_calls": (calls("geometry.ransac_verify"), "count"),
        "geometry.verified": (count("geometry.verified"), "count"),
        "geometry.estimate_homography_s": (total("geometry.estimate_homography"), "s"),
        "geometry.estimate_homography_calls": (hypotheses, "count"),
        "geometry.degenerate_samples": (degenerate, "count"),
        "geometry.useful_sample_ratio": (ratio(hypotheses - degenerate, hypotheses), "ratio"),
        "store.query_image_self_s": (own("store.query_image"), "s"),
        "store.save_db_s": (total("store.save_db"), "s"),
        "store.load_db_s": (total("store.load_db"), "s"),
        "store.db_mb_per_s": (ratio(count("store.bytes", setup=True) / 1e6, persist_s), "MB/s"),
        "blobs.binarize_s": (total("blobs.binarize"), "s"),
        "blobs.detect_blobs_s": (total("blobs.detect_blobs"), "s"),
        "blobs.blobs": (count("blobs.blobs"), "count"),
        "blobs.runs": (count("blobs.runs"), "count"),
        "cli.main_self_s": (own("cli.main"), "s"),
    }
