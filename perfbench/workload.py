"""One workload in one fresh process: set up, warm up, then timed rounds.

`run.py` starts this script once per set-up it measures.  It prints one
JSON line: when the first timed operation was ready to start (on the
system-wide monotonic clock), the wall time of every timed operation,
how many were attempted and failed, the problems the checks found, and,
in a traced run, the per-layer sums.

A run ends after the round during which `--seconds` ran out, so each
run measures whole rounds.  In a traced run every operation runs twice in
a row, untraced and then traced, each on its own copy of the workload's
state (its "lane"); the time difference is the tracing overhead, and the
two outputs must be equal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import arfex  # noqa: E402
from arfex import blobs, cli, features, image, image_io, store  # noqa: E402
from arfex.image import RasterImage  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

if not Path(arfex.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"arfex imported from {arfex.__file__}, not from this checkout's src/")


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _point_arrays(points, descs):
    xy = np.array([(p.x, p.y) for p in points], dtype=np.float64).reshape(-1, 2)
    return (
        xy,
        np.array([p.laplacian_sign for p in points], dtype=np.int64),
        np.array([p.orientation for p in points], dtype=np.float64),
        np.array([p.response for p in points], dtype=np.float64),
        np.array([p.scale for p in points], dtype=np.float64),
        np.array([d.components for d in descs], dtype=np.float64).reshape(len(descs), -1),
        np.array([d.laplacian_sign for d in descs], dtype=np.int64),
    )


class Workload:
    """Inputs and program set-up in __init__; then rounds of `op(k, lane)`.

    Round r may prepare its operations in `start_round(r)`; the warm-up is
    operation 0 of round 0.  Only a stateful workload looks at the lane.
    """

    n_ops = 0

    def __init__(self):
        self.digests: dict[object, str] = {}

    def warm_up(self) -> list[str]:
        return self.check(0, self.op(0, 0))

    def start_round(self, r: int) -> None:
        pass

    def op(self, k: int, lane: int):
        raise NotImplementedError

    def check(self, k: int, out) -> list[str]:
        raise NotImplementedError

    def end_round(self, lanes: int) -> list[str]:
        return []

    def same_as_before(self, key, digest: str) -> list[str]:
        """The operation named `key` gives the same output every time it runs."""
        first = self.digests.setdefault(key, digest)
        return [] if first == digest else ["output differs from an earlier run of the same operation"]


class Frames(Workload):
    """Camera frames on disk: read_image, extract_features, binarize, detect_blobs."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        self.frames = gen.frame_round(seed)
        self.paths = []
        for k, frame in enumerate(self.frames):
            path = workdir / f"frame{k}.{frame.spec.fmt}"
            path.write_bytes(gen.encode(frame))
            self.paths.append(path)
        self.n_ops = len(self.frames)

    def op(self, k, lane):
        img = image_io.read_image(self.paths[k])
        points, descs = features.extract_features(img)
        mask = blobs.binarize(image.to_grayscale(img), gen.BACKGROUND)
        return img, points, descs, mask, blobs.detect_blobs(mask)

    def check(self, k, out):
        img, points, descs, mask, found = out
        frame = self.frames[k]
        xy, signs, theta, response, scale, desc, desc_signs = _point_arrays(points, descs)
        table = np.array([(b.pixel_count, *b.bbox, *b.centroid) for b in found], dtype=np.float64)
        want_mask = checks.luminance(frame.pixels) >= gen.BACKGROUND
        problems = checks.check_pixels(img.pixels, frame.pixels)
        if not np.array_equal(mask, want_mask):
            problems.append("binarized mask differs from the luminance threshold")
        problems += checks.check_blobs(table, want_mask)
        problems += checks.check_keypoints(xy, signs, theta, response, desc, desc_signs, img.width, img.height)
        problems += checks.check_recall(xy, frame.bumps)
        problems += self.same_as_before(k, _digest(xy, signs, theta, response, scale, desc, table))
        return [f"frame {k}: {p}" for p in problems]


class Query(Workload):
    """query_image on in-memory frames against a database saved and loaded in set-up."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        self.seed = seed
        self.textures, self.centres = gen.query_records(seed)
        db = store.Database()
        for k, texture in enumerate(self.textures):
            db = store.index_image(
                db, RasterImage(gen.to_rgb(texture)), gen.record_id(k), gen.record_name(k), gen.record_info(k)
            )
        path = workdir / "objects.json"
        store.save_db(db, path)
        self.db = store.load_db(path)
        self.db_bytes = path.stat().st_size
        self.r = -1
        self.start_round(0)

    def start_round(self, r):
        if r != self.r:
            self.r = r
            self.queries = gen.query_round(self.seed, r, self.textures)
            self.frames = [RasterImage(q.pixels) for q in self.queries]
            self.n_ops = len(self.frames)

    def op(self, k, lane):
        result, _ = store.query_image(self.db, self.frames[k])
        return result

    def check(self, k, result):
        q = self.queries[k]
        model = result.ranked[0].verification.model
        h = model.h if model is not None else np.zeros(0)
        if q.source < 0:
            problems = checks.check_negative(result.best, result.associated_info, store.UNRECOGNIZED)
        else:
            want_info = {"name": gen.record_name(q.source), "info": gen.record_info(q.source)}
            centres = self.centres[q.source]
            truth = gen.similarity(centres, gen.OBJECT_SIZE, q.angle, q.scale)
            problems = checks.check_view(
                result.best, result.associated_info, h, gen.record_id(q.source), want_info, centres, truth
            )
        ranked = [(c.object_id, c.match_count, c.verification.inlier_indices) for c in result.ranked]
        answer = np.frombuffer(repr((result.best, ranked)).encode(), np.uint8)
        problems += self.same_as_before((self.r, k), _digest(answer, h))
        return [f"round {self.r} query {k} ({q.kind}): {p}" for p in problems]


class Catalog(Workload):
    """`arfex index` called in-process, growing one database file per round and lane."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        self.workdir = workdir
        self.dbs = [workdir / "catalog.json", workdir / "catalog-traced.json"]
        self.want = []
        self.argvs = []
        for k, pixels in enumerate(gen.catalog_inputs(seed)):
            ppm = workdir / f"object{k}.ppm"
            ppm.write_bytes(gen.encode_ppm(pixels))
            info = gen.record_info(k)
            info_arg = info
            if k % 2:  # every other info text comes from an @file
                info_file = workdir / f"info{k}.txt"
                info_file.write_text(info, encoding="utf-8")
                info_arg = f"@{info_file}"
            self.want.append((gen.record_id(k), gen.record_name(k), info))
            self.argvs.append(
                ["--input", str(ppm), "--id", gen.record_id(k), "--name", gen.record_name(k), "--info", info_arg]
            )
        self.n_ops = len(self.argvs)
        self.db_bytes = 0

    def _index(self, k, db_path):
        code = cli.main(["index", "--db", str(db_path), *self.argvs[k]])
        if code != 0:
            raise RuntimeError(f"arfex index exited {code}")

    def warm_up(self):
        scratch = self.workdir / "warm-up.json"
        self._index(0, scratch)
        scratch.unlink()
        return []

    def start_round(self, r):
        for db in self.dbs:
            db.unlink(missing_ok=True)

    def op(self, k, lane):
        self._index(k, self.dbs[lane])

    def check(self, k, out):
        return []

    def end_round(self, lanes):
        problems = []
        for db in self.dbs[:lanes]:
            data = db.read_bytes()
            self.db_bytes = len(data)
            problems += checks.check_catalog(data, self.want)
            resaved = self.workdir / "resaved.json"
            store.save_db(store.load_db(db), resaved)
            if resaved.read_bytes() != data:
                problems.append("saving the loaded catalog changed its bytes")
            problems += self.same_as_before("file", _digest(np.frombuffer(data, np.uint8)))
        return [f"catalog: {p}" for p in problems]


WORKLOADS = {"frames": Frames, "query": Query, "catalog": Catalog}


def _timed(work: Workload, k: int, lane: int, tracer, times: list[float], problems: list[str]) -> int:
    """Run and check operation k once; returns 1 if it failed."""
    try:
        if tracer is None:
            t0 = time.perf_counter()
            out = work.op(k, lane)
            t1 = time.perf_counter()
        else:
            tracer.op = len(times)
            with tracer:
                t0 = time.perf_counter()
                out = work.op(k, lane)
                t1 = time.perf_counter()
    except (Exception, SystemExit) as exc:  # argparse exits on a bad argument list
        problems.append(f"operation {k} failed: {exc!r}")
        return 1
    times.append(t1 - t0)
    problems += work.check(k, out)
    return 0


def run_round(work: Workload, r: int, tracer, times, traced_times, problems) -> tuple[int, int]:
    """Round r: every operation, and its traced twin if `tracer` is given.
    Returns (attempted, failed).

    A twin that runs second finds warm caches, so the order alternates.
    """
    work.start_round(r)
    runs = [(0, None, times)] if tracer is None else [(0, None, times), (1, tracer, traced_times)]
    failed = 0
    for k in range(work.n_ops):
        for lane, lane_tracer, lane_times in runs[:: 1 - 2 * (k % 2)]:
            failed += _timed(work, k, lane, lane_tracer, lane_times, problems)
    problems += work.end_round(len(runs))
    return work.n_ops * len(runs), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true", help="exit once the first operation could start")
    parser.add_argument("--trace-stem", type=Path, help="traced run: write spans and counts to <stem>-*")
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)

    tracer = tracing.Tracer() if args.trace_stem else None
    if tracer is None:
        work = WORKLOADS[args.workload](args.seed, args.workdir)
    else:
        with tracer:
            work = WORKLOADS[args.workload](args.seed, args.workdir)
    problems = work.warm_up()
    ready = time.monotonic()

    times: list[float] = []
    traced_times: list[float] = []
    attempted = failed = r = 0
    while not args.setup_only:
        n, bad = run_round(work, r, tracer, times, traced_times, problems)
        attempted += n
        failed += bad
        r += 1
        if time.monotonic() - ready >= args.seconds:
            break

    result = {
        "ready": ready,
        "op_seconds": times + traced_times,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        layers["store.db_bytes"] = (getattr(work, "db_bytes", 0), "B")
        layers["trace.overhead_s"] = (sum(traced_times) - sum(times), "s")
        result["layers"] = layers
        tracer.save(args.trace_stem)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
