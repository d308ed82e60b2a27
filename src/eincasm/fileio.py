"""File formats and atomic persistence.

Every artifact the package writes goes through write-temp-then-rename so
an interrupted run can never leave a half-written checkpoint or log
behind. All formats carry a ``schema_version`` so downstream regression
suites notice drift instead of silently absorbing it.

Formats:

* evolution log CSV: schema_version, generation, best_fitness,
  mean_fitness, n_species, best_genome_nodes, best_genome_connections;
* checkpoint JSON: {schema_version, config, generation, registry, genomes},
  a write-only snapshot for inspection: it omits species state, so no
  run resumes from it;
* trajectory JSON: per-step records plus a SHA-256 over their canonical
  serialization — replay verifies the hash to detect nondeterminism;
* frames: binary PPM (P6), 8-bit, mass/chemoattractant/reservoir mapped
  to R/G/B with obstacles white.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from .substrate import WorldState

SCHEMA_VERSION = 1

LOG_COLUMNS = (
    "schema_version",
    "generation",
    "best_fitness",
    "mean_fitness",
    "n_species",
    "best_genome_nodes",
    "best_genome_connections",
)


def atomic_write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def log_rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=LOG_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({**row, "schema_version": SCHEMA_VERSION})
    return buf.getvalue()


# -- trajectory logs ---------------------------------------------------------


def trajectory_digest(steps: list[dict]) -> str:
    canonical = json.dumps(steps, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def trajectory_payload(meta: dict, steps: list[dict]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "meta": meta,
        "steps": steps,
        "sha256": trajectory_digest(steps),
    }


def verify_trajectory(payload: dict) -> bool:
    """True iff the embedded hash matches the recomputed one."""
    steps = payload.get("steps")
    if not isinstance(steps, list) or "sha256" not in payload:
        raise ValueError("trajectory log carries no steps or no hash")
    return trajectory_digest(steps) == payload["sha256"]


# -- frames ------------------------------------------------------------------


def render_frame(world: WorldState, display_max: float = 1.0) -> bytes:
    """Encode one world snapshot as binary PPM.

    R = mass, G = chemoattractant, B = reservoir, each quantized as
    round(255 * clamp(value / display_max, 0, 1)); obstacle cells render
    white.
    """
    h, w = world.shape.yx

    def quantize(channel: np.ndarray) -> np.ndarray:
        return np.round(255.0 * np.clip(channel / display_max, 0.0, 1.0)).astype(np.uint8)

    rgb = np.stack([quantize(world.mass), quantize(world.chemo), quantize(world.reservoir)], axis=-1)
    rgb[world.obstacle > 0.5] = 255
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    return header + rgb.tobytes()


def frame_name(index: int) -> str:
    return f"frame_{index:06d}.ppm"
