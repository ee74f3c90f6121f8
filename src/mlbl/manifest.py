"""Run manifests: reproducibility sidecars written next to every artifact.

A manifest records the command, its configuration snapshot, SHA-256
digests of the input files and of the artifact itself, the seed and the
toolkit version; wall-clock timings are kept in the sidecar only so the
artifacts themselves stay byte-identical across reruns.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from . import __version__
from ._io import atomic_open


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def input_digests(inputs: list[str | Path]) -> dict[str, str]:
    """The SHA-256 digest of each input file, by path; a command computes
    them once for all the sidecars it writes."""
    return {str(p): file_digest(p) for p in inputs}


def build_manifest(command: str, config: dict, inputs: dict[str, str],
                   seed: int | None, artifact: str | Path,
                   seconds: float) -> dict:
    """The manifest of one artifact; ``inputs`` comes from ``input_digests``."""
    return {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": config,
        "inputs": inputs,
        "artifact": {str(artifact): file_digest(artifact)},
        "seconds": seconds,
    }


def write_sidecar(manifest: dict, artifact: str | Path) -> Path:
    path = Path(str(artifact) + ".manifest.json")
    with atomic_open(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
