"""Corpus assembly: generate many kernels, fingerprint them, register them.

A corpus is identified by ``(seed, knobs)`` and materialised as a
*manifest* — JSON carrying the corpus parameters plus, per kernel, the
concrete knob draw and four fingerprints (source sha256, assembled-image
sha256, architectural checksum, output hash).  Sources are **not**
stored: the generator is deterministic, so
``generate_source(seed, index, knobs, checksum)`` rebuilds each kernel
byte-identically, and :func:`register_corpus` verifies the rebuilt
source against the manifest's ``source_sha256`` before admitting it to
the :mod:`repro.workloads` registry.  That check is what turns the
manifest into a *versioned* artifact — if the generator ever drifts, a
stale manifest refuses to load instead of silently renaming different
programs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.corpus.generator import GeneratedKernel, generate_kernel, \
    generate_source, kernel_name
from repro.corpus.knobs import CorpusKnobs, KernelKnobs, draw_kernel_knobs

MANIFEST_VERSION = 1


@dataclass
class CorpusStats:
    """Carrier for the closed ``corpus.*`` counter/timer namespace."""

    kernels_generated: int = 0
    kernels_verified: int = 0
    verify_failures: int = 0
    kernels_registered: int = 0
    dynamic_instructions: int = 0
    generate_seconds: float = 0.0
    verify_seconds: float = 0.0


class ManifestError(ValueError):
    """A manifest is malformed or does not match the generator."""


@dataclass
class Corpus:
    """A generated corpus: the kernels plus everything the manifest holds."""

    seed: int
    knobs: CorpusKnobs
    kernels: List[GeneratedKernel] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.kernels)

    def names(self) -> List[str]:
        return [kernel.name for kernel in self.kernels]

    def manifest(self) -> Dict[str, object]:
        return {
            "version": MANIFEST_VERSION,
            "seed": self.seed,
            "count": self.count,
            "profile": self.knobs.profile,
            "corpus_knobs": self.knobs.to_dict(),
            "kernels": [kernel.manifest_entry() for kernel in self.kernels],
        }

    def manifest_json(self) -> str:
        return json.dumps(self.manifest(), indent=2, sort_keys=True) + "\n"

    def write(self, path: str, telemetry=None) -> str:
        text = self.manifest_json()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        if telemetry is not None:
            telemetry.emit("corpus.manifest_written", path=str(path),
                           seed=self.seed, count=self.count)
        return text


def generate_corpus(seed: int, count: int,
                    knobs: Optional[CorpusKnobs] = None,
                    telemetry=None,
                    stats: Optional[CorpusStats] = None) -> Corpus:
    """Generate and self-check ``count`` kernels for corpus ``seed``.

    Every kernel is verified through the interpreter at generation time
    (see :func:`repro.corpus.generator.generate_kernel`); a verification
    failure aborts the corpus — a partially-bad corpus must never reach
    a manifest.
    """
    from time import perf_counter

    from repro.corpus.generator import GenerationError

    knobs = knobs or CorpusKnobs.mixed()
    stats = stats if stats is not None else CorpusStats()
    corpus = Corpus(seed=seed, knobs=knobs)
    started = perf_counter()
    for index in range(count):
        try:
            kernel = generate_kernel(seed, index, corpus=knobs)
        except GenerationError:
            stats.verify_failures += 1
            if telemetry is not None:
                _export(telemetry, stats)
            raise
        stats.kernels_generated += 1
        stats.kernels_verified += 1
        stats.dynamic_instructions += kernel.instructions
        corpus.kernels.append(kernel)
        if telemetry is not None:
            telemetry.emit("corpus.kernel_generated", name=kernel.name,
                           seed=seed, index=index,
                           category=kernel.category,
                           checksum=f"0x{kernel.checksum:08x}",
                           instructions=kernel.instructions)
    stats.generate_seconds += perf_counter() - started
    # Self-check runs dominate generation; attribute half the wall time
    # to verification would be a guess — instead time is all reported
    # under generate_seconds and verify_seconds counts only re-verify
    # passes (registration-time audits).
    if telemetry is not None:
        _export(telemetry, stats)
    return corpus


def _export(telemetry, stats: CorpusStats) -> None:
    from repro.obs.schema import corpus_counters, corpus_timers

    telemetry.count_many(corpus_counters(stats))
    for name, value in corpus_timers(stats).items():
        telemetry.add_time(name, value)


def load_manifest(path: str) -> Dict[str, object]:
    """Read and structurally validate a manifest file."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    _check_manifest(payload, origin=str(path))
    return payload


def _check_manifest(payload: object, origin: str) -> None:
    if not isinstance(payload, dict):
        raise ManifestError(f"{origin}: manifest must be a JSON object")
    version = payload.get("version")
    if version != MANIFEST_VERSION:
        raise ManifestError(
            f"{origin}: manifest version {version!r} is not "
            f"{MANIFEST_VERSION}")
    for key in ("seed", "count", "corpus_knobs", "kernels"):
        if key not in payload:
            raise ManifestError(f"{origin}: manifest missing {key!r}")
    kernels = payload["kernels"]
    if not isinstance(kernels, list) or len(kernels) != payload["count"]:
        raise ManifestError(
            f"{origin}: kernel list does not match count="
            f"{payload['count']!r}")
    for entry in kernels:
        for key in ("name", "index", "knobs", "checksum", "source_sha256"):
            if key not in entry:
                raise ManifestError(
                    f"{origin}: kernel entry missing {key!r}")


def rebuild_kernel_source(seed: int, entry: Dict[str, object]) -> str:
    """Regenerate one manifest kernel's source, verifying its hash."""
    import hashlib

    knobs = KernelKnobs.from_dict(entry["knobs"])
    checksum = int(entry["checksum"], 16)
    source = generate_source(seed, int(entry["index"]), knobs,
                             expected=checksum)
    digest = hashlib.sha256(source.encode()).hexdigest()
    if digest != entry["source_sha256"]:
        raise ManifestError(
            f"kernel {entry['name']}: regenerated source hash {digest} "
            f"does not match manifest {entry['source_sha256']} — the "
            f"generator has drifted from the manifest's version")
    return source


def register_corpus(manifest, telemetry=None,
                    stats: Optional[CorpusStats] = None) -> List[str]:
    """Admit a corpus (manifest dict or :class:`Corpus`) to the registry.

    Returns the registered workload names in manifest order.  Loading is
    idempotent: re-registering an identical corpus is a no-op, while a
    name collision with different content raises (see
    :func:`repro.workloads.register_workload`).
    """
    from repro.workloads import Workload, register_workload

    stats = stats if stats is not None else CorpusStats()
    if isinstance(manifest, Corpus):
        seed = manifest.seed
        profile = manifest.knobs.profile
        pairs = [(kernel.manifest_entry(), kernel.source)
                 for kernel in manifest.kernels]
    else:
        seed = int(manifest["seed"])
        profile = manifest.get("profile", "mixed")
        pairs = [(entry, rebuild_kernel_source(seed, entry))
                 for entry in manifest["kernels"]]

    names: List[str] = []
    for entry, source in pairs:
        register_workload(Workload(
            name=str(entry["name"]),
            paper_name=str(entry["name"]),
            category=str(entry.get("category", "mid")),
            source=source,
            description=(f"synthetic corpus kernel (seed {seed}, "
                         f"profile {profile}, "
                         f"checksum {entry['checksum']})"),
            kind="asm"))
        names.append(str(entry["name"]))
        stats.kernels_registered += 1
    if telemetry is not None:
        telemetry.emit("corpus.registered", seed=seed, count=len(names),
                       profile=str(profile))
        _export(telemetry, stats)
    return names


def draw_manifest_knobs(seed: int, count: int,
                        knobs: Optional[CorpusKnobs] = None
                        ) -> List[KernelKnobs]:
    """The concrete knob draws a corpus would use, without generating.

    Cheap preview for ``repro corpus list --dry-run`` style inspection.
    """
    knobs = knobs or CorpusKnobs.mixed()
    return [draw_kernel_knobs(seed, index, knobs) for index in range(count)]
