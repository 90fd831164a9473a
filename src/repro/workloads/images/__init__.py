"""Program images of the built-in workloads.

The paper feeds DIM GCC-compiled MiBench binaries; the system never
sees source code.  Likewise each of the 18 built-in workloads ships as
a *program image*: the :class:`~repro.asm.program.Program` its mini-C
source compiles to, stored next to this module as ``<name>.img``.
:func:`repro.workloads.load_workload` reads the image of a built-in
instead of compiling it, so running, sweeping or serving the built-ins
never imports the mini-C front end or the assembler.

Every image records the SHA-256 of the source it was built from.  A
missing, malformed or stale image (its recorded digest differs from the
workload's current source) raises :class:`ImageError`, which names the
rebuild command; there is no fallback to compiling.  Rebuild every
image from source with::

    python -m repro.workloads.images [--out DIR]

Format (version 1, little-endian, parsed with :mod:`struct`; no
pickle)::

    offset  size  field
    0       8     magic b"REPROIMG"
    8       4     format version (u32)
    12      32    SHA-256 of the UTF-8 mini-C source
    44      32    SHA-256 of the body (every byte after the header)
    76      4     entry (u32)
    80      4     text_base (u32)
    84      4     data_base (u32)
    88      4     byte length of source_name (u32)
    92      4     byte length of text (u32)
    96      4     byte length of data (u32)
    100     4     number of symbols (u32)
    104     ...   body: source_name (UTF-8), text, data, then per symbol,
                  in the assembler's order: value (u32), name length
                  (u16), name (UTF-8)

The file is exactly as long as its header says; anything else is
malformed.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.asm.program import Program

if TYPE_CHECKING:
    from repro.workloads import Workload

#: where the committed images live (this package's directory).
IMAGE_DIR = Path(__file__).resolve().parent
SUFFIX = ".img"
MAGIC = b"REPROIMG"
VERSION = 1
#: the developer command that regenerates every image from source.
REBUILD_COMMAND = "python -m repro.workloads.images"

_HEADER = struct.Struct("<8sI32s32s7I")
_SYMBOL = struct.Struct("<IH")


class ImageError(Exception):
    """A built-in workload's program image is missing, malformed or stale."""

    def __init__(self, where: str, problem: str):
        super().__init__(f"program image {where}: {problem}; rebuild the "
                         f"images with `{REBUILD_COMMAND}`")


def source_digest(source: str) -> bytes:
    return hashlib.sha256(source.encode()).digest()


def image_path(name: str, directory: Optional[Path] = None) -> Path:
    """Where the image of workload ``name`` lives (default: IMAGE_DIR)."""
    return Path(directory or IMAGE_DIR) / f"{name}{SUFFIX}"


def encode_image(program: Program, source: str) -> bytes:
    """The image bytes of ``program``, compiled from ``source``."""
    name = program.source_name.encode()
    symbols = [_SYMBOL.pack(value, len(key)) + key
               for key, value in ((k.encode(), v)
                                  for k, v in program.symbols.items())]
    body = b"".join([name, program.text, program.data, *symbols])
    header = _HEADER.pack(
        MAGIC, VERSION, source_digest(source), hashlib.sha256(body).digest(),
        program.entry, program.text_base, program.data_base, len(name),
        len(program.text), len(program.data), len(symbols))
    return header + body


def decode_image(image: bytes, source: str,
                 where: str = "<image>") -> Program:
    """The :class:`Program` an image holds, checked against ``source``.

    Raises :class:`ImageError` (naming ``where``) on a malformed image
    or one built from another source.
    """
    if len(image) < _HEADER.size or not image.startswith(MAGIC):
        raise ImageError(where, "not a program image")
    (_, version, source_sha, body_sha, entry, text_base, data_base,
     name_len, text_len, data_len, count) = _HEADER.unpack_from(image)
    if version != VERSION:
        raise ImageError(where, f"format version {version}, expected "
                                f"{VERSION}")
    body = memoryview(image)[_HEADER.size:]
    if hashlib.sha256(body).digest() != body_sha:
        raise ImageError(where, "body digest mismatch (truncated or "
                                "corrupt)")
    if source_sha != source_digest(source):
        raise ImageError(where, "stale: built from a different source")
    try:
        at = _HEADER.size + name_len
        source_name = image[_HEADER.size:at].decode()
        text = image[at:at + text_len]
        at += text_len
        data = image[at:at + data_len]
        at += data_len
        symbols: Dict[str, int] = {}
        for _ in range(count):
            value, length = _SYMBOL.unpack_from(image, at)
            at += _SYMBOL.size
            symbols[image[at:at + length].decode()] = value
            at += length
    except (struct.error, UnicodeDecodeError) as exc:
        raise ImageError(where, f"malformed ({exc})") from exc
    if at != len(image):
        raise ImageError(where, "lengths disagree with the header")
    return Program(text=text, data=data, entry=entry, text_base=text_base,
                   data_base=data_base, symbols=symbols,
                   source_name=source_name)


def load_image(workload: "Workload",
               directory: Optional[Path] = None) -> Program:
    """Read and check the image of one built-in workload."""
    path = image_path(workload.name, directory)
    try:
        image = path.read_bytes()
    except OSError as exc:
        raise ImageError(str(path), f"cannot be read ({exc.strerror})") \
            from exc
    return decode_image(image, workload.source, str(path))


def main(argv: Optional[List[str]] = None) -> int:
    """Compile every built-in workload and write its image."""
    import argparse

    from repro.minic import compile_to_program
    from repro.workloads import builtin_workloads

    parser = argparse.ArgumentParser(
        prog=REBUILD_COMMAND,
        description="Regenerate the built-in workloads' program images "
                    "from their mini-C sources.")
    parser.add_argument("--out", type=Path, default=IMAGE_DIR,
                        help="directory to write the images to "
                             "(default: the package's image directory)")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    for workload in builtin_workloads():
        program = compile_to_program(workload.source,
                                     source_name=workload.name)
        path = image_path(workload.name, args.out)
        path.write_bytes(encode_image(program, workload.source))
        print(path)
    return 0
