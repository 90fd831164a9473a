"""Program images of the built-in workloads.

Each built-in loads from its committed image instead of compiling.  The
images must stay exactly what the current toolchain makes of the
current sources, and a damaged or stale image must stop the run with an
error naming the rebuild command rather than run something else.
"""

import hashlib

import pytest

import repro.workloads as workloads
from repro.minic import compile_to_program
from repro.workloads import builtin_workloads, get_workload, load_workload
from repro.workloads import images
from repro.workloads.images import (
    REBUILD_COMMAND,
    ImageError,
    decode_image,
    encode_image,
    image_path,
    load_image,
)


@pytest.mark.parametrize("workload", builtin_workloads(),
                         ids=lambda w: w.name)
def test_image_matches_a_fresh_compile(workload):
    program = compile_to_program(workload.source, source_name=workload.name)
    assert load_image(workload) == program
    assert encode_image(program, workload.source) == \
        image_path(workload.name).read_bytes()


def test_every_image_belongs_to_a_builtin():
    on_disk = sorted(path.stem for path in images.IMAGE_DIR.glob("*.img"))
    assert on_disk == sorted(w.name for w in builtin_workloads())


def test_builtins_load_from_their_images(monkeypatch):
    monkeypatch.setattr(workloads, "_PROGRAMS", {})
    program = load_workload("crc")
    assert program == load_image(get_workload("crc"))
    assert program.source_name == "crc"
    assert type(program.text) is bytes and type(program.data) is bytes


def _crc():
    workload = get_workload("crc")
    return workload, image_path("crc").read_bytes()


def _flip(image: bytes, at: int) -> bytes:
    return image[:at] + bytes([image[at] ^ 1]) + image[at + 1:]


@pytest.mark.parametrize("tamper, problem", [
    (lambda image: b"NOTANIMG" + image[8:], "not a program image"),
    (lambda image: image[:40], "not a program image"),
    (lambda image: image[:-1], "body digest mismatch"),
    (lambda image: _flip(image, len(image) // 2), "body digest mismatch"),
    (lambda image: _flip(image, 8), "format version"),
], ids=["magic", "short-header", "truncated", "flipped-byte", "version"])
def test_a_damaged_image_raises_naming_the_rebuild(tamper, problem):
    workload, image = _crc()
    with pytest.raises(ImageError, match=problem) as info:
        decode_image(tamper(image), workload.source, "crc.img")
    assert REBUILD_COMMAND in str(info.value)
    assert "crc.img" in str(info.value)


def test_a_stale_image_raises():
    workload, image = _crc()
    with pytest.raises(ImageError, match="stale") as info:
        decode_image(image, workload.source + "\n", "crc.img")
    assert REBUILD_COMMAND in str(info.value)


def _resign(image: bytes) -> bytes:
    """``image`` with its body digest recomputed over what follows the
    header, so only the length checks can catch a bad body."""
    size = images._HEADER.size
    return image[:44] + hashlib.sha256(image[size:]).digest() \
        + image[76:size] + image[size:]


def test_a_re_signed_body_of_the_wrong_length_raises():
    workload, image = _crc()
    program = decode_image(_resign(image), workload.source)
    last = len(list(program.symbols)[-1])
    for tampered, problem in [
            (image + b"\0", "lengths disagree"),
            (image[:-last], "lengths disagree"),
            # half of the last symbol's (value, length) record
            (image[:-last - 3], "malformed")]:
        with pytest.raises(ImageError, match=problem):
            decode_image(_resign(tampered), workload.source)


def test_load_workload_never_falls_back_to_compiling(monkeypatch, tmp_path):
    """A built-in whose image is missing, stale or damaged raises; it is
    never compiled from its source instead."""
    _, image = _crc()
    monkeypatch.setattr(workloads, "_PROGRAMS", {})
    monkeypatch.setattr(images, "IMAGE_DIR", tmp_path)
    with pytest.raises(ImageError, match="cannot be read"):
        load_workload("crc")
    (tmp_path / "crc.img").write_bytes(image[:-4])
    with pytest.raises(ImageError, match="body digest mismatch"):
        load_workload("crc")
    (tmp_path / "sha.img").write_bytes(image)
    with pytest.raises(ImageError, match="stale"):
        load_workload("sha")
    assert workloads._PROGRAMS == {}


def test_the_rebuild_tool_writes_the_committed_bytes(monkeypatch, tmp_path,
                                                     capsys):
    monkeypatch.setattr(workloads, "builtin_workloads",
                        lambda: [get_workload("crc"), get_workload("sha")])
    assert images.main(["--out", str(tmp_path / "out")]) == 0
    for name in ("crc", "sha"):
        assert (tmp_path / "out" / f"{name}.img").read_bytes() == \
            image_path(name).read_bytes()
    assert capsys.readouterr().out.count(".img") == 2
