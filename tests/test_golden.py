"""The golden outputs keep their bytes across changes (see golden_outputs.py)."""

import json

import pytest

from golden_outputs import MANIFEST, commands, environment, generate


def test_outputs_keep_their_bits(tmp_path):
    # The file list and the commands, each of which must exit 0, are checked
    # on any machine; the bits depend on Python, numpy and the BLAS kernel,
    # so the digests are compared only where the manifest was made.
    manifest = json.loads(MANIFEST.read_text())
    assert sorted(manifest["files"]) == sorted(commands())
    digests = generate(tmp_path)
    if manifest["environment"] != environment():
        pytest.skip(
            f"all {len(digests)} golden files were made, but their digests are not compared: "
            f"the manifest was made on {manifest['environment']}, this is {environment()}"
        )
    # The names only: the manifest holds each file's command.
    moved = [name for name, entry in manifest["files"].items() if digests[name] != entry["sha256"]]
    assert not moved, f"{len(moved)} of {len(digests)} golden files moved: " + ", ".join(moved)
