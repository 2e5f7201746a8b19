"""The golden outputs keep their bytes across changes (see golden_outputs.py)."""

import json

import pytest

from golden_outputs import MANIFEST, commands, environment, generate


def test_outputs_keep_their_bits(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    if manifest["environment"] != environment():
        pytest.skip(f"the manifest was made on {manifest['environment']}, this is {environment()}")
    assert sorted(manifest["files"]) == sorted(commands())
    digests = generate(tmp_path)
    moved = [
        f"{name} ({entry['command']})"
        for name, entry in manifest["files"].items()
        if digests[name] != entry["sha256"]
    ]
    assert not moved, f"{len(moved)} golden files moved: " + "; ".join(moved)
