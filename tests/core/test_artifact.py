"""Tests for the binary placement artifact format (core/artifact.py)."""

import json
import random
import zipfile

import pytest

from repro.core import artifact
from repro.core.artifact import (
    ArtifactError,
    load_npz,
    load_placement,
    save_npz,
    save_placement,
)
from repro.core.placement import Placement, PlacementError
from repro.core.random_placement import RandomStrategy


@pytest.fixture
def placement():
    return RandomStrategy(17, 3).place(120, random.Random(7))


class TestNpzRoundtrip:
    def test_roundtrip_equality(self, placement, tmp_path):
        path = str(tmp_path / "p.npz")
        save_npz(placement, path)
        again = load_npz(path)
        assert again == placement
        assert again.fingerprint() == placement.fingerprint()
        assert again.strategy == placement.strategy

    def test_roundtrip_with_validation(self, placement, tmp_path):
        path = str(tmp_path / "p.npz")
        save_npz(placement, path)
        assert load_npz(path, validate=True) == placement

    def test_extension_dispatch(self, placement, tmp_path):
        npz = str(tmp_path / "p.npz")
        js = str(tmp_path / "p.json")
        save_placement(placement, npz)
        save_placement(placement, js)
        assert load_placement(npz) == placement
        assert load_placement(js) == placement
        # The JSON artifact is the exact to_dict snapshot.
        with open(js, encoding="utf-8") as handle:
            assert json.load(handle) == placement.to_dict()

    def test_numpy_can_open_the_archive(self, placement, tmp_path):
        np = pytest.importorskip("numpy")

        path = str(tmp_path / "p.npz")
        save_npz(placement, path)
        archive = np.load(path)
        assert (archive["rows"] == placement.replica_matrix()).all()
        assert archive["rows"].dtype == np.int32


class TestNpzIntegrity:
    def _rewrite(self, path, out, header=None, blob=None):
        with zipfile.ZipFile(path) as original:
            stored_header = json.loads(original.read("header.json"))
            stored_blob = original.read("rows.npy")
        with zipfile.ZipFile(out, "w") as replacement:
            replacement.writestr(
                "header.json", json.dumps(header or stored_header)
            )
            replacement.writestr("rows.npy", blob or stored_blob)
        return out

    def test_corrupt_rows_detected(self, placement, tmp_path):
        path = str(tmp_path / "p.npz")
        save_npz(placement, path)
        with zipfile.ZipFile(path) as original:
            blob = original.read("rows.npy")
        evil = blob[:-4] + b"\x01\x00\x00\x00"
        bad = self._rewrite(path, str(tmp_path / "bad.npz"), blob=evil)
        with pytest.raises(ArtifactError, match="checksum"):
            load_npz(bad)

    def test_unknown_format_rejected(self, placement, tmp_path):
        path = str(tmp_path / "p.npz")
        save_npz(placement, path)
        with zipfile.ZipFile(path) as original:
            header = json.loads(original.read("header.json"))
        header["format"] = "not-a-placement"
        bad = self._rewrite(path, str(tmp_path / "bad.npz"), header=header)
        with pytest.raises(ArtifactError, match="format"):
            load_npz(bad)

    def test_newer_version_rejected(self, placement, tmp_path):
        path = str(tmp_path / "p.npz")
        save_npz(placement, path)
        with zipfile.ZipFile(path) as original:
            header = json.loads(original.read("header.json"))
        header["version"] = artifact.PLACEMENT_VERSION + 1
        bad = self._rewrite(path, str(tmp_path / "bad.npz"), header=header)
        with pytest.raises(ArtifactError, match="version"):
            load_npz(bad)

    def test_not_a_zip_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(ArtifactError, match="zip"):
            load_npz(str(path))

    def test_shape_mismatch_rejected(self, placement, tmp_path):
        path = str(tmp_path / "p.npz")
        save_npz(placement, path)
        with zipfile.ZipFile(path) as original:
            header = json.loads(original.read("header.json"))
        header["b"] = header["b"] - 1
        bad = self._rewrite(path, str(tmp_path / "bad.npz"), header=header)
        with pytest.raises(ArtifactError, match="rows.npy holds"):
            load_npz(bad)

    def test_invalid_json_placement_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ArtifactError, match="JSON"):
            load_placement(str(path))

    def test_json_boundary_still_validates(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"n": 3, "strategy": "", "replica_sets": [[0, 7]]})
        )
        with pytest.raises(PlacementError):
            load_placement(str(path))


class TestTrustBoundary:
    def test_boundary_loader_validates_npz_by_default(self, tmp_path):
        # A checksum-consistent artifact from an unknown writer can still
        # hold invalid rows; the extension-dispatch (CLI) loader must
        # catch them instead of passing them to the kernels' index paths.
        import hashlib
        import struct
        from array import array as _array

        rows = _array("i", [0, 1, -5, 0])
        data = rows.tobytes()
        npy_header = (
            "{'descr': '<i4', 'fortran_order': False, 'shape': (2, 2), }"
        ).encode()
        pad = -(6 + 2 + 2 + len(npy_header) + 1) % 64
        blob = (
            b"\x93NUMPY" + bytes((1, 0))
            + struct.pack("<H", len(npy_header) + pad + 1)
            + npy_header + b" " * pad + b"\n" + data
        )
        header = {
            "format": artifact.PLACEMENT_FORMAT,
            "version": artifact.PLACEMENT_VERSION,
            "n": 12, "b": 2, "r": 2, "strategy": "evil",
            "sha256": hashlib.sha256(data).hexdigest(),
        }
        path = str(tmp_path / "evil.npz")
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("header.json", json.dumps(header))
            archive.writestr("rows.npy", blob)
        with pytest.raises(PlacementError):
            load_placement(path)

    def test_missing_header_fields_rejected(self, placement, tmp_path):
        path = str(tmp_path / "p.npz")
        save_npz(placement, path)
        with zipfile.ZipFile(path) as original:
            blob = original.read("rows.npy")
        bad = str(tmp_path / "bad.npz")
        with zipfile.ZipFile(bad, "w") as replacement:
            replacement.writestr(
                "header.json",
                json.dumps({
                    "format": artifact.PLACEMENT_FORMAT,
                    "version": artifact.PLACEMENT_VERSION,
                }),
            )
            replacement.writestr("rows.npy", blob)
        with pytest.raises(ArtifactError, match="malformed artifact header"):
            load_npz(bad)

    def test_checksummed_reload_skips_validation(self, tmp_path, monkeypatch):
        placement = Placement.from_replica_sets(9, [(0, 1, 2), (3, 4, 5)])
        path = str(tmp_path / "p.npz")
        save_npz(placement, path)
        calls = []
        original = Placement._validate_rows

        def spy(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Placement, "_validate_rows", spy)
        load_npz(path)
        assert calls == []  # trusted path: no O(b r) re-validation
        load_npz(path, validate=True)
        assert len(calls) == 1


class TestMmapLoading:
    def _saved(self, placement, tmp_path):
        path = str(tmp_path / "p.npz")
        save_npz(placement, path)
        return path

    def test_mmap_matches_eager(self, placement, tmp_path):
        path = self._saved(placement, tmp_path)
        eager = load_npz(path)
        mapped = load_npz(path, mmap=True)
        assert mapped == placement
        assert mapped.fingerprint() == eager.fingerprint()
        assert mapped.strategy == eager.strategy
        assert (mapped.n, mapped.b, mapped.r) == (eager.n, eager.b, eager.r)
        # The rows really are a view over the file, not a heap copy.
        assert isinstance(mapped.replica_array(), memoryview)

    def test_mmap_csr_and_kernel_match(self, placement, tmp_path):
        from repro.core.kernels import make_kernel

        path = self._saved(placement, tmp_path)
        eager = load_npz(path)
        mapped = load_npz(path, mmap=True)
        eager_off, eager_objs = eager.node_csr()
        mapped_off, mapped_objs = mapped.node_csr()
        assert bytes(mapped_off) == bytes(eager_off)
        assert bytes(mapped_objs) == bytes(eager_objs)
        eager_kernel = make_kernel(eager, 2)
        mapped_kernel = make_kernel(mapped, 2)
        for nodes in ([0], [1, 4], [2, 3, 5]):
            assert mapped_kernel.damage_of(
                mapped_kernel.hits_for(nodes)
            ) == eager_kernel.damage_of(eager_kernel.hits_for(nodes))

    def test_boundary_loader_mmap_roundtrip(self, placement, tmp_path):
        path = self._saved(placement, tmp_path)
        assert load_placement(path, mmap=True) == placement

    def test_mmap_still_rejects_tampered_rows(self, placement, tmp_path):
        path = self._saved(placement, tmp_path)
        with zipfile.ZipFile(path) as original:
            header = original.read("header.json")
            blob = original.read("rows.npy")
        evil = blob[:-4] + b"\x01\x00\x00\x00"
        bad = str(tmp_path / "bad.npz")
        with zipfile.ZipFile(bad, "w") as replacement:
            replacement.writestr("header.json", header)
            replacement.writestr("rows.npy", evil)
        with pytest.raises(ArtifactError, match="checksum"):
            load_npz(bad, mmap=True)
        with pytest.raises(ArtifactError, match="checksum"):
            load_placement(bad, mmap=True)

    def test_mmap_validates_structure_in_place(self, placement, tmp_path):
        # Checksum-consistent but structurally invalid rows must still be
        # rejected on the boundary path without copying the view.
        import hashlib
        import struct
        from array import array as _array

        data = _array("i", [0, 1, 9, 0]).tobytes()
        npy_header = (
            "{'descr': '<i4', 'fortran_order': False, 'shape': (2, 2), }"
        ).encode()
        pad = -(6 + 2 + 2 + len(npy_header) + 1) % 64
        blob = (
            b"\x93NUMPY" + bytes((1, 0))
            + struct.pack("<H", len(npy_header) + pad + 1)
            + npy_header + b" " * pad + b"\n" + data
        )
        header = {
            "format": artifact.PLACEMENT_FORMAT,
            "version": artifact.PLACEMENT_VERSION,
            "n": 4, "b": 2, "r": 2, "strategy": "evil",
            "sha256": hashlib.sha256(data).hexdigest(),
        }
        path = str(tmp_path / "evil.npz")
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("header.json", json.dumps(header))
            archive.writestr("rows.npy", blob)
        with pytest.raises(ArtifactError, match="sorted distinct"):
            load_npz(path, validate=True, mmap=True)

    def test_compressed_archive_falls_back_to_eager(
        self, placement, tmp_path
    ):
        path = self._saved(placement, tmp_path)
        with zipfile.ZipFile(path) as original:
            header = original.read("header.json")
            blob = original.read("rows.npy")
        packed = str(tmp_path / "packed.npz")
        with zipfile.ZipFile(
            packed, "w", zipfile.ZIP_DEFLATED
        ) as replacement:
            replacement.writestr("header.json", header)
            replacement.writestr("rows.npy", blob)
        loaded = load_npz(packed, mmap=True)
        assert loaded == placement
        # Eager fallback: a plain heap buffer, not a view.
        assert not isinstance(loaded.replica_array(), memoryview)

    def test_mmap_refusal_falls_back_to_eager(
        self, placement, tmp_path, monkeypatch
    ):
        path = self._saved(placement, tmp_path)

        def refuse(*args, **kwargs):
            raise OSError("filesystem refuses mmap")

        monkeypatch.setattr(artifact._mmaplib, "mmap", refuse)
        loaded = load_npz(path, mmap=True)
        assert loaded == placement
        assert not isinstance(loaded.replica_array(), memoryview)

    def test_mmap_fallback_warns_once_naming_the_reason(
        self, placement, tmp_path, monkeypatch
    ):
        import warnings as _warnings

        import pytest

        path = self._saved(placement, tmp_path)

        def refuse(*args, **kwargs):
            raise OSError("one-shot warning probe")

        monkeypatch.setattr(artifact._mmaplib, "mmap", refuse)
        artifact._MMAP_FALLBACK_WARNED.clear()
        with pytest.warns(RuntimeWarning, match="one-shot warning probe"):
            load_npz(path, mmap=True)
        # Same reason again: degradation already surfaced, stay quiet.
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            load_npz(path, mmap=True)
