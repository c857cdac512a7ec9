"""Runner semantics: sharding determinism, resume, limits, store reuse."""

import pytest

from repro.analysis import fig2
from repro.exp.registry import ExperimentKernel, figure_spec, register_kernel
from repro.exp.runner import ExperimentError, run_experiment
from repro.exp.spec import ExperimentSpec
from repro.exp.store import RunStore


def _small_fig2_spec():
    return fig2.default_spec(b_values=(600, 1200), s_values=(2, 3), k_max=4)


class TestDeterminism:
    def test_serial_and_sharded_runs_are_bit_identical(self):
        spec = _small_fig2_spec()
        serial = run_experiment(spec, workers=1)
        sharded = run_experiment(spec, workers=3)
        assert serial.metrics == sharded.metrics
        assert serial.result() == sharded.result()


class TestStoreIntegration:
    def test_interrupted_run_resumes_missing_cells_only(self, tmp_path):
        spec = _small_fig2_spec()
        store = RunStore(str(tmp_path / "a"))
        partial = run_experiment(spec, store=store, limit=4)
        assert not partial.complete
        assert partial.computed >= 4  # stopped at the next shard boundary
        assert partial.recomputed == 0

        resumed = run_experiment(spec, store=store, resume=True)
        assert resumed.complete
        assert resumed.loaded == partial.computed
        assert resumed.computed == len(resumed.cells) - partial.computed
        assert resumed.recomputed == 0

    def test_resumed_store_bytes_match_uninterrupted_run(self, tmp_path):
        spec = _small_fig2_spec()
        interrupted = RunStore(str(tmp_path / "a"))
        run_experiment(spec, store=interrupted, limit=4)
        resumed = run_experiment(spec, store=interrupted, resume=True)

        uninterrupted = RunStore(str(tmp_path / "b"))
        reference = run_experiment(spec, store=uninterrupted)

        with open(interrupted.cells_file(spec), "rb") as handle:
            resumed_bytes = handle.read()
        with open(uninterrupted.cells_file(spec), "rb") as handle:
            reference_bytes = handle.read()
        assert resumed_bytes == reference_bytes
        assert resumed.result() == reference.result()

    def test_torn_tail_resume_is_still_bit_identical(self, tmp_path):
        spec = _small_fig2_spec()
        store = RunStore(str(tmp_path / "a"))
        run_experiment(spec, store=store, limit=4)
        with open(store.cells_file(spec), "ab") as handle:
            handle.write(b'{"cell": {"torn": ')  # kill mid-append
        resumed = run_experiment(spec, store=store, resume=True)
        assert resumed.complete

        reference = run_experiment(
            spec, store=RunStore(str(tmp_path / "b"))
        )
        assert resumed.metrics == reference.metrics

    def test_complete_store_serves_rerenders_without_recompute(self, tmp_path):
        spec = _small_fig2_spec()
        store = RunStore(str(tmp_path))
        first = run_experiment(spec, store=store)
        again = run_experiment(spec, store=store)
        assert first.complete and again.complete
        assert again.computed == 0
        assert again.loaded == len(again.cells)
        assert again.result() == first.result()

    def test_sharded_run_with_store_matches_serial_store(self, tmp_path):
        spec = _small_fig2_spec()
        serial_store = RunStore(str(tmp_path / "serial"))
        sharded_store = RunStore(str(tmp_path / "sharded"))
        run_experiment(spec, workers=1, store=serial_store)
        run_experiment(spec, workers=3, store=sharded_store)
        with open(serial_store.cells_file(spec), "rb") as handle:
            serial_bytes = handle.read()
        with open(sharded_store.cells_file(spec), "rb") as handle:
            sharded_bytes = handle.read()
        assert serial_bytes == sharded_bytes

    def test_corrupt_partial_store_is_quarantined_and_resumed(self, tmp_path):
        # Damaged bytes in a partial run are quarantined and truncated
        # away; the resume serves the surviving prefix and recomputes the
        # rest, ending byte-identical to an undamaged run.
        import os

        spec = _small_fig2_spec()
        store = RunStore(str(tmp_path / "a"))
        run_experiment(spec, store=store, limit=4)
        with open(store.cells_file(spec), "ab") as handle:
            handle.write(b"newline-terminated garbage\n")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            resumed = run_experiment(spec, store=store, resume=True)
        assert resumed.complete
        run_dir = os.path.dirname(store.cells_file(spec))
        assert os.path.exists(os.path.join(run_dir, "cells.quarantine.0"))

        reference = run_experiment(spec, store=RunStore(str(tmp_path / "b")))
        with open(store.cells_file(spec), "rb") as handle:
            resumed_bytes = handle.read()
        with open(
            RunStore(str(tmp_path / "b")).cells_file(spec), "rb"
        ) as handle:
            reference_bytes = handle.read()
        assert resumed_bytes == reference_bytes
        assert resumed.result() == reference.result()

    def test_mutated_spec_gets_a_fresh_run(self, tmp_path):
        store = RunStore(str(tmp_path))
        spec = _small_fig2_spec()
        run_experiment(spec, store=store)
        widened = fig2.default_spec(
            b_values=(600, 1200, 2400), s_values=(2, 3), k_max=4
        )
        assert widened.spec_hash() != spec.spec_hash()
        second = run_experiment(widened, store=store, resume=True)
        assert second.loaded == 0  # new identity, no stale reuse
        assert second.complete


class TestEdgeExpansions:
    def test_zero_cell_run_completes_and_reloads(self, tmp_path):
        # Every b above the cap: the spec legitimately expands to nothing.
        spec = ExperimentSpec.build(
            "fig2",
            axes={"b": (19200,), "s": (2,)},
            constants={"n": 71, "r": 3, "x": 1, "k_max": 3,
                       "effort": "fast", "b_cap": 9600},
        )
        store = RunStore(str(tmp_path))
        run = run_experiment(spec, store=store)
        assert run.complete and run.cells == []
        assert run.result().cells == ()
        again = run_experiment(spec, store=store)
        assert again.complete and again.computed == 0

    def test_fig9_empty_rs_table_assembles(self):
        # k_max < s leaves (r=3, s=3) with no cells; the table must come
        # back empty, as the pre-refactor generator produced it.
        from repro.analysis import fig9

        result = run_experiment(
            fig9.default_spec(71, 2, r_values=(2, 3), b_values=(600,))
        ).result()
        empty = result.table_for(3, 3)
        assert empty is not None and empty.cells == {}
        assert result.table_for(2, 2).cells


class TestContracts:
    def test_incomplete_result_assembly_is_an_error(self, tmp_path):
        spec = _small_fig2_spec()
        partial = run_experiment(
            spec, store=RunStore(str(tmp_path)), limit=1
        )
        with pytest.raises(ExperimentError, match="incomplete"):
            partial.result()

    def test_non_contiguous_groups_rejected(self):
        register_kernel(
            ExperimentKernel(
                name="_test_interleaved",
                expand=lambda spec: [{"g": 0}, {"g": 1}, {"g": 0}],
                group_key=lambda spec, cell: cell["g"],
                run_group=lambda spec, cells: [{} for _ in cells],
                assemble=lambda spec, cells, metrics: None,
                render=lambda result: "",
            )
        )
        spec = ExperimentSpec.build("_test_interleaved", axes={"i": (0,)})
        with pytest.raises(ExperimentError, match="contiguous"):
            run_experiment(spec)

    def test_wrong_metric_count_rejected(self):
        register_kernel(
            ExperimentKernel(
                name="_test_short",
                expand=lambda spec: [{"i": 0}, {"i": 1}],
                group_key=lambda spec, cell: 0,
                run_group=lambda spec, cells: [{}],
                assemble=lambda spec, cells, metrics: None,
                render=lambda result: "",
            )
        )
        spec = ExperimentSpec.build("_test_short", axes={"i": (0,)})
        with pytest.raises(ExperimentError, match="metric dicts"):
            run_experiment(spec)

    def test_unknown_figure_name_lists_catalog(self):
        with pytest.raises(ValueError, match="fig2"):
            figure_spec("fig99")
