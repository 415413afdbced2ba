"""Command-line interface tests (``python -m repro``)."""

import json

import pytest

from repro.__main__ import main
from repro.engine.cache import ResultCache


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig04" in out and "fig15" in out and "table_parameters" in out

    def test_unknown_experiment(self, capsys):
        assert main(["bogus"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_experiment_suggests(self, capsys):
        assert main(["fig16a"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "fig16" in err

    def test_unknown_benchmark_suggests(self, capsys):
        assert main(["fig15", "--quick", "--benchmarks", "mcf"]) == 2
        err = capsys.readouterr().err
        assert "unknown benchmark" in err
        assert "did you mean 'mcf_m'" in err

    def test_circuit_figure(self, capsys):
        assert main(["fig11a", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "optimal_bits: 4" in out
        assert "cache=off" in out

    def test_table_parameters(self, capsys):
        assert main(["table_parameters", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "512" in out

    def test_lifetime_figure_renders_dataclasses(self, capsys):
        assert main(["fig05b", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "UDRVR+PR" in out
        assert "lifetime_s" in out

    def test_json_export(self, capsys, tmp_path):
        path = tmp_path / "fig11a.json"
        assert main(["fig11a", "--no-cache", "--json", str(path)]) == 0
        document = json.loads(path.read_text())
        assert document["experiment"] == "fig11a"
        assert document["payload"]["optimal_bits"] == 4
        assert document["meta"]["cache"] == "off"
        assert document["meta"]["executor"] == "serial"

    def test_profile_flag_prints_report(self, capsys):
        assert main(["fig11a", "--no-cache", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "== profile ==" in out
        assert "experiment[name=fig11a]" in out

    def test_profile_json_to_stdout_is_pure_json(self, capsys):
        """``--profile --json`` emits one parseable document on stdout."""
        assert main(["fig11a", "--no-cache", "--profile", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        profile = document["meta"]["profile"]
        assert profile["spans"]  # the experiment span at minimum
        assert "experiment[name=fig11a]" in profile["spans"]

    @pytest.mark.slow
    def test_simulation_profile_times_front_end_recording(self, capsys):
        argv = ["fig17", "--quick", "--benchmarks", "zeu_m", "--no-cache"]
        assert main([*argv, "--profile", "--json"]) == 0
        spans = json.loads(capsys.readouterr().out)["meta"]["profile"]["spans"]
        recorded = [p for p in spans if p.endswith("frontend.record[benchmark=zeu_m]")]
        assert len(recorded) == 1
        assert recorded[0].startswith("experiment[name=fig17]/")

    @pytest.mark.slow
    def test_simulation_profile_times_each_write_model_build_once(self, capsys):
        """On an empty registry each scheme's line-write model build is
        one span; a second runner in the same process builds none."""
        argv = ["fig17", "--quick", "--benchmarks", "zeu_m", "--no-cache"]

        def profile():
            assert main([*argv, "--profile", "--json"]) == 0
            return json.loads(capsys.readouterr().out)["meta"]["profile"]

        def builds(spans):
            return {
                path.rsplit("/", 1)[-1]: stat["count"]
                for path, stat in spans.items()
                if path.rsplit("/", 1)[-1].startswith("mem.write_model[")
            }

        first = profile()
        schemes = ("Hard+Sys", "UDRVR+PR", "UDRVR-3.94")
        assert builds(first["spans"]) == {
            f"mem.write_model[scheme={name}]": 1 for name in schemes
        }
        assert first["counters"]["write_model.miss"] == len(schemes)
        again = profile()
        assert builds(again["spans"]) == {}
        assert "write_model.miss" not in again["counters"]
        assert again["counters"]["write_model.hit"] >= len(schemes)

    def test_json_without_profile_has_no_profile_block(self, capsys):
        assert main(["fig11a", "--no-cache", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert "profile" not in document["meta"]

    def test_cache_round_trip(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["fig11a", "--cache-dir", cache_dir]) == 0
        assert "cache=miss" in capsys.readouterr().out
        assert main(["fig11a", "--cache-dir", cache_dir]) == 0
        assert "cache=hit" in capsys.readouterr().out

    def test_corrupt_cache_entry_recomputed(self, capsys, tmp_path):
        """A hand-corrupted entry is quarantined and silently recomputed."""
        cache_dir = tmp_path / "cache"
        assert main(["fig11a", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        # A cold run also writes its disk profiles; corrupt the result's entry.
        cache = ResultCache(cache_dir)
        entries = []
        for path in cache_dir.glob("*.pkl"):
            value = cache.load(path.stem)
            if isinstance(value, dict) and "optimal_bits" in value:
                entries.append(path)
        assert len(entries) == 1
        entries[0].write_bytes(entries[0].read_bytes()[:64])  # truncate
        assert main(["fig11a", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "cache=miss" in out and "optimal_bits: 4" in out
        # Quarantine filenames carry a pid/seq suffix; match the stem.
        assert list(
            (cache_dir / "quarantine").glob(f"{entries[0].stem}.*.pkl")
        )
        # The recomputed entry is stored and healthy again.
        assert main(["fig11a", "--cache-dir", str(cache_dir)]) == 0
        assert "cache=hit" in capsys.readouterr().out

    def test_strict_flag(self, capsys):
        assert main(["fig11a", "--no-cache", "--strict"]) == 0
        assert "optimal_bits: 4" in capsys.readouterr().out

    @pytest.mark.parametrize("solver", ["reference", "batched"])
    def test_solver_flag(self, capsys, solver):
        assert main(["fig11a", "--no-cache", "--solver", solver]) == 0
        assert "optimal_bits: 4" in capsys.readouterr().out

    def test_removed_factor_cache_name_points_at_batched(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig11a", "--no-cache", "--solver", "factor-cache"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "factor-cache" in err and "batched" in err

    def test_unknown_solver_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig11a", "--no-cache", "--solver", "bogus"])
        assert excinfo.value.code == 2
        assert "--solver" in capsys.readouterr().err

    def test_fault_rate_runs_and_is_seeded(self, capsys, tmp_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        base = ["fig04", "--no-cache", "--fault-rate", "0.001"]
        assert main([*base, "--json", str(first)]) == 0
        assert main([*base, "--json", str(second)]) == 0
        capsys.readouterr()
        first_doc = json.loads(first.read_text())
        second_doc = json.loads(second.read_text())
        # Same seed -> bit-identical payload (wall time aside).
        assert first_doc["payload"] == second_doc["payload"]
        assert first_doc["meta"]["errors"] == []

    @pytest.mark.slow
    def test_simulation_figure_quick(self, capsys):
        code = main(["fig17", "--quick", "--benchmarks", "zeu_m", "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "udrvr_pr_over_394" in out

    @pytest.mark.slow
    def test_simulation_figure_parallel_workers(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code = main(
            [
                "fig05c", "--quick", "--benchmarks", "zeu_m",
                "--workers", "2", "--cache-dir", cache_dir,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "executor=parallel[2]" in out and "cache=miss" in out
        # Same invocation again: experiment-level cache hit.
        assert main(
            [
                "fig05c", "--quick", "--benchmarks", "zeu_m",
                "--workers", "2", "--cache-dir", cache_dir,
            ]
        ) == 0
        assert "cache=hit" in capsys.readouterr().out
