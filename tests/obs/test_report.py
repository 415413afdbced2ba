"""Profile report rendering."""

import json

from repro import obs
from repro.obs import format_profile
from repro.obs.collector import Collector
from repro.obs.report import derived_ratios, unattributed


def _snapshot():
    collector = Collector()
    collector.count("model_cache.hit", 7)
    collector.count("disk_cache.miss", 2)
    collector.gauge("peak_rss_kb", 120000.0)
    collector.record_span("solve.reduced[array=64]", 0.012)
    collector.record_span("solve.reduced[array=64]", 0.018)
    return collector.snapshot()


class TestFormatProfile:
    def test_all_sections_render(self):
        text = format_profile(_snapshot())
        assert "== profile ==" in text
        assert "spans" in text
        assert "solve.reduced[array=64]" in text
        assert "model_cache.hit" in text
        assert "peak_rss_kb" in text

    def test_accepts_plain_dict_form(self):
        assert format_profile(_snapshot().to_plain()) == format_profile(
            _snapshot()
        )

    def test_empty_snapshot_renders_placeholder(self):
        text = format_profile(Collector().snapshot())
        assert "(no observations recorded)" in text

    def test_time_units_scale(self):
        collector = Collector()
        collector.record_span("fast", 5e-6)
        collector.record_span("slow", 2.5)
        text = format_profile(collector.snapshot())
        assert "us" in text
        assert "2.500s" in text

    def test_module_export(self):
        assert obs.format_profile is format_profile

    def test_derived_section_renders_factorisation_ratio(self):
        collector = Collector()
        collector.count("solver.factorisations", 5)
        collector.count("solver.solves", 4)
        text = format_profile(collector.snapshot())
        assert "derived" in text
        assert "solver.factorisations_per_solve" in text
        assert "1.25" in text

    def test_no_derived_section_without_solver_counters(self):
        text = format_profile(_snapshot())
        assert "derived" not in text


class TestDerivedRatios:
    def test_ratios_computed_from_counters(self):
        ratios = derived_ratios(
            {
                "solver.factorisations": 6,
                "solver.newton_iterations": 48,
                "solver.solves": 24,
            }
        )
        assert ratios["solver.factorisations_per_solve"] == 0.25
        assert ratios["solver.newton_iterations_per_solve"] == 2.0

    def test_missing_numerator_reads_as_zero(self):
        ratios = derived_ratios({"solver.solves": 8})
        assert ratios["solver.factorisations_per_solve"] == 0.0

    def test_zero_or_missing_denominator_emits_nothing(self):
        assert derived_ratios({"solver.factorisations": 6}) == {}
        assert (
            derived_ratios({"solver.factorisations": 6, "solver.solves": 0})
            == {}
        )


def _row(text: str, path: str) -> list[str]:
    """The cells of the span table row named ``path``."""
    (line,) = [line for line in text.splitlines() if line.split()[:1] == [path]]
    return line.split()


class TestUnattributed:
    def test_remainder_row_under_each_parent(self):
        collector = Collector()
        collector.record_span("run", 1.0)
        collector.record_span("run/solve", 0.25)
        collector.record_span("run/solve/inner", 0.25)
        collector.record_span("run/record[path=a/b]", 0.5)
        collector.record_span("leaf", 0.5)
        snapshot = collector.snapshot()
        assert unattributed(snapshot.to_plain()["spans"]) == {
            "run": 0.25,
            "run/solve": 0.0,
        }
        text = format_profile(snapshot)
        assert _row(text, "run/(unattributed)") == [
            "run/(unattributed)",
            "250.00ms",
        ]
        # Right under its parent, before the children.
        rows = [line.split()[0] for line in text.splitlines() if "run" in line]
        assert rows[:2] == ["run", "run/(unattributed)"]
        assert "leaf/(unattributed)" not in text

    def test_overlapping_children_read_negative(self):
        collector = Collector()
        collector.record_span("map", 0.002)
        collector.record_span("map/task", 0.003)
        text = format_profile(collector.snapshot())
        assert _row(text, "map/(unattributed)")[1] == "-1.00ms"

    def _check_experiment(self, argv, experiment, capsys):
        from repro.__main__ import main
        from repro.obs.report import _fmt_seconds

        assert main([*argv, "--no-cache", "--profile", "--json"]) == 0
        profile = json.loads(capsys.readouterr().out)["meta"]["profile"]
        spans = profile["spans"]
        root = f"experiment[name={experiment}]"
        children = [
            stat["total_s"]
            for path, stat in spans.items()
            if path.startswith(f"{root}/") and "/" not in path[len(root) + 1 :]
        ]
        assert children
        rest = spans[root]["total_s"] - sum(children)
        row = _row(format_profile(profile), f"{root}/(unattributed)")
        assert row[1] == _fmt_seconds(rest)
        # The gate: the experiment's child spans explain >= 90% of it.
        assert sum(children) >= 0.9 * spans[root]["total_s"], spans

    def test_fig04(self, capsys):
        self._check_experiment(["fig04"], "fig04", capsys)

    def test_small_simulation_figure(self, capsys):
        self._check_experiment(
            ["fig17", "--quick", "--benchmarks", "zeu_m"], "fig17", capsys
        )
