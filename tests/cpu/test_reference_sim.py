"""The system simulator against its naive reference (an exact oracle).

Every test replays one front end through :class:`SystemSimulator` and
through :class:`~tests.cpu.reference_sim.ReferenceSimulator` with the
same :class:`LineWriteModel`, and asks for every ``ControllerStats``
field and every core's ``time_s``, ``stall_s`` and ``instructions`` to
be equal — not close.  The front ends are built by hand (or by
hypothesis) on 2-4 banks, so ties, bursts, pump splits and parked
writers happen often.  The analytic limits at the end check the policy
the two share against closed forms.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import default_config
from repro.cpu.frontend import L3_HIT, WRITE, WRITEBACK, CoreRecords, FrontEnd
from repro.cpu.system import SystemSimulator
from repro.mem.line_codec import LineWriteModel
from repro.mem.timing import MemoryTiming
from repro.techniques import make_baseline, make_dbl, make_hard_sys
from repro.workloads import get_benchmark
from repro.workloads.benchmarks import scale_benchmark

from .reference_sim import ReferenceSimulator

SCHEMES = {"Base": make_baseline, "D-BL": make_dbl, "Hard+Sys": make_hard_sys}

#: Access kinds a recording can hold: hits never evict.
KINDS = (0, WRITE, L3_HIT, L3_HIT | WRITE, WRITEBACK, WRITE | WRITEBACK)

_BASE_CONFIG = default_config(size=64)
_MODELS: dict = {}


def tiny_config(banks_per_rank=2, write_queue=4, pump_budget=None, **memory):
    """A 64x64-array system with ``2 * banks_per_rank`` banks."""
    config = _BASE_CONFIG.with_memory(
        banks_per_rank=banks_per_rank, write_queue_entries=write_queue, **memory
    )
    if pump_budget is not None:
        config = config.with_pump(max_concurrent_writes=pump_budget)
    return config


def model_for(config, scheme_name, maintenance=None):
    """The scheme's write model on ``config``, its tables built once.

    The tables read only the array and cell parameters, which every
    variant here shares, so a variant takes a copy that names its own
    config.  Both simulators take the same model, so the oracle
    compares replays, not write models.
    """
    scheme = SCHEMES[scheme_name](config)
    if maintenance is not None:
        scheme = replace(scheme, maintenance_write_rate=maintenance)
    key = (scheme_name, maintenance, config.array, config.cell)
    if key not in _MODELS:
        _MODELS[key] = LineWriteModel(config, scheme)
    model = copy.copy(_MODELS[key])
    assert model.scheme == scheme
    model.config, model.scheme = config, scheme
    return model


def benchmark(cores):
    spec = scale_benchmark(get_benchmark("mcf_m"), 512)
    return replace(spec, streams=spec.streams[:cores], patterns=spec.patterns[:cores])


def build_frontend(config, spec, per_core, seed=1):
    """A :class:`FrontEnd` from per-core ``(gaps, lines, kinds, masks)``.

    ``lines`` index each core's working set; a victim's line is the
    access's line plus one, and ``masks`` seeds the victims' masks.
    """
    line_bytes = config.memory.line_bytes
    cores = []
    for params, (gaps, lines, kinds, masks) in zip(spec.streams, per_core):
        lines = np.asarray(lines, dtype=np.int64) % params.working_set_lines
        addresses = params.address_base + lines * line_bytes
        kinds = np.asarray(kinds, dtype=np.uint8)
        evicts = (kinds & WRITEBACK) != 0
        victim_lines = (lines[evicts] + 1) % params.working_set_lines
        resets, sets = _masks(masks, int(evicts.sum()), line_bytes)
        cores.append(
            CoreRecords(
                gaps=np.asarray(gaps, dtype=np.int64),
                addresses=addresses,
                kinds=kinds,
                victims=params.address_base + victim_lines * line_bytes,
                resets=resets,
                sets=sets,
            )
        )
    accesses = len(per_core[0][0])
    misses = sum(int(((c.kinds & L3_HIT) == 0).sum()) for c in cores)
    return FrontEnd(
        benchmark=spec,
        cpu=config.cpu,
        line_bits=line_bytes * 8,
        accesses_per_core=accesses,
        warmup_accesses=0,
        seed=seed,
        cores=tuple(cores),
        l3_accesses=accesses * len(cores),
        l3_misses=misses,
    )


def _masks(seed, count, line_bytes):
    """``count`` disjoint packed (RESET, SET) mask pairs."""
    rng = np.random.default_rng(seed)
    resets = rng.integers(0, 256, (count, line_bytes), dtype=np.uint8)
    sets = rng.integers(0, 256, (count, line_bytes), dtype=np.uint8) & ~resets
    # Sparse lines as well as dense ones: drop whole MATs at random.
    resets[rng.random((count, line_bytes)) < 0.5] = 0
    return resets, sets


def replay_both(config, scheme_name, frontend, maintenance=None):
    """``(simulator's, reference's)`` outcome as plain comparable values."""
    model = model_for(config, scheme_name, maintenance)
    spec, seed = frontend.benchmark, frontend.seed
    simulator = SystemSimulator(
        config, model.scheme, spec,
        accesses_per_core=frontend.accesses_per_core, seed=seed,
        frontend=frontend, write_model=model,
    )
    result = simulator.run()
    fast = (
        dataclasses.asdict(result.stats),
        [(c.time_s, c.stall_s, c.instructions) for c in simulator.cores],
    )
    stats, cores = ReferenceSimulator(
        config, model.scheme, frontend, model, seed
    ).run()
    return fast, (dataclasses.asdict(stats), cores)


def assert_same(config, scheme_name, frontend, maintenance=None):
    fast, reference = replay_both(config, scheme_name, frontend, maintenance)
    assert fast[0] == reference[0]
    assert fast[1] == reference[1]
    return fast


def random_cores(rng, cores, accesses, tied=False, hit_share=0.5):
    per_core = []
    gaps = rng.integers(0, 40, accesses)
    for core in range(cores):
        if not tied:
            gaps = rng.integers(0, 40, accesses)
        kinds = np.where(
            rng.random(accesses) < hit_share,
            rng.choice([L3_HIT, L3_HIT | WRITE], accesses),
            rng.choice([0, WRITE, WRITEBACK, WRITE | WRITEBACK], accesses),
        )
        per_core.append((gaps, rng.integers(0, 64, accesses), kinds, core + 7))
    return per_core


class TestHandBuilt:
    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    @pytest.mark.parametrize("banks_per_rank", [1, 2])
    def test_random_mix(self, scheme_name, banks_per_rank):
        config = tiny_config(banks_per_rank=banks_per_rank, write_queue=3)
        rng = np.random.default_rng(banks_per_rank)
        frontend = build_frontend(config, benchmark(4), random_cores(rng, 4, 90))
        fast = assert_same(config, scheme_name, frontend)
        assert fast[0]["reads"] > 0 and fast[0]["writes"] > 0

    def test_tied_cores_burst_and_park(self):
        """Identical gap sequences: every step ties with another core's."""
        config = tiny_config(banks_per_rank=1, write_queue=2)
        rng = np.random.default_rng(11)
        per_core = random_cores(rng, 4, 100, tied=True, hit_share=0.3)
        fast = assert_same(config, "Base", build_frontend(config, benchmark(4), per_core))
        assert fast[0]["write_bursts"] > 0

    def test_equal_time_steps_pop_in_push_order(self):
        """Two cores hit at the same instant, then read one bank.

        The core pushed first must step first on the tie, so its read
        is served first; taking the later core's next step at once
        would serve the reads the other way round.
        """
        config = tiny_config(banks_per_rank=1)
        spec = benchmark(2)
        lines = _one_bank_lines(config, 6)
        kinds = [L3_HIT, 0, L3_HIT, L3_HIT | WRITE, 0, L3_HIT]
        per_core = [([5] * 6, lines, kinds, 0) for _ in range(2)]
        fast = assert_same(config, "Base", build_frontend(config, spec, per_core))
        assert fast[1][0] != fast[1][1]

    def test_pump_splits_and_admission(self):
        """A small pump budget splits D-BL writes and delays admission."""
        config = tiny_config(banks_per_rank=2, write_queue=5, pump_budget=40)
        rng = np.random.default_rng(5)
        per_core = random_cores(rng, 3, 120, hit_share=0.2)
        fast = assert_same(config, "D-BL", build_frontend(config, benchmark(3), per_core))
        assert fast[0]["write_phases"] > fast[0]["writes"]

    def test_maintenance_writes(self):
        config = tiny_config(banks_per_rank=2, write_queue=4)
        rng = np.random.default_rng(9)
        frontend = build_frontend(config, benchmark(2), random_cores(rng, 2, 150))
        fast = assert_same(config, "Base", frontend, maintenance=0.6)
        demand = sum(int((c.kinds & WRITEBACK != 0).sum()) for c in frontend.cores)
        assert fast[0]["writes"] > demand

    def test_recorded_front_end(self):
        """A real recording (8 cores, SCH placement) on four banks."""
        config = tiny_config(banks_per_rank=2, write_queue=6).with_cpu(
            l3_bytes_per_core=64 << 10
        )
        spec = scale_benchmark(get_benchmark("lbm_m"), 512)
        frontend = FrontEnd.record(config, spec, 60, seed=3)
        assert_same(config, "Hard+Sys", frontend)


@st.composite
def scenarios(draw):
    cores = draw(st.integers(1, 4))
    accesses = draw(st.integers(1, 80))
    tied = draw(st.booleans())
    lines = st.lists(st.integers(0, 63), min_size=accesses, max_size=accesses)
    gaps = st.lists(st.integers(0, 30), min_size=accesses, max_size=accesses)
    kinds = st.lists(st.sampled_from(KINDS), min_size=accesses, max_size=accesses)
    shared_gaps = draw(gaps)
    per_core = [
        (
            shared_gaps if tied else draw(gaps),
            draw(lines),
            draw(kinds),
            draw(st.integers(0, 2**16)),
        )
        for _ in range(cores)
    ]
    return dict(
        per_core=per_core,
        cores=cores,
        banks_per_rank=draw(st.sampled_from([1, 2])),
        write_queue=draw(st.integers(1, 6)),
        pump_budget=draw(st.sampled_from([None, 24, 100])),
        scheme=draw(st.sampled_from(sorted(SCHEMES))),
        maintenance=draw(st.sampled_from([None, 0.0, 0.5])),
        seed=draw(st.integers(0, 50)),
    )


class TestHypothesis:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(scenarios())
    def test_simulator_matches_reference(self, case):
        config = tiny_config(
            banks_per_rank=case["banks_per_rank"],
            write_queue=case["write_queue"],
            pump_budget=case["pump_budget"],
        )
        frontend = build_frontend(
            config, benchmark(case["cores"]), case["per_core"], seed=case["seed"]
        )
        assert_same(config, case["scheme"], frontend, case["maintenance"])


class _ScaledWrites(LineWriteModel):
    """A write model whose line writes take ``factor`` of their latency."""

    factor = 1.0

    def write_many(self, resets, sets, rows):
        return [
            replace(
                result,
                latency=result.latency * self.factor,
                reset_latency=result.reset_latency * self.factor,
            )
            for result in super().write_many(resets, sets, rows)
        ]


class _FixedWrites(LineWriteModel):
    """A write model under which every line write is the same write."""

    def __init__(self, config, scheme):
        super().__init__(config, scheme)
        masks = np.zeros((1, config.memory.line_bytes), dtype=np.uint8)
        masks[0, :4] = 0b1011
        self.result = super().write_many(masks, masks << 4, [7])[0]

    def write_many(self, resets, sets, rows):
        return [self.result] * np.asarray(rows).size


def _one_bank_lines(config, count):
    """Working-set lines that all map to bank 0 (their victims to bank 1)."""
    return [line * config.memory.total_banks for line in range(count)]


class TestAnalyticLimits:
    def test_read_stream_saturates_one_bank(self):
        """Back-to-back reads on one bank retire at 1 / read service.

        Eight blocked cores keep the bank's queue non-empty, so from the
        first read's start (one command flight in) the bank never idles.
        """
        config = tiny_config(banks_per_rank=2)
        timing = MemoryTiming.from_params(config.memory, config.cpu)
        spec = benchmark(8)
        per_core = [
            ([0] * 60, _one_bank_lines(config, 60), [0] * 60, 0)
            for _ in range(8)
        ]
        frontend = build_frontend(config, spec, per_core)
        stats = assert_same(config, "Base", frontend)[0]
        assert stats["reads"] == 480
        assert stats["busy_time"] == pytest.approx(480 * timing.read_service)
        reference = ReferenceSimulator(
            config, model_for(config, "Base").scheme, frontend,
            model_for(config, "Base"), frontend.seed,
        )
        reference.run()
        span = max(reference.free_at.values()) - timing.mc_to_bank
        assert 480 / span == pytest.approx(1.0 / timing.read_service, rel=1e-9)

    def test_write_stream_drains_at_burst_rate(self):
        """Writes alone on one bank: one starts every charge + write + tWTR.

        Write 0 issues at once and ``Q`` more fill the queue; from then
        on the k-th write is admitted when write ``k - Q`` leaves the
        queue, at its start, so the last core retires at the start of
        write ``n - 1 - Q``.
        """
        queue, n = 4, 160
        config = tiny_config(banks_per_rank=2, write_queue=queue)
        timing = MemoryTiming.from_params(config.memory, config.cpu)
        spec = benchmark(2)
        per_core = [
            ([0] * 80, _one_bank_lines(config, 80), [WRITE | WRITEBACK] * 80, 3)
            for _ in range(2)
        ]
        frontend = build_frontend(config, spec, per_core)
        scheme = replace(make_baseline(config), maintenance_write_rate=0.0)
        model = _FixedWrites(config, scheme)
        simulator = SystemSimulator(
            config, scheme, spec, accesses_per_core=80, seed=1,
            frontend=frontend, write_model=model,
        )
        stats = simulator.run().stats
        ref_stats, ref_cores = ReferenceSimulator(config, scheme, frontend, model, 1).run()
        assert dataclasses.asdict(stats) == dataclasses.asdict(ref_stats)
        assert [(c.time_s, c.stall_s, c.instructions) for c in simulator.cores] == ref_cores
        write = model.result
        assert write.concurrent_resets <= config.pump.max_concurrent_writes
        period = config.pump.t_charge + write.latency + timing.write_to_read
        assert stats.writes == n and stats.write_bursts > 0
        assert stats.busy_time == pytest.approx(n * (write.latency + timing.write_to_read))
        elapsed = max(core.time_s for core in simulator.cores)
        last_admission = timing.mc_to_bank + config.pump.t_charge + (n - 1 - queue) * period
        assert elapsed == pytest.approx(last_admission, rel=1e-12)

    def test_read_latency_approaches_unloaded(self):
        """As write latency goes to zero, reads see the unloaded latency.

        One core whose compute gaps outlast a read's bank service: only
        writes still holding a bank can delay a read, and with no pump
        charge and no tWTR a zero-latency write holds none.
        """
        config = tiny_config(banks_per_rank=2, write_queue=3)
        config = config.with_pump(t_charge=0.0).with_memory(t_wtr=0.0)
        timing = MemoryTiming.from_params(config.memory, config.cpu)
        assert 400 * config.cpu.base_cpi * config.cpu.cycle_s > timing.read_service
        spec = benchmark(1)
        rng = np.random.default_rng(4)
        kinds = rng.choice([0, WRITE | WRITEBACK, WRITEBACK], 200)
        per_core = [([400] * 200, rng.integers(0, 64, 200), kinds, 0)]
        frontend = build_frontend(config, spec, per_core)
        scheme = replace(make_baseline(config), maintenance_write_rate=0.0)
        excess = []
        for factor in (1.0, 0.1, 0.01, 0.0):
            model = _ScaledWrites(config, scheme)
            model.factor = factor
            simulator = SystemSimulator(
                config, scheme, spec, accesses_per_core=200, seed=1,
                frontend=frontend, write_model=model,
            )
            stats = simulator.run().stats
            ref_stats, _ = ReferenceSimulator(config, scheme, frontend, model, 1).run()
            assert dataclasses.asdict(stats) == dataclasses.asdict(ref_stats)
            mean = stats.read_latency_sum / stats.reads
            excess.append(mean - timing.read_latency)
        assert excess == sorted(excess, reverse=True)
        assert excess[0] > 0.1 * timing.read_latency
        assert excess[-1] == pytest.approx(0.0, abs=1e-9 * timing.read_latency)
