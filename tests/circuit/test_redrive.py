"""A re-driven RESET network is the network a fresh build would give.

The profile grid builds each sample row's reduced network once per
configuration and bias and solves re-driven copies for every voltage
quantum.
A copy must equal a fresh build at its drive in every element array,
pinned node order and value, and signature, and solving copies (merged
into one batch) must leave the template as it was.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.crosspoint import BASELINE_BIAS, BiasScheme
from repro.circuit.line_model import ReducedArrayModel
from repro.circuit.solvers import get_backend
from repro.config import default_config

BIASES = {
    "baseline": BASELINE_BIAS,
    "dswd": BiasScheme(name="dswd", bl_drive_both_ends=True),
    "oracle": BiasScheme(name="ora-16x16", wl_tap_every=16, bl_tap_every=16),
}


@pytest.fixture(scope="module")
def model():
    return ReducedArrayModel(default_config(size=64))


def elements(net):
    """Every element list, pinned pair and signature of ``net``."""
    groups = [
        (id(group.model), group.n1.array().copy(), group.n2.array().copy())
        for group in net._groups.values()
    ]
    return {
        "nodes": net.node_count,
        "devices": net.device_count,
        "res": [c.array().copy() for c in (net._res_n1, net._res_n2, net._res_g)],
        "groups": groups,
        "runs": list(net._runs),
        "fixed": list(net._fixed.items()),
        "signature": net.pattern_signature(),
    }


def assert_same(got, want):
    assert got.keys() == want.keys()
    for key in got:
        if key == "res":
            for a, b in zip(got[key], want[key], strict=True):
                np.testing.assert_array_equal(a, b)
        elif key == "groups":
            for (m1, a1, b1), (m2, a2, b2) in zip(got[key], want[key], strict=True):
                assert m1 == m2
                np.testing.assert_array_equal(a1, a2)
                np.testing.assert_array_equal(b1, b2)
        else:
            assert got[key] == want[key], key


@pytest.mark.parametrize("bias", BIASES.values(), ids=BIASES.keys())
@pytest.mark.parametrize("row, cols", [(40, (0,)), (7, (3, 20, 50))])
def test_redriven_equals_fresh_build(model, bias, row, cols):
    template = model.reset_network(row, cols, bias=bias)
    drive = {c: 3.14 + 0.02 * k for k, c in enumerate(cols)}
    copy = template.redriven(drive)
    fresh = model._build_reset_network(*model._normalise(row, cols, drive), bias)
    assert_same(elements(copy.network), elements(fresh.network))
    assert copy.drivers == fresh.drivers
    np.testing.assert_array_equal(copy.wl_nodes, fresh.wl_nodes)
    assert copy.network._pattern_memo == template.network._pattern_memo
    # Only the drive's pins moved.
    driven = {node for node, _c in template.drivers}
    for node, value in template.network._fixed.items():
        if node not in driven:
            assert copy.network._fixed[node] == value


def test_merged_solve_leaves_template_unchanged(model):
    bias = BIASES["oracle"]
    templates = [model.reset_network(row, (0,), bias=bias) for row in (0, 31, 63)]
    before = [elements(t.network) for t in templates]
    chunks = [
        [c._chunks[0] for c in (t.network._res_n1, t.network._res_n2, t.network._res_g)]
        for t in templates
    ]
    drives = [(t, v) for v in (3.1, 3.2) for t in templates]
    copies = [t.redriven({0: v}) for t, v in drives]
    got = model.solve_networks(copies)
    for t, want_elements, want_chunks in zip(templates, before, chunks):
        assert_same(elements(t.network), want_elements)
        columns = (t.network._res_n1, t.network._res_n2, t.network._res_g)
        for column, chunk in zip(columns, want_chunks):
            assert column._chunks == [chunk] and column._chunks[0] is chunk
            assert not column._tail
    # The copies solve to the bytes of fresh builds.
    for (_solution, voltages), (t, v) in zip(got, drives):
        fresh = model._build_reset_network(t.row, t.cols, {0: v}, bias)
        (want,) = get_backend(model.solver).solve_many([fresh.network])
        np.testing.assert_array_equal(voltages, want.voltages)


def test_growing_a_copy_leaves_the_template_alone(model):
    template = model.reset_network(10, (0,))
    before = elements(template.network)
    copy = template.redriven({0: 3.1})
    net = copy.network
    extra = net.add_node()
    net.add_resistor(extra, 0, 100.0)
    net.add_device(extra, 1, model.leak)
    net.fix_voltage(extra, 1.0)
    assert net.pattern_signature() != before["signature"]
    assert_same(elements(template.network), before)


def test_redriving_an_unpinned_node_is_an_error(model):
    template = model.reset_network(10, (0,))
    with pytest.raises(ValueError, match="not pinned"):
        template.network.redriven({0: 1.0})
