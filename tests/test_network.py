"""Aggregation networks: forward semantics, builders, serialization."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from coversheaf.topology import (CoverSequence, MarkedSpace, global_stage,
                                 make_cover, singleton_stage)
from coversheaf.sections import affine_section, constant_section, evaluate
from coversheaf.network import (Deviation, GeneralLayer, InclusionLayer,
                                MultiHeadAttentionOp, Network, Reducer, build_attention, build_cnn,
                                build_rnn_cover, build_sequential,
                                composed_layer_sections,
                                factors_check, forward, network_from_json,
                                network_to_json, positional_encoding)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def sumpool_net() -> Network:
    return network_from_json(FIXTURES / "sumpool.json")


def test_sum_pool_forward():
    net = sumpool_net()
    out = forward(net, [1.0, 2.0, 3.0, 4.0])
    assert out.output.tolist() == [10.0]
    assert [v.tolist() for v in out.stages[1]] == [[3.0], [7.0]]


def test_batched_forward_matches_loop():
    net = build_cnn(4, seed=2)
    rng = np.random.default_rng(7)
    xs = rng.standard_normal((6, net.input_dim))
    batched = forward(net, xs).output
    single = np.stack([forward(net, x).output for x in xs])
    assert batched.shape == single.shape
    # matrix-matrix and matrix-vector products associate differently
    assert np.max(np.abs(batched - single)) <= 1e-12


def test_forward_input_validation():
    net = sumpool_net()
    with pytest.raises(ValueError):
        forward(net, np.zeros(3))
    with pytest.raises(ValueError):
        forward(net, np.zeros((2, 2, 4)))


def test_aggregation_validation():
    sp = MarkedSpace(n_points=2, fiber_dims=(1, 1))
    s0 = singleton_stage(sp)
    s1 = global_stage(sp)
    phi = (affine_section([[1.0]]), affine_section([[1.0]]))
    with pytest.raises(ValueError):
        InclusionLayer(input_cover=s0, output_cover=s1,
                       aggregation=((0, 0),), phi=phi,
                       activation="identity", out_dim=1)
    with pytest.raises(ValueError):
        InclusionLayer(input_cover=s0, output_cover=s1,
                       aggregation=((0, 5),), phi=phi,
                       activation="identity", out_dim=1)


def test_factors_check_inclusion_layers():
    net = build_cnn(4, seed=1)
    for layer in net.layers:
        res = factors_check(layer, n_samples=30, seed=3)
        assert res.factors and res.max_deviation <= 1e-9


def test_factors_check_batch_matches_row_loop():
    net = build_cnn(8, seed=1)
    for layer in net.layers:
        dims = [s.domain_dim for s in layer.phi]
        offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
        sections = composed_layer_sections(layer)
        samples = np.random.default_rng(4).standard_normal(
            (20, int(offsets[-1])))
        loop_dev = 0.0
        for row in samples:
            direct = layer.apply([row[offsets[a]:offsets[a + 1]]
                                  for a in range(len(dims))])
            for b, sec in enumerate(sections):
                loop_dev = max(loop_dev, float(np.max(np.abs(
                    direct[b] - evaluate(sec, row)))))
        res = factors_check(layer, n_samples=20, seed=4)
        assert res.factors and loop_dev <= 1e-12
        assert res.max_deviation <= 1e-12
    with pytest.raises(ValueError):
        factors_check(net.layers[0], n_samples=0)


def test_factors_check_rejects_general_layers():
    net = build_cnn(4, plan=[{"kind": "pool", "mode": "max", "block": 2},
                             {"kind": "fc", "out_dim": 1,
                              "activation": "identity"}])
    assert isinstance(net.layers[0], GeneralLayer)
    with pytest.raises(TypeError):
        factors_check(net.layers[0])


def test_composed_sections_match_apply():
    net = sumpool_net()
    secs = composed_layer_sections(net.layers[0])
    vals = evaluate(secs[0], np.array([1.0, 2.0, 3.0, 4.0]))
    assert vals.tolist() == [3.0]


def test_reducer_modes():
    vals = [np.array([1.0, -2.0]), np.array([3.0, -4.0])]
    assert Reducer("max")(vals).tolist() == [3.0, -2.0]
    assert Reducer("mean")(vals).tolist() == [2.0, -3.0]
    with pytest.raises(ValueError):
        Reducer("median")


def test_cnn_structure():
    net = build_cnn(4)
    assert net.space.n_points == 16
    assert net.space.fiber_dims == (3,) * 16
    assert [len(c.elements) for c in net.sequence.stages] == [16, 4, 1]
    conv = build_cnn(2, plan=[{"kind": "conv", "channels": 5,
                               "activation": "relu"},
                              {"kind": "fc", "out_dim": 1,
                               "activation": "sigmoid"}])
    # a convolution stage keeps the cover, one patch per cell
    assert [len(c.elements) for c in conv.sequence.stages] == [4, 4, 1]


def test_deviation_shifts_inputs():
    net = sumpool_net()
    dev = Deviation.constants(net.space, [[1.0]] * 4)
    out = forward(net, [1.0, 2.0, 3.0, 4.0], deviation=dev)
    assert out.output.tolist() == [14.0]
    zero = Deviation.zero(net.space)
    same = forward(net, [1.0, 2.0, 3.0, 4.0], deviation=zero)
    assert same.output.tolist() == [10.0]


def test_sequential_builder():
    net = build_sequential(4, "rnn", hidden=3, out_dim=2, seed=5)
    assert net.out_dim == 2
    assert forward(net, np.ones(4)).output.shape == (2,)
    lstm = build_sequential(5, "lstm", window=2, seed=5)
    assert len(lstm.sequence.stages[1].elements) == 4


def test_positional_encoding_values():
    pe = positional_encoding(1, 2)
    # token 1 is odd, so both features use cosine
    assert pe[0] == (math.cos(1 / 10000.0), 0.25)
    assert pe[1] == (math.cos(1 / 10000.0 ** 2), 0.75)
    pe2 = positional_encoding(2, 2)
    assert pe2[2] == (math.sin(2 / 10000.0), 0.25)
    assert len(positional_encoding(3, 5)) == 15


def test_attention_matches_textbook_computation():
    n, d, heads, hd = 3, 4, 2, 2
    net = build_attention(n, d, heads=heads, head_dim=hd, seed=9)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(net.input_dim)
    got = forward(net, x).output

    op = net.layers[1].op
    X = x.reshape(n, d)
    zs = []
    for i in range(heads):
        wq = np.array(op.w_q[i])
        wk = np.array(op.w_k[i])
        # per-token values were assembled by the first layer; recover
        # the value projection from the stage-1 slots
        stage1 = np.stack(forward(net, x).stages[1])
        V = stage1[:, d + i * hd: d + (i + 1) * hd]
        logits = (X @ wq) @ (X @ wk).T / math.sqrt(hd)
        logits -= logits.max(axis=1, keepdims=True)
        a = np.exp(logits)
        a /= a.sum(axis=1, keepdims=True)
        zs.append(a @ V)
    want = (np.hstack(zs) @ np.array(op.w_z)).reshape(-1)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_attention_op_checks_its_sizes_and_weight_shapes():
    def op(heads=1, head_dim=2, w_z=np.zeros((2, 2))):
        qk = np.zeros((heads, 2, head_dim))
        return MultiHeadAttentionOp(n_tokens=2, d_model=2, heads=heads,
                                    head_dim=head_dim, w_q=qk, w_k=qk, w_z=w_z)

    op()
    with pytest.raises(ValueError, match="heads must be at least 1, got 0"):
        op(heads=0, w_z=np.zeros((0, 2)))
    with pytest.raises(ValueError, match="head_dim must be at least 1"):
        op(head_dim=0, w_z=np.zeros((0, 2)))
    with pytest.raises(ValueError, match=r"w_z must have shape \(2, 2\), "
                                         r"got \(5, 2\)"):
        op(w_z=np.zeros((5, 2)))
    # the builder names a negative size before its draws would fail
    with pytest.raises(ValueError, match="heads must be at least 1, got -1"):
        build_attention(3, 4, heads=-1)
    with pytest.raises(ValueError, match=r"w_q must have shape \(2, 2, 2\)"):
        MultiHeadAttentionOp(n_tokens=2, d_model=2, heads=2, head_dim=2,
                             w_q=np.zeros((1, 2, 2)), w_k=np.zeros((2, 2, 2)),
                             w_z=np.zeros((4, 2)))


def test_batched_attention_forward_matches_loop():
    net = build_attention(3, 4, heads=2, head_dim=2, seed=5)
    xs = np.random.default_rng(6).standard_normal((4, net.input_dim))
    batched = forward(net, xs).output
    single = np.stack([forward(net, x).output for x in xs])
    assert batched.shape == single.shape
    assert np.max(np.abs(batched - single)) <= 1e-12


def test_zero_qk_attention_is_uniform_average():
    n, d = 3, 4
    net = build_attention(n, d, heads=1, head_dim=2, seed=9, zero_qk=True)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(net.input_dim)
    stage1 = np.stack(forward(net, x).stages[1])
    w = net.layers[1].op.attention_weights(list(stage1))
    assert np.max(np.abs(w - 1.0 / n)) == 0.0
    # each head output row is then the plain average of the value rows
    V = stage1[:, d:]
    avg = np.tile(V.mean(axis=0), (n, 1))
    got = forward(net, x).output.reshape(n, d)
    want = avg @ np.array(net.layers[1].op.w_z)
    assert np.max(np.abs(got - want)) <= 1e-12


def _graph_net() -> Network:
    sp = MarkedSpace(n_points=2, fiber_dims=(1, 1), structure=("graph", ((1, 2),)))
    seq = CoverSequence(space=sp, stages=(singleton_stage(sp), global_stage(sp)))
    layer = InclusionLayer(
        input_cover=seq.stages[0], output_cover=seq.stages[1],
        aggregation=((0, 1),),
        phi=(affine_section([[1.0]]), affine_section([[2.0]])),
        activation="identity", out_dim=1)
    return Network(space=sp, sequence=seq, layers=(layer,))


def _assert_json_round_trip(net: Network) -> None:
    clone = network_from_json(json.dumps(network_to_json(net)))
    # the space round-trips with its structure, graph edges included
    assert clone.space == net.space
    assert [c.memberships() for c in clone.sequence.stages] == \
        [c.memberships() for c in net.sequence.stages]
    x = np.random.default_rng(0).standard_normal(net.input_dim)
    assert np.array_equal(forward(net, x).output, forward(clone, x).output)


def test_network_json_round_trip():
    for net in [build_cnn(4, seed=3), build_sequential(4, "rnn", seed=6),
                _graph_net()]:
        _assert_json_round_trip(net)


def test_reducer_json_round_trip():
    _assert_json_round_trip(
        build_cnn(2, plan=[{"kind": "pool", "mode": "max", "block": 2},
                           {"kind": "fc", "out_dim": 2,
                            "activation": "tanh"}]))


@pytest.mark.parametrize("mode", ["median", "mean"])
def test_cnn_rejects_unknown_pool_modes(mode):
    with pytest.raises(ValueError, match=f"unknown pool mode {mode!r}"):
        build_cnn(4, plan=[{"kind": "pool", "mode": mode, "block": 2},
                           {"kind": "fc", "out_dim": 1}])


def test_cnn_rejects_sizes_below_1():
    fc = {"kind": "fc"}
    cases = [
        ("block", lambda: build_cnn(4, plan=[
            {"kind": "pool", "mode": "sum", "block": 0}, fc])),
        ("block", lambda: build_cnn(4, plan=[
            {"kind": "pool", "mode": "max", "block": -2}, fc])),
        ("channels", lambda: build_cnn(4, plan=[
            {"kind": "conv", "channels": -1}, fc])),
        ("channels", lambda: build_cnn(4, plan=[
            {"kind": "conv", "channels": 0}, fc])),
        ("out_dim", lambda: build_cnn(4, plan=[{"kind": "fc", "out_dim": 0}])),
        ("out_dim", lambda: build_sequential(4, out_dim=0)),
        ("hidden", lambda: build_sequential(4, hidden=0)),
        ("heads", lambda: build_attention(3, 4, heads=0)),
        ("head_dim", lambda: build_attention(3, 4, head_dim=0)),
    ]
    for field, build in cases:
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            build()


def test_network_json_errors():
    with pytest.raises(ValueError):
        network_from_json({"space": {"n_points": 1, "fiber_dims": [1]}})
    net = build_attention(2, 2)
    with pytest.raises(ValueError):
        network_to_json(net)  # attention ops do not serialize


def test_network_stage_cover_validation():
    sp = MarkedSpace(n_points=2, fiber_dims=(1, 1))
    seq = CoverSequence(space=sp, stages=(singleton_stage(sp),
                                          global_stage(sp)))
    other = make_cover(sp, [[1], [2]])
    layer = InclusionLayer(
        input_cover=other, output_cover=seq.stages[1],
        aggregation=((0, 1),),
        phi=(affine_section([[1.0]]), affine_section([[1.0]])),
        activation="identity", out_dim=1)
    # identical memberships are accepted even for distinct cover objects
    Network(space=sp, sequence=seq, layers=(layer,))
    with pytest.raises(ValueError):
        Network(space=sp, sequence=seq, layers=(layer, layer))


def _odd_aggregation_net() -> Network:
    """Sum pool whose first output aggregates input 1 twice over (via
    an overlapping second output) and whose head skips input 1."""
    doc = json.loads((FIXTURES / "sumpool.json").read_text())
    doc["stages"][1] = [[1, 2], [2, 3, 4]]
    doc["layers"][0]["aggregation"] = [[0, 1], [1, 2, 3]]
    doc["layers"][1]["aggregation"] = [[0]]
    return network_from_json(doc)


@pytest.mark.parametrize("make", [
    sumpool_net, _odd_aggregation_net, lambda: build_cnn(4, seed=2),
    lambda: build_sequential(4, "rnn", seed=1),
    lambda: build_attention(3, 4, heads=2, head_dim=2, seed=3),
    lambda: build_cnn(4, plan=[{"kind": "pool", "mode": "max", "block": 2},
                               {"kind": "fc", "out_dim": 2,
                                "activation": "tanh"}]),
])
def test_traced_pre_values_are_each_inputs_phi(make):
    net = make()
    xs = np.random.default_rng(8).standard_normal((5, net.input_dim))
    plain = forward(net, xs)
    traced = forward(net, xs, trace=True)
    assert plain.pre is None
    assert np.array_equal(traced.output, plain.output)
    assert len(traced.pre) == len(net.layers)
    for i, layer in enumerate(net.layers):
        if not isinstance(layer, InclusionLayer):
            assert traced.pre[i] is None
            continue
        assert len(traced.pre[i]) == len(layer.phi)
        for a, phi in enumerate(layer.phi):
            want = evaluate(phi, traced.stages[i][a])
            assert np.array_equal(traced.pre[i][a], want)


def test_stage_zero_values_alias_the_input():
    net = build_cnn(4, seed=1)
    for x in (np.arange(net.input_dim, dtype=float),
              np.ones((3, net.input_dim))):
        stage0 = forward(net, x).stages[0]
        assert all(np.shares_memory(v, x) for v in stage0)
    # a deviation makes new stage-0 values
    dev = Deviation.zero(net.space)
    x = np.ones(net.input_dim)
    assert not any(np.shares_memory(v, x)
                   for v in forward(net, x, deviation=dev).stages[0])


def test_forward_allocates_well_below_one_copy_of_the_probe():
    import tracemalloc
    net = build_cnn(16)
    probe = np.random.default_rng(0).uniform(-3, 3, (10_000, net.input_dim))
    tracemalloc.start()
    try:
        forward(net, probe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * probe.nbytes, (peak, probe.nbytes)
