"""The finite-difference certification harness must itself be trustworthy."""

import inspect

import numpy as np
import pytest

from lungseg3d import autograd, losses, ops
from lungseg3d.gradcheck import (ABS_FLOOR, BLOCK_TARGETS, CHECKS,
                                 NETWORK_TARGETS, NETWORKS, TABLE,
                                 TAPE_OP_TARGETS, all_targets,
                                 check_gradients, compare_grads,
                                 finite_diff_grad, oracle_selftest)

# autograd module functions that build/drive the graph rather than
# differentiate anything, and so are exempt from the coverage gate
_NON_DIFFERENTIABLE = {"accumulate", "from_op", "grad_on",
                       "run_backward", "zero_grads"}


def test_oracle_selftest_passes_closed_forms():
    reports = oracle_selftest()
    assert [r.op_name for r in reports] == [
        "oracle.quadratic", "oracle.logloss", "oracle.product"]
    assert all(r.passed for r in reports)
    assert all(r.max_rel_err <= 1e-6 for r in reports)


def test_finite_diff_on_known_quadratic():
    x = np.asarray([1.0, 2.0])
    g = finite_diff_grad(lambda v: float((v ** 2).sum()), x, 1e-5)
    assert np.allclose(g, [2.0, 4.0], atol=1e-6)
    assert np.array_equal(x, [1.0, 2.0])  # probes restored in place


def test_compare_grads_pass_fail_and_floor():
    g = np.asarray([1.0, -2.0, 0.5])
    ok = compare_grads("t", "x", g, g * (1 + 5e-5), tol=1e-4)
    assert ok.passed and ok.max_rel_err <= 1e-4
    bad = compare_grads("t", "x", g, g * 1.01, tol=1e-4)
    assert not bad.passed
    # a dead direction: both sides are round-off, absolute floor rescues it
    floor = compare_grads("t", "x", np.asarray([0.0]), np.asarray([5e-9]),
                          tol=1e-4)
    assert floor.passed and floor.max_abs_err <= ABS_FLOOR
    with pytest.raises(ValueError):
        compare_grads("t", "x", np.zeros(2), np.zeros(3), tol=1e-4)


def test_compare_grads_flags_wrong_analytic_gradient():
    # negative control: a backward pass off by a factor must be caught
    x = np.asarray([0.3, -1.1, 2.0])
    numeric = finite_diff_grad(lambda v: float((v ** 2).sum()), x, 1e-5)
    report = compare_grads("neg", "x", 3.0 * x, numeric, tol=1e-4)
    assert not report.passed
    assert report.max_rel_err > 0.2


def test_every_tape_op_has_a_registered_check():
    for fn_name, target in TAPE_OP_TARGETS.items():
        assert hasattr(autograd, fn_name) or hasattr(losses, fn_name), fn_name
        assert target in CHECKS, target
    diff_fns = {n for n, o in inspect.getmembers(autograd, inspect.isfunction)
                if not n.startswith("_")
                and o.__module__ == "lungseg3d.autograd"} - _NON_DIFFERENTIABLE
    assert diff_fns <= set(TAPE_OP_TARGETS), diff_fns - set(TAPE_OP_TARGETS)
    assert set(TAPE_OP_TARGETS.values()) | set(BLOCK_TARGETS) \
        | set(NETWORK_TARGETS) == set(CHECKS)
    assert all_targets() == sorted(CHECKS)


def test_check_gradients_dispatch():
    with pytest.raises(ValueError):
        check_gradients("no_such_target")
    reports = check_gradients("relu", seed=1)
    assert reports and all(r.passed for r in reports)
    d = reports[0].as_dict()
    assert set(d) == {"op", "tensor", "max_rel_err", "max_abs_err",
                      "worst_index", "pass", "tol", "note"}


def test_block_check_runs_clean():
    reports = check_gradients("attention_gate", seed=0)
    assert all(r.passed for r in reports)
    tensors = {r.tensor for r in reports}
    assert any("weight" in t for t in tensors)


@pytest.mark.parametrize("target,seed", [("residual_block", 1),
                                         ("residual_block", 2),
                                         ("attention_gate", 2)])
def test_block_checks_pass_at_seeds_with_relu_kinks(target, seed):
    # these seeds put ReLU inputs within 1e-4 of zero, where a coarse
    # central-difference probe crosses the kink
    reports = check_gradients(target, seed=seed)
    assert reports and all(r.passed for r in reports), \
        [(r.tensor, r.max_rel_err) for r in reports if not r.passed]


def test_rng_tags_are_pairwise_distinct():
    tags = [row.tag for row in TABLE] + [(t,) for _, t, _ in NETWORKS.values()]
    assert len(set(tags)) == len(tags)
    # a trailing zero word (within the 4-word pool) does not change a
    # SeedSequence, so distinct tags can still share a stream: compare both
    firsts = [np.random.default_rng([0, *t]).integers(2 ** 62) for t in tags]
    assert len(set(firsts)) == len(firsts)


def _flipped_weight_grad(orig):
    def wrong(x, p, g):
        gx, gw, gb = orig(x, p, g)
        return gx, np.ascontiguousarray(gw[:, :, ::-1, ::-1, ::-1]), gb
    return wrong


def _no_batch_stat_feedback(orig):
    def wrong(cache, g):
        return orig(cache[:3] + ("eval",), g)
    return wrong


@pytest.mark.parametrize("kernel,wrap,target,failing", [
    ("relu_backward", lambda orig: lambda x, g: g * (x < 0), "relu",
     {("relu", "x")}),
    ("conv3d_backward", _flipped_weight_grad, "conv3d",
     {("conv3d[s1d1p1]", "weight"), ("conv3d[s2d2p2]", "weight")}),
    ("batchnorm3d_backward", _no_batch_stat_feedback, "batchnorm3d",
     {("batchnorm3d[train]", "x")}),
], ids=["relu", "conv3d", "batchnorm3d"])
def test_wrong_backward_is_reported(monkeypatch, kernel, wrap, target,
                                    failing):
    # negative control through the table runner: a broken kernel must fail
    # exactly the tensors whose gradient it corrupts
    monkeypatch.setattr(ops, kernel, wrap(getattr(ops, kernel)))
    reports = check_gradients(target, seed=0)
    assert {(r.op_name, r.tensor) for r in reports if not r.passed} == failing
