"""The finite-difference certification harness must itself be trustworthy."""

import functools
import inspect
from types import SimpleNamespace

import numpy as np
import pytest

from lungseg3d import autograd, gradcheck, losses, ops
from lungseg3d.autograd import Var
from lungseg3d.cli import main
from lungseg3d.gradcheck import (ABS_FLOOR, BLOCK_TARGETS, CHECKS, H_SHALLOW,
                                 NETWORK_TARGETS, TABLE, TAPE_OP_TARGETS, Row,
                                 all_targets, check_gradients, compare_grads,
                                 finite_diff_grad, oracle_selftest)

# autograd module functions that build/drive the graph rather than
# differentiate anything, and so are exempt from the coverage gate
_NON_DIFFERENTIABLE = {"accumulate", "from_op", "run_backward",
                       "zero_grads"}


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


def test_each_tape_op_is_certified_by_one_op_target():
    """TAPE_OP_TARGETS is read off the rows' `op`: rows of two targets that
    named one op would keep only one of them there."""
    pairs = {(row.op, row.target) for row in TABLE if row.op}
    assert len(pairs) == len(TAPE_OP_TARGETS)
    assert not {t for _, t in pairs} & (set(BLOCK_TARGETS)
                                        | set(NETWORK_TARGETS))


def test_a_lung_net_row_runs_through_the_pad_and_crop():
    """The lung net pads each extent to a multiple of 16 and crops back;
    one of its rows has extents that need both."""
    rng = np.random.default_rng(0)
    extents = [row.consts[0](rng).shape[2:] for row in TABLE
               if row.name == "lung_net"]
    assert any(all(n % 16 for n in e) for e in extents), extents


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


@pytest.mark.parametrize("seed", [1, 2])
def test_lung_net_check_passes_at_seeds_1_and_2(seed):
    # at seed 2 a probe step of 1e-5 straddles ReLU kinks in enc4 and up4
    reports = check_gradients("lung_net", seed=seed)
    assert reports and all(r.passed for r in reports), \
        [(r.tensor, r.max_rel_err) for r in reports if not r.passed]


def test_rng_tags_are_pairwise_distinct():
    tags = [row.tag for row in TABLE]
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


def _no_keep_mask(orig):
    def wrong(keep, rate, g):
        return orig(None, rate, g)
    return wrong


@pytest.mark.parametrize("kernel,wrap,target,failing", [
    ("relu_backward", lambda orig: lambda x, g: g * (x < 0), "relu",
     {("relu", "x")}),
    ("conv3d_backward", _flipped_weight_grad, "conv3d",
     {("conv3d[s1d1p1]", "weight"), ("conv3d[s2d2p2]", "weight")}),
    ("batchnorm3d_backward", _no_batch_stat_feedback, "batchnorm3d",
     {("batchnorm3d[train]", "x")}),
    ("dropout_backward", _no_keep_mask, "dropout", {("dropout[train]", "x")}),
], ids=["relu", "conv3d", "batchnorm3d", "dropout"])
def test_wrong_backward_is_reported(monkeypatch, kernel, wrap, target,
                                    failing):
    # negative control through the table runner: a broken kernel must fail
    # exactly the tensors whose gradient it corrupts
    monkeypatch.setattr(ops, kernel, wrap(getattr(ops, kernel)))
    reports = check_gradients(target, seed=0)
    assert {(r.op_name, r.tensor) for r in reports if not r.passed} == failing


def _kinked_row(size, sample, calls):
    """A sampled row whose every coordinate sits 0.75 h above a ReLU kink:
    the probe at h crosses it and the probe at h/2 does not."""
    w = Var(np.full(size, 0.75 * H_SHALLOW), name="w")
    block = SimpleNamespace(params=lambda: [w])
    return Row("kinked[all]", (0x7E,), (),
               lambda blk: calls.append(1) or autograd.relu(w),
               build=lambda rng, seed: block, tol=1e-3, sample=sample)


@pytest.mark.parametrize("size,sample", [(1, 2), (1 << 16, 1), (1 << 16, 2)])
def test_sampled_row_gives_up_after_50_draws_per_sample(size, sample):
    # With one coordinate every draw after the first is a duplicate, and
    # duplicates count towards the limit; at seed 0 the draws over 2**16
    # coordinates are all distinct.
    calls = []
    with pytest.raises(FloatingPointError, match=r"^kinked\[all\]: .* "
                       rf"in {50 * sample} draws$"):
        gradcheck._run_row(_kinked_row(size, sample, calls), 0)
    # one recorded forward for the backward, then four per distinct draw
    distinct = min(size, 50 * sample)
    assert len(calls) == 1 + 4 * distinct


def test_sampled_row_that_gives_up_is_a_failed_check(monkeypatch, capsys):
    row = _kinked_row(1, 1, [])
    monkeypatch.setattr(gradcheck, "TABLE", TABLE + (row,))
    monkeypatch.setitem(CHECKS, "kinked",
                        functools.partial(gradcheck._run_target, "kinked"))
    assert main(["gradcheck", "--target", "kinked"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: gradcheck 'kinked': kinked[all]: could not find 1 "
                   "smooth coordinates to probe in 50 draws"]
