"""Input checks that no campaign reaches: each raises its type with its full
message when called through the public function that owns it."""

from __future__ import annotations

import numpy as np
import pytest

from gpip import baselines, channel, coop, evaluation, solver
from gpip.config import ExperimentConfig, load_config
from gpip.errors import ConfigInvalid, DimensionMismatch, RankDeficient
from gpip.numerics import BlockDiagonal


def unvalidated_link(**fields) -> ExperimentConfig:
    """A link config built without `validate()`, as a library caller may pass one."""
    return ExperimentConfig(scenario="link", n_antennas=2, n_users=2, algorithms=["mrt"],
                            seed=0, **fields)


def load_bytes(path, data: bytes):
    path.write_bytes(data)
    return load_config(path)


CASES = {
    "waterfill without a positive gain": (
        lambda tmp: baselines.waterfill([0.0, -1.0], 1.0),
        ValueError, "need at least one positive gain"),
    "zf-dpc on all-zero channels": (
        lambda tmp: baselines.zf_dpc_waterfilling(np.zeros((2, 2)), 0.1),
        RankDeficient, "no user has a nonzero channel"),
    "array of no antennas": (
        lambda tmp: channel.uniform_circular_array(0),
        ValueError, "n_antennas must be >= 1"),
    "one-ring sector of zero spread": (
        lambda tmp: channel.OneRingParams(0.0, 0.0),
        ValueError, "angular_spread must be positive"),
    "fdd quality above one": (
        lambda tmp: channel.fdd_quantized_csit(np.eye(2), 1.5, 0),
        ValueError, "kappa must lie in [0, 1]"),
    "hexagonal grid of no cells": (
        lambda tmp: channel.hex_cell_centers(0, 1000.0),
        ValueError, "n_cells must be >= 1"),
    "config that is not JSON": (
        lambda tmp: load_bytes(tmp / "cfg.json", b"not json"),
        ConfigInvalid, "{tmp}/cfg.json: not valid JSON (Expecting value: line 1 column 1 (char 0))"),
    "config that is not UTF-8": (
        lambda tmp: load_bytes(tmp / "cfg.json", b"\xff"),
        ConfigInvalid, "{tmp}/cfg.json: cannot read ('utf-8' codec can't decode byte 0xff "
                       "in position 0: invalid start byte)"),
    "true SINR of misfit precoders": (
        lambda tmp: evaluation.true_sinr(np.ones((1, 1, 2, 2)), np.ones((1, 3, 2)), 1.0),
        DimensionMismatch, "true_h and precoders must be (L, L, K, N) and (L, K, N), "
                           "got (1, 1, 2, 2) and (1, 3, 2)"),
    "rate bound of misfit precoders": (
        lambda tmp: evaluation.gmi_rate_lb(np.eye(2), None, np.ones((3, 2)), 0.1),
        DimensionMismatch, "precoders must be (2, 2), got (3, 2)"),
    "CDF of no samples": (
        lambda tmp: evaluation.rate_cdf([]),
        ValueError, "need at least one sample"),
    "link statistics of an unknown CSIT model": (
        lambda tmp: evaluation.link_statistics(unvalidated_link(csit_model="oracle")),
        ConfigInvalid, "csit_model: unknown model 'oracle'"),
    "design by an unknown algorithm": (
        lambda tmp: evaluation.design_precoders("oracle", np.eye(2), np.zeros((2, 2, 2)), 0.1,
                                                unvalidated_link()),
        ConfigInvalid, "algorithms: unknown algorithm 'oracle'"),
    "block-diagonal of non-square blocks": (
        lambda tmp: BlockDiagonal(np.ones((2, 3))),
        DimensionMismatch, "expected (k, n, n) blocks, got shape (2, 3)"),
    "block-diagonal solve of a misfit vector": (
        lambda tmp: BlockDiagonal(np.ones((2, 2, 2))).solve(np.ones(3)),
        DimensionMismatch, "vector length (3,) != 4"),
    "cluster estimates of unequal BS and cell counts": (
        lambda tmp: coop.build_coop_pairs(np.ones((2, 1, 2, 2))),
        DimensionMismatch, "estimates must be (C, C, K, N), got (2, 1, 2, 2)"),
    "cluster error covariances of the wrong shape": (
        lambda tmp: coop.build_coop_pairs(np.ones((1, 1, 2, 2)), np.zeros((1, 1, 2, 2))),
        DimensionMismatch, "error covariances must be (C, C, K, N, N), got (1, 1, 2, 2)"),
    "weights of the wrong shape": (
        lambda tmp: solver.gpip_iterate(solver.build_effective_pairs(np.eye(2)),
                                        weights=np.ones(3)),
        DimensionMismatch, "weights must have shape (2,)"),
    "a zero weight": (
        lambda tmp: solver.gpip_iterate(solver.build_effective_pairs(np.eye(2)),
                                        weights=[1.0, 0.0]),
        ValueError, "weights must be positive"),
}


@pytest.mark.parametrize("call, exc_type, message", CASES.values(), ids=CASES.keys())
def test_input_check_raises_its_type_and_message(tmp_path, call, exc_type, message):
    with pytest.raises(exc_type) as err:
        call(tmp_path)
    assert type(err.value) is exc_type
    assert str(err.value) == message.replace("{tmp}", str(tmp_path))
