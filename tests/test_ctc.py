"""CTC loss vs brute-force enumeration, decoding, and error-rate metrics."""

import itertools
import math
from functools import lru_cache

import numpy as np
import numpy.testing as npt
import pytest

from conftest import UndefinedRateError, reference_ctc_loss, token_error_rate
from longattn.ctc import (
    collapse_frames,
    ctc_brute_force,
    ctc_loss,
    ctc_loss_op,
    edit_distance,
    greedy_decode,
    min_frames_required,
)
from longattn.errors import ConfigError, InfeasibleAlignmentError, SizeError
from longattn.numerics import check_gradients, param
from longattn.numerics.tensor import log_softmax_rows


def random_lattice(rng, n_frames, vocab):
    logits = rng.normal(size=(n_frames, vocab))
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def test_single_frame_single_label():
    rng = np.random.default_rng(0)
    lat = random_lattice(rng, 1, 3)
    loss, _ = ctc_loss(lat, [2])
    assert abs(loss - (-lat[0, 2])) < 1e-12


def test_empty_labels_all_blank_path():
    rng = np.random.default_rng(1)
    lat = random_lattice(rng, 2, 3)
    loss, _ = ctc_loss(lat, [])
    assert abs(loss - (-(lat[0, 0] + lat[1, 0]))) < 1e-12


def test_exhaustive_grid_matches_brute_force():
    rng = np.random.default_rng(2)
    vocab = 3
    for n_frames in range(1, 7):
        lat = random_lattice(rng, n_frames, vocab)
        for n_labels in range(0, 4):
            for labels in itertools.product([1, 2], repeat=n_labels):
                if min_frames_required(labels) > n_frames:
                    assert math.isinf(ctc_brute_force(lat, labels))
                    with pytest.raises(InfeasibleAlignmentError):
                        ctc_loss(lat, labels)
                    continue
                loss, _ = ctc_loss(lat, labels)
                assert abs(loss - ctc_brute_force(lat, labels)) <= 1e-10


def test_brute_force_hand_enumeration():
    # uniform 2-frame, 2-token lattice; labels [1] has paths 11, 1-, -1,
    # each of probability 1/4
    lat = np.log(np.full((2, 2), 0.5))
    assert abs(math.exp(-ctc_brute_force(lat, [1])) - 0.75) < 1e-12
    loss, _ = ctc_loss(lat, [1])
    assert abs(math.exp(-loss) - 0.75) < 1e-12


def test_brute_force_budget():
    with pytest.raises(SizeError):
        ctc_brute_force(np.zeros((15, 3)), [1])


def test_probability_completeness():
    rng = np.random.default_rng(3)
    vocab = 3
    for n_frames in (2, 3, 4):
        lat = random_lattice(rng, n_frames, vocab)
        total = 0.0
        for n_labels in range(0, n_frames + 1):
            for labels in itertools.product([1, 2], repeat=n_labels):
                try:
                    loss, _ = ctc_loss(lat, labels)
                except InfeasibleAlignmentError:
                    continue
                total += math.exp(-loss)
        assert abs(total - 1.0) <= 1e-8


def test_log_space_stability():
    lat = np.log(np.array([[1e-280, 1.0 - 2e-280, 1e-280],
                           [1.0 - 2e-280, 1e-280, 1e-280],
                           [1e-280, 1e-280, 1.0 - 2e-280]]))
    loss, grad = ctc_loss(lat, [1, 2])
    assert math.isfinite(loss)
    assert np.all(np.isfinite(grad))


def test_gradient_rows_are_posteriors():
    rng = np.random.default_rng(4)
    lat = random_lattice(rng, 5, 3)
    _, grad = ctc_loss(lat, [1, 2, 1])
    npt.assert_allclose(grad.sum(axis=1), -np.ones(5), atol=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_ctc_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    lat = param(random_lattice(rng, 5, 4))
    labels = [1, 3]

    errors = check_gradients(lambda: ctc_loss_op(lat, labels), [("lattice", lat)])
    assert errors["lattice"] <= 1e-5


@pytest.mark.parametrize("seed", range(3))
def test_ctc_gradient_through_log_softmax(seed):
    rng = np.random.default_rng(200 + seed)
    logits = param(rng.normal(size=(5, 4)))
    labels = [2, 2]

    def f():
        return ctc_loss_op(log_softmax_rows(logits), labels)

    errors = check_gradients(f, [("logits", logits)])
    assert errors["logits"] <= 1e-5


def test_ctc_loss_is_bit_identical_to_the_per_frame_recursion():
    """A derandomized sweep: normalized and free log-scores, -inf entries
    (some whole columns), empty labels, repeated labels, and lattices of
    exactly ``min_frames_required`` frames."""
    rng = np.random.default_rng(20)
    for case in range(600):
        vocab = int(rng.integers(2, 7))
        n_labels = int(rng.integers(0, 6)) if case % 10 else 0
        labels = list(rng.integers(1, vocab, size=n_labels))
        if n_labels > 1 and case % 3 == 0:
            labels[1] = labels[0]
        n_frames = max(1, min_frames_required(labels)) + int(rng.integers(0, 4)) * (case % 4 > 0)
        lat = random_lattice(rng, n_frames, vocab)
        if case % 2:
            lat = rng.normal(scale=10.0, size=lat.shape)
        if case % 5 in (1, 2):
            lat[rng.random(lat.shape) < 0.2] = -np.inf
        if case % 7 == 3:
            lat[:, int(rng.integers(vocab))] = -np.inf
        with np.errstate(invalid="ignore"):  # a lattice with no finite path
            expected_loss, expected_grad = reference_ctc_loss(lat, labels)
            loss, grad = ctc_loss(lat, labels)
        assert np.float64(loss).tobytes() == np.float64(expected_loss).tobytes(), case
        assert grad.tobytes() == expected_grad.tobytes(), case


def test_infeasible_alignment_is_distinct_error():
    rng = np.random.default_rng(5)
    lat = random_lattice(rng, 2, 3)
    with pytest.raises(InfeasibleAlignmentError) as exc:
        ctc_loss(lat, [1, 1])  # needs 3 frames: token, blank, token
    assert exc.value.required == 3 and exc.value.available == 2


def test_labels_validated_against_blank():
    lat = np.zeros((3, 3))
    with pytest.raises(ConfigError):
        ctc_loss(lat, [0])
    with pytest.raises(ConfigError):
        ctc_loss(lat, [3])


# ---------------------------------------------------------------------------
# decoding and metrics
# ---------------------------------------------------------------------------


def lattice_for_path(path, vocab):
    lat = np.full((len(path), vocab), -50.0)
    for t, k in enumerate(path):
        lat[t, k] = 0.0
    return lat


def test_greedy_decode_collapse():
    assert greedy_decode(lattice_for_path([0, 1, 1, 0, 2], 3)) == [1, 2]


def test_greedy_decode_all_blank():
    assert greedy_decode(lattice_for_path([0, 0, 0], 3)) == []


def test_greedy_decode_blank_separates_repeats():
    assert greedy_decode(lattice_for_path([1, 0, 1], 3)) == [1, 1]


def test_collapse_frames():
    assert collapse_frames([2, 2, 0, 2, 1, 1]) == [2, 2, 1]


def test_token_error_rate_identical():
    assert token_error_rate([1, 2, 3], [1, 2, 3]) == 0.0


def test_token_error_rate_one_deletion():
    assert abs(token_error_rate([1, 3], [1, 2, 3]) - 1 / 3) < 1e-15


def test_token_error_rate_empty_reference():
    with pytest.raises(UndefinedRateError):
        token_error_rate([1], [])


def oracle_edit_distance(a, b):
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            go(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
            go(i - 1, j) + 1,
            go(i, j - 1) + 1,
        )

    return go(len(a), len(b))


def row_dp_edit_distance(hyp, ref):
    """The plain quadratic row DP, one cell at a time."""
    m, n = len(hyp), len(ref)
    prev = list(range(n + 1))
    for i in range(1, m + 1):
        cur = [i] + [0] * n
        for j in range(1, n + 1):
            sub = prev[j - 1] + (hyp[i - 1] != ref[j - 1])
            cur[j] = min(sub, prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return prev[n]


def test_edit_distance_matches_row_dp_on_long_and_empty_pairs():
    rng = np.random.default_rng(8)
    sizes = [0, 1, 2, 5, 40, 151, 184, 230]
    for trial in range(120):
        vocab = int(rng.integers(2, 12))
        hyp = [int(t) for t in rng.integers(1, vocab, size=sizes[trial % len(sizes)])]
        ref = [int(t) for t in rng.integers(1, vocab, size=rng.choice(sizes))]
        expected = row_dp_edit_distance(hyp, ref)
        assert edit_distance(hyp, ref) == expected
        assert edit_distance(ref, hyp) == expected
    assert edit_distance([], []) == 0
    assert edit_distance([3] * 160, []) == 160


def test_edit_distance_matches_recursive_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        hyp = list(rng.integers(1, 5, size=rng.integers(0, 9)))
        ref = list(rng.integers(1, 5, size=rng.integers(0, 9)))
        assert edit_distance(hyp, ref) == oracle_edit_distance(hyp, ref)
