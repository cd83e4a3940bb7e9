import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aced.core import (
    HypothesisClass,
    ImplicitClassError,
    LabelModel,
    Pool,
    errors_all,
    gap_table,
)
from aced.complexity import make_core_tail_instance
from aced.oracles import LinearOracleClass

X_ORACLE = np.arange(8.0).reshape(4, 2)


def small_classes(max_h=8, max_n=6):
    return st.tuples(st.integers(1, max_h), st.integers(2, max_n)).flatmap(
        lambda shape: arrays(np.int8, shape, elements=st.integers(0, 1))
    )


def test_pool_validation():
    with pytest.raises(ValueError):
        Pool(n=0)
    with pytest.raises(ValueError):
        Pool(n=3, features=np.zeros((2, 2)))
    p = Pool(n=3)
    assert p.ids == ("0", "1", "2")


def test_perfect_classifier_has_zero_error():
    hclass = HypothesisClass(np.array([[0, 0, 0]]))
    labels = LabelModel(np.zeros(3))
    assert errors_all(hclass, labels)[0] == 0.0


def test_core_tail_instance_gaps_are_quarter():
    # eta = 0 makes every nonempty hypothesis pay (m+1)/n = 0.25 at m=4
    inst = make_core_tail_instance(4)
    errs = errors_all(inst.hypotheses, inst.labels)
    assert errs[0] == 0.0
    assert np.allclose(errs[1:], 0.25)


@given(small_classes(), st.data())
def test_pool_error_matches_direct_sum(labelings, data):
    hclass = HypothesisClass(labelings, dedup=False)
    n = hclass.n
    eta = np.array(data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
    labels = LabelModel(eta)
    h = data.draw(st.integers(0, hclass.size - 1))
    direct = sum(
        eta[i] * (1 - labelings[h][i]) + (1 - eta[i]) * labelings[h][i] for i in range(n)
    ) / n
    assert errors_all(hclass, labels)[h] == pytest.approx(direct, abs=1e-12)


@given(small_classes(), st.data())
def test_pool_error_affine_in_eta(labelings, data):
    hclass = HypothesisClass(labelings, dedup=False)
    n = hclass.n
    eta1 = np.array(data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
    eta2 = np.array(data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
    h = data.draw(st.integers(0, hclass.size - 1))
    mid = errors_all(hclass, LabelModel((eta1 + eta2) / 2))[h]
    ends = 0.5 * (errors_all(hclass, LabelModel(eta1))[h] + errors_all(hclass, LabelModel(eta2))[h])
    assert mid == pytest.approx(ends, abs=1e-12)


def test_pool_error_index_out_of_range():
    hclass = HypothesisClass(np.array([[0, 1]]))
    with pytest.raises(ValueError):
        hclass.labeling(5)


def test_gap_table_singleton_and_ties():
    hclass = HypothesisClass(np.array([[0, 1]]))
    gt = gap_table(hclass, LabelModel(np.array([0.3, 0.3])))
    assert gt.h_star == 0 and gt.gaps.tolist() == [0.0]

    inst = make_core_tail_instance(4)
    gt = gap_table(inst.hypotheses, inst.labels)
    assert gt.h_star == 0 and gt.nu == 0.0
    assert np.allclose(gt.gaps[1:], 0.25)
    assert gt.delta_min == pytest.approx(0.25)


@given(small_classes(), st.data())
def test_gap_table_matches_brute_force(labelings, data):
    hclass = HypothesisClass(labelings)
    n = hclass.n
    eta = np.array(data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
    labels = LabelModel(eta)
    errs = errors_all(hclass, labels)
    gt = gap_table(hclass, labels)
    assert gt.h_star == int(np.argmin(errs))
    assert gt.nu == pytest.approx(min(errs), abs=1e-12)
    assert np.all(gt.gaps >= 0)


def test_gap_table_rejects_implicit_class():
    class FakeOracle:
        n = 3
        features = np.zeros((3, 1))

    hclass = HypothesisClass(oracle=FakeOracle())
    with pytest.raises(ImplicitClassError):
        gap_table(hclass, LabelModel(np.full(3, 0.5)))


def test_query_deterministic_cases():
    labels = LabelModel(np.array([1.0, 0.0]))
    assert all(labels.query(0) == 1 for _ in range(10))
    assert all(labels.query(1) == 0 for _ in range(10))
    with pytest.raises(IndexError):
        labels.query(7)


def test_persistent_queries_are_idempotent():
    labels = LabelModel(np.full(20, 0.5), persistent=True, seed=11)
    first = [labels.query(i) for i in range(20)]
    for _ in range(3):
        assert [labels.query(i) for i in range(20)] == first
    assert labels.query_many(range(20)).tolist() == first


@pytest.mark.parametrize("persistent", [True, False])
def test_query_many_refuses_float_and_bool_indices(persistent):
    # numpy used to cast them: [1.9, 2.2] read as [1, 2], [True, False] as [1, 0]
    labels = LabelModel(np.linspace(0.1, 0.9, 5), persistent=persistent, seed=3)
    with pytest.raises(IndexError):
        labels.query(1.9)
    for bad in ([1.9, 2.2], np.array([1.0, 2.0]), [True, False], np.array([1], dtype=bool)):
        with pytest.raises(IndexError, match="must be integers"):
            labels.query_many(bad)
    # a refused call draws nothing, and integer indices of any width are served
    fresh = LabelModel(np.linspace(0.1, 0.9, 5), persistent=persistent, seed=3)
    for idx in ([0, 4, 2], np.array([1, 3], dtype=np.uint8), np.array([2], dtype=np.int32), []):
        assert labels.query_many(idx).tolist() == fresh.query_many(idx).tolist()


@pytest.mark.parametrize("persistent", [True, False])
def test_query_refuses_a_bool_index_before_any_draw(persistent):
    # True passed 0 <= i < n: a persistent model then raised TypeError, a
    # non-persistent one spent a draw of its label stream first
    labels = LabelModel(np.linspace(0.1, 0.9, 5), persistent=persistent, seed=3)
    state = labels._rng.bit_generator.state
    for bad in (True, False, np.True_, np.bool_(False), 1.0, np.float64(2.0)):
        with pytest.raises(IndexError, match="must be an integer"):
            labels.query(bad)
    assert labels._rng.bit_generator.state == state
    # numpy integers are served, as rng.choice returns them
    fresh = LabelModel(np.linspace(0.1, 0.9, 5), persistent=persistent, seed=3)
    for i in (np.int64(1), np.uint8(4), np.random.default_rng(0).choice(np.arange(5)), 2):
        assert labels.query(i) == fresh.query(int(i))


def test_query_empirical_mean():
    labels = LabelModel(np.array([0.3]), seed=4)
    draws = labels.query_many(np.zeros(100_000, dtype=int))
    assert abs(draws.mean() - 0.3) < 0.01


def set_sums(hclass, labels):
    """The bandit view's set sums: sum of mu = 2*eta - 1 over each hypothesis's
    positive set."""
    return hclass.labelings @ (2.0 * labels.eta - 1.0)


def test_to_bandit_exact_relation():
    inst = make_core_tail_instance(3)
    eta = inst.labels.eta
    assert np.all(2.0 * eta - 1.0 == -1.0)
    sums, errs = set_sums(inst.hypotheses, inst.labels), errors_all(inst.hypotheses, inst.labels)
    for h in range(inst.hypotheses.size):
        assert errs[h] == pytest.approx((eta.sum() - sums[h]) / inst.n, abs=1e-12)


def test_to_bandit_neutral_means():
    hclass = HypothesisClass(np.array([[0, 1], [1, 0]]))
    assert set_sums(hclass, LabelModel(np.full(2, 0.5))).tolist() == [0.0, 0.0]


@given(small_classes(), st.data())
def test_argmin_error_is_argmax_set_sum(labelings, data):
    hclass = HypothesisClass(labelings)
    n = hclass.n
    eta = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n)))
    labels = LabelModel(eta)
    sums = set_sums(hclass, labels)
    errs = errors_all(hclass, labels)
    assert errs[np.argmax(sums)] == pytest.approx(errs.min(), abs=1e-12)


def test_dedup_keeps_first_occurrence_order():
    mat = np.array([[1, 0], [0, 1], [1, 0], [0, 0]])
    hclass = HypothesisClass(mat)
    assert hclass.labelings.tolist() == [[1, 0], [0, 1], [0, 0]]


def test_an_oracle_backed_class_reads_its_size_from_the_oracle_features():
    assert HypothesisClass(oracle=LinearOracleClass(X_ORACLE)).n == 4


BAD_INPUT = [
    # every operation that enumerates the class names itself
    (lambda: HypothesisClass(oracle=LinearOracleClass(X_ORACLE)).size, ImplicitClassError,
     "the class size needs an explicitly enumerated class"),
    (lambda: HypothesisClass(oracle=LinearOracleClass(X_ORACLE)).labeling(0), ImplicitClassError,
     "an integer hypothesis handle needs an explicitly enumerated class"),
    (lambda: errors_all(HypothesisClass(oracle=LinearOracleClass(X_ORACLE)), LabelModel(np.full(4, 0.5))),
     ImplicitClassError, "errors_all needs an explicitly enumerated class"),
    (lambda: Pool(n=2, ids=("a",)), ValueError, "ids length must equal n"),
    (lambda: LabelModel(np.array([])), ValueError, "eta must be a non-empty 1-d vector"),
    (lambda: LabelModel(np.full((2, 2), 0.5)), ValueError, "eta must be a non-empty 1-d vector"),
    (lambda: LabelModel([0.5, 1.5]), ValueError, "eta entries must lie in [0, 1]"),
    (lambda: LabelModel([0.5, -0.1]), ValueError, "eta entries must lie in [0, 1]"),
    (lambda: LabelModel([0.5, np.nan]), ValueError, "eta entries must lie in [0, 1]"),
    (lambda: LabelModel([0.5, 0.5]).query_many([0, 2]), IndexError, "query index out of range"),
    (lambda: LabelModel([0.5, 0.5]).query_many([-1]), IndexError, "query index out of range"),
    (lambda: LabelModel([0.5]).realized_labels(), ValueError, "only in persistent mode"),
    (lambda: HypothesisClass(), ValueError, "provide exactly one of labelings / oracle"),
    (lambda: HypothesisClass(np.eye(4), oracle=LinearOracleClass(X_ORACLE)), ValueError,
     "provide exactly one of labelings / oracle"),
    (lambda: HypothesisClass(np.zeros((0, 3))), ValueError, "labelings must be a non-empty 2-d matrix"),
    (lambda: HypothesisClass([0, 1]), ValueError, "labelings must be a non-empty 2-d matrix"),
    (lambda: HypothesisClass([[0, 2]]), ValueError, "labelings entries must be 0/1"),
]


@pytest.mark.parametrize("call, exc, fragment", BAD_INPUT, ids=[case[2] for case in BAD_INPUT])
def test_bad_core_input_is_refused(call, exc, fragment):
    with pytest.raises(exc) as info:
        call()
    assert fragment in str(info.value)
