import hashlib
import io
import json
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from _oracles import (
    alcove_point,
    ball_elements,
    brute_force_counts,
    brute_force_elements,
    coxeter_length,
    element_json,
    word_map,
    word_multilength,
)
from conftest import get_ball, system_of
from gyoja import counting, series, weyl
from gyoja.cli import ALL_TYPES
from gyoja.counting import count_multilengths
from gyoja.hecke import counting_series
from gyoja.weyl import ResourceLimitExceeded, enumerate_ball, enumerate_levels, write_jsonl


def test_a1_ball_example():
    ball = get_ball("A1", 3)
    assert tuple(ball.counts[:4]) == (1, 2, 2, 2)
    assert sum(ball.counts[:4]) == 7


def test_a2_ball_example():
    ball = get_ball("A2", 2)
    assert tuple(ball.counts[:3]) == (1, 3, 6)


def test_radius_zero_is_identity_only():
    for label in ("A1", "G2", "C3"):
        ball = enumerate_ball(system_of(label), 0)
        assert ball.counts == (1,)
        (el,) = ball_elements(ball)
        assert el.length == 0 and el.geodesic == () and not any(el.translation)


@pytest.mark.parametrize("label,n", [("A1", 6), ("A2", 5), ("C2", 5), ("G2", 5), ("B3", 4)])
def test_counts_match_word_exhaustion_oracle(label, n):
    system = system_of(label)
    assert tuple(get_ball(label, n).counts[: n + 1]) == brute_force_counts(system, n)


def test_counts_match_golden(golden_counts):
    for label, data in golden_counts.items():
        ball = get_ball(label, data["radius"])
        assert list(ball.counts[: data["radius"] + 1]) == data["counts"], label


def test_polynomial_growth_bound(golden_counts):
    # level sizes of an affine group of rank n grow like a degree-(n-1)
    # polynomial, so a generous degree-n bound must hold
    for label, data in golden_counts.items():
        n = system_of(label).rank
        for k, c in enumerate(data["counts"]):
            assert c <= 50 * (k + 1) ** n, (label, k, c)


def test_geodesics_evaluate_to_their_elements():
    for label in ("A1", "C2", "G2", "B3"):
        system = system_of(label)
        ball = get_ball(label, 4)
        for el in ball_elements(ball):
            if el.length > 4:
                break
            lin, tr = word_map(system, el.geodesic)
            assert np.array_equal(lin, np.array(el.linear))
            assert np.array_equal(tr, np.array(el.translation))
            assert len(el.geodesic) == el.length == sum(el.multilength)


def test_multilength_matches_geodesic_letters():
    system = system_of("C3")
    for el in ball_elements(get_ball("C3", 4)):
        if el.length > 4:
            break
        assert el.multilength == word_multilength(system, el.geodesic)


@pytest.mark.parametrize("label", ["C2", "G2"])
def test_lengths_agree_with_oracle(label):
    # BFS length equals the minimum over all words evaluating to the element
    system = system_of(label)
    ball = get_ball(label, 6)
    oracle = brute_force_elements(system, 6)
    checked = 0
    for el in ball_elements(ball):
        if el.length > 6:
            break
        lin, tr = np.array(el.linear, dtype=np.int64), np.array(el.translation, dtype=np.int64)
        assert oracle[lin.tobytes() + tr.tobytes()][0] == el.length
        checked += 1
    assert checked == len(oracle)


def test_multilength_invariance_small():
    # all reduced words of one element carry the same class counts
    for label in ("C2", "G2"):
        system = system_of(label)
        for length, words in brute_force_elements(system, 5).values():
            assert len({word_multilength(system, w) for w in words}) == 1


def test_enumeration_is_deterministic():
    system = system_of("C3")
    b1 = enumerate_ball(system, 6)
    b2 = enumerate_ball(system, 6)
    assert b1.counts == b2.counts
    for lx, ly in zip(b1.levels, b2.levels):
        assert np.array_equal(lx.lin, ly.lin)
        assert np.array_equal(lx.tr, ly.tr)
        assert np.array_equal(lx.parent, ly.parent)
        assert np.array_equal(lx.letter, ly.letter)
        assert np.array_equal(lx.multilength, ly.multilength)


@pytest.mark.parametrize("label, radius", [("G2", 12), ("C3", 8), ("F4", 6), ("E8", 4)])
def test_hyperplane_length_matches_every_ball_element(label, radius):
    system = system_of(label)
    for length, lv in enumerate(enumerate_ball(system, radius).levels):
        assert np.array_equal(coxeter_length(system, lv.lin, lv.tr), np.full(len(lv), length))


@pytest.mark.parametrize("label, radius", [("G2", 8), ("C3", 6), ("F4", 5), ("E8", 4)])
def test_numbers_game_vectors_decide_left_descents(label, radius):
    # v_t = h * alpha_t(w(p)) for the affine simple roots alpha_0 = 1 - theta,
    # alpha_1, ..., alpha_n, read off each element's affine map: the identity's
    # vector is all ones, s is a left descent of w (v_s < 0) iff l(s*w) < l(w),
    # and the vector of s*w is v - v_s * a[s] for the extended Cartan matrix a
    system = system_of(label)
    h = sum(system.highest_root) + 1
    cartan = np.array(system.extended_cartan, dtype=np.int64)
    pairing, theta = np.array(system.pairing), np.array(system.highest_root)
    gen_lin, gen_tr = np.array(system.gen_linear), np.array(system.gen_translation)

    scale, alcove = alcove_point(system)

    def vectors(lin, tr):
        point = lin @ alcove + scale * tr  # w(D*p)
        finite, rest = np.divmod(h * (point @ pairing), scale)
        assert not rest.any()
        return np.concatenate([h - finite @ theta[:, None], finite], axis=1)

    for length, lv in enumerate(enumerate_ball(system, radius).levels):
        v = vectors(lv.lin, lv.tr)
        if length == 0:
            assert np.array_equal(v, np.ones((1, system.num_gens), dtype=np.int64))
        current = coxeter_length(system, lv.lin, lv.tr)
        for s in range(system.num_gens):
            lin = gen_lin[s] @ lv.lin
            tr = lv.tr @ gen_lin[s].T + gen_tr[s]
            shorter = coxeter_length(system, lin, tr) < current
            assert np.array_equal(v[:, s] < 0, shorter), (label, s)
            assert np.array_equal(vectors(lin, tr), v - v[:, s, None] * cartan[s]), (label, s)


@pytest.mark.parametrize("label, radius", [("A30", 2), ("A25", 3), ("G2", 8), ("C3", 6)])
def test_multi_word_keys_match_word_exhaustion_oracle(monkeypatch, label, radius):
    system = system_of(label)
    key_calls = []
    pack = weyl._pack

    def recording_pack(cols):
        words = pack(cols)
        if cols.shape[1] == system.num_gens:  # the numbers-game keys, not the canonical rows
            key_calls.append((len(cols), len(words)))
        return words

    monkeypatch.setattr(weyl, "_pack", recording_pack)
    ball = enumerate_ball(system, radius)
    if system.rank >= 25:  # keys too wide for one int64 word
        assert max(words for _, words in key_calls) >= 2
    # one key sort per step, over the frontier's ascents only: the (f, s) with l(f*s) = l(f) + 1
    gen_lin, gen_tr = np.array(system.gen_linear), np.array(system.gen_translation)
    ascents = []
    for length, lv in enumerate(ball.levels[:-1]):
        lin = lv.lin[:, None] @ gen_lin
        tr = (lv.lin[:, None] @ gen_tr[..., None])[..., 0] + lv.tr[:, None]
        ascents.append(int((coxeter_length(system, lin, tr) == length + 1).sum()))
    assert [rows for rows, _ in key_calls] == ascents
    oracle = brute_force_elements(system, radius)
    assert ball.counts == brute_force_counts(system, radius)
    for length, lv in enumerate(ball.levels):
        for i in range(len(lv)):
            assert oracle[lv.lin[i].tobytes() + lv.tr[i].tobytes()][0] == length


def test_levels_are_lexicographically_sorted():
    ball = get_ball("C2", 6)
    for lv in ball.levels[1:7]:
        rows = np.concatenate([lv.lin.reshape(len(lv), -1), lv.tr], axis=1)
        assert all(tuple(rows[i]) < tuple(rows[i + 1]) for i in range(len(lv) - 1))


def test_resource_cap_raises_after_the_completed_radius(golden_counts):
    system = system_of("A2")
    golden = golden_counts["A2"]["counts"]
    with pytest.raises(ResourceLimitExceeded) as exc_info:
        enumerate_ball(system, 10, max_elements=15)
    err = exc_info.value
    # 1 + 3 + 6 = 10 <= 15 but adding length 3 (9 more) would pass the cap
    assert (err.completed_radius, err.cap) == (2, 15)
    # a cap equal to the ball's size does not fire
    assert list(enumerate_ball(system, 3, max_elements=1 + 3 + 6 + 9).counts) == golden[:4]


# The pairs the key-first enumeration was compared on, at full radius.
COUNTER_CASES = [
    ("E8", 10), ("F4", 28), ("C4", 30), ("C3", 45), ("G2", 120), ("A1", 20),
    ("A9", 8), ("D8", 9), ("A15", 5), ("B12", 5), ("D14", 4), ("E7", 9),
    ("C3", 12), ("F4", 8), ("E8", 5), ("G2", 30), ("A30", 2), ("A25", 3),
]


@pytest.mark.parametrize("label, radius", [("A1", 6), ("G2", 12), ("C3", 8), ("E8", 4)])
def test_multilength_counts_match_per_element_tally(label, radius):
    ball = enumerate_ball(system_of(label), radius)
    assert dict(counting_series(ball).terms()) == Counter(el.multilength for el in ball_elements(ball))


@pytest.mark.parametrize("label, radius", COUNTER_CASES)
def test_counter_matches_ball_counts(label, radius):
    system = system_of(label)
    terms = list(count_multilengths(system, radius).terms())
    assert dict(terms) == dict(counting_series(enumerate_ball(system, radius)).terms())
    assert terms == sorted(terms, key=lambda term: (sum(term[0]), [-e for e in term[0]]))  # degree, then t1-dominant


@pytest.mark.parametrize("label,n", [("A1", 6), ("A2", 5), ("C2", 5), ("G2", 6), ("B3", 4), ("C3", 4)])
def test_counter_matches_word_exhaustion_oracle(label, n):
    system = system_of(label)
    by_length = [0] * (n + 1)
    for ml, count in count_multilengths(system, n).terms():
        by_length[sum(ml)] += count
    assert tuple(by_length) == brute_force_counts(system, n)


def test_counter_a1_takes_no_step_back():
    # the infinite dihedral group: two alternating words of each length >= 1
    assert count_multilengths(system_of("A1"), 5).coeffs == {
        (0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 2, (2, 1): 1, (1, 2): 1, (2, 2): 2, (3, 2): 1, (2, 3): 1,
    }
    assert count_multilengths(system_of("A1"), 0).coeffs == {(0, 0): 1}


def test_counter_a1_widens_past_int16():
    # exact counts far out: numbers-game entries grow with the length and
    # pass the int16 range from length 16,384 on
    radius = 16500
    expected = {(0, 0): 1}
    for k in range(1, radius + 1):
        for ml in sorted({(k - k // 2, k // 2), (k // 2, k - k // 2)}):
            expected[ml] = 2 if k % 2 == 0 else 1
    assert count_multilengths(system_of("A1"), radius).coeffs == expected


def test_counter_memory_stays_small():
    # the ball E8/12 has 202,683 elements, but only coset representatives of
    # length <= 12 are held, far below the 161 MiB traced peak of
    # enumerate_levels on the same ball
    system = system_of("E8")
    count_multilengths(system, 2)
    tracemalloc.start()
    try:
        count_multilengths(system, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@pytest.mark.parametrize(
    "label, cap", [("A2", 15), ("A2", 19), ("G2", 40), ("C3", 100), ("C3", 1000), ("E8", 100), ("E8", 5000)]
)
def test_counter_cap_matches_enumeration(label, cap):
    system = system_of(label)
    with pytest.raises(ResourceLimitExceeded) as ball_exc:
        for _ in enumerate_levels(system, 40, max_elements=cap):
            pass
    with pytest.raises(ResourceLimitExceeded) as exc_info:
        count_multilengths(system, 40, max_elements=cap)
    err = exc_info.value
    assert (err.completed_radius, err.cap, str(err)) == (ball_exc.value.completed_radius, cap, str(ball_exc.value))
    # the completed ball fits under the same cap, also when it holds exactly cap elements
    completed = sum(len(lv) for lv in enumerate_levels(system, err.completed_radius))
    assert sum(count_multilengths(system, err.completed_radius, max_elements=cap).coeffs.values()) == completed


def test_counter_cap_fires_before_the_radius_is_walked(monkeypatch):
    # the cap is checked level by level, so a far radius costs nothing
    start = time.perf_counter()
    with pytest.raises(ResourceLimitExceeded) as exc_info:
        count_multilengths(system_of("E8"), 10**5, max_elements=100)
    assert time.perf_counter() - start < 2
    assert (exc_info.value.completed_radius, exc_info.value.cap) == (2, 100)
    # so does a radius above sys.maxsize, which itertools.islice refused with a traceback
    with pytest.raises(ResourceLimitExceeded) as exc_info:
        count_multilengths(system_of("E8"), 2**64, max_elements=100)
    assert (exc_info.value.completed_radius, exc_info.value.cap) == (2, 100)
    monkeypatch.setenv("GYOJA_MAX_ELEMENTS", "100")
    system = system_of("A1")
    with pytest.raises(ResourceLimitExceeded) as exc_info:
        counting.partial_sums_at_point(system, system.discrete_series[0], 2, radius=2**64)
    assert (exc_info.value.completed_radius, exc_info.value.cap) == (49, 100)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_finite_chain_is_the_finite_weyl_group(label):
    # the product of the finite coset sets is the finite Weyl group W_(S - {0}):
    # prod(e_i + 1) elements and one longest element, at the multilength that
    # cartan's root closure gives; a longer element would show at one more degree
    system = system_of(label)
    top = system.longest_multilength(range(1, system.num_gens))
    radius = sum(top) + 1
    places = series.places(system.m, radius)
    levels = counting._finite_levels(system, radius, [places[c] for c in system.partition.class_of])
    assert sum(sum(level.values()) for level in levels.values()) == math.prod(e + 1 for e in system.exponents)
    assert sorted(levels) == list(range(radius))
    assert levels[radius - 1] == {sum(l * p for l, p in zip(top, places)): 1}


def test_levels_cap_fires_after_the_completed_levels():
    levels = enumerate_levels(system_of("A2"), 10, max_elements=15)
    assert [len(next(levels)) for _ in range(3)] == [1, 3, 6]
    with pytest.raises(ResourceLimitExceeded) as exc_info:
        next(levels)
    err = exc_info.value
    assert (err.completed_radius, err.cap) == (2, 15)


def test_levels_reject_bad_arguments_at_the_call():
    with pytest.raises(ValueError, match="radius"):
        enumerate_levels(system_of("A2"), -1)
    with pytest.raises(ValueError, match="radius must be >= 0"):
        count_multilengths(system_of("A2"), -1)
    with pytest.raises(ValueError, match="element cap"):
        enumerate_levels(system_of("A2"), 3, max_elements=0)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("GYOJA_MAX_ELEMENTS", "5")
    with pytest.raises(ResourceLimitExceeded):
        enumerate_ball(system_of("A2"), 4)
    monkeypatch.setenv("GYOJA_MAX_ELEMENTS", "1000")
    assert enumerate_ball(system_of("A2"), 4).total == 31


@pytest.mark.parametrize("cap", [0, -5, 2.5, "10"])
def test_bad_cap_is_a_value_error(cap):
    with pytest.raises(ValueError, match="element cap"):
        enumerate_ball(system_of("A2"), 0, max_elements=cap)


@pytest.mark.parametrize("env", ["abc", "0", "-5", "1.5"])
def test_bad_cap_env_is_a_value_error(monkeypatch, env):
    monkeypatch.setenv("GYOJA_MAX_ELEMENTS", env)
    with pytest.raises(ValueError, match="GYOJA_MAX_ELEMENTS"):
        enumerate_ball(system_of("A2"), 0)


def test_jsonl_export_roundtrip():
    system = system_of("C2")
    ball = enumerate_ball(system, 3)
    buf = io.StringIO()
    written = sum(write_jsonl(ball.system, ball.levels, buf))
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert written == ball.total == len(lines)
    assert sorted({tuple(rec["geodesic"]) for rec in lines}) == sorted(
        {el.geodesic for el in ball_elements(ball)}
    )
    for rec in lines:
        assert set(rec) == {"length", "multilength", "geodesic", "matrix", "translation"}
        lin, tr = word_map(system, rec["geodesic"])
        assert lin.tolist() == rec["matrix"]
        assert tr.tolist() == rec["translation"]
        assert rec["length"] == len(rec["geodesic"])
        assert sum(rec["multilength"]) == rec["length"]


@pytest.mark.parametrize(
    "label, radius",
    [("A1", 0), ("A1", 5), ("G2", 12), ("C3", 8), ("F4", 6), ("E8", 6), ("B12", 4), ("C3", 26)],
)
def test_jsonl_export_is_byte_identical_to_per_element_reference(label, radius):
    ball = enumerate_ball(system_of(label), radius)
    if label == "E8":
        # the 2,508-element level is written in more than one chunk
        assert max(ball.counts) > weyl._EXPORT_CHUNK_ROWS
    if label == "B12":
        # geodesics of length >= 3 carry two-digit letters
        assert any(max(el.geodesic) >= 10 for el in ball_elements(ball) if el.length >= 3)
    if label == "C3" and radius == 26:
        # the 1,084-element top level spans two chunks and repeats its linear parts
        top = ball.levels[-1]
        assert len(top) > weyl._EXPORT_CHUNK_ROWS
        assert len(np.unique(top.lin.reshape(len(top), -1), axis=0)) < len(top)
    buf = io.StringIO()
    written = sum(write_jsonl(ball.system, ball.levels, buf))
    reference = "".join(
        json.dumps(element_json(el), separators=(",", ":")) + "\n" for el in ball_elements(ball)
    )
    assert written == ball.total
    assert buf.getvalue() == reference


# sha256 of the jsonl export, captured before enumeration keyed on alcove
# points: canonical order and geodesics are part of the output contract.
EXPORT_SHA256 = {
    ("C3", 12): "85efa0902546e1aff4862e9017f4df84586a8257ffbe058e7ac50f96de0417d7",
    ("F4", 8): "2768e5509ff4d73ed55a9e0266f98d7f81f190382ce138dd380f6c6d61bd81d6",
    ("E8", 5): "c17c58f6fa58e390d27860eb5928d70492c9544cb89ef3c394d52638e039dd06",
    ("G2", 30): "50f1281e1671db28f4ab1f759f11d72476b531ff695047546ccd11797f58021c",
    ("A30", 2): "29e934eacfbd31dd68c58733274cbb36111c09daedb79176965625240f19f7ae",
}


@pytest.mark.parametrize("label, radius", sorted(EXPORT_SHA256))
def test_jsonl_export_bytes_are_pinned(label, radius):
    buf = io.StringIO()
    ball = enumerate_ball(system_of(label), radius)
    write_jsonl(ball.system, ball.levels, buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == EXPORT_SHA256[label, radius]
