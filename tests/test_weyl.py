import hashlib
import io
import json
from collections import Counter

import numpy as np
import pytest

from _oracles import brute_force_counts, brute_force_elements, word_multilength
from conftest import get_ball, system_of
from gyoja import weyl
from gyoja.weyl import (
    NotReducedWordError,
    ResourceLimitExceeded,
    count_multilengths,
    enumerate_ball,
    evaluate_word,
    is_reduced,
    multilength_of_word,
)


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
        el = ball.element(0, 0)
        assert el.is_identity and el.geodesic == () and not any(el.translation)


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
        for el in ball:
            if el.length > 4:
                break
            lin, tr = evaluate_word(system, el.geodesic)
            assert np.array_equal(lin, np.array(el.linear))
            assert np.array_equal(tr, np.array(el.translation))
            assert len(el.geodesic) == el.length == sum(el.multilength)


def test_multilength_matches_geodesic_letters():
    system = system_of("C3")
    for el in get_ball("C3", 4):
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
    for el in ball:
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


def test_is_reduced_examples():
    g2 = system_of("G2")
    assert is_reduced(g2, (0, 0)) is False
    assert is_reduced(g2, (0,)) is True
    assert is_reduced(g2, (0, 2, 0)) is False
    a1 = system_of("A1")
    assert is_reduced(a1, (0, 1, 0, 1, 0)) is True
    assert is_reduced(a1, (0, 1, 1, 0, 1)) is False
    with pytest.raises(ValueError):
        is_reduced(g2, (0, 7))


def test_multilength_of_word():
    g2 = system_of("G2")
    assert multilength_of_word(g2, ()) == (0, 0)
    assert multilength_of_word(g2, (0, 2)) == (1, 1)
    with pytest.raises(NotReducedWordError):
        multilength_of_word(g2, (0, 0))


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
        assert np.array_equal(weyl._coxeter_length(system, lv.lin, lv.tr), np.full(len(lv), length))


@pytest.mark.parametrize("label, radius", [("G2", 8), ("C3", 6), ("F4", 5), ("E8", 4)])
def test_descent_values_match_hyperplane_lengths(label, radius):
    # s is a left descent of w (F_s . w(D*p) < c_s) iff l(s*w) < l(w)
    system = system_of(label)
    for lv in enumerate_ball(system, radius).levels:
        points = lv.lin @ system.alcove_point + system.alcove_scale * lv.tr
        descents = points @ system.descent_normals.T < system.descent_offsets
        length = weyl._coxeter_length(system, lv.lin, lv.tr)
        for s in range(system.num_gens):
            lin = system.gen_linear[s] @ lv.lin
            tr = lv.tr @ system.gen_linear[s].T + system.gen_translation[s]
            shorter = weyl._coxeter_length(system, lin, tr) < length
            assert np.array_equal(descents[:, s], shorter), (label, s)


def test_long_word_needs_no_ball(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_ball called")

    monkeypatch.setattr(weyl, "enumerate_ball", refuse)
    e8 = system_of("E8")
    # powers of a Coxeter element of an infinite Coxeter group are reduced
    word = tuple(range(e8.num_gens)) * 5
    assert len(word) == 45
    assert is_reduced(e8, word) is True
    assert multilength_of_word(e8, word) == (45,)
    assert is_reduced(e8, word + (8,)) is False
    assert is_reduced(e8, word + (0,)) is True  # a prefix of the sixth power


@pytest.mark.parametrize("label, radius", [("A30", 2), ("A25", 3)])
def test_multi_word_keys_match_word_exhaustion_oracle(monkeypatch, label, radius):
    system = system_of(label)
    key_words = []
    pack = weyl._pack

    def recording_pack(cols):
        words = pack(cols)
        if cols.shape[1] == system.rank:  # the alcove-point keys, not the canonical rows
            key_words.append(len(words))
        return words

    monkeypatch.setattr(weyl, "_pack", recording_pack)
    ball = enumerate_ball(system, radius)
    assert max(key_words) >= 2
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


def test_resource_cap_raises_with_partial_ball(golden_counts):
    system = system_of("A2")
    golden = golden_counts["A2"]["counts"]
    with pytest.raises(ResourceLimitExceeded) as exc_info:
        enumerate_ball(system, 10, max_elements=15)
    err = exc_info.value
    # 1 + 3 + 6 = 10 <= 15 but adding length 3 (9 more) would pass the cap
    assert err.completed_radius == 2
    assert err.partial is not None
    assert list(err.partial.counts) == golden[:3]


# The pairs the key-first enumeration was compared on, at full radius.
COUNTER_CASES = [
    ("E8", 10), ("F4", 28), ("C4", 30), ("C3", 45), ("G2", 120), ("A1", 20),
    ("A9", 8), ("D8", 9), ("A15", 5), ("B12", 5), ("D14", 4), ("E7", 9),
    ("C3", 12), ("F4", 8), ("E8", 5), ("G2", 30), ("A30", 2), ("A25", 3),
]


@pytest.mark.parametrize("label, radius", [("A1", 6), ("G2", 12), ("C3", 8), ("E8", 4)])
def test_multilength_counts_match_per_element_tally(label, radius):
    ball = enumerate_ball(system_of(label), radius)
    counts = ball.multilength_counts()
    assert counts == Counter(el.multilength for el in ball)
    assert list(counts) == sorted(counts, key=lambda ml: (sum(ml), ml))  # level by level, lexicographic


@pytest.mark.parametrize("label, radius", COUNTER_CASES)
def test_counter_matches_ball_counts(label, radius):
    system = system_of(label)
    counts = count_multilengths(system, radius)
    assert list(counts.items()) == list(enumerate_ball(system, radius).multilength_counts().items())


@pytest.mark.parametrize("label,n", [("A1", 6), ("A2", 5), ("C2", 5), ("G2", 6), ("B3", 4), ("C3", 4)])
def test_counter_matches_word_exhaustion_oracle(label, n):
    system = system_of(label)
    by_length = [0] * (n + 1)
    for ml, count in count_multilengths(system, n).items():
        by_length[sum(ml)] += count
    assert tuple(by_length) == brute_force_counts(system, n)


def test_counter_a1_takes_no_step_back():
    # the infinite dihedral group: two alternating words of each length >= 1
    assert count_multilengths(system_of("A1"), 5) == {
        (0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 2, (2, 1): 1, (1, 2): 1, (2, 2): 2, (3, 2): 1, (2, 3): 1,
    }
    assert count_multilengths(system_of("A1"), 0) == {(0, 0): 1}


def test_counter_cap_matches_enumeration():
    system = system_of("A2")
    with pytest.raises(ResourceLimitExceeded) as ball_exc:
        enumerate_ball(system, 10, max_elements=15)
    with pytest.raises(ResourceLimitExceeded) as exc_info:
        count_multilengths(system, 10, max_elements=15)
    err = exc_info.value
    assert str(err) == str(ball_exc.value)
    assert (err.completed_radius, err.cap, err.partial) == (2, 15, None)
    assert sum(count_multilengths(system, 3, max_elements=1 + 3 + 6 + 9).values()) == 19


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
    written = ball.export_jsonl(buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert written == ball.total == len(lines)
    assert sorted({tuple(rec["geodesic"]) for rec in lines}) == sorted(
        {el.geodesic for el in ball}
    )
    for rec in lines:
        assert set(rec) == {"length", "multilength", "geodesic", "matrix", "translation"}
        lin, tr = evaluate_word(system, rec["geodesic"])
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
        assert any(max(el.geodesic) >= 10 for el in ball if el.length >= 3)
    if label == "C3" and radius == 26:
        # the 1,084-element top level spans two chunks and repeats its linear parts
        top = ball.levels[-1]
        assert len(top) > weyl._EXPORT_CHUNK_ROWS
        assert len(np.unique(top.lin.reshape(len(top), -1), axis=0)) < len(top)
    buf = io.StringIO()
    written = ball.export_jsonl(buf)
    reference = "".join(
        json.dumps(el.as_json_dict(), separators=(",", ":")) + "\n" for el in ball
    )
    assert written == ball.total
    assert buf.getvalue() == reference


# sha256 of Ball.export_jsonl, captured before enumeration keyed on alcove
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
    enumerate_ball(system_of(label), radius).export_jsonl(buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == EXPORT_SHA256[label, radius]
