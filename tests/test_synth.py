"""Planted structure of the synthetic cohort: determinism, emission rules,
label thresholds, the pairwise-affinity oracle, and the note-word block
against the scalar draws it replays."""

import json

import numpy as np
import pytest

from visitrep import synth
from visitrep.atomic import write_json
from visitrep.cohort import ingest_cohort, preprocess, write_cohort_jsonl
from visitrep.errors import ValidationError
from visitrep.synth import GroundTruth, SynthConfig, generate_cohort


def small_config(**kw):
    base = dict(n_patients=60, n_conditions=4, codes_per_condition=4, seed=7)
    base.update(kw)
    return SynthConfig(**base)


class TestDeterminismAndValidity:
    def test_same_seed_same_cohort(self):
        c1, g1 = generate_cohort(small_config())
        c2, g2 = generate_cohort(small_config())
        assert c1 == c2
        assert g1.to_json() == g2.to_json()

    def test_different_seed_differs(self):
        c1, _ = generate_cohort(small_config())
        c2, _ = generate_cohort(small_config(seed=8))
        assert c1 != c2

    def test_round_trips_through_jsonl_unchanged(self, tmp_path):
        """The generated cohort satisfies every ingest-time invariant."""
        cohort, _ = generate_cohort(small_config())
        path = tmp_path / "synth.jsonl"
        write_cohort_jsonl(cohort, str(path))
        again = ingest_cohort(str(path))
        assert again == cohort

    def test_survives_standard_preprocessing(self):
        cohort, _ = generate_cohort(small_config(n_patients=120))
        out = preprocess(cohort, min_code_freq=5, min_age=18, min_visits=2)
        assert len(out) > 0

    def test_ground_truth_sidecar_round_trip(self, tmp_path):
        _, gt = generate_cohort(small_config())
        path = tmp_path / "gt.json"
        write_json(str(path), gt.to_json())
        assert json.loads(path.read_text()) == json.loads(json.dumps(gt.to_json()))

    def test_config_validation(self):
        with pytest.raises(ValidationError, match="label_noise"):
            generate_cohort(small_config(label_noise=0.6))
        with pytest.raises(ValidationError, match="ids available"):
            generate_cohort(small_config(n_conditions=40, codes_per_condition=10))


class TestEmissionRules:
    def test_chronic_codes_in_every_visit_acute_in_exactly_one(self):
        cohort, gt = generate_cohort(small_config(n_patients=80))
        owner = gt.code_condition()
        for patient in cohort:
            cids = gt.patient_conditions[patient.patient_id]
            for cid in cids:
                cond = gt.conditions[cid]
                hits = sum(
                    1
                    for v in patient.visits
                    if any(owner.get(c) == cid for c in v.codes)
                )
                if cond.chronic:
                    assert hits == len(patient.visits)
                else:
                    assert hits == 1

    def test_every_emitted_code_is_owned(self):
        cohort, gt = generate_cohort(small_config())
        owner = gt.code_condition()
        for patient in cohort:
            for v in patient.visits:
                for c in v.codes:
                    assert c in owner

    def test_notes_are_nonempty_and_condition_flavoured(self):
        cohort, gt = generate_cohort(small_config(noise_token_rate=0.0))
        for patient in cohort:
            own_tokens = {
                t for cid in gt.patient_conditions[patient.patient_id]
                for t in gt.conditions[cid].tokens
            }
            for v in patient.visits:
                assert len(v.notes) == 2
                assert any(n.kind == "discharge_summary" for n in v.notes)
                for n in v.notes:
                    assert set(n.text.split()) <= own_tokens


class TestLabels:
    def test_zero_noise_mortality_matches_threshold_exactly(self):
        cohort, gt = generate_cohort(small_config(label_noise=0.0, n_patients=100))
        for patient in cohort:
            sev = sum(
                gt.conditions[c].mortality_weight
                for c in gt.patient_conditions[patient.patient_id]
            )
            expected = sev > gt.mortality_threshold
            assert all(v.died_in_visit == expected for v in patient.visits)

    def test_noise_flips_roughly_epsilon_of_patients(self):
        eps = 0.2
        cohort, gt = generate_cohort(small_config(label_noise=eps, n_patients=400, seed=3))
        flips = 0
        for patient in cohort:
            sev = sum(
                gt.conditions[c].mortality_weight
                for c in gt.patient_conditions[patient.patient_id]
            )
            if patient.visits[0].died_in_visit != (sev > gt.mortality_threshold):
                flips += 1
        rate = flips / len(cohort)
        assert 0.1 < rate < 0.3

    def test_zero_noise_readmission_gaps_follow_threshold(self):
        cohort, gt = generate_cohort(small_config(label_noise=0.0, n_patients=100))
        from visitrep.cohort import READMISSION_WINDOW

        for patient in cohort:
            sev = sum(
                gt.conditions[c].readmission_weight
                for c in gt.patient_conditions[patient.patient_id]
            )
            expected = sev > gt.readmission_threshold
            for a, b in zip(patient.visits, patient.visits[1:]):
                gap = b.admit_time - a.discharge_time
                assert (gap <= READMISSION_WINDOW) == expected

    def test_labels_carry_information_about_conditions(self):
        """Mutual information between the mortality label and the heaviest
        condition's indicator is positive when noise < 0.5."""
        cohort, gt = generate_cohort(small_config(n_patients=400, seed=5))
        heavy = max(gt.conditions, key=lambda c: c.mortality_weight).cid
        joint = np.zeros((2, 2))
        for patient in cohort:
            x = int(heavy in gt.patient_conditions[patient.patient_id])
            y = int(patient.visits[0].died_in_visit)
            joint[x, y] += 1
        joint /= joint.sum()
        px, py = joint.sum(axis=1), joint.sum(axis=0)
        mi = 0.0
        for i in range(2):
            for j in range(2):
                if joint[i, j] > 0:
                    mi += joint[i, j] * np.log(joint[i, j] / (px[i] * py[j]))
        assert mi > 0.005


def oracle_code_affinity(gt: GroundTruth) -> tuple:
    """(codes, matrix): matrix[i, j] = 1 iff codes i and j share a condition.

    Codes are listed condition by condition in generation order, so the
    matrix is symmetric with a unit diagonal by construction.
    """
    codes = [code for cond in gt.conditions for code in cond.codes]
    owner = gt.code_condition()
    n = len(codes)
    aff = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            aff[i, j] = 1.0 if owner[tuple(codes[i])] == owner[tuple(codes[j])] else 0.0
    return codes, aff


class TestAffinityOracle:
    def test_symmetric_unit_diagonal(self):
        _, gt = generate_cohort(small_config())
        codes, aff = oracle_code_affinity(gt)
        assert len(codes) == 4 * 4
        np.testing.assert_array_equal(aff, aff.T)
        np.testing.assert_array_equal(np.diag(aff), 1.0)

    def test_blocks_match_condition_membership(self):
        _, gt = generate_cohort(small_config())
        codes, aff = oracle_code_affinity(gt)
        owner = gt.code_condition()
        for i, ci in enumerate(codes):
            for j, cj in enumerate(codes):
                assert aff[i, j] == (owner[tuple(ci)] == owner[tuple(cj)])


# Bounds at which the block replays the scalar calls (2 to 2**32, where
# 2**31 + 1 rejects about half the 32-bit halves), and two it declines.
REPLAYED_BOUNDS = (2, 12, 2**31 + 1, 2**32)
DECLINED_BOUNDS = (1, 2**32 + 1)


def twin_generators(seed, primed):
    """Two generators in the same state; `primed` leaves a 32-bit half buffered."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    if primed:
        for rng in pair:
            rng.integers(7)
    assert pair[0].bit_generator.state["has_uint32"] == primed
    return pair


class TestNoteWordBlock:
    """`_block_words` against the scalar loop it replaces, `_scalar_words`."""

    @pytest.mark.parametrize("primed", [False, True], ids=["empty-buffer", "buffered-half"])
    @pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
    def test_block_replays_the_scalar_calls_or_leaves_the_state(self, rate, primed):
        bounds = REPLAYED_BOUNDS + DECLINED_BOUNDS
        replayed = 0
        for count in range(1, 50):
            for n_noise in bounds:
                for n_template in bounds:
                    block, scalar = twin_generators(count, primed)
                    template = range(n_template)  # template[i] == i, at any length
                    entry = block.bit_generator.state
                    words = synth._block_words(block, count, rate, n_noise, template)
                    if words is None:
                        assert block.bit_generator.state == entry
                        assert n_noise in DECLINED_BOUNDS or n_template in DECLINED_BOUNDS \
                            or 2**31 + 1 in (n_noise, n_template)
                        continue
                    replayed += 1
                    assert words == synth._scalar_words(scalar, count, rate, n_noise, template)
                    assert block.bit_generator.state == scalar.bit_generator.state
        assert replayed > 49 * len(REPLAYED_BOUNDS) ** 2 // 2

    def test_a_coin_equal_to_the_rate_is_not_noise(self):
        """The coin boundary, which the other cases never hit: noise is
        `random() < rate`, strictly. Seed 11's first coin is below 1/2, so the
        next double up is not a multiple of 2**-53."""
        coin = np.random.default_rng(11).random()
        for rate, noise in ((coin, False), (np.nextafter(coin, 1.0), True)):
            block, scalar = twin_generators(11, primed=False)
            words = synth._block_words(block, 1, rate, 12, range(12))
            assert words == synth._scalar_words(scalar, 1, rate, 12, range(12))
            assert isinstance(words[0], str) == noise  # a template word is an int here

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"n_noise_tokens": 1},
            {"n_noise_tokens": 2**31 + 1},
            {"tokens_per_condition": 1, "shared_tokens": 0},
            {"note_tokens": 1},
            {"noise_token_rate": 0.0},
            {"noise_token_rate": 1.0},
        ],
        ids=["default", "one-noise-token", "half-rejected", "one-template-token",
             "one-note-token", "rate-0", "rate-1"],
    )
    def test_cohort_bytes_equal_with_the_block_off(self, tmp_path, monkeypatch, fields):
        def written(tag):
            cohort, truth = generate_cohort(SynthConfig(**fields))
            write_cohort_jsonl(cohort, str(tmp_path / f"{tag}.jsonl"))
            write_json(str(tmp_path / f"{tag}.json"), truth.to_json())
            return [(tmp_path / f"{tag}{ext}").read_bytes() for ext in (".jsonl", ".json")]

        block = written("block")
        monkeypatch.setattr(synth, "_block_words", lambda *draw: None)
        assert written("scalar") == block

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_default_config_never_takes_the_scalar_path(self, monkeypatch, seed):
        calls = []
        scalar = synth._scalar_words
        monkeypatch.setattr(synth, "_scalar_words", lambda *draw: calls.append(1) or scalar(*draw))
        generate_cohort(SynthConfig(seed=seed))
        assert calls == []
