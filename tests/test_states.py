import json
import math
import re
import warnings

import numpy as np
import pytest
from conftest import apply_local_unitary

from entmean import (
    PureState,
    make_custom,
    make_family_a,
    make_family_b,
    make_family_c,
    make_ghz,
    make_w,
    permute_parties,
)
from entmean.cli import main

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestMakeGhz:
    def test_n3_amplitudes(self):
        state = make_ghz(3)
        expected = np.zeros(8, dtype=complex)
        expected[0] = expected[7] = INV_SQRT2
        np.testing.assert_allclose(state.amplitudes, expected, atol=0)

    def test_n2_is_bell(self):
        state = make_ghz(2)
        np.testing.assert_allclose(
            state.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=0
        )

    def test_n4_normalized(self):
        assert abs(np.linalg.norm(make_ghz(4).amplitudes) - 1.0) <= 1e-12

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            make_ghz(1)

    def test_rejects_beyond_dense_cap(self):
        with pytest.raises(ValueError):
            make_ghz(15)


class TestMakeW:
    def test_n3_amplitudes(self):
        state = make_w(3)
        expected = np.zeros(8, dtype=complex)
        expected[0b100] = expected[0b010] = expected[0b001] = 1 / math.sqrt(3)
        np.testing.assert_allclose(state.amplitudes, expected, atol=0)

    def test_n2(self):
        np.testing.assert_allclose(
            make_w(2).amplitudes, [0, INV_SQRT2, INV_SQRT2, 0], atol=0
        )

    def test_n5_support(self):
        state = make_w(5)
        nonzero = np.flatnonzero(state.amplitudes)
        assert len(nonzero) == 5
        np.testing.assert_allclose(
            state.amplitudes[nonzero], np.full(5, 1 / math.sqrt(5)), atol=0
        )

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            make_w(0)


class TestFamilies:
    def test_family_a_zero_is_ghz3(self):
        np.testing.assert_allclose(
            make_family_a(0.0).amplitudes, make_ghz(3).amplitudes, atol=1e-15
        )

    def test_family_a_halfpi_factorizes(self):
        # (|100> + |111>)/sqrt2 = |1> (x) Bell on the last two qubits
        state = make_family_a(math.pi / 2)
        tensor = state.as_tensor()
        np.testing.assert_allclose(tensor[0], 0, atol=1e-15)
        bell = np.zeros((2, 2), dtype=complex)
        bell[0, 0] = bell[1, 1] = INV_SQRT2
        np.testing.assert_allclose(tensor[1], bell, atol=1e-15)

    def test_family_b_quarter_pi_is_ghz3(self):
        np.testing.assert_allclose(
            make_family_b(math.pi / 4).amplitudes,
            make_family_a(0.0).amplitudes,
            atol=1e-15,
        )

    def test_family_b_values(self):
        state = make_family_b(math.pi / 3)
        assert state.amplitudes[0] == pytest.approx(0.5, abs=1e-15)
        assert state.amplitudes[7] == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
        np.testing.assert_allclose(state.amplitudes[1:7], 0, atol=0)

    def test_family_b_zero_is_product(self):
        state = make_family_b(0.0)
        assert state.amplitudes[0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_family_c_endpoints(self):
        zero = make_family_c(0.0)
        assert np.flatnonzero(zero.amplitudes).tolist() == [0b0011]
        top = make_family_c(math.pi / 2)
        beta = 3 * math.pi / 5
        assert top.amplitudes[0b0100] == pytest.approx(math.cos(beta), abs=1e-15)
        assert top.amplitudes[0b1000] == pytest.approx(math.sin(beta), abs=1e-15)

    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4, 1.2, math.pi / 2])
    @pytest.mark.parametrize(
        "builder", [make_family_a, make_family_b, make_family_c]
    )
    def test_unit_norm(self, builder, theta):
        state = builder(theta)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12


class TestMakeCustom:
    def test_basis_state(self):
        state = make_custom([2, 2], [1, 0, 0, 0])
        assert state.dims == (2, 2)
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=0)

    def test_plus_plus(self):
        state = make_custom([2, 2], [0.5, 0.5, 0.5, 0.5])
        np.testing.assert_allclose(state.amplitudes, np.full(4, 0.5), atol=1e-15)

    def test_qutrit_bell(self):
        amps = np.zeros(9)
        amps[[0, 4, 8]] = 1 / math.sqrt(3)
        state = make_custom([3, 3], amps)
        assert state.dims == (3, 3)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-15

    def test_small_norm_drift_renormalized_exactly(self):
        amps = np.array([1.0 + 3e-10, 0, 0, 0])
        state = make_custom([2, 2], amps)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            make_custom([2, 2], [1, 0, 0])

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            make_custom([2, 2], [0, 0, 0, 0])

    def test_large_deviation_needs_flag(self):
        with pytest.raises(ValueError, match="renormalize"):
            make_custom([2], [3.0, 4.0])
        state = make_custom([2], [3.0, 4.0], renormalize=True)
        np.testing.assert_allclose(state.amplitudes, [0.6, 0.8], atol=1e-15)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            make_custom([1, 4], [1, 0, 0, 0])

    def test_rejects_two_dimensional_amplitudes(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            make_custom([2, 2], [[1, 0], [0, 0]])


class TestPureState:
    def test_amplitudes_are_write_protected(self):
        state = make_ghz(3)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.5

    def test_rejects_empty_dims(self):
        with pytest.raises(ValueError, match="at least one party"):
            PureState((), np.ones(1))

    def test_rejects_more_than_max_parties(self):
        # rejected on the dims alone, before the amplitudes are looked at
        with pytest.raises(ValueError, match="capped at 14 parties"):
            PureState((2,) * 15, np.ones(1))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            PureState((2, 2), np.ones(3) / math.sqrt(3))

    def test_integral_float_dims_accepted(self):
        for state in (
            PureState((2.0, 2), [1, 0, 0, 0]),
            make_custom([2.0, 2], [1, 0, 0, 0]),
            PureState.from_json_dict({"dims": [2.0, 2], "re": [1, 0, 0, 0]}),
        ):
            assert state.dims == (2, 2)
            assert all(type(d) is int for d in state.dims)

    def test_every_entry_path_rejects_fractional_dims(self, tmp_path, capsys):
        cases = [
            ([bad, 2], f"({shown}, 2)")
            for bad, shown in [
                (2.7, "2.7"),
                (None, "None"),
                (math.inf, "inf"),
                (math.nan, "nan"),
                ([2], "[2]"),
            ]
        ]
        # dims that are not a sequence at all
        cases += [(4, "4"), (None, "None")]
        path = tmp_path / "state.json"
        for dims, shown in cases:
            # unnormalized, so the dims must be checked before the norm
            doc = {"dims": dims, "re": [3, 0, 0, 0]}
            entries = [
                lambda: PureState(dims, [3, 0, 0, 0]),
                lambda: make_custom(dims, [3, 0, 0, 0]),
                lambda: make_custom(dims, [3, 0, 0, 0], renormalize=True),
                lambda: PureState.from_json_dict(doc),
            ]
            message = f"must be integers, got {shown}"
            for entry in entries:
                with pytest.raises(ValueError, match=re.escape(message)):
                    entry()
            path.write_text(json.dumps(doc))
            assert main(["measure", "--state-file", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err and "Traceback" not in captured.err

    def test_every_entry_path_names_a_length_mismatch(self):
        # unnormalized, so the length must be checked before the norm
        for entry in [
            lambda: PureState((2, 2), [1, 1, 1]),
            lambda: make_custom([2, 2], [1, 1, 1]),
            lambda: make_custom([2, 2], [1, 1, 1], renormalize=True),
            lambda: PureState.from_json_dict({"dims": [2, 2], "re": [1, 1, 1]}),
        ]:
            with pytest.raises(ValueError, match=r"length 4 for dims \(2, 2\), got shape \(3,\)"):
                entry()

    def test_constructor_rejects_denormalized(self):
        with pytest.raises(ValueError, match="norm"):
            PureState((2,), np.array([1.0 + 1e-6, 0]))

    def test_single_party_allowed(self):
        state = make_custom([5], [1, 0, 0, 0, 0])
        assert state.n_parties == 1
        assert state.amplitudes.shape == (5,)

    def test_json_round_trip(self):
        state = make_w(3)
        doc = json.loads(json.dumps(state.to_json_dict()))
        back = PureState.from_json_dict(doc)
        assert back.dims == state.dims
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=0)

    def test_json_im_optional(self):
        state = PureState.from_json_dict({"dims": [2], "re": [0.6, 0.8]})
        np.testing.assert_allclose(state.amplitudes, [0.6, 0.8], atol=1e-15)

    def test_json_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            PureState.from_json_dict({"dims": [2]})

    def test_json_re_im_length_mismatch(self):
        with pytest.raises(ValueError, match="re/im length mismatch"):
            PureState.from_json_dict({"dims": [2], "re": [0.6, 0.8], "im": [0.0]})

    def test_json_malformed_im(self):
        with pytest.raises(ValueError, match="missing"):
            PureState.from_json_dict({"dims": [2, 2], "re": [1, 0, 0, 0], "im": [{}, 0, 0, 0]})

    def test_json_complex_preserved(self):
        state = make_custom([2], [0.6, 0.8j])
        back = PureState.from_json_dict(state.to_json_dict())
        np.testing.assert_allclose(back.amplitudes, [0.6, 0.8j], atol=0)


class TestNonFinite:
    @pytest.mark.parametrize("re0, im0", [(math.nan, 0.0), (math.inf, 0.0), (0.0, math.nan)])
    def test_every_entry_path_rejects(self, re0, im0):
        amps = [complex(re0, im0), 0, 0, 1]
        doc = {"dims": [2, 2], "re": [re0, 0, 0, 1], "im": [im0, 0, 0, 0]}
        entries = [
            lambda: PureState((2, 2), amps),
            lambda: make_custom([2, 2], amps),
            lambda: make_custom([2, 2], amps, renormalize=True),
            lambda: PureState.from_json_dict(doc),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for entry in entries:
                with pytest.raises(ValueError, match="non-finite amplitudes"):
                    entry()


class TestTransforms:
    def test_permute_swaps_basis_labels(self):
        # |01> under the swap becomes |10>
        state = make_custom([2, 2], [0, 1, 0, 0])
        swapped = permute_parties(state, [1, 0])
        np.testing.assert_allclose(swapped.amplitudes, [0, 0, 1, 0], atol=0)

    def test_permute_mixed_dims(self):
        state = make_custom([2, 3], [0, 0, 1, 0, 0, 0])  # |0,2>
        swapped = permute_parties(state, [1, 0])  # -> |2,0> over dims (3,2)
        assert swapped.dims == (3, 2)
        assert np.flatnonzero(swapped.amplitudes).tolist() == [4]

    def test_permute_validates(self):
        with pytest.raises(ValueError):
            permute_parties(make_ghz(2), [0, 0])

    def test_local_unitary_keeps_norm(self):
        phase = np.diag([1.0, 1j])
        rotated = apply_local_unitary(make_ghz(3), 1, phase)
        assert abs(np.linalg.norm(rotated.amplitudes) - 1.0) <= 1e-12
        assert rotated.amplitudes[7] == pytest.approx(1j * INV_SQRT2)

    def test_local_nonunitary_rejected(self):
        with pytest.raises(ValueError):
            apply_local_unitary(make_ghz(2), 0, np.diag([2.0, 1.0]))
