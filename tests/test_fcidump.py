"""FCIDUMP parsing: record dispatch, symmetry completion, error paths."""

from types import SimpleNamespace

import numpy as np
import pytest

import mivqe.fcidump
from mivqe.fcidump import MAX_ORBITALS, FcidumpError, MolecularIntegrals, parse_fcidump

from helpers import format_fcidump

HEADER = "&FCI NORB=2,NELEC=2,MS2=0,\n ORBSYM=1,1,\n ISYM=1,\n /\n"


def test_core_energy_record():
    ints = parse_fcidump(HEADER + "0.7137 0 0 0 0\n")
    assert ints.core_energy == 0.7137
    assert ints.n_orbitals == 2 and ints.n_electrons == 2 and ints.ms2 == 0


def test_one_body_record():
    ints = parse_fcidump(HEADER + "-1.25 1 1 0 0\n")
    assert ints.one_body[0, 0] == -1.25
    assert ints.one_body[1, 1] == 0.0


def test_one_body_symmetrized():
    ints = parse_fcidump(HEADER + "0.3 2 1 0 0\n")
    assert ints.one_body[1, 0] == 0.3
    assert ints.one_body[0, 1] == 0.3


def test_two_body_eightfold_completion():
    ints = parse_fcidump(HEADER + "0.66 1 2 1 2\n")
    g = ints.two_body
    filled = [
        (0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0),
        (0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0),
    ]
    for idx in filled:
        assert g[idx] == 0.66
    # everything else stays zero
    total = np.count_nonzero(g)
    assert total == len(set(filled))


def test_full_symmetry_scan_random_tensor():
    rng = np.random.default_rng(5)
    n = 3
    lines = [f"&FCI NORB={n},NELEC=2,MS2=0,\n /"]
    seen = set()
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    canon = min(
                        (i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
                        (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i),
                    )
                    if canon not in seen:
                        seen.add(canon)
                        lines.append(
                            f"{rng.normal():.12f} {canon[0]+1} {canon[1]+1} {canon[2]+1} {canon[3]+1}"
                        )
    ints = parse_fcidump("\n".join(lines))
    g = ints.two_body
    assert np.allclose(g, g.transpose(1, 0, 2, 3))
    assert np.allclose(g, g.transpose(0, 1, 3, 2))
    assert np.allclose(g, g.transpose(2, 3, 0, 1))


def test_missing_header_keys():
    with pytest.raises(FcidumpError):
        parse_fcidump("&FCI NORB=2,\n /\n0.1 0 0 0 0")
    with pytest.raises(FcidumpError):
        parse_fcidump("no header at all")
    with pytest.raises(FcidumpError):
        parse_fcidump("&FCI NORB=abc,NELEC=2,\n /\n0.1 0 0 0 0")
    with pytest.raises(FcidumpError):
        parse_fcidump(HEADER + "0.5 one 1 0 0")


# (NELEC, MS2) pairs that no determinant has: NELEC = n_alpha + n_beta and
# MS2 = n_alpha - n_beta need both counts to be non-negative integers
INCONSISTENT_SPIN = [(-2, 0), (1, -3), (2, 1), (3, 0)]


@pytest.mark.parametrize("nelec,ms2", INCONSISTENT_SPIN)
def test_header_nelec_and_ms2_must_describe_a_determinant(nelec, ms2):
    with pytest.raises(FcidumpError):
        parse_fcidump(f"&FCI NORB=3,NELEC={nelec},MS2={ms2},\n /\n0.1 0 0 0 0\n")


def test_header_open_shells_parse():
    for nelec, ms2 in ((0, 0), (1, 1), (1, -1), (3, 3), (3, -1), (6, 0)):
        ints = parse_fcidump(f"&FCI NORB=3,NELEC={nelec},MS2={ms2},\n /\n0.1 0 0 0 0\n")
        assert (ints.n_electrons, ints.ms2) == (nelec, ms2)


def test_out_of_range_indices():
    with pytest.raises(FcidumpError):
        parse_fcidump(HEADER + "0.5 3 1 0 0")
    with pytest.raises(FcidumpError):
        parse_fcidump(HEADER + "0.5 1 1 3 1")


def test_conflicting_duplicates():
    with pytest.raises(FcidumpError):
        parse_fcidump(HEADER + "0.5 1 1 0 0\n0.6 1 1 0 0")
    # agreeing duplicates are fine
    ints = parse_fcidump(HEADER + "0.5 1 1 0 0\n0.5 1 1 0 0")
    assert ints.one_body[0, 0] == 0.5


def test_round_trip_through_format():
    rng = np.random.default_rng(6)
    n = 2
    h = rng.normal(size=(n, n))
    h = 0.5 * (h + h.T)
    g = rng.normal(size=(n, n, n, n))
    for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]:
        g = 0.5 * (g + g.transpose(perm))
    # make g exactly 8-fold symmetric by averaging the full orbit
    gs = np.zeros_like(g)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    orbit = [
                        g[i, j, k, l], g[j, i, k, l], g[i, j, l, k], g[j, i, l, k],
                        g[k, l, i, j], g[l, k, i, j], g[k, l, j, i], g[l, k, j, i],
                    ]
                    gs[i, j, k, l] = np.mean(orbit)
    from mivqe.fcidump import MolecularIntegrals

    ints = MolecularIntegrals(n, 2, 0, -1.234, h, gs)
    back = parse_fcidump(format_fcidump(ints))
    assert np.allclose(back.one_body, h, atol=1e-14)
    assert np.allclose(back.two_body, gs, atol=1e-14)
    assert abs(back.core_energy - -1.234) < 1e-14


def test_norb_above_limit_rejected_before_allocation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("integral tensors allocated past the NORB limit")

    monkeypatch.setattr(mivqe.fcidump, "np", SimpleNamespace(zeros=refuse))
    with pytest.raises(FcidumpError, match=f"{MAX_ORBITALS}-orbital limit"):
        parse_fcidump("&FCI NORB=300,NELEC=2,MS2=0,\n /\n0.1 0 0 0 0\n")


def test_norb_at_limit_parses():
    ints = parse_fcidump(f"&FCI NORB={MAX_ORBITALS},NELEC=2,MS2=0,\n /\n0.1 0 0 0 0\n")
    assert ints.n_orbitals == MAX_ORBITALS
    assert ints.two_body.shape == (MAX_ORBITALS,) * 4


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
@pytest.mark.parametrize("record", ["{} 0 0 0 0", "{} 1 2 0 0", "{} 2 2 2 2"])
def test_non_finite_value_rejected(record, value):
    # abs(nan) > cutoff is False: such a record once vanished from H
    with pytest.raises(FcidumpError, match="non-finite"):
        parse_fcidump(HEADER + " 0.5 1 1 0 0\n " + record.format(value) + "\n")


def test_non_finite_value_not_overwritten_by_a_duplicate():
    # a NaN record passes the duplicate check, which compares with > tolerance
    with pytest.raises(FcidumpError, match="non-finite"):
        parse_fcidump(HEADER + " nan 1 1 0 0\n 0.5 1 1 0 0\n")


@pytest.mark.parametrize("field", ["core_energy", "one_body", "two_body"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_integrals_reject_non_finite_values(field, value):
    kwargs = dict(
        n_orbitals=2, n_electrons=2, ms2=0, core_energy=0.1,
        one_body=np.zeros((2, 2)), two_body=np.zeros((2, 2, 2, 2)),
    )
    if field == "core_energy":
        kwargs[field] = value
    else:
        kwargs[field][(0,) * kwargs[field].ndim] = value
    with pytest.raises(FcidumpError, match=f"{field} holds a non-finite value"):
        MolecularIntegrals(**kwargs)
