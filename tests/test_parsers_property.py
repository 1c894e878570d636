"""Property tests for the text parsers: any input parses or raises the
parser's typed error, never another exception.

Generated sizes stay small: qubits headers up to 70 and NORB up to 40, so no
example allocates more than a few megabytes (a parser never builds a 2^n
table, parse_fcidump rejects NORB above fcidump.MAX_ORBITALS = 32 before its
NORB^4 tensors exist, and even a broken limit would allocate 40^4 floats).
"""

import re

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mivqe.config import ConfigError, RunConfig, parse_config, parse_reference
from mivqe.fcidump import MAX_ORBITALS, FcidumpError, parse_fcidump
from mivqe.pauli import PauliError, parse_pauli_sum
from mivqe.reference import MIMatrix, ReferenceError
from mivqe.screening import ScreeningError

from helpers import pool_from_text

PROPERTY = settings(
    max_examples=100,
    deadline=500,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

small_int = st.integers(-2, 12).map(str)
number = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 3).map(str),
)
junk = st.text(alphabet=" ,=:#-.eE0123456789XYZIxyzab", max_size=12)


def lines_of(*line_strategies):
    return st.lists(st.one_of(*line_strategies, junk), max_size=8).map("\n".join)


factor = st.builds(lambda p, q: f"{p}{q}", st.sampled_from("XYZIxyzW"), small_int)
factors = st.lists(factor, max_size=4).map(" ".join)
# up to 70 qubits: past the 64-bit pool masks, still no 2^n allocation
qubits_header = st.builds(
    lambda v: f"qubits: {v}", st.one_of(small_int, st.integers(60, 70).map(str), junk)
)

pauli_text = st.one_of(
    st.text(max_size=200),
    lines_of(qubits_header, st.builds(lambda c, f: f"{c} {f}", number, factors)),
)
pool_text = st.one_of(st.text(max_size=200), lines_of(qubits_header, factors))


@PROPERTY
@given(pauli_text)
def test_parse_pauli_sum_parses_or_raises_pauli_error(text):
    try:
        parse_pauli_sum(text)
    except PauliError:
        pass


@PROPERTY
@given(pool_text)
def test_pool_from_text_parses_or_raises_typed_error(text):
    # words are read by the Pauli parser, whose error passes through
    try:
        pool_from_text(text)
    except (ScreeningError, PauliError):
        pass


csv_row = st.lists(st.one_of(number, junk), max_size=5).map(",".join)
mi_csv = st.one_of(
    st.text(max_size=200),
    st.builds(
        lambda n, rows: ",".join(["qubit", *map(str, range(n))]) + "\n" + "\n".join(rows),
        st.integers(0, 4),
        st.lists(csv_row, max_size=5),
    ),
)


@PROPERTY
@given(mi_csv)
def test_mi_csv_parses_or_raises_reference_error(text):
    try:
        MIMatrix.from_csv(text)
    except ReferenceError:
        pass


reference_text = st.one_of(
    st.text(max_size=40),
    st.builds(lambda body: f"mps:{body}", junk),
    st.builds(lambda a, b: f"mps:chi={a},sweeps={b}", small_int, st.one_of(small_int, junk)),
    st.builds(lambda p: f"mi:{p}", junk),
)

config_keys = st.sampled_from([
    "fcidump", "pauli_sum", "mapping", "grouping", "reference", "p_cut", "seed",
    "descent_fraction", "max_steps", "reduce_stationary", "spin_penalty", "convergence_tol",
    "nope",
])
config_text = st.one_of(
    st.text(max_size=200),
    lines_of(st.builds(lambda k, v: f"{k} = {v}", config_keys,
                       st.one_of(number, small_int, junk, reference_text))),
)


unit_interval = st.floats(0.0, 1.0, exclude_min=True)


@PROPERTY
@given(
    p_cut=st.one_of(st.none(), unit_interval),
    descent_fraction=unit_interval,
    spin_penalty=st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
    convergence_tol=st.floats(0.0, exclude_min=True, allow_infinity=False),
)
def test_config_text_round_trips_every_float(**floats):
    # sweep rebuilds each run's config from this text, so it must give back
    # the very same floats; a float that 12 digits hold keeps the 12-digit
    # text that earlier manifests echo
    cfg = RunConfig(fcidump="x.fcidump", **floats)
    text = cfg.to_text()
    assert parse_config(text) == cfg
    for key, value in floats.items():
        if value is not None and float(f"{value:.12g}") == value:
            assert f"\n{key} = {value:.12g}\n" in text


@PROPERTY
@given(reference_text)
def test_parse_reference_parses_or_raises_config_error(text):
    try:
        parse_reference(text)
    except ConfigError:
        pass


@PROPERTY
@given(config_text)
def test_parse_config_parses_or_raises_config_error(text):
    try:
        parse_config(text)
    except ConfigError:
        pass


index = st.integers(-1, 7).map(str)
record = st.builds(lambda v, i, j, k, l: f"{v} {i} {j} {k} {l}", number, index, index, index, index)
header_value = st.one_of(st.integers(-2, 6).map(str), junk)
norb_value = st.one_of(header_value, st.integers(MAX_ORBITALS - 2, 40).map(str))
fcidump_text = st.one_of(
    st.text(max_size=200),
    st.builds(
        lambda norb, nelec, ms2, records: (
            f"&FCI NORB={norb},NELEC={nelec},MS2={ms2},\n /\n" + "\n".join(records)
        ),
        norb_value,
        header_value,
        header_value,
        st.lists(st.one_of(record, junk), max_size=10),
    ),
)


@PROPERTY
@given(fcidump_text)
def test_parse_fcidump_parses_or_raises_fcidump_error(text):
    # NORB past the limit must raise; none above 40 is generated, so a broken
    # limit would still allocate at most 40^4 floats
    assume(all(int(v) <= 40 for v in re.findall(r"NORB\s*=\s*([0-9]+)", text, re.I)))
    try:
        ints = parse_fcidump(text)
    except FcidumpError:
        return
    assert ints.n_orbitals <= MAX_ORBITALS


@pytest.mark.parametrize("text", [
    "qubit,0,1\n0,0,0.5\n1,0.5",  # short row, once broadcast over the row
    "qubit,0,1\n0,0,0\n-1,0,0",  # negative index, once wrapped to the last row
    "qubit,0,1\n0,0,0\n0,0,0",  # qubit 1 missing, qubit 0 twice
])
def test_mi_csv_rejects_rows_it_used_to_misread(text):
    with pytest.raises(ReferenceError):
        MIMatrix.from_csv(text)


def test_pool_text_beyond_mask_width_raises_screening_error():
    with pytest.raises(ScreeningError):
        pool_from_text("qubits: 70\nY65")
