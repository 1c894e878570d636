"""The gain and regression verdicts of tools/ab_pairs.py, its final JSON
object, and the committed BENCH_<pr>_<workload>.json files it wrote."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
_PATH = ROOT / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)
verdict = ab_pairs.verdict

PARENT = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.00]


def test_clear_gain_on_ten_pairs():
    change = [0.70 + 0.001 * i for i in range(10)]
    v = verdict(PARENT, change, "lower", 0.25)
    assert v["wins"] == 10 and v["pairs"] == 10
    assert v["gain"]
    assert v["regression"] == "none"


def test_higher_is_better_flips_the_sign():
    v = verdict(PARENT, [0.7] * 10, "higher", 0.25)
    assert v["wins"] == 0 and not v["gain"]
    assert v["regression"] == "regression"
    v = verdict(PARENT, [1.3] * 10, "higher", 0.25)
    assert v["wins"] == 10 and v["gain"]
    assert v["regression"] == "none"


def test_no_gain_below_ten_pairs():
    v = verdict(PARENT[:9], [0.7] * 9, "lower", 0.25)
    assert v["wins"] == 9 and not v["gain"]


def test_no_gain_when_the_change_fails_more_fingerprints():
    change = [0.7] * 10
    assert verdict(PARENT, change, "lower", 0.25, failed=(1, 1))["gain"]
    assert not verdict(PARENT, change, "lower", 0.25, failed=(0, 1))["gain"]


def test_no_gain_when_the_gap_is_within_the_parent_spread():
    parent = [1.0, 1.4] * 5
    change = [0.95, 1.35] * 5  # wins every pair, gap 0.05 < IQR 0.4
    v = verdict(parent, change, "lower", 0.25)
    assert v["wins"] == 10 and not v["gain"]


def test_nine_of_ten_wins_suffice_for_a_gain():
    change = [0.7] * 9 + [1.5]
    assert verdict(PARENT, change, "lower", 0.25)["gain"]
    change = [0.7] * 8 + [1.5] * 2
    assert not verdict(PARENT, change, "lower", 0.25)["gain"]


def test_regression_beyond_the_bound():
    v = verdict(PARENT, [1.3] * 10, "lower", 0.25)
    assert v["regression"] == "regression"
    assert verdict(PARENT, [1.2] * 10, "lower", 0.25)["regression"] == "none"


@pytest.mark.parametrize("wide", ["parent", "change"])
def test_spread_wider_than_the_bound_is_unresolved(wide):
    narrow = [1.0] * 10
    spread = [0.5, 1.5] * 5  # IQR 1.0 against a bound of 0.05
    parent, change = (spread, narrow) if wide == "parent" else (narrow, spread)
    assert verdict(parent, change, "lower", 0.05)["regression"] == "unresolved"


def test_wide_spread_resolved_when_every_change_run_is_better():
    parent = [2.0, 3.0] * 5
    change = [0.5, 1.5] * 5
    assert verdict(parent, change, "lower", 0.05)["regression"] == "none"
    assert verdict(change, parent, "higher", 0.05)["regression"] == "none"


HOST_KEYS = {"nproc", "cpu_model", "python", "numpy", "scipy", "blas", "threads"}
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_out_file_is_the_final_json_object(tmp_path, monkeypatch, capsys):
    sides = {}
    for side in ("parent", "change"):
        sides[side] = tmp_path / side
        (sides[side] / "perfbench").mkdir(parents=True)
        (sides[side] / "perfbench" / "run.py").write_text("")
    (sides["change"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    host = {key: None for key in HOST_KEYS}
    calls = []

    def fake_run(checkout, workload, seed):
        calls.append(Path(checkout).name)
        value = 1.0 if Path(checkout).name == "parent" else 0.8
        metrics = {m["name"]: {"value": value + 0.001 * len(calls), "unit": m["unit"]}
                   for m in END_TO_END}
        return {"correct": True, "metrics": metrics}, host

    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    monkeypatch.setattr(ab_pairs, "commit_id", lambda checkout: f"{Path(checkout).name}-id")
    out = tmp_path / "BENCH_0_h2o10_scoring.json"
    ab_pairs.main(["--parent", str(sides["parent"]), "--change", str(sides["change"]),
                   "--workload", "h2o10_scoring", "--seed", "5", "--pairs", "10",
                   "--out", str(out)])
    assert calls[:4] == ["parent", "change", "change", "parent"]
    written = json.loads(out.read_text())
    assert written == json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert written["commits"] == {"parent": "parent-id", "change": "change-id"}
    assert written["host"] == host
    assert (written["workload"], written["seed"], written["pairs"]) == ("h2o10_scoring", 5, 10)
    assert all(v["gain"] for v in written["verdicts"].values())


BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_schema_and_verdicts(path):
    """A committed claim names its workload in the file name, was measured
    on two clean commits, and holds the verdicts verdict() gives its runs."""
    name = re.fullmatch(r"BENCH_(\d+)_(\w+)\.json", path.name)
    data = json.loads(path.read_text())
    assert name and data["workload"] == name.group(2)
    assert isinstance(data["seed"], int) and data["pairs"] >= 1
    for side in ("parent", "change"):
        assert re.fullmatch(r"[0-9a-f]{40}", data["commits"][side])
        assert len(data["values"][side]) == data["pairs"]
    assert data["commits"]["parent"] != data["commits"]["change"]
    assert set(data["host"]) == HOST_KEYS
    failed = (data["failed_runs"]["parent"], data["failed_runs"]["change"])
    assert set(data["verdicts"]) == {m["name"] for m in END_TO_END}
    for m in END_TO_END:
        values = {side: [run[m["name"]] for run in data["values"][side]]
                  for side in ("parent", "change")}
        assert data["verdicts"][m["name"]] == verdict(values["parent"], values["change"],
                                                      m["better"], m["bound"], failed)


_TABLE_PATH = ROOT / "tools" / "bench_table.py"
_table_spec = importlib.util.spec_from_file_location("bench_table", _TABLE_PATH)
bench_table = importlib.util.module_from_spec(_table_spec)
_table_spec.loader.exec_module(bench_table)


def _claim(pr: int, workload: str, parent: float, change: float) -> dict:
    values = {"parent": [{m["name"]: parent for m in END_TO_END}] * 10,
              "change": [{m["name"]: change for m in END_TO_END}] * 10}
    return {"workload": workload, "seed": pr, "pairs": 10, "values": values,
            "verdicts": {m["name"]: verdict([parent] * 10, [change] * 10, m["better"], m["bound"])
                         for m in END_TO_END}}


def test_bench_table_prints_one_row_per_file_in_pr_order(tmp_path, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    for pr, workload, change in ((20, "mi_ladder", 2.0), (9, "h2o10_scoring", 0.5)):
        (tmp_path / f"BENCH_{pr}_{workload}.json").write_text(
            json.dumps(_claim(pr, workload, 1.0, change)))
    assert bench_table.main([str(tmp_path)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == bench_table.HEADER
    assert [r.split(" | ")[:4] for r in rows] == [
        ["9", "h2o10_scoring", "seed 9", "10 pairs"],
        ["20", "mi_ladder", "seed 20", "10 pairs"],
    ]
    cells = rows[0].split(" | ")[4:]
    assert len(cells) == len(END_TO_END)
    for cell, m in zip(cells, END_TO_END):
        assert cell == (f"{m['name']} 1 -> 0.5 {m['unit']}, won 10/10, gain shown, "
                        f"regression none")
    assert rows[1].split(" | ")[4].endswith("won 0/10, gain not shown, regression regression")


def test_bench_table_refuses_a_misnamed_file(tmp_path):
    (tmp_path / "BENCH_h2o10_scoring.json").write_text("{}")
    with pytest.raises(SystemExit, match="BENCH_<pr>_<workload>.json"):
        bench_table.main([str(tmp_path)])


def test_bench_table_rows_match_the_committed_files(capsys):
    assert bench_table.main([]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == len(BENCH_FILES)
    for path, text in zip(sorted(BENCH_FILES, key=lambda p: int(p.name.split("_")[1])), rows):
        data = json.loads(path.read_text())
        cells = text.split(" | ")
        assert cells[:2] == [path.name.split("_")[1], data["workload"]]
        for cell, (name, v) in zip(cells[4:], data["verdicts"].items()):
            assert cell.startswith(f"{name} {v['parent']['median']:.4g} -> "
                                   f"{v['change']['median']:.4g}")
