import hashlib
import json

import numpy as np
import pytest

from pgcodes import expcode
from pgcodes.cli import main


def test_geom_info(capsys):
    assert main(["geom", "info"]) == 0
    out = capsys.readouterr().out
    assert "points: 63" in out
    assert "hyperplanes: 63" in out
    assert "planes: 1395" in out
    assert "hyperplanes per point: 31" in out
    assert "tanner edges: 1953" in out


def test_geom_info_dvd_dimension(capsys):
    assert main(["geom", "info", "--d", "8"]) == 0
    out = capsys.readouterr().out
    assert "points: 511" in out
    assert "tanner edges: 130305" in out


def test_graph_spectrum(capsys):
    assert main(["graph", "spectrum"]) == 0
    out = capsys.readouterr().out
    assert "16*I + 15*J" in out
    assert "second eigenvalue: 4" in out


def test_graph_export(tmp_path, capsys):
    out_file = tmp_path / "edges.txt"
    assert main(["graph", "export", "--out", str(out_file)]) == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 1953
    assert lines[0].split()[0] == "1"
    assert lines[-1].split()[0] == "1953"


def test_bounds_table_text(capsys):
    assert main(["bounds", "table"]) == 0
    out = capsys.readouterr().out
    row9 = next(line for line in out.splitlines() if line.strip().startswith("9"))
    assert "0.74" in row9 and "0.48" in row9 and "24" in row9
    assert "--" in row9
    row13 = next(line for line in out.splitlines() if line.strip().startswith("13"))
    assert "42" in row13


def test_bounds_table_jsonl(capsys):
    assert main(["bounds", "table", "--format", "jsonl"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 7
    by_eps = {r["epsilon"]: r for r in rows}
    assert by_eps[15]["guaranteed_errors"] == 87
    assert by_eps[15]["zemor_bound"] == 65
    assert by_eps[3]["zemor_bound"] is None


def test_bounds_search(capsys):
    assert main(["bounds", "search", "--p", "3", "--delta", "3", "--format", "jsonl"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "found"
    assert len(payload["points"]) == 3


def test_bounds_search_invalid(capsys):
    assert main(["bounds", "search", "--p", "2", "--delta", "3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_sim_random_jsonl(capsys):
    rc = main(
        ["sim", "random", "--epsilon", "5", "--weight", "8", "--rounds", "5", "--seed", "4"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures_pct"] == 0.0
    assert payload["model"] == "random"


def test_sim_burst_text(capsys):
    rc = main(
        [
            "sim", "burst", "--epsilon", "5", "--weight", "63",
            "--rounds", "5", "--seed", "4", "--format", "text",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "fail%" in out


def test_sim_interleaved(capsys):
    rc = main(
        [
            "sim", "interleaved", "--epsilon", "5", "--weight", "126",
            "--rounds", "3", "--seed", "4", "--k", "2",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures_pct"] == 0.0


def test_sim_rejects_bad_weight(capsys):
    assert main(["sim", "burst", "--epsilon", "5", "--weight", "2000", "--rounds", "2"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "-2"])
def test_sim_interleaved_rejects_k_below_one(capsys, k):
    argv = ["sim", "interleaved", "--epsilon", "5", "--weight", "0", "--rounds", "2", "--k", k]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need k >= 1\n"


def test_plant_text(capsys):
    assert main(["plant", "--epsilon", "5", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    for line in lines:
        label, value = line.split()
        assert 1 <= int(label) <= 1953
        assert 1 <= int(value, 16) <= 255


def test_plant_jsonl(capsys):
    assert main(["plant", "--epsilon", "7", "--seed", "3", "--format", "jsonl"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 16


def test_plant_bad_plane(capsys):
    assert main(["plant", "--epsilon", "5", "--plane-id", "9999"]) == 1
    assert "error:" in capsys.readouterr().err


def test_code_build_encode_decode_round_trip(tmp_path, capsys):
    assert main(["code", "build", "--epsilon", "3"]) == 0
    out = capsys.readouterr().out
    dim = int(next(l for l in out.splitlines() if l.startswith("dimension")).split()[-1])
    rank = int(next(l for l in out.splitlines() if l.startswith("rank")).split()[-1])
    assert dim == 1953 - rank

    rng = np.random.default_rng(1)
    msg = rng.integers(0, 256, size=dim, dtype=np.uint8)
    msg_file = tmp_path / "msg.hex"
    msg_file.write_text(expcode.word_to_hex(msg) + "\n")
    cw_file = tmp_path / "cw.hex"
    assert main(["code", "encode", "--epsilon", "3", "--in", str(msg_file), "--out", str(cw_file)]) == 0
    capsys.readouterr()

    word = expcode.word_from_hex(cw_file.read_text().splitlines()[0], 1953)
    word[100] ^= 0x42  # single error
    rx_file = tmp_path / "rx.hex"
    rx_file.write_text(expcode.word_to_hex(word) + "\n")
    fixed_file = tmp_path / "fixed.hex"
    rc = main(
        ["code", "decode", "--epsilon", "3", "--in", str(rx_file), "--out", str(fixed_file)]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out.splitlines()[0])
    assert report["success"] is True
    fixed = expcode.word_from_hex(fixed_file.read_text().splitlines()[0], 1953)
    word[100] ^= 0x42
    assert np.array_equal(fixed, word)


def test_env_var_overrides_default_seed(capsys, monkeypatch):
    argv = ["sim", "random", "--epsilon", "5", "--weight", "8", "--rounds", "3"]
    monkeypatch.setenv("PGCODES_SEED", "777")
    assert main(argv) == 0
    from_env = json.loads(capsys.readouterr().out)
    assert from_env["seed"] == 777
    monkeypatch.delenv("PGCODES_SEED")
    assert main(argv + ["--seed", "777"]) == 0
    explicit = json.loads(capsys.readouterr().out)
    assert explicit == from_env


def test_code_decode_with_erasure_file(tmp_path, capsys):
    import pgcodes.expcode as ex
    from pgcodes.expcode import CodeSpec, encode

    spec = CodeSpec(3)
    rng = np.random.default_rng(5)
    msg = rng.integers(0, 256, size=spec.k_overall, dtype=np.uint8)
    cw = encode(spec, msg)
    word = cw.copy()
    erased = [10, 500, 1900]
    for lab in erased:
        word[lab - 1] ^= 0x77
    rx = tmp_path / "rx.hex"
    rx.write_text(ex.word_to_hex(word) + "\n")
    er = tmp_path / "erasures.txt"
    er.write_text("".join(f"{lab}\n" for lab in erased))
    assert main(
        ["code", "decode", "--epsilon", "3", "--in", str(rx), "--erasures", str(er)]
    ) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[0])
    assert report["success"] is True
    assert report["final_word"] == ex.word_to_hex(cw)


def test_code_decode_empty_input_prints_nothing(tmp_path, capsys):
    rx = tmp_path / "rx.hex"
    rx.write_text("\n")
    out_file = tmp_path / "out.hex"
    argv = ["code", "decode", "--epsilon", "3", "--in", str(rx), "--out", str(out_file)]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    assert out_file.read_text() == ""


def test_code_decode_malformed_line_prints_nothing(tmp_path, capsys):
    good = expcode.word_to_hex(np.zeros(1953, dtype=np.uint8))
    rx = tmp_path / "rx.hex"
    rx.write_text(good + "\n" + good[:-2] + "\n")
    assert main(["code", "decode", "--epsilon", "3", "--in", str(rx)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_rs_encode_decode_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(7)
    msg = rng.integers(0, 256, size=25, dtype=np.uint8)
    msg_file = tmp_path / "m.hex"
    msg_file.write_text(expcode.word_to_hex(msg) + "\n")
    cw_file = tmp_path / "c.hex"
    assert main(["rs", "encode", "--epsilon", "7", "--in", str(msg_file), "--out", str(cw_file)]) == 0
    capsys.readouterr()

    word = expcode.word_from_hex(cw_file.read_text().splitlines()[0], 31)
    word[3] ^= 0x5A
    word[17] ^= 0x21
    rx = tmp_path / "r.hex"
    rx.write_text(expcode.word_to_hex(word) + "\n")
    assert main(["rs", "decode", "--epsilon", "7", "--in", str(rx)]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[0])
    assert payload["status"] == "corrected"
    assert payload["errors_corrected"] == 2
    word[3] ^= 0x5A
    word[17] ^= 0x21
    assert payload["word"] == expcode.word_to_hex(word)


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["geom", "info", "--bogus"])
    assert exc.value.code != 0


SIM_STDOUT = [
    (
        ["sim", "random", "--epsilon", "5", "--weight", "180", "--rounds", "6", "--seed", "777"],
        '{"epsilon": 5, "model": "random", "weight": 180, "rounds": 6, "seed": 777, '
        '"failures_pct": 33.333333333333336, "avg_iterations": 3.75, "miscorrections": 0}\n',
    ),
    (
        [
            "sim", "burst", "--epsilon", "5", "--weight", "135",
            "--rounds", "8", "--seed", "42", "--format", "text",
        ],
        "epsilon    model weight rounds    fail%  avg_iters miscor\n"
        "      5    burst    135      8     75.0       3.50      0\n",
    ),
    (
        [
            "sim", "interleaved", "--epsilon", "5", "--weight", "270",
            "--rounds", "4", "--seed", "9", "--k", "2",
        ],
        '{"epsilon": 5, "model": "burst", "weight": 270, "rounds": 4, "seed": 9, '
        '"failures_pct": 25.0, "avg_iterations": 3.3333333333333335, "miscorrections": 0}\n',
    ),
]


@pytest.mark.parametrize("argv, expected", SIM_STDOUT)
def test_sim_stdout_pinned(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_code_decode_erasures_stdout_pinned(tmp_path, capsys):
    # Three words on the zero codeword: light errors, errors past the
    # decoder's cliff, and light errors again, with a blank line skipped.
    rng = np.random.default_rng(11)
    lines = []
    for weight in (40, 200, 60):
        word = np.zeros(1953, dtype=np.uint8)
        pos = rng.choice(1953, size=weight, replace=False)
        word[pos] = rng.integers(1, 256, size=weight, dtype=np.uint8)
        lines.append(expcode.word_to_hex(word))
    rx = tmp_path / "rx.hex"
    rx.write_text(lines[0] + "\n\n" + lines[1] + "\n" + lines[2] + "\n")
    er = tmp_path / "erasures.txt"
    er.write_text("".join(f"{lab}\n" for lab in (5, 64, 700, 1900)) + "\n")
    out_file = tmp_path / "out.hex"
    argv = ["code", "decode", "--epsilon", "5", "--in", str(rx), "--erasures", str(er)]
    assert main(argv + ["--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert [json.loads(line)["success"] for line in out.splitlines()] == [True, False, True]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "42f2718a9f17f458fc0b8104cf6513a366a158433ab96f4716fae0f3c6a7a1de"
    )
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
        "0f72ca658e2d1bff3088ac9d7177c12c0a95861bae3813841955def9dc288382"
    )
