import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bch3 import cli, gf2m
from conftest import invariants_emptied_around

PACKAGED_GAMMA = Path(cli.__file__).parent / "data" / "gamma_q8192.txt"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestCommands:
    def test_field(self, capsys):
        code, report = run_json(capsys, "field", "--m", "5")
        assert code == 0
        assert report["command"] == "field"
        assert report["payload"] == {"m": 5, "modulus": "0x25", "q": 32}

    def test_nab_normalized(self, capsys):
        code, report = run_json(capsys, "nab", "--m", "5", "--tr-a", "0", "--b", "0x00")
        assert code == 0
        assert report["payload"]["N"] == 0  # oracle-confirmed

    def test_nab_general(self, capsys):
        code, report = run_json(capsys, "nab", "--m", "5", "--a", "0x03", "--b", "0x06")
        assert code == 0
        assert report["payload"]["N"] % 2 == 0

    def test_table_m7(self, capsys):
        code, report = run_json(capsys, "table", "--m", "7")
        assert code == 0
        assert report["payload"]["distribution"] == {
            "0": 2, "2": 28, "4": 98, "6": 84, "8": 35, "10": 7,
        }
        assert report["payload"]["normalized_by"] == 64

    def test_bounds_m11(self, capsys):
        code, report = run_json(capsys, "bounds", "--m", "11")
        assert code == 0
        assert report["payload"]["refined_even"] == [50, 120]
        assert report["payload"]["heuristic_even"] == [64, 108]

    def test_gamma_default_fixture(self, capsys):
        code, report = run_json(capsys, "gamma", "--m", "13")
        assert code == 0
        payload = report["payload"]
        assert payload["residual_nonzero"] == {"11": 1, "37": 1}
        assert payload["missing_values"] == [292, 296, 300, 386]

    def test_traces_both_classes(self, capsys):
        code, report = run_json(capsys, "traces", "--m", "5", "--b", "0x00")
        assert code == 0
        payload = report["payload"]
        assert set(payload) == {"tr_a_0", "tr_a_1"}
        for cls in (0, 1):
            profile = payload[f"tr_a_{cls}"]
            assert len(profile["n"]) == 7

    def test_split(self, capsys):
        code, report = run_json(
            capsys, "split", "--m", "5", "--b", "0x00", "--subset", "f3", "--tr-a", "1"
        )
        assert code == 0
        payload = report["payload"]
        lo, hi = payload["interval"]
        assert lo <= payload["M"] <= hi

    def test_verify_exhaustive_m5(self, capsys):
        code, report = run_json(capsys, "verify", "--m", "5", "--exhaustive")
        assert code == 0
        payload = report["payload"]
        assert payload["checked"] == 62
        assert payload["mismatches"] == []
        assert payload["boundary"] == {"0": 0, "1": 12}

    @pytest.mark.parametrize("modulus", [None, "0x211"])
    def test_verify_exhaustive_m9(self, capsys, modulus):
        argv = ["verify", "--m", "9", "--exhaustive"]
        if modulus:
            argv += ["--modulus", modulus]
        code, report = run_json(capsys, *argv)
        assert code == 0
        assert report["payload"]["checked"] == 1022
        assert report["payload"]["mismatches"] == []

    def test_verify_reports_each_mismatch(self, capsys, monkeypatch):
        # one wrong closed-form value is reported by its B, and the lam = 0
        # filler is not
        invariants = cli.coset.invariants

        def perturbed(field):
            values = invariants(field).copy()
            values[1 << 9 | 7] += 2  # class 1, lam = 7 is B = 6
            return values

        monkeypatch.setattr(cli.coset, "invariants", perturbed)
        code, report = run_json(capsys, "verify", "--m", "9")
        assert code == 1
        assert report["payload"]["checked"] == 1022
        assert report["payload"]["mismatches"] == [{"tr_a": 1, "b": "0x6"}]

    def test_verify_lists_mismatches_by_b(self, capsys, monkeypatch):
        # B = 6 and 7 are lam = 7 and 6: the list keeps B's order, not lam's
        invariants = cli.coset.invariants

        def perturbed(field):
            values = invariants(field).copy()
            values[[6, 7]] += 2  # class 0
            return values

        monkeypatch.setattr(cli.coset, "invariants", perturbed)
        code, report = run_json(capsys, "verify", "--m", "7")
        assert code == 1
        assert report["payload"]["mismatches"] == [{"tr_a": 0, "b": "0x6"}, {"tr_a": 0, "b": "0x7"}]

    def test_verify_calibrates_the_given_field(self, capsys, monkeypatch):
        seen = []
        calibrate = cli.coset.calibrate_boundary

        def spy(m, modulus=None):
            seen.append(modulus)
            return calibrate(m, modulus)

        monkeypatch.setattr(cli.coset, "calibrate_boundary", spy)
        code, report = run_json(capsys, "verify", "--m", "7", "--modulus", "0x89")
        assert code == 0
        assert seen == [0x89]
        assert report["payload"]["boundary"] == {"0": 0, "1": 12}

    def test_verify_refuses_a_slipped_boundary_point(self, capsys, monkeypatch):
        # n1' + n3' one up in calibrate_boundary's read moves t_combined by
        # -4, so the constant at lam = 1 leaves its proven value; N reads
        # the count table directly, not through _sum_rows
        rows = cli.curves._sum_rows

        def slipped(*args):
            off, n13, n5 = rows(*args)
            return off, n13 + 1, n5

        monkeypatch.setattr(cli.curves, "_sum_rows", slipped)
        message = "boundary constant in class 0 is 4, not the proven 0"
        with pytest.raises(AssertionError, match=f"^{message}$"):
            cli.coset.calibrate_boundary(7)
        assert cli.main(["verify", "--m", "7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_verify_m11_is_exhaustive(self, capsys):
        # every run compares all 2(q - 1) pairs; there is no sampled mode
        code, report = run_json(capsys, "verify", "--m", "11")
        assert code == 0
        assert report["payload"] == {
            "mode": "exhaustive",
            "checked": 4094,
            "mismatches": [],
            "boundary": {"0": 0, "1": 12},
        }

    def test_covering_radius(self, capsys):
        code, report = run_json(capsys, "covering-radius", "--m", "4")
        assert code == 0
        assert report["payload"]["rho"] == 5
        assert sum(report["payload"]["reached_at_weight"]) == 1 << 10

    def test_covering_radius_json_shape(self, capsys):
        _, report = run_json(capsys, "covering-radius", "--m", "4")
        payload = report["payload"]
        assert payload["m"] == 4 and payload["rho"] == 5
        assert payload["reached_at_weight"] == list(cli.oracle.covering_radius(4).reached_at_weight)
        assert sum(payload["reached_at_weight"][:2]) == 16

    def test_covering_radius_m8(self, capsys):
        code, report = run_json(capsys, "covering-radius", "--m", "8")
        assert code == 0
        assert report["payload"]["rho"] == 5

    def test_covering_radius_closed_form(self, capsys):
        code, report = run_json(capsys, "covering-radius", "--m", "15")
        assert code == 0
        assert report["modulus"] == "0x8003"
        layers = list(cli.coset.covering_layers(15))
        assert report["payload"] == {"m": 15, "rho": 5, "reached_at_weight": layers, "method": "closed_form"}

    def test_covering_radius_past_the_field_tables(self, capsys):
        # no field of degree 25 is built, so the envelope's modulus is null
        code, report = run_json(capsys, "covering-radius", "--m", "25")
        assert code == 0
        assert report["modulus"] is None
        assert report["payload"]["method"] == "closed_form"

    @pytest.mark.parametrize("m, method", [(6, "bfs"), (13, "closed_form")])
    def test_covering_radius_method_by_parity(self, capsys, m, method):
        # odd m take the closed form; the search stops at the largest even m, 12
        code, report = run_json(capsys, "covering-radius", "--m", str(m))
        assert code == 0
        assert report["payload"]["method"] == method


# the two trace classes of `traces --m 5 --b 0x0`, as JSON and as TSV rows
TRACES_M5_B0 = [
    '{"tr_a": 0, "b": "0x0", "lambda": "0x1", "j_invariant": "0x1", '
    '"n": [20, 20, 10, 11, 11, 11, 10], "t1": -8, "t3": 11, "t5": 9, "tg": 9, "t_combined": 33}',
    '{"tr_a": 1, "b": "0x0", "lambda": "0x1", "j_invariant": "0x1", '
    '"n": [11, 11, 21, 11, 11, 11, 21], "t1": 8, "t3": -11, "t5": 9, "tg": 9, "t_combined": 21}',
]
TRACES_M5_B0_TSV = [
    "tr_a\t0\nb\t0x0\nlambda\t0x1\nj_invariant\t0x1\nn\t20,20,10,11,11,11,10\n"
    "t1\t-8\nt3\t11\nt5\t9\ntg\t9\nt_combined\t33\n",
    "tr_a\t1\nb\t0x0\nlambda\t0x1\nj_invariant\t0x1\nn\t11,11,21,11,11,11,21\n"
    "t1\t8\nt3\t-11\nt5\t9\ntg\t9\nt_combined\t21\n",
]


POINT_FREE = {
    "table": ["table", "--m", "7"],
    "gamma": ["gamma", "--m", "13"],
    "verify": ["verify", "--m", "7"],
    "nab-tr-a": ["nab", "--m", "7", "--tr-a", "0", "--b", "0x5"],
    "nab-a": ["nab", "--m", "7", "--a", "0x3", "--b", "0x5"],
    "covering-radius": ["covering-radius", "--m", "7"],
}


class TestPointTableBuilds:
    """The table, gamma, verify, nab and covering-radius paths read n1 + n3
    and n5 only, so they never build the n1 row of curves._point_table;
    traces and split build it once per field, whatever they read."""

    @staticmethod
    def builds(capsys, argv):
        cli.curves._point_table.cache_clear()
        assert run(capsys, *argv)[0] == 0
        return cli.curves._point_table.cache_info().misses

    @pytest.mark.parametrize("argv", list(POINT_FREE.values()), ids=list(POINT_FREE))
    def test_never_built(self, capsys, argv):
        assert self.builds(capsys, argv) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["traces", "--m", "7", "--b", "0x5"],
            ["traces", "--m", "7", "--b", "0x5", "--tr-a", "1"],
            ["split", "--m", "7", "--subset", "f1f2f3", "--b", "0x5"],
        ],
        ids=["traces-both", "traces-one", "split"],
    )
    def test_built_once(self, capsys, argv):
        assert self.builds(capsys, argv) == 1


def _prefixed(prefix, rows):
    return "".join(f"{prefix}.{line}\n" for line in rows.splitlines())


class TestPayloadBytes:
    # the exact text of the payloads rendered from report fields, key order
    # and TSV flattening included; elapsed_s is masked
    CASES = {
        "traces": (
            ["traces", "--m", "5", "--b", "0x0"],
            "traces", 5, "0x25",
            f'{{"tr_a_0": {TRACES_M5_B0[0]}, "tr_a_1": {TRACES_M5_B0[1]}}}',
            _prefixed("tr_a_0", TRACES_M5_B0_TSV[0]) + _prefixed("tr_a_1", TRACES_M5_B0_TSV[1]),
        ),
        "traces-tr-a-1": (
            ["traces", "--m", "5", "--b", "0x0", "--tr-a", "1"],
            "traces", 5, "0x25",
            TRACES_M5_B0[1],
            TRACES_M5_B0_TSV[1],
        ),
        "bounds": (
            ["bounds", "--m", "11"],
            "bounds", 11, "0x805",
            '{"q": 2048, "weil": [36.125, 134.125], "refined_even": [50, 120], '
            '"heuristic_even": [64, 108]}',
            "q\t2048\nweil\t36.125,134.125\nrefined_even\t50,120\nheuristic_even\t64,108\n",
        ),
        "covering-radius": (
            ["covering-radius", "--m", "4"],
            "covering-radius", 4, "0x13",
            '{"m": 4, "rho": 5, "reached_at_weight": [1, 15, 105, 455, 420, 28], "method": "bfs"}',
            "m\t4\nrho\t5\nreached_at_weight\t1,15,105,455,420,28\nmethod\tbfs\n",
        ),
    }

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exact_text(self, capsys, case, fmt):
        argv, command, m, modulus, payload, rows = self.CASES[case]
        code, out = run(capsys, "--format", fmt, *argv)
        assert code == 0
        if fmt == "json":
            out = re.sub(r'"elapsed_s": [^,]+,', '"elapsed_s": X,', out)
            expected = (
                f'{{"command": "{command}", "m": {m}, "modulus": "{modulus}", '
                f'"elapsed_s": X, "payload": {payload}}}\n'
            )
        else:
            out = re.sub(r"\nelapsed_s\t[^\n]+\n", "\nelapsed_s\tX\n", out)
            expected = f"command\t{command}\nm\t{m}\nmodulus\t{modulus}\nelapsed_s\tX\n{rows}"
        assert out == expected


class TestHexRoundTrip:
    def test_traces_hex_fields_reparse(self, capsys):
        _, report = run_json(capsys, "traces", "--m", "5", "--b", "0x1e", "--tr-a", "0")
        payload = report["payload"]
        assert int(payload["b"], 16) == 0x1E
        lam = int(payload["lambda"], 16)
        assert lam == 0x1F
        assert int(report["modulus"], 16) == 0x25
        assert int(payload["j_invariant"], 16) < 32

    def test_modulus_flag_roundtrip(self, capsys):
        _, report = run_json(capsys, "table", "--m", "5", "--modulus", "0x29")
        assert report["modulus"] == "0x29"
        assert report["payload"]["modulus"] == "0x29"


class TestFormatsAndErrors:
    def test_tsv_table(self, capsys):
        code, out = run(capsys, "--format", "tsv", "table", "--m", "5")
        assert code == 0
        lines = out.splitlines()
        assert "N\tcount_class0\tcount_class1\tnormalized" in lines
        assert "0\t11\t16\t27" in lines
        assert '"' not in out
        assert not out.endswith("\r\n")

    def test_tsv_flat_payload(self, capsys):
        code, out = run(capsys, "--format", "tsv", "bounds", "--m", "9")
        assert code == 0
        assert "refined_even\t4,38" in out.splitlines()

    def test_tsv_null_modulus_is_an_empty_field(self, capsys):
        # no field of degree 101 fills the envelope's modulus: JSON says null
        code, out = run(capsys, "--format", "tsv", "bounds", "--m", "101")
        assert code == 0
        assert out.splitlines()[:3] == ["command\tbounds", "m\t101", "modulus\t"]
        assert "None" not in out

    def test_tsv_null_payload_value_is_an_empty_field(self, capsys):
        # f1f2f3 has no proven interval: JSON says null
        code, out = run(capsys, "--format", "tsv", "split", "--m", "5", "--b", "0x0", "--subset", "f1f2f3")
        assert code == 0
        out = re.sub(r"\nelapsed_s\t[^\n]+\n", "\nelapsed_s\tX\n", out)
        assert out == (
            "command\tsplit\nm\t5\nmodulus\t0x25\nelapsed_s\tX\n"
            "subset\tf1f2f3\ntr_a\t0\nb\t0x0\nM\t0\ninterval\t\n"
        )

    def test_domain_error_exit_one(self, capsys):
        assert cli.main(["nab", "--m", "5", "--tr-a", "0", "--b", "0x01"]) == 1
        err = capsys.readouterr().err
        assert err == "error: b=0x1 gives lam=0: the curve degenerates into twelve lines\n"

    def test_general_degenerate_pair_exit_one(self, capsys):
        # the same wording as for a normalized A, naming both inputs
        assert cli.main(["nab", "--m", "5", "--a", "0x0", "--b", "0x1"]) == 1
        err = capsys.readouterr().err
        assert err == "error: a=0x0, b=0x1 give lam=0: the curve degenerates into twelve lines\n"

    def test_even_m_exit_one(self, capsys):
        assert cli.main(["table", "--m", "6"]) == 1

    def test_split_even_m_exit_one(self, capsys):
        # Tr(1) = 0 for even m, so the split formulas do not apply
        assert cli.main(["split", "--m", "6", "--b", "0x3", "--subset", "f3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["nab", "--tr-a", "0", "--b", "0x3"],
            ["table"],
            ["verify"],
            ["bounds"],
            ["traces", "--b", "0x3"],
            ["split", "--b", "0x3", "--subset", "f3"],
            # before the elements: lam = 0, and an a outside F_2^6
            pytest.param(["nab", "--a", "0x0", "--b", "0x1"], id="nab-a-lam0"),
            pytest.param(["nab", "--a", "0x40", "--b", "0x0"], id="nab-a-non-element"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_even_m_one_error_line(self, capsys, argv):
        # one odd-degree rule behind every command, so one message
        with pytest.raises(ValueError, match="odd extension degree, got m=6") as rule:
            cli.curves.require_odd(6)
        assert cli.main([argv[0], "--m", "6", *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {rule.value}\n"

    @staticmethod
    def spy_on_oracle(monkeypatch) -> list:
        """Record the avals of every weight4_rows call, then run the real one."""
        calls, real = [], cli.oracle.weight4_rows

        def spy(field, avals):
            calls.append(tuple(avals))
            return real(field, avals)

        monkeypatch.setattr(cli.oracle, "weight4_rows", spy)
        return calls

    def test_verify_even_m_refused_before_the_oracle(self, capsys, monkeypatch):
        calls = self.spy_on_oracle(monkeypatch)
        assert cli.main(["verify", "--m", "6"]) == 1
        assert calls == []
        assert "odd extension degree, got m=6" in capsys.readouterr().err

    def test_verify_spy_control(self, capsys, monkeypatch):
        # in range the same spy sees the one enumeration, so the even-m
        # test above cannot pass by watching a function verify never calls
        calls = self.spy_on_oracle(monkeypatch)
        assert cli.main(["verify", "--m", "5"]) == 0
        assert calls == [(0, 1)]
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["nab", "--m", "31", "--tr-a", "0", "--b", "0x2"],
            ["traces", "--m", "31", "--b", "0x2"],
            ["split", "--m", "31", "--b", "0x2", "--subset", "f3"],
            ["verify", "--m", "31"],
            ["table", "--m", "31"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_huge_m_exit_one(self, capsys, monkeypatch, argv):
        # refused before the modulus search, and so before any table of
        # 2^31 entries
        def search(m):
            pytest.fail(f"modulus search reached for m={m}")

        monkeypatch.setattr(gf2m, "find_default_modulus", search)
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "too large for the per-field tables" in lines[0]
        assert "Traceback" not in captured.err

    def test_bounds_past_table_limit_has_null_modulus(self, capsys, monkeypatch):
        # bounds needs no field, and the envelope does not run the modulus
        # search past the table limit either
        def search(m):
            pytest.fail(f"modulus search reached for m={m}")

        monkeypatch.setattr(gf2m, "find_default_modulus", search)
        code, report = run_json(capsys, "bounds", "--m", "41")
        assert code == 0
        assert report["modulus"] is None
        assert report["payload"]["q"] == 1 << 41

    @pytest.mark.parametrize("m", ["-1", "1", "1029"])
    def test_bounds_out_of_range_exit_one(self, capsys, m):
        # below m = 3 there is no code to bound; from m = 1029 on the Weil
        # endpoints overflow a double
        assert cli.main(["bounds", "--m", m]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"m={m}" in lines[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("tr_a, b", [("0", "0x200"), ("1", "0x1")])
    def test_nab_refuses_b_before_any_table(self, capsys, monkeypatch, tr_a, b):
        # invariants is cached, and an earlier test may have filled it, so
        # the count table's builder is patched too
        def build(*args):
            pytest.fail("a per-field table was built before b was checked")

        monkeypatch.setattr(cli.coset, "invariants", build)
        monkeypatch.setattr(cli.curves, "_count_table", build)
        assert cli.main(["nab", "--m", "9", "--tr-a", tr_a, "--b", b]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_out_of_range_b_is_named(self, capsys):
        # b is checked itself, not through lam = b + a^2 + a + 1 = 0x46
        assert cli.main(["nab", "--m", "5", "--a", "0x3", "--b", "0x40"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 0x40 is not an element of F_2^5\n"

    def test_field_refused_past_table_limit(self, capsys):
        # refused before the modulus search: no field past the cap exists
        assert cli.main(["field", "--m", "64"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: m=64 is too large for the per-field tables (limit m <= 23)\n"

    def test_bad_modulus_exit_one(self, capsys):
        assert cli.main(["field", "--m", "5", "--modulus", "0x3f"]) == 1

    @pytest.mark.parametrize(
        "argv, flag, text",
        [
            (["nab", "--m", "5", "--tr-a", "0"], "--b", "-0x1"),
            (["nab", "--m", "5", "--b", "0x0"], "--a", "-0x3"),
            (["traces", "--m", "5"], "--b", "-0x1"),
            (["split", "--m", "5", "--subset", "f3"], "--b", "-0x2"),
            (["nab", "--m", "5", "--tr-a", "0"], "--b", "-0x0"),
            (["nab", "--m", "5", "--tr-a", "0"], "--b", "+0x4"),
            (["nab", "--m", "5", "--tr-a", "0"], "--b", "0x_4"),
            (["nab", "--m", "5", "--tr-a", "0"], "--b", " 4"),
            (["field", "--m", "5"], "--modulus", "+0x25"),
        ],
        ids=["nab-b", "nab-a", "traces-b", "split-b", "minus-zero", "plus", "underscore", "space", "plus-modulus"],
    )
    def test_negative_hex_is_a_usage_error(self, capsys, argv, flag, text):
        # an element is an optional 0x and hex digits only: int(text, 16)
        # would also take a sign, underscores and surrounding whitespace
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, f"{flag}={text}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {flag}: not a hex element: '{text}'\n")

    def test_negative_modulus_process_exits_two(self):
        # in a fresh process with a timeout: on a negative modulus the
        # polynomial remainders in is_irreducible would never end
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "bch3.cli", "field", "--m", "5", "--modulus=-0x25"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert [line.startswith("usage: ") for line in lines] == [True, False]
        assert lines[1] == "bch3 field: error: argument --modulus: not a hex element: '-0x25'"

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 2

    def test_nab_needs_exactly_one_parameterization(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["nab", "--m", "5", "--b", "0x00"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["nab", "--m", "5", "--tr-a", "0", "--a", "0x02", "--b", "0x00"])
        assert exc.value.code == 2

    def test_payloads_deterministic(self, capsys):
        _, first = run_json(capsys, "table", "--m", "7")
        _, second = run_json(capsys, "table", "--m", "7")
        first.pop("elapsed_s")
        second.pop("elapsed_s")
        assert first == second

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kwargs):
            parsers.append(parser)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        assert run(capsys, "field", "--m", "5")[0] == 0
        assert run(capsys, "covering-radius", "--m", "4")[0] == 0
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    @pytest.mark.parametrize("flag", ["--samples", "--seed"])
    def test_verify_sampling_flags_are_gone(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--m", "9", flag, "5"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("m", ["8", "17"])
    def test_verify_outside_oracle_domain_exit_one(self, capsys, monkeypatch, m):
        # even m has no closed form; m = 17 is past the oracle and must fail
        # before the count table is built.  Every read of the table goes
        # through the module attribute, cached or not, so the spy sees it.
        built = []
        count_table = cli.curves._count_table

        def spy(field):
            built.append(field.m)
            return count_table(field)

        monkeypatch.setattr(cli.curves, "_count_table", spy)
        assert cli.main(["verify", "--m", m]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in captured.err
        assert 17 not in built
        # the control: an in-range verify reads the table, and the spy sees it
        assert cli.main(["verify", "--m", "5"]) == 0
        capsys.readouterr()
        assert 5 in built

    def test_missing_gamma_file_exit_one(self, capsys, tmp_path):
        missing = tmp_path / "no-such-profile.txt"
        assert cli.main(["gamma", "--m", "13", "--gamma-file", str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(missing) in lines[0]
        assert "Traceback" not in captured.err

    def test_out_of_memory_exit_one(self, capsys, monkeypatch):
        # numpy raises a MemoryError subclass when a table does not fit
        def distribution(m, modulus=None):
            raise MemoryError("Unable to allocate 96.0 MiB for an array")

        monkeypatch.setattr(cli.coset, "distribution", distribution)
        assert cli.main(["table", "--m", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Unable to allocate 96.0 MiB for an array\n"

    def test_covering_radius_beyond_range_exit_one(self, capsys):
        # one rule for the whole command: odd m in closed form up to the
        # range of bounds, even m by the BFS up to the largest even m within
        # its table limit
        largest_even = max(m for m in range(4, cli.oracle.BFS_MAX_M + 1, 2))
        rule = f"odd 5 <= m <= {cli.coset.BOUNDS_MAX_M} and even 4 <= m <= {largest_even}"
        for m in (3, 14, 1029):
            assert cli.main(["covering-radius", "--m", str(m)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: covering-radius covers {rule}, got m={m}\n"

    def test_failed_internal_check_exit_one(self, capsys, monkeypatch):
        # the BFS group-size check fires for real: the search is asked for
        # one syndrome more than the group holds.  Even m: odd m takes the
        # closed form and runs no search
        group_order = cli.oracle._group_order
        monkeypatch.setattr(cli.oracle, "_group_order", lambda field: group_order(field) + 1)
        assert cli.main(["covering-radius", "--m", "6"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: BFS layers hold")
        assert "Traceback" not in captured.err

    def test_failed_certificate_exit_one(self, capsys, monkeypatch):
        # N = 0 at every normal-form neighbour of (0, 1, 0) at m = 7, so the
        # depth certificate finds no neighbour of depth <= 4 for it
        emptied = invariants_emptied_around(cli.coset.invariants, gf2m.make_field(7), (0, 1, 0))
        monkeypatch.setattr(cli.coset, "invariants", emptied)
        assert cli.main(["covering-radius", "--m", "7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: state (0, 0x1, 0x0) has no neighbour of depth <= 4\n"

    def test_gamma_file_with_the_packaged_profile(self, capsys, tmp_path):
        copy = tmp_path / "gamma.txt"
        copy.write_bytes(PACKAGED_GAMMA.read_bytes())
        code, default = run_json(capsys, "gamma", "--m", "13")
        assert code == 0
        code, given = run_json(capsys, "gamma", "--m", "13", "--gamma-file", str(copy))
        assert code == 0
        assert given["payload"] == default["payload"]

    def test_short_gamma_file_exit_one(self, capsys, tmp_path):
        short = tmp_path / "gamma.txt"
        short.write_text("".join(PACKAGED_GAMMA.read_text().splitlines(keepends=True)[:50]))
        assert cli.main(["gamma", "--m", "13", "--gamma-file", str(short)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expected 51 profile entries, got 50\n"

    def test_unreadable_gamma_file_exit_one(self, capsys, tmp_path):
        assert cli.main(["gamma", "--m", "13", "--gamma-file", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def _readme_commands() -> list[str]:
    """The `bch3 ...` lines of README's "Command line" block, comments cut."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [line.split("#", 1)[0].split()[1:] for line in block.splitlines() if line.startswith("bch3 ")]


class TestReadmeCommands:
    def test_block_found(self):
        assert len(_readme_commands()) == 10

    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_runs_clean(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.count("\n") == 1
        assert json.loads(out)["command"] == argv[0]
