"""Config parsing, the run/demo/costs verbs, report formats, determinism."""

import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import qtss
from broken_schemes import Leaky
from qtss import cli, protocol
from qtss.cli import (
    ALL_MODES,
    ConfigError,
    demo,
    emit_cost_table,
    main,
    ScenarioConfig,
    parse_config,
    run,
)
from qtss.gf import FieldMatrix
from qtss.qsim import SparseState
from qtss.staircase import make_params

SMALL_CONFIG = """
# smallest scheme, everything on
params = 2,3,5
modes = encode, recover-d, recover-k, secrecy, costs, mixed
secrets = basis-exhaustive
seed = 7
"""

CONFIG_KEYS = (
    "params", "modes", "secrets", "seed", "output", "format", "cap_branches", "cap_dim",
    "PARAMS", "bogus", "",
)
CONFIG_VALUES = (
    "2,2,5", "2,3,5; 3,4,7", "2,2,65537", "3,4,5", "-1,0,2", "1,1,2", "2,2,4",
    "costs", "encode, secrecy", "fly", "random:3", "random:0", "random:x",
    "basis-exhaustive", "json", "csv", "0", "-1", "7", "1e3",
)


class TestParseConfig:
    def test_full_grammar(self):
        cfg = parse_config(
            """
            params = 2,3,5; 3,4,7   # two schemes
            modes = costs secrecy
            secrets = random:5
            seed = 9
            output = out/report.json
            format = csv
            cap_branches = 1000
            cap_dim = 128
            """
        )
        assert cfg.params == ((2, 3, 5), (3, 4, 7))
        assert cfg.modes == ("costs", "secrecy")
        assert cfg.random_count == 5
        assert cfg.seed == 9
        assert cfg.output == "out/report.json"
        assert cfg.format == "csv"
        assert cfg.cap_branches == 1000
        assert cfg.cap_dim == 128

    def test_defaults(self):
        cfg = parse_config("params = 2,2,5")
        assert cfg.modes == ALL_MODES
        assert cfg.seed == 0
        assert cfg.format == "json"

    def test_missing_params(self):
        with pytest.raises(ConfigError, match="params"):
            parse_config("seed = 3")

    def test_invalid_scheme(self):
        # q = 5 is not above n = 5.
        with pytest.raises(ConfigError, match="invalid params"):
            parse_config("params = 3,4,5")

    def test_bad_triple(self):
        with pytest.raises(ConfigError, match="triple"):
            parse_config("params = 2,3")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config("params = 2,2,5\nbogus = 1")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="unknown modes"):
            parse_config("params = 2,2,5\nmodes = fly")

    def test_bad_secrets(self):
        with pytest.raises(ConfigError, match="secrets"):
            parse_config("params = 2,2,5\nsecrets = all")
        with pytest.raises(ConfigError, match="count"):
            parse_config("params = 2,2,5\nsecrets = random:0")

    @pytest.mark.parametrize("modes", ["secrecy", "mixed", "encode, secrecy, mixed"])
    def test_one_secret_cannot_be_paired(self, modes):
        # One secret would be compared with itself: a trace distance of 0
        # that passes even for a dealer that leaks.
        with pytest.raises(ConfigError, match="compare secrets in pairs; 'random:1' draws one"):
            parse_config(f"params = 2,3,5\nmodes = {modes}\nsecrets = random:1")
        assert parse_config(f"params = 2,3,5\nmodes = {modes}\nsecrets = random:2").random_count == 2
        assert parse_config("params = 2,3,5\nmodes = encode, recover-k\nsecrets = random:1").random_count == 1

    def test_bad_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("params = 2,2,5\nnonsense here")

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"seed": 1.5}, "seed must be an int, got 1.5"),
            ({"seed": True}, "seed must be an int, got True"),
            ({"cap_branches": 10.0}, "cap_branches must be an int, got 10.0"),
            ({"cap_dim": 25.5}, "cap_dim must be an int, got 25.5"),
            ({"params": ("2,3,5",)}, "params entry '2,3,5' is not three ints"),
            ({"params": ((2, 3, 5.0),)}, "params entry (2, 3, 5.0) is not three ints"),
            ({"params": ((2, 3),)}, "params entry (2, 3) is not three ints"),
            ({"params": ((True, 3, 5),)}, "params entry (True, 3, 5) is not three ints"),
        ],
        ids=["float-seed", "bool-seed", "float-cap-branches", "float-cap-dim", "text-params", "float-q", "pair", "bool-k"],
    )
    def test_field_types_checked_at_construction(self, change, message):
        # parse_config converts every value; a config built directly is
        # checked here, before a sweep could fail midway or report a float.
        ScenarioConfig(params=((2, 3, 5),), modes=("recover-d",))
        with pytest.raises(ConfigError, match=re.escape(message)):
            ScenarioConfig(**{"params": ((2, 3, 5),), "modes": ("recover-d",), **change})

    @settings(max_examples=300, deadline=None)
    @given(
        text=hst.one_of(
            hst.text(),
            hst.lists(
                hst.tuples(
                    hst.sampled_from(CONFIG_KEYS),
                    hst.one_of(
                        hst.text(alphabet=" ,;:-0123456789", max_size=20),
                        hst.sampled_from(CONFIG_VALUES),
                        hst.text(max_size=10),
                    ),
                ),
                max_size=6,
            ).map(lambda pairs: "\n".join(f"{k} = {v}" for k, v in pairs)),
        )
    )
    def test_any_text_parses_or_raises_config_error(self, text):
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        assert isinstance(cfg, ScenarioConfig)


class TestRun:
    def test_smallest_scheme_all_pass(self):
        report = run(parse_config(SMALL_CONFIG))
        assert report.overall_pass
        by_mode = {r.mode: r for r in report.records}
        assert set(by_mode) == set(ALL_MODES)
        assert by_mode["recover-d"].qudit_cost == 3
        assert by_mode["recover-d"].optimal is True
        assert by_mode["recover-k"].qudit_cost == 4
        assert by_mode["recover-d"].min_fidelity >= 1 - 1e-10
        assert by_mode["secrecy"].max_trace_distance <= 1e-10
        assert by_mode["secrecy"].subsets_tested == 3

    def test_degenerate_single_recovery_mode(self):
        report = run(parse_config("params = 2,2,5\nsecrets = basis-exhaustive"))
        modes = [r.mode for r in report.records]
        assert "recover-d" not in modes  # coincides with recover-k when d = k
        rec_k = [r for r in report.records if r.mode == "recover-k"][0]
        assert "d = k" in rec_k.detail
        assert rec_k.qudit_cost == 2

    @pytest.mark.parametrize(
        "triple, mode",
        [((2, 3, 5), "recover-k"), ((2, 3, 5), "recover-d"), ((2, 2, 5), "recover-d"), ((3, 5, 7), "recover-k")],
    )
    def test_recovery_cost_fields_from_cost_table(self, triple, mode):
        # recover-d alone at d = k has no row of its own; the k row is its row.
        params = ",".join(map(str, triple))
        rec = run(parse_config(f"params = {params}\nmodes = {mode}\nsecrets = random:1")).records[0]
        participants = triple[1] if mode == "recover-d" else triple[0]
        row = next(r for r in protocol.cost_table(make_params(*triple)) if r.participants == participants)
        assert (rec.qudit_cost, rec.channel_dim) == (row.qudits, row.channel_dim)
        if mode == "recover-d":
            assert (rec.bound_dim, rec.optimal) == (row.bound_dim, row.optimal) and rec.optimal
        else:
            assert rec.bound_dim is None and rec.optimal is None

    def test_label_widths_config_all_pass(self):
        # The config that CI also runs with the bare install: one scheme per
        # label width (byte sums, 16-bit sums of byte labels, uint16 labels).
        report = run(cli.load_config(Path(__file__).parent / "golden" / "label_widths.cfg"))
        assert report.overall_pass
        assert [r.q for r in report.records] == [127] * 3 + [131] * 3 + [251] * 3 + [257] * 3
        assert all(r.status == "pass" for r in report.records)

    def test_report_config_matches_golden(self):
        # The benchmark's report workload: every recovery session of six
        # schemes on every basis secret, byte for byte.
        golden = Path(__file__).parent / "golden"
        report = run(parse_config((golden / "report.cfg").read_text()))
        assert report.to_json_bytes() == (golden / "report.json").read_bytes()

    def test_secrecy_config_matches_golden(self):
        # The secrecy workload's schemes: every unauthorized set within the
        # dimension cap, alone and in the mixed scheme, byte for byte.
        golden = Path(__file__).parent / "golden"
        report = run(parse_config((golden / "secrecy.cfg").read_text()))
        assert report.to_json_bytes() == (golden / "secrecy.json").read_bytes()

    def test_encode_cross_check_catches_a_leaky_dealer(self):
        # The dealer deals Leaky's G, the classical encoding is the staircase's.
        p = Leaky(2, 3, 5)
        rec = cli.RunRecord(k=p.k, n=p.n, d=p.d, q=p.q, m=p.m, mode="encode")
        cli._run_encode(parse_config("params = 2,3,5\nmodes = encode\nsecrets = random:2"), p, rec)
        assert rec.status == "fail"
        assert rec.detail == "dealt branches disagree with codeword enumeration"

    def test_cap_exceeded_reported_not_failed(self):
        cfg = parse_config("params = 3,4,7\nmodes = recover-k\nsecrets = random:1\ncap_branches = 100")
        report = run(cfg)
        assert report.records[0].status == "cap-exceeded"
        assert report.overall_pass  # caps are environment limits, not failures

    def test_cost_figure_too_long_is_cap_exceeded(self):
        report = run(parse_config("params = 80,159,65521\nmodes = costs"))
        (rec,) = report.records
        assert rec.status == "cap-exceeded" and report.overall_pass
        assert rec.detail == "cost figure 65521**6400 has 30825 digits, over 4300"

    def test_basis_sweep_over_cap_names_the_sweep_total(self):
        # 1771561 branches per basis secret fit the cap; 121 of them do not.
        cfg = parse_config("params = 4,5,11\nmodes = encode, secrecy\nsecrets = basis-exhaustive")
        records = run(cfg).records
        assert [r.status for r in records] == ["cap-exceeded"] * 2
        for rec in records:
            assert rec.detail == (
                "branch count 214358881 (121 secret labels x 1771561 per basis secret) "
                "exceeds cap 10000000"
            )

    def test_capped_recovery_tests_no_subsets(self):
        # The 343-dimensional secret block of (3,5,7) is over cap_dim = 49 in
        # the first session, so no session is checked.
        cfg = parse_config("params = 3,5,7\nmodes = recover-d\nsecrets = random:3\ncap_dim = 49")
        (rec,) = run(cfg).records
        assert rec.status == "cap-exceeded" and rec.subsets_tested == 0

    def test_dim_cap_config_all_pass_or_capped(self):
        # The config that CI also runs with the bare install: cap_dim = 49
        # skips subsets of (3,4,7) and caps every (3,5,7) record.
        report = run(cli.load_config(Path(__file__).parent / "golden" / "dim_cap.cfg"))
        assert report.overall_pass
        status = {(r.k, r.d, r.q, r.mode): r.status for r in report.records}
        assert {key for key, s in status.items() if s != "pass"} == {
            (3, 5, 7, mode) for mode in ("secrecy", "mixed", "recover-d")
        }
        secrecy = next(r for r in report.records if (r.d, r.mode) == (4, "secrecy"))
        assert (secrecy.subsets_tested, secrecy.metrics["subsets_over_dim_cap"]) == (5, 10)

    def test_secrecy_dim_cap(self):
        cfg = parse_config("params = 2,3,5\nmodes = secrecy\nsecrets = random:2\ncap_dim = 4")
        report = run(cfg)
        assert report.records[0].status == "cap-exceeded"

    def test_mixed_reports_subsets_over_dim_cap(self):
        # Every (3,4,7) pair of shares has dimension 2401: secrecy skips its
        # 10 pairs of all 7 shares, mixed the 6 pairs of its 4 retained ones.
        cfg = parse_config(
            "params = 3,4,7\nmodes = secrecy, mixed\nsecrets = random:2\nseed = 5\ncap_dim = 100"
        )
        secrecy, mixed = run(cfg).records
        assert secrecy.metrics["subsets_over_dim_cap"] == 10
        assert mixed.metrics["subsets_over_dim_cap"] == 6
        assert mixed.status == "pass" and mixed.metrics["retained_shares"] == 4

    def test_mixed_recovers_each_set_once(self, monkeypatch):
        # d = k: the d-share procedure is the k-share one, so mixed sweeps
        # recover-k alone.  subsets_tested counts the one k-set of the two
        # retained shares and their two single-share secrecy sets.
        calls = []
        honest = cli.recovery_session

        def counted(p, mode, subset):
            calls.append((mode, subset))
            return honest(p, mode, subset)

        monkeypatch.setattr(cli, "recovery_session", counted)
        cfg = parse_config("params = 2,2,5\nmodes = mixed\nsecrets = random:3\nseed = 5")
        (rec,) = run(cfg).records
        assert rec.status == "pass" and calls == [("recover-k", (1, 2))]
        assert (rec.subsets_tested, rec.secrets_tested) == (3, 3)

    def test_each_set_is_decoded_once_for_all_secrets(self, monkeypatch):
        # A session depends on the set alone: (3,4,7) has 10 k-sets and 5
        # d-sets, each inverting one block of G, however many of the 49
        # basis secrets run on it.
        calls = []
        honest = FieldMatrix.inverse

        def counted(self):
            calls.append(self.rows)
            return honest(self)

        monkeypatch.setattr(FieldMatrix, "inverse", counted)
        cfg = parse_config("params = 3,4,7\nmodes = recover-d, recover-k\nsecrets = basis-exhaustive")
        records = run(cfg).records
        assert [(r.status, r.subsets_tested, r.secrets_tested) for r in records] == [
            ("pass", 5, 49),
            ("pass", 10, 49),
        ]
        assert sorted(calls) == [4] * 5 + [6] * 10

    def test_mixed_counts_recovery_and_secrecy_sets(self):
        # (3,4,7) keeps 4 shares: 4 k-sets, 1 d-set and 4 + 6 secrecy sets,
        # each counted once however many secrets are tested.
        cfg = parse_config("params = 3,4,7\nmodes = mixed\nsecrets = random:2\nseed = 5")
        (rec,) = run(cfg).records
        assert rec.status == "pass" and (rec.subsets_tested, rec.secrets_tested) == (15, 2)

    def test_cap_branches_bounds_the_basis_sweep_total(self):
        # Each of the 343 (3,5,7) basis secrets deals 117649 branches, under
        # the cap, but basis-exhaustive bounds their total; random:2 bounds
        # one dealt state of a 2-label secret.
        cfg = parse_config("params = 3,5,7\nmodes = encode\nsecrets = basis-exhaustive")
        (capped,) = run(cfg).records
        assert capped.status == "cap-exceeded"
        assert capped.detail.startswith("branch count 40353607 (343 secret labels")
        (ran,) = run(replace(cfg, secrets="random:2")).records
        assert ran.status == "pass" and ran.secrets_tested == 2

    def test_odd_secret_count_deals_every_secret(self, monkeypatch):
        # Three secrets: one consecutive pair, then the last secret against
        # the first, so all three are reduced on every subset.
        reduced = []
        trace = SparseState.partial_trace

        def counted(self, keep, dim_cap):
            assert self._encoding is not None, "a dealt state was written out"
            reduced.append(id(self._encoding[0]))
            return trace(self, keep, dim_cap)

        monkeypatch.setattr(SparseState, "partial_trace", counted)
        cfg = parse_config("params = 2,3,5\nmodes = secrecy\nsecrets = random:3\nseed = 11")
        (record,) = run(cfg).records
        assert record.status == "pass" and record.secrets_tested == 3
        assert record.subsets_tested == 3
        assert len(set(reduced)) == 3 and len(reduced) == 3 * record.subsets_tested

    def test_random_secrets_deterministic(self):
        cfg = parse_config("params = 2,3,5\nmodes = recover-d\nsecrets = random:2\nseed = 3")
        a = run(cfg)
        b = run(cfg)
        assert a.to_json_bytes() == b.to_json_bytes()


class TestReportFormats:
    def test_json_shape(self):
        report = run(parse_config("params = 2,2,5\nmodes = costs"))
        obj = json.loads(report.to_json_bytes())
        assert obj["schema_version"] == 1
        assert obj["overall_pass"] is True
        assert obj["config"]["params"] == [[2, 2, 5]]
        (record,) = obj["records"]
        assert record["mode"] == "costs"
        assert "wall_time" not in record  # timings never enter the report

    def test_csv_shape(self):
        report = run(parse_config("params = 2,2,5\nmodes = costs"))
        lines = report.to_csv_text().splitlines()
        assert lines[0].startswith("k,n,d,q,m,mode,status")
        assert len(lines) == 2


class TestReportSchema:
    # The report is built from RunRecord's and ScenarioConfig's fields; these
    # pins catch a field added, dropped or renamed without the schema moving.

    def report_obj(self):
        return json.loads(run(parse_config("params = 2,3,5\nmodes = costs")).to_json_bytes())

    def test_json_keys(self):
        obj = self.report_obj()
        assert set(obj) == {"schema_version", "config", "records", "overall_pass"}
        (record,) = obj["records"]
        assert set(record) == {
            "k", "n", "d", "q", "m", "mode", "status", "detail", "subsets_tested",
            "secrets_tested", "min_fidelity", "max_trace_distance", "qudit_cost",
            "channel_dim", "bound_dim", "optimal", "metrics",
        }

    def test_config_keys(self):
        assert set(self.report_obj()["config"]) == {
            "params", "modes", "secrets", "seed", "format", "cap_branches", "cap_dim",
        }

    def test_csv_header(self):
        report = run(parse_config("params = 2,3,5\nmodes = costs"))
        assert report.to_csv_text().splitlines()[0] == (
            "k,n,d,q,m,mode,status,detail,subsets_tested,secrets_tested,"
            "min_fidelity,max_trace_distance,qudit_cost,channel_dim,bound_dim,optimal"
        )

    def test_documented_config_keys_are_the_fields(self):
        names = [f.name for f in fields(ScenarioConfig)]
        in_docstring = re.findall(r"^    (\w+) = ", cli.__doc__, flags=re.M)
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (ini_block,) = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.M | re.S)
        in_readme = re.findall(r"^(\w+) = ", ini_block, flags=re.M)
        assert sorted(in_docstring) == sorted(in_readme) == sorted(names)

    def test_readme_quick_start_runs(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (quick_start,) = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
        exec(compile(quick_start, "README.md", "exec"), {})


class TestCostTableRows:
    def test_intro_rows(self):
        rows = emit_cost_table([(2, 3, 5)])
        assert [(r["mode"], r["qudits"], r["ratio"]) for r in rows] == [
            ("recover-k", 4, 2.0),
            ("recover-d", 3, 1.5),
        ]
        assert all(r["optimal"] for r in rows)

    def test_ratio_examples(self):
        row = emit_cost_table([(3, 5, 7)])[-1]
        assert row["ratio"] == pytest.approx(5 / 3)
        row = emit_cost_table([(4, 6, 11)])[-1]
        assert row["ratio"] == pytest.approx(2.0)


class TestMainEntry:
    def test_run_exit_codes(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("params = 2,2,5\nmodes = costs\n")
        assert main(["run", str(cfg)]) == 0

        bad = tmp_path / "bad.cfg"
        bad.write_text("params = 3,4,5\n")
        assert main(["run", str(bad)]) == 2

        missing = tmp_path / "nope.cfg"
        assert main(["run", str(missing)]) == 2

    def test_exit_one_on_invariant_failure(self, tmp_path, monkeypatch):
        # Force a failing record through the glue: exit status must be 1.
        import qtss.cli as cli_mod

        real_run = cli_mod.run

        def fake_run(cfg):
            report = real_run(cli_mod.parse_config("params = 2,2,5\nmodes = costs"))
            report.records[0].fail("synthetic failure")
            return report

        monkeypatch.setattr(cli_mod, "run", fake_run)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("params = 2,2,5\nmodes = costs\n")
        assert main(["run", str(cfg)]) == 1

    def test_run_writes_report(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        out = tmp_path / "report.json"
        cfg.write_text(f"params = 2,2,5\nmodes = costs\noutput = {out}\n")
        assert main(["run", str(cfg)]) == 0
        obj = json.loads(out.read_bytes())
        assert obj["overall_pass"] is True

    def test_run_byte_identical_reports(self, tmp_path):
        cfg = tmp_path / "det.cfg"
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        cfg.write_text("params = 2,3,5\nsecrets = random:2\nseed = 11\n")
        assert main(["run", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_costs_verb(self, capsys):
        assert main(["costs", "2", "3", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k,n,d,q,m,mode,qudits,ratio,bound_dim,optimal"
        assert lines[1] == "2,3,3,5,2,recover-k,4,2.0,625,True"
        assert lines[2] == "2,3,3,5,2,recover-d,3,1.5,125,True"

    def test_costs_verb_invalid(self, capsys):
        assert main(["costs", "3", "4", "5"]) == 2

    @pytest.mark.parametrize(
        "triple, code",
        [("6 11 65521", 0), ("29 57 65521", 0), ("30 59 65521", 2), ("80 159 65521", 2)],
    )
    def test_costs_of_large_schemes_finish(self, triple, code):
        # A float root estimate of q**m once hung these for minutes or
        # overflowed; a figure past 4300 digits (30,59,65521: 4335) cannot
        # print, so it is a config error.  A subprocess bounds the wait.
        env = {**os.environ, "PYTHONPATH": str(Path(qtss.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "qtss", "costs", *triple.split(), "--format", "json"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if code == 0:
            rows = json.loads(proc.stdout)
            assert [r["mode"] for r in rows] == ["recover-k", "recover-d"]
            assert all(r["optimal"] for r in rows)
        else:
            assert proc.stdout == "" and proc.stderr.startswith("config error: cost figure")

    def test_repeated_key_is_config_error(self, tmp_path, capsys):
        # Keys compare case-insensitively: SEED on line 4 repeats seed on line 2.
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("params = 2,2,5\nseed = 3\nmodes = costs\nSEED = 9\n")
        assert main(["run", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: line 4: key 'seed' repeats line 2" in captured.err
        assert "Traceback" not in captured.err
        with pytest.raises(ConfigError, match="line 3: key 'params' repeats line 1"):
            parse_config("params = 2,2,5\nseed = 3\nparams = 3,4,7\nSEED = 9")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("params = 2,3,5; 2,3,5\nmodes = costs, costs", "params names [(2, 3, 5)] more than once"),
            ("params = 2,3,5; 3,4,7\nmodes = costs, encode, costs", "modes names ['costs'] more than once"),
        ],
        ids=["params", "modes"],
    )
    def test_repeated_entry_is_config_error(self, tmp_path, capsys, text, message):
        # A triple or mode named twice would only emit its records twice.
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text + "\n")
        assert main(["run", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: {message}" in captured.err and "Traceback" not in captured.err

    def test_modulus_past_label_width_is_config_error(self, tmp_path, capsys):
        # 65537 is prime but its digits do not fit the 16-bit labels.
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("params = 2,2,65537\nmodes = encode\n")
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "65537" in err and "Traceback" not in err
        assert main(["costs", "2", "2", "65537"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error:" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "line, args, message",
        [
            ("seed = -1", [], "seed must be non-negative"),
            ("", ["--seed", "-1"], "seed must be non-negative"),
            ("cap_dim = 0", [], "cap_dim must be at least 1"),
            ("", ["--cap-dim", "0"], "cap_dim must be at least 1"),
            ("cap_branches = 0", [], "cap_branches must be at least 1"),
            ("", ["--cap-branches", "-3"], "cap_branches must be at least 1"),
            ("modes =", [], "config names no modes"),
            ("modes = , ,", [], "config names no modes"),
            ("modes = costs, mixed\nsecrets = random:1", [], "modes ['mixed'] compare secrets in pairs"),
        ],
        ids=[
            "seed", "seed-flag", "cap-dim", "cap-dim-flag", "cap-branches",
            "cap-branches-flag", "modes-empty", "modes-commas", "mixed-one-secret",
        ],
    )
    def test_out_of_range_values_exit_two(self, tmp_path, capsys, line, args, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"params = 2,2,5\n{line}\n")
        assert main(["run", str(cfg), *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: {message}" in captured.err and "Traceback" not in captured.err

    def test_costs_json(self, capsys):
        assert main(["costs", "2", "2", "5", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1 and rows[0]["qudits"] == 2

    def test_demo_verb(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "fidelity = 1.0000000000" in out
        assert "3 qudits" in out
        assert "lower bound 125 -> optimal" in out

    def test_demo_superposition(self, capsys):
        assert main(["demo", "--secret", "superposition"]) == 0
        out = capsys.readouterr().out
        assert out.count("fidelity = 1.0000000000") == 2

    @pytest.mark.parametrize("secret", ["10", "superposition"])
    def test_demo_output_is_golden(self, capsys, secret):
        # The whole walkthrough, byte for byte: dealt branches, every op's
        # kind, registers and note, and the recovery figures.
        assert main(["demo", "--secret", secret]) == 0
        golden = Path(__file__).parent / "golden" / f"demo_{secret}.txt"
        assert capsys.readouterr().out == golden.read_text()

    def test_demo_zero_secret_shows_zero_codeword(self, capsys):
        assert main(["demo", "--secret", "00"]) == 0
        out = capsys.readouterr().out
        assert "000000 : " in out  # the all-zero randomness branch

    def test_demo_bad_secret(self, capsys):
        assert main(["demo", "--secret", "9"]) == 2

    @pytest.mark.parametrize("secret", ["x1", "1 0"], ids=["letter", "space"])
    def test_demo_non_digit_secret_exits_two(self, capsys, secret):
        assert main(["demo", "--secret", secret]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: demo secret must be 2 digits below 5" in captured.err

    def test_config_not_utf8_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"params = 2,2,5\xff\n")
        assert main(["run", str(cfg)]) == 2
        assert "config error: cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "costs"])
    def test_out_naming_a_directory_exits_two(self, tmp_path, capsys, verb):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("params = 2,2,5\nmodes = costs\n")
        args = {"run": ["run", str(cfg)], "costs": ["costs", "2", "2", "5"]}[verb]
        assert main([*args, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: cannot write {tmp_path}" in captured.err

    def test_run_out_checked_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        def never(cfg):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(cli, "run", never)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("params = 2,2,5\nmodes = costs\n")
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"config error: cannot write {tmp_path}" in capsys.readouterr().err

    def test_run_keeps_existing_report_until_the_run_succeeds(self, tmp_path, monkeypatch):
        out = tmp_path / "report.json"
        out.write_bytes(b"earlier report")

        def broken(cfg):
            assert out.read_bytes() == b"earlier report"
            raise ConfigError("sweep failed")

        monkeypatch.setattr(cli, "run", broken)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("params = 2,2,5\nmodes = costs\n")
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert out.read_bytes() == b"earlier report"

    def test_costs_out_creates_parent_directories(self, tmp_path, capsys):
        out = tmp_path / "new" / "dir" / "x.csv"
        assert main(["costs", "2", "3", "5", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().splitlines()[0] == "k,n,d,q,m,mode,qudits,ratio,bound_dim,optimal"


class TestDemoFunction:
    def test_stream_capture(self):
        import io

        buf = io.StringIO()
        assert demo("10", stream=buf) == 0
        text = buf.getvalue()
        assert "Dealer output: 25 branches" in text
        assert "controls (" in text


def test_import_loads_numpy_but_no_scipy():
    # numpy is the one run-time dependency; scipy belongs to the test extra.
    env = {**os.environ, "PYTHONPATH": str(Path(qtss.__file__).parents[1])}
    code = "import json, sys, qtss; print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "numpy" in loaded
    assert not [name for name in loaded if name.startswith("scipy")]
