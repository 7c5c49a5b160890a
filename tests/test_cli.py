"""End-to-end command-line flows over real files."""

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtdhss import cli, oracle
from crtdhss import params as params_module
from crtdhss.cli import build_parser, main
from crtdhss.fileio import load_bulletin, load_params, load_share, save_share
from crtdhss.oracle import DEFAULT_BUDGET
from crtdhss.scheme import Share


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_reference_params(tmp_path, capsys, extra=()):
    path = tmp_path / "params.json"
    code, _, _ = run(
        capsys,
        "gen-params",
        "--p", "11",
        "--levels", "3,4",
        "--thresholds", "2,3",
        "--degrees", "1x7",
        "--seed", "1",
        "--out", str(path),
        *extra,
    )
    assert code == 0
    return path


class TestGenParams:
    def test_writes_valid_roundtripping_file(self, tmp_path, capsys):
        path = gen_reference_params(tmp_path, capsys)
        structure, params = load_params(path)
        assert structure.level_sizes == (3, 4)
        assert params.p == 11
        # canonical writer: parse -> serialize -> identical bytes
        from crtdhss.fileio import canonical_dumps, params_payload

        assert canonical_dumps(params_payload(structure, params)) == path.read_text()

    def test_non_increasing_thresholds_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "gen-params",
            "--p", "11", "--levels", "3,4", "--thresholds", "3,2",
            "--degrees", "1x7", "--seed", "1",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "error:" in err

    def test_exhausted_degree_class_exit_3(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "gen-params",
            "--p", "5", "--levels", "3,4", "--thresholds", "2,3",
            "--degrees", "1x7", "--seed", "1",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 3

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_table_seed_outside_64_bits_exit_2_and_no_file(self, tmp_path, capsys, seed):
        out = tmp_path / "x.json"
        code, _, err = run(
            capsys,
            "gen-params",
            "--p", "11", "--levels", "3,4", "--thresholds", "2,3",
            "--degrees", "1x7", "--seed", "1",
            "--hash-backend", "table", "--table-seed", seed,
            "--out", str(out),
        )
        assert code == 2
        assert "64 bits" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--d0", "0"), "secret degree bound must be at least 1"),
            (
                ("--hash-backend", "table", "--table-seed", "5"),
                "the table hash backend needs p <= 1048576",
            ),
            (("--hash-backend", "table", "--table-seed", "-1"), "table seed must fit in 64 bits"),
            (
                ("--hash-backend", "table", "--table-seed", str(2**64)),
                "table seed must fit in 64 bits",
            ),
        ],
        ids=["d0-0", "table-above-field-limit", "table-seed-negative", "table-seed-2^64"],
    )
    def test_settings_refused_before_the_moduli_search(
        self, tmp_path, capsys, monkeypatch, extra, message
    ):
        # only --d0 0 used to be refused before the search at 2^61 - 1 ran
        searches = []
        monkeypatch.setattr(
            "crtdhss.cli.generate_moduli", lambda *args: searches.append(args) or ()
        )
        out = tmp_path / "x.json"
        code, _, err = run(
            capsys,
            "gen-params",
            "--p", str(2**61 - 1), "--levels", "3,4", "--thresholds", "2,3",
            "--degrees", "4x7", "--seed", "1", *extra,
            "--out", str(out),
        )
        assert code == 2
        assert err == f"error: {message}\n"
        assert not out.exists()
        assert searches == []

    def test_table_backend_above_field_limit_exit_2_and_no_file(self, tmp_path, capsys):
        # the file used to be written, then refused by every later command
        out = tmp_path / "x.json"
        code, _, err = run(
            capsys,
            "gen-params",
            "--p", str(2**61 - 1), "--levels", "3,4", "--thresholds", "2,3",
            "--degrees", "1x7", "--seed", "1",
            "--hash-backend", "table", "--table-seed", "5",
            "--out", str(out),
        )
        assert code == 2
        assert "table hash backend needs p <= 1048576" in err
        assert not out.exists()

    def test_degenerate_table_seed_exit_2_and_no_file(self, tmp_path, capsys):
        # seed 8 makes both level tables over F_3 coincide; the file used to be
        # written, then refused by deal and analyze
        out = tmp_path / "x.json"
        code, _, err = run(
            capsys,
            "gen-params",
            "--p", "3", "--levels", "1,2", "--thresholds", "1,2",
            "--degrees", "1,2,2", "--hash-backend", "table", "--table-seed", "8",
            "--seed", "1", "--out", str(out),
        )
        assert code == 2
        assert "degenerate table seed" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "degrees, message",
        [
            ("1x0", "must be at least 1"),
            ("1x-2,1,2,2", "must be at least 1"),
            ("1x4", "more than 3 entries"),
            ("1,2x2,2", "more than 3 entries"),
            ("1,2", "has 2 entries"),
        ],
    )
    def test_bad_degree_profile_exit_2(self, tmp_path, capsys, degrees, message):
        # levels (1,2) have n = 3 participants; 1x-2,1,2,2 used to exit 0
        out = tmp_path / "x.json"
        code, _, err = run(
            capsys,
            "gen-params",
            "--p", "11", "--levels", "1,2", "--thresholds", "1,2",
            "--degrees", degrees, "--seed", "1",
            "--out", str(out),
        )
        assert code == 2
        assert message in err
        assert not out.exists()

    def test_missing_seed_refused_without_optin(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "gen-params",
            "--p", "11", "--levels", "3,4", "--thresholds", "2,3",
            "--degrees", "1x7",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "--seed" in err

    def test_os_entropy_opt_in_writes_params(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code, _, _ = run(
            capsys,
            "gen-params",
            "--p", "11", "--levels", "3,4", "--thresholds", "2,3",
            "--degrees", "1x7", "--allow-os-entropy",
            "--out", str(out),
        )
        assert code == 0
        assert load_params(out)[1].degrees == (1,) * 7

    def test_empty_degree_tokens_skipped(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code, _, _ = run(
            capsys,
            "gen-params",
            "--p", "11", "--levels", "2,3", "--thresholds", "1,2",
            "--degrees", "2x2,,2x3", "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        assert load_params(out)[1].degrees == (2,) * 5

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--levels", "a,b"), "--levels must be a comma-separated integer list"),
            (("--hash-backend", "table"), "--table-seed is required exactly when"),
            (("--table-seed", "5"), "--table-seed is required exactly when"),
            (("--d0", "0"), "secret degree bound must be at least 1"),
        ],
    )
    def test_usage_error_exit_2_and_no_file(self, tmp_path, capsys, extra, message):
        # a --table-seed without the table backend used to be dropped with exit 0
        out = tmp_path / "x.json"
        code, _, err = run(
            capsys,
            "gen-params",
            "--p", "11", "--levels", "3,4", "--thresholds", "2,3",
            "--degrees", "1x7", "--seed", "1",
            "--out", str(out),
            *extra,
        )
        assert code == 2
        assert message in err
        assert not out.exists()

    def test_oversized_p_refused_before_primality(self, tmp_path, capsys, monkeypatch):
        # a 4,215-digit p used to stall in is_prime before the size check
        huge = 2**14000 + 1
        is_prime = params_module.is_prime

        def small_only(n):
            assert n <= 2**64, "primality test reached with an oversized p"
            return is_prime(n)

        monkeypatch.setattr(params_module, "is_prime", small_only)
        path = gen_reference_params(tmp_path, capsys)
        data = json.loads(path.read_text())
        data["p"] = str(huge)
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "deal", "--params", str(path), "--secret", "3",
                           "--seed", "2", "--out-dir", str(tmp_path / "d"))
        assert code == 2
        assert "fit in 64 bits" in err
        out = tmp_path / "x.json"
        code, _, err = run(capsys, "gen-params", "--p", str(huge), "--levels", "3,4",
                           "--thresholds", "2,3", "--degrees", "1x7", "--seed", "1",
                           "--out", str(out))
        assert code == 2
        assert "fit in 64 bits" in err
        assert not out.exists()


# Sizes that hung or ran out of memory before `params` bounded them: a degree whose class
# count looped over every e up to 10**11, a degree-400 search at 2**61 - 1, and 10**9
# participants, whose degree list alone would take 8 GB.
OVERSIZED = {
    "degree_1e11": ["--p", "13", "--levels", "1", "--thresholds", "1", "--degrees", "99999999999"],
    "degree_400": ["--p", str(2**61 - 1), "--levels", "1", "--thresholds", "1", "--degrees", "400"],
    "participants_1e9": [
        "--p", "13", "--levels", "1000000000", "--thresholds", "1", "--degrees", "1x1000000000"
    ],
}


@pytest.mark.parametrize("argv", OVERSIZED.values(), ids=OVERSIZED)
def test_oversized_gen_params_exit_2_under_a_memory_cap(tmp_path, argv):
    # a fresh interpreter caps its own address space at 1 GiB before importing the package
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from crtdhss.cli import main\n"
        "sys.exit(main(sys.argv[2:]))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = tmp_path / "x.json"
    argv = ["gen-params", *argv, "--d0", "1", "--seed", "1", "--out", str(out)]
    run = subprocess.run(
        [sys.executable, "-I", "-c", code, src, *argv], capture_output=True, text=True, timeout=10
    )
    assert run.returncode == 2
    assert run.stderr.startswith("error: ") and "Traceback" not in run.stderr
    assert not out.exists()


class TestDealReconstruct:
    def test_round_trip(self, tmp_path, capsys):
        params_path = gen_reference_params(tmp_path, capsys)
        out_dir = tmp_path / "deal"
        code, _, _ = run(
            capsys,
            "deal",
            "--params", str(params_path),
            "--secret", "3",
            "--seed", "2",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "reconstruct",
            "--params", str(params_path),
            "--bulletin", str(out_dir / "bulletin.json"),
            str(out_dir / "share_001.json"),
            str(out_dir / "share_002.json"),
        )
        assert code == 0
        assert out.strip() == "3"

    def test_table_backend_round_trip_at_the_field_limit(self, tmp_path, capsys):
        params_path = tmp_path / "params.json"
        out_dir = tmp_path / "deal"
        code, _, _ = run(
            capsys,
            "gen-params",
            "--p", "1048573", "--levels", "1,2", "--thresholds", "1,2",
            "--degrees", "1,2,2", "--hash-backend", "table", "--table-seed", "5",
            "--seed", "1", "--out", str(params_path),
        )
        assert code == 0
        code, _, _ = run(
            capsys,
            "deal",
            "--params", str(params_path),
            "--secret", "1048572",
            "--seed", "2",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "reconstruct",
            "--params", str(params_path),
            "--bulletin", str(out_dir / "bulletin.json"),
            str(out_dir / "share_001.json"),
        )
        assert code == 0
        assert out.strip() == "1048572"

    def test_identical_seed_byte_identical_outputs(self, tmp_path, capsys):
        params_path = gen_reference_params(tmp_path, capsys)
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            code, _, _ = run(
                capsys,
                "deal",
                "--params", str(params_path),
                "--secret", "7",
                "--seed", "5",
                "--out-dir", str(d),
            )
            assert code == 0
        files = sorted(p.name for p in dirs[0].iterdir())
        assert files == sorted(p.name for p in dirs[1].iterdir())
        for name in files:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_unauthorized_shares_exit_4(self, tmp_path, capsys):
        params_path = gen_reference_params(tmp_path, capsys)
        out_dir = tmp_path / "deal"
        run(capsys, "deal", "--params", str(params_path), "--secret", "3",
            "--seed", "2", "--out-dir", str(out_dir))
        code, _, _ = run(
            capsys,
            "reconstruct",
            "--params", str(params_path),
            "--bulletin", str(out_dir / "bulletin.json"),
            str(out_dir / "share_004.json"),
            str(out_dir / "share_005.json"),
        )
        assert code == 4

    def test_corrupted_share_exit_5(self, tmp_path, capsys):
        params_path = gen_reference_params(tmp_path, capsys)
        out_dir = tmp_path / "deal"
        run(capsys, "deal", "--params", str(params_path), "--secret", "3",
            "--seed", "2", "--out-dir", str(out_dir))
        structure, params = load_params(params_path)
        victim = load_share(out_dir / "share_002.json", params.p)
        tampered = Share(
            victim.participant,
            victim.level,
            ((victim.coeffs[0] + 1) % params.p,),
        )
        save_share(out_dir / "share_002.json", tampered)
        code, _, _ = run(
            capsys,
            "reconstruct",
            "--params", str(params_path),
            "--bulletin", str(out_dir / "bulletin.json"),
            str(out_dir / "share_001.json"),
            str(out_dir / "share_002.json"),
            str(out_dir / "share_003.json"),
        )
        assert code == 5

    def test_missing_bulletin_entry_exit_2(self, tmp_path, capsys):
        # Without the (1, 1) mask, share 1's raw vector used to stand in for
        # a residue of f_1 and the wrong secret 1 was printed with exit 0.
        params_path = gen_reference_params(tmp_path, capsys)
        out_dir = tmp_path / "deal"
        run(capsys, "deal", "--params", str(params_path), "--secret", "3",
            "--seed", "2", "--out-dir", str(out_dir))
        bulletin_path = out_dir / "bulletin.json"
        payload = json.loads(bulletin_path.read_text())
        payload["entries"] = [
            e for e in payload["entries"] if (e["level"], e["participant"]) != (1, 1)
        ]
        bulletin_path.write_text(json.dumps(payload))
        code, out, err = run(
            capsys,
            "reconstruct",
            "--params", str(params_path),
            "--bulletin", str(bulletin_path),
            str(out_dir / "share_001.json"),
            str(out_dir / "share_002.json"),
        )
        assert code == 2
        assert out == ""
        assert err == "error: bulletin has no published mask for level 1, participant 1\n"

    def test_wrong_secret_length_exit_2(self, tmp_path, capsys):
        params_path = gen_reference_params(tmp_path, capsys)
        code, _, _ = run(
            capsys,
            "deal",
            "--params", str(params_path),
            "--secret", "3 1",
            "--seed", "2",
            "--out-dir", str(tmp_path / "deal"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "secret, extra, message",
        [
            ("11", (), "field elements"),
            ("11", ("--yang",), "field elements"),
            (" , ", (), "secret is empty"),
        ],
    )
    def test_refused_deal_exit_2_and_no_out_dir(self, tmp_path, capsys, secret, extra, message):
        # the output directory used to be created before the deal was refused
        params_path = gen_reference_params(tmp_path, capsys)
        out_dir = tmp_path / "deal"
        code, _, err = run(capsys, "deal", "--params", str(params_path), "--secret", secret,
                           "--seed", "2", "--out-dir", str(out_dir), *extra)
        assert code == 2
        assert message in err
        assert not out_dir.exists()

    def test_hex_secret_accepted(self, tmp_path, capsys):
        params_path = gen_reference_params(tmp_path, capsys)
        out_dir = tmp_path / "deal"
        code, _, _ = run(
            capsys,
            "deal",
            "--params", str(params_path),
            "--secret", "0xa",
            "--seed", "2",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "reconstruct",
            "--params", str(params_path),
            "--bulletin", str(out_dir / "bulletin.json"),
            str(out_dir / "share_001.json"),
            str(out_dir / "share_002.json"),
        )
        assert out.strip() == "10"


class TestAttackYang:
    def deal_yang(self, tmp_path, capsys, levels="3,4"):
        params_path = tmp_path / "params.json"
        n = sum(int(v) for v in levels.split(","))
        code, _, _ = run(
            capsys,
            "gen-params",
            "--p", "11", "--levels", levels, "--thresholds", "2,3",
            "--degrees", f"1x{n}", "--seed", "1",
            "--out", str(params_path),
        )
        assert code == 0
        out_dir = tmp_path / "yang"
        code, _, _ = run(
            capsys,
            "deal",
            "--params", str(params_path),
            "--secret", "6",
            "--seed", "3",
            "--out-dir", str(out_dir),
            "--yang",
        )
        assert code == 0
        return params_path, out_dir

    def test_unauthorized_pair_recovers_secret(self, tmp_path, capsys):
        params_path, out_dir = self.deal_yang(tmp_path, capsys)
        code, out, err = run(
            capsys,
            "attack-yang",
            "--params", str(params_path),
            "--masks", str(out_dir / "masks.json"),
            str(out_dir / "share_004.json"),
            str(out_dir / "share_005.json"),
        )
        assert code == 0
        assert out.strip() == "6"
        assert "NOT authorized" in err

    def test_deterministic_given_same_files(self, tmp_path, capsys):
        params_path, out_dir = self.deal_yang(tmp_path, capsys)
        argv = (
            "attack-yang",
            "--params", str(params_path),
            "--masks", str(out_dir / "masks.json"),
            str(out_dir / "share_004.json"),
            str(out_dir / "share_005.json"),
        )
        assert run(capsys, *argv)[1] == run(capsys, *argv)[1]

    def test_tampered_share_exit_5(self, tmp_path, capsys):
        params_path, out_dir = self.deal_yang(tmp_path, capsys)
        _, params = load_params(params_path)
        victim = load_share(out_dir / "share_005.json", params.p)
        bumped = ((victim.coeffs[0] + 1) % params.p,)
        save_share(out_dir / "share_005.json", Share(5, victim.level, bumped))
        code, out, _ = run(
            capsys,
            "attack-yang",
            "--params", str(params_path),
            "--masks", str(out_dir / "masks.json"),
            str(out_dir / "share_004.json"),
            str(out_dir / "share_005.json"),
            str(out_dir / "share_006.json"),
        )
        assert code == 5
        assert out == ""

    def test_missing_mask_exit_2(self, tmp_path, capsys):
        params_path, out_dir = self.deal_yang(tmp_path, capsys)
        masks_path = out_dir / "masks.json"
        payload = json.loads(masks_path.read_text())
        payload["entries"] = [
            e for e in payload["entries"] if (e["level"], e["participant"]) != (2, 1)
        ]
        masks_path.write_text(json.dumps(payload))
        code, out, err = run(
            capsys,
            "attack-yang",
            "--params", str(params_path),
            "--masks", str(masks_path),
            str(out_dir / "share_004.json"),
            str(out_dir / "share_005.json"),
        )
        assert code == 2
        assert out == ""
        assert err.endswith("error: bulletin has no published mask for level 2, participant 1\n")

    def test_small_top_level_exit_6(self, tmp_path, capsys):
        params_path, out_dir = self.deal_yang(tmp_path, capsys, levels="2,4")
        code, _, _ = run(
            capsys,
            "attack-yang",
            "--params", str(params_path),
            "--masks", str(out_dir / "masks.json"),
            str(out_dir / "share_003.json"),
            str(out_dir / "share_004.json"),
        )
        assert code == 6


class TestAnalyze:
    def gen_tiny_params(self, tmp_path, capsys):
        # 81-state audit space: levels (1,2) over F_3 with degrees 1,2,2
        path = tmp_path / "params.json"
        code, _, _ = run(
            capsys,
            "gen-params",
            "--p", "3", "--levels", "1,2", "--thresholds", "1,2",
            "--degrees", "1,2,2", "--seed", "1",
            "--hash-backend", "table", "--table-seed", "2",
            "--out", str(path),
        )
        assert code == 0
        return path

    def gen_fibers_of_three(self, tmp_path, capsys):
        # levels (2,2) over F_3 with degrees 2,2,3,3: coalition {3} leaves one
        # free coefficient, so each secret's fiber holds 3 tuples and all hold 9
        path = tmp_path / "params.json"
        code, _, _ = run(
            capsys,
            "gen-params",
            "--p", "3", "--levels", "2,2", "--thresholds", "1,2",
            "--degrees", "2,2,3,3", "--seed", "1",
            "--hash-backend", "table", "--table-seed", "2",
            "--out", str(path),
        )
        assert code == 0
        return path

    def test_report_uniform_and_zero_loss(self, tmp_path, capsys):
        params_path = self.gen_tiny_params(tmp_path, capsys)
        report_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "analyze",
            "--params", str(params_path),
            "--coalition", "2",
            "--mode", "coalition",
            "--seed", "4",
            "--report", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["histogram_uniform"] is True
        assert report["loss_entropy_bits"] == 0.0
        assert report["preimages_match_expected"] is True
        assert report["tuples_match_expected"] is True
        assert report["dealer_states"] == 81

    def test_report_to_stdout(self, tmp_path, capsys):
        params_path = self.gen_tiny_params(tmp_path, capsys)
        code, out, _ = run(
            capsys,
            "analyze",
            "--params", str(params_path),
            "--coalition", "2",
            "--seed", "4",
        )
        assert code == 0
        assert json.loads(out)["histogram_uniform"] is True

    def test_authorized_coalition_exit_2(self, tmp_path, capsys):
        params_path = self.gen_tiny_params(tmp_path, capsys)
        code, _, _ = run(
            capsys,
            "analyze",
            "--params", str(params_path),
            "--coalition", "1",
            "--seed", "4",
        )
        assert code == 2

    def test_budget_guard_exit_7_with_count(self, tmp_path, capsys):
        params_path = self.gen_tiny_params(tmp_path, capsys)
        code, _, err = run(
            capsys,
            "analyze",
            "--params", str(params_path),
            "--coalition", "2",
            "--budget", "10",
            "--seed", "4",
        )
        assert code == 7
        assert "81" in err

    def test_full_mode_reports_nonnegative_loss(self, tmp_path, capsys):
        params_path = self.gen_tiny_params(tmp_path, capsys)
        code, out, _ = run(
            capsys,
            "analyze",
            "--params", str(params_path),
            "--coalition", "2",
            "--mode", "full",
            "--seed", "4",
        )
        assert code == 0
        assert json.loads(out)["loss_entropy_bits"] >= -1e-9

    @pytest.mark.parametrize("coalition", ["99", "0", "2,99"])
    def test_coalition_out_of_range_exit_2(self, tmp_path, capsys, coalition):
        # 99 used to escape as an IndexError traceback
        params_path = self.gen_tiny_params(tmp_path, capsys)
        code, out, err = run(
            capsys,
            "analyze",
            "--params", str(params_path),
            "--coalition", coalition,
            "--seed", "4",
        )
        assert code == 2
        assert out == ""
        assert "out of range 1..3" in err

    @pytest.mark.parametrize("mode", ["coalition", "full"])
    def test_workers_flag_has_no_effect(self, tmp_path, capsys, mode):
        params_path = self.gen_tiny_params(tmp_path, capsys)
        reports = []
        for workers in ("1", "2"):
            report_path = tmp_path / f"report_{workers}.json"
            code, _, _ = run(
                capsys,
                "analyze",
                "--params", str(params_path),
                "--coalition", "2",
                "--mode", mode,
                "--seed", "4",
                "--workers", workers,
                "--report", str(report_path),
            )
            assert code == 0
            reports.append(report_path.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("mode", ["coalition", "full"])
    def test_budget_checks_tuples_before_dealer_states(self, tmp_path, capsys, mode):
        # each secret's fiber holds 1 tuple and all three hold 3; the
        # dealer space holds 81 states
        params_path = self.gen_tiny_params(tmp_path, capsys)
        for budget, needs in [("1", 3), ("2", 3), ("3", 81), ("10", 81), ("81", None)]:
            code, out, err = run(
                capsys,
                "analyze",
                "--params", str(params_path),
                "--coalition", "2",
                "--mode", mode,
                "--seed", "4",
                "--budget", budget,
            )
            if needs is None:
                assert code == 0
                assert json.loads(out)["dealer_states"] == 81
            else:
                assert code == 7
                assert out == ""
                assert err == f"error: enumeration needs {needs} states, budget allows {budget}\n"

    def test_budget_checked_before_any_fiber_scan(self, tmp_path, capsys, monkeypatch):
        # each fiber fits a budget of 2 but the 3 tuples do not; the three
        # fibers used to be scanned before the total was checked
        params_path = self.gen_tiny_params(tmp_path, capsys)
        scans = []
        monkeypatch.setattr(oracle, "_scan_fibers", lambda *args: scans.append(args) or 1)
        code, out, err = run(
            capsys,
            "analyze",
            "--params", str(params_path),
            "--coalition", "2",
            "--seed", "4",
            "--budget", "2",
        )
        assert (code, out) == (7, "")
        assert err == "error: enumeration needs 3 states, budget allows 2\n"
        assert scans == []

    def test_budget_below_a_fiber_names_the_tuple_total(self, tmp_path, capsys):
        # a budget below one fiber (3) is below the 9 tuples of all fibers too,
        # and those 9 are the first number analyze needs
        params_path = self.gen_fibers_of_three(tmp_path, capsys)
        analyze = ["analyze", "--params", str(params_path), "--coalition", "3", "--seed", "5"]
        for budget in ("2", "3", "8"):
            code, out, err = run(capsys, *analyze, "--budget", budget)
            assert (code, out) == (7, "")
            assert err == f"error: enumeration needs 9 states, budget allows {budget}\n"

    @pytest.mark.parametrize("mode", ["coalition", "full"])
    def test_preimage_counts_equal_the_per_secret_counts(self, tmp_path, capsys, mode):
        # analyze counts every secret's fiber in one pass per level
        params_path = self.gen_fibers_of_three(tmp_path, capsys)
        analyze = ["analyze", "--params", str(params_path), "--coalition", "3"]
        code, out, _ = run(capsys, *analyze, "--mode", mode, "--seed", "5")
        assert code == 0
        structure, params = load_params(params_path)
        view, _ = oracle.observe_coalition(structure, params, {3}, mode, random.Random(5))
        expected = {f"{s}": oracle.count_secret_preimages(view, (s,)) for s in range(3)}
        assert json.loads(out)["preimage_counts"] == expected == {"0": 3, "1": 3, "2": 3}

    def test_successive_calls_do_not_leak_arguments(self, tmp_path, capsys):
        params_path = self.gen_tiny_params(tmp_path, capsys)
        analyze = ["analyze", "--params", str(params_path), "--coalition", "2"]
        assert run(capsys, *analyze, "--mode", "full", "--seed", "4", "--budget", "10")[0] == 7
        again = tmp_path / "again.json"
        code, _, _ = run(
            capsys,
            "gen-params",
            "--p", "3", "--levels", "1,2", "--thresholds", "1,2",
            "--degrees", "1,2,2", "--seed", "1",
            "--hash-backend", "table", "--table-seed", "2",
            "--out", str(again),
        )
        assert code == 0
        assert again.read_bytes() == params_path.read_bytes()
        # default budget and mode again, and no seed carried over
        code, _, err = run(capsys, *analyze)
        assert code == 2
        assert "provide --seed" in err
        code, out, _ = run(capsys, *analyze, "--seed", "4")
        assert code == 0
        assert json.loads(out)["mode"] == "coalition"
        args = build_parser().parse_args(analyze)
        assert (args.budget, args.mode, args.seed) == (DEFAULT_BUDGET.max_states, "coalition", None)
        assert not hasattr(args, "out")


def test_error_outside_the_exit_table_propagates(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise ZeroDivisionError("not an operator error")

    monkeypatch.setattr(cli, "generate_moduli", broken)
    with pytest.raises(ZeroDivisionError, match="not an operator error"):
        main([
            "gen-params", "--p", "11", "--levels", "3,4", "--thresholds", "2,3",
            "--degrees", "1x7", "--seed", "1", "--out", str(tmp_path / "x.json"),
        ])
    assert capsys.readouterr().err == ""
    assert not (tmp_path / "x.json").exists()


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"], ["gen-params"]])
    def test_help_and_usage_match_a_fresh_parser(self, capsys, argv):
        outputs = []
        for parser in (build_parser.__wrapped__(), build_parser()):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out or outputs[0].err


def reconstruct_argv(files):
    """Reconstruct from participants 1 and 2, authorized at level 1."""
    return (
        "reconstruct", "--params", str(files["params"]), "--bulletin", str(files["bulletin"]),
        str(files["share"]), str(files["second share"]),
    )


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def patched(payload):
    """The payload with up to three of its keys set to arbitrary JSON values."""
    patch = st.dictionaries(st.sampled_from(sorted(payload)), JSON_VALUES, max_size=3)
    return patch.map(lambda changes: {**payload, **changes})


@pytest.fixture(scope="module")
def reference_files(tmp_path_factory):
    """Reference params plus a deal: the files an authorized reconstruct reads."""
    tmp_path = tmp_path_factory.mktemp("fuzz")
    params = tmp_path / "params.json"
    assert main(["gen-params", "--p", "11", "--levels", "3,4", "--thresholds", "2,3",
                 "--degrees", "1x7", "--seed", "1", "--out", str(params)]) == 0
    assert main(["deal", "--params", str(params), "--secret", "3", "--seed", "2",
                 "--out-dir", str(tmp_path / "deal")]) == 0
    return {
        "params": params,
        "bulletin": tmp_path / "deal" / "bulletin.json",
        "share": tmp_path / "deal" / "share_001.json",
        "second share": tmp_path / "deal" / "share_002.json",
    }


class TestFileFormats:
    def test_share_and_bulletin_round_trip(self, tmp_path, capsys):
        params_path = gen_reference_params(tmp_path, capsys)
        out_dir = tmp_path / "deal"
        run(capsys, "deal", "--params", str(params_path), "--secret", "3",
            "--seed", "2", "--out-dir", str(out_dir))
        _, params = load_params(params_path)
        share = load_share(out_dir / "share_001.json", params.p)
        assert share.participant == 1
        twice = tmp_path / "share_copy.json"
        save_share(twice, share)
        assert twice.read_bytes() == (out_dir / "share_001.json").read_bytes()
        bulletin = load_bulletin(out_dir / "bulletin.json", params.p)
        assert (1, 1) in bulletin

    def test_bulletin_byte_round_trip(self, tmp_path, capsys):
        params_path = gen_reference_params(tmp_path, capsys)
        out_dir = tmp_path / "deal"
        run(capsys, "deal", "--params", str(params_path), "--secret", "3",
            "--seed", "2", "--out-dir", str(out_dir))
        _, params = load_params(params_path)
        from crtdhss.fileio import save_bulletin

        bulletin = load_bulletin(out_dir / "bulletin.json", params.p)
        copy = tmp_path / "bulletin_copy.json"
        save_bulletin(copy, bulletin)
        assert copy.read_bytes() == (out_dir / "bulletin.json").read_bytes()

    def test_invalid_params_file_rejected_on_load(self, tmp_path, capsys):
        params_path = gen_reference_params(tmp_path, capsys)
        data = json.loads(params_path.read_text())
        data["moduli"] = data["moduli"][:-1]  # count no longer matches n
        bad = tmp_path / "bad_params.json"
        bad.write_text(json.dumps(data))
        code, _, err = run(
            capsys,
            "deal",
            "--params", str(bad),
            "--secret", "3",
            "--seed", "2",
            "--out-dir", str(tmp_path / "d"),
        )
        assert code == 2
        assert "participant_count" in err
        for key in ("level_sizes", "thresholds", "moduli"):
            data = json.loads(params_path.read_text())
            data[key] = 3
            bad.write_text(json.dumps(data))
            code, _, err = run(capsys, "deal", "--params", str(bad), "--secret", "3",
                               "--seed", "2", "--out-dir", str(tmp_path / "d"))
            assert code == 2
            assert f"{key} must be an array" in err

    def test_malformed_bulletin_rejected_on_load(self, tmp_path, capsys):
        params_path = gen_reference_params(tmp_path, capsys)
        out_dir = tmp_path / "deal"
        run(capsys, "deal", "--params", str(params_path), "--secret", "3",
            "--seed", "2", "--out-dir", str(out_dir))
        bad = tmp_path / "bad_bulletin.json"
        for entries in ({}, [7], [["level", 1]]):
            bad.write_text(json.dumps({"format_version": 1, "entries": entries}))
            code, _, err = run(capsys, "reconstruct", "--params", str(params_path),
                               "--bulletin", str(bad), str(out_dir / "share_001.json"),
                               str(out_dir / "share_002.json"))
            assert code == 2
            assert "error:" in err

    def test_table_backend_above_field_limit_refused_on_load(self, tmp_path, capsys):
        # what gen-params wrote before it refused such a file itself
        path = gen_reference_params(tmp_path, capsys, extra=("--p", str(2**61 - 1)))
        data = json.loads(path.read_text())
        data.update(hash_backend="table", table_seed=5)
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="table hash backend needs p <= 1048576"):
            load_params(path)
        code, _, err = run(capsys, "deal", "--params", str(path), "--secret", "3",
                           "--seed", "2", "--out-dir", str(tmp_path / "d"))
        assert code == 2
        assert "table hash backend needs p" in err

    @pytest.mark.parametrize("kind", ["params", "bulletin", "share"])
    def test_deeply_nested_json_exit_2(self, tmp_path, capsys, reference_files, kind):
        # json.loads raises RecursionError here, which used to escape as a traceback
        files = dict(reference_files)
        files[kind] = tmp_path / "deep.json"
        files[kind].write_text("[" * 100_000)
        code, _, err = run(capsys, *reconstruct_argv(files))
        assert code == 2
        assert "deep.json: JSON nested too deeply" in err

    @pytest.mark.parametrize(
        "kind, edit, message",
        [
            ("share", lambda d: d.update(coeffs=["11"]), "share: coefficient 11 outside [0, 11)"),
            ("share", lambda d: d.update(participant=0), "participant and level are 1-based"),
            (
                "bulletin",
                lambda d: d["entries"].append(d["entries"][0]),
                "duplicate entry for (1, 1)",
            ),
        ],
    )
    def test_malformed_file_exit_2(self, tmp_path, capsys, reference_files, kind, edit, message):
        payload = json.loads(reference_files[kind].read_text())
        edit(payload)
        files = dict(reference_files)
        files[kind] = tmp_path / f"{kind}.json"
        files[kind].write_text(json.dumps(payload))
        code, out, err = run(capsys, *reconstruct_argv(files))
        assert code == 2
        assert out == ""
        assert message in err

    def test_unknown_format_version_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 99}')
        code, _, _ = run(capsys, "reconstruct", "--params", str(bad),
                         "--bulletin", str(bad), str(bad))
        assert code == 2


class TestLoaderFuzz:
    """Any JSON written as a params, bulletin or share file maps to an exit code."""

    @pytest.mark.parametrize("kind", ["params", "bulletin", "share"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_documented_exit_code_and_no_traceback(self, reference_files, kind, data):
        payload = json.loads(reference_files[kind].read_text())
        candidates = [JSON_VALUES, patched(payload)]
        if kind == "bulletin":
            record = payload["entries"][0]
            candidates.append(
                patched(record).map(
                    lambda r: {**payload, "entries": [r, *payload["entries"][1:]]}
                )
            )
        value = data.draw(st.one_of(candidates))
        files = dict(reference_files)
        files[kind] = reference_files["params"].parent / f"fuzz_{kind}.json"
        files[kind].unlink(missing_ok=True)  # a fresh file: rewriting one in place can wait on a flush
        files[kind].write_text(json.dumps(value))
        assert main(list(reconstruct_argv(files))) in (0, 2, 4, 5)


# sha256 of every file the seeded flows in TestGoldenBytes write. Identical
# seeds must give byte-identical files across versions, not only across
# reruns; a mismatch means a seeded output byte changed.
GOLDEN_SHA256 = {
    "analyze_coalition.json": "ece48f6790370d18b371661de78a40bd47ca9e8ab42f7351b7a0548486f20ace",
    "analyze_full.json": "e9f5c77d36a20d2d5c11f71f23efd7124e6596d6964970ca634e874869fcbd20",
    "deal/bulletin.json": "d0b163378c574716cd2104eb77f832d4ca7fa1cb61c5836a2a0d79639ece1997",
    "deal/share_001.json": "c69e80a7873ea17f01072724329ec18b48774cbbb9a8db126f2f2e0dc1c03a2c",
    "deal/share_002.json": "a9468c21e38f2994d43d2cb314c04f8eb3835320d55524a1a764b3c219ad11d9",
    "deal/share_003.json": "53c7a34c219acd012c5163bb00fae2c8498127cc6205fdd86499b515b3fa38c9",
    "deal/share_004.json": "f82c1befd65b1cfd9891adedafcc4a91ce19c306b571ba54bc58e5bd41be7fd3",
    "deal/share_005.json": "50da5c08f3e63668a37a0b35aa6d5dd94b3d05940926194629b524ef762c7e73",
    "deal/share_006.json": "e9554a994cbf8c023e1116db4252989844d86b5815059395b868b4de5d111734",
    "deal/share_007.json": "7978fe4d769d46019659811db6debd20b48a878ff6b386a49ca00058ea7abe51",
    "params.json": "7cbb3434bf3d443bfa98a4c84b2ba883b3c1a2e52046635c1b02038954bf1629",
    "table_params.json": "5f3a181b9ba404743aef3177010e1dce0917c2d0ee554be12b59e64e960190d0",
    "yang/masks.json": "6f952ee6147345b3ef1d3d867d7b32a947604ad63d9735ad9c4d564262f581e3",
    "yang/share_001.json": "c69e80a7873ea17f01072724329ec18b48774cbbb9a8db126f2f2e0dc1c03a2c",
    "yang/share_002.json": "b49e953aa8ddbbc25b47ef7e12d1ec403c289a3911442fe0e467b8b864c3fd82",
    "yang/share_003.json": "4cb764dc058fced5db5e6bd132536eb6550f7f2e6b5c2b8fcb37c2d8d6e02550",
    "yang/share_004.json": "cacbc8506ded4dcade349ecad21f8442c2c5b533668e83df53aef0889fe30be5",
    "yang/share_005.json": "e99bfa41d6381d30cb56f1312208cd3deb9b016ad7e64386de031e3781c4c85c",
    "yang/share_006.json": "e0ceb5c2b7c9fb957a938e598a30d2163f131cecb61f9486bfb4ac472392d052",
    "yang/share_007.json": "48c3e6fc61ffea38b108b3c1662eb3725a01dcb30d536468311cf6af4d50bac6",
}


class TestGoldenBytes:
    def test_seeded_outputs_match_recorded_digests(self, tmp_path, capsys):
        params = str(tmp_path / "params.json")
        table_params = str(tmp_path / "table_params.json")
        flows = [
            ("gen-params", "--p", "11", "--levels", "3,4", "--thresholds", "2,3",
             "--degrees", "1x7", "--seed", "1", "--out", params),
            ("gen-params", "--p", "3", "--levels", "1,2", "--thresholds", "1,2",
             "--degrees", "1,2,2", "--seed", "1", "--hash-backend", "table",
             "--table-seed", "2", "--out", table_params),
            ("deal", "--params", params, "--secret", "3", "--seed", "2",
             "--out-dir", str(tmp_path / "deal")),
            ("deal", "--params", params, "--secret", "6", "--seed", "3",
             "--out-dir", str(tmp_path / "yang"), "--yang"),
        ] + [
            ("analyze", "--params", table_params, "--coalition", "2", "--mode", mode,
             "--seed", "4", "--report", str(tmp_path / f"analyze_{mode}.json"))
            for mode in ("coalition", "full")
        ]
        for argv in flows:
            assert run(capsys, *argv)[0] == 0
        written = {
            path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.rglob("*")
            if path.is_file()
        }
        assert written == GOLDEN_SHA256


# gen-params files whose moduli come from the random Ben-Or search at p = 2**61 - 1:
# the cli_ceremony benchmark's profile, and one mixing degrees 3, 5 and 8.
GOLDEN_MODULI_SHA256 = {
    "4x16": (
        ["--d0", "4", "--levels", "6,10", "--thresholds", "3,6", "--degrees", "4x16", "--seed", "3"],
        "811768c465dc7987f54ec41dfa517393028546df9f45387280062c1dde00dce9",
    ),
    "3,5,8": (
        ["--d0", "3", "--levels", "3", "--thresholds", "3", "--degrees", "3,5,8", "--seed", "5"],
        "35a9e3722d133e8033ca17e9dc26f878082d67e0977b3a75122a9ec51a7242e9",
    ),
}


class TestGoldenModuli:
    @pytest.mark.parametrize("profile", GOLDEN_MODULI_SHA256)
    def test_seeded_random_search_matches_recorded_digest(self, tmp_path, capsys, profile):
        argv, digest = GOLDEN_MODULI_SHA256[profile]
        out = tmp_path / "params.json"
        assert run(capsys, "gen-params", "--p", str(2**61 - 1), *argv, "--out", str(out))[0] == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
