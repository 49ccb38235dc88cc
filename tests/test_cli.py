"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestPlanCommand:
    def test_successful_plan(self, capsys):
        exit_code = main(
            [
                "plan",
                "book=4:9",
                "cd=2:5",
                "--supplier-trust", "0.9",
                "--consumer-trust", "0.9",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "schedulable: True" in output
        assert "delivers" in output
        assert "satisfies the requirements" in output

    def test_untrusting_plan_fails(self, capsys):
        exit_code = main(
            [
                "plan",
                "server=50:80",
                "--supplier-trust", "0.0",
                "--consumer-trust", "0.0",
                "--budget", "0.0",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 1
        assert "No schedule satisfies" in output

    def test_explicit_price(self, capsys):
        exit_code = main(["plan", "book=4:9", "--price", "6.0",
                          "--consumer-trust", "0.95", "--supplier-trust", "0.95"])
        assert exit_code == 0
        assert "price 6.000" in capsys.readouterr().out

    def test_invalid_item_spec_rejected(self, capsys):
        exit_code = main(["plan", "book"])
        assert exit_code == 2
        assert "expected name=cost:value" in capsys.readouterr().err

    def test_value_destroying_bundle_reports_error(self, capsys):
        exit_code = main(["plan", "junk=10:1"])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--price", "nan", "price must be finite"),
            ("--price", "inf", "price must be finite"),
            ("--price", "-1", "price must be finite"),
            ("--budget", "nan", "budget_fraction must be finite"),
            ("--budget", "inf", "budget_fraction must be finite"),
            ("--budget", "-0.5", "budget_fraction must be finite"),
        ],
    )
    def test_non_finite_or_negative_inputs_rejected(self, capsys, flag, value, message):
        exit_code = main(["plan", "a=4:6", "b=5:7", flag, value])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert message in captured.err
        assert captured.out == ""


class TestToleranceCommand:
    def test_reports_tolerance_and_threshold(self, capsys):
        exit_code = main(["tolerance", "task=5:10"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Required total tolerance" in output
        assert "5.000" in output
        assert "Cooperation discount threshold" in output

    def test_unsustainable_price(self, capsys):
        exit_code = main(["tolerance", "task=5:10", "--price", "11.0"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "not sustainable" in output

    @pytest.mark.parametrize("price", ["inf", "1e308"])
    def test_unbounded_price_is_an_error_not_a_hang(self, capsys, price):
        exit_code = main(["tolerance", "book=4:9", "--price", price])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["plan", "tolerance"])
    @pytest.mark.parametrize("item", ["book=4:nan", "book=4:inf", "book=-inf:9"])
    def test_non_finite_good_names_the_good(self, capsys, command, item):
        exit_code = main([command, item])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error: good 'book': ")
        assert "must be finite" in captured.err


class TestListScenariosCommand:
    def test_lists_registry_and_backends(self, capsys):
        exit_code = main(["list-scenarios"])
        output = capsys.readouterr().out
        assert exit_code == 0
        for name in ("ebay", "high-churn", "collusive-witness", "mixed-goods"):
            assert name in output
        assert "trust backends:" in output
        assert "decay" in output

    def test_tag_filter(self, capsys):
        exit_code = main(["list-scenarios", "--tag", "churn"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "high-churn" in output
        assert "mixed-goods" not in output

    def test_unknown_tag_reports_empty(self, capsys):
        exit_code = main(["list-scenarios", "--tag", "atlantis"])
        assert exit_code == 1


class TestRunCommand:
    def test_runs_small_scenario_with_strategy(self, capsys):
        exit_code = main(
            [
                "run",
                "--scenario", "ebay",
                "--size", "8",
                "--rounds", "3",
                "--strategy", "goods-first",
                "--seed", "1",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Strategy:          goods-first" in output
        assert "Honest welfare" in output

    def test_trust_aware_default_strategy(self, capsys):
        exit_code = main(["run", "--scenario", "teamwork", "--size", "8", "--rounds", "3"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Strategy:          trust-aware" in output

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", "atlantis"])

    @pytest.mark.parametrize(
        "scenario,dishonest,total",
        [
            ("p2p-file-trading", "0.5", "1.1"),
            ("ebay", "0.7", "1.05"),
            ("mixed-goods", "0.7", "1.05"),
            ("flash-crowd", "0.7", "1.05"),
            ("partition-heal", "0.7", "1.05"),
        ],
    )
    def test_overfull_population_names_scenario_fraction_and_sum(
        self, capsys, scenario, dishonest, total
    ):
        exit_code = main(
            ["run", "--scenario", scenario, "--dishonest", dishonest,
             "--size", "8", "--rounds", "2"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: scenario {scenario!r}: population fractions must sum to "
            f"at most 1, but dishonest_fraction {dishonest} brings them to "
            f"{total}\n"
        )

    def test_population_that_fits_still_runs(self, capsys):
        exit_code = main(
            ["run", "--scenario", "p2p-file-trading", "--dishonest", "0.4",
             "--size", "8", "--rounds", "2"]
        )
        assert exit_code == 0
        assert "Honest welfare" in capsys.readouterr().out

    def test_runs_scenario_with_backend(self, capsys):
        exit_code = main(
            [
                "run",
                "--scenario", "collusive-witness",
                "--backend", "complaint",
                "--size", "8",
                "--rounds", "3",
                "--seed", "1",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Backend:           complaint" in output
        assert "Attempted trades" in output

    def test_backend_defaults_to_beta(self, capsys):
        exit_code = main(
            ["run", "--scenario", "ebay", "--size", "8", "--rounds", "2"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Backend:           beta" in output

    def test_registry_backend_preference_applies_without_flag(self, capsys):
        # Scenario rows may declare a preferred backend
        # (fluctuating-behaviour stresses decay); without an explicit
        # --backend the CLI must honour it — and report it.
        exit_code = main(
            ["run", "--scenario", "fluctuating-behaviour",
             "--size", "8", "--rounds", "3"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Backend:           decay" in output
        exit_code = main(
            ["run", "--scenario", "fluctuating-behaviour",
             "--backend", "beta", "--size", "8", "--rounds", "3"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Backend:           beta" in output

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", "ebay", "--backend", "tarot"])

    def test_sharded_run_reports_shards(self, capsys):
        exit_code = main(
            [
                "run",
                "--scenario", "flash-crowd",
                "--shards", "3",
                "--shard-router", "range",
                "--size", "8",
                "--rounds", "3",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "3 shards, range router" in output

    def test_sharded_run_output_identical_to_unsharded(self, capsys):
        """--shards is a deployment knob: every reported number must match."""
        outputs = []
        for shards in ("1", "4"):
            exit_code = main(
                [
                    "run",
                    "--scenario", "p2p-file-trading",
                    "--backend", "complaint",
                    "--shards", shards,
                    "--size", "8",
                    "--rounds", "4",
                    "--seed", "2",
                ]
            )
            assert exit_code == 0
            outputs.append(capsys.readouterr().out)
        strip = lambda text: [
            line for line in text.splitlines() if not line.startswith("Backend:")
        ]
        assert strip(outputs[0]) == strip(outputs[1])

    def test_unknown_shard_router_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", "ebay", "--shard-router", "zodiac"])

    def test_rebalanced_run_reports_the_upgraded_router(self, capsys):
        """rebalance auto upgrades hash->ring; the summary must say ring."""
        exit_code = main(
            [
                "run",
                "--scenario", "flash-crowd",
                "--shards", "2",
                "--size", "8",
                "--rounds", "3",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "2 shards, ring router" in output
        assert "hash router" not in output

    def test_flash_crowd_rebalances_by_default(self, capsys):
        """The registry default turns live splitting on for flash-crowd."""
        exit_code = main(
            [
                "run",
                "--scenario", "flash-crowd",
                "--size", "16",
                "--rounds", "10",
                "--seed", "3",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Shard rebalance:" in output
        assert "live splits" in output

    def test_rebalance_off_suppresses_splits_and_changes_nothing(self, capsys):
        """Splits are score-invisible: every reported number matches."""
        outputs = []
        for flags in (["--rebalance", "off"], ["--rebalance", "auto",
                                               "--shards", "2"]):
            exit_code = main(
                [
                    "run",
                    "--scenario", "flash-crowd",
                    "--size", "12",
                    "--rounds", "8",
                    "--seed", "5",
                ]
                + flags
            )
            assert exit_code == 0
            outputs.append(capsys.readouterr().out)
        assert "Shard rebalance:" not in outputs[0]
        assert "Shard rebalance:" in outputs[1]
        strip = lambda text: [
            line
            for line in text.splitlines()
            if not line.startswith(("Backend:", "Shard rebalance:"))
        ]
        assert strip(outputs[0]) == strip(outputs[1])

    def test_invalid_rebalance_threshold_rejected(self, capsys):
        for mode in ("auto", "off"):
            exit_code = main(
                [
                    "run",
                    "--scenario", "flash-crowd",
                    "--rebalance", mode,
                    "--rebalance-threshold", "1.0",
                    "--size", "8",
                    "--rounds", "2",
                ]
            )
            assert exit_code == 2
            assert "threshold" in capsys.readouterr().err

    def test_scenario_is_required(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_async_evidence_run_reports_delivery_ratio(self, capsys):
        exit_code = main(
            [
                "run",
                "--scenario", "sybil-coalition",
                "--size", "10",
                "--rounds", "4",
                "--evidence-mode", "async",
                "--evidence-latency", "2.0",
                "--evidence-loss", "0.3",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Evidence plane:" in output
        assert "delivery ratio" in output

    def test_sync_run_omits_evidence_plane_line(self, capsys):
        exit_code = main(
            ["run", "--scenario", "ebay", "--size", "8", "--rounds", "2"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Evidence plane:" not in output

    def test_gossip_repair_reports_effective_delivery(self, capsys):
        exit_code = main(
            [
                "run",
                "--scenario", "p2p-file-trading",
                "--size", "10",
                "--rounds", "5",
                "--evidence-mode", "async",
                "--evidence-latency", "1.0",
                "--evidence-loss", "0.2",
                "--evidence-repair", "gossip",
                "--gossip-period", "2",
                "--gossip-fanout", "1",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "effective" in output
        assert "Evidence repair:   gossip:" in output
        assert "repair messages" in output
        assert "lag p50/p95" in output

    @pytest.mark.parametrize("repair", ("off", "gossip"))
    def test_lossy_flash_crowd_audit_reconciles(self, repair, capsys):
        """The async ledger audit is clean with and without repair traffic."""
        exit_code = main(
            [
                "audit",
                "--scenario", "flash-crowd",
                "--size", "12",
                "--rounds", "4",
                "--evidence-mode", "async",
                "--evidence-latency", "1",
                "--evidence-loss", "0.2",
                "--evidence-repair", repair,
                "--witnesses", "3",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "ledger_consistency" in output
        assert "verdict: CLEAN" in output

    def test_repair_without_async_rejected(self, capsys):
        exit_code = main(
            [
                "run",
                "--scenario", "ebay",
                "--size", "8",
                "--rounds", "2",
                "--evidence-repair", "gossip",
            ]
        )
        assert exit_code == 2

    def test_unknown_repair_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", "ebay", "--evidence-repair", "pigeon"])

    def test_partition_heal_upgrades_to_gossip(self, capsys):
        # The scenario is inherently async; the summary must report the
        # repair policy that actually ran, not the CLI default.
        exit_code = main(
            ["run", "--scenario", "partition-heal", "--size", "8",
             "--rounds", "4", "--seed", "1"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Evidence plane:" in output
        assert "Evidence repair:   gossip:" in output
        # One scenario name means one configuration: the row's backend.
        assert "Backend:           complaint" in output

    def test_witness_override_accepted(self, capsys):
        exit_code = main(
            [
                "run",
                "--scenario", "sybil-coalition",
                "--size", "10",
                "--rounds", "3",
                "--witnesses", "0",
            ]
        )
        assert exit_code == 0

    def test_invalid_evidence_loss_rejected(self, capsys):
        exit_code = main(
            [
                "run",
                "--scenario", "ebay",
                "--size", "8",
                "--rounds", "2",
                "--evidence-mode", "async",
                "--evidence-loss", "1.5",
            ]
        )
        assert exit_code == 2

    @pytest.mark.parametrize("command", ("run", "audit"))
    @pytest.mark.parametrize(
        "flags",
        (
            ["--evidence-mode", "async", "--evidence-latency", "inf"],
            ["--evidence-mode", "async", "--evidence-latency", "nan"],
            ["--dishonest", "nan"],
            ["--dishonest", "inf"],
            ["--evidence-mode", "async", "--evidence-repair", "gossip",
             "--gossip-period", "nan"],
        ),
        ids=("latency-inf", "latency-nan", "dishonest-nan", "dishonest-inf",
             "gossip-period-nan"),
    )
    def test_non_finite_inputs_rejected(self, command, flags, capsys):
        """A non-finite number is a usage error, not a traceback or a NaN run."""
        exit_code = main(
            [command, "--scenario", "ebay", "--size", "8", "--rounds", "2", *flags]
        )
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", ("run", "audit"))
    def test_worker_flag_is_rejected(self, command, capsys):
        """The shared store runs in-process only; there is no worker knob."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                [command, "--scenario", "flash-crowd", "--workers", "2"]
            )
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ("run", "audit"))
    @pytest.mark.parametrize(
        "flags",
        (
            ["--evidence-repair", "retransmit"],
            ["--retransmit-timeout", "1.0"],
        ),
        ids=("retransmit-repair", "retransmit-timeout"),
    )
    def test_retransmit_flags_are_rejected(self, command, flags, capsys):
        """Gossip is the one repair protocol; there is no retransmit knob."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                [command, "--scenario", "ebay", "--evidence-mode", "async", *flags]
            )
        assert excinfo.value.code == 2
        assert flags[0] in capsys.readouterr().err

    @pytest.mark.parametrize("command", ("run", "audit"))
    def test_cache_scores_flag_is_rejected(self, command, capsys):
        """The score cache is always on; there is no cache knob."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                [command, "--scenario", "ebay", "--cache-scores", "on"]
            )
        assert excinfo.value.code == 2
        assert "--cache-scores" in capsys.readouterr().err

    def test_strategy_choices_cover_all_baselines(self):
        parser = build_parser()
        args = parser.parse_args(
            ["run", "--scenario", "ebay", "--strategy", "alternating"]
        )
        assert args.strategy == "alternating"

    @pytest.mark.parametrize("value", ["nan", "inf", "1.0"])
    def test_rebalance_threshold_must_be_finite_and_above_one(self, capsys, value):
        exit_code = main(
            ["run", "--scenario", "ebay", "--size", "6", "--rounds", "2",
             "--rebalance-threshold", value]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "rebalance_threshold must be finite and > 1" in captured.err
        assert captured.out == ""

    def test_run_accepts_every_registered_scenario(self):
        from repro.workloads import scenario_names

        parser = build_parser()
        for name in scenario_names():
            args = parser.parse_args(["run", "--scenario", name])
            assert args.scenario == name
