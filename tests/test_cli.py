"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture()
def asm_file(tmp_path):
    path = tmp_path / "prog.asm"
    path.write_text("""
        read $1
        addi $2 $1 10
        print $2
        halt
    """)
    return str(path)


@pytest.fixture()
def minic_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text("""
        int main() { int x; read(x); print(x * 3); return 0; }
    """)
    return str(path)


@pytest.fixture()
def detector_file(tmp_path):
    path = tmp_path / "dets.txt"
    path.write_text("det(1, $(2), >=, (0))\n")
    return str(path)


class TestRunCommand:
    def test_run_bundled_workload(self, capsys):
        assert main(["run", "--workload", "factorial", "--input", "4"]) == 0
        out = capsys.readouterr().out
        assert "halted" in out and "24" in out

    def test_run_assembly_file(self, asm_file, capsys):
        assert main(["run", "--program", asm_file, "--input", "7"]) == 0
        assert "17" in capsys.readouterr().out

    def test_run_minic_file(self, minic_file, capsys):
        assert main(["run", "--minic", minic_file, "--input", "5"]) == 0
        assert "15" in capsys.readouterr().out

    def test_run_crashing_program_returns_nonzero(self, asm_file, capsys):
        # no input provided -> the read instruction crashes
        assert main(["run", "--program", asm_file]) == 1
        assert "input exhausted" in capsys.readouterr().out

    def test_exactly_one_source_required(self, asm_file):
        with pytest.raises(SystemExit):
            main(["run", "--program", asm_file, "--workload", "factorial"])
        with pytest.raises(SystemExit):
            main(["run"])


class TestAnalyzeCommand:
    def test_analyze_finds_err_outputs(self, capsys):
        code = main(["analyze", "--workload", "factorial", "--input", "5",
                     "--fault-model", "register", "--query", "err-output",
                     "--max-injections", "8", "--max-states", "5000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "injections run" in out
        assert "err-output" in out or "total solutions" in out

    def test_analyze_with_detector_file(self, asm_file, detector_file, capsys):
        code = main(["analyze", "--program", asm_file, "--input", "7",
                     "--detectors", detector_file, "--query", "crash",
                     "--max-injections", "5", "--max-states", "2000"])
        assert code == 0
        assert "query" in capsys.readouterr().out

    def test_analyze_resilient_program_reports_proof(self, tmp_path, capsys):
        path = tmp_path / "trivial.asm"
        path.write_text("print $0\nhalt\n")
        code = main(["analyze", "--program", str(path), "--query", "crash",
                     "--max-states", "2000"])
        assert code == 0
        assert "resilient" in capsys.readouterr().out


class TestConcreteCommand:
    def test_concrete_campaign(self, capsys):
        code = main(["concrete", "--workload", "factorial", "--input", "5",
                     "--max-injections", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Program outcome distribution" in out
        assert "total faults" in out


def analyze_output(capsys, *arguments):
    code = main(["analyze", "--workload", "factorial", "--query", "err-output",
                 "--max-injections", "6", "--max-states", "5000", *arguments])
    assert code == 0
    return capsys.readouterr().out


def normalized(output):
    """Strip timing and backend-identity lines (the CI smoke's projection)."""
    return [line for line in output.splitlines()
            if "elapsed seconds" not in line
            and not line.startswith(("workers", "backend"))]


class TestAnalyzeValidation:
    def test_max_injections_zero_is_rejected_with_clear_message(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--workload", "factorial", "--max-injections", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_max_injections_zero_rejected_for_concrete_too(self, capsys):
        with pytest.raises(SystemExit):
            main(["concrete", "--workload", "factorial", "--max-injections", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_chunk_size_zero_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--workload", "factorial", "--chunk-size", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_chunk_size_larger_than_sweep_runs_one_chunk(self, capsys):
        """An oversized --chunk-size must degrade to a single full chunk,
        never to empty chunks (regression for the chunking edge case)."""
        out = analyze_output(capsys, "--workers", "2", "--chunk-size", "999")
        assert "injections run             : 6" in out

    def test_backend_serial_with_workers_conflicts(self):
        with pytest.raises(SystemExit, match="serial"):
            main(["analyze", "--workload", "factorial", "--backend", "serial",
                  "--workers", "2"])

    def test_resume_requires_checkpoint(self):
        with pytest.raises(SystemExit, match="checkpoint"):
            main(["analyze", "--workload", "factorial", "--resume"])

    def test_queue_requires_distributed_backend(self, tmp_path):
        with pytest.raises(SystemExit, match="distributed"):
            main(["analyze", "--workload", "factorial", "--queue",
                  str(tmp_path / "q")])

    def test_workers_zero_requires_distributed_backend(self):
        with pytest.raises(SystemExit, match="distributed"):
            main(["analyze", "--workload", "factorial", "--workers", "0"])

    def test_workers_zero_with_distributed_requires_queue(self):
        with pytest.raises(SystemExit, match="queue"):
            main(["analyze", "--workload", "factorial", "--backend",
                  "distributed", "--workers", "0"])

    def test_chunk_size_requires_a_chunked_backend(self):
        with pytest.raises(SystemExit, match="chunk"):
            main(["analyze", "--workload", "factorial", "--chunk-size", "4"])

    def test_negative_workers_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--workload", "factorial", "--workers", "-1"])
        assert "must be >= 0" in capsys.readouterr().err

    def test_task_granularity_requires_a_task_backend(self):
        with pytest.raises(SystemExit, match="granularity"):
            main(["analyze", "--workload", "factorial",
                  "--granularity", "task"])

    def test_seed_requires_sample(self):
        with pytest.raises(SystemExit, match="--sample"):
            main(["analyze", "--workload", "factorial", "--seed", "3"])


class TestQueueLocatorValidation:
    """Unknown --queue schemes and malformed tcp:// locators must exit with
    a one-line error, not a traceback (regression)."""

    def test_worker_rejects_an_unknown_queue_scheme(self):
        with pytest.raises(SystemExit, match="unknown queue scheme 'redis'"):
            main(["worker", "--queue", "redis://localhost:6379"])

    def test_worker_rejects_a_malformed_tcp_locator(self):
        with pytest.raises(SystemExit, match="tcp://HOST:PORT"):
            main(["worker", "--queue", "tcp://nohost"])

    def test_analyze_rejects_an_unknown_queue_scheme(self):
        with pytest.raises(SystemExit, match="unknown queue scheme 'tpc'"):
            main(["analyze", "--workload", "factorial", "--backend",
                  "distributed", "--workers", "2",
                  "--queue", "tpc://localhost:1"])

    def test_analyze_rejects_a_portless_tcp_locator(self):
        with pytest.raises(SystemExit, match="tcp://HOST:PORT"):
            main(["analyze", "--workload", "factorial", "--backend",
                  "distributed", "--workers", "2", "--queue", "tcp://host"])

    def test_analyze_rejects_an_out_of_range_port(self):
        with pytest.raises(SystemExit, match="port out of range"):
            main(["analyze", "--workload", "factorial", "--backend",
                  "distributed", "--workers", "2",
                  "--queue", "tcp://host:99999"])


class TestAnalyzeBackends:
    def test_explicit_pool_backend_matches_serial(self, capsys):
        serial = analyze_output(capsys)
        pooled = analyze_output(capsys, "--backend", "pool", "--workers", "2")
        assert "backend        : pool" in pooled
        assert normalized(serial) == normalized(pooled)

    def test_distributed_backend_matches_serial(self, capsys):
        serial = analyze_output(capsys)
        distributed = analyze_output(capsys, "--backend", "distributed",
                                     "--workers", "2")
        assert "backend        : distributed" in distributed
        assert normalized(serial) == normalized(distributed)

    def test_task_granularity_on_the_pool_matches_serial(self, capsys):
        """Whole search tasks through the pool's task strategy must flatten
        back into the identical per-injection campaign output."""
        serial = analyze_output(capsys)
        tasked = analyze_output(capsys, "--backend", "pool", "--workers", "2",
                                "--granularity", "task")
        assert normalized(serial) == normalized(tasked)

    def test_checkpoint_then_resume_completes_identically(self, tmp_path,
                                                          capsys):
        journal = str(tmp_path / "ckpt.pkl")
        serial = analyze_output(capsys)
        # Partial sweep, then a resumed full sweep over the same journal.
        main(["analyze", "--workload", "factorial", "--query", "err-output",
              "--max-injections", "3", "--max-states", "5000",
              "--checkpoint", journal])
        capsys.readouterr()
        resumed = analyze_output(capsys, "--checkpoint", journal, "--resume")
        assert normalized(serial) == normalized(resumed)

    def test_shared_cache_keeps_output_identical(self, tmp_path, capsys):
        serial = analyze_output(capsys)
        cached = analyze_output(capsys, "--shared-cache",
                                str(tmp_path / "cache.db"))
        again = analyze_output(capsys, "--shared-cache",
                               str(tmp_path / "cache.db"))
        assert normalized(serial) == normalized(cached) == normalized(again)


def fault_model_output(capsys, model, *arguments, workload="memory_walk"):
    code = main(["analyze", "--workload", workload, "--query", "err-output",
                 "--fault-model", model, "--sample", "5", "--seed", "7",
                 "--max-states", "5000", *arguments])
    assert code == 0
    return capsys.readouterr().out


class TestAnalyzeFaultModels:
    @pytest.mark.parametrize("model", ["register", "memory", "control",
                                       "operand", "functional-unit", "decode",
                                       "fetch"])
    def test_every_model_sweeps_and_reports(self, model, capsys):
        out = fault_model_output(capsys, model)
        assert f"fault model    : {model}" in out
        # The printed count is the *clamped* sample size: memory_walk's
        # memory-model space is a single injection, so --sample 5 sweeps 1.
        import re
        match = re.search(r"sampled        : (\d+) \(seed 7\)", out)
        assert match is not None
        assert int(match.group(1)) <= 5
        run = re.search(r"injections run             : (\d+)", out)
        assert run is not None and int(run.group(1)) == int(match.group(1))

    def test_sampled_sweep_is_reproducible(self, capsys):
        first = fault_model_output(capsys, "operand")
        second = fault_model_output(capsys, "operand")
        assert normalized(first) == normalized(second)

    def test_fault_model_pool_backend_matches_serial(self, capsys):
        serial = fault_model_output(capsys, "register")
        pooled = fault_model_output(capsys, "register",
                                    "--backend", "pool", "--workers", "2")
        assert normalized(serial) == normalized(pooled)

    def test_fault_model_distributed_backend_matches_serial(self, capsys):
        serial = fault_model_output(capsys, "control")
        distributed = fault_model_output(capsys, "control", "--backend",
                                         "distributed", "--workers", "2")
        assert normalized(serial) == normalized(distributed)

    def test_latent_err_query_is_exposed(self, capsys):
        code = main(["analyze", "--workload", "memory_walk",
                     "--fault-model", "memory", "--query", "latent-err",
                     "--max-states", "5000"])
        assert code == 0
        assert "final state retains err" in capsys.readouterr().out


class TestResultsWarehouse:
    def test_analyze_streams_into_a_store_and_report_reads_it(
            self, tmp_path, capsys):
        db = str(tmp_path / "warehouse.sqlite")
        assert main(["analyze", "--workload", "factorial", "--query",
                     "err-output", "--max-injections", "6",
                     "--results", db]) == 0
        captured = capsys.readouterr()
        assert "results store: " in captured.err
        assert "campaign 1" in captured.err
        assert main(["report", "--results", db]) == 0
        report = capsys.readouterr().out
        assert "campaign 1" in report
        assert "workload=factorial" in report
        assert "outcome distribution (all campaigns):" in report

    def test_store_backed_output_matches_in_memory_output(self, tmp_path,
                                                          capsys):
        plain = fault_model_output(capsys, "register")
        stored = fault_model_output(
            capsys, "register",
            "--results", str(tmp_path / "warehouse.sqlite"))
        assert normalized(plain) == normalized(stored)

    def test_report_accumulates_campaigns_across_runs(self, tmp_path, capsys):
        db = str(tmp_path / "warehouse.sqlite")
        fault_model_output(capsys, "register", "--results", db)
        fault_model_output(capsys, "operand", "--results", db)
        assert main(["report", "--results", db]) == 0
        report = capsys.readouterr().out
        assert "campaign 1" in report and "campaign 2" in report
        assert main(["report", "--results", db, "--campaign", "2"]) == 0
        assert "injections run" in capsys.readouterr().out

    def test_report_on_a_missing_store_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", "--results", str(tmp_path / "missing.sqlite")])

    def test_oversized_sample_clamps_at_the_cli(self, capsys):
        with pytest.warns(RuntimeWarning, match="exceeds the enumerated"):
            code = main(["analyze", "--workload", "factorial", "--query",
                         "err-output", "--fault-model", "register",
                         "--sample", "100000", "--max-states", "5000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sampled" in out
        assert "100000" not in out  # the printed count is the clamped one


class TestIsaSelection:
    def test_isa_line_printed_only_when_selected(self, capsys):
        default = analyze_output(capsys)
        assert "isa            :" not in default
        retargeted = analyze_output(capsys, "--isa", "rv32im")
        assert "isa            : rv32im" in retargeted

    @pytest.mark.parametrize("isa", ["mips", "rv32im"])
    def test_retargeted_campaign_matches_native_sweep(self, isa, capsys):
        """Retargeting is structurally 1:1: apart from the extra header line
        and source-line provenance (witnesses quote the target ISA's assembly
        spelling), the campaign results must match the native build."""
        def masked(output):
            return [line if "source line" not in line
                    else line.split("source line")[0]
                    for line in normalized(output)
                    if not line.startswith("isa")]
        native = analyze_output(capsys)
        retargeted = analyze_output(capsys, "--isa", isa)
        assert masked(native) == masked(retargeted)

    def test_rv32im_register_pool_matches_serial(self, capsys):
        """The acceptance criterion: --isa rv32im --fault-model register is
        byte-identical across the serial and pool backends."""
        serial = analyze_output(capsys, "--isa", "rv32im",
                                "--fault-model", "register")
        pooled = analyze_output(capsys, "--isa", "rv32im",
                                "--fault-model", "register",
                                "--backend", "pool", "--workers", "2")
        assert normalized(serial) == normalized(pooled)

    def test_isa_applies_to_run_and_concrete(self, capsys):
        assert main(["run", "--workload", "factorial", "--input", "4",
                     "--isa", "rv32im"]) == 0
        assert "24" in capsys.readouterr().out
        assert main(["concrete", "--workload", "factorial",
                     "--max-injections", "4", "--isa", "rv32im"]) == 0
        capsys.readouterr()

    def test_isa_retargets_translated_mips_sources(self, tmp_path, capsys):
        path = tmp_path / "prog.s"
        path.write_text("""
        read $t0
        addi $t1, $t0, 10
        print $t1
        halt
        """)
        assert main(["run", "--mips", str(path), "--input", "7",
                     "--isa", "rv32im"]) == 0
        assert "17" in capsys.readouterr().out


class TestIsaAndFaultModelValidation:
    def test_unknown_isa_is_one_line_error_listing_registered(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--workload", "factorial", "--isa", "z80"])
        message = str(excinfo.value)
        assert "unknown ISA frontend 'z80'" in message
        assert "mips" in message and "rv32im" in message
        assert "\n" not in message.strip()

    def test_unknown_isa_rejected_for_run_too(self):
        with pytest.raises(SystemExit, match="unknown ISA frontend"):
            main(["run", "--workload", "factorial", "--isa", "z80"])

    def test_unknown_fault_model_is_one_line_error_listing_registered(
            self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--workload", "factorial",
                  "--fault-model", "gamma-ray"])
        message = str(excinfo.value)
        assert "unknown fault model 'gamma-ray'" in message
        assert "register" in message and "memory" in message
        assert "burst" in message and "bitflip" in message
        assert "\n" not in message.strip()
