"""zionlint: rule triggers, pragma handling, baseline round-trip, live tree.

Fixtures are inline source files written under ``tmp_path`` in
directories named after the domains the engine routes on (``hyp/``,
``sm/``, ``mem/``), so each rule family is exercised both ways: code
that must trigger it and the minimal validated variant that must not.
"""

import json
import textwrap

import pytest

from repro.__main__ import main as cli_main
from repro.lint import run_lint, load_baseline, save_baseline
from repro.lint.engine import default_baseline_path


def _write(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def _rules(report):
    return sorted({f.rule for f in report.new})


# -- ZL1: trust boundary ---------------------------------------------------


class TestZL1Boundary:
    def test_private_import_and_attr_flagged(self, tmp_path):
        _write(
            tmp_path,
            "hyp/bad.py",
            """
            import repro.sm.monitor
            from repro.sm.cvm import ConfidentialVm

            def adopt(monitor, cvm_id):
                return monitor.cvms[cvm_id]
            """,
        )
        report = run_lint([tmp_path])
        messages = [f.message for f in report.new]
        assert all(f.rule == "ZL1" for f in report.new)
        assert any("repro.sm.monitor" in m for m in messages)
        assert any("ConfidentialVm" in m for m in messages)
        assert any(".cvms" in m for m in messages)

    def test_sanctioned_surface_passes(self, tmp_path):
        _write(
            tmp_path,
            "hyp/good.py",
            """
            from repro.sm.abi import EXT_ZION_HOST, HostFunction, SbiError
            from repro.sm.cvm import GpaLayout
            from repro.sm.vcpu import SHARED_VCPU_FIELDS

            def adopt(monitor, cvm_id):
                descriptor = monitor.ecall_describe_cvm(cvm_id)
                return descriptor.layout, descriptor.vcpu_count
            """,
        )
        assert run_lint([tmp_path]).new == []

    def test_whole_package_import_flagged(self, tmp_path):
        _write(tmp_path, "guest/bad.py", "from repro import sm\n")
        report = run_lint([tmp_path])
        assert [f.rule for f in report.new] == ["ZL1"]

    def test_str_split_is_not_the_split_table_manager(self, tmp_path):
        _write(
            tmp_path,
            "workloads/ok.py",
            """
            def parse(line):
                return line.split(",")
            """,
        )
        assert run_lint([tmp_path]).new == []
        _write(
            tmp_path,
            "workloads/bad.py",
            """
            def meddle(monitor, cvm, gpa, pa, alloc):
                monitor.split.map_private(cvm, gpa, pa, alloc)
            """,
        )
        report = run_lint([tmp_path])
        assert any(f.rule == "ZL1" and ".split" in f.message for f in report.new)


# -- ZL2: check-after-load taint -------------------------------------------


class TestZL2Taint:
    def test_tainted_index_and_range_flagged(self, tmp_path):
        _write(
            tmp_path,
            "sm/bad.py",
            """
            class Monitor:
                def ecall_poke(self, vcpu_id, count):
                    slot = self.slots[vcpu_id]
                    for i in range(count):
                        slot += i
                    return slot
            """,
        )
        report = run_lint([tmp_path])
        messages = [f.message for f in report.new]
        assert all(f.rule == "ZL2" for f in report.new)
        assert any("vcpu_id" in m and "index" in m for m in messages)
        assert any("count" in m and "range" in m for m in messages)

    def test_guard_validates_for_fall_through(self, tmp_path):
        _write(
            tmp_path,
            "sm/good.py",
            """
            class Monitor:
                def ecall_poke(self, vcpu_id, count):
                    if not 0 <= vcpu_id < len(self.slots):
                        raise ValueError(vcpu_id)
                    if count > 64:
                        raise ValueError(count)
                    total = 0
                    for i in range(count):
                        total += self.slots[vcpu_id]
                    return total
            """,
        )
        assert run_lint([tmp_path]).new == []

    def test_sanitizer_call_cleans_names(self, tmp_path):
        _write(
            tmp_path,
            "sm/good2.py",
            """
            class Monitor:
                def ecall_map(self, cvm_id, gpa):
                    self._validate_window_gpa(gpa)
                    cvm = self._cvm(cvm_id)
                    return self.windows[gpa]
            """,
        )
        assert run_lint([tmp_path]).new == []

    def test_shared_load_branch_flagged_but_guard_ok(self, tmp_path):
        _write(
            tmp_path,
            "sm/shared.py",
            """
            class Switch:
                def resume(self, shared):
                    cause = shared.sm_read("exit_cause")
                    if cause == 7:
                        self.fire()
            """,
        )
        report = run_lint([tmp_path])
        assert any(
            f.rule == "ZL2" and "branch" in f.message for f in report.new
        )
        _write(
            tmp_path,
            "sm/shared.py",
            """
            class Switch:
                def resume(self, shared):
                    cause = shared.sm_read("exit_cause")
                    if cause not in (21, 23):
                        raise ValueError(cause)
                    if cause == 21:
                        self.fire()
            """,
        )
        assert run_lint([tmp_path]).new == []

    def test_bulk_reply_load_is_a_source(self, tmp_path):
        """Every word the one-read reply load returns is tainted."""
        _write(
            tmp_path,
            "sm/reply.py",
            """
            class Validator:
                def validate(self, secure, shared):
                    index, value, advance, irq = shared.sm_read_reply()
                    secure.gprs[index] = value
            """,
        )
        report = run_lint([tmp_path])
        assert any(
            f.rule == "ZL2" and "subscript" in f.message for f in report.new
        )

    def test_tainted_address_to_raw_memory_flagged(self, tmp_path):
        _write(
            tmp_path,
            "sm/raw.py",
            """
            class Monitor:
                def ecall_peek(self, addr):
                    return self._dram.read_u64(addr)
            """,
        )
        report = run_lint([tmp_path])
        assert any(
            f.rule == "ZL2" and "raw" in f.message for f in report.new
        )

    def test_written_content_is_not_a_sink(self, tmp_path):
        # Host-supplied *data* may be written by design (image loading);
        # only the address/length positions are Check-after-Load's concern.
        _write(
            tmp_path,
            "sm/content.py",
            """
            class Monitor:
                def ecall_fill(self, data):
                    self.ledger.charge(1, len(data))
                    self._dram.write(self.scratch_base, data)
            """,
        )
        assert run_lint([tmp_path]).new == []


# -- ZL3: charging discipline ----------------------------------------------


class TestZL3Charging:
    def test_uncharged_raw_access_flagged(self, tmp_path):
        _write(
            tmp_path,
            "sm/touch.py",
            """
            class Thing:
                def peek(self):
                    return self._dram.read_u64(self.base)
            """,
        )
        report = run_lint([tmp_path])
        assert [f.rule for f in report.new] == ["ZL3"]

    def test_charge_and_precompiled_charger_pass(self, tmp_path):
        _write(
            tmp_path,
            "sm/touch.py",
            """
            class Direct:
                def peek(self):
                    self.ledger.charge(1, 2)
                    return self._dram.read_u64(self.base)

            class Precompiled:
                def peek(self):
                    self._charge_walk()
                    return self._dram.read_u64(self.base)
            """,
        )
        assert run_lint([tmp_path]).new == []

    def test_uncharged_walk_flagged_in_mem_domain(self, tmp_path):
        _write(
            tmp_path,
            "mem/walker.py",
            """
            class T:
                def lookup(self, root, gpa):
                    return self._sv39x4.walk(self._accessor, root, gpa)
            """,
        )
        report = run_lint([tmp_path])
        assert [f.rule for f in report.new] == ["ZL3"]

    def test_exempt_module_is_skipped(self, tmp_path):
        _write(
            tmp_path,
            "mem/physmem.py",
            """
            class Dram:
                def mirror(self):
                    return self._dram.read_u64(0)
            """,
        )
        assert run_lint([tmp_path]).new == []


# -- ZL4: PMP/TLB pairing --------------------------------------------------


class TestZL4Pairing:
    def test_unflushed_mutation_flagged(self, tmp_path):
        _write(
            tmp_path,
            "sm/maps.py",
            """
            class M:
                def remap(self, cvm, gpa, pa):
                    self.split.map_private(cvm, gpa, pa, self.alloc)
            """,
        )
        report = run_lint([tmp_path])
        assert [f.rule for f in report.new] == ["ZL4"]

    def test_same_function_flush_passes(self, tmp_path):
        _write(
            tmp_path,
            "sm/maps.py",
            """
            class M:
                def remap(self, cvm, gpa, pa):
                    self.split.map_private(cvm, gpa, pa, self.alloc)
                    self.translator.sfence_page(cvm.vmid, gpa)
            """,
        )
        assert run_lint([tmp_path]).new == []

    def test_direct_callee_flush_passes(self, tmp_path):
        _write(
            tmp_path,
            "sm/maps.py",
            """
            class M:
                def remap(self, cvm, gpa, pa):
                    self.split.map_private(cvm, gpa, pa, self.alloc)
                    self._finish(cvm, gpa)

                def _finish(self, cvm, gpa):
                    self.translator.sfence_page(cvm.vmid, gpa)
            """,
        )
        assert run_lint([tmp_path]).new == []


# -- pragmas and baseline --------------------------------------------------


class TestSuppression:
    def test_pragma_on_finding_line_suppresses_and_counts(self, tmp_path):
        _write(
            tmp_path,
            "sm/touch.py",
            """
            class Thing:
                def peek(self):
                    return self._dram.read_u64(self.base)  # zionlint: disable=ZL3 charged by the caller
            """,
        )
        report = run_lint([tmp_path])
        assert report.new == []
        assert [f.rule for f in report.pragma_suppressed] == ["ZL3"]

    def test_pragma_on_def_line_suppresses(self, tmp_path):
        _write(
            tmp_path,
            "sm/touch.py",
            """
            class Thing:
                def peek(self):  # zionlint: disable=ZL3 accessor charges per PTE
                    return self._dram.read_u64(self.base)
            """,
        )
        assert run_lint([tmp_path]).new == []

    def test_pragma_for_other_rule_does_not_suppress(self, tmp_path):
        _write(
            tmp_path,
            "sm/touch.py",
            """
            class Thing:
                def peek(self):
                    return self._dram.read_u64(self.base)  # zionlint: disable=ZL1 wrong rule
            """,
        )
        assert [f.rule for f in run_lint([tmp_path]).new] == ["ZL3"]

    def test_pragma_without_reason_is_a_zl0_finding(self, tmp_path):
        _write(
            tmp_path,
            "sm/touch.py",
            """
            class Thing:
                def peek(self):
                    return self._dram.read_u64(self.base)  # zionlint: disable=ZL3
            """,
        )
        report = run_lint([tmp_path])
        assert [f.rule for f in report.new] == ["ZL0"]
        assert [f.rule for f in report.pragma_suppressed] == ["ZL3"]

    def test_baseline_round_trip(self, tmp_path):
        _write(
            tmp_path,
            "sm/touch.py",
            """
            class Thing:
                def peek(self):
                    return self._dram.read_u64(self.base)
            """,
        )
        baseline = tmp_path / "baseline.json"
        first = run_lint([tmp_path])
        assert len(first.new) == 1
        save_baseline(baseline, {f.key for f in first.new})
        second = run_lint([tmp_path], load_baseline(baseline))
        assert second.new == []
        assert [f.rule for f in second.baselined] == ["ZL3"]

    def test_baseline_key_survives_line_moves(self, tmp_path):
        source = """
        class Thing:
            def peek(self):
                return self._dram.read_u64(self.base)
        """
        _write(tmp_path, "sm/touch.py", source)
        keys = {f.key for f in run_lint([tmp_path]).new}
        _write(tmp_path, "sm/touch.py", "# a new comment line\n" + textwrap.dedent(source))
        assert {f.key for f in run_lint([tmp_path]).new} == keys


# -- CLI and live tree -----------------------------------------------------


class TestCliAndLiveTree:
    def test_cli_exits_nonzero_on_seeded_zl1_violation(self, tmp_path, capsys):
        # The pre-fix hypervisor pattern: reaching into monitor.cvms.
        _write(
            tmp_path,
            "hyp/adopt.py",
            """
            def host_adopt_cvm(monitor, cvm_id):
                cvm = monitor.cvms[cvm_id]
                return cvm
            """,
        )
        assert cli_main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "ZL1" in out and ".cvms" in out

    def test_cli_json_report(self, tmp_path, capsys):
        _write(
            tmp_path,
            "hyp/adopt.py",
            """
            def host_adopt_cvm(monitor, cvm_id):
                return monitor.cvms[cvm_id]
            """,
        )
        out_file = tmp_path / "report.json"
        rc = cli_main(
            ["lint", str(tmp_path / "hyp"), "--json", "--json-out", str(out_file)]
        )
        assert rc == 1
        stdout_payload = json.loads(capsys.readouterr().out)
        file_payload = json.loads(out_file.read_text())
        assert stdout_payload == file_payload
        assert file_payload["counts"]["new"] == {"ZL1": 1}
        (finding,) = file_payload["findings"]
        assert finding["rule"] == "ZL1"
        assert finding["why"]

    def test_cli_update_baseline_then_clean(self, tmp_path, capsys):
        _write(
            tmp_path,
            "sm/touch.py",
            """
            class Thing:
                def peek(self):
                    return self._dram.read_u64(self.base)
            """,
        )
        baseline = tmp_path / "baseline.json"
        assert (
            cli_main(
                ["lint", str(tmp_path), "--baseline", str(baseline), "--update-baseline"]
            )
            == 0
        )
        assert cli_main(["lint", str(tmp_path), "--baseline", str(baseline)]) == 0
        capsys.readouterr()

    def test_live_tree_has_no_unbaselined_findings(self):
        """The shipped tree lints clean against the committed baseline."""
        report = run_lint(None, load_baseline(default_baseline_path()))
        assert report.new == [], "\n".join(f.render() for f in report.new)

    def test_adopt_path_stays_lint_clean(self):
        """Pin the hypervisor.py:214 fix: no ZL1 findings in hyp/."""
        import repro.hyp

        from pathlib import Path

        hyp_dir = Path(repro.hyp.__file__).parent
        report = run_lint([hyp_dir])
        zl1 = [f for f in report.new if f.rule == "ZL1"]
        assert zl1 == [], "\n".join(f.render() for f in zl1)

    def test_committed_baseline_is_empty(self):
        """Every real finding was fixed or pragma'd with a reason."""
        assert load_baseline(default_baseline_path()) == set()
