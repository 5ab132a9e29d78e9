"""zionlint v2: interprocedural ZL2, path-sensitive ZL3, ZL5 discipline.

Same inline-fixture idiom as ``test_zionlint.py``: each case seeds a
minimal module under a routed domain directory and asserts the deeper
engine both *fires* where v1 was blind (taint through call hops,
charge-divergent branches, seam-bypassing mutation) and *stays quiet*
where the call graph proves the code sound (derived validators, charged
accessors, caller-side charging).
"""

import textwrap

from repro.lint import run_lint


def _write(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def _rules(report):
    return sorted({f.rule for f in report.new})


# -- ZL2: interprocedural taint --------------------------------------------


class TestZL2Interprocedural:
    def test_taint_through_one_call_hop_hits_raw_mem(self, tmp_path):
        _write(
            tmp_path,
            "sm/one_hop.py",
            """
            class Monitor:
                def __init__(self, dram):
                    self._dram = dram

                def _read_guest_buffer(self, addr):
                    return self._dram.read(addr, 8)

                def ecall_copy(self, addr):
                    return self._read_guest_buffer(addr)
            """,
        )
        report = run_lint([tmp_path])
        hits = [f for f in report.new if f.rule == "ZL2"]
        assert len(hits) == 1
        assert hits[0].func == "Monitor.ecall_copy"
        assert "_read_guest_buffer" in hits[0].message

    def test_taint_through_two_call_hops(self, tmp_path):
        _write(
            tmp_path,
            "sm/two_hops.py",
            """
            class Monitor:
                def __init__(self, dram):
                    self._dram = dram

                def _inner(self, addr):
                    return self._dram.read_u64(addr)

                def _outer(self, addr):
                    return self._inner(addr)

                def ecall_peek(self, addr):
                    return self._outer(addr)
            """,
        )
        report = run_lint([tmp_path])
        hits = [f for f in report.new if f.rule == "ZL2"]
        assert [f.func for f in hits] == ["Monitor.ecall_peek"]
        assert "_outer" in hits[0].message

    def test_callee_guard_validates_caller_argument(self, tmp_path):
        _write(
            tmp_path,
            "sm/derived.py",
            """
            class Monitor:
                def __init__(self, dram):
                    self._dram = dram

                def _guest_pa(self, gpa):
                    if gpa > 4096:
                        raise ValueError("gpa out of range")
                    return 1000 + gpa

                def ecall_read(self, gpa):
                    pa = self._guest_pa(gpa)
                    return self._dram.read_u64(gpa)
            """,
        )
        report = run_lint([tmp_path])
        assert [f for f in report.new if f.rule == "ZL2"] == []

    def test_return_taint_propagates_to_range_sink(self, tmp_path):
        _write(
            tmp_path,
            "sm/ret_taint.py",
            """
            class Monitor:
                def _passthrough(self, n):
                    return n

                def ecall_fill(self, n):
                    total = 0
                    count = self._passthrough(n)
                    for i in range(count):
                        total += i
                    return total
            """,
        )
        report = run_lint([tmp_path])
        hits = [f for f in report.new if f.rule == "ZL2"]
        assert len(hits) == 1
        assert "range" in hits[0].message

    def test_shared_property_read_is_branch_sensitive(self, tmp_path):
        _write(
            tmp_path,
            "sm/prop.py",
            """
            class Ring:
                def __init__(self, ctx, base):
                    self.ctx = ctx
                    self.base = base

                @property
                def prod(self):
                    return self.ctx.load(self.base)

                def drain(self):
                    counter = self.prod
                    if counter > 4:
                        out = 1
                    else:
                        out = 0
                    return out
            """,
        )
        report = run_lint([tmp_path])
        hits = [f for f in report.new if f.rule == "ZL2"]
        assert len(hits) == 1
        assert "branch" in hits[0].message or "counter" in hits[0].message

    def test_unclamped_ring_header_word_from_a_direct_load(self, tmp_path):
        # The ring reads its header words with ``ctx.load`` itself, directly
        # or through a local alias, not through a property: both are
        # still shared-memory sources.
        _write(
            tmp_path,
            "ipc/ring_words.py",
            """
            class Ring:
                def __init__(self, ctx, base, data):
                    self.ctx = ctx
                    self.base = base
                    self.data = data

                def direct(self):
                    prod = self.ctx.load(self.base)
                    return self.data[prod]

                def aliased(self):
                    load = self.ctx.load
                    cons = load(self.base + 8)
                    return self.data[cons]

                def clamped(self):
                    load = self.ctx.load
                    pos = load(self.base + 8) % 64
                    return self.data[pos]
            """,
        )
        report = run_lint([tmp_path])
        hits = sorted(f.func for f in report.new if f.rule == "ZL2")
        assert hits == ["Ring.aliased", "Ring.direct"]


# -- ZL3: path-sensitive charging ------------------------------------------


class TestZL3PathSensitive:
    def test_charge_on_one_branch_no_longer_excuses_sibling(self, tmp_path):
        _write(
            tmp_path,
            "sm/divergent.py",
            """
            class Store:
                def __init__(self, dram, ledger):
                    self._dram = dram
                    self._ledger = ledger

                def op(self, fast, addr):
                    if fast:
                        self._ledger.charge(1, 2)
                    else:
                        fast = not fast
                    return self._dram.read_u64(addr)
            """,
        )
        report = run_lint([tmp_path])
        assert _rules(report) == ["ZL3"]

    def test_charge_on_both_branches_covers_the_touch(self, tmp_path):
        _write(
            tmp_path,
            "sm/converged.py",
            """
            class Store:
                def __init__(self, dram, ledger):
                    self._dram = dram
                    self._ledger = ledger

                def op(self, fast, addr):
                    if fast:
                        self._ledger.charge(1, 2)
                    else:
                        self._ledger.charge(1, 3)
                    return self._dram.read_u64(addr)
            """,
        )
        report = run_lint([tmp_path])
        assert report.new == []

    def test_all_charging_callers_cover_a_helper(self, tmp_path):
        _write(
            tmp_path,
            "sm/callers.py",
            """
            class Store:
                def __init__(self, dram, ledger):
                    self._dram = dram
                    self._ledger = ledger

                def _slot_read(self, addr):
                    return self._dram.read_u64(addr)

                def fill(self, addr):
                    self._ledger.charge(1, 8)
                    return self._slot_read(addr)
            """,
        )
        report = run_lint([tmp_path])
        assert report.new == []

    def test_uncharged_caller_keeps_the_helper_flagged(self, tmp_path):
        _write(
            tmp_path,
            "sm/bad_caller.py",
            """
            class Store:
                def __init__(self, dram, ledger):
                    self._dram = dram
                    self._ledger = ledger

                def _slot_read(self, addr):
                    return self._dram.read_u64(addr)

                def fill(self, addr):
                    self._ledger.charge(1, 8)
                    return self._slot_read(addr)

                def peek(self, addr):
                    return self._slot_read(addr)
            """,
        )
        report = run_lint([tmp_path])
        assert _rules(report) == ["ZL3"]
        assert [f.func for f in report.new] == ["Store._slot_read"]

    def test_accessor_class_charged_by_its_walk_sites(self, tmp_path):
        _write(
            tmp_path,
            "sm/accessor.py",
            """
            class _Acc:
                def __init__(self, dram):
                    self._dram = dram

                def read_u64(self, addr):
                    return self._dram.read_u64(addr)

                def write_u64(self, addr, value):
                    self._dram.write_u64(addr, value)

            class Mgr:
                def __init__(self, dram, ledger, sv):
                    self._acc = _Acc(dram)
                    self._sv39x4 = sv
                    self._ledger = ledger

                def map_page(self, gpa, pa):
                    self._ledger.charge(3, 4)
                    self._sv39x4.map(self._acc, gpa, pa)
            """,
        )
        report = run_lint([tmp_path])
        assert report.new == []

    def test_bound_dram_method_is_a_typed_touch(self, tmp_path):
        _write(
            tmp_path,
            "sm/bound.py",
            """
            class Store:
                def __init__(self, dram):
                    self._poke_slot = dram.write_u64

                def poke(self, addr):
                    self._poke_slot(addr, 1)
            """,
        )
        report = run_lint([tmp_path])
        assert _rules(report) == ["ZL3"]
        assert report.new[0].func == "Store.poke"


# -- ZL5: concurrency discipline -------------------------------------------


class TestZL5Concurrency:
    def test_foreign_guarded_mutation_flagged_self_ok(self, tmp_path):
        _write(
            tmp_path,
            "sm/epoch.py",
            """
            class Monitor:
                def kick(self, split):
                    split.map_generation += 1

                def own(self):
                    self.map_generation += 1
            """,
        )
        report = run_lint([tmp_path])
        hits = [f for f in report.new if f.rule == "ZL5"]
        assert [f.func for f in hits] == ["Monitor.kick"]
        assert "map_generation" in hits[0].message

    def test_container_mutations_on_guarded_attrs_flagged(self, tmp_path):
        _write(
            tmp_path,
            "hyp/registry.py",
            """
            class Hyp:
                def stomp(self, handle, cvm):
                    handle.shared_subtrees.clear()
                    cvm.shared_subtrees[3] = 1
            """,
        )
        report = run_lint([tmp_path])
        hits = [f for f in report.new if f.rule == "ZL5"]
        assert len(hits) == 2

    def test_designated_seam_function_is_allowed(self, tmp_path):
        _write(
            tmp_path,
            "sm/share.py",
            """
            class SplitTableManager:
                def link_shared_subtree(self, cvm, root_index, table_pa):
                    cvm.shared_subtrees[root_index] = table_pa
            """,
        )
        report = run_lint([tmp_path])
        assert [f for f in report.new if f.rule == "ZL5"] == []

    def test_global_rebinding_flagged(self, tmp_path):
        _write(
            tmp_path,
            "sm/globals.py",
            """
            EPOCH = 0

            def bump():
                global EPOCH
                EPOCH += 1
            """,
        )
        report = run_lint([tmp_path])
        hits = [f for f in report.new if f.rule == "ZL5"]
        assert len(hits) == 1
        assert "global EPOCH" in hits[0].message

    def test_wall_clock_and_import_flagged_in_simulated_path(self, tmp_path):
        _write(
            tmp_path,
            "mem/clocky.py",
            """
            import time

            def stamp():
                return time.monotonic()
            """,
        )
        report = run_lint([tmp_path])
        hits = [f for f in report.new if f.rule == "ZL5"]
        assert len(hits) == 2
        assert any("import time" in f.message for f in hits)
        assert any("time.monotonic" in f.message for f in hits)

    def test_cycle_ledger_is_a_simulated_path(self, tmp_path):
        """``cycles/`` holds the ledger and its event sink slot."""
        _write(
            tmp_path,
            "cycles/stamped.py",
            """
            import time

            def record(events, kind):
                events.record(kind, wall=time.time())
            """,
        )
        report = run_lint([tmp_path])
        hits = [f for f in report.new if f.rule == "ZL5"]
        assert len(hits) == 2
        assert any("time.time" in f.message for f in hits)

    def test_live_tree_is_zl5_clean(self):
        report = run_lint(None)
        findings = report.new + report.pragma_suppressed + report.baselined
        assert [f for f in findings if f.rule == "ZL5"] == []


# -- ZL1: raw-DRAM denial ----------------------------------------------------


class TestZL1RawDram:
    def test_raw_dram_attribute_denied_in_hyp(self, tmp_path):
        _write(
            tmp_path,
            "hyp/scrub.py",
            """
            class Host:
                def __init__(self, bus):
                    self.bus = bus

                def scrub(self, pa):
                    self.bus.dram.zero_range(pa, 4096)
            """,
        )
        report = run_lint([tmp_path])
        hits = [f for f in report.new if f.rule == "ZL1"]
        assert len(hits) == 1
        assert ".dram" in hits[0].message
        assert "PMP" in hits[0].why

    def test_checked_bus_scrub_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "hyp/scrub_ok.py",
            """
            class Host:
                def __init__(self, bus, hart):
                    self.bus = bus
                    self.hart = hart

                def scrub(self, pa):
                    self.bus.cpu_zero_range(self.hart, pa, 4096)
            """,
        )
        report = run_lint([tmp_path])
        assert [f for f in report.new if f.rule == "ZL1"] == []


# -- diff-aware / strict CLI and the baseline ratchet ------------------------


class TestDiffAwareAndStrict:
    def test_only_filter_restricts_reporting_not_analysis(self, tmp_path):
        for name in ("alpha", "beta"):
            _write(
                tmp_path,
                f"hyp/{name}.py",
                """
                def leak(monitor):
                    return monitor.cvms
                """,
            )
        full = run_lint([tmp_path])
        assert len(full.new) == 2
        keep = full.new[0].path
        filtered = run_lint([tmp_path], only={keep})
        assert [f.path for f in filtered.new] == [keep]
        assert filtered.files == 1

    def test_cli_changed_mode_is_clean_on_live_tree(self):
        from repro.__main__ import main as cli_main

        assert cli_main(["lint", "--changed", "HEAD"]) == 0

    def test_cli_changed_bad_ref_is_usage_error(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["lint", "--changed", "not-a-real-ref"]) == 2
        assert "git diff" in capsys.readouterr().err

    def test_cli_strict_live_tree_still_clean(self):
        # The committed baseline is empty, so strict mode must agree
        # with the normal gate on the live tree.
        from repro.__main__ import main as cli_main

        assert cli_main(["lint", "--strict"]) == 0

    def test_cli_strict_denies_baselined_findings(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        _write(
            tmp_path,
            "hyp/leaky.py",
            """
            def leak(monitor):
                return monitor.cvms
            """,
        )
        baseline = tmp_path / "baseline.json"
        assert (
            cli_main(
                ["lint", str(tmp_path / "hyp"), "--baseline", str(baseline),
                 "--update-baseline"]
            )
            == 0
        )
        assert (
            cli_main(["lint", str(tmp_path / "hyp"), "--baseline", str(baseline)])
            == 0
        )
        assert (
            cli_main(
                ["lint", str(tmp_path / "hyp"), "--baseline", str(baseline),
                 "--strict"]
            )
            == 1
        )

    def test_cli_changed_refuses_update_baseline(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        code = cli_main(
            ["lint", "--changed", "HEAD", "--update-baseline",
             "--baseline", str(tmp_path / "b.json")]
        )
        assert code == 2
        assert "--changed" in capsys.readouterr().err


class TestBaselineRatchet:
    def _module(self):
        import importlib.util
        import pathlib

        script = (
            pathlib.Path(__file__).resolve().parents[2]
            / "tools"
            / "check_baseline_ratchet.py"
        )
        spec = importlib.util.spec_from_file_location("ratchet", script)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    def test_committed_baseline_is_within_the_pin(self, capsys):
        mod = self._module()
        assert mod.main() == 0

    def test_grown_baseline_fails(self, tmp_path, monkeypatch, capsys):
        import json

        mod = self._module()
        grown = tmp_path / "baseline.json"
        grown.write_text(
            json.dumps({"version": 1, "suppressions": ["ZL1|x|f|m"]})
        )
        monkeypatch.setattr(mod, "BASELINE", grown)
        assert mod.main() == 1
        assert "ratchet" in capsys.readouterr().out

    def test_unreadable_baseline_is_an_error(self, tmp_path, monkeypatch):
        mod = self._module()
        monkeypatch.setattr(mod, "BASELINE", tmp_path / "missing.json")
        assert mod.main() == 2
