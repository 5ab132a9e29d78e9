"""PLIC: priorities, thresholds, claim/complete protocol."""

import pytest

from repro.errors import ConfigurationError
from repro.isa.plic import Plic


@pytest.fixture
def plic():
    plic = Plic(source_count=8, context_count=2)
    for source in (1, 2, 3):
        plic.set_priority(source, source)  # priority == source id
        plic.enable(0, source)
    return plic


class TestBasicRouting:
    def test_no_pending_initially(self, plic):
        assert not plic.external_pending(0)
        assert plic.claim(0) == 0

    def test_raise_then_claim(self, plic):
        plic.raise_irq(2)
        assert plic.external_pending(0)
        assert plic.claim(0) == 2
        assert not plic.external_pending(0)

    def test_highest_priority_claims_first(self, plic):
        plic.raise_irq(1)
        plic.raise_irq(3)
        plic.raise_irq(2)
        assert plic.claim(0) == 3
        assert plic.claim(0) == 2
        assert plic.claim(0) == 1

    def test_disabled_source_invisible(self, plic):
        plic.raise_irq(1)
        plic.disable(0, 1)
        assert not plic.external_pending(0)
        plic.enable(0, 1)
        assert plic.external_pending(0)

    def test_context_isolation(self, plic):
        plic.raise_irq(1)
        assert not plic.external_pending(1)  # context 1 enabled nothing
        plic.enable(1, 1)
        assert plic.external_pending(1)


class TestThreshold:
    """Every context's threshold is 0, so only a nonzero priority fires."""

    def test_zero_priority_never_fires(self, plic):
        plic.set_priority(4, 0)
        plic.enable(0, 4)
        plic.raise_irq(4)
        assert not plic.external_pending(0)


class TestClaimComplete:
    def test_claimed_source_does_not_refire_until_complete(self, plic):
        plic.raise_irq(2)
        assert plic.claim(0) == 2
        plic.raise_irq(2)  # device re-raises while in-flight: latched out
        assert plic.claim(0) == 0
        plic.complete(0, 2)
        plic.raise_irq(2)
        assert plic.claim(0) == 2

    def test_complete_of_unclaimed_rejected(self, plic):
        with pytest.raises(ConfigurationError):
            plic.complete(0, 2)

    def test_invalid_source_rejected(self, plic):
        with pytest.raises(ConfigurationError):
            plic.raise_irq(0)
        with pytest.raises(ConfigurationError):
            plic.raise_irq(99)
        with pytest.raises(ConfigurationError):
            plic.set_priority(9, 1)


class TestMachineIntegration:
    def test_virtio_completion_flows_through_plic(self, machine):
        session = machine.launch_confidential_vm(image=b"x")
        device = machine.attach_virtio_block(session)
        claims = []
        original_claim = machine.plic.claim

        def counting_claim(context):
            source = original_claim(context)
            if source:
                claims.append(source)
            return source

        machine.plic.claim = counting_claim

        def workload(ctx):
            ctx.blk_driver().write(0, bytes(512))

        machine.run(session, workload)
        assert device.source_id in claims

    def test_irq_injection_still_validated(self, machine):
        """PLIC routing ends at the SM's Check-after-Load, like before."""
        session = machine.launch_confidential_vm(image=b"x")
        machine.attach_virtio_block(session)

        def workload(ctx):
            ctx.blk_driver().write(0, bytes(512))
            return ctx.deliver_pending_irqs()

        result = machine.run(session, workload)
        # The completion interrupt reached the guest kernel (possibly
        # already delivered by the blocking driver wait).
        assert result["workload_result"] >= 0
        assert session.cvm.exit_reasons.get("mmio_store", 0) >= 1
