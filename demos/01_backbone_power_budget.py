"""Walk the backbone power budget of the bundled seven-node ring.

Starts from the itemized per-span losses, the rows of the ring's plan, then
reads from the same plan the loss budget derived from the downstream
requirements, the EDFA chain sized to cover it, and the received power at the
distribution end point.
"""

from fiberplan import load_network, run_plan
from fiberplan.data import sleman_path


def main() -> None:
    doc = load_network(sleman_path())
    net = doc.network
    report = run_plan(doc, "gpon-onu-endpoint")  # the ring path crosses each span once

    print("Per-span losses (each treated as a standalone path):")
    for span_id, _, length, _, connectors, fiber, splices, _, margin, total, *_ in report.spans:  # by span id
        print(
            f"  {span_id:<20} {length:>7.3f} km  "
            f"connectors {connectors:.2f} + fiber {fiber:.2f} "
            f"+ splices {splices:.2f} + margin {margin:.2f} = {total:.2f} dB"
        )

    *_, ring_total = report.path  # connectors, fiber, splices, splitters, margin, total
    print(f"\nWhole ring with the margin applied once: {ring_total:.2f} dB")

    # The ring must deliver enough power that the distribution leg still
    # reaches the downlink receiver.
    floor, budget = report.planning_floor, report.max_loss
    print(f"Backbone exit floor: {net.transceiver.rx_sensitivity:.2f} dBm sensitivity "
          f"+ {doc.distribution_loss:.2f} dB distribution = {floor:.2f} dBm")
    print(f"Loss budget from a {net.transceiver.tx_power:.2f} dBm transmitter: {budget:.2f} dB")

    plan = report.amplifier_plan
    print(f"\nGain deficit {plan.gain_deficit:.2f} dB -> "
          f"{plan.edfa_count} EDFA(s) of {plan.unit_gain:.0f} dB = {plan.total_gain:.0f} dB")

    print(f"End-point power with the plan installed: {report.received:.2f} dBm "
          f"(needs -28.00 dBm at the ONU)")


if __name__ == "__main__":
    main()
