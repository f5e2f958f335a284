"""Walk the backbone power budget of the bundled seven-node ring.

Starts from the itemized per-span losses, derives the loss budget from the
downstream requirements, sizes the EDFA chain, and checks the received power
at the distribution end point.
"""

from fiberplan import (
    amplifier_requirement,
    load_network,
    max_allowed_loss,
    received_power,
    required_input_power,
    run_plan,
    span_summary,
)
from fiberplan.data import sleman_path


def main() -> None:
    doc = load_network(sleman_path())
    net = doc.network

    print("Per-span losses (each treated as a standalone path):")
    loss = {span.id: span_summary(span, net.losses)[0] for span in net.spans}
    for span in sorted(net.spans, key=lambda s: s.id):
        b = loss[span.id]
        print(
            f"  {span.id:<20} {span.length:>7.3f} km  "
            f"connectors {b.connector_total:.2f} + fiber {b.fiber_total:.2f} "
            f"+ splices {b.splice_total:.2f} + margin {b.margin:.2f} = {b.total:.2f} dB"
        )

    ring = run_plan(doc, "gpon-onu-endpoint").path  # the ring path crosses each span once
    print(f"\nWhole ring with the margin applied once: {ring.total:.2f} dB")

    # The ring must deliver enough power that the distribution leg still
    # reaches the downlink receiver.
    floor = required_input_power(net.transceiver.rx_sensitivity, doc.distribution_loss)
    budget = max_allowed_loss(net.transceiver.tx_power, floor)
    print(f"Backbone exit floor: {net.transceiver.rx_sensitivity:.2f} dBm sensitivity "
          f"+ {doc.distribution_loss:.2f} dB distribution = {floor:.2f} dBm")
    print(f"Loss budget from a {net.transceiver.tx_power:.2f} dBm transmitter: {budget:.2f} dB")

    plan = amplifier_requirement(ring.total, budget, doc.edfa_gain)
    print(f"\nGain deficit {plan.gain_deficit:.2f} dB -> "
          f"{plan.edfa_count} EDFA(s) of {plan.unit_gain:.0f} dB = {plan.total_gain:.0f} dB")

    end_point = received_power(
        net.transceiver.tx_power, [ring.total, doc.distribution_loss], [plan.total_gain]
    )
    print(f"End-point power with the plan installed: {end_point:.2f} dBm "
          f"(needs -28.00 dBm at the ONU)")


if __name__ == "__main__":
    main()
