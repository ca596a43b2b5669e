package netsim

import "dcpim/internal/sim"

// Fault-injection control surface. These methods flip per-port and
// per-switch fault state; internal/faults drives them from a scripted
// Schedule via sim timers, but tests may call them directly. All fault
// behaviour is deterministic: loss draws come from each device's seeded
// stream, and state flips happen at scheduled event times. In a sharded
// fabric each method touches exactly one device, so it must run as an
// event on that device's engine (SwitchEngine/HostEngine) — the faults
// package schedules the two sides of a link fault separately.

// SetLinkDown halts (down=true) or restores the transmitter of switch
// sw's output port pt. While down, queued packets stay buffered (overflow
// drops via normal drop-tail accounting) and a packet already being
// serialized finishes its transmission — the fault takes the link dark,
// it does not destroy the bits already on the wire.
func (f *Fabric) SetLinkDown(sw, pt int, down bool) {
	o := &f.switches[sw].ports[pt]
	o.down = down
	if !down {
		o.tryTransmit()
	}
}

// SetHostDown halts or restores host h's NIC transmitter: a host pause,
// or the host side of a downed access link.
func (f *Fabric) SetHostDown(h int, down bool) {
	o := f.hosts[h].nic
	o.down = down
	if !down {
		o.tryTransmit()
	}
}

// LinkDown reports whether switch sw's output port pt is currently down.
func (f *Fabric) LinkDown(sw, pt int) bool { return f.switches[sw].ports[pt].down }

// HostDown reports whether host h's NIC transmitter is currently down.
func (f *Fabric) HostDown(h int) bool { return f.hosts[h].nic.down }

// SetLinkLossRate sets a persistent per-packet drop probability on the
// transmit side of switch sw's port pt (degraded optics). Drops count as
// Counters.FaultDrops. Rate 0 restores a clean link.
func (f *Fabric) SetLinkLossRate(sw, pt int, rate float64) {
	o := &f.switches[sw].ports[pt]
	lf := o.class.sh.faults[o]
	lf.lossRate = rate
	o.setLoss(lf)
}

// SetHostLossRate is SetLinkLossRate for host h's NIC (the host→ToR
// direction of a degraded access link).
func (f *Fabric) SetHostLossRate(h int, rate float64) {
	o := f.hosts[h].nic
	lf := o.class.sh.faults[o]
	lf.lossRate = rate
	o.setLoss(lf)
}

// SetLossBurst installs a transient loss window on switch sw's port pt:
// until the given time, packets drop with probability rate (if higher
// than any persistent degrade already present).
func (f *Fabric) SetLossBurst(sw, pt int, until sim.Time, rate float64) {
	o := &f.switches[sw].ports[pt]
	lf := o.class.sh.faults[o]
	lf.burstRate, lf.burstUntil = rate, until
	o.setLoss(lf)
}

// SetHostLossBurst is SetLossBurst for host h's NIC.
func (f *Fabric) SetHostLossBurst(h int, until sim.Time, rate float64) {
	o := f.hosts[h].nic
	lf := o.class.sh.faults[o]
	lf.burstRate, lf.burstUntil = rate, until
	o.setLoss(lf)
}

// RebootSwitch takes switch sw out of service: every output port goes
// down and arrivals are discarded (FaultDrops) until RestoreSwitch. With
// drainDrop the buffered packets are flushed and counted as FaultDrops (a
// cold reboot loses its buffers); without it buffers survive and resume
// draining on restore (a warm control-plane restart).
func (f *Fabric) RebootSwitch(sw int, drainDrop bool) {
	d := &f.switches[sw]
	d.down = true
	for i := range d.ports {
		d.ports[i].down = true
	}
	if drainDrop {
		d.drainQueues()
	}
}

// RestoreSwitch brings a rebooted switch back: the forwarding plane
// accepts arrivals again and every port resumes transmitting.
func (f *Fabric) RestoreSwitch(sw int) {
	d := &f.switches[sw]
	d.down = false
	for i := range d.ports {
		d.ports[i].down = false
		d.ports[i].tryTransmit()
	}
}

// drainQueues flushes every buffered packet on the switch's output ports,
// keeping PFC ingress accounting consistent so upstream neighbours paused
// on this switch resume rather than wedge.
func (d *swDev) drainQueues() {
	fab := d.sh.fab
	for i := range d.ports {
		for o := &d.ports[i]; o.nonEmpty != 0; {
			p, in := o.pop()
			if fab.cfg.EnablePFC && in >= 0 {
				d.ingressBytes[in] -= int64(p.Size)
				d.checkResume(in)
			}
			d.sh.counters.FaultDrops++
			fab.dropped(p)
		}
	}
}
