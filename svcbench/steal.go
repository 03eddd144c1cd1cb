package main

import (
	"os"
	"strconv"
	"strings"
)

// The benchmark shares its host's CPUs with whatever else the
// hypervisor schedules there. While other guests are busy, this one's
// vCPUs lose time they were ready to run ("steal", in /proc/stat), and
// every wall-clock figure reads slower, by 30% and more at 25% steal.
// The gated figures of the closed loops are therefore counted in
// unstolen time: a phase's wall time times the share of the time its
// CPUs were ready to run that the hypervisor did not take. Where the
// phase's work is a chain of CPU-bound steps, one always ready to run
// somewhere, as in a closed loop, that is the time it would have taken
// on a host of its own. On such a host, and wherever steal cannot be
// read, it equals wall time. The wall-clock figures are recorded
// beside them.

// cpuTicks reads the machine's CPU ticks from the first line of
// /proc/stat: those stolen, those idle (idle and iowait) and all of
// them; ok is false where it cannot. Guest time is already counted in
// user time, so it is left out of the total.
func cpuTicks() (steal, idle, total float64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, 0, false
	}
	// user nice system idle iowait irq softirq steal
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, 0, false
		}
		total += v
		switch i {
		case 3, 4:
			idle += v
		case 7:
			steal = v
		}
	}
	return steal, idle, total, true
}

// stealMeter adds up the ticks of one or more intervals.
type stealMeter struct {
	steal, idle, total float64
	broken             bool // some interval could not be read
}

// span starts an interval; calling the returned function ends it.
func (m *stealMeter) span() func() {
	s0, i0, t0, ok0 := cpuTicks()
	return func() {
		s1, i1, t1, ok1 := cpuTicks()
		if !ok0 || !ok1 || t1 < t0 {
			m.broken = true
			return
		}
		m.steal += s1 - s0
		m.idle += i1 - i0
		m.total += t1 - t0
	}
}

// share is the steal share of the metered intervals' ready time (all
// ticks but the idle ones), 0 where it could not be read.
func (m *stealMeter) share() float64 {
	if ready := m.total - m.idle; !m.broken && ready > 0 {
		return m.steal / ready
	}
	return 0
}

// unstolen is the share of the metered intervals' ready time the guest
// kept: wall time times unstolen is unstolen time.
func (m *stealMeter) unstolen() float64 { return 1 - m.share() }
