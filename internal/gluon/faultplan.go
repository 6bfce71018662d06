package gluon

// Fault injection for the in-process lossy link (lossy.go). A FaultPlan
// is a deterministic, seed-driven schedule of link faults: every
// decision is a pure function of (seed, channel, sequence number,
// transmission number), so a run with a given plan replays exactly
// regardless of goroutine scheduling. Durations are in *delivery
// steps*, the ticks of the link's reliable-delivery clock.

// FaultPlan configures the injected fault mix. The zero value injects
// nothing but still frames, sequences, and acknowledges every message,
// which is how the fault-free protocol overhead is measured (bcbench
// -exp faults).
type FaultPlan struct {
	// Seed drives every pseudo-random decision.
	Seed uint64

	// Per-transmission fault probabilities in [0, 1]. Drop loses the
	// transmission; Dup delivers it twice; Delay holds it for 1..
	// MaxDelaySteps delivery steps; Truncate cuts it short; Corrupt
	// flips one bit; Reorder reverses the arrival order at a receiver
	// within a delivery step; AckDrop loses the acknowledgement (the
	// sender retransmits and the receiver discards the duplicate).
	Drop, Dup, Delay, Truncate, Corrupt, Reorder, AckDrop float64

	// MaxDelaySteps bounds the per-transmission delay. Default 3.
	MaxDelaySteps int

	// DeadlineSteps is the stall budget: a channel whose unacked queue
	// makes no ack progress for this many delivery steps fails the link
	// with a *TransportError instead of deadlocking the exchange.
	// Default 64.
	DeadlineSteps int

	// Stalls silences hosts: a stalled host neither transmits, receives,
	// nor acknowledges. Stalls shorter than the deadline are recovered
	// by retransmission; a permanent stall trips the deadline.
	Stalls []Stall

	// Kills silence hosts permanently from a point in the exchange
	// schedule onward, modeling process death. Unlike a Stall, a kill is
	// never recovered by retransmission: the next exchange involving the
	// dead host trips the deadline with a Killed TransportError, and
	// recovery is the elastic layer's job (checkpoint rollback +
	// re-execution).
	Kills []Kill
}

// Stall silences Host for the first Steps delivery steps of the
// exchange with ordinal Exchange (0-based, in the order the link first
// saw each exchange). Steps < 0 stalls the host for the whole exchange,
// which is unrecoverable whenever any message involves it.
type Stall struct {
	Host     int
	Exchange int
	Steps    int
}

// Kill declares Host dead from delivery step Step of the exchange with
// ordinal Exchange onward: the host neither transmits, receives, nor
// acknowledges in any later step or exchange. Step <= 1 kills the host
// before it transmits anything in that exchange (mid-pack); a larger
// Step kills it mid-exchange, after some frames are already on the
// wire.
type Kill struct {
	Host     int
	Exchange int
	Step     int
}

// killed reports whether host is dead at the given delivery step of the
// given exchange under the plan's kill schedule.
func (p *FaultPlan) killed(host, exchange, step int) bool {
	for _, k := range p.Kills {
		if k.Host == host && (exchange > k.Exchange || (exchange == k.Exchange && step >= k.Step)) {
			return true
		}
	}
	return false
}

// KillSchedule derives n seeded host-kill events for a cluster of the
// given size, using the same splitmix64 hashing as the link-fault
// decisions so a schedule replays exactly from its seed. Exchange
// positions stay small (< 24) so every kill reliably lands inside even
// short runs; steps alternate between mid-pack (before the victim
// transmits) and mid-exchange.
func KillSchedule(seed uint64, hosts, n int) []Kill {
	if hosts <= 0 || n <= 0 {
		return nil
	}
	kills := make([]Kill, 0, n)
	for i := 0; i < n; i++ {
		draw := func(k uint64) uint64 { return mix64(seed ^ mix64(uint64(i)<<8^k)) }
		kills = append(kills, Kill{
			Host:     int(draw(1) % uint64(hosts)),
			Exchange: int(draw(2) % 24),
			Step:     int(draw(3) % 6), // 0..5: ~1/3 mid-pack, rest mid-exchange
		})
	}
	return kills
}

// stalled reports whether host is silenced at the given delivery step
// of the given exchange, by a bounded stall or by a kill.
func (p *FaultPlan) stalled(host, exchange, step int) bool {
	for _, s := range p.Stalls {
		if s.Host == host && s.Exchange == exchange && (s.Steps < 0 || step <= s.Steps) {
			return true
		}
	}
	return p.killed(host, exchange, step)
}

// Decision kinds, mixed into the hash so the same transmission rolls
// independent dice for each fault type.
const (
	kindDrop uint64 = iota + 1
	kindDup
	kindDelay
	kindDelayLen
	kindTruncate
	kindTruncLen
	kindCorrupt
	kindCorruptBit
	kindReorder
	kindAckDrop
)

// mix64 is a splitmix64 finalizer round.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll returns a deterministic uniform value in [0, 1) for one decision.
func (p *FaultPlan) roll(kind uint64, from, to int, seq uint32, nonce uint64) float64 {
	h := mix64(p.Seed ^ mix64(kind))
	h = mix64(h ^ uint64(from)<<32 ^ uint64(uint32(to)))
	h = mix64(h ^ uint64(seq)<<16 ^ nonce)
	return float64(h>>11) / (1 << 53)
}

// chance rolls one decision against a probability.
func (p *FaultPlan) chance(rate float64, kind uint64, from, to int, seq uint32, nonce uint64) bool {
	return rate > 0 && p.roll(kind, from, to, seq, nonce) < rate
}

// intn returns a deterministic value in [0, n).
func (p *FaultPlan) intn(n int, kind uint64, from, to int, seq uint32, nonce uint64) int {
	if n <= 1 {
		return 0
	}
	return int(p.roll(kind, from, to, seq, nonce) * float64(n))
}

// RandomPlan derives a recoverable fault plan from a seed: every rate
// is drawn uniformly in [0, maxRate], delays stay short, and at most
// two bounded stalls (well under the deadline) are scheduled on random
// hosts. Used by the chaos sweep.
func RandomPlan(seed uint64, maxRate float64, hosts int) *FaultPlan {
	draw := func(k uint64) float64 {
		return float64(mix64(seed^mix64(k))>>11) / (1 << 53)
	}
	p := &FaultPlan{
		Seed:          seed,
		Drop:          maxRate * draw(1),
		Dup:           maxRate * draw(2),
		Delay:         maxRate * draw(3),
		Truncate:      maxRate * draw(4),
		Corrupt:       maxRate * draw(5),
		Reorder:       maxRate * draw(6),
		AckDrop:       maxRate * draw(7),
		MaxDelaySteps: 1 + int(draw(8)*3),
		DeadlineSteps: 64,
	}
	if hosts > 0 {
		for i := 0; i < int(draw(9)*3); i++ { // 0, 1, or 2 stalls
			p.Stalls = append(p.Stalls, Stall{
				Host:     int(draw(uint64(10+3*i)) * float64(hosts)),
				Exchange: int(draw(uint64(11+3*i)) * 48),
				Steps:    1 + int(draw(uint64(12+3*i))*float64(p.DeadlineSteps/4)),
			})
		}
	}
	return p
}
