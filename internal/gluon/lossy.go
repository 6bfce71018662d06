package gluon

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// LossyTransport is the in-process backend over a simulated unreliable
// link: every host is local, as with MemTransport, but each message
// crosses a link that a FaultPlan damages in flight, made reliable by
// the protocol state machine the TCP backend runs (reliable.go). The
// first Gather of an exchange ticks the link's delivery-step clock over
// every record in the window — so pipelined exchanges interleaved on a
// channel still deliver in order — until the exchange is delivered.
// Gather returns payloads indexed by sender, as MemTransport does, so a
// recoverable run is bitwise the perfect network's. Empty payloads are
// counted as markers but never cross the link: the caller's BSP barrier
// already tells the receiver nothing else is coming.
type LossyTransport struct {
	hosts int
	plan  *FaultPlan

	mu      sync.Mutex
	chans   []reliableChannel // [from*hosts+to]
	stats   []ChannelStats    // [from*hosts+to], logical volume
	boxes   map[int]*lossyBox // open exchanges by identifier
	nextOrd int               // ordinal the next new exchange gets
	wire    []lossyCopy       // transmissions in flight
	clock   int64             // delivery steps since construction
	tx      uint64            // transmissions since construction
	sim     LinkStats         // injected faults, stalls, and steps
	err     *TransportError   // permanent failure, once a deadline tripped

	reduce memReduce
}

// lossyRetrySteps is the link's retransmission interval, in steps.
const lossyRetrySteps = 1

// lossyBox is one open exchange; stall and kill schedules key on ord.
type lossyBox struct {
	ord       int
	bufs      [][]byte // [to*hosts+from]
	want, got int      // records sent / accepted
	gathered  int
}

type lossyCopy struct {
	from, to int
	data     []byte
	due      int64 // clock value at which it reaches the receiver
	id       uint64
}

// NewLossyTransport returns an in-process transport whose link injects
// the plan's faults. A nil plan injects nothing but still frames,
// sequences, and acknowledges every message.
func NewLossyTransport(hosts int, plan *FaultPlan) *LossyTransport {
	if hosts <= 0 {
		panic(fmt.Sprintf("gluon: invalid host count %d", hosts))
	}
	p := FaultPlan{}
	if plan != nil {
		p = *plan
	}
	if p.MaxDelaySteps <= 0 {
		p.MaxDelaySteps = 3
	}
	if p.DeadlineSteps <= 0 {
		p.DeadlineSteps = 64
	}
	l := &LossyTransport{
		hosts: hosts,
		plan:  &p,
		chans: make([]reliableChannel, hosts*hosts),
		stats: make([]ChannelStats, hosts*hosts),
		boxes: make(map[int]*lossyBox),
	}
	l.reduce.init(hosts)
	return l
}

// Hosts returns the cluster size.
func (l *LossyTransport) Hosts() int { return l.hosts }

// Local reports true for every host: the whole cluster shares this
// address space.
func (l *LossyTransport) Local(h int) bool { return h >= 0 && h < l.hosts }

// Backend returns "lossy".
func (l *LossyTransport) Backend() string { return "lossy" }

// Close is a no-op: the link holds no external resources.
func (l *LossyTransport) Close() error { return nil }

// Send queues host from's message to `to`, copied into a framed record.
func (l *LossyTransport) Send(exchange, from, to int, buf []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	box := l.boxes[exchange]
	if box == nil {
		box = &lossyBox{ord: l.nextOrd, bufs: make([][]byte, l.hosts*l.hosts)}
		l.nextOrd++
		l.boxes[exchange] = box
	}
	s := &l.stats[from*l.hosts+to]
	if len(buf) == 0 {
		s.Control++
		return nil
	}
	s.Messages++
	s.Bytes += int64(len(buf))
	box.want++
	l.chans[from*l.hosts+to].push(dataRecord(exchange, buf))
	return nil
}

// Gather runs the link until the exchange is delivered and returns the
// payloads addressed to `to`, indexed by sender.
func (l *LossyTransport) Gather(exchange, to int) ([][]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	box := l.boxes[exchange]
	if box != nil && l.err == nil {
		l.deliverLocked(exchange, box)
	}
	if l.err != nil {
		return nil, l.err
	}
	if box == nil {
		return make([][]byte, l.hosts), nil
	}
	bufs := box.bufs[to*l.hosts : (to+1)*l.hosts]
	if box.gathered++; box.gathered == l.hosts {
		delete(l.boxes, exchange)
	}
	return bufs, nil
}

// deliverLocked ticks the link until every record of the exchange is
// accepted, or a channel's deadline fails the link.
func (l *LossyTransport) deliverLocked(exchange int, box *lossyBox) {
	p := l.plan
	step := 0
	for box.got < box.want && l.err == nil {
		step++
		l.clock++
		for h := 0; h < l.hosts; h++ {
			if p.stalled(h, box.ord, step) {
				l.sim.StalledSteps++
			}
		}
		for i := range l.chans {
			ch := &l.chans[i]
			from, to := i/l.hosts, i%l.hosts
			resend, dead := ch.tick(lossyRetrySteps, p.DeadlineSteps)
			if dead {
				l.failLocked(exchange, box.ord, step)
				break
			}
			if p.stalled(from, box.ord, step) {
				continue
			}
			if resend {
				for _, rec := range ch.retransmit() {
					l.transmit(from, to, rec)
				}
			}
			for _, rec := range ch.untransmitted() {
				l.transmit(from, to, rec)
			}
		}
		if l.err == nil {
			l.arrive(box.ord, step)
		}
	}
	l.sim.DeliverySteps += int64(step)
	l.sim.MaxDeliverySteps = max(l.sim.MaxDeliverySteps, step)
}

// transmit puts one frame on the wire through the plan's faults.
func (l *LossyTransport) transmit(from, to int, rec sentRecord) {
	p := l.plan
	l.tx++
	nonce := l.tx
	if p.chance(p.Drop, kindDrop, from, to, rec.seq, nonce) {
		l.sim.Drops++
		return
	}
	copies := 1
	if p.chance(p.Dup, kindDup, from, to, rec.seq, nonce) {
		copies = 2
		l.sim.Dups++
	}
	for ci := 0; ci < copies; ci++ {
		id := nonce<<8 | uint64(ci)
		data := rec.frame
		switch {
		case p.chance(p.Truncate, kindTruncate, from, to, rec.seq, id):
			data = data[:1+p.intn(len(data)-1, kindTruncLen, from, to, rec.seq, id)]
			l.sim.Truncations++
		case p.chance(p.Corrupt, kindCorrupt, from, to, rec.seq, id):
			data = append([]byte(nil), data...)
			bit := p.intn(len(data)*8, kindCorruptBit, from, to, rec.seq, id)
			data[bit/8] ^= 1 << (bit % 8)
			l.sim.Corruptions++
		}
		var delay int64
		if p.chance(p.Delay, kindDelay, from, to, rec.seq, id) {
			delay = 1 + int64(p.intn(p.MaxDelaySteps, kindDelayLen, from, to, rec.seq, id))
			l.sim.Delays++
		}
		l.wire = append(l.wire, lossyCopy{from: from, to: to, data: data, due: l.clock + delay, id: id})
	}
}

// arrive hands this step's arrivals to their receivers: verify the
// frame, accept the next in-order record, and return the cumulative
// ack to the sender.
func (l *LossyTransport) arrive(ord, step int) {
	p := l.plan
	var due []lossyCopy
	keep := l.wire[:0]
	for _, c := range l.wire {
		if c.due <= l.clock {
			due = append(due, c)
		} else {
			keep = append(keep, c)
		}
	}
	l.wire = keep
	// Deterministic arrival order: by receiver, then transmission. A
	// Reorder fault reverses one receiver's arrivals within the step,
	// which the in-order filter turns into retransmissions.
	sort.SliceStable(due, func(i, j int) bool { return due[i].to < due[j].to })
	for lo := 0; lo < len(due); {
		hi := lo + 1
		for hi < len(due) && due[hi].to == due[lo].to {
			hi++
		}
		if hi-lo > 1 && p.chance(p.Reorder, kindReorder, due[lo].to, due[lo].to, uint32(ord), uint64(step)) {
			l.sim.Reorders++
			for i, j := lo, hi-1; i < j; i, j = i+1, j-1 {
				due[i], due[j] = due[j], due[i]
			}
		}
		lo = hi
	}
	for _, c := range due {
		if p.stalled(c.to, ord, step) {
			continue // receiver deaf: the copy is lost, the sender retries
		}
		seq, body, err := DecodeFrame(c.data)
		if err != nil {
			continue // damaged in flight: no ack, the sender retries
		}
		ch := &l.chans[c.from*l.hosts+c.to]
		fresh, cum := ch.accept(seq)
		if fresh { // a data record: file its payload by exchange
			if box := l.boxes[int(binary.LittleEndian.Uint32(body[1:]))]; box != nil {
				box.bufs[c.to*l.hosts+c.from] = body[5:]
				box.got++
			}
		}
		if p.chance(p.AckDrop, kindAckDrop, c.from, c.to, seq, c.id) {
			l.sim.AckDrops++
			continue
		}
		if p.stalled(c.from, ord, step) {
			continue // sender deaf: the ack is lost
		}
		ch.ack(cum)
	}
}

// failLocked records the link's permanent failure, blaming a killed
// host first, then a stalled one, else the receiver of the first
// channel with unacked records.
func (l *LossyTransport) failLocked(exchange, ord, step int) {
	p := l.plan
	pending, host, killed := 0, -1, false
	reason := "messages undeliverable within the deadline"
	for i := range l.chans {
		ch := &l.chans[i]
		if len(ch.unacked) == 0 {
			continue
		}
		pending += len(ch.unacked)
		from, to := i/l.hosts, i%l.hosts
		if host < 0 {
			host = to
		}
		for _, h := range [2]int{from, to} {
			if p.killed(h, ord, step) {
				host, killed = h, true
				reason = fmt.Sprintf("host %d killed during exchange %d", h, ord)
			} else if !killed && p.stalled(h, ord, step) {
				host = h
				reason = fmt.Sprintf("host %d stalled past the %d-step deadline", h, p.DeadlineSteps)
			}
		}
	}
	l.err = &TransportError{Host: host, Exchange: exchange, Pending: pending, Steps: step, Killed: killed, Reason: reason}
}

// AllReduce is MemTransport's rendezvous: the plan spares control values.
func (l *LossyTransport) AllReduce(host int, local int64, op ReduceOp) (int64, error) {
	if host < 0 || host >= l.hosts {
		return 0, fmt.Errorf("gluon: AllReduce host %d out of range [0,%d)", host, l.hosts)
	}
	return l.reduce.join(local, op), nil
}

// Stats returns the channel's logical volume.
func (l *LossyTransport) Stats(from, to int) ChannelStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats[from*l.hosts+to]
}

// LinkStats returns the protocol work and injected faults so far.
func (l *LossyTransport) LinkStats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.sim
	for i := range l.chans {
		s.Add(&l.chans[i].stats)
	}
	return s
}
