package gluon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCP backend: one process per host, full mesh of TCP connections. The
// wire unit is the gluon frame (magic, per-channel seq, CRC-32C), read
// with length-prefixed framing straight off the header's len field.
// Reliability is the protocol state machine of reliable.go (the one the
// in-process LossyTransport runs), ticked once per StepInterval, plus
// connection re-dial on transient failure. A peer that makes no ack
// progress for DeadlineSteps consecutive steps surfaces as a structured
// *TransportError — never a hang.
//
// Connections are asymmetric: each host dials every other host once
// and writes its hello/data/reduce records on that connection; acks
// travel back on the same connection. The reverse direction is the
// peer's own dialed connection. Record payloads inside the frame:
//
//	hello  [1][u32 host]                     frame seq 0, sent once per connection
//	data   [2][u32 exchange][sync payload]   frame seq = channel seq (1-based)
//	ack    [3][u32 cumulative seq]           frame seq 0
//	reduce [4][u32 rseq][op][u64 value]      frame seq = channel seq
//
// Data and reduce records share one per-peer sequence space, so a
// single cumulative ack covers both. An empty data payload is the
// explicit nothing-this-exchange marker the Transport contract
// requires; it is counted as Control, not as a logical message, so
// per-host Stats from a multi-process run sum to the in-process run's.

const (
	recHello byte = 1
	recData  byte = 2
	recAck   byte = 3
	recRed   byte = 4
)

// TCPOptions tunes the TCP backend's reliability loop. The zero value
// selects the defaults noted on each field.
type TCPOptions struct {
	// DeadlineSteps aborts an exchange, reduce, or send queue that makes
	// no progress for this many consecutive steps (default 120). With
	// the default StepInterval this is a 3 s stall budget.
	DeadlineSteps int
	// StepInterval is the wall-clock length of one reliability step
	// (default 25 ms).
	StepInterval time.Duration
	// RetrySteps is how many steps without ack progress the sender
	// waits before it retransmits its unacked queue (default 8).
	RetrySteps int
	// DialTimeout bounds a single (re-)dial attempt (default 2 s).
	DialTimeout time.Duration
	// Epoch is the cluster membership epoch this transport belongs to.
	// Hellos are epoch-stamped and a listener rejects connections whose
	// epoch differs from its own, so after an elastic restart the stale
	// retransmissions of a killed host's socket (or of a survivor that
	// has not been restarted yet) cannot leak into the new attempt.
	// Epoch 0 accepts legacy 5-byte hellos as epoch 0.
	Epoch int
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.DeadlineSteps <= 0 {
		o.DeadlineSteps = 120
	}
	if o.StepInterval <= 0 {
		o.StepInterval = 25 * time.Millisecond
	}
	if o.RetrySteps <= 0 {
		o.RetrySteps = 8
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	return o
}

// TCPTransport is the multi-process Transport backend. Each process
// owns exactly one host; NewTCPTransport wires it to the rest of the
// cluster through the address list.
type TCPTransport struct {
	self  int
	hosts int
	opts  TCPOptions

	ln    net.Listener
	peers []*tcpPeer // nil at index self

	mu       sync.Mutex
	in       []reliableChannel      // receiver half of each inbound channel, by sender
	inConns  []net.Conn             // current accepted conn per sender (ack path)
	boxes    map[int]*exchangeBox   // keyed by exchange index
	reduces  map[uint32]*reduceCell // keyed by reduce round
	rseq     uint32                 // local reduce round counter
	progress chan struct{}          // nudged on any receive progress

	stats []ChannelStats // [from*hosts+to], self row live, others zero

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

type exchangeBox struct {
	bufs   [][]byte
	got    []bool
	n      int    // peers heard from
	taken  []bool // consumed by GatherFrom
	nTaken int
}

type reduceCell struct {
	acc int64
	n   int    // peers folded in
	got []bool // by sender
}

// NewTCPTransport starts the backend for local host self in a cluster
// whose hosts listen at addrs (addrs[self] must be ln's address; ln is
// accepted as a pre-created listener so callers can bind :0 and learn
// the port before the cluster's address book is distributed). Peers
// are dialed lazily on first send, with re-dial on failure.
func NewTCPTransport(self int, addrs []string, ln net.Listener, opts TCPOptions) (*TCPTransport, error) {
	hosts := len(addrs)
	if self < 0 || self >= hosts {
		return nil, fmt.Errorf("gluon: tcp host %d out of range [0,%d)", self, hosts)
	}
	if ln == nil {
		return nil, errors.New("gluon: tcp transport needs a listener")
	}
	t := &TCPTransport{
		self:     self,
		hosts:    hosts,
		opts:     opts.withDefaults(),
		ln:       ln,
		peers:    make([]*tcpPeer, hosts),
		in:       make([]reliableChannel, hosts),
		inConns:  make([]net.Conn, hosts),
		boxes:    make(map[int]*exchangeBox),
		reduces:  make(map[uint32]*reduceCell),
		progress: make(chan struct{}, 1),
		stats:    make([]ChannelStats, hosts*hosts),
		closed:   make(chan struct{}),
	}
	for h := 0; h < hosts; h++ {
		if h == self {
			continue
		}
		t.peers[h] = newTCPPeer(t, h, addrs[h])
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Hosts returns the cluster size.
func (t *TCPTransport) Hosts() int { return t.hosts }

// Local reports whether h is the one host this process runs.
func (t *TCPTransport) Local(h int) bool { return h == t.self }

// Backend returns "tcp".
func (t *TCPTransport) Backend() string { return "tcp" }

// Send enqueues host self's message to `to` for the exchange. The
// payload is copied into the record, so the caller's buffer is free
// for reuse immediately. Delivery is asynchronous; loss is detected
// and reported by the eventual Gather or a later Send's queue check.
func (t *TCPTransport) Send(exchange, from, to int, buf []byte) error {
	if from != t.self {
		return fmt.Errorf("gluon: tcp Send from non-local host %d (self %d)", from, t.self)
	}
	if to == from || to < 0 || to >= t.hosts {
		return fmt.Errorf("gluon: tcp Send to invalid host %d", to)
	}
	body := dataRecord(exchange, buf)
	t.mu.Lock()
	s := &t.stats[from*t.hosts+to]
	if len(buf) > 0 {
		s.Messages++
		s.Bytes += int64(len(buf))
	} else {
		s.Control++
	}
	t.mu.Unlock()
	return t.peers[to].enqueue(body)
}

// Gather blocks until every peer's message for the exchange arrived
// (empty markers included) or the stall deadline expires, then returns
// the payloads indexed by sender.
func (t *TCPTransport) Gather(exchange, to int) ([][]byte, error) {
	if to != t.self {
		return nil, fmt.Errorf("gluon: tcp Gather for non-local host %d (self %d)", to, t.self)
	}
	if t.hosts == 1 {
		// No peers, nothing ever arrives; an empty box would wait forever.
		return make([][]byte, 1), nil
	}
	steps := 0
	for {
		t.mu.Lock()
		box := t.boxes[exchange]
		if box != nil && box.n == t.hosts-1 {
			delete(t.boxes, exchange)
			t.mu.Unlock()
			return box.bufs, nil
		}
		t.mu.Unlock()
		if err := t.peerError(); err != nil {
			return nil, err
		}
		select {
		case <-t.progress:
			steps = 0
		case <-time.After(t.opts.StepInterval):
			steps++
		case <-t.closed:
			return nil, &TransportError{Host: -1, Exchange: exchange, Steps: steps, Reason: "transport closed"}
		}
		if steps > t.opts.DeadlineSteps {
			host, pending := t.firstMissing(exchange)
			if stalled := t.mostStalledPeer(); stalled >= 0 {
				host = stalled
			}
			return nil, &TransportError{Host: host, Exchange: exchange, Pending: pending, Steps: steps,
				Reason: "stall deadline exceeded waiting for exchange messages"}
		}
	}
}

// GatherFrom returns one sender's payload for the exchange as soon as
// it arrives (the Streamer interface): the per-sender half of Gather,
// letting the caller unpack early peers while late peers' bytes are
// still in flight. The exchange's box is released once every remote
// sender has been consumed this way.
func (t *TCPTransport) GatherFrom(exchange, to, from int) ([]byte, error) {
	if to != t.self {
		return nil, fmt.Errorf("gluon: tcp GatherFrom for non-local host %d (self %d)", to, t.self)
	}
	if from == to || t.hosts == 1 {
		return nil, nil
	}
	if from < 0 || from >= t.hosts {
		return nil, fmt.Errorf("gluon: tcp GatherFrom from invalid host %d", from)
	}
	steps := 0
	for {
		t.mu.Lock()
		box := t.boxes[exchange]
		if box != nil && box.got[from] {
			buf := box.bufs[from]
			if !box.taken[from] {
				box.taken[from] = true
				box.nTaken++
				if box.nTaken == t.hosts-1 {
					delete(t.boxes, exchange)
				}
			}
			t.mu.Unlock()
			return buf, nil
		}
		t.mu.Unlock()
		if err := t.peerError(); err != nil {
			return nil, err
		}
		select {
		case <-t.progress:
			steps = 0
		case <-time.After(t.opts.StepInterval):
			steps++
		case <-t.closed:
			return nil, &TransportError{Host: from, Exchange: exchange, Steps: steps, Reason: "transport closed"}
		}
		if steps > t.opts.DeadlineSteps {
			host := from
			if stalled := t.mostStalledPeer(); stalled >= 0 {
				host = stalled
			}
			return nil, &TransportError{Host: host, Exchange: exchange, Pending: 1, Steps: steps,
				Reason: "stall deadline exceeded waiting for exchange message"}
		}
	}
}

// AllReduce folds one value per host across the cluster: the local
// value is broadcast as a reliable reduce record and the call blocks
// until every peer's record for the same reduce round arrived.
func (t *TCPTransport) AllReduce(host int, local int64, op ReduceOp) (int64, error) {
	if host != t.self {
		return 0, fmt.Errorf("gluon: tcp AllReduce for non-local host %d (self %d)", host, t.self)
	}
	if t.hosts == 1 {
		return local, nil
	}
	t.mu.Lock()
	t.rseq++
	r := t.rseq
	t.mu.Unlock()
	body := make([]byte, 14)
	body[0] = recRed
	binary.LittleEndian.PutUint32(body[1:], r)
	body[5] = byte(op)
	binary.LittleEndian.PutUint64(body[6:], uint64(local))
	for h, p := range t.peers {
		if p == nil {
			continue
		}
		t.mu.Lock()
		t.stats[t.self*t.hosts+h].Control++
		t.mu.Unlock()
		if err := p.enqueue(body); err != nil {
			return 0, err
		}
	}
	steps := 0
	for {
		t.mu.Lock()
		cell := t.reduces[r]
		if cell != nil && cell.n == t.hosts-1 {
			delete(t.reduces, r)
			t.mu.Unlock()
			return op.Apply(cell.acc, local), nil
		}
		t.mu.Unlock()
		if err := t.peerError(); err != nil {
			return 0, err
		}
		select {
		case <-t.progress:
			steps = 0
		case <-time.After(t.opts.StepInterval):
			steps++
		case <-t.closed:
			return 0, &TransportError{Host: -1, Exchange: -1, Steps: steps, Reason: "transport closed"}
		}
		if steps > t.opts.DeadlineSteps {
			// Blame the peer our records stall on, else the one peer whose
			// record is missing, if only one is (several implicate no one).
			host := t.mostStalledPeer()
			missing := -1
			t.mu.Lock()
			pending := 0
			cell := t.reduces[r]
			for h := 0; h < t.hosts; h++ {
				if h != t.self && (cell == nil || !cell.got[h]) {
					pending++
					missing = h
				}
			}
			t.mu.Unlock()
			if host < 0 && pending == 1 {
				host = missing
			}
			return 0, &TransportError{Host: host, Exchange: -1, Pending: pending, Steps: steps,
				Reason: fmt.Sprintf("stall deadline exceeded waiting for reduce round %d", r)}
		}
	}
}

// Stats returns the channel's cumulative tallies. Only channels whose
// sender is the local host carry data; each process accounts the
// traffic it originates, so summing across processes reconstructs the
// cluster totals without double counting.
func (t *TCPTransport) Stats(from, to int) ChannelStats {
	if from < 0 || from >= t.hosts || to < 0 || to >= t.hosts {
		return ChannelStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats[from*t.hosts+to]
}

// LinkStats returns the protocol work of the local host's outbound
// channels.
func (t *TCPTransport) LinkStats() LinkStats {
	var s LinkStats
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		s.Add(&p.out.stats)
		p.mu.Unlock()
	}
	return s
}

// Close tears the backend down: the listener, every connection, and
// the retry goroutines. In-flight Gather/AllReduce calls return a
// structured transport-closed error. Before tearing down, Close
// lingers (bounded by the stall budget) until every outbound record
// has been acked: hosts finish the final exchange at different times,
// and a fast host quitting immediately would strip the retransmission
// machinery out from under a last frame the network dropped — turning
// a recoverable loss into a peer's stall. Peers already in permanent
// error are not waited for.
func (t *TCPTransport) Close() error {
	t.closeOnce.Do(func() {
		t.drainOutbound()
		close(t.closed)
		t.ln.Close()
		for _, p := range t.peers {
			if p != nil {
				p.close()
			}
		}
		t.mu.Lock()
		for i, c := range t.inConns {
			if c != nil {
				c.Close()
				t.inConns[i] = nil
			}
		}
		t.mu.Unlock()
	})
	t.wg.Wait()
	return nil
}

// drainOutbound blocks until every peer's unacked queue is empty or in
// permanent error, or one stall budget elapses. The step loops are
// still running, so stale queues keep being retransmitted while we
// wait.
func (t *TCPTransport) drainOutbound() {
	deadline := time.Now().Add(time.Duration(t.opts.DeadlineSteps) * t.opts.StepInterval)
	for {
		pending := false
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			p.mu.Lock()
			if p.err == nil && len(p.out.unacked) > 0 {
				pending = true
			}
			p.mu.Unlock()
		}
		if !pending || time.Now().After(deadline) {
			return
		}
		time.Sleep(t.opts.StepInterval)
	}
}

// peerError returns the first permanent peer failure, if any.
func (t *TCPTransport) peerError() error {
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		err := p.err
		p.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// mostStalledPeer names the peer with unacked outbound data that has
// gone the longest without ack progress, or -1 when every queue is
// moving. When a collective deadline trips, this is the best available
// diagnosis of WHO is dead: a peer ignoring retransmissions is far
// stronger evidence than a missing payload, which any upstream stall
// can explain — and the elastic coordinator's survivor vote needs every
// host to name the true victim, not the first casualty it noticed.
func (t *TCPTransport) mostStalledPeer() (host int) {
	host = -1
	best := 0
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		if len(p.out.unacked) > 0 && p.out.wait > best {
			best = p.out.wait
			host = p.host
		}
		p.mu.Unlock()
	}
	return host
}

// firstMissing names the lowest-numbered sender whose message for the
// exchange has not arrived, plus the total number still missing.
func (t *TCPTransport) firstMissing(exchange int) (host, pending int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	host = -1
	box := t.boxes[exchange]
	for h := 0; h < t.hosts; h++ {
		if h == t.self {
			continue
		}
		if box == nil || !box.got[h] {
			pending++
			if host < 0 {
				host = h
			}
		}
	}
	return host, pending
}

func (t *TCPTransport) nudge() {
	select {
	case t.progress <- struct{}{}:
	default:
	}
}

// acceptLoop owns the listener: every accepted connection gets a
// reader goroutine that identifies the sender from its hello record
// and then feeds data/reduce records through the dedup filter.
func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

func (t *TCPTransport) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	// First frame must be the hello identifying the dialing host: 9
	// bytes [recHello][u32 host][u32 epoch], or the legacy 5-byte form
	// without the epoch (treated as epoch 0). A dialer from another
	// membership epoch — a killed host's socket still retransmitting, or
	// a survivor not yet rolled over — is dropped at the door.
	_, body, err := readFrame(conn)
	if err != nil || (len(body) != 5 && len(body) != 9) || body[0] != recHello {
		return
	}
	from := int(binary.LittleEndian.Uint32(body[1:]))
	if from < 0 || from >= t.hosts || from == t.self {
		return
	}
	epoch := 0
	if len(body) == 9 {
		epoch = int(binary.LittleEndian.Uint32(body[5:]))
	}
	if epoch != t.opts.Epoch {
		return
	}
	t.mu.Lock()
	if old := t.inConns[from]; old != nil {
		old.Close()
	}
	t.inConns[from] = conn
	t.mu.Unlock()
	for {
		seq, body, err := readFrame(conn)
		if err != nil {
			return
		}
		if len(body) == 0 {
			continue
		}
		t.receiveRecord(conn, from, seq, body)
	}
}

// receiveRecord runs the cumulative-seq dedup filter and dispatches
// accepted data/reduce records. Every data/reduce frame is answered
// with a cumulative ack (duplicates re-ack, so a sender that missed an
// ack still converges).
func (t *TCPTransport) receiveRecord(conn net.Conn, from int, seq uint32, body []byte) {
	switch body[0] {
	case recData, recRed:
		t.mu.Lock()
		fresh, ack := t.in[from].accept(seq)
		if fresh {
			t.dispatchLocked(from, body)
		}
		// Receiver-side acks are control traffic on the return channel.
		t.stats[t.self*t.hosts+from].Control++
		t.mu.Unlock()
		writeFrame(conn, 0, []byte{recAck, byte(ack), byte(ack >> 8), byte(ack >> 16), byte(ack >> 24)})
		if fresh {
			t.nudge()
		}
	}
}

func (t *TCPTransport) dispatchLocked(from int, body []byte) {
	switch body[0] {
	case recData:
		if len(body) < 5 {
			return
		}
		ex := int(binary.LittleEndian.Uint32(body[1:]))
		box := t.boxes[ex]
		if box == nil {
			box = &exchangeBox{bufs: make([][]byte, t.hosts), got: make([]bool, t.hosts), taken: make([]bool, t.hosts)}
			t.boxes[ex] = box
		}
		if box.got[from] {
			return
		}
		box.got[from] = true
		box.bufs[from] = body[5:]
		box.n++
	case recRed:
		if len(body) != 14 {
			return
		}
		r := binary.LittleEndian.Uint32(body[1:])
		op := ReduceOp(body[5])
		v := int64(binary.LittleEndian.Uint64(body[6:]))
		cell := t.reduces[r]
		if cell == nil {
			cell = &reduceCell{acc: v, got: make([]bool, t.hosts)}
			t.reduces[r] = cell
		} else {
			cell.acc = op.Apply(cell.acc, v)
		}
		cell.n++
		cell.got[from] = true
	}
}

// tcpPeer is the sender side of one outbound channel: it owns the
// dialed connection, the channel's protocol state, and the step loop
// that ticks it — retransmitting, re-dialing, and declaring the peer
// dead after the stall deadline.
type tcpPeer struct {
	t    *TCPTransport
	host int
	addr string

	mu       sync.Mutex
	conn     net.Conn
	out      reliableChannel // sender half
	everConn bool
	err      *TransportError

	closed chan struct{}
	once   sync.Once
}

func newTCPPeer(t *TCPTransport, host int, addr string) *tcpPeer {
	p := &tcpPeer{t: t, host: host, addr: addr, closed: make(chan struct{})}
	t.wg.Add(1)
	go p.stepLoop()
	return p
}

// enqueue queues the record on the channel and attempts an immediate
// transmission. Transmission failures are left to the step loop's
// re-dial/retry machinery.
func (p *tcpPeer) enqueue(body []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	p.out.push(body)
	recs := p.out.untransmitted()
	if p.ensureConnLocked() {
		p.writeAllLocked(recs)
	}
	return nil
}

// writeAllLocked writes the records in order, dropping the connection
// at the first failure.
func (p *tcpPeer) writeAllLocked(recs []sentRecord) {
	for _, rec := range recs {
		if err := p.writeLocked(rec.frame); err != nil {
			p.dropConnLocked()
			return
		}
	}
}

// stepLoop is the reliability clock: every StepInterval it ticks the
// channel's protocol state, retransmits a queue that saw no ack
// progress for RetrySteps, re-dials a dead connection, and converts
// DeadlineSteps of no progress into a permanent peer error.
func (p *tcpPeer) stepLoop() {
	defer p.t.wg.Done()
	ticker := time.NewTicker(p.t.opts.StepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.closed:
			return
		case <-ticker.C:
		}
		p.mu.Lock()
		if p.err != nil {
			p.mu.Unlock()
			continue
		}
		resend, dead := p.out.tick(p.t.opts.RetrySteps, p.t.opts.DeadlineSteps)
		if dead {
			p.err = &TransportError{Host: p.host, Exchange: -1, Pending: len(p.out.unacked), Steps: p.out.wait,
				Reason: fmt.Sprintf("no ack progress from peer %d", p.host)}
			p.mu.Unlock()
			p.t.nudge()
			continue
		}
		if resend && p.ensureConnLocked() {
			p.writeAllLocked(p.out.retransmit())
		}
		p.mu.Unlock()
	}
}

// ensureConnLocked dials the peer if no connection is live, sends the
// hello, and starts the ack reader. Called with p.mu held.
func (p *tcpPeer) ensureConnLocked() bool {
	if p.conn != nil {
		return true
	}
	select {
	case <-p.closed:
		return false
	default:
	}
	conn, err := net.DialTimeout("tcp", p.addr, p.t.opts.DialTimeout)
	if err != nil {
		return false
	}
	hello := make([]byte, 9)
	hello[0] = recHello
	binary.LittleEndian.PutUint32(hello[1:], uint32(p.t.self))
	binary.LittleEndian.PutUint32(hello[5:], uint32(p.t.opts.Epoch))
	if err := writeFrame(conn, 0, hello); err != nil {
		conn.Close()
		return false
	}
	p.conn = conn
	// The first dial is normal startup; only reconnections count as
	// recovery work.
	if p.everConn {
		p.out.stats.Redials++
	}
	p.everConn = true
	p.t.wg.Add(1)
	go p.readAcks(conn)
	return true
}

func (p *tcpPeer) writeLocked(frame []byte) error {
	p.conn.SetWriteDeadline(time.Now().Add(time.Duration(p.t.opts.DeadlineSteps) * p.t.opts.StepInterval))
	_, err := p.conn.Write(frame)
	return err
}

func (p *tcpPeer) dropConnLocked() {
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
}

// readAcks consumes cumulative acks from the dialed connection and
// trims the unacked queue. Exits when the connection dies; the step
// loop re-dials.
func (p *tcpPeer) readAcks(conn net.Conn) {
	defer p.t.wg.Done()
	for {
		_, body, err := readFrame(conn)
		if err != nil {
			p.mu.Lock()
			if p.conn == conn {
				p.dropConnLocked()
			}
			p.mu.Unlock()
			return
		}
		if len(body) != 5 || body[0] != recAck {
			continue
		}
		p.mu.Lock()
		p.out.ack(binary.LittleEndian.Uint32(body[1:]))
		p.mu.Unlock()
	}
}

func (p *tcpPeer) close() {
	p.once.Do(func() { close(p.closed) })
	p.mu.Lock()
	p.dropConnLocked()
	p.mu.Unlock()
}

// readFrame reads one gluon frame off a stream: the fixed header
// first, then exactly the payload length the (checksum-protected)
// header declares. Any decode failure is returned as an error — the
// caller treats the connection as dead and the retry path recovers.
func readFrame(r io.Reader) (seq uint32, payload []byte, err error) {
	hdr := make([]byte, FrameOverhead)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	if [4]byte(hdr[:4]) != frameMagic {
		return 0, nil, fmt.Errorf("%w: bad magic on stream", ErrBadFrame)
	}
	plen := binary.LittleEndian.Uint32(hdr[8:])
	if plen > 1<<30 {
		return 0, nil, fmt.Errorf("%w: implausible payload length %d", ErrBadFrame, plen)
	}
	buf := make([]byte, FrameOverhead+int(plen))
	copy(buf, hdr)
	if _, err := io.ReadFull(r, buf[FrameOverhead:]); err != nil {
		return 0, nil, err
	}
	return DecodeFrame(buf)
}

// dataRecord builds the data record carrying one exchange payload.
func dataRecord(exchange int, payload []byte) []byte {
	body := make([]byte, 5+len(payload))
	body[0] = recData
	binary.LittleEndian.PutUint32(body[1:], uint32(exchange))
	copy(body[5:], payload)
	return body
}

// writeFrame frames and writes one record. Safe for use from the
// receiver path (acks); senders go through tcpPeer so retries reuse
// the already-encoded frame.
func writeFrame(w io.Writer, seq uint32, body []byte) error {
	_, err := w.Write(EncodeFrame(seq, body))
	return err
}
