package gluon

// Reliable delivery: the one seq/ack/retransmit protocol in the tree,
// a state machine with no clock and no I/O. TCPTransport drives it from
// a wall-clock ticker and sockets, LossyTransport from a simulated
// delivery-step clock, so the in-process chaos sweep exercises the
// retransmission logic real clusters run. Per directed channel, the
// sender frames records under consecutive sequence numbers and queues
// them until a cumulative ack covers them; the receiver accepts exactly
// the next in-order sequence number and answers every data frame,
// duplicates included, with its cumulative ack; the sender retransmits
// after RetrySteps ticks without ack progress and gives up after
// DeadlineSteps.

// ackFrameBytes is the wire size of one cumulative ack record: a frame
// header plus [recAck][u32 cumulative seq].
const ackFrameBytes = FrameOverhead + 5

// reliableChannel is the protocol state of one directed channel. The
// sender half lives with the sending host and the receiver half (in)
// with the receiving host; a driver that keeps only one side of a
// channel uses only that half.
type reliableChannel struct {
	// Sender half. unacked is ordered by seq; the records with seq <=
	// sent have been on the wire at least once.
	seq     uint32
	sent    uint32
	acked   uint32
	unacked []sentRecord
	idle    int // ticks since the last retransmission or ack progress
	wait    int // ticks since the last ack progress
	stats   LinkStats

	// Receiver half: the highest in-order sequence number accepted.
	in uint32
}

type sentRecord struct {
	seq   uint32
	frame []byte
}

// push frames body under the next sequence number and queues it until
// acked. The record goes on the wire with the next untransmitted call.
func (c *reliableChannel) push(body []byte) {
	c.seq++
	c.unacked = append(c.unacked, sentRecord{seq: c.seq, frame: EncodeFrame(c.seq, body)})
}

// untransmitted returns the queued records that have never been on the
// wire and marks them transmitted.
func (c *reliableChannel) untransmitted() []sentRecord {
	n := c.transmitted()
	c.stats.FrameBytes += int64(len(c.unacked)-n) * FrameOverhead
	c.sent = c.seq
	return c.unacked[n:]
}

// retransmit returns the unacked records already sent once, counting
// them as retry work.
func (c *reliableChannel) retransmit() []sentRecord {
	recs := c.unacked[:c.transmitted()]
	for _, rec := range recs {
		c.stats.RetryMessages++
		c.stats.RetryBytes += int64(len(rec.frame))
	}
	return recs
}

func (c *reliableChannel) transmitted() int { return len(c.unacked) - int(c.seq-c.sent) }

// ack applies a cumulative ack from the receiver. Progress trims the
// queue and restarts both the retransmission and the deadline clock; an
// ack beyond what was ever transmitted is ignored.
func (c *reliableChannel) ack(cum uint32) {
	c.stats.AckMessages++
	c.stats.AckBytes += ackFrameBytes
	if cum <= c.acked || cum > c.sent {
		return
	}
	c.acked = cum
	c.idle, c.wait = 0, 0
	n := 0
	for _, rec := range c.unacked {
		if rec.seq > cum {
			c.unacked[n] = rec
			n++
		}
	}
	clear(c.unacked[n:])
	c.unacked = c.unacked[:n]
}

// tick advances the sender's clock by one step. resend reports that
// retrySteps ticks passed without ack progress since the last
// retransmission; dead that more than deadlineSteps ticks passed
// without ack progress. An empty queue keeps both clocks at zero.
func (c *reliableChannel) tick(retrySteps, deadlineSteps int) (resend, dead bool) {
	if len(c.unacked) == 0 {
		c.idle, c.wait = 0, 0
		return false, false
	}
	c.idle++
	c.wait++
	if c.wait > deadlineSteps {
		return false, true
	}
	if c.idle >= retrySteps {
		c.idle = 0
		return true, false
	}
	return false, false
}

// accept runs the receiver's in-order filter on a data frame's
// sequence number: fresh reports whether it is the next record in order
// (the caller dispatches it exactly once), ack is the cumulative ack to
// answer with.
func (c *reliableChannel) accept(seq uint32) (fresh bool, ack uint32) {
	if seq == c.in+1 {
		c.in = seq
		return true, seq
	}
	return false, c.in
}

// LinkStats is the protocol's cumulative work, kept apart from the
// logical volume ChannelStats counts, so the paper-model volume stays
// comparable with and without the protocol underneath.
type LinkStats struct {
	// Injected fault counts by kind (simulated link only).
	Drops, Dups, Delays, Truncations, Corruptions, Reorders, AckDrops int64
	StalledSteps                                                      int64

	RetryMessages int64 // retransmitted frames
	RetryBytes    int64 // bytes of retransmitted frames (incl. framing)
	FrameBytes    int64 // framing overhead of first transmissions
	AckMessages   int64 // acknowledgements that reached their sender
	AckBytes      int64
	Redials       int64 // connection re-establishments (TCP only)

	DeliverySteps    int64 // delivery steps simulated (simulated link only)
	MaxDeliverySteps int   // longest single delivery run, in steps
}

// Injected totals the injected faults of every kind.
func (s *LinkStats) Injected() int64 {
	return s.Drops + s.Dups + s.Delays + s.Truncations + s.Corruptions + s.Reorders + s.AckDrops
}

// Add accumulates o into s.
func (s *LinkStats) Add(o *LinkStats) {
	s.Drops += o.Drops
	s.Dups += o.Dups
	s.Delays += o.Delays
	s.Truncations += o.Truncations
	s.Corruptions += o.Corruptions
	s.Reorders += o.Reorders
	s.AckDrops += o.AckDrops
	s.StalledSteps += o.StalledSteps
	s.RetryMessages += o.RetryMessages
	s.RetryBytes += o.RetryBytes
	s.FrameBytes += o.FrameBytes
	s.AckMessages += o.AckMessages
	s.AckBytes += o.AckBytes
	s.Redials += o.Redials
	s.DeliverySteps += o.DeliverySteps
	s.MaxDeliverySteps = max(s.MaxDeliverySteps, o.MaxDeliverySteps)
}
