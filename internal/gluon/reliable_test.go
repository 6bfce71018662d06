package gluon

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestReliableChannelClocks pins the protocol state machine's timers:
// ack progress restarts both the retransmission and the deadline clock,
// a queue without progress goes out again every RetrySteps ticks, and
// more than DeadlineSteps ticks without progress kill the channel.
func TestReliableChannelClocks(t *testing.T) {
	const retry, deadline = 3, 7
	var c reliableChannel
	c.push([]byte("a"))
	if got := c.untransmitted(); len(got) != 1 || got[0].seq != 1 {
		t.Fatalf("first transmission = %+v, want seq 1", got)
	}
	// Acks keep flowing while new records queue up: never a retransmit.
	for i := 2; i <= 20; i++ {
		c.push([]byte{byte(i)})
		c.untransmitted()
		for k := 0; k < retry-1; k++ {
			if resend, dead := c.tick(retry, deadline); resend || dead {
				t.Fatalf("record %d tick %d: resend=%v dead=%v with acks flowing", i, k, resend, dead)
			}
		}
		c.ack(uint32(i - 1))
	}
	if c.stats.RetryMessages != 0 {
		t.Fatalf("%d retransmissions on a link whose acks kept progressing", c.stats.RetryMessages)
	}
	// No progress: a retransmission every retry ticks, then death.
	resends := 0
	for k := 1; ; k++ {
		resend, dead := c.tick(retry, deadline)
		if dead {
			if k != deadline+1 {
				t.Fatalf("channel died at tick %d, want %d", k, deadline+1)
			}
			break
		}
		if resend {
			resends++
			if recs := c.retransmit(); len(recs) != 1 || recs[0].seq != 20 {
				t.Fatalf("retransmitted %+v, want the one unacked record", recs)
			}
		}
	}
	if resends != deadline/retry {
		t.Fatalf("%d retransmissions before the deadline, want %d", resends, deadline/retry)
	}
}

// TestReliableChannelInOrderFilter pins the receiver half: only the
// next in-order sequence number is accepted, everything else is
// answered with the unchanged cumulative ack.
func TestReliableChannelInOrderFilter(t *testing.T) {
	var c reliableChannel
	for _, tc := range []struct {
		seq   uint32
		fresh bool
		ack   uint32
	}{{2, false, 0}, {1, true, 1}, {1, false, 1}, {3, false, 1}, {2, true, 2}, {3, true, 3}} {
		fresh, ack := c.accept(tc.seq)
		if fresh != tc.fresh || ack != tc.ack {
			t.Fatalf("accept(%d) = (%v, %d), want (%v, %d)", tc.seq, fresh, ack, tc.fresh, tc.ack)
		}
	}
}

// TestTCPCleanLinkNoRetries pins that a clean TCP link never
// retransmits. A single-P runtime with CPU-bound work between
// exchanges delays ack processing by whole scheduler slices, so the
// unacked queue is often non-empty at a tick even though every record
// is acked soon after; only ticks without ack progress may count toward
// RetrySteps, or such a run retransmits spuriously.
func TestTCPCleanLinkNoRetries(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const exchanges = 200
	c := tcpCluster(t, 2, TCPOptions{StepInterval: 10 * time.Millisecond})
	defer c.done()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for h := 0; h < 2; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			tr := c.view(h)
			for e := 0; e < exchanges; e++ {
				if err := tr.Send(e, h, 1-h, confPayload(e, h, 1-h)); err != nil {
					errs <- err
					return
				}
				if _, err := tr.Gather(e, h); err != nil {
					errs <- err
					return
				}
				for end := time.Now().Add(2 * time.Millisecond); time.Now().Before(end); {
				}
			}
		}(h)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for h := 0; h < 2; h++ {
		if r := c.view(h).(*TCPTransport).LinkStats().RetryMessages; r != 0 {
			t.Errorf("host %d retransmitted %d records on a clean link", h, r)
		}
	}
}

// lossyCluster wraps one LossyTransport as a conformance cluster: every
// host shares the object, as with MemTransport.
func lossyCluster(hosts int, plan *FaultPlan) *conformanceCluster {
	l := NewLossyTransport(hosts, plan)
	return &conformanceCluster{
		name: l.Backend(),
		view: func(h int) Transport { return l },
		done: func() { l.Close() },
	}
}

// TestLossyInterleavedExchangesDeliverInOrder opens two exchanges on a
// faulty link and gathers the later one first, as a pipelined cluster
// may: its records sit behind the earlier exchange's on every channel,
// so the link must deliver both, in sequence order, to complete it.
func TestLossyInterleavedExchangesDeliverInOrder(t *testing.T) {
	const hosts = 3
	plan := &FaultPlan{Seed: 5, Drop: 0.3, Dup: 0.2, Delay: 0.3, Reorder: 0.5, AckDrop: 0.2}
	l := NewLossyTransport(hosts, plan)
	for _, e := range []int{10, 11} {
		for from := 0; from < hosts; from++ {
			for to := 0; to < hosts; to++ {
				if from != to {
					if err := l.Send(e, from, to, confPayload(e, from, to)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	for _, e := range []int{11, 10} {
		for to := 0; to < hosts; to++ {
			bufs, err := l.Gather(e, to)
			if err != nil {
				t.Fatal(err)
			}
			for from := 0; from < hosts; from++ {
				if from != to && !bytes.Equal(bufs[from], confPayload(e, from, to)) {
					t.Fatalf("exchange %d %d->%d: got %x, want %x", e, from, to, bufs[from], confPayload(e, from, to))
				}
			}
		}
	}
	if s := l.LinkStats(); s.RetryMessages == 0 || s.Injected() == 0 {
		t.Fatalf("faulty link recorded no recovery work: %+v", s)
	}
}

// TestLossyKillFailsWithKilledError pins the kill path: a host killed
// mid-exchange trips the deadline with a Killed *TransportError naming
// it, and the failed link stays failed.
func TestLossyKillFailsWithKilledError(t *testing.T) {
	const hosts = 3
	l := NewLossyTransport(hosts, &FaultPlan{DeadlineSteps: 8, Kills: []Kill{{Host: 2, Exchange: 1, Step: 0}}})
	for e := 0; e < 2; e++ {
		for from := 0; from < hosts; from++ {
			for to := 0; to < hosts; to++ {
				if from != to {
					if err := l.Send(e, from, to, []byte{byte(e), byte(from), byte(to)}); err != nil {
						t.Fatalf("exchange %d: %v", e, err)
					}
				}
			}
		}
		_, err := l.Gather(e, 0)
		if e == 0 {
			if err != nil {
				t.Fatalf("exchange before the kill failed: %v", err)
			}
			for to := 1; to < hosts; to++ {
				l.Gather(e, to)
			}
			continue
		}
		var te *TransportError
		if !errors.As(err, &te) || !te.Killed || te.Host != 2 {
			t.Fatalf("gather after the kill = %v, want a Killed *TransportError naming host 2", err)
		}
	}
	if err := l.Send(2, 0, 1, []byte{1}); err == nil {
		t.Fatal("a failed link accepted a new send")
	}
}
