package transport

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"p2pcollect/internal/obs"
	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
)

// conformanceFabric builds endpoints of one concrete transport for
// TestTransportConformance.
type conformanceFabric struct {
	name string
	// pair returns endpoints 1 and 2, each routable to the other.
	pair func(t *testing.T) (a, b Transport)
	// stalled returns endpoint 1 with a small outbox toward a destination 2
	// that accepts frames slower than a tight Send loop produces them, or
	// nil when the fabric has no outbox.
	stalled func(t *testing.T) Transport
}

func conformanceFabrics() []conformanceFabric {
	must := func(t *testing.T, tr Transport, err error) Transport {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	return []conformanceFabric{
		{
			name: "chanmem",
			pair: func(t *testing.T) (Transport, Transport) {
				net := NewNetwork()
				return net.Join(1), net.Join(2)
			},
		},
		{
			name: "tcp",
			pair: func(t *testing.T) (Transport, Transport) {
				a, err := ListenTCP(1, "127.0.0.1:0", nil)
				must(t, a, err)
				b, err := ListenTCP(2, "127.0.0.1:0", map[NodeID]string{1: a.Addr()})
				must(t, b, err)
				a.AddRoute(2, b.Addr())
				return a, b
			},
			stalled: func(t *testing.T) Transport {
				tr, err := ListenTCPOpts(1, "127.0.0.1:0", map[NodeID]string{2: startBlackhole(t)},
					TCPOptions{WriteTimeout: 150 * time.Millisecond, OutboxSize: 2})
				return must(t, tr, err)
			},
		},
		{
			name: "udp",
			pair: func(t *testing.T) (Transport, Transport) {
				a, err := ListenUDP(1, "127.0.0.1:0", nil)
				must(t, a, err)
				b, err := ListenUDP(2, "127.0.0.1:0", map[NodeID]string{1: a.Addr()})
				must(t, b, err)
				a.AddRoute(2, b.Addr())
				return a, b
			},
			stalled: func(t *testing.T) Transport {
				// One socket write per datagram is the stall: a tight Send
				// loop outruns it against a one-slot outbox.
				sink, err := ListenUDP(2, "127.0.0.1:0", nil)
				must(t, sink, err)
				tr, err := ListenUDPOpts(1, "127.0.0.1:0", map[NodeID]string{2: sink.Addr()}, UDPOptions{OutboxSize: 1})
				return must(t, tr, err)
			},
		},
	}
}

// counter reads one health counter of an instrumented transport.
func counter(tr Transport, name string) int64 { return counters(tr)[name] }

// counters snapshots a transport's health counters into a map.
func counters(tr Transport) map[string]int64 {
	out := make(map[string]int64)
	tr.(CounterRanger).RangeCounters(func(name string, v int64) { out[name] = v })
	return out
}

// eventually polls cond for up to five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestTransportConformance pins what the shared transport core promises of
// every concrete transport: the Send prologue (closed, unroutable,
// stamping, counting), inbound backpressure, outbox backpressure, and
// shutdown. It absorbed the per-transport tests that asserted a subset of
// the same things (TestChanNetworkDelivery, TestChanNetworkUnknownDestination,
// TestChanTransportClose, TestTCPUnknownRoute, TestTCPCloseIsClean,
// TestUDPUnknownRoute, TestUDPCloseIsClean).
func TestTransportConformance(t *testing.T) {
	for _, fab := range conformanceFabrics() {
		t.Run(fab.name+"/stamp-and-count", func(t *testing.T) {
			a, b := fab.pair(t)
			msg := sampleBlockMessage()
			msg.From, msg.To = 77, 88 // whatever the caller left there is ignored, and kept
			// A datagram may be lost even on loopback: resend until delivered.
			var got *Message
			eventually(t, "delivery", func() bool {
				if err := a.Send(2, msg); err != nil {
					t.Fatalf("Send: %v", err)
				}
				select {
				case got = <-b.Receive():
					return true
				case <-time.After(20 * time.Millisecond):
					return false
				}
			})
			if got.From != 1 || got.To != 2 {
				t.Errorf("delivered copy addressed from=%d to=%d, want 1→2", got.From, got.To)
			}
			if got.Block == nil || got.Block.Seg.Seq != 42 {
				t.Errorf("payload lost: %+v", got)
			}
			if msg.From != 77 || msg.To != 88 {
				t.Errorf("caller's message was restamped: from=%d to=%d", msg.From, msg.To)
			}
			if n := counter(a, "transportSendsEnqueued"); n < 1 {
				t.Errorf("transportSendsEnqueued = %d after a Send", n)
			}
			eventually(t, "transportFramesDelivered", func() bool { return counter(a, "transportFramesDelivered") >= 1 })
			// And back the other way, over the same pair.
			if err := b.Send(1, &Message{Type: MsgPullRequest}); err != nil {
				t.Fatalf("Send back: %v", err)
			}
			if reply := recvWithTimeout(t, a.Receive()); reply.Type != MsgPullRequest || reply.From != 2 {
				t.Errorf("bad reply: %+v", reply)
			}
		})

		// Send does not retain its argument: the caller overwrites its
		// Message the moment Send returns and the receiver still reads what
		// was sent. Every fabric, bare and behind a Faulty whose injected
		// latency runs the inner Send after the outer one has returned. The
		// block is left alone: it is shared by reference (chanmem) and the
		// contract makes it immutable once sent.
		for _, delayed := range []bool{false, true} {
			name := fab.name + "/send-does-not-retain"
			if delayed {
				name = fab.name + "+latency/send-does-not-retain"
			}
			t.Run(name, func(t *testing.T) {
				a, b := fab.pair(t)
				if delayed {
					lat := FaultConfig{LatencyMin: 5 * time.Millisecond, LatencyMax: 5 * time.Millisecond}
					f := NewFaulty(a, lat, randx.New(1))
					t.Cleanup(func() { f.Close() })
					a = f
				}
				sent := sampleBlockMessage()
				sent.Trace = obs.TraceContext{ID: 7, Hop: 2}
				var got *Message
				eventually(t, "delivery", func() bool {
					msg := *sent
					if err := a.Send(2, &msg); err != nil {
						t.Fatalf("Send: %v", err)
					}
					msg = Message{
						Type: MsgInventory, From: 98, To: 99,
						Seg:     rlnc.SegmentID{Origin: 9, Seq: 9},
						HasHint: true, WantInventory: true,
						Inventory: []pullsched.InventoryEntry{{Blocks: 1}},
						Trace:     obs.TraceContext{ID: 1},
						Raw:       []byte{1},
					}
					select {
					case got = <-b.Receive():
						return true
					case <-time.After(50 * time.Millisecond):
						return false
					}
				})
				if got.Type != MsgBlock || got.From != 1 || got.To != 2 || got.Trace != sent.Trace ||
					got.HasHint || got.WantInventory || got.Inventory != nil || got.Raw != nil {
					t.Errorf("received %+v, want the block message as it was when sent", got)
				}
				if got.Block == nil || got.Block.Seg != sent.Block.Seg ||
					!bytes.Equal(got.Block.Coeffs, sent.Block.Coeffs) ||
					!bytes.Equal(got.Block.Payload, sent.Block.Payload) {
					t.Errorf("received block %+v, want %+v", got.Block, sent.Block)
				}
			})
		}

		// A message its sender addressed travels as is: it arrives with
		// identical content (on chanmem, as the very object sent), and Send
		// writes nothing of it, which a reader running alongside lets -race
		// confirm. Bare, behind a fault-free Faulty, and behind a Faulty
		// whose delayed send travels a copy.
		for _, via := range []string{"", "+faulty", "+latency"} {
			t.Run(fab.name+via+"/addressed-passes-through", func(t *testing.T) {
				a, b := fab.pair(t)
				if via != "" {
					var cfg FaultConfig
					if via == "+latency" {
						cfg = FaultConfig{LatencyMin: 5 * time.Millisecond, LatencyMax: 5 * time.Millisecond}
					}
					f := NewFaulty(a, cfg, randx.New(1))
					t.Cleanup(func() { f.Close() })
					a = f
				}
				sent := sampleBlockMessage()
				sent.From, sent.To = 1, 2
				sent.Trace = obs.TraceContext{ID: 7, Hop: 2}
				before, err := EncodeMessage(sent)
				if err != nil {
					t.Fatal(err)
				}
				stop, done := make(chan struct{}), make(chan struct{})
				go func() {
					defer close(done)
					for {
						select {
						case <-stop:
							return
						default:
							EncodeMessage(sent) //nolint:errcheck // a read of every field
						}
					}
				}()
				var got *Message
				eventually(t, "delivery", func() bool {
					if err := a.Send(2, sent); err != nil {
						t.Fatalf("Send: %v", err)
					}
					select {
					case got = <-b.Receive():
						return true
					case <-time.After(50 * time.Millisecond):
						return false
					}
				})
				close(stop)
				<-done
				if after, _ := EncodeMessage(sent); !bytes.Equal(after, before) {
					t.Error("Send changed the sender's addressed message")
				}
				if frame, err := EncodeMessage(got); err != nil || !bytes.Equal(frame, before) {
					t.Errorf("received %+v, want the message as sent", got)
				}
				if fab.name == "chanmem" && via != "+latency" && got != sent {
					t.Error("chanmem delivered a copy of an addressed message, want the message itself")
				}
			})
		}

		t.Run(fab.name+"/unroutable", func(t *testing.T) {
			a, _ := fab.pair(t)
			enqueued := counter(a, "transportSendsEnqueued")
			if err := a.Send(99, &Message{Type: MsgEmpty}); !errors.Is(err, ErrUnknownNode) {
				t.Errorf("Send to an unroutable node: %v, want ErrUnknownNode", err)
			}
			if fab.name != "chanmem" && counter(a, "transportSendsEnqueued") != enqueued {
				// (The in-memory fabric resolves destinations after the
				// prologue, so there the refused send was already counted.)
				t.Error("a refused send was counted as enqueued")
			}
		})

		t.Run(fab.name+"/inbox-backpressure", func(t *testing.T) {
			a, b := fab.pair(t) // b is never drained
			eventually(t, "transportInboxDrops at the receiver", func() bool {
				for i := 0; i < defaultInboxSize; i++ {
					if err := a.Send(2, &Message{Type: MsgEmpty}); err != nil {
						t.Fatalf("Send: %v", err)
					}
				}
				return counter(b, "transportInboxDrops") > 0
			})
			if n := len(b.Receive()); n != defaultInboxSize {
				t.Errorf("inbox holds %d messages under backpressure, want it full at %d", n, defaultInboxSize)
			}
		})

		if fab.stalled != nil {
			t.Run(fab.name+"/outbox-backpressure", func(t *testing.T) {
				tr := fab.stalled(t)
				msg := bigBlockMessage()
				if fab.name == "udp" {
					msg = &Message{Type: MsgEmpty} // must fit a datagram
				}
				eventually(t, "transportDropsOverflow", func() bool {
					for i := 0; i < 64; i++ {
						if err := tr.Send(2, msg); err != nil {
							t.Fatalf("Send under backpressure: %v", err)
						}
					}
					return counter(tr, "transportDropsOverflow") > 0
				})
			})
		}

		t.Run(fab.name+"/close", func(t *testing.T) {
			a, b := fab.pair(t)
			// Live traffic both ways first, so there are connections,
			// learned routes and parked goroutines to tear down.
			eventually(t, "traffic before close", func() bool {
				a.Send(2, &Message{Type: MsgEmpty}) //nolint:errcheck // retried
				b.Send(1, &Message{Type: MsgEmpty}) //nolint:errcheck // retried
				return len(a.Receive()) > 0 && len(b.Receive()) > 0
			})
			// Close a under concurrent sends: no send may panic, and the
			// sender sees ErrClosed, nothing else.
			sender := make(chan error, 1)
			go func() {
				for {
					if err := a.Send(2, &Message{Type: MsgPullRequest}); err != nil {
						sender <- err
						return
					}
				}
			}()
			time.Sleep(10 * time.Millisecond)
			closed := make(chan error, 1)
			go func() { closed <- a.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatalf("Close: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Close hung")
			}
			if err := <-sender; !errors.Is(err, ErrClosed) {
				t.Errorf("Send racing Close failed with %v, want ErrClosed", err)
			}
			if err := a.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
			for range a.Receive() { // terminates only if Close closed the inbox
			}
			if err := a.Send(2, &Message{Type: MsgEmpty}); !errors.Is(err, ErrClosed) {
				t.Errorf("Send after Close: %v, want ErrClosed", err)
			}
			// A closed peer is not an error for the one still running: the
			// protocol tolerates the loss.
			if err := b.Send(1, &Message{Type: MsgEmpty}); err != nil {
				t.Errorf("Send to a closed peer: %v, want it silently absorbed", err)
			}
		})
	}
}

// TestOutboxEvictsOldest pins the one drop-oldest queue under the TCP
// senders and the UDP writer: a full outbox makes room for the newcomer at
// the head's expense, in order, and counts each eviction.
func TestOutboxEvictsOldest(t *testing.T) {
	o := make(outbox, 3)
	counters := newTransportCounters()
	for i := 0; i < 5; i++ {
		o.push(&Message{Type: MsgSegmentComplete, Seg: rlnc.SegmentID{Seq: uint64(i)}}, counters)
	}
	var got []uint64
	for len(o) > 0 {
		got = append(got, (<-o).Seg.Seq)
	}
	if fmt.Sprint(got) != "[2 3 4]" {
		t.Errorf("outbox kept %v, want the newest three in order [2 3 4]", got)
	}
	if n := counters.Get(ctrDropsOverflow); n != 2 {
		t.Errorf("transportDropsOverflow = %d, want 2", n)
	}
}
