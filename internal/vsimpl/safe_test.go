package vsimpl

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/failures"
	"repro/internal/net"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/types"
)

// recordingTransport passes every packet through to the simulated network
// and shows each token send and each delivery to the test first.
type recordingTransport struct {
	*net.Network
	onSend    func(from types.ProcID, payload any)
	onDeliver func(to types.ProcID, pkt transport.Packet)
}

func (r *recordingTransport) Register(p types.ProcID, h func(transport.Packet)) {
	r.Network.Register(p, func(pkt transport.Packet) {
		r.onDeliver(p, pkt)
		h(pkt)
	})
}

func (r *recordingTransport) Send(from, to types.ProcID, payload any) {
	r.onSend(from, payload)
	r.Network.Send(from, to, payload)
}

// TestSafeAfterForward: at every token hop and launch the token is handed
// off — sent to the next member, or home at the leader and relaunched or
// held — before any Safe upcall of that merge, and every token leaves
// carrying its sender's count equal to the Gprcv upcalls it has made in
// the view. Checked under jitter, load, a partition and a heal.
// The subtest is named for the demand-driven ("eager") launch rule,
// the ring's only one.
func TestSafeAfterForward(t *testing.T) {
	t.Run("eager", testSafeAfterForward)
}

func testSafeAfterForward(t *testing.T) {
	const n = 5
	delta := time.Millisecond
	cfg := DefaultConfig(delta, n)
	s := sim.New(91)
	oracle := failures.NewOracle(s.Now)
	procs := types.RangeProcSet(n)
	nodes := make(map[types.ProcID]*Node, n)
	// merging[p]: p has merged a token (received or launched) that it
	// has not handed off yet. gprcvs[p]: p's Gprcv upcalls in its view.
	merging := make(map[types.ProcID]bool)
	gprcvs := make(map[types.ProcID]int)
	sends, safes := 0, 0
	tr := &recordingTransport{Network: net.New(s, oracle, net.Config{Delta: delta, Jitter: true})}
	tr.onDeliver = func(to types.ProcID, pkt transport.Packet) {
		node := nodes[to]
		if tok, ok := pkt.Payload.(*TokenPkt); ok && node.hasView && tok.View.ID == node.cur.ID && !oracle.Proc(to).Down() {
			merging[to] = true
		}
	}
	tr.onSend = func(from types.ProcID, payload any) {
		tok, ok := payload.(*TokenPkt)
		if !ok {
			return
		}
		sends++
		merging[from] = false
		if got := tok.Delivered[from]; got != gprcvs[from] {
			t.Fatalf("%v sends a token counting %d deliveries after %d Gprcv upcalls", from, got, gprcvs[from])
		}
	}
	log := &props.Log{}
	for _, p := range procs.Members() {
		p := p
		node := NewNode(p, procs, procs, s, tr, oracle, cfg, Handlers{
			Newview: func(types.View) { gprcvs[p] = 0 },
			Gprcv:   func(types.ProcID, any) { gprcvs[p]++ },
			Safe: func(types.ProcID, any) {
				safes++
				// A leader holding the token has handed it off too.
				if merging[p] && !nodes[p].holdTimer.Pending() {
					t.Fatalf("%v at %v: Safe upcall before its merge's token left", p, s.Now())
				}
			},
		})
		node.Log = log
		node.onLaunch = func(*TokenPkt) { merging[p] = true }
		nodes[p] = node
	}
	for _, p := range procs.Members() {
		nodes[p].Start()
	}
	rng := rand.New(rand.NewSource(3))
	var load func()
	load = func() {
		if s.Now() > sim.Time(700*time.Millisecond) {
			return
		}
		s.After(time.Duration(1+rng.Intn(3))*time.Millisecond, load)
		nodes[types.ProcID(rng.Intn(n))].Gpsnd("m")
	}
	s.After(time.Millisecond, load)
	s.After(200*time.Millisecond, func() {
		oracle.Partition(procs, types.NewProcSet(0, 1, 2), types.NewProcSet(3, 4))
	})
	s.After(450*time.Millisecond, func() { oracle.Heal(procs) })
	if err := s.Run(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	c := &cluster{sim: s, log: log, procs: procs}
	c.conformance(t, procs)
	if sends < 200 || safes < 500 {
		t.Fatalf("scenario too weak: %d token sends, %d Safe upcalls", sends, safes)
	}
	t.Logf("%d token sends, %d Safe upcalls checked", sends, safes)
}

// TestNestedRelaunchEmitsSafeOnce: in a singleton view every merge makes
// its messages safe at once. A Safe upcall that sends the next message
// relaunches the held token from inside the emission (Gpsnd → launchHeld),
// and that launch's merge raises the safe target again. Each message must
// still get exactly one Safe upcall, in delivery order, and the trace
// must stay VS-conformant.
func TestNestedRelaunchEmitsSafeOnce(t *testing.T) {
	const chain = 6
	delta := time.Millisecond
	cfg := DefaultConfig(delta, 1)
	s := sim.New(1)
	oracle := failures.NewOracle(s.Now)
	procs := types.RangeProcSet(1)
	var node *Node
	var safe []check.MsgID
	nested := 0
	node = NewNode(0, procs, procs, s, net.New(s, oracle, net.Config{Delta: delta}), oracle, cfg, Handlers{
		Safe: func(_ types.ProcID, payload any) {
			id := payload.(check.MsgID)
			safe = append(safe, id)
			if id.Seq < chain && id.Seq == len(safe) { // once, even if safe repeats
				if !node.holdTimer.Pending() {
					t.Fatalf("safe for %v: the leader does not hold the token", id)
				}
				nested++
				node.Gpsnd(check.MsgID{Sender: 0, Seq: id.Seq + 1})
			}
		},
	})
	log := &props.Log{}
	node.Log = log
	node.Start()
	s.After(2*cfg.Pi, func() { node.Gpsnd(check.MsgID{Sender: 0, Seq: 1}) })
	if err := s.Run(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	c := &cluster{sim: s, log: log, procs: procs}
	c.conformance(t, procs)
	if len(safe) != chain || nested != chain-1 {
		t.Fatalf("%d Safe upcalls (%d nested relaunches) for %d messages: %v", len(safe), nested, chain, safe)
	}
	for i, id := range safe {
		if id.Seq != i+1 {
			t.Fatalf("Safe upcall %d is for %v, want seq %d: %v", i, id, i+1, safe)
		}
	}
	if st := node.Stats(); st.Delivered != chain || st.SafeEmitted != chain {
		t.Fatalf("stats %+v, want %d delivered and safe", st, chain)
	}
}
