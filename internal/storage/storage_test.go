package storage

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestWriteCompletesAfterLatency(t *testing.T) {
	s := sim.New(1)
	st := New(s, 5*time.Millisecond)
	var doneAt sim.Time
	st.Write(func() { doneAt = s.Now() })
	if err := s.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if doneAt != sim.Time(5*time.Millisecond) {
		t.Fatalf("write completed at %v, want 5ms", doneAt)
	}
	if st.Writes() != 1 {
		t.Errorf("Writes = %d", st.Writes())
	}
	if st.Latency() != 5*time.Millisecond {
		t.Errorf("Latency = %v", st.Latency())
	}
}

func TestWritesSerializeThroughOneDevice(t *testing.T) {
	s := sim.New(1)
	st := New(s, 2*time.Millisecond)
	var completions []sim.Time
	for i := 0; i < 3; i++ {
		st.Write(func() { completions = append(completions, s.Now()) })
	}
	if err := s.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	want := []sim.Time{
		sim.Time(2 * time.Millisecond),
		sim.Time(4 * time.Millisecond),
		sim.Time(6 * time.Millisecond),
	}
	for i := range want {
		if completions[i] != want[i] {
			t.Fatalf("completions = %v, want %v", completions, want)
		}
	}
	// The first write starts immediately; the other two queue behind it.
	if st.MaxQueue() != 2 {
		t.Errorf("MaxQueue = %d, want 2", st.MaxQueue())
	}
}

func TestZeroLatencyStillAsynchronous(t *testing.T) {
	s := sim.New(1)
	st := New(s, 0)
	done := false
	st.Write(func() { done = true })
	if done {
		t.Fatal("zero-latency write completed synchronously")
	}
	if err := s.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("write never completed")
	}
}

func TestWriteFromCompletionCallback(t *testing.T) {
	// A write issued from a completion callback (as the baseline's confirm
	// chain does) must queue and run, not deadlock or recurse.
	s := sim.New(1)
	st := New(s, time.Millisecond)
	order := []int{}
	st.Write(func() {
		order = append(order, 1)
		st.Write(func() { order = append(order, 2) })
	})
	if err := s.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != sim.Time(2*time.Millisecond) {
		t.Errorf("chained writes finished at %v, want 2ms", s.Now())
	}
}

// TestDropMidWrite crashes the owner while one append is in flight and
// two more are queued: the in-flight write is torn to a strict prefix,
// the queue vanishes, and no done callback ever fires — a wiped processor
// must not observe completions from before its crash.
func TestDropMidWrite(t *testing.T) {
	s := sim.New(1)
	st := New(s, 5*time.Millisecond)
	st.Append([]byte("first!"), nil)
	if err := s.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	fired := 0
	st.Append([]byte("inflight"), func() { fired++ })
	st.Append([]byte("queued-1"), func() { fired++ })
	st.Append([]byte("queued-2"), func() { fired++ })
	if err := s.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st.Drop()
	if err := s.RunFor(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("%d done callbacks fired across the crash", fired)
	}
	got := string(st.Contents())
	if got != "first!"+"infl" { // default tear keeps half of the 8 bytes
		t.Fatalf("disk = %q", got)
	}
	if st.Writes() != 1 {
		t.Errorf("Writes = %d, want only the pre-crash write", st.Writes())
	}

	// The device must accept a fresh write chain after the crash.
	ok := false
	st.Append([]byte("+next"), func() { ok = true })
	if err := s.RunFor(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !ok || string(st.Contents()) != "first!infl+next" {
		t.Fatalf("post-crash append: ok=%v disk=%q", ok, st.Contents())
	}
}

// TestDropWhenIdleKeepsDisk exercises Drop with nothing in flight.
func TestDropWhenIdleKeepsDisk(t *testing.T) {
	s := sim.New(1)
	st := New(s, time.Millisecond)
	st.Append([]byte("abc"), nil)
	if err := s.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st.Drop()
	if string(st.Contents()) != "abc" {
		t.Fatalf("disk = %q, durable bytes must survive a crash", st.Contents())
	}
}

// TestTornPrefixHook checks the injectable tear policy, including
// out-of-range returns being clamped to a strict prefix.
func TestTornPrefixHook(t *testing.T) {
	for _, tc := range []struct {
		ret  int
		want string
	}{
		{0, ""}, {3, "abc"}, {-5, ""}, {99, "abcdefg"}, // 99 clamps to n-1
	} {
		s := sim.New(1)
		st := New(s, 5*time.Millisecond)
		st.TornPrefix = func(n int) int { return tc.ret }
		st.Append([]byte("abcdefgh"), nil)
		if err := s.RunFor(time.Millisecond); err != nil {
			t.Fatal(err)
		}
		st.Drop()
		if got := string(st.Contents()); got != tc.want {
			t.Errorf("TornPrefix→%d: disk = %q, want %q", tc.ret, got, tc.want)
		}
	}
}

// TestFlipBitBounds checks the corruption hook flips exactly one bit and
// ignores out-of-range offsets.
func TestFlipBitBounds(t *testing.T) {
	s := sim.New(1)
	st := New(s, 0)
	st.Append([]byte{0x00, 0xff}, nil)
	if err := s.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st.FlipBit(0, 3)
	st.FlipBit(-1, 0) // all ignored
	st.FlipBit(2, 0)
	st.FlipBit(1, 8)
	got := st.Contents()
	if got[0] != 0x08 || got[1] != 0xff {
		t.Fatalf("disk = %x", got)
	}
}

// TestPausedHeadHoldsDueWrite: a write that falls due while the device is
// paused stays in flight — a Drop then tears it and nothing completes —
// and one that survives to Resume completes on the next event, with the
// queue behind it following at the usual latency.
func TestPausedHeadHoldsDueWrite(t *testing.T) {
	s := sim.New(1)
	st := New(s, 2*time.Millisecond)
	var done []int
	st.Append([]byte("abcd"), func() { done = append(done, 1) })
	st.Append([]byte("ef"), func() { done = append(done, 2) })
	st.Pause()
	if err := s.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 || st.Size() != 0 {
		t.Fatalf("paused device completed %v, holds %d bytes", done, st.Size())
	}
	st.Resume()
	if err := s.RunFor(0); err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 || st.Size() != 4 {
		t.Fatalf("resume completed %v, holds %d bytes; want [1], 4", done, st.Size())
	}
	if err := s.RunFor(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 || string(st.Contents()) != "abcdef" {
		t.Fatalf("completed %v, image %q", done, st.Contents())
	}

	st.Append([]byte("ghij"), func() { done = append(done, 3) })
	st.Pause()
	if err := s.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st.Drop()
	st.Resume()
	if err := s.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 || string(st.Contents()) != "abcdefgh" {
		t.Fatalf("a held write survived the crash: completed %v, image %q", done, st.Contents())
	}
}
