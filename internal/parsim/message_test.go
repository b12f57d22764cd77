package parsim

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

// realMessages returns the encoded arguments of the first cross-LP
// messages a small PHOLD run delivers, plus hand-built messages that
// exercise multi-byte varints and a non-empty payload.
func realMessages(tb testing.TB) [][]byte {
	tb.Helper()
	ph := NewPHOLD(4, 1, 1.0, 4, 0.5, 0, 3)
	var out [][]byte
	for i := 0; i < ph.Fed.LPs(); i++ {
		lp := ph.Fed.LP(i)
		next := lp.OnMessage
		lp.OnMessage = func(m Message) {
			if len(out) < 8 {
				out = append(out, encodeMessage(&m))
			}
			next(m)
		}
	}
	ph.Run(20)
	if len(out) == 0 {
		tb.Fatal("PHOLD run delivered no messages")
	}
	for _, m := range []Message{
		{Time: 2.5, From: 0, Data: []byte("hello")},
		{Time: 1e9, From: 300, Data: bytes.Repeat([]byte{0xab}, 200)},
		{Time: math.Inf(1), From: math.MaxInt, Data: nil},
	} {
		out = append(out, encodeMessage(&m))
	}
	return out
}

// TestDecodeMessageRejectsCorrupt pins that every truncation, trailing
// byte, overlong varint and out-of-range sender index is an error.
func TestDecodeMessageRejectsCorrupt(t *testing.T) {
	good := encodeMessage(&Message{Time: 3, From: 300, Data: []byte("abc")})
	for n := 0; n < len(good); n++ {
		if _, err := decodeMessage(good[:n]); err == nil {
			t.Errorf("%d-byte truncation accepted", n)
		}
	}
	if _, err := decodeMessage(append(append([]byte{}, good...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	time8 := encodeMessage(&Message{Time: 3})[:8]
	for name, tail := range map[string][]byte{
		"overlong from":   {0x80, 0x00, 0x00},
		"overlong length": {0x00, 0x81, 0x00, 'x'},
		"from beyond int": {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0x00},
	} {
		arg := append(append([]byte{}, time8...), tail...)
		if _, err := decodeMessage(arg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// FuzzDecodeMessage: arbitrary bytes must decode to an error or to a
// message whose encoding is exactly the input — never a panic. Pending
// messages ride in checkpoint files, so this decoder reads bytes from
// disk.
func FuzzDecodeMessage(f *testing.F) {
	for _, arg := range realMessages(f) {
		f.Add(arg)
	}
	f.Fuzz(func(t *testing.T, arg []byte) {
		m, err := decodeMessage(arg)
		if err != nil {
			return
		}
		if re := encodeMessage(&m); !bytes.Equal(re, arg) {
			t.Fatalf("decoded %+v re-encodes to %x, input %x", m, re, arg)
		}
	})
}

// TestDeliveryAllocs gates the message path's allocations: over a
// steady-state PHOLD span, the run may allocate one encoded argument
// per delivered message plus a small constant for the per-Run pool,
// and nothing per window.
func TestDeliveryAllocs(t *testing.T) {
	const (
		warm   = 2048.0
		span   = 256.0 // windows measured (lookahead 1)
		budget = 16    // per-Run constant: pool setup, rare FEL growth
	)
	for _, workers := range []int{1, 2} {
		ph := NewPHOLD(8, workers, 1.0, 16, 0.2, 0, 17)
		ph.Run(warm)
		recv := func() (n uint64) {
			for i := 0; i < ph.Fed.LPs(); i++ {
				n += ph.Fed.LP(i).Received()
			}
			return n
		}
		before := recv()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ph.Run(warm + span)
		runtime.ReadMemStats(&m1)
		msgs := recv() - before
		allocs := m1.Mallocs - m0.Mallocs
		if msgs < span {
			t.Fatalf("workers=%d: only %d messages in %v windows; gate is vacuous", workers, msgs, span)
		}
		if allocs > msgs+budget {
			t.Fatalf("workers=%d: %d allocations for %d delivered messages over %v windows (budget messages+%d)",
				workers, allocs, msgs, span, budget)
		}
		t.Logf("workers=%d: %d allocations, %d messages", workers, allocs, msgs)
	}
}
