package distsim

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/partition"
)

// FuzzUnmarshalFrame throws arbitrary bytes at the wire codec: every
// input must either fail with a typed error or decode into a frame
// with a valid kind — never panic, never allocate beyond the payload
// size, never return both a frame and an error. The seed corpus
// covers every frame shape the protocol actually sends.
func FuzzUnmarshalFrame(f *testing.F) {
	seeds := []*frame{
		{Kind: frameRegister, LPs: []int{0, 1, 2}},
		{Kind: frameConfig, Lookahead: 1, Horizon: 100, Seed: 42, Session: 7,
			TimeoutSec: 2, ObsEvery: 1, ObsSpans: 64, RebalanceEvery: 2},
		{Kind: frameWindow, End: 3.5, WinSeq: 9, Events: []Event{
			{Time: 1.25, From: 0, To: 3, Seq: 4, Data: []byte{1, 2, 3}},
			{Time: 2.5, From: 2, To: 1, Seq: 8},
		}},
		{Kind: frameDone, Next: math.Inf(1), Obs: []byte{0xAA, 0xBB},
			Events: []Event{{Time: 4, From: 1, To: 0, Seq: 2, Data: []byte{9}}},
			Loads:  []partition.Load{{LP: 1, Events: 3, BusyNs: 4500}}},
		{Kind: frameStats, Stats: WorkerStats{LPs: []int{3, 4}, EventsExecuted: 17,
			Sent: 5, Received: 6, PerLPCounts: map[int]uint64{3: 9, 4: 8}, Incomplete: true}},
		{Kind: frameHello, Session: 99, RecvSeq: 12, LPs: []int{5}},
		{Kind: frameResume, RecvSeq: 12},
		{Kind: frameSnapshot, Data: []byte("snapshot-bytes")},
		{Kind: frameHeartbeat, SendSeq: 3},
		{Kind: frameCoordHello, Session: 99},
		{Kind: frameReadopt, LPs: []int{0, 1}, WinSeq: 7, Next: 8.25},
		{Kind: frameErrCase, Err: "boom"},
	}
	for _, fr := range seeds {
		f.Add(marshalFrame(fr))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := unmarshalFrame(data)
		if err != nil {
			if fr != nil {
				t.Fatalf("unmarshalFrame returned both a frame and %v", err)
			}
		} else {
			if fr == nil {
				t.Fatal("unmarshalFrame returned neither frame nor error")
			}
			if fr.Kind == 0 || fr.Kind >= frameKindMax {
				t.Fatalf("decoded frame has invalid kind %d", fr.Kind)
			}
			// A frame that decodes must re-encode and decode again: the
			// codec is its own round-trip witness.
			if _, err := unmarshalFrame(marshalFrame(fr)); err != nil {
				t.Fatalf("re-encoded frame does not decode: %v", err)
			}
		}
		// The pooled decode path must agree with the allocating one.
		var f2 frame
		var evs []Event
		if err2 := unmarshalFrameInto(&f2, &evs, data); (err2 == nil) != (err == nil) {
			t.Fatalf("pooled decode err=%v, allocating decode err=%v", err2, err)
		}
	})
}

// FuzzLoadJournal throws arbitrary bytes at journal replay, the
// decoder a restarting coordinator runs over its control-plane
// journal: every input must load into a state or fail with
// ErrJournalCorrupt or ErrJournalTruncated (a torn tail, which still
// returns the valid prefix's state) — never panic. Each input is also
// replayed with its record CRCs recomputed, so that mutations inside a
// payload reach the record decoders instead of stopping at the
// checksum. The seed corpus is the journal the replay tests build,
// whole, torn at every record and in the middle of one, and followed
// by the zeroed slack a live journal preallocates.
func FuzzLoadJournal(f *testing.F) {
	_, data := buildJournal(f)
	for off := range recordBounds(data) {
		if off <= len(data) {
			f.Add(data[:off])
		}
		if off+5 <= len(data) {
			f.Add(data[:off+5])
		}
	}
	f.Add(append(append([]byte{}, data...), make([]byte, 64)...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resealJournal(data)} {
			st, err := parseJournal(in)
			switch {
			case err == nil, errors.Is(err, ErrJournalTruncated):
				if st == nil {
					t.Fatalf("parseJournal returned no state with err=%v", err)
				}
				if st.validLen > int64(len(in)) {
					t.Fatalf("valid prefix %d is longer than the %d-byte input", st.validLen, len(in))
				}
			case errors.Is(err, ErrJournalCorrupt):
				if st != nil {
					t.Fatalf("parseJournal returned a state alongside %v", err)
				}
			default:
				t.Fatalf("untyped journal error: %v", err)
			}
		}
	})
}

// resealJournal returns a copy of data with the CRC of every complete
// record rewritten to match its payload.
func resealJournal(data []byte) []byte {
	out := append([]byte{}, data...)
	off := journalHeaderLen
	for off+4 <= len(out) {
		n := int(binary.BigEndian.Uint32(out[off:]))
		if n == 0 || n > len(out)-off-8 {
			break
		}
		binary.BigEndian.PutUint32(out[off+4+n:], crc32.ChecksumIEEE(out[off+4:off+4+n]))
		off += 8 + n
	}
	return out
}

// frameErrCase aliases frameLPState: the donor's error-reporting
// frame, the only one where Err rides a sequenced frame.
const frameErrCase = frameLPState
