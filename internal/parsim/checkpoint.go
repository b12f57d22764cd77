package parsim

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"repro/internal/checkpoint"
)

// This file implements federation-level checkpoint/restore. A snapshot
// is taken at a window barrier — between Run calls, when every outbox
// has been delivered and every LP engine sits exactly at the window
// clock — and contains the federation counters, each LP's embedded
// engine snapshot, and the model's Checkpointable state. A restored
// federation resumes at the recorded window boundary and produces a
// run bit-identical to one that was never interrupted, for any worker
// count.

// snapshot section names (federation level).
const (
	secFed   = "parsim.fed"
	secLP    = "parsim.lp"
	secModel = "parsim.model"
)

// msgOpName names the registered op that delivers cross-LP messages.
// Its argument is the message in the encodeMessage layout; the name
// changes whenever that layout does, so a snapshot holding messages in
// an older layout fails Restore with an unregistered-op error instead
// of failing at its first delivery.
const msgOpName = "parsim.msg/bin"

// deliverOp is the message op's callback: decode the argument and hand
// the message to the LP's handler.
func (lp *LP) deliverOp(arg []byte) {
	m, err := decodeMessage(arg)
	if err != nil {
		panic(fmt.Sprintf("parsim: LP %d: %v", lp.Index, err))
	}
	lp.OnMessage(m)
}

// SetModel attaches the model's serializable state to federation
// snapshots: Checkpoint calls MarshalState, Restore calls
// UnmarshalState. Engine snapshots carry the pending events; this
// carries everything else the model accumulates (counters, caches).
func (f *Federation) SetModel(m checkpoint.Checkpointable) { f.model = m }

// Clock returns the end of the last completed window — the time a
// snapshot taken now would resume from.
func (f *Federation) Clock() float64 { return f.clock }

// Checkpoint writes a federation snapshot to w. It must be called
// between Run calls (at a window barrier).
func (f *Federation) Checkpoint(w io.Writer) error {
	for _, lp := range f.lps {
		for t, msgs := range lp.outbox {
			if len(msgs) != 0 {
				return fmt.Errorf("parsim: Checkpoint with undelivered messages from LP %d to LP %d (not at a window barrier)", lp.Index, t)
			}
		}
	}
	cw := checkpoint.NewWriter(w)
	var enc checkpoint.Enc
	enc.Int(len(f.lps))
	enc.F64(f.lookahead)
	enc.F64(f.clock)
	enc.U64(f.windows)
	enc.U64(f.idleSkips.Load())
	if err := cw.Section(secFed, enc.Bytes()); err != nil {
		return err
	}
	// One engine buffer and one section buffer serve every LP: the
	// writer has consumed a section before the next LP reuses them.
	var engSnap bytes.Buffer
	var lpBuf []byte
	for _, lp := range f.lps {
		engSnap.Reset()
		if err := lp.E.Checkpoint(&engSnap); err != nil {
			return fmt.Errorf("parsim: LP %d: %w", lp.Index, err)
		}
		lpEnc := checkpoint.NewEnc(lpBuf)
		lpEnc.Int(lp.Index)
		lpEnc.U64(lp.sent)
		lpEnc.U64(lp.recv)
		lpEnc.Raw(engSnap.Bytes())
		lpBuf = lpEnc.Bytes()
		if err := cw.Section(secLP, lpBuf); err != nil {
			return err
		}
	}
	if f.model != nil {
		state, err := f.model.MarshalState()
		if err != nil {
			return fmt.Errorf("parsim: model state: %w", err)
		}
		if err := cw.Section(secModel, state); err != nil {
			return err
		}
	}
	return cw.Close()
}

// Restore overwrites the federation with a snapshot written by
// Checkpoint. The federation must have the same LP count and lookahead
// as the checkpointed one and the same ops registered (the model must
// be constructed first, then restored over); the worker count may
// differ — results are worker-count independent either way.
func (f *Federation) Restore(r io.Reader) error {
	snap, err := checkpoint.Read(r)
	if err != nil {
		return err
	}
	fedSec, ok := snap.Section(secFed)
	if !ok {
		return fmt.Errorf("parsim: snapshot has no %s section", secFed)
	}
	d := checkpoint.NewDec(fedSec)
	n := d.Int()
	lookahead := d.F64()
	clock := d.F64()
	windows := d.U64()
	idleSkips := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(f.lps) {
		return fmt.Errorf("parsim: snapshot has %d LPs, federation has %d", n, len(f.lps))
	}
	if lookahead != f.lookahead {
		return fmt.Errorf("parsim: snapshot lookahead %v, federation lookahead %v", lookahead, f.lookahead)
	}
	lpSecs := snap.All(secLP)
	if len(lpSecs) != n {
		return fmt.Errorf("parsim: snapshot has %d LP sections, want %d", len(lpSecs), n)
	}
	modelState, hasModel := snap.Section(secModel)
	if hasModel && f.model == nil {
		return fmt.Errorf("parsim: snapshot carries model state but no model is attached (SetModel)")
	}
	if !hasModel && f.model != nil {
		return fmt.Errorf("parsim: snapshot has no model state but a model is attached")
	}

	for i, payload := range lpSecs {
		ld := checkpoint.NewDec(payload)
		idx := ld.Int()
		sent := ld.U64()
		recv := ld.U64()
		engSnap := ld.Raw()
		if err := ld.Err(); err != nil {
			return err
		}
		if idx != i {
			return fmt.Errorf("parsim: LP section %d has index %d", i, idx)
		}
		lp := f.lps[i]
		if err := lp.E.Restore(bytes.NewReader(engSnap)); err != nil {
			return fmt.Errorf("parsim: LP %d: %w", i, err)
		}
		lp.sent = sent
		lp.recv = recv
		for t := range lp.outbox {
			lp.outbox[t] = lp.outbox[t][:0]
		}
	}
	if f.model != nil {
		if err := f.model.UnmarshalState(modelState); err != nil {
			return fmt.Errorf("parsim: model state: %w", err)
		}
	}
	f.clock = clock
	f.windows = windows
	f.idleSkips.Store(idleSkips)
	return nil
}

// encodeMessage serializes a cross-LP message as its delivery time
// (fixed 8 bytes), sender index (uvarint) and length-prefixed payload,
// into a buffer of exactly encodedLen bytes.
func encodeMessage(m *Message) []byte {
	enc := checkpoint.NewEnc(make([]byte, 0, encodedLen(m.From, len(m.Data))))
	enc.F64(m.Time)
	enc.Int(m.From)
	enc.Raw(m.Data)
	return enc.Bytes()
}

// decodeMessage parses an encodeMessage argument. Data aliases arg.
// Anything but the exact canonical encoding is rejected: a short arg,
// trailing bytes, an overlong varint, or a sender index beyond int.
func decodeMessage(arg []byte) (Message, error) {
	d := checkpoint.NewDec(arg)
	t := d.F64()
	from := d.U64()
	data := d.RawView()
	if err := d.Err(); err != nil {
		return Message{}, fmt.Errorf("corrupt message: %w", err)
	}
	// Each decoded varint is at least its canonical length, so the
	// total matches the canonical size only if both are canonical and
	// nothing trails.
	if from > math.MaxInt || len(arg) != encodedLen(int(from), len(data)) {
		return Message{}, fmt.Errorf("corrupt message: %d bytes, not a canonical encoding", len(arg))
	}
	return Message{Time: t, From: int(from), Data: data}, nil
}

// encodedLen is the size of a message's canonical encoding.
func encodedLen(from, dataLen int) int {
	return 8 + uvarintLen(uint64(from)) + uvarintLen(uint64(dataLen)) + dataLen
}

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}
