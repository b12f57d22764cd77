package distsim

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
)

// buildJournal writes a representative journal through the real
// append API — genesis, barriers, a migration, a checkpoint mark, a
// skip — and returns its path and raw bytes.
func buildJournal(t testing.TB) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := createJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	cut := &journalCut{
		epochs:  []int{0, 1},
		regKeys: []string{lpKey([]int{0, 1}), lpKey([]int{2, 3})},
		lpSets:  [][]int{{0, 1}, {2, 3}},
		pending: [][]Event{
			{{Time: 1.5, From: 2, To: 0, Seq: 3, Data: []byte{1, 2}}},
			nil,
		},
	}
	if err := j.appendGenesis(2, 4, 1.0, 64, 7, cut); err != nil {
		t.Fatal(err)
	}
	pending := [][]Event{
		{{Time: 2.25, From: 3, To: 1, Seq: 9, Data: []byte{0xFE}}},
		{{Time: 2.5, From: 0, To: 2, Seq: 4}},
	}
	if err := j.appendBarrier(1, 0, 2, 2.0, pending); err != nil {
		t.Fatal(err)
	}
	if err := j.appendMigration(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := j.appendCheckpoint(1, 2.0); err != nil {
		t.Fatal(err)
	}
	if err := j.appendSkip(4.0, 2); err != nil {
		t.Fatal(err)
	}
	if err := j.appendBarrier(3, 2, 6, 5.0, pending); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestJournalReplay(t *testing.T) {
	_, data := buildJournal(t)
	st, err := parseJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !st.genesis || st.torn {
		t.Fatalf("genesis=%v torn=%v", st.genesis, st.torn)
	}
	if st.nWorkers != 2 || st.nLPs != 4 || st.lookahead != 1.0 || st.horizon != 64 || st.seed != 7 {
		t.Fatalf("run params = %+v", st)
	}
	if st.records != 6 || st.validLen != int64(len(data)) {
		t.Fatalf("records=%d validLen=%d len=%d", st.records, st.validLen, len(data))
	}
	if st.windows != 3 || st.skipped != 2 || st.eventsRouted != 6 || st.clock != 5.0 {
		t.Fatalf("counters = windows %d skipped %d routed %d clock %v",
			st.windows, st.skipped, st.eventsRouted, st.clock)
	}
	if !st.hasCkpt || st.ckptWindows != 1 || st.ckptClock != 2.0 {
		t.Fatalf("checkpoint ref = %v %d %v", st.hasCkpt, st.ckptWindows, st.ckptClock)
	}
	// The migration moved LP 1 from slot 0 to slot 1.
	if len(st.lpSets[0]) != 1 || st.lpSets[0][0] != 0 {
		t.Fatalf("slot 0 owns %v", st.lpSets[0])
	}
	if len(st.lpSets[1]) != 3 || st.lpSets[1][0] != 1 {
		t.Fatalf("slot 1 owns %v", st.lpSets[1])
	}
	if st.epochs[0] != 0 || st.epochs[1] != 1 {
		t.Fatalf("epochs = %v", st.epochs)
	}
	// The final barrier's pending set wins wholesale.
	if len(st.pending[0]) != 1 || st.pending[0][0].To != 1 || st.pending[0][0].Data[0] != 0xFE {
		t.Fatalf("pending[0] = %+v", st.pending[0])
	}
	if len(st.pending[1]) != 1 || st.pending[1][0].Seq != 4 {
		t.Fatalf("pending[1] = %+v", st.pending[1])
	}
}

// recordBounds returns the set of valid file offsets a journal can be
// truncated to without tearing a record.
func recordBounds(data []byte) map[int]bool {
	bounds := map[int]bool{journalHeaderLen: true}
	off := journalHeaderLen
	for off < len(data) {
		n := int(binary.BigEndian.Uint32(data[off:]))
		off += 8 + n
		bounds[off] = true
	}
	return bounds
}

// TestJournalTruncation cuts the journal at every byte offset: a cut
// inside the header is corruption, a cut at a record boundary is a
// clean (shorter) journal, and a cut inside a record is a torn tail
// whose reported valid prefix must itself parse cleanly.
func TestJournalTruncation(t *testing.T) {
	_, data := buildJournal(t)
	bounds := recordBounds(data)
	for cut := 0; cut < len(data); cut++ {
		st, err := parseJournal(data[:cut])
		switch {
		case cut < journalHeaderLen:
			if !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("cut %d: want corrupt, got %v", cut, err)
			}
		case bounds[cut]:
			if err != nil {
				t.Fatalf("cut %d at record boundary: %v", cut, err)
			}
		default:
			if !errors.Is(err, ErrJournalTruncated) {
				t.Fatalf("cut %d: want truncated, got %v", cut, err)
			}
			if st == nil || st.torn == false {
				t.Fatalf("cut %d: torn state not returned", cut)
			}
			if st.validLen > int64(cut) || !bounds[int(st.validLen)] {
				t.Fatalf("cut %d: validLen %d is not a record boundary", cut, st.validLen)
			}
			if _, err := parseJournal(data[:st.validLen]); err != nil {
				t.Fatalf("cut %d: valid prefix does not parse: %v", cut, err)
			}
		}
	}
}

// TestJournalBitFlip flips every bit of the journal one at a time:
// each flip must surface as a typed load error — never a panic, never
// a silently accepted state.
func TestJournalBitFlip(t *testing.T) {
	_, data := buildJournal(t)
	flipped := make([]byte, len(data))
	for pos := 0; pos < len(data); pos++ {
		for bit := 0; bit < 8; bit++ {
			copy(flipped, data)
			flipped[pos] ^= 1 << bit
			_, err := parseJournal(flipped)
			if err == nil {
				t.Fatalf("flip byte %d bit %d: accepted", pos, bit)
			}
			if !errors.Is(err, ErrJournalCorrupt) && !errors.Is(err, ErrJournalTruncated) {
				t.Fatalf("flip byte %d bit %d: untyped error %v", pos, bit, err)
			}
		}
	}
}

func journalHeader() []byte {
	hdr := []byte(journalMagic)
	return binary.BigEndian.AppendUint16(hdr, journalVersion)
}

func frameJournalRec(payload []byte) []byte {
	rec := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	rec = append(rec, payload...)
	return binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
}

// TestJournalCrafted covers corruptions a truncation or bit flip
// cannot reach: structurally valid records (good CRC) whose content
// violates the protocol.
func TestJournalCrafted(t *testing.T) {
	_, data := buildJournal(t)
	bounds := recordBounds(data)
	genesisEnd := 0
	for off := range bounds {
		if off > journalHeaderLen && (genesisEnd == 0 || off < genesisEnd) {
			genesisEnd = off
		}
	}
	genesisRec := data[journalHeaderLen:genesisEnd]

	kindOnly := func(kind journalRecKind) []byte {
		var enc checkpoint.Enc
		enc.U64(uint64(kind))
		return frameJournalRec(enc.Bytes())
	}
	badGenesis := func(nWorkers, nLPs int) []byte {
		var enc checkpoint.Enc
		enc.U64(uint64(jGenesis))
		enc.Int(nWorkers)
		enc.Int(nLPs)
		enc.F64(1)
		enc.F64(64)
		enc.U64(7)
		return frameJournalRec(enc.Bytes())
	}
	giantLen := binary.BigEndian.AppendUint32(nil, maxJournalRecord+1)
	var trailEnc checkpoint.Enc
	trailEnc.U64(uint64(jCheckpoint))
	trailEnc.U64(1)
	trailEnc.F64(2)
	trailEnc.U64(0xAA) // one uvarint past the record's last field
	trailingRec := frameJournalRec(trailEnc.Bytes())

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"barrier-before-genesis", append(journalHeader(), kindOnly(jBarrier)...), "precedes genesis"},
		{"duplicate-genesis", append(append(journalHeader(), genesisRec...), genesisRec...), "duplicate genesis"},
		{"unknown-kind", append(append(journalHeader(), genesisRec...), kindOnly(99)...), "unknown kind"},
		{"giant-record-length", append(append(journalHeader(), genesisRec...), giantLen...), "exceeds limit"},
		{"zero-worker-genesis", append(journalHeader(), badGenesis(0, 4)...), "declares"},
		{"trailing-garbage-record", append(append(journalHeader(), genesisRec...), trailingRec...), "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseJournal(tc.data)
			if !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("want ErrJournalCorrupt, got %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestJournalReopenAfterTear simulates a crash mid-append: a torn tail
// must load as the valid prefix, openJournal must truncate the tear,
// and subsequent appends must extend a journal that then loads clean.
func TestJournalReopenAfterTear(t *testing.T) {
	path, data := buildJournal(t)
	torn := append(append([]byte(nil), data...), 0, 0, 0, 50, 1, 2, 3) // half a record
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := loadJournal(path)
	if !errors.Is(err, ErrJournalTruncated) {
		t.Fatalf("want truncated, got %v", err)
	}
	if st.records != 6 || st.validLen != int64(len(data)) {
		t.Fatalf("prefix records=%d validLen=%d", st.records, st.validLen)
	}
	j, err := openJournal(path, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.appendBarrier(4, 2, 8, 6.0, st.pending); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	st2, err := loadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st2.records != 7 || st2.windows != 4 || st2.clock != 6.0 {
		t.Fatalf("after reopen: records=%d windows=%d clock=%v", st2.records, st2.windows, st2.clock)
	}
}

// TestClusterCheckpointCorruption drives the same discipline through
// the cluster checkpoint decoder: every truncation and every bit flip
// must error, and a structurally valid file whose counts lie about
// the payload must be rejected before any giant allocation.
func TestClusterCheckpointCorruption(t *testing.T) {
	ck := &clusterCheckpoint{
		Clock: 2, Windows: 3, EventsRouted: 7,
		Keys:      []string{lpKey([]int{0, 1})},
		LPSets:    [][]int{{0, 1}},
		Snapshots: [][]byte{[]byte("snapshot-bytes")},
		Pending:   [][]Event{{{Time: 1, From: 0, To: 1, Seq: 2, Data: []byte{9}}}},
	}
	data, err := ck.encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeClusterCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Windows != 3 || len(back.Pending[0]) != 1 || back.LPSets[0][1] != 1 {
		t.Fatalf("round trip = %+v", back)
	}

	for cut := 0; cut < len(data); cut++ {
		if _, err := decodeClusterCheckpoint(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	flipped := make([]byte, len(data))
	for pos := 0; pos < len(data); pos++ {
		for bit := 0; bit < 8; bit++ {
			copy(flipped, data)
			flipped[pos] ^= 1 << bit
			if _, err := decodeClusterCheckpoint(flipped); err == nil {
				t.Fatalf("flip byte %d bit %d accepted", pos, bit)
			}
		}
	}

	// Valid container, lying counts: the CRC passes, so only the
	// decoder's own bounds stand between a flipped count and a giant
	// allocation.
	craft := func(build func(se *checkpoint.Enc)) []byte {
		var buf strings.Builder
		cw := checkpoint.NewWriter(&buf)
		var ce checkpoint.Enc
		ce.Int(1)
		ce.F64(2)
		ce.U64(3)
		ce.U64(7)
		if err := cw.Section(secCluster, ce.Bytes()); err != nil {
			t.Fatal(err)
		}
		var se checkpoint.Enc
		build(&se)
		if err := cw.Section(secSlot, se.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		return []byte(buf.String())
	}
	lyingPending := craft(func(se *checkpoint.Enc) {
		se.Str("[0]")
		se.Raw([]byte("snap"))
		se.Int(1 << 40) // pending count far beyond the payload
	})
	if _, err := decodeClusterCheckpoint(lyingPending); err == nil || !strings.Contains(err.Error(), "pending count") {
		t.Fatalf("lying pending count: %v", err)
	}
	lyingLPs := craft(func(se *checkpoint.Enc) {
		se.Str("[0]")
		se.Raw([]byte("snap"))
		se.Int(0)       // no pending
		se.Int(1 << 40) // LP count far beyond the payload
	})
	if _, err := decodeClusterCheckpoint(lyingLPs); err == nil || !strings.Contains(err.Error(), "LP count") {
		t.Fatalf("lying LP count: %v", err)
	}
}
