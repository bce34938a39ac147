package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// chunk fabricates a deterministic multi-record chunk.
func chunk(tag string, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("%s-record-%03d", tag, i))
	}
	return out
}

// replayAll collects every record Replay delivers.
func replayAll(t *testing.T, l *Log, ckptVersion uint64) map[uint64][][]byte {
	t.Helper()
	got := map[uint64][][]byte{}
	if _, err := l.Replay(ckptVersion, func(seq uint64, records [][]byte) error {
		cp := make([][]byte, len(records))
		for i, r := range records {
			cp[i] = append([]byte(nil), r...)
		}
		got[seq] = cp
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		seq, err := l.Append(chunk(fmt.Sprintf("c%d", i), 3), uint64(10+i))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	// Ticks consumed seqs 1-3, publishing versions 12-14.
	for i := 1; i <= 3; i++ {
		if err := l.MarkApplied(uint64(i), uint64(11+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l2.Close() }()
	if st := l2.Stats(); st.LastSeq != 5 || st.Unapplied != 2 {
		t.Fatalf("after reopen: LastSeq=%d Unapplied=%d, want 5 and 2", st.LastSeq, st.Unapplied)
	}

	// A checkpoint at version 13 covers seqs 1-2; seq 3 (applied at 14) and
	// the never-applied 4-5 must replay.
	got := replayAll(t, l2, 13)
	wantSeqs := []uint64{3, 4, 5}
	if len(got) != len(wantSeqs) {
		t.Fatalf("replayed %d records, want %d (%v)", len(got), len(wantSeqs), got)
	}
	for _, s := range wantSeqs {
		recs, ok := got[s]
		if !ok {
			t.Fatalf("seq %d missing from replay", s)
		}
		want := chunk(fmt.Sprintf("c%d", s), 3)
		for i := range want {
			if !bytes.Equal(recs[i], want[i]) {
				t.Fatalf("seq %d record %d = %q, want %q", s, i, recs[i], want[i])
			}
		}
	}
	// New appends continue the sequence after reopen.
	seq, err := l2.Append(chunk("c6", 1), 16)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("post-reopen seq = %d, want 6", seq)
	}
}

func TestAbortedRecordsNeverReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(chunk("keep", 2), 1); err != nil {
		t.Fatal(err)
	}
	seq, err := l.Append(chunk("rejected", 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.MarkAborted(seq); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l2.Close() }()
	got := replayAll(t, l2, 0)
	if len(got) != 1 {
		t.Fatalf("replayed %d records, want 1: %v", len(got), got)
	}
	if _, ok := got[1]; !ok {
		t.Fatalf("seq 1 should replay, got %v", got)
	}
}

func TestSegmentRollAndSeal(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a roll every couple of appends.
	l, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const total = 20
	for i := 1; i <= total; i++ {
		if _, err := l.Append(chunk(fmt.Sprintf("c%02d", i), 2), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("Segments = %d, want several after 20 appends at 256-byte rolls", st.Segments)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	opens := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), openSuffix) {
			opens++
		}
	}
	if opens != 1 {
		t.Fatalf("open segments on disk = %d, want exactly 1", opens)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l2.Close() }()
	if got := replayAll(t, l2, 0); len(got) != total {
		t.Fatalf("replayed %d records across segments, want %d", len(got), total)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(chunk(fmt.Sprintf("c%d", i), 2), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record: cut 7 bytes off the active segment, simulating
	// a crash mid-append before the fsync completed.
	open := activeSegPath(t, dir)
	fi, err := os.Stat(open)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(open, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open after torn tail: %v", err)
	}
	defer func() { _ = l2.Close() }()
	if st := l2.Stats(); st.Truncations != 1 {
		t.Fatalf("Truncations = %d, want 1", st.Truncations)
	}
	got := replayAll(t, l2, 0)
	if len(got) != 2 {
		t.Fatalf("replayed %d records, want the 2 before the torn tail: %v", len(got), got)
	}
	if _, ok := got[3]; ok {
		t.Fatal("torn seq 3 must not replay")
	}
	// The log keeps appending after truncation; the torn sequence number is
	// reused because its predecessor never became durable.
	seq, err := l2.Append(chunk("c3b", 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("seq after truncation = %d, want 3", seq)
	}
}

func TestTornSealedSegmentIsCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if _, err := l.Append(chunk(fmt.Sprintf("c%d", i), 2), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var sealed string
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), segSuffix) && !strings.HasSuffix(e.Name(), openSuffix) {
			sealed = filepath.Join(dir, e.Name())
			break
		}
	}
	if sealed == "" {
		t.Fatal("no sealed segment produced")
	}
	fi, err := os.Stat(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(sealed, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, SegmentBytes: 128}); err == nil {
		t.Fatal("Open must fail on a torn sealed segment")
	}
}

func TestPruneDropsFullyCoveredPrefix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	const total = 12
	for i := 1; i <= total; i++ {
		seq, err := l.Append(chunk(fmt.Sprintf("c%02d", i), 2), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.MarkApplied(seq, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats()
	if before.Segments < 3 {
		t.Fatalf("want several segments, got %d", before.Segments)
	}
	// A checkpoint retention floor mid-way: segments whose records all
	// committed at or below it are reclaimed; later ones survive.
	if err := l.Prune(uint64(total/2 + 1)); err != nil {
		t.Fatal(err)
	}
	after := l.Stats()
	if after.PrunedSegments == 0 || after.Segments >= before.Segments {
		t.Fatalf("prune removed nothing: before=%d after=%d", before.Segments, after.Segments)
	}
	// Everything past the floor still replays.
	got := replayAll(t, l, uint64(total/2+1))
	for i := total/2 + 1; i <= total; i++ {
		if _, ok := got[uint64(i)]; !ok {
			t.Fatalf("seq %d lost by prune (got %v)", i, got)
		}
	}
	// The active segment survives any floor.
	if err := l.Prune(^uint64(0) - 1); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments < 1 {
		t.Fatal("prune removed the active segment")
	}
}

func TestConcurrentAppendAndCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		each    = 25
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq, err := l.Append(chunk(fmt.Sprintf("w%d-%d", w, i), 1), 0)
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				if i%2 == 0 {
					if err := l.MarkApplied(seq, seq+1); err != nil {
						t.Errorf("MarkApplied: %v", err)
						return
					}
				}
				_ = l.Stats()
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l2.Close() }()
	st := l2.Stats()
	if st.LastSeq != writers*each {
		t.Fatalf("LastSeq = %d, want %d", st.LastSeq, writers*each)
	}
	committed := writers * (each/2 + each%2) // i%2==0 marks 13 of 25
	if st.Unapplied != writers*each-committed {
		t.Fatalf("Unapplied = %d, want %d", st.Unapplied, writers*each-committed)
	}
}

func TestCommitForUnknownSeqIsIgnored(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	if err := l.MarkApplied(99, 5); err != nil {
		t.Fatalf("MarkApplied(unknown): %v", err)
	}
	if err := l.MarkAborted(42); err != nil {
		t.Fatalf("MarkAborted(unknown): %v", err)
	}
	if st := l.Stats(); st.Applied != 0 || st.Aborted != 0 || st.Bytes != 0 {
		t.Fatalf("unknown-seq commits must be no-ops, got %+v", st)
	}
}

// TestChaosWALTornTailAfterKill simulates the full crash shape under the
// chaos banner: a writer killed mid-append leaves a torn tail; reopening
// truncates exactly that record and replays every earlier one.
func TestChaosWALTornTailAfterKill(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test: skipped in -short")
	}
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	const accepted = 9
	for i := 1; i <= accepted; i++ {
		if _, err := l.Append(chunk(fmt.Sprintf("c%d", i), 3), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the kill: no Close, and the in-flight record (never
	// acknowledged) persists only partially.
	open := activeSegPath(t, dir)
	partial := appendPartialRecord(t, open)

	l2, err := Open(Options{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer func() { _ = l2.Close() }()
	st := l2.Stats()
	if st.Truncations != 1 {
		t.Fatalf("Truncations = %d, want 1 (partial %d bytes)", st.Truncations, partial)
	}
	got := replayAll(t, l2, 0)
	if len(got) != accepted {
		t.Fatalf("replayed %d records, want all %d accepted before the kill", len(got), accepted)
	}
}

// activeSegPath finds the one .seg.open file in dir.
func activeSegPath(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), openSuffix) {
			return filepath.Join(dir, e.Name())
		}
	}
	t.Fatal("no active segment found")
	return ""
}

// appendPartialRecord writes the first half of a valid frame to the end of
// path, returning how many bytes landed.
func appendPartialRecord(t *testing.T, path string) int {
	t.Helper()
	full := encodeDataFrame(999, chunk("torn", 3), 7)
	half := full[:len(full)/2]
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write(half); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	return len(half)
}

// A flipped length word in a sealed segment is corruption: Open reports it
// instead of panicking on a length that wraps the frame end around, and a
// Replay reading the same bytes under an open Log reports it too.
func TestCorruptLengthWordIsAnError(t *testing.T) {
	for _, n := range []uint64{1<<64 - 1, 1<<64 - 10} {
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir, SegmentBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 6; i++ {
			if _, err := l.Append(chunk(fmt.Sprintf("c%d", i), 2), uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		var sealed string
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), segSuffix) {
				sealed = filepath.Join(dir, e.Name())
				break
			}
		}
		if sealed == "" {
			t.Fatal("no sealed segment produced")
		}
		b, err := os.ReadFile(sealed)
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint64(b[16:24], n) // the first frame's length word
		if err := os.WriteFile(sealed, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Replay(0, func(uint64, [][]byte) error { return nil }); err == nil {
			t.Errorf("length %#x: Replay over a corrupt length word returned no error", n)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(Options{Dir: dir, SegmentBytes: 128}); err == nil {
			t.Errorf("length %#x: Open over a corrupt length word returned no error", n)
		}
	}
}
