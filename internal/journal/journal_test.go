package journal

import (
	"bytes"
	"strings"
	"testing"

	"crowdsky/internal/core"
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/metrics"
	"crowdsky/internal/skyline"
)

func TestWriteRead(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	req := crowd.Request{Q: crowd.Question{A: 1, B: 2, Attr: 0}, Workers: 5}
	if err := w.Append(1, req, crowd.First); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, crowd.Request{Q: crowd.Question{A: 3, B: 4}}, crowd.Equal); err != nil {
		t.Fatal(err)
	}
	entries, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Seq != 1 || entries[0].A != 1 || entries[0].B != 2 || entries[0].Pref != "first" ||
		entries[0].Workers != 5 || entries[0].Round != 1 {
		t.Errorf("entry 0 = %+v", entries[0])
	}
	if entries[1].Pref != "equal" {
		t.Errorf("entry 1 = %+v", entries[1])
	}
}

func TestReadTornTail(t *testing.T) {
	good := `{"seq":1,"round":1,"a":0,"b":1,"attr":0,"workers":1,"pref":"first","time":"2026-01-01T00:00:00Z"}`
	entries, err := Read(strings.NewReader(good + "\n" + `{"seq":2,"ro`))
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(entries) != 1 {
		t.Errorf("entries = %d, want 1", len(entries))
	}
	// Corruption in the middle is an error.
	if _, err := Read(strings.NewReader("garbage\n" + good + "\n")); err == nil {
		t.Errorf("mid-stream corruption accepted")
	}
	// Unknown preference is an error at platform construction.
	bad := `{"seq":1,"round":1,"a":0,"b":1,"attr":0,"workers":1,"pref":"maybe","time":"2026-01-01T00:00:00Z"}`
	entries, err = Read(strings.NewReader(bad + "\n" + good + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlatform(nil, entries, NewWriter(&bytes.Buffer{})); err == nil {
		t.Errorf("unknown preference accepted")
	}
}

// TestChecksumWrittenAndVerified: Append stamps every record with a CRC
// that Read verifies; a flipped payload byte mid-file is an error, and a
// flipped byte on the final record is treated as a crash artifact.
func TestChecksumWrittenAndVerified(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 3; i++ {
		req := crowd.Request{Q: crowd.Question{A: i, B: i + 1}, Workers: 1}
		if err := w.Append(1, req, crowd.First); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	for i, line := range lines {
		if !strings.Contains(line, `"sum":"`) {
			t.Fatalf("line %d missing checksum: %s", i, line)
		}
	}

	// Corrupt the payload of line 1 (middle) without breaking JSON: the
	// stored sum no longer matches.
	corrupt := strings.Replace(lines[1], `"pref":"first"`, `"pref":"equal"`, 1)
	if _, err := Read(strings.NewReader(lines[0] + "\n" + corrupt + "\n" + lines[2] + "\n")); err == nil {
		t.Error("mid-file checksum mismatch accepted")
	}
	// The same corruption on the final line is tolerated as a torn tail.
	entries, err := Read(strings.NewReader(lines[0] + "\n" + lines[1] + "\n" + corrupt + "\n"))
	if err != nil {
		t.Fatalf("final-line corruption rejected: %v", err)
	}
	if len(entries) != 2 {
		t.Errorf("entries = %d, want 2", len(entries))
	}
	// Legacy records without a sum still read fine.
	legacy := `{"seq":1,"round":1,"a":0,"b":1,"attr":0,"workers":1,"pref":"first","time":"2026-01-01T00:00:00Z"}`
	if entries, err = Read(strings.NewReader(legacy + "\n")); err != nil || len(entries) != 1 {
		t.Errorf("legacy record: %d entries, %v", len(entries), err)
	}
}

// TestRecover: a damaged journal yields its longest intact prefix, an
// exact truncation point, and a count of what was dropped.
func TestRecover(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 3; i++ {
		req := crowd.Request{Q: crowd.Question{A: i, B: i + 1}, Workers: 1}
		if err := w.Append(1, req, crowd.Second); err != nil {
			t.Fatal(err)
		}
	}
	full := buf.Bytes()

	t.Run("clean", func(t *testing.T) {
		entries, st, err := Recover(bytes.NewReader(full))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 3 || st.Dropped != 0 || st.IntactBytes != int64(len(full)) {
			t.Errorf("entries=%d stats=%+v len=%d", len(entries), st, len(full))
		}
	})
	t.Run("torn tail", func(t *testing.T) {
		torn := full[:len(full)-10]
		entries, st, err := Recover(bytes.NewReader(torn))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 2 || st.Dropped != 1 {
			t.Fatalf("entries=%d stats=%+v", len(entries), st)
		}
		// The intact prefix re-reads cleanly and is a Recover fixed point.
		again, st2, err := Recover(bytes.NewReader(torn[:st.IntactBytes]))
		if err != nil || len(again) != 2 || st2.Dropped != 0 || st2.IntactBytes != st.IntactBytes {
			t.Errorf("fixed point: entries=%d stats=%+v err=%v", len(again), st2, err)
		}
		strict, err := Read(bytes.NewReader(torn[:st.IntactBytes]))
		if err != nil || len(strict) != 2 {
			t.Errorf("strict read of intact prefix: %d entries, %v", len(strict), err)
		}
	})
	t.Run("missing final newline", func(t *testing.T) {
		// A parseable record with no newline may still be mid-write; it
		// must not count as intact or later appends would concatenate.
		entries, st, err := Recover(bytes.NewReader(full[:len(full)-1]))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 2 || st.Dropped != 1 {
			t.Errorf("entries=%d stats=%+v", len(entries), st)
		}
	})
	t.Run("mid-file garbage", func(t *testing.T) {
		lines := bytes.SplitAfter(full, []byte("\n"))
		damaged := append(append(append([]byte{}, lines[0]...), []byte("garbage\n")...), lines[1]...)
		entries, st, err := Recover(bytes.NewReader(damaged))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || st.Dropped != 2 || st.IntactBytes != int64(len(lines[0])) {
			t.Errorf("entries=%d stats=%+v", len(entries), st)
		}
	})
	t.Run("checksum corruption stops the scan", func(t *testing.T) {
		damaged := bytes.Replace(full, []byte(`"pref":"second"`), []byte(`"pref":"first"`), 1)
		entries, st, err := Recover(bytes.NewReader(damaged))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 || st.Dropped != 3 || st.IntactBytes != 0 {
			t.Errorf("entries=%d stats=%+v", len(entries), st)
		}
	})
	t.Run("empty", func(t *testing.T) {
		entries, st, err := Recover(bytes.NewReader(nil))
		if err != nil || len(entries) != 0 || st.Dropped != 0 || st.IntactBytes != 0 {
			t.Errorf("entries=%d stats=%+v err=%v", len(entries), st, err)
		}
	})
}

// TestResumeReplaysForFree: run the toy query, "crash", resume from the
// journal with a live platform that must never be asked anything.
func TestResumeReplaysForFree(t *testing.T) {
	d := dataset.Toy()

	// First run: journal everything.
	var log bytes.Buffer
	live1 := crowd.NewPerfect(crowd.DatasetTruth{Data: d})
	p1, err := NewPlatform(live1, nil, NewWriter(&log))
	if err != nil {
		t.Fatal(err)
	}
	res1 := core.Run(d, p1, core.AllPruning())
	if res1.Questions != 12 || p1.Replayed() != 0 {
		t.Fatalf("first run: %d questions, %d replayed", res1.Questions, p1.Replayed())
	}

	// Resume: the live platform is a booby trap — any Ask panics.
	entries, err := Read(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 12 {
		t.Fatalf("journal has %d entries, want 12", len(entries))
	}
	var log2 bytes.Buffer
	p2, err := NewPlatform(boobyTrap{t}, entries, NewWriter(&log2))
	if err != nil {
		t.Fatal(err)
	}
	res2 := core.Run(d, p2, core.AllPruning())
	if !metrics.SameSet(res1.Skyline, res2.Skyline) {
		t.Errorf("resumed skyline differs: %v vs %v", res1.Skyline, res2.Skyline)
	}
	if p2.Replayed() != 12 {
		t.Errorf("replayed %d, want 12", p2.Replayed())
	}
	if log2.Len() != 0 {
		t.Errorf("resume wrote %d bytes of new journal", log2.Len())
	}
}

// TestResumeMidRun: replay a journal prefix; the resumed run re-asks only
// the missing suffix.
func TestResumeMidRun(t *testing.T) {
	d := dataset.Toy()
	var log bytes.Buffer
	p1, err := NewPlatform(crowd.NewPerfect(crowd.DatasetTruth{Data: d}), nil, NewWriter(&log))
	if err != nil {
		t.Fatal(err)
	}
	core.Run(d, p1, core.AllPruning())

	entries, err := Read(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	prefix := entries[:7] // crash after 7 answers

	var log2 bytes.Buffer
	live := crowd.NewPerfect(crowd.DatasetTruth{Data: d})
	p2, err := NewPlatform(live, prefix, NewWriter(&log2))
	if err != nil {
		t.Fatal(err)
	}
	res := core.Run(d, p2, core.AllPruning())
	if p2.Replayed() != 7 {
		t.Errorf("replayed %d, want 7", p2.Replayed())
	}
	if live.Stats().Questions() != 5 {
		t.Errorf("live platform asked %d, want the 5 missing", live.Stats().Questions())
	}
	if !metrics.SameSet(res.Skyline, skyline.OracleSkyline(d)) {
		t.Errorf("resumed skyline wrong")
	}
	// New answers were journaled with continuing sequence numbers.
	newEntries, err := Read(bytes.NewReader(log2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(newEntries) != 5 || newEntries[0].Seq != 8 {
		t.Errorf("new journal = %+v", newEntries)
	}
}

// boobyTrap is a platform that fails the test when asked.
type boobyTrap struct{ t *testing.T }

func (b boobyTrap) Ask(reqs []crowd.Request) []crowd.Answer {
	b.t.Fatalf("live platform asked %d questions during full replay", len(reqs))
	return nil
}
func (b boobyTrap) Stats() *crowd.Stats { return &crowd.Stats{} }
