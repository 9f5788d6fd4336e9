// Package journal provides a durable audit log for crowd runs and
// crash-resume on top of it.
//
// Crowd-enabled queries run for hours on a real marketplace (the paper's
// Q3 HITs averaged 93 seconds each), so a production deployment must
// survive requester restarts without re-paying for answered questions.
// The journal records every aggregated answer as one JSON line; resuming a
// run replays recorded answers for free and only sends genuinely new
// questions to the live platform. Because the algorithms are
// deterministic given the answer set, a resumed run retraces the original
// question sequence exactly and continues where the journal ends.
package journal

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"crowdsky/internal/crowd"
)

// Entry is one journaled answer.
type Entry struct {
	Seq     int       `json:"seq"`
	Round   int       `json:"round"`
	A       int       `json:"a"`
	B       int       `json:"b"`
	Attr    int       `json:"attr"`
	Workers int       `json:"workers"`
	Pref    string    `json:"pref"`
	Time    time.Time `json:"time"`
	// Sum is the CRC32 (IEEE) of the entry's JSON encoding with Sum
	// itself empty, as eight lowercase hex digits. It detects bit rot and
	// partially-flushed records that still happen to parse. Empty on
	// records written before checksums existed; those are accepted as-is.
	Sum string `json:"sum,omitempty"`
}

// checksum computes the entry's record checksum: the CRC32-IEEE of its
// canonical JSON encoding with the Sum field cleared. e is a copy, so
// clearing Sum here never mutates the caller's record.
func checksum(e Entry) (string, error) {
	e.Sum = ""
	data, err := json.Marshal(e)
	if err != nil {
		return "", fmt.Errorf("journal: encoding entry for checksum: %w", err)
	}
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(data)), nil
}

// verify reports whether the entry's stored checksum matches its content.
// Legacy records with no checksum pass; they predate the Sum field.
func verify(e Entry) bool {
	if e.Sum == "" {
		return true
	}
	sum, err := checksum(e)
	return err == nil && sum == e.Sum
}

// Writer appends entries to an underlying stream, one JSON object per
// line. Writes go through immediately (no internal buffering), so a crash
// loses at most the in-flight entry.
type Writer struct {
	w    io.Writer
	seq  int
	errs error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Append journals one answer.
func (jw *Writer) Append(round int, req crowd.Request, pref crowd.Preference) error {
	jw.seq++
	e := Entry{
		Seq:     jw.seq,
		Round:   round,
		A:       req.Q.A,
		B:       req.Q.B,
		Attr:    req.Q.Attr,
		Workers: req.Workers,
		Pref:    pref.String(),
		Time:    time.Now().UTC(),
	}
	sum, err := checksum(e)
	if err != nil {
		return err
	}
	e.Sum = sum
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("journal: encoding entry: %w", err)
	}
	data = append(data, '\n')
	if _, err := jw.w.Write(data); err != nil {
		return fmt.Errorf("journal: writing entry: %w", err)
	}
	return nil
}

// Read parses a journal stream. A truncated or checksum-corrupted
// trailing line (a crash mid write) is tolerated and ignored; malformed
// or corrupted content anywhere else is an error. Use Recover when the
// journal may be damaged mid-file and salvaging the intact prefix is the
// right call (e.g. the resume CLI after an unclean shutdown).
func Read(r io.Reader) ([]Entry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var lines []string
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			lines = append(lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var out []Entry
	for i, text := range lines {
		var e Entry
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			if i == len(lines)-1 {
				break // torn final line after a crash
			}
			return nil, fmt.Errorf("journal: line %d: %w", i+1, err)
		}
		if !verify(e) {
			if i == len(lines)-1 {
				break // corrupted final line after a crash
			}
			return nil, fmt.Errorf("journal: line %d: checksum mismatch", i+1)
		}
		out = append(out, e)
	}
	return out, nil
}

// RecoverStats describes what Recover salvaged.
type RecoverStats struct {
	// IntactBytes is the byte length of the verified journal prefix,
	// including each surviving record's trailing newline. Truncating the
	// journal file to this length yields a clean journal that can be
	// appended to safely.
	IntactBytes int64
	// Dropped counts the non-empty lines abandoned at and after the first
	// corruption — the torn record plus anything trailing it.
	Dropped int
}

// Recover parses a possibly-damaged journal stream, salvaging the
// longest intact prefix. Unlike Read, corruption — a record that fails
// to parse, fails its checksum, or lacks its trailing newline — is not
// an error: scanning stops at the first damaged record and everything
// before it is returned. The only error is a genuine I/O failure.
//
// Callers resuming from a recovered journal should truncate the backing
// file to IntactBytes before appending, so new records never concatenate
// onto a torn tail.
func Recover(r io.Reader) ([]Entry, RecoverStats, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, RecoverStats{}, fmt.Errorf("journal: %w", err)
	}
	var (
		entries []Entry
		st      RecoverStats
	)
	rest := data
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		complete := nl >= 0
		var line []byte
		var lineLen int64
		if complete {
			line, lineLen = rest[:nl], int64(nl+1)
		} else {
			// A record without its newline may still be mid-write even if
			// it parses; treat it as torn so appends stay well-formed.
			line, lineLen = rest, int64(len(rest))
		}
		if trimmed := bytes.TrimSpace(line); len(trimmed) == 0 {
			st.IntactBytes += lineLen
			rest = rest[lineLen:]
			continue
		}
		var e Entry
		if !complete || json.Unmarshal(line, &e) != nil || !verify(e) {
			st.Dropped = countNonEmptyLines(rest)
			break
		}
		entries = append(entries, e)
		st.IntactBytes += lineLen
		rest = rest[lineLen:]
	}
	return entries, st, nil
}

func countNonEmptyLines(data []byte) int {
	n := 0
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) > 0 {
			n++
		}
	}
	return n
}

// answersOf converts entries to crowd answers.
func answersOf(entries []Entry) ([]crowd.Answer, error) {
	out := make([]crowd.Answer, 0, len(entries))
	for _, e := range entries {
		pref, err := parsePref(e.Pref)
		if err != nil {
			return nil, err
		}
		out = append(out, crowd.Answer{
			Q:    crowd.Question{A: e.A, B: e.B, Attr: e.Attr},
			Pref: pref,
		})
	}
	return out, nil
}

func parsePref(s string) (crowd.Preference, error) {
	switch s {
	case "first":
		return crowd.First, nil
	case "second":
		return crowd.Second, nil
	case "equal":
		return crowd.Equal, nil
	}
	return 0, fmt.Errorf("journal: unknown preference %q", s)
}

// Platform wraps a live crowd platform with journaling and replay: answers
// already in the journal are served locally at zero live cost, new
// questions go to the live platform and are appended to the journal. It
// implements crowd.Platform.
type Platform struct {
	live     crowd.Platform
	writer   *Writer
	recorded map[crowd.Question]crowd.Preference
	stats    crowd.Stats
	replayed int
}

// NewPlatform builds a journaling platform: entries holds the journal read
// so far (empty for a fresh run), live answers new questions, and every
// new answer is appended through w.
func NewPlatform(live crowd.Platform, entries []Entry, w *Writer) (*Platform, error) {
	answers, err := answersOf(entries)
	if err != nil {
		return nil, err
	}
	p := &Platform{
		live:     live,
		writer:   w,
		recorded: make(map[crowd.Question]crowd.Preference, 2*len(answers)),
	}
	w.seq = len(entries)
	for _, a := range answers {
		p.recorded[a.Q] = a.Pref
		p.recorded[crowd.Question{A: a.Q.B, B: a.Q.A, Attr: a.Q.Attr}] = a.Pref.Flip()
	}
	return p, nil
}

// Ask implements crowd.Platform: replayed answers are free; unseen
// questions form one live round and are journaled.
func (p *Platform) Ask(reqs []crowd.Request) []crowd.Answer {
	return p.AskCtx(context.Background(), reqs)
}

// AskCtx implements crowd.ContextPlatform, forwarding the context to the
// live platform for cancellation and trace propagation.
func (p *Platform) AskCtx(ctx context.Context, reqs []crowd.Request) []crowd.Answer {
	if len(reqs) == 0 {
		return nil
	}
	p.stats.Record(reqs)
	round := p.stats.Rounds()

	out := make([]crowd.Answer, len(reqs))
	var liveReqs []crowd.Request
	var liveIdx []int
	for i, r := range reqs {
		if pref, ok := p.recorded[r.Q]; ok {
			out[i] = crowd.Answer{Q: r.Q, Pref: pref}
			p.replayed++
			continue
		}
		liveReqs = append(liveReqs, r)
		liveIdx = append(liveIdx, i)
	}
	if len(liveReqs) > 0 {
		answers := crowd.AskWithContext(ctx, p.live, liveReqs)
		for k, a := range answers {
			out[liveIdx[k]] = a
			p.recorded[a.Q] = a.Pref
			p.recorded[crowd.Question{A: a.Q.B, B: a.Q.A, Attr: a.Q.Attr}] = a.Pref.Flip()
			if err := p.writer.Append(round, liveReqs[k], a.Pref); err != nil {
				// The answer is already paid for; surface the journaling
				// failure loudly rather than silently losing durability.
				panic(err)
			}
		}
	}
	return out
}

// Stats implements crowd.Platform. The returned stats cover the whole
// logical run (replayed + live); the live platform's own Stats cover only
// the questions that cost new money.
func (p *Platform) Stats() *crowd.Stats { return &p.stats }

// Replayed returns how many questions were served from the journal.
func (p *Platform) Replayed() int { return p.replayed }
