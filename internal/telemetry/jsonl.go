package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// JSONL is a Tracer that writes one JSON object per line to an underlying
// stream, using the same framing conventions as the answer journal
// (package journal): monotonically increasing sequence numbers, UTC
// timestamps, unbuffered writes so a crash loses at most the in-flight
// event, and a torn final line tolerated on read.
type JSONL struct {
	mu  sync.Mutex
	w   io.Writer
	seq int   // skylint:guardedby mu
	err error // skylint:guardedby mu
}

// NewJSONL wraps w as a JSONL tracer.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: w} }

// Emit implements Tracer. Events are stamped with the next sequence
// number and the current UTC time (unless the emitter already set one).
// Write errors are sticky and surfaced via Err; tracing must never abort
// an algorithm run that is spending real money on a crowd.
func (j *JSONL) Emit(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.seq++
	e.Seq = j.seq
	if e.Time.IsZero() {
		e.Time = time.Now().UTC()
	}
	data, err := json.Marshal(e)
	if err != nil {
		j.err = fmt.Errorf("telemetry: encoding event: %w", err)
		return
	}
	data = append(data, '\n')
	if _, err := j.w.Write(data); err != nil {
		j.err = fmt.Errorf("telemetry: writing event: %w", err)
	}
}

// Err returns the first write or encoding error, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ReadEvents parses a JSONL trace stream. A truncated trailing line (a
// crash mid-write) is tolerated and ignored; malformed content anywhere
// else is an error.
func ReadEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var lines []string
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			lines = append(lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	var out []Event
	for i, text := range lines {
		var e Event
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			if i == len(lines)-1 {
				break // torn final line after a crash
			}
			return nil, fmt.Errorf("telemetry: line %d: %w", i+1, err)
		}
		out = append(out, e)
	}
	return out, nil
}
