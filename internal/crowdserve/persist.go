package crowdserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"syscall"

	"crowdsky/internal/crowd"
)

// Marketplace persistence: crowd rounds take minutes to hours, so the
// daemon must survive restarts without losing collected judgments (the
// requester-side counterpart is package journal). Snapshot captures the
// full server state as JSON; Restore rebuilds it. Leases are deliberately
// not persisted — on restart every in-flight assignment returns to the
// open queue, which at worst re-asks a question that was answered but not
// submitted.

// snapshot is the wire form of the server state.
type snapshot struct {
	NextRoundID int64            `json:"next_round_id"`
	NextAssign  int64            `json:"next_assign"`
	Judgments   int              `json:"judgments"`
	Requeues    int              `json:"lease_requeues,omitempty"`
	PerWorker   map[string]int   `json:"judgments_by_worker,omitempty"`
	Idempotency map[string]int64 `json:"idempotency,omitempty"`
	Rounds      []roundSnapshot  `json:"rounds"`
	Open        []assignSnap     `json:"open"`
}

type roundSnapshot struct {
	ID        int64             `json:"id"`
	Questions []QuestionJSON    `json:"questions"`
	Votes     [][]string        `json:"votes"`
	Voters    []map[string]bool `json:"voters"`
	Needed    []int             `json:"needed"`
	Remaining int               `json:"remaining"`
}

type assignSnap struct {
	ID      int64 `json:"id"`
	RoundID int64 `json:"round_id"`
	QIndex  int   `json:"q_index"`
}

// Snapshot serializes the marketplace state (excluding leases) to w.
func (s *Server) Snapshot(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reapExpiredLocked()
	snap := snapshot{
		NextRoundID: s.nextRoundID,
		NextAssign:  s.nextAssign,
		Judgments:   s.judgments,
		Requeues:    s.requeues,
	}
	if len(s.perWorker) > 0 {
		snap.PerWorker = make(map[string]int, len(s.perWorker))
		for id, n := range s.perWorker {
			snap.PerWorker[id] = n
		}
	}
	// The idempotency cache must survive restarts: a client retrying a
	// submission across a server crash must still get the original round.
	// (JSON object keys marshal sorted, so this stays byte-stable.)
	if len(s.idem) > 0 {
		snap.Idempotency = make(map[string]int64, len(s.idem))
		for k, id := range s.idem {
			snap.Idempotency[k] = id
		}
	}
	// Iterate rounds in ascending id order: snapshots must be byte-stable
	// for identical state (the detrange contract), so backups can be
	// diffed and tests can compare files.
	roundIDs := make([]int64, 0, len(s.rounds))
	for id := range s.rounds {
		roundIDs = append(roundIDs, id)
	}
	sort.Slice(roundIDs, func(i, j int) bool { return roundIDs[i] < roundIDs[j] })
	for _, id := range roundIDs {
		rd := s.rounds[id]
		rs := roundSnapshot{
			ID:        rd.id,
			Questions: rd.questions,
			Voters:    rd.voters,
			Needed:    rd.needed,
			Remaining: rd.remaining,
		}
		for _, votes := range rd.votes {
			var out []string
			for _, v := range votes {
				out = append(out, v.String())
			}
			rs.Votes = append(rs.Votes, out)
		}
		snap.Rounds = append(snap.Rounds, rs)
	}
	// Open queue plus currently leased assignments (leases are dropped).
	// Leased assignments are appended in ascending id order for the same
	// byte-stability; the queue keeps its FIFO order.
	for _, a := range s.queue {
		snap.Open = append(snap.Open, assignSnap{ID: a.id, RoundID: a.roundID, QIndex: a.qIndex})
	}
	leased := make([]*assignment, 0, len(s.leased))
	for _, a := range s.leased {
		if !a.done {
			leased = append(leased, a)
		}
	}
	sort.Slice(leased, func(i, j int) bool { return leased[i].id < leased[j].id })
	for _, a := range leased {
		snap.Open = append(snap.Open, assignSnap{ID: a.id, RoundID: a.roundID, QIndex: a.qIndex})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(snap)
}

// Restore replaces the server state with a snapshot produced by Snapshot.
// A snapshot that is inconsistent — a repeated round or assignment id, a
// per-question array whose length differs from the round's questions, a
// question whose votes and open slots do not add up to its workers, a
// round whose remaining count is not its open slots, or an idempotency
// key naming a missing round — is rejected with an error and the server
// is left as it was. New rounds and assignments get ids above every
// restored one, so they never replace restored work.
func (s *Server) Restore(r io.Reader) error {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("crowdserve: decoding snapshot: %w", err)
	}
	rounds := make(map[int64]*round, len(snap.Rounds))
	// free counts, per round and question, the vote slots not yet filled;
	// every open assignment must take one of them, and none may be left.
	free := make(map[int64][]int, len(snap.Rounds))
	for _, rs := range snap.Rounds {
		if _, dup := rounds[rs.ID]; dup {
			return fmt.Errorf("crowdserve: snapshot repeats round %d", rs.ID)
		}
		n := len(rs.Questions)
		if len(rs.Votes) != n || len(rs.Voters) != n || len(rs.Needed) != n {
			return fmt.Errorf("crowdserve: snapshot round %d has %d questions but %d vote lists, %d voter sets and %d worker counts",
				rs.ID, n, len(rs.Votes), len(rs.Voters), len(rs.Needed))
		}
		rd := &round{
			id:        rs.ID,
			questions: rs.Questions,
			voters:    rs.Voters,
			needed:    rs.Needed,
			remaining: rs.Remaining,
			votes:     make([][]crowd.Preference, n),
		}
		free[rs.ID] = make([]int, n)
		for i, votes := range rs.Votes {
			if len(votes) > rd.needed[i] {
				return fmt.Errorf("crowdserve: snapshot round %d question %d has %d votes for %d workers",
					rs.ID, i, len(votes), rd.needed[i])
			}
			if rd.voters[i] == nil {
				rd.voters[i] = make(map[string]bool)
			}
			// Full capacity, as handlePostRound reserves it: the
			// per-judgment append must never grow after a restore either.
			rd.votes[i] = make([]crowd.Preference, 0, rd.needed[i])
			for _, v := range votes {
				pref, err := parsePref(v)
				if err != nil {
					return err
				}
				rd.votes[i] = append(rd.votes[i], pref)
			}
			free[rs.ID][i] = rd.needed[i] - len(votes)
		}
		rounds[rs.ID] = rd
	}
	// Restored rounds have no live span context or trace ID (the
	// requester's trace did not survive the restart); spans and exemplars
	// simply resume absent. The queue-wait clock restarts at the restore,
	// which undercounts waits spanning the downtime but never fabricates
	// them.
	now := s.now()
	queue := make([]*assignment, 0, len(snap.Open))
	seen := make(map[int64]bool, len(snap.Open))
	for _, a := range snap.Open {
		if seen[a.ID] {
			return fmt.Errorf("crowdserve: snapshot repeats assignment %d", a.ID)
		}
		seen[a.ID] = true
		rd, ok := rounds[a.RoundID]
		if !ok || a.QIndex < 0 || a.QIndex >= len(rd.questions) {
			return fmt.Errorf("crowdserve: snapshot assignment %d references missing round/question", a.ID)
		}
		if free[a.RoundID][a.QIndex]--; free[a.RoundID][a.QIndex] < 0 {
			return fmt.Errorf("crowdserve: snapshot assignment %d exceeds its question's worker count", a.ID)
		}
		queue = append(queue, &assignment{
			id:         a.ID,
			roundID:    a.RoundID,
			qIndex:     a.QIndex,
			question:   rd.questions[a.QIndex],
			enqueuedAt: now,
		})
		snap.NextAssign = max(snap.NextAssign, a.ID)
	}
	// Every unanswered vote needs an open slot, or the round never
	// completes and its requester polls forever.
	for _, rs := range snap.Rounds {
		open := 0
		for i, f := range free[rs.ID] {
			if f != 0 {
				return fmt.Errorf("crowdserve: snapshot round %d question %d lacks %d open slots", rs.ID, i, f)
			}
			open += rs.Needed[i] - len(rs.Votes[i])
		}
		if rs.Remaining != open {
			return fmt.Errorf("crowdserve: snapshot round %d has remaining %d but %d open slots",
				rs.ID, rs.Remaining, open)
		}
		snap.NextRoundID = max(snap.NextRoundID, rs.ID)
	}
	for k, id := range snap.Idempotency {
		if rounds[id] == nil {
			return fmt.Errorf("crowdserve: snapshot idempotency key %q names missing round %d", k, id)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextRoundID = snap.NextRoundID
	s.nextAssign = snap.NextAssign
	s.judgments = snap.Judgments
	s.requeues = snap.Requeues
	s.perWorker = make(map[string]int, len(snap.PerWorker))
	for id, n := range snap.PerWorker {
		s.perWorker[id] = n
	}
	s.idem = make(map[string]int64, len(snap.Idempotency))
	for k, id := range snap.Idempotency {
		s.idem[k] = id
	}
	s.rounds = rounds
	s.queue = queue
	s.leased = make(map[int64]*assignment)
	return nil
}

// SaveFile writes a snapshot crash-safely: the bytes go to a temp file,
// are fsynced to stable storage, and only then atomically renamed over
// the destination (followed by a directory sync so the rename itself is
// durable). A crash at any point leaves either the old snapshot or the
// new one — never a torn mix. Every step reports its error — a silently
// half-written snapshot would lose paid crowd judgments on the next
// restart.
func (s *Server) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = s.Snapshot(f)
	if err == nil {
		// Force the snapshot bytes to disk before the rename makes them
		// visible: rename-before-flush can publish an empty file on crash.
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		if rerr := os.Remove(tmp); rerr != nil {
			err = errors.Join(err, rerr)
		}
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
// Filesystems that reject directory fsync (some network mounts) degrade
// to the rename's own guarantees rather than failing the save.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		return nil
	}
	return err
}

// LoadFile restores state from a snapshot file; a missing file is not an
// error (fresh start).
func (s *Server) LoadFile(path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	err = s.Restore(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
