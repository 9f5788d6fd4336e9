package crowd

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"crowdsky/internal/dataset"
)

func toyTruth() DatasetTruth {
	return DatasetTruth{Data: dataset.Toy()}
}

func TestPreferenceFlip(t *testing.T) {
	if First.Flip() != Second || Second.Flip() != First || Equal.Flip() != Equal {
		t.Errorf("Flip wrong")
	}
	if First.String() != "first" || Second.String() != "second" || Equal.String() != "equal" {
		t.Errorf("String wrong")
	}
	if !strings.Contains(Preference(9).String(), "9") {
		t.Errorf("out-of-range String = %q", Preference(9).String())
	}
}

func TestDatasetTruth(t *testing.T) {
	tr := toyTruth()
	d := tr.Data
	f, e := d.Index("f"), d.Index("e")
	// f has the smallest latent value: most preferred.
	if tr.Answer(Question{A: f, B: e}) != First {
		t.Errorf("truth: f should beat e")
	}
	if tr.Answer(Question{A: e, B: f}) != Second {
		t.Errorf("truth: symmetric answer wrong")
	}
	if tr.Answer(Question{A: f, B: f}) != Equal {
		t.Errorf("truth: self-comparison not equal")
	}
	if tr.Value(f, 0) != d.Latent(f, 0) {
		t.Errorf("Value accessor wrong")
	}
}

func TestPerfectPlatform(t *testing.T) {
	pf := NewPerfect(toyTruth())
	d := dataset.Toy()
	reqs := []Request{
		{Q: Question{A: d.Index("f"), B: d.Index("e")}, Workers: 5},
		{Q: Question{A: d.Index("a"), B: d.Index("b")}, Workers: 5},
	}
	answers := pf.Ask(reqs)
	if len(answers) != 2 || answers[0].Pref != First || answers[1].Pref != Second {
		t.Errorf("perfect answers wrong: %+v", answers)
	}
	st := pf.Stats().Snapshot()
	if st.Questions != 2 || st.Rounds != 1 || st.WorkerAnswers != 10 {
		t.Errorf("stats = %+v", st)
	}
	if pf.Ask(nil) != nil || pf.Stats().Rounds() != 1 {
		t.Errorf("empty Ask consumed a round")
	}
}

func TestStatsCostFormula(t *testing.T) {
	// Section 6.2: questions pack into HITs of 5 across the whole run.
	// Two rounds of 7 and 3 questions at ω=5: ⌈10/5⌉ = 2 HITs, ×5 workers
	// ×$0.02 = $0.20.
	var s Stats
	reqs := func(k int) []Request {
		out := make([]Request, k)
		for i := range out {
			out[i] = Request{Workers: 5}
		}
		return out
	}
	s.record(reqs(7))
	s.record(reqs(3))
	if got := s.Cost(0.02); got != 0.02*5*2 {
		t.Errorf("cost = %v, want %v", got, 0.02*5*2)
	}
	// The conservative per-round packing stays available in PerRound:
	// ⌈7/5⌉×5 + ⌈3/5⌉×5 = 15 worker units.
	perRound := 0
	for _, r := range s.PerRound() {
		perRound += r.WorkerUnits
	}
	if perRound != 15 {
		t.Errorf("per-round units = %d, want 15", perRound)
	}
	// Mixed worker counts are grouped per ω.
	var m Stats
	m.record([]Request{{Workers: 3}, {Workers: 3}, {Workers: 7}})
	// ⌈2/5⌉×3 + ⌈1/5⌉×7 = 10 units.
	if got := m.Cost(1); got != 10 {
		t.Errorf("mixed cost = %v, want 10", got)
	}
	// Workers < 1 count as 1.
	var z Stats
	z.record([]Request{{Workers: 0}})
	if z.WorkerAnswers() != 1 {
		t.Errorf("zero-worker request booked %d answers", z.WorkerAnswers())
	}
}

func TestWorkerJudge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	perfect := Worker{Reliability: 1}
	for i := 0; i < 20; i++ {
		if perfect.Judge(First, rng) != First {
			t.Fatalf("perfect worker erred")
		}
	}
	broken := Worker{Reliability: 0}
	for i := 0; i < 20; i++ {
		if broken.Judge(Equal, rng) == Equal {
			t.Fatalf("zero-reliability worker answered correctly")
		}
	}
}

func TestPoolAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Unbounded pool.
	p, err := NewPool(PoolConfig{Reliability: 0.8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ws := p.Assign(5)
	if len(ws) != 5 || ws[0].Reliability != 0.8 {
		t.Errorf("unbounded assignment wrong: %+v", ws)
	}
	// Bounded pool hands out round-robin.
	p, err = NewPool(PoolConfig{Size: 3, Reliability: 0.9}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ws = p.Assign(4)
	if ws[0].ID != 0 || ws[3].ID != 0 {
		t.Errorf("round-robin wrong: %+v", ws)
	}
	// Spammers reduce reliability.
	p, err = NewPool(PoolConfig{Size: 100, Reliability: 0.9, SpammerFraction: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	spammers := 0
	for _, w := range p.Assign(100) {
		if w.Reliability < 0.5 {
			spammers++
		}
	}
	if spammers < 20 || spammers > 80 {
		t.Errorf("spammer count = %d, want around 50", spammers)
	}
	// Validation.
	if _, err := NewPool(PoolConfig{Reliability: 1.5}, rng); err == nil {
		t.Errorf("invalid reliability accepted")
	}
	if _, err := NewPool(PoolConfig{Reliability: 0.5, SpammerFraction: -1}, rng); err == nil {
		t.Errorf("invalid spammer fraction accepted")
	}
	if _, err := NewPool(PoolConfig{Reliability: math.NaN()}, rng); err == nil {
		t.Errorf("NaN reliability accepted")
	}
	if _, err := NewPool(PoolConfig{Reliability: 0.5, SpammerFraction: math.NaN()}, rng); err == nil {
		t.Errorf("NaN spammer fraction accepted")
	}
}

func TestMajorityVote(t *testing.T) {
	cases := []struct {
		votes []Preference
		want  Preference
	}{
		{[]Preference{First, First, Second}, First},
		{[]Preference{Second, Second, First}, Second},
		{[]Preference{Equal, Equal, First}, Equal},
		{[]Preference{First, Second}, Equal},        // tie → cautious Equal
		{[]Preference{First, Second, Equal}, Equal}, /* three-way tie */
		{nil, Equal},
	}
	for _, c := range cases {
		if got := MajorityVote(c.votes); got != c.want {
			t.Errorf("MajorityVote(%v) = %v, want %v", c.votes, got, c.want)
		}
	}
}

func TestSimulatedPlatformStatistics(t *testing.T) {
	tr := toyTruth()
	rng := rand.New(rand.NewSource(3))
	pool, err := NewPool(PoolConfig{Reliability: 0.8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	pf := NewSimulated(tr, pool, rng)
	d := tr.Data
	q := Question{A: d.Index("f"), B: d.Index("e")}
	correct := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		if pf.Ask([]Request{{Q: q, Workers: 5}})[0].Pref == First {
			correct++
		}
	}
	// Majority of 5 workers at p=0.8 should be right ~94% of the time.
	if correct < trials*85/100 {
		t.Errorf("5-worker majority correct only %d/%d", correct, trials)
	}
	if pf.Mistakes() != trials-correct {
		t.Errorf("mistakes = %d, want %d", pf.Mistakes(), trials-correct)
	}
	st := pf.Stats().Snapshot()
	if st.Questions != trials || st.WorkerAnswers != trials*5 {
		t.Errorf("stats = %+v", st)
	}
}

func TestInteractivePlatform(t *testing.T) {
	var out strings.Builder
	ia := &Interactive{
		In:  strings.NewReader("1\nbogus\n2\n=\n"),
		Out: &out,
	}
	answers := ia.Ask([]Request{
		{Q: Question{A: 0, B: 1}},
		{Q: Question{A: 2, B: 3}},
		{Q: Question{A: 4, B: 5}},
	})
	want := []Preference{First, Second, Equal}
	for i, a := range answers {
		if a.Pref != want[i] {
			t.Errorf("answer %d = %v, want %v", i, a.Pref, want[i])
		}
	}
	if !strings.Contains(out.String(), "please answer") {
		t.Errorf("invalid input not re-prompted")
	}
	if ia.Stats().Questions() != 3 {
		t.Errorf("interactive stats wrong")
	}
}

// TestInteractiveEndOfInput: input that ends before a question is
// answered must not produce an answer for it. Returning a default would
// hand the run (and any journal) a judgment the operator never made.
func TestInteractiveEndOfInput(t *testing.T) {
	var out strings.Builder
	ia := &Interactive{In: strings.NewReader("1\n"), Out: &out}
	var answers []Answer
	defer func() {
		p := recover()
		if p == nil {
			t.Fatalf("Ask returned %+v at end of input, want a panic", answers)
		}
		if msg := fmt.Sprint(p); !strings.Contains(msg, "tuple 2 vs tuple 3") {
			t.Errorf("panic %q does not name the unanswered question", msg)
		}
	}()
	answers = ia.Ask([]Request{
		{Q: Question{A: 0, B: 1}},
		{Q: Question{A: 2, B: 3}},
	})
}

func TestRecorder(t *testing.T) {
	rec := &Recorder{Inner: NewPerfect(toyTruth())}
	d := dataset.Toy()
	q1 := Question{A: d.Index("f"), B: d.Index("e")}
	q2 := Question{A: d.Index("a"), B: d.Index("b")}
	rec.Ask([]Request{{Q: q1}})
	rec.Ask([]Request{{Q: q2}})
	if len(rec.Log) != 2 || rec.Stats().Rounds() != 2 {
		t.Fatalf("recorder log/stats wrong")
	}
	if rec.Log[0].Q != q1 || rec.Log[0].Pref != First || rec.Log[1].Q != q2 {
		t.Errorf("recorder log = %+v", rec.Log)
	}
}

func TestSimulatedUnary(t *testing.T) {
	tr := toyTruth()
	rng := rand.New(rand.NewSource(4))
	up := NewSimulatedUnary(tr, 0, rng)
	d := tr.Data
	ests := up.Estimate([]UnaryRequest{
		{Tuple: d.Index("f"), Workers: 3},
		{Tuple: d.Index("e"), Workers: 3},
	})
	if ests[0] != d.Latent(d.Index("f"), 0) || ests[1] != d.Latent(d.Index("e"), 0) {
		t.Errorf("zero-noise estimates wrong: %v", ests)
	}
	st := up.Stats().Snapshot()
	if st.Questions != 2 || st.Rounds != 1 || st.WorkerAnswers != 6 {
		t.Errorf("unary stats = %+v", st)
	}
	if up.Estimate(nil) != nil {
		t.Errorf("empty estimate not nil")
	}
	// Noise shrinks with worker count (law of large numbers smoke test).
	noisy := NewSimulatedUnary(tr, 0.5, rand.New(rand.NewSource(5)))
	var err1, err25 float64
	truth := d.Latent(d.Index("f"), 0)
	for i := 0; i < 200; i++ {
		e1 := noisy.Estimate([]UnaryRequest{{Tuple: d.Index("f"), Workers: 1}})[0]
		e25 := noisy.Estimate([]UnaryRequest{{Tuple: d.Index("f"), Workers: 25}})[0]
		err1 += abs(e1 - truth)
		err25 += abs(e25 - truth)
	}
	if err25 >= err1 {
		t.Errorf("averaging over workers did not reduce error: %v vs %v", err25, err1)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestStatsConcurrent hammers one Stats from recording and reading
// goroutines; run with -race this is the regression test for concurrent
// monitoring reads (HTTP stats handlers, platform decorators) during a
// live run.
func TestStatsConcurrent(t *testing.T) {
	var s Stats
	const writers, readers, rounds = 4, 4, 250
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s.Record([]Request{{Workers: 3}, {Workers: 5}})
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_ = s.Questions()
				_ = s.Cost(DefaultReward)
				snap := s.Snapshot()
				if snap.Questions != 2*snap.Rounds {
					t.Errorf("torn snapshot: %d questions in %d rounds", snap.Questions, snap.Rounds)
				}
			}
		}()
	}
	wg.Wait()
	if s.Questions() != 2*writers*rounds || s.Rounds() != writers*rounds {
		t.Errorf("final stats: %d questions, %d rounds", s.Questions(), s.Rounds())
	}
	if s.WorkerAnswers() != 8*writers*rounds {
		t.Errorf("worker answers = %d", s.WorkerAnswers())
	}
	if got := len(s.PerRound()); got != writers*rounds {
		t.Errorf("per-round entries = %d", got)
	}
}
