// Seed input for FuzzSSABuild: interface method calls behind nil guards of several spellings.
package nilness

type Event struct{ Name string }

type Tracer interface {
	Emit(Event)
}

type runner struct {
	trace Tracer
}

func (r *runner) bad(e Event) {
	r.trace.Emit(e)
}

func (r *runner) guarded(e Event) {
	if r.trace != nil {
		r.trace.Emit(e)
	}
}

func (r *runner) guardedConjoined(e Event, on bool) {
	if on && r.trace != nil {
		r.trace.Emit(e)
	}
}

func (r *runner) earlyExit(e Event) {
	if r.trace == nil {
		return
	}
	r.trace.Emit(e)
}

func (r *runner) wrongGuard(e Event, other Tracer) {
	if other != nil {
		r.trace.Emit(e)
	}
}

type collector struct{}

func (collector) Emit(Event) {}

func concrete(c collector, e Event) {
	c.Emit(e)
}

func suppressed(t Tracer, e Event) {
	// skylint:ignore nilness caller guarantees a non-nil tracer
	t.Emit(e)
}
