// Fixture for the nilness analyzer's inherited Tracer policy: Emit on a
// Tracer-typed value must be nil-guarded. The local Tracer interface
// stands in for telemetry.Tracer (the analyzer matches any interface
// named Tracer).
package nilness

type Event struct{ Name string }

type Tracer interface {
	Emit(Event)
}

type runner struct {
	trace Tracer
}

func (r *runner) bad(e Event) {
	r.trace.Emit(e) // want `without a nil guard`
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
		r.trace.Emit(e) // want `without a nil guard`
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
