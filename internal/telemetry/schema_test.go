package telemetry

import (
	"testing"
	"time"
)

// TestConstructorsMatchSchema pins the trace wire format: every
// constructor's output must validate against the registry.
func TestConstructorsMatchSchema(t *testing.T) {
	events := map[string]Event{
		"SpanStart": SpanStart(testSC, "00f067aa0ba902b7", "round", time.Now()),
		"SpanEnd":   SpanEnd(testSC, "round", map[string]string{"round": "1"}, time.Now(), 5*time.Millisecond),
	}
	for name, e := range events {
		if err := ValidateEvent(e); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestEveryEventTypeHasSchema pins the registry to the declared constants:
// adding an event type without registering its fields must fail.
func TestEveryEventTypeHasSchema(t *testing.T) {
	all := []EventType{EventSpanStart, EventSpanEnd}
	if got := len(EventTypes()); got != len(all) {
		t.Fatalf("registry has %d event types, want %d", got, len(all))
	}
	for _, et := range all {
		if _, ok := SchemaOf(et); !ok {
			t.Errorf("event type %q has no schema entry", et)
		}
	}
}

// TestValidateMetric exercises the metric half of the registry: every
// metric family a live process actually registers must validate, and
// unknown names or drifted labels must not.
func TestValidateMetric(t *testing.T) {
	ok := [][]any{
		{"crowdserve_rounds_total"},
		{"crowdserve_lease_wait_seconds"},
		{"crowdserve_client_retries_total", "cause"},
		{"crowdserve_faults_injected_total", "kind"},
		{"crowdserve_http_requests_total", "route", "method", "code"},
	}
	for _, c := range ok {
		name := c[0].(string)
		labels := make([]string, 0, len(c)-1)
		for _, l := range c[1:] {
			labels = append(labels, l.(string))
		}
		if err := ValidateMetric(name, labels...); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if err := ValidateMetric("mystery_total"); err == nil {
		t.Error("unknown metric must not validate")
	}
	if err := ValidateMetric("crowdserve_client_retries_total"); err == nil {
		t.Error("missing label must not validate")
	}
	if err := ValidateMetric("crowdserve_client_retries_total", "kind"); err == nil {
		t.Error("wrong label name must not validate")
	}
	if err := ValidateMetric("crowdserve_http_requests_total", "method", "route", "code"); err == nil {
		t.Error("label order is part of the schema; reordering must not validate")
	}
}

// TestMetricNamesSorted pins the enumeration contract.
func TestMetricNamesSorted(t *testing.T) {
	names := MetricNames()
	if len(names) != len(metricSchemas) {
		t.Fatalf("MetricNames returned %d families, registry has %d", len(names), len(metricSchemas))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted at %d: %q >= %q", i, names[i-1], names[i])
		}
	}
	if labels, ok := MetricSchemaOf("crowdserve_faults_injected_total"); !ok || len(labels) != 1 || labels[0] != "kind" {
		t.Errorf("MetricSchemaOf(faults) = %v, %v", labels, ok)
	}
}

func TestValidateEventRejects(t *testing.T) {
	if err := ValidateEvent(Event{Type: "mystery"}); err == nil {
		t.Errorf("unknown event type must not validate")
	}
	// A span_start must not carry span_end's attrs: they are only final
	// when the span ends.
	e := SpanStart(testSC, "", "run", time.Now())
	e.Attrs = map[string]string{"algo": "crowdsky"}
	if err := ValidateEvent(e); err == nil {
		t.Errorf("stray field must not validate")
	}
	// Implicit fields are always allowed.
	e2 := SpanStart(testSC, "", "run", time.Now())
	e2.Seq = 7
	if err := ValidateEvent(e2); err != nil {
		t.Errorf("implicit fields rejected: %v", err)
	}
}
