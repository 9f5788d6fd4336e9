package telemetry

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// This file is the trace-event schema registry: the single authoritative
// statement of which event types exist and which JSON fields each one
// carries. Consumers of `crowdsky -trace` output (dashboards, the
// EXPERIMENTS.md notebooks, ad-hoc jq) parse against these names, so an
// emitter drifting from the registry is a wire-format break even though
// everything still compiles. ValidateEvent holds the line at runtime:
// tests (TestConstructorsMatchSchema) and trace tooling reject events
// that carry an unknown type or stray fields.

// eventSchemas maps every trace event type to the JSON field names its
// emitters must populate. Bookkeeping fields (seq, time, type) are
// implicit and never listed.
var eventSchemas = map[EventType][]string{
	EventSpanStart: {"trace_id", "span_id", "parent_id", "name"},
	EventSpanEnd:   {"trace_id", "span_id", "name", "duration_ms", "attrs"},
}

// implicitFields are populated by the event plumbing (tracers) rather
// than per-type constructors, and may appear on any event.
var implicitFields = map[string]bool{
	"seq": true, "time": true, "type": true,
}

// SchemaOf returns the registered JSON field names for event type t, and
// whether t is registered at all.
func SchemaOf(t EventType) ([]string, bool) {
	fields, ok := eventSchemas[t]
	return fields, ok
}

// EventTypes returns every registered event type, sorted, for consumers
// that enumerate the trace vocabulary (docs, -trace tooling).
func EventTypes() []EventType {
	out := make([]EventType, 0, len(eventSchemas))
	for t := range eventSchemas {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ValidateEvent checks e against the registry: its type must be
// registered, and every non-zero field must be either implicit or listed
// in the type's schema. (The converse — required fields being non-zero —
// is not checked here, because empty is legitimate for fields like a
// root span's `parent_id`.)
func ValidateEvent(e Event) error {
	schema, ok := eventSchemas[e.Type]
	if !ok {
		return fmt.Errorf("telemetry: event type %q is not in the schema registry", e.Type)
	}
	allowed := make(map[string]bool, len(schema))
	for _, f := range schema {
		allowed[f] = true
	}
	v := reflect.ValueOf(e)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		name := jsonName(t.Field(i))
		if name == "" || implicitFields[name] || allowed[name] {
			continue
		}
		if !v.Field(i).IsZero() {
			return fmt.Errorf("telemetry: %s event carries field %q, which its schema does not list", e.Type, name)
		}
	}
	return nil
}

// metricSchemas maps every metric family this repository exposes to its
// label names (empty slice = unlabelled). Like eventSchemas, this is the
// single authoritative statement of the /metrics vocabulary: dashboards
// and alerts key on these names and labels, so a registration site
// drifting from the registry is a monitoring break even though the code
// still compiles. ValidateMetric checks a family against it at runtime,
// and TestMetricFamiliesMatchSchema runs that check over every family a
// marketplace, its HTTP middleware, a client and a fault plan register.
var metricSchemas = map[string][]string{
	// HTTP middleware (prefix-parameterised; crowdserve's instances).
	"crowdserve_http_requests_total":  {"route", "method", "code"},
	"crowdserve_http_request_seconds": {"route"},
	// Marketplace server (crowdserve.NewServer).
	"crowdserve_rounds_total":                {},
	"crowdserve_questions_total":             {},
	"crowdserve_judgments_total":             {},
	"crowdserve_lease_requeues_total":        {},
	"crowdserve_response_write_errors_total": {},
	"crowdserve_idempotent_replays_total":    {},
	"crowdserve_lease_wait_seconds":          {},
	"crowdserve_judgment_latency_seconds":    {},
	"crowdserve_open_assignments":            {},
	// Marketplace client resilience (Client.InstrumentMetrics).
	"crowdserve_client_retries_total": {"cause"},
	// Fault injection (faultinject.Plan.InstrumentMetrics).
	"crowdserve_faults_injected_total": {"kind"},
}

// MetricSchemaOf returns the registered label names for metric family
// name, and whether the family is registered at all.
func MetricSchemaOf(name string) ([]string, bool) {
	labels, ok := metricSchemas[name]
	return labels, ok
}

// MetricNames returns every registered metric family, sorted, for
// consumers that enumerate the /metrics vocabulary (docs, dashboards).
func MetricNames() []string {
	out := make([]string, 0, len(metricSchemas))
	for name := range metricSchemas {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ValidateMetric checks one metric family against the registry: the name
// must be registered and the label names must match the schema exactly
// (order included — label order is part of a family's wire identity).
func ValidateMetric(name string, labels ...string) error {
	want, ok := metricSchemas[name]
	if !ok {
		return fmt.Errorf("telemetry: metric %q is not in the schema registry", name)
	}
	if len(labels) != len(want) {
		return fmt.Errorf("telemetry: metric %q has labels %v, schema says %v", name, labels, want)
	}
	for i, l := range labels {
		if l != want[i] {
			return fmt.Errorf("telemetry: metric %q has labels %v, schema says %v", name, labels, want)
		}
	}
	return nil
}

// jsonName extracts the wire name from a struct field's json tag.
func jsonName(f reflect.StructField) string {
	tag := f.Tag.Get("json")
	if tag == "" || tag == "-" {
		return ""
	}
	if i := strings.IndexByte(tag, ','); i >= 0 {
		tag = tag[:i]
	}
	return tag
}
