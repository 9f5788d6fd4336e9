package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"

	"crowdsky/internal/lint/analysis"
)

// TraceSchema keeps trace emitters honest against the event-schema
// registry. The telemetry package declares, under a
//
//	// skylint:eventschema
//
// comment, a map from event-type constants to the JSON field names each
// event carries. Consumers of the trace output parse against those names,
// so an emitter populating a field the schema does not list is a silent
// wire-format break — everything compiles, the dashboard just reads zeros.
//
// In the declaring package the analyzer proves three properties:
//
//  1. every constant of the schema's key type has a registry entry
//     (an event type cannot be added without declaring its fields);
//  2. every field name in the registry exists as a json tag on the
//     package's Event struct (the schema cannot promise fields the wire
//     format does not have);
//  3. every constructor — a function returning Event that builds it from
//     a single event-type constant — assigns exactly the registered
//     fields: each schema field is set, and nothing outside
//     schema ∪ implicit is.
//
// Everywhere else, Event composite literals with a constant Type are
// checked against the registry at Finish time (the declaring package may
// be analyzed after its users): unknown event types and stray fields are
// reported. Literals with a non-constant Type (generic plumbing like
// newEvent) are out of scope.
//
// The implicit fields — seq, time, type — are populated by the event
// plumbing and allowed on any event.
//
// The analyzer covers the metrics vocabulary the same way: a
//
//	// skylint:metricschema
//
// annotated map in the declaring package lists every metric family name
// and its label names, and every constant-named Registry.New{Counter,
// CounterVec,Gauge,GaugeFunc,Histogram,HistogramVec} call anywhere in the
// tree is checked at Finish time: the name must be registered and the
// constant label arguments must match the schema exactly, order included.
// Registration sites whose name or labels are computed (the
// prefix-parameterised HTTP middleware) are out of scope for the static
// pass; telemetry.ValidateMetric covers them at runtime.
var TraceSchema = &analysis.Analyzer{
	Name: "traceschema",
	Doc: "telemetry events and metrics must match the skylint:eventschema / " +
		"skylint:metricschema registries: constructors, Event literals, and " +
		"Registry.New* calls may only use registered names, fields, and labels",
	Run:    runTraceSchema,
	Finish: finishTraceSchema,
}

// traceImplicitFields mirrors telemetry's implicitFields: bookkeeping set
// by the plumbing, legal on every event.
var traceImplicitFields = map[string]bool{
	"seq": true, "time": true, "type": true,
}

// traceSchemaFacts is the program-wide registry hand-off: declaring
// packages deposit their schemas, user packages deposit their Event
// literals, Finish joins the two.
type traceSchemaFacts struct {
	// registries maps the declaring package's import path to its schema.
	registries map[string]*schemaRegistry
	literals   []eventLiteral
	// metricRegistries maps the declaring package's import path to its
	// metric schema; metricSites holds every constant-named Registry.New*
	// call for the Finish-phase join.
	metricRegistries map[string]*metricRegistry
	metricSites      []metricSite
}

type schemaRegistry struct {
	schemas map[string]map[string]bool // event type value -> field set
}

type metricRegistry struct {
	labels map[string][]string // metric family name -> label names, in order
}

type metricSite struct {
	pass   *analysis.Pass
	pos    token.Pos
	regPkg string // import path of the Registry type's package
	name   string // constant metric family name
	labels []string
}

type eventLiteral struct {
	pass      *analysis.Pass
	pos       token.Pos
	eventPkg  string // import path of the Event type's package
	eventType string // constant Type value
	fields    map[string]bool
}

func traceSchemaState(prog *analysis.Program) *traceSchemaFacts {
	return prog.Fact("traceschema.registry", func() any {
		return &traceSchemaFacts{
			registries:       make(map[string]*schemaRegistry),
			metricRegistries: make(map[string]*metricRegistry),
		}
	}).(*traceSchemaFacts)
}

func runTraceSchema(pass *analysis.Pass) error {
	facts := traceSchemaState(pass.Program())

	schemaVar := findMarkedSchemaVar(pass, "skylint:eventschema")
	if schemaVar != nil {
		checkDeclaringPackage(pass, facts, schemaVar)
	}
	if metricVar := findMarkedSchemaVar(pass, "skylint:metricschema"); metricVar != nil {
		registerMetricSchema(pass, facts, metricVar)
	}
	collectEventLiterals(pass, facts)
	collectMetricSites(pass, facts)
	return nil
}

// findMarkedSchemaVar locates the package's map literal annotated with the
// given skylint marker, or nil when this package declares no such registry.
func findMarkedSchemaVar(pass *analysis.Pass, marker string) *ast.CompositeLit {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR || !hasSchemaMarker(gd.Doc, marker) {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					if cl, ok := v.(*ast.CompositeLit); ok {
						if _, isMap := pass.TypeOf(cl).Underlying().(*types.Map); isMap {
							return cl
						}
					}
				}
			}
		}
	}
	return nil
}

func hasSchemaMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.Contains(c.Text, marker) {
			return true
		}
	}
	return false
}

// checkDeclaringPackage parses the registry literal, registers it in the
// program facts, and proves the three in-package properties.
func checkDeclaringPackage(pass *analysis.Pass, facts *traceSchemaFacts, lit *ast.CompositeLit) {
	mapType, ok := pass.TypeOf(lit).Underlying().(*types.Map)
	if !ok {
		return
	}
	keyType := analysis.NamedOf(mapType.Key())

	schemas := make(map[string]map[string]bool)
	schemaPos := make(map[string]token.Pos)
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		keyVal := constStringValue(pass, kv.Key)
		if keyVal == "" {
			pass.Reportf(kv.Key.Pos(),
				"event schema keys must be named constants of the event type, not expressions")
			continue
		}
		fields := make(map[string]bool)
		if vals, ok := kv.Value.(*ast.CompositeLit); ok {
			for _, fe := range vals.Elts {
				if fv := constStringValue(pass, fe); fv != "" {
					fields[fv] = true
				}
			}
		}
		schemas[keyVal] = fields
		schemaPos[keyVal] = kv.Key.Pos()
	}
	facts.registries[pass.PkgPath] = &schemaRegistry{schemas: schemas}

	// Property 1: every constant of the key type is registered.
	if keyType != nil {
		scope := pass.Pkg.Scope()
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok || analysis.NamedOf(c.Type()) != keyType {
				continue
			}
			val := constant.StringVal(c.Val())
			if _, registered := schemas[val]; !registered {
				pass.Reportf(c.Pos(),
					"event type constant %s (%q) has no skylint:eventschema entry; register its fields before emitting it",
					name, val)
			}
		}
	}

	// Property 2: every schema field exists as a json tag on Event.
	eventFields := eventJSONFields(pass)
	if eventFields != nil {
		typs := make([]string, 0, len(schemas))
		for t := range schemas {
			typs = append(typs, t)
		}
		sort.Strings(typs)
		for _, typ := range typs {
			for _, f := range sortedKeys(schemas[typ]) {
				if !eventFields[f] {
					pass.Reportf(schemaPos[typ],
						"schema for %q lists field %q, but the Event struct has no field with that json tag",
						typ, f)
				}
			}
		}
	}

	// Property 3: constructors assign exactly their event type's fields.
	checkConstructors(pass, schemas, eventFields)
}

// eventJSONFields maps the package's Event struct to the set of json wire
// names, or nil when the package has no Event struct.
func eventJSONFields(pass *analysis.Pass) map[string]bool {
	obj := pass.Pkg.Scope().Lookup("Event")
	if obj == nil {
		return nil
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	out := make(map[string]bool, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		if name := jsonTagName(st.Tag(i)); name != "" {
			out[name] = true
		}
	}
	return out
}

// fieldJSONName resolves a field of the Event struct to its wire name;
// untagged fields fall back to the Go name.
func fieldJSONName(eventStruct *types.Struct, fieldName string) string {
	for i := 0; i < eventStruct.NumFields(); i++ {
		if eventStruct.Field(i).Name() == fieldName {
			if name := jsonTagName(eventStruct.Tag(i)); name != "" {
				return name
			}
			return fieldName
		}
	}
	return fieldName
}

func jsonTagName(tag string) string {
	jt := reflect.StructTag(tag).Get("json")
	if jt == "" || jt == "-" {
		return ""
	}
	if i := strings.IndexByte(jt, ','); i >= 0 {
		jt = jt[:i]
	}
	return jt
}

// checkConstructors finds every function in the declaring package that
// returns Event and constructs it from a single constant event type, and
// compares its assigned field set against the registry.
func checkConstructors(pass *analysis.Pass, schemas map[string]map[string]bool, eventFields map[string]bool) {
	eventObj := pass.Pkg.Scope().Lookup("Event")
	if eventObj == nil {
		return
	}
	eventStruct, ok := eventObj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !returnsEvent(pass, fd, eventObj) {
				continue
			}
			typ, assigned := constructorProfile(pass, fd, eventObj, eventStruct)
			if typ == "" {
				continue // non-constant or no event type: generic plumbing
			}
			schema, ok := schemas[typ]
			if !ok {
				continue // property 1 already reported the missing entry
			}
			for _, field := range sortedKeys(schema) {
				if !assigned[field] && !traceImplicitFields[field] {
					pass.Reportf(fd.Name.Pos(),
						"constructor %s never assigns field %q required by the %q schema",
						fd.Name.Name, field, typ)
				}
			}
			for _, field := range sortedKeys(assigned) {
				if !schema[field] && !traceImplicitFields[field] {
					pass.Reportf(fd.Name.Pos(),
						"constructor %s assigns field %q, which the %q schema does not list; register it or drop the assignment",
						fd.Name.Name, field, typ)
				}
			}
		}
	}
}

func returnsEvent(pass *analysis.Pass, fd *ast.FuncDecl, eventObj types.Object) bool {
	if fd.Type.Results == nil || len(fd.Type.Results.List) != 1 {
		return false
	}
	named := analysis.NamedOf(pass.TypeOf(fd.Type.Results.List[0].Type))
	return named != nil && named.Obj() == eventObj
}

// constructorProfile extracts the constant event type a constructor
// builds and the set of json field names it assigns, from both composite
// literal elements (Event{Type: C, Round: r}) and subsequent statements
// (e.Round = r, including tuple assignments). A constructor whose type
// argument is not constant — newEvent(t) itself — yields "".
func constructorProfile(pass *analysis.Pass, fd *ast.FuncDecl, eventObj types.Object, eventStruct *types.Struct) (string, map[string]bool) {
	typ := ""
	assigned := make(map[string]bool)
	record := func(fieldName string) {
		if name := fieldJSONName(eventStruct, fieldName); name != "" {
			assigned[name] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			named := analysis.NamedOf(pass.TypeOf(n))
			if named == nil || named.Obj() != eventObj {
				return true
			}
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				if key.Name == "Type" {
					typ = constStringValue(pass, kv.Value)
				} else {
					record(key.Name)
				}
			}
		case *ast.CallExpr:
			// A helper call with a single event-type constant argument
			// (the newEvent(EventX) idiom) fixes the constructor's type.
			if len(n.Args) >= 1 {
				if v := constStringValue(pass, n.Args[0]); v != "" && isEventTypeArg(pass, n.Args[0]) {
					typ = v
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				recvNamed := analysis.NamedOf(pass.TypeOf(sel.X))
				if recvNamed != nil && recvNamed.Obj() == eventObj {
					record(sel.Sel.Name)
				}
			}
		}
		return true
	})
	return typ, assigned
}

// isEventTypeArg reports whether e's type is a named string type (the
// event type), keeping plain string constants from being mistaken for an
// event type argument.
func isEventTypeArg(pass *analysis.Pass, e ast.Expr) bool {
	return analysis.NamedOf(pass.TypeOf(e)) != nil
}

// collectEventLiterals records every Event composite literal with a
// constant Type for the Finish-phase registry check. Functions that
// return an Event are skipped wholesale: those are constructors, whose
// literals are covered field-for-field by the in-package check.
func collectEventLiterals(pass *analysis.Pass, facts *traceSchemaFacts) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if named := resultNamed(pass, fd); named != nil && named.Obj().Name() == "Event" {
					continue
				}
			}
			collectLiteralsIn(pass, facts, decl)
		}
	}
}

// resultNamed returns the named type of fd's single result, or nil.
func resultNamed(pass *analysis.Pass, fd *ast.FuncDecl) *types.Named {
	if fd.Type.Results == nil || len(fd.Type.Results.List) != 1 {
		return nil
	}
	return analysis.NamedOf(pass.TypeOf(fd.Type.Results.List[0].Type))
}

func collectLiteralsIn(pass *analysis.Pass, facts *traceSchemaFacts, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		named := analysis.NamedOf(pass.TypeOf(cl))
		if named == nil || named.Obj().Name() != "Event" || named.Obj().Pkg() == nil {
			return true
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return true
		}
		typ := ""
		fields := make(map[string]bool)
		for _, elt := range cl.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				return true // positional literal: out of scope
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			if key.Name == "Type" {
				typ = constStringValue(pass, kv.Value)
			} else {
				fields[fieldJSONName(st, key.Name)] = true
			}
		}
		if typ != "" {
			facts.literals = append(facts.literals, eventLiteral{
				pass:      pass,
				pos:       cl.Pos(),
				eventPkg:  named.Obj().Pkg().Path(),
				eventType: typ,
				fields:    fields,
			})
		}
		return true
	})
}

// registerMetricSchema parses the skylint:metricschema map literal —
// metric family name to ordered label names — and deposits it in the
// program facts for the Finish-phase registration-site check.
func registerMetricSchema(pass *analysis.Pass, facts *traceSchemaFacts, lit *ast.CompositeLit) {
	labels := make(map[string][]string)
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		name := constStringValue(pass, kv.Key)
		if name == "" {
			pass.Reportf(kv.Key.Pos(),
				"metric schema keys must be constant metric family names, not expressions")
			continue
		}
		var ls []string
		if vals, ok := kv.Value.(*ast.CompositeLit); ok {
			for _, fe := range vals.Elts {
				if lv := constStringValue(pass, fe); lv != "" {
					ls = append(ls, lv)
				}
			}
		}
		labels[name] = ls
	}
	facts.metricRegistries[pass.PkgPath] = &metricRegistry{labels: labels}
}

// metricLabelStart maps each Registry constructor method to the argument
// index where its variadic label names begin; -1 means unlabelled.
var metricLabelStart = map[string]int{
	"NewCounter":      -1,
	"NewGauge":        -1,
	"NewGaugeFunc":    -1,
	"NewHistogram":    -1,
	"NewCounterVec":   2, // (name, help, labels...)
	"NewHistogramVec": 3, // (name, help, buckets, labels...)
}

// collectMetricSites records every Registry.New* call with a constant
// metric name (and, for Vec variants, all-constant labels) for the
// Finish-phase registry check. Computed names or spread label slices are
// out of scope — runtime validation covers those.
func collectMetricSites(pass *analysis.Pass, facts *traceSchemaFacts) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			labelStart, ok := metricLabelStart[sel.Sel.Name]
			if !ok || len(call.Args) < 1 {
				return true
			}
			recv := analysis.NamedOf(pass.TypeOf(sel.X))
			if recv == nil || recv.Obj().Name() != "Registry" || recv.Obj().Pkg() == nil {
				return true
			}
			name := constStringValue(pass, call.Args[0])
			if name == "" {
				return true // computed name (prefix+"..."): runtime's job
			}
			var labels []string
			if labelStart >= 0 {
				if call.Ellipsis != token.NoPos {
					return true // labels spread from a slice: not statically known
				}
				for _, a := range call.Args[labelStart:] {
					lv := constStringValue(pass, a)
					if lv == "" {
						return true // computed label: runtime's job
					}
					labels = append(labels, lv)
				}
			}
			facts.metricSites = append(facts.metricSites, metricSite{
				pass:   pass,
				pos:    call.Pos(),
				regPkg: recv.Obj().Pkg().Path(),
				name:   name,
				labels: labels,
			})
			return true
		})
	}
}

// finishTraceSchema joins collected literals against the registries once
// every package has run, reporting through each literal's own pass so
// skylint:ignore works at the literal site.
func finishTraceSchema(prog *analysis.Program) error {
	facts := traceSchemaState(prog)
	for _, lit := range facts.literals {
		reg := facts.registries[lit.eventPkg]
		if reg == nil {
			continue // Event type from a package with no schema registry
		}
		schema, ok := reg.schemas[lit.eventType]
		if !ok {
			lit.pass.Reportf(lit.pos,
				"event literal uses type %q, which has no skylint:eventschema entry in %s",
				lit.eventType, lit.eventPkg)
			continue
		}
		for _, f := range sortedKeys(lit.fields) {
			if !schema[f] && !traceImplicitFields[f] {
				lit.pass.Reportf(lit.pos,
					"event literal of type %q sets field %q, which its schema does not list",
					lit.eventType, f)
			}
		}
	}
	for _, site := range facts.metricSites {
		reg := facts.metricRegistries[site.regPkg]
		if reg == nil {
			continue // Registry type from a package with no metric registry
		}
		want, ok := reg.labels[site.name]
		if !ok {
			site.pass.Reportf(site.pos,
				"metric %q has no skylint:metricschema entry in %s; register its name and labels before exposing it",
				site.name, site.regPkg)
			continue
		}
		if !equalStrings(site.labels, want) {
			site.pass.Reportf(site.pos,
				"metric %q is registered with labels %v, but its schema says %v (order included)",
				site.name, site.labels, want)
		}
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// constStringValue evaluates e to its constant string value, or ""
// when e is not a string constant.
func constStringValue(pass *analysis.Pass, e ast.Expr) string {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return ""
	}
	return constant.StringVal(tv.Value)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
