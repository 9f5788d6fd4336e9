package query

import (
	"fmt"
	"strconv"
	"strings"

	"crowdsky/internal/core"
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
)

// ExecOptions configures query execution.
type ExecOptions struct {
	// Platform builds the crowd platform for the constructed dataset. The
	// dataset's latent values come from the table's underscored columns.
	// Nil defaults to a perfect simulated crowd answering from those
	// latent columns (which must then exist).
	Platform func(d *dataset.Dataset) crowd.Platform
	// Options forwards the CrowdSky algorithm configuration, the schedule
	// included; Options with no pruning method set runs full pruning
	// (P1+P2+P3).
	Options core.Options
}

// Result is the outcome of a crowd-enabled skyline query.
type Result struct {
	Query *Query
	// Columns are the visible column names of the table (latent columns
	// hidden).
	Columns []string
	// Rows renders the skyline tuples, one row per tuple, cells formatted
	// as in the source table.
	Rows [][]string
	// KnownAttrs and CrowdAttrs record how the SKYLINE OF attributes were
	// split: attributes present as table columns are machine-evaluated;
	// the rest were crowdsourced (Example 1's "romantic").
	KnownAttrs []string
	CrowdAttrs []string
	// Stats from the crowd platform.
	Questions int
	Rounds    int
	Cost      float64
	Truncated bool
}

// Execute runs a parsed query against a catalog.
func Execute(q *Query, cat Catalog, opt ExecOptions) (*Result, error) {
	tbl, err := cat.Table(q.Table)
	if err != nil {
		return nil, err
	}

	// WHERE: filter row indices.
	keep, err := filterRows(tbl, q.Where)
	if err != nil {
		return nil, err
	}

	// Split SKYLINE OF attributes into known (table column exists) and
	// crowd (missing from the table → preferences must come from crowds).
	var knownAttrs, crowdAttrs []SkylineAttr
	var knownCols []*Column
	for _, a := range q.Skyline {
		if strings.HasPrefix(a.Name, "_") {
			return nil, fmt.Errorf("query: %q is a latent column and cannot be queried directly", a.Name)
		}
		col := tbl.Column(a.Name)
		switch {
		case col == nil:
			crowdAttrs = append(crowdAttrs, a)
		case col.IsNumeric():
			knownAttrs = append(knownAttrs, a)
			knownCols = append(knownCols, col)
		default:
			return nil, fmt.Errorf("query: skyline attribute %q is not numeric", a.Name)
		}
	}
	if len(knownAttrs) == 0 {
		return nil, fmt.Errorf("query: SKYLINE OF needs at least one attribute stored in table %q", q.Table)
	}

	// Build the dataset over the filtered rows: known attributes from the
	// table (negated for MAX so smaller is always preferred), latent crowd
	// values from the underscored ground-truth columns when present.
	known := make([][]float64, len(keep))
	latent := make([][]float64, len(keep))
	names := make([]string, len(keep))
	nameCol := firstTextColumn(tbl)
	latentCols := make([]*Column, len(crowdAttrs))
	for j, a := range crowdAttrs {
		latentCols[j] = tbl.Column("_" + a.Name)
		if latentCols[j] != nil && !latentCols[j].IsNumeric() {
			return nil, fmt.Errorf("query: latent column _%s is not numeric", a.Name)
		}
	}
	for k, i := range keep {
		row := make([]float64, len(knownAttrs))
		for j, a := range knownAttrs {
			v := knownCols[j].Numeric[i]
			if a.Direction == Max {
				v = -v
			}
			row[j] = v
		}
		known[k] = row
		lrow := make([]float64, len(crowdAttrs))
		for j, a := range crowdAttrs {
			if latentCols[j] == nil {
				continue // zero; only valid with a non-simulated platform
			}
			v := latentCols[j].Numeric[i]
			if a.Direction == Max {
				v = -v
			}
			lrow[j] = v
		}
		latent[k] = lrow
		if nameCol != nil {
			names[k] = nameCol.Text[i]
		} else {
			names[k] = fmt.Sprintf("row%d", i)
		}
	}
	d, err := dataset.New(known, latent)
	if err != nil {
		return nil, err
	}
	if err := d.SetNames(names); err != nil {
		return nil, err
	}
	knownNames := make([]string, len(knownAttrs))
	for j, a := range knownAttrs {
		knownNames[j] = a.Name
	}
	crowdNames := make([]string, len(crowdAttrs))
	for j, a := range crowdAttrs {
		crowdNames[j] = a.Name
	}
	if err := d.SetAttrNames(knownNames, crowdNames); err != nil {
		return nil, err
	}

	// Crowd platform.
	var pf crowd.Platform
	if opt.Platform != nil {
		pf = opt.Platform(d)
	} else {
		for j, c := range latentCols {
			if c == nil && len(keep) > 1 {
				return nil, fmt.Errorf("query: crowd attribute %q has no latent column _%s and no platform was supplied",
					crowdAttrs[j].Name, crowdAttrs[j].Name)
			}
		}
		pf = crowd.NewPerfect(crowd.DatasetTruth{Data: d})
	}

	// Run the crowd-enabled skyline.
	opts := opt.Options
	if err := opts.Schedule.Check(); err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	if !opts.P1 && !opts.P2 && !opts.P3 {
		opts.P1, opts.P2, opts.P3 = true, true, true
	}
	res := core.Run(d, pf, opts)

	// Render.
	out := &Result{
		Query:      q,
		KnownAttrs: knownNames,
		CrowdAttrs: crowdNames,
		Questions:  res.Questions,
		Rounds:     res.Rounds,
		Cost:       res.Cost,
		Truncated:  res.Truncated,
	}
	// Projection: SELECT * keeps every visible column; an explicit list is
	// validated against the table.
	var projected []*Column
	if len(q.Columns) == 0 {
		for i := range tbl.Columns {
			if !strings.HasPrefix(tbl.Columns[i].Name, "_") {
				projected = append(projected, &tbl.Columns[i])
			}
		}
	} else {
		for _, name := range q.Columns {
			if strings.HasPrefix(name, "_") {
				return nil, fmt.Errorf("query: %q is a latent column and cannot be selected", name)
			}
			col := tbl.Column(name)
			if col == nil {
				return nil, fmt.Errorf("query: SELECT references unknown column %q", name)
			}
			projected = append(projected, col)
		}
	}
	for _, c := range projected {
		out.Columns = append(out.Columns, c.Name)
	}
	limit := len(res.Skyline)
	if q.Limit > 0 && q.Limit < limit {
		limit = q.Limit
	}
	for _, t := range res.Skyline[:limit] {
		orig := keep[t]
		row := make([]string, 0, len(out.Columns))
		for _, c := range projected {
			if c.IsNumeric() {
				row = append(row, strconv.FormatFloat(c.Numeric[orig], 'g', -1, 64))
			} else {
				row = append(row, c.Text[orig])
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Run parses and executes a query in one call.
func Run(sql string, cat Catalog, opt ExecOptions) (*Result, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return Execute(q, cat, opt)
}

// filterRows applies the WHERE conjuncts and returns surviving row indices.
func filterRows(tbl *Table, conds []Condition) ([]int, error) {
	cols := make([]*Column, len(conds))
	for i, c := range conds {
		if strings.HasPrefix(c.Attr, "_") {
			return nil, fmt.Errorf("query: %q is a latent column and cannot be filtered", c.Attr)
		}
		col := tbl.Column(c.Attr)
		if col == nil {
			return nil, fmt.Errorf("query: WHERE references unknown column %q", c.Attr)
		}
		if c.IsString && col.IsNumeric() {
			return nil, fmt.Errorf("query: column %q is numeric but compared to a string", c.Attr)
		}
		if !c.IsString && !col.IsNumeric() {
			return nil, fmt.Errorf("query: column %q is text but compared to a number", c.Attr)
		}
		cols[i] = col
	}
	var keep []int
	for i := 0; i < tbl.Rows(); i++ {
		ok := true
		for k, c := range conds {
			if c.IsString {
				ok = c.Eval(0, cols[k].Text[i], true)
			} else {
				ok = c.Eval(cols[k].Numeric[i], "", false)
			}
			if !ok {
				break
			}
		}
		if ok {
			keep = append(keep, i)
		}
	}
	return keep, nil
}

// firstTextColumn returns the first visible text column, used for tuple
// names.
func firstTextColumn(tbl *Table) *Column {
	for i := range tbl.Columns {
		c := &tbl.Columns[i]
		if !c.IsNumeric() && !strings.HasPrefix(c.Name, "_") {
			return c
		}
	}
	return nil
}
