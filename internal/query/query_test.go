package query

import (
	"os"
	"strings"
	"testing"

	"crowdsky/internal/core"
)

func TestParseExample1(t *testing.T) {
	// The paper's motivating query (Example 1).
	q, err := Parse(`SELECT * FROM movie_db
		WHERE year >= 2010 and year <= 2015
		SKYLINE OF box_office MAX, romantic MAX`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Table != "movie_db" {
		t.Errorf("table = %q", q.Table)
	}
	if len(q.Where) != 2 || q.Where[0].Attr != "year" || q.Where[0].Op != OpGE || q.Where[0].Number != 2010 {
		t.Errorf("where = %+v", q.Where)
	}
	if len(q.Skyline) != 2 || q.Skyline[0] != (SkylineAttr{"box_office", Max}) ||
		q.Skyline[1] != (SkylineAttr{"romantic", Max}) {
		t.Errorf("skyline = %+v", q.Skyline)
	}
	rendered := q.String()
	for _, want := range []string{"movie_db", "year >= 2010", "box_office MAX", "romantic MAX"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("String() missing %q: %s", want, rendered)
		}
	}
}

func TestParseVariants(t *testing.T) {
	cases := []string{
		"SELECT * FROM t SKYLINE OF a",                      // default MIN, no WHERE
		"select * from t skyline of a min, b max",           // lowercase keywords
		"SELECT * FROM t WHERE x = 'abc' SKYLINE OF a",      // string condition
		"SELECT * FROM t WHERE x != 'abc' SKYLINE OF a MAX", // string !=
		"SELECT * FROM t SKYLINE OF a LIMIT 3",              // limit
		"SELECT * FROM t WHERE v < -1.5 SKYLINE OF a",       // negative number
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err != nil {
			t.Errorf("Parse(%q): %v", sql, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT FROM t SKYLINE OF a",                 // empty projection
		"SELECT a, FROM t SKYLINE OF a",              // dangling comma
		"SELECT * FROM SKYLINE OF a",                 // missing table
		"SELECT * FROM t",                            // missing skyline
		"SELECT * FROM t SKYLINE OF",                 // empty attribute list
		"SELECT * FROM t SKYLINE OF a, a",            // duplicate attribute
		"SELECT * FROM t WHERE x >< 3 SKYLINE OF a",  // bad operator
		"SELECT * FROM t WHERE x < 'a' SKYLINE OF a", // string with <
		"SELECT * FROM t SKYLINE OF a LIMIT x",       // bad limit
		"SELECT * FROM t SKYLINE OF a trailing",      // trailing junk
		"SELECT * FROM t WHERE x = 'unterminated SKYLINE OF a",
		"SELECT * FROM t SKYLINE OF a; DROP",
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) accepted", sql)
		}
	}
}

// movieTable builds a small movie_db with a latent "_romantic" column. The
// numbers are chosen so the expected skyline under (box_office MAX,
// romantic MAX) within 2010-2015 is {Blockbuster, Romance} — Blockbuster
// has the top box office, Romance the top romance score, and MidMovie is
// dominated by Romance on both.
func movieTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := ReadTable("movie_db", strings.NewReader(
		"title,year,box_office,_romantic\n"+
			"Blockbuster,2012,900,2\n"+
			"Romance,2011,500,9\n"+
			"MidMovie,2013,400,8\n"+
			"OldHit,2005,800,7\n"+ // filtered out by WHERE
			"Flop,2014,100,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestExecuteExample1(t *testing.T) {
	cat := MemCatalog{"movie_db": movieTable(t)}
	res, err := Run(`SELECT * FROM movie_db WHERE year >= 2010 AND year <= 2015
		SKYLINE OF box_office MAX, romantic MAX`, cat, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.KnownAttrs) != 1 || res.KnownAttrs[0] != "box_office" {
		t.Errorf("known attrs = %v", res.KnownAttrs)
	}
	if len(res.CrowdAttrs) != 1 || res.CrowdAttrs[0] != "romantic" {
		t.Errorf("crowd attrs = %v", res.CrowdAttrs)
	}
	var titles []string
	for _, row := range res.Rows {
		titles = append(titles, row[0])
	}
	if len(titles) != 2 || !contains(titles, "Blockbuster") || !contains(titles, "Romance") {
		t.Errorf("skyline titles = %v, want Blockbuster and Romance", titles)
	}
	// The latent column stays hidden.
	for _, col := range res.Columns {
		if strings.HasPrefix(col, "_") {
			t.Errorf("latent column leaked: %v", res.Columns)
		}
	}
	if res.Questions == 0 {
		t.Errorf("no crowd questions were asked for the crowd attribute")
	}
}

func TestExecuteSchedulingAndLimit(t *testing.T) {
	cat := MemCatalog{"movie_db": movieTable(t)}
	for _, sched := range []core.Schedule{core.Serial, core.ByDominatingSets, core.BySkylineLayers} {
		res, err := Run("SELECT * FROM movie_db SKYLINE OF box_office MAX, romantic MAX LIMIT 1",
			cat, ExecOptions{Options: core.Options{Schedule: sched}})
		if err != nil {
			t.Fatalf("scheduling %v: %v", sched, err)
		}
		if len(res.Rows) != 1 {
			t.Errorf("scheduling %v: LIMIT 1 returned %d rows", sched, len(res.Rows))
		}
	}
	if _, err := Run("SELECT * FROM movie_db SKYLINE OF box_office", cat, ExecOptions{Options: core.Options{Schedule: 9}}); err == nil {
		t.Errorf("bad scheduling accepted")
	}
}

func TestExecuteMachineOnly(t *testing.T) {
	// All skyline attributes stored: no crowd questions at all.
	cat := MemCatalog{"movie_db": movieTable(t)}
	res, err := Run("SELECT * FROM movie_db SKYLINE OF box_office MAX, year MAX", cat, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CrowdAttrs) != 0 {
		t.Errorf("crowd attrs = %v, want none", res.CrowdAttrs)
	}
	if res.Questions != 0 {
		t.Errorf("machine-only query asked %d questions", res.Questions)
	}
}

func TestExecuteErrors(t *testing.T) {
	cat := MemCatalog{"movie_db": movieTable(t)}
	cases := []string{
		"SELECT * FROM nope SKYLINE OF a",                               // unknown table
		"SELECT * FROM movie_db WHERE nope > 1 SKYLINE OF box_office",   // unknown where column
		"SELECT * FROM movie_db WHERE title > 1 SKYLINE OF box_office",  // type mismatch
		"SELECT * FROM movie_db WHERE year = 'x' SKYLINE OF box_office", // type mismatch
		"SELECT * FROM movie_db SKYLINE OF title",                       // non-numeric skyline attr
		"SELECT * FROM movie_db SKYLINE OF romantic MAX",                // no stored attribute at all
		"SELECT * FROM movie_db SKYLINE OF _romantic",                   // latent queried directly
		"SELECT * FROM movie_db WHERE _romantic > 1 SKYLINE OF year",    // latent filtered
		"SELECT * FROM movie_db SKYLINE OF box_office, mystery",         // crowd attr without latent or platform
	}
	for _, sql := range cases {
		if _, err := Run(sql, cat, ExecOptions{}); err == nil {
			t.Errorf("Run(%q) accepted", sql)
		}
	}
}

func TestDirCatalog(t *testing.T) {
	dir := t.TempDir()
	if err := writeFile(dir+"/films.csv", "title,score\nA,1\nB,2\n"); err != nil {
		t.Fatal(err)
	}
	cat := DirCatalog{Dir: dir}
	tbl, err := cat.Table("films")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 2 || !tbl.Column("score").IsNumeric() || tbl.Column("title").IsNumeric() {
		t.Errorf("table malformed: %+v", tbl)
	}
	if _, err := cat.Table("missing"); err == nil {
		t.Errorf("missing table accepted")
	}
	if _, err := cat.Table("../etc/passwd"); err == nil {
		t.Errorf("path traversal accepted")
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestSelectProjection(t *testing.T) {
	cat := MemCatalog{"movie_db": movieTable(t)}
	res, err := Run("SELECT title, year FROM movie_db SKYLINE OF box_office MAX, romantic MAX", cat, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "title" || res.Columns[1] != "year" {
		t.Errorf("columns = %v", res.Columns)
	}
	for _, row := range res.Rows {
		if len(row) != 2 {
			t.Errorf("row width = %d", len(row))
		}
	}
	// Projection errors.
	for _, sql := range []string{
		"SELECT nope FROM movie_db SKYLINE OF box_office",
		"SELECT _romantic FROM movie_db SKYLINE OF box_office",
		"SELECT title, title FROM movie_db SKYLINE OF box_office",
	} {
		if _, err := Run(sql, cat, ExecOptions{}); err == nil {
			t.Errorf("Run(%q) accepted", sql)
		}
	}
	// String renders the projection and re-parses.
	q, err := Parse("SELECT title, year FROM t SKYLINE OF a")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.String(), "SELECT title, year FROM t") {
		t.Errorf("String() = %q", q.String())
	}
	if _, err := Parse(q.String()); err != nil {
		t.Errorf("rendered projection does not re-parse: %v", err)
	}
}
