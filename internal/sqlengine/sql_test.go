package sqlengine

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// seed builds the demo database used across tests: a digital-library
// style pair of tables.
func seed(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	mustExec(t, db, "CREATE TABLE images (id, name, survey, mag, band)")
	mustExec(t, db, `INSERT INTO images VALUES
		(1, 'm31.fits', '2mass', 3.4, 'J'),
		(2, 'm42.fits', '2mass', 4.0, 'K'),
		(3, 'ngc253.fits', 'dposs', 7.1, 'J'),
		(4, 'm51.fits', 'dposs', 8.4, 'H'),
		(5, 'unnamed.fits', '2mass', NULL, 'J')`)
	mustExec(t, db, "CREATE TABLE surveys (survey, telescope)")
	mustExec(t, db, `INSERT INTO surveys VALUES ('2mass', 'Mt Hopkins'), ('dposs', 'Palomar')`)
	return db
}

func mustExec(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%s): %v", sql, err)
	}
	return res
}

func TestSelectStar(t *testing.T) {
	db := seed(t)
	res := mustExec(t, db, "SELECT * FROM images")
	if len(res.Columns) != 5 || len(res.Rows) != 5 {
		t.Fatalf("got %d cols %d rows", len(res.Columns), len(res.Rows))
	}
	if res.Columns[1] != "name" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestWhereComparisons(t *testing.T) {
	db := seed(t)
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT id FROM images WHERE survey = '2mass'", 3},
		{"SELECT id FROM images WHERE survey <> '2mass'", 2},
		{"SELECT id FROM images WHERE mag > 4.0", 2},
		{"SELECT id FROM images WHERE mag >= 4.0", 3},
		{"SELECT id FROM images WHERE mag < 4.0", 1},
		{"SELECT id FROM images WHERE mag <= 4.0", 2},
		{"SELECT id FROM images WHERE name LIKE 'm%.fits'", 3},
		{"SELECT id FROM images WHERE name NOT LIKE 'm%'", 2},
		{"SELECT id FROM images WHERE band IN ('J', 'H')", 4},
		{"SELECT id FROM images WHERE band NOT IN ('J')", 2},
		{"SELECT id FROM images WHERE mag IS NULL", 1},
		{"SELECT id FROM images WHERE mag IS NOT NULL", 4},
		{"SELECT id FROM images WHERE mag BETWEEN 4 AND 8", 2},
		{"SELECT id FROM images WHERE survey = '2mass' AND band = 'J'", 2},
		{"SELECT id FROM images WHERE survey = 'dposs' OR band = 'K'", 3},
		{"SELECT id FROM images WHERE NOT survey = '2mass'", 2},
		{"SELECT id FROM images WHERE (survey = '2mass' OR survey = 'dposs') AND mag > 7", 2},
	}
	for _, c := range cases {
		res := mustExec(t, db, c.sql)
		if len(res.Rows) != c.want {
			t.Errorf("%s: got %d rows, want %d", c.sql, len(res.Rows), c.want)
		}
	}
}

func TestNullComparisonsAreFalse(t *testing.T) {
	db := seed(t)
	// SQL semantics: NULL never compares true, even with = or <>.
	for _, sql := range []string{
		"SELECT id FROM images WHERE mag = NULL",
		"SELECT id FROM images WHERE mag <> NULL",
		"SELECT id FROM images WHERE mag > NULL",
	} {
		if res := mustExec(t, db, sql); len(res.Rows) != 0 {
			t.Errorf("%s: got %d rows, want 0", sql, len(res.Rows))
		}
	}
}

func TestProjectionAndAlias(t *testing.T) {
	db := seed(t)
	res := mustExec(t, db, "SELECT name AS file, mag brightness FROM images WHERE id = 1")
	if res.Columns[0] != "file" || res.Columns[1] != "brightness" {
		t.Errorf("columns = %v", res.Columns)
	}
	if res.Rows[0][0].Text() != "m31.fits" {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestOrderByLimit(t *testing.T) {
	db := seed(t)
	res := mustExec(t, db, "SELECT name, mag FROM images WHERE mag IS NOT NULL ORDER BY mag DESC LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].Text() != "m51.fits" || res.Rows[1][0].Text() != "ngc253.fits" {
		t.Errorf("order = %v %v", res.Rows[0], res.Rows[1])
	}
	asc := mustExec(t, db, "SELECT name FROM images ORDER BY name")
	for i := 1; i < len(asc.Rows); i++ {
		if strings.Compare(asc.Rows[i-1][0].Text(), asc.Rows[i][0].Text()) > 0 {
			t.Errorf("not sorted: %v", asc.Rows)
		}
	}
}

func TestAggregates(t *testing.T) {
	db := seed(t)
	res := mustExec(t, db, "SELECT COUNT(*), COUNT(mag), SUM(mag), MIN(mag), MAX(mag) FROM images")
	row := res.Rows[0]
	if row[0].Float() != 5 || row[1].Float() != 4 {
		t.Errorf("counts = %v", row)
	}
	if row[2].Float() != 22.9 || row[3].Float() != 3.4 || row[4].Float() != 8.4 {
		t.Errorf("sum/min/max = %v", row)
	}
	avg := mustExec(t, db, "SELECT AVG(mag) FROM images WHERE survey = 'dposs'")
	if got := avg.Rows[0][0].Float(); got != 7.75 {
		t.Errorf("avg = %v", got)
	}
}

func TestGroupBy(t *testing.T) {
	db := seed(t)
	res := mustExec(t, db, "SELECT survey, COUNT(*) AS n FROM images GROUP BY survey ORDER BY survey")
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	if res.Rows[0][0].Text() != "2mass" || res.Rows[0][1].Float() != 3 {
		t.Errorf("group row = %v", res.Rows[0])
	}
	if res.Rows[1][0].Text() != "dposs" || res.Rows[1][1].Float() != 2 {
		t.Errorf("group row = %v", res.Rows[1])
	}
}

func TestJoin(t *testing.T) {
	db := seed(t)
	res := mustExec(t, db,
		"SELECT images.name, surveys.telescope FROM images JOIN surveys ON images.survey = surveys.survey WHERE images.id = 3")
	if len(res.Rows) != 1 || res.Rows[0][1].Text() != "Palomar" {
		t.Errorf("join = %+v", res.Rows)
	}
	// implicit cross join with WHERE behaves identically
	res2 := mustExec(t, db,
		"SELECT i.name, s.telescope FROM images i, surveys s WHERE i.survey = s.survey AND i.id = 3")
	if len(res2.Rows) != 1 || res2.Rows[0][1].Text() != "Palomar" {
		t.Errorf("cross join = %+v", res2.Rows)
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := seed(t)
	_, err := db.Exec("SELECT survey FROM images, surveys")
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("expected ambiguity error, got %v", err)
	}
}

func TestUnion(t *testing.T) {
	db := seed(t)
	res := mustExec(t, db,
		"SELECT survey FROM images WHERE band = 'J' UNION SELECT survey FROM images WHERE band = 'K'")
	if len(res.Rows) != 2 { // deduped: 2mass, dposs
		t.Errorf("UNION rows = %d: %v", len(res.Rows), res.Rows)
	}
	all := mustExec(t, db,
		"SELECT survey FROM images WHERE band = 'J' UNION ALL SELECT survey FROM images WHERE band = 'K'")
	if len(all.Rows) != 4 {
		t.Errorf("UNION ALL rows = %d", len(all.Rows))
	}
	if _, err := db.Exec("SELECT id, name FROM images UNION SELECT id FROM images"); err == nil {
		t.Error("column count mismatch should fail")
	}
}

func TestDistinct(t *testing.T) {
	db := seed(t)
	res := mustExec(t, db, "SELECT DISTINCT survey FROM images")
	if len(res.Rows) != 2 {
		t.Errorf("DISTINCT rows = %d", len(res.Rows))
	}
}

func TestInsertWithColumnsAndDelete(t *testing.T) {
	db := seed(t)
	mustExec(t, db, "INSERT INTO images (id, name) VALUES (6, 'new.fits')")
	res := mustExec(t, db, "SELECT survey FROM images WHERE id = 6")
	if !res.Rows[0][0].IsNull() {
		t.Errorf("unlisted column should be NULL: %v", res.Rows[0])
	}
	del := mustExec(t, db, "DELETE FROM images WHERE survey = 'dposs'")
	if del.Rows[0][0].Float() != 2 {
		t.Errorf("deleted = %v", del.Rows[0])
	}
	left := mustExec(t, db, "SELECT COUNT(*) FROM images")
	if left.Rows[0][0].Float() != 4 {
		t.Errorf("remaining = %v", left.Rows[0])
	}
	all := mustExec(t, db, "DELETE FROM images")
	if all.Rows[0][0].Float() != 4 {
		t.Errorf("delete all = %v", all.Rows[0])
	}
}

func TestDropTable(t *testing.T) {
	db := seed(t)
	mustExec(t, db, "DROP TABLE surveys")
	if _, err := db.Exec("SELECT * FROM surveys"); err == nil {
		t.Error("dropped table should not resolve")
	}
	if _, err := db.Exec("DROP TABLE surveys"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestStringEscapes(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE q (s)")
	mustExec(t, db, "INSERT INTO q VALUES ('it''s')")
	res := mustExec(t, db, "SELECT s FROM q WHERE s = 'it''s'")
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "it's" {
		t.Errorf("escape = %+v", res.Rows)
	}
}

func TestParseErrors(t *testing.T) {
	db := seed(t)
	for _, bad := range []string{
		"",
		"SELEC * FROM images",
		"SELECT FROM images",
		"SELECT * FROM",
		"SELECT * FROM images WHERE",
		"SELECT * FROM images LIMIT x",
		"SELECT * FROM images; extra",
		"INSERT INTO images VALUES (1",
		"SELECT 'unterminated FROM images",
		"SELECT * FROM images WHERE name ~ 'x'",
	} {
		if _, err := db.Exec(bad); err == nil {
			t.Errorf("Exec(%q) should fail", bad)
		}
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	db := NewDB()
	res := mustExec(t, db, "SELECT 1, 'two'")
	if res.Rows[0][0].Float() != 1 || res.Rows[0][1].Text() != "two" {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "", false},
		{"", "%", true},
		{"HELLO", "hello", true}, // case-insensitive
		{"abc", "a%b%c", true},
		{"abc", "%%%", true},
		{"ab", "a_", true},
		{"ab", "_", false},
	}
	for _, c := range cases {
		if got := Like(c.s, c.p); got != c.want {
			t.Errorf("Like(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// TestLikeManyWildcardsIsBounded: LIKE costs at most len(s)·len(p)
// however many % the pattern has. A matcher that retries every earlier %
// on a mismatch needs seconds at nine groups and does not finish this.
func TestLikeManyWildcardsIsBounded(t *testing.T) {
	pattern := strings.Repeat("%a", 12) + "%b"
	value := strings.Repeat("a", 4096)
	start := time.Now()
	if Like(value, pattern) {
		t.Fatal("matched a value with no b")
	}
	if !Like(value+"B", pattern) {
		t.Fatal("did not match the value with a trailing b")
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("12 %%-groups against 4 KiB took %v, want < 50ms", d)
	}
}

func TestCompareOrdering(t *testing.T) {
	if Compare(Null(), Int(0)) != -1 || Compare(Int(0), Null()) != 1 {
		t.Error("NULL should sort lowest")
	}
	if Compare(Int(2), Int(10)) != -1 {
		t.Error("numeric compare")
	}
	if Compare(String("2"), Int(10)) != -1 {
		t.Error("mixed numeric-looking compare should be numeric")
	}
	if Compare(String("b"), String("a")) != 1 {
		t.Error("string compare")
	}
	if Equal(Null(), Null()) {
		t.Error("NULL = NULL must be false")
	}
}

func TestValueText(t *testing.T) {
	if Int(42).Text() != "42" {
		t.Errorf("int text = %q", Int(42).Text())
	}
	if Number(2.5).Text() != "2.5" {
		t.Errorf("float text = %q", Number(2.5).Text())
	}
	if Null().String() != "NULL" {
		t.Errorf("null string = %q", Null().String())
	}
}

func TestResultFormat(t *testing.T) {
	db := seed(t)
	res := mustExec(t, db, "SELECT name, mag FROM images WHERE id = 1")
	out := res.Format()
	if !strings.Contains(out, "name") || !strings.Contains(out, "m31.fits") {
		t.Errorf("Format = %q", out)
	}
}

// Property: Compare is a valid ordering — antisymmetric and reflexive.
func TestComparePropertie(t *testing.T) {
	mk := func(kind uint8, n float64, s string) Value {
		switch kind % 3 {
		case 0:
			return Null()
		case 1:
			return Number(n)
		default:
			return String(s)
		}
	}
	f := func(k1, k2 uint8, n1, n2 float64, s1, s2 string) bool {
		a, b := mk(k1, n1, s1), mk(k2, n2, s2)
		if Compare(a, a) != 0 || Compare(b, b) != 0 {
			return false
		}
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Like(s, s) holds for any pattern-free string.
func TestLikeReflexive(t *testing.T) {
	f := func(s string) bool {
		if strings.ContainsAny(s, "%_") {
			return true
		}
		return Like(s, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE c (n)")
	done := make(chan error, 8)
	for w := 0; w < 4; w++ {
		go func(w int) {
			var err error
			for i := 0; i < 50; i++ {
				err = db.Insert("c", Row{Int(int64(w*100 + i))})
				if err != nil {
					break
				}
			}
			done <- err
		}(w)
	}
	for r := 0; r < 4; r++ {
		go func() {
			var err error
			for i := 0; i < 50; i++ {
				_, err = db.Exec("SELECT COUNT(*) FROM c")
				if err != nil {
					break
				}
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	res := mustExec(t, db, "SELECT COUNT(*) FROM c")
	if res.Rows[0][0].Float() != 200 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestSignedNumericLiterals(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE m (name, mag)")
	mustExec(t, db, "INSERT INTO m VALUES ('sirius', -1.46), ('vega', 0.03), ('sun', -26.7)")
	res := mustExec(t, db, "SELECT name FROM m WHERE mag < -1")
	if len(res.Rows) != 2 {
		t.Errorf("negative comparison hits = %d", len(res.Rows))
	}
	res = mustExec(t, db, "SELECT name FROM m WHERE mag BETWEEN -2 AND +1 ORDER BY name")
	if len(res.Rows) != 2 || res.Rows[0][0].Text() != "sirius" {
		t.Errorf("BETWEEN negatives = %+v", res.Rows)
	}
	res = mustExec(t, db, "SELECT MIN(mag), MAX(mag) FROM m")
	if res.Rows[0][0].Float() != -26.7 || res.Rows[0][1].Float() != 0.03 {
		t.Errorf("min/max with negatives = %v", res.Rows[0])
	}
	// A dangling sign is a parse error.
	if _, err := db.Exec("SELECT name FROM m WHERE mag < -"); err == nil {
		t.Error("dangling sign should fail")
	}
}

func TestOrderByDescWithNegatives(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE m (v)")
	mustExec(t, db, "INSERT INTO m VALUES (-3), (5), (-1), (0)")
	res := mustExec(t, db, "SELECT v FROM m ORDER BY v DESC")
	want := []float64{5, 0, -1, -3}
	for i, w := range want {
		if res.Rows[i][0].Float() != w {
			t.Fatalf("order = %+v", res.Rows)
		}
	}
}
