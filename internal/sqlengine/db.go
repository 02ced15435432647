package sqlengine

import (
	"fmt"
	"sync"
)

// Table is a named relation.
type Table struct {
	Name    string
	Columns []string
	Rows    []Row
}

// DB is an in-memory relational database, safe for concurrent use.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// CreateTable registers an empty table, failing on duplicates.
func (db *DB) CreateTable(name string, columns []string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return fmt.Errorf("sql: table %q already exists", name)
	}
	db.tables[name] = &Table{Name: name, Columns: append([]string(nil), columns...)}
	return nil
}

// DropTable removes a table.
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; !ok {
		return fmt.Errorf("sql: table %q does not exist", name)
	}
	delete(db.tables, name)
	return nil
}

// Insert appends a row; its length must match the table's columns.
func (db *DB) Insert(name string, row Row) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[name]
	if !ok {
		return fmt.Errorf("sql: table %q does not exist", name)
	}
	if len(row) != len(t.Columns) {
		return fmt.Errorf("sql: table %q has %d columns, got %d values", name, len(t.Columns), len(row))
	}
	t.Rows = append(t.Rows, append(Row(nil), row...))
	return nil
}

// snapshot returns the table under the read lock, copied shallowly so
// the executor works on a stable row slice.
func (db *DB) snapshot(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("sql: table %q does not exist", name)
	}
	return &Table{Name: t.Name, Columns: t.Columns, Rows: t.Rows}, nil
}

// Exec parses and executes one statement. SELECT returns a Result;
// other statements return a Result with a single "rows" count column.
func (db *DB) Exec(src string) (*Result, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *SelectStmt:
		return db.execSelect(s)
	case *CreateStmt:
		if err := db.CreateTable(s.Table, s.Columns); err != nil {
			return nil, err
		}
		return affected(0), nil
	case *DropStmt:
		if err := db.DropTable(s.Table); err != nil {
			return nil, err
		}
		return affected(0), nil
	case *InsertStmt:
		return db.execInsert(s)
	case *DeleteStmt:
		return db.execDelete(s)
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", st)
	}
}

func affected(n int) *Result {
	return &Result{Columns: []string{"rows"}, Rows: []Row{{Int(int64(n))}}}
}

func (db *DB) execInsert(s *InsertStmt) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("sql: table %q does not exist", s.Table)
	}
	colIdx := make([]int, 0, len(t.Columns))
	if len(s.Columns) == 0 {
		for i := range t.Columns {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, c := range s.Columns {
			found := -1
			for i, tc := range t.Columns {
				if tc == c {
					found = i
					break
				}
			}
			if found < 0 {
				return nil, fmt.Errorf("sql: no column %q in table %q", c, s.Table)
			}
			colIdx = append(colIdx, found)
		}
	}
	n := 0
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(colIdx) {
			return nil, fmt.Errorf("sql: INSERT expects %d values, got %d", len(colIdx), len(exprRow))
		}
		row := make(Row, len(t.Columns))
		for i := range row {
			row[i] = Null()
		}
		for i, e := range exprRow {
			lit, ok := e.(*Literal)
			if !ok {
				return nil, fmt.Errorf("sql: INSERT values must be literals")
			}
			row[colIdx[i]] = lit.Val
		}
		t.Rows = append(t.Rows, row)
		n++
	}
	return affected(n), nil
}

func (db *DB) execDelete(s *DeleteStmt) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("sql: table %q does not exist", s.Table)
	}
	scope := newScope()
	scope.add(s.Table, s.Table, t.Columns)
	kept := t.Rows[:0:0]
	n := 0
	for _, row := range t.Rows {
		if s.Where != nil {
			v, err := eval(s.Where, scope, row)
			if err != nil {
				return nil, err
			}
			if v.Truth() {
				n++
				continue
			}
		} else {
			n++
			continue
		}
		kept = append(kept, row)
	}
	t.Rows = kept
	return affected(n), nil
}
