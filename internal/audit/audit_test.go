package audit

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gosrb/internal/types"
)

func TestRecordAndQuery(t *testing.T) {
	l := New(10)
	now := time.Unix(100, 0)
	l.SetClock(func() time.Time { return now })
	l.Op("alice", "get", "/c/f1", true, "")
	l.Op("bob", "ingest", "/c/f2", true, "")
	l.Op("alice", "delete", "/c/f1", false, "permission denied")

	if got := len(l.Query(Filter{User: "alice"})); got != 2 {
		t.Errorf("alice records = %d", got)
	}
	if got := len(l.Query(Filter{Op: "ingest"})); got != 1 {
		t.Errorf("ingest records = %d", got)
	}
	recs := l.Query(Filter{})
	if len(recs) != 3 || recs[0].Op != "get" || recs[2].OK {
		t.Errorf("all records = %+v", recs)
	}
	if recs[0].Time != now {
		t.Error("time should be stamped")
	}
}

func TestTargetSubtreeFilter(t *testing.T) {
	l := New(10)
	l.Op("u", "get", "/a/b/f", true, "")
	l.Op("u", "get", "/other/f", true, "")
	if got := len(l.Query(Filter{Target: "/a"})); got != 1 {
		t.Errorf("subtree filter = %d", got)
	}
	if got := len(l.Query(Filter{Target: "/a/b/f"})); got != 1 {
		t.Errorf("exact filter = %d", got)
	}
}

func TestTimeWindow(t *testing.T) {
	l := New(10)
	base := time.Unix(0, 0)
	for i := 0; i < 5; i++ {
		l.Record(types.AuditRecord{User: "u", Op: "op", Time: base.Add(time.Duration(i) * time.Hour)})
	}
	got := l.Query(Filter{Since: base.Add(time.Hour), Until: base.Add(3 * time.Hour)})
	if len(got) != 3 {
		t.Errorf("window = %d records", len(got))
	}
}

func TestRingDropsOldest(t *testing.T) {
	l := New(3)
	for i := 0; i < 5; i++ {
		l.Op("u", "op", fmt.Sprintf("/f%d", i), true, "")
	}
	if l.Len() != 3 {
		t.Errorf("Len = %d", l.Len())
	}
	if l.Dropped() != 2 {
		t.Errorf("Dropped = %d", l.Dropped())
	}
	recs := l.Query(Filter{})
	if recs[0].Target != "/f2" || recs[2].Target != "/f4" {
		t.Errorf("ring contents = %+v", recs)
	}
}

func TestConcurrentRecord(t *testing.T) {
	l := New(1000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Op("u", "op", "/t", true, "")
			}
		}()
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Errorf("Len = %d, want 800", l.Len())
	}
}

func TestDefaultCapacity(t *testing.T) {
	l := New(0)
	l.Op("u", "op", "/t", true, "")
	if l.Len() != 1 {
		t.Error("default-capacity log should accept records")
	}
}

// TestWraparoundAccounting walks the ring through several full
// wraparounds and checks the books stay exact: every displaced record
// is counted, the survivors are the newest capacity records in append
// order, and Len never exceeds the bound.
func TestWraparoundAccounting(t *testing.T) {
	const capacity = 4
	l := New(capacity)
	const total = capacity*3 + 2 // three full wraps plus a partial
	for i := 0; i < total; i++ {
		l.Op("u", "op", fmt.Sprintf("/f%d", i), true, "")
		if l.Len() > capacity {
			t.Fatalf("Len = %d exceeds capacity %d", l.Len(), capacity)
		}
		wantDropped := int64(i + 1 - capacity)
		if wantDropped < 0 {
			wantDropped = 0
		}
		if l.Dropped() != wantDropped {
			t.Fatalf("after %d records Dropped = %d, want %d", i+1, l.Dropped(), wantDropped)
		}
	}
	recs := l.Query(Filter{})
	if len(recs) != capacity {
		t.Fatalf("Query returned %d records, want %d", len(recs), capacity)
	}
	for i, r := range recs {
		want := fmt.Sprintf("/f%d", total-capacity+i)
		if r.Target != want {
			t.Errorf("recs[%d] = %s, want %s", i, r.Target, want)
		}
	}
	// Dropped plus retained must equal everything ever recorded.
	if l.Dropped()+int64(l.Len()) != int64(total) {
		t.Errorf("dropped %d + len %d != total %d", l.Dropped(), l.Len(), total)
	}
}

var sink *Log

// TestNewAllocatesNoRecords: a log costs its header until records
// arrive, then one block at a time — never the whole capacity up front.
func TestNewAllocatesNoRecords(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { sink = New(0) }); n != 1 {
		t.Errorf("New(0) made %v allocations, want 1 (the Log itself)", n)
	}
	l := New(0)
	if len(l.blocks) != 0 {
		t.Fatalf("New(0) holds %d record blocks, want 0", len(l.blocks))
	}
	l.Op("u", "op", "/t", true, "")
	if len(l.blocks) != 1 || len(l.blocks[0]) != blockSize {
		t.Fatalf("after one record: %d blocks (first %d records), want 1 of %d", len(l.blocks), len(l.blocks[0]), blockSize)
	}
	for i := 1; i <= blockSize; i++ {
		l.Op("u", "op", "/t", true, "")
	}
	if len(l.blocks) != 2 {
		t.Errorf("after %d records: %d blocks, want 2", blockSize+1, len(l.blocks))
	}
}

// TestWrapAcrossPartialBlock walks a ring whose capacity is not a
// multiple of the block size (so its last block is short) through two
// wraps: the survivors are the newest capacity records in append order
// and every displaced one is counted.
func TestWrapAcrossPartialBlock(t *testing.T) {
	const capacity = 2*blockSize + 3
	l := New(capacity)
	const total = 2*capacity + 5
	for i := 0; i < total; i++ {
		l.Op("u", "op", fmt.Sprintf("/f%d", i), true, "")
	}
	if l.Len() != capacity || l.Dropped() != total-capacity {
		t.Fatalf("Len = %d, Dropped = %d; want %d, %d", l.Len(), l.Dropped(), capacity, total-capacity)
	}
	if len(l.blocks) != 3 || len(l.blocks[2]) != 3 {
		t.Errorf("blocks = %d (last holds %d), want 3 with the last holding 3", len(l.blocks), len(l.blocks[len(l.blocks)-1]))
	}
	recs := l.Query(Filter{})
	if len(recs) != capacity {
		t.Fatalf("Query returned %d records, want %d", len(recs), capacity)
	}
	for i, r := range recs {
		if want := fmt.Sprintf("/f%d", total-capacity+i); r.Target != want {
			t.Fatalf("recs[%d] = %s, want %s", i, r.Target, want)
		}
	}
}
