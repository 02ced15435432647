package types

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"gosrb/internal/traceid"
)

func TestOpError(t *testing.T) {
	err := E("get", "/a/b", ErrNotFound)
	if !errors.Is(err, ErrNotFound) {
		t.Error("errors.Is should see through OpError")
	}
	var oe *OpError
	if !errors.As(err, &oe) || oe.Op != "get" || oe.Path != "/a/b" {
		t.Errorf("errors.As failed: %+v", oe)
	}
	if got := err.Error(); got != "srb: get /a/b: not found" {
		t.Errorf("Error() = %q", got)
	}
	if E("x", "y", nil) != nil {
		t.Error("E(nil) should be nil")
	}
	if got := E("login", "", ErrAuth).Error(); got != "srb: login: authentication failed" {
		t.Errorf("pathless Error() = %q", got)
	}
}

func TestLockPinSession(t *testing.T) {
	now := time.Now()
	l := Lock{Kind: LockShared, Holder: "u", Expires: now.Add(time.Hour)}
	if !l.Active(now) {
		t.Error("lock should be active before expiry")
	}
	if l.Active(now.Add(2 * time.Hour)) {
		t.Error("lock should expire")
	}
	if (Lock{}).Active(now) {
		t.Error("zero lock should be inactive")
	}
	p := Pin{Resource: "r", Expires: now.Add(time.Minute)}
	if !p.Active(now) || p.Active(now.Add(time.Hour)) {
		t.Error("pin activity wrong")
	}
	s := Session{Key: "k", Expires: now.Add(time.Minute)}
	if !s.Valid(now) || s.Valid(now.Add(time.Hour)) {
		t.Error("session validity wrong")
	}
}

func TestCleanReplicaSelection(t *testing.T) {
	o := DataObject{Replicas: []Replica{
		{Number: 0, Resource: "a", Status: ReplicaOffline},
		{Number: 1, Resource: "b", Status: ReplicaClean},
		{Number: 2, Resource: "c", Status: ReplicaClean},
	}}
	r, ok := o.CleanReplica("")
	if !ok || r.Resource != "b" {
		t.Errorf("first clean replica = %+v", r)
	}
	r, ok = o.CleanReplica("c")
	if !ok || r.Resource != "c" {
		t.Errorf("preferred replica = %+v", r)
	}
	// Preferring an offline resource falls back to any clean one.
	r, ok = o.CleanReplica("a")
	if !ok || r.Resource != "b" {
		t.Errorf("fallback replica = %+v", r)
	}
	if _, ok := (&DataObject{}).CleanReplica(""); ok {
		t.Error("no replicas should report not found")
	}
	if rr, ok := o.ReplicaByNumber(2); !ok || rr.Resource != "c" {
		t.Error("ReplicaByNumber failed")
	}
	if _, ok := o.ReplicaByNumber(9); ok {
		t.Error("missing replica number should report false")
	}
}

func TestObjectPathAndUser(t *testing.T) {
	o := DataObject{Name: "f.txt", Collection: "/home/u"}
	if o.Path() != "/home/u/f.txt" {
		t.Errorf("Path = %q", o.Path())
	}
	u := User{Name: "sekar", Domain: "sdsc"}
	if u.Qualified() != "sekar@sdsc" {
		t.Errorf("Qualified = %q", u.Qualified())
	}
	c := Collection{Path: "/a/b"}
	if c.Name() != "b" {
		t.Errorf("collection Name = %q", c.Name())
	}
}

func TestStringers(t *testing.T) {
	if ReplicaDirty.String() != "dirty" || ReplicaStatus(9).String() == "" {
		t.Error("replica status names")
	}
	if LockExclusive.String() != "exclusive" || LockKind(9).String() == "" {
		t.Error("lock kind names")
	}
	if ResourceLogical.String() != "logical" || ResourcePhysical.String() != "physical" {
		t.Error("resource kind names")
	}
	if ClassArchive.String() != "archive" || ResourceClass(9).String() == "" {
		t.Error("resource class names")
	}
	if MetaAnnotation.String() != "annotation" || MetaClass(9).String() == "" {
		t.Error("meta class names")
	}
}

// TestAuditRecordTraceFormat: an audit record as it has always been
// written — its trace ID as 16 hex digits, or none — reads into the
// integer ID and writes back byte for byte.
func TestAuditRecordTraceFormat(t *testing.T) {
	for _, c := range []struct {
		line  string
		trace traceid.ID
	}{
		{`{"Time":"2002-07-24T09:00:00Z","User":"alice","Op":"get","Target":"/home/x","Detail":"","OK":true,"Trace":"89de7592be0f3b8c"}`, 0x89de7592be0f3b8c},
		{`{"Time":"2002-07-24T09:00:00Z","User":"admin","Op":"adduser","Target":"bob","Detail":"sdsc","OK":true}`, 0},
	} {
		var r AuditRecord
		if err := json.Unmarshal([]byte(c.line), &r); err != nil || r.Trace != c.trace {
			t.Fatalf("%s read as trace %s, %v", c.line, r.Trace, err)
		}
		if back, err := json.Marshal(r); err != nil || string(back) != c.line {
			t.Errorf("%s written back as %s, %v", c.line, back, err)
		}
	}
	var r AuditRecord
	if err := json.Unmarshal([]byte(`{"Trace":"t1"}`), &r); err == nil {
		t.Errorf("a malformed trace ID read as %s", r.Trace)
	}
}
