package daemon

import (
	"testing"

	"gosrb/internal/core"
	"gosrb/internal/mcat"
)

func TestMountResource(t *testing.T) {
	cat := mcat.New("admin", "local")
	b := core.New(cat, "mysrb")
	cases := []string{
		"disk=posixfs:" + t.TempDir(),
		"cache=memfs:",
		"tape=archivefs:25ms",
		"db=dbfs:",
	}
	for _, spec := range cases {
		if err := mountResource(b, "admin", spec); err != nil {
			t.Errorf("mountResource(%q): %v", spec, err)
		}
	}
	if got := len(cat.Resources()); got != len(cases) {
		t.Errorf("resources registered = %d, want %d", got, len(cases))
	}
	for _, bad := range []string{"nope", "x=ghostfs:", "y=archivefs:badduration"} {
		if err := mountResource(b, "admin", bad); err == nil {
			t.Errorf("mountResource(%q) should fail", bad)
		}
	}
	// Drivers actually attached.
	if _, err := b.Driver("cache"); err != nil {
		t.Errorf("driver lookup: %v", err)
	}
	if _, err := b.Database("db"); err != nil {
		t.Errorf("database lookup: %v", err)
	}
}
