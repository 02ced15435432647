package daemon

import (
	"testing"

	"gosrb/internal/types"
)

func TestBuildDriver(t *testing.T) {
	cases := []struct {
		spec   string
		class  types.ResourceClass
		driver string
	}{
		{"disk1=posixfs:" + t.TempDir(), types.ClassFileSystem, "posixfs"},
		{"cache=memfs:", types.ClassCache, "memfs"},
		{"cache2=memfs", types.ClassCache, "memfs"},
		{"tape=archivefs:50ms", types.ClassArchive, "archivefs"},
		{"tape2=archivefs:", types.ClassArchive, "archivefs"},
		{"db=dbfs:", types.ClassDatabase, "dbfs"},
	}
	for _, c := range cases {
		name, d, class, driver, err := buildDriver(c.spec)
		if err != nil {
			t.Errorf("buildDriver(%q): %v", c.spec, err)
			continue
		}
		if d == nil || class != c.class || driver != c.driver || name == "" {
			t.Errorf("buildDriver(%q) = %q %v %q", c.spec, name, class, driver)
		}
	}
	for _, bad := range []string{
		"noequals",
		"x=unknown:arg",
		"x=posixfs:", // posixfs needs a root
		"x=archivefs:notaduration",
	} {
		if _, _, _, _, err := buildDriver(bad); err == nil {
			t.Errorf("buildDriver(%q) should fail", bad)
		}
	}
}
