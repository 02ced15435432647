package mysrb

import (
	"bytes"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/auth"
	"gosrb/internal/core"
	"gosrb/internal/mcat"
	"gosrb/internal/obs"
	"gosrb/internal/storage"
	"gosrb/internal/storage/dbfs"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
)

// rig is a MySRB instance over a one-server grid plus a logged-in
// cookie jar client.
type rig struct {
	t      *testing.T
	app    *App
	broker *core.Broker
	authn  *auth.Authenticator
	srv    *httptest.Server
	jar    http.CookieJar
	http   *http.Client
}

func newRig(t *testing.T) *rig {
	t.Helper()
	cat := mcat.New("admin", "sdsc")
	cat.AddUser(types.User{Name: "curator", Domain: "sdsc"})
	cat.MkColl("/cultures", "curator")
	b := core.New(cat, "srb1")
	if err := b.AddPhysicalResource("admin", "disk1", types.ClassFileSystem, "memfs", memfs.New()); err != nil {
		t.Fatal(err)
	}
	authn := auth.New()
	authn.Register("curator", "pw")
	app := New(b, authn)
	srv := httptest.NewServer(app)
	t.Cleanup(srv.Close)
	jar := newJar()
	return &rig{
		t: t, app: app, broker: b, authn: authn, srv: srv, jar: jar,
		http: &http.Client{Jar: jar},
	}
}

// newJar is a minimal cookie jar.
func newJar() http.CookieJar {
	return &jar{cookies: map[string][]*http.Cookie{}}
}

type jar struct{ cookies map[string][]*http.Cookie }

func (j *jar) SetCookies(u *url.URL, cs []*http.Cookie) { j.cookies[u.Host] = cs }
func (j *jar) Cookies(u *url.URL) []*http.Cookie        { return j.cookies[u.Host] }

func (r *rig) login(user, pw string) *http.Response {
	r.t.Helper()
	resp, err := r.http.PostForm(r.srv.URL+"/login", url.Values{"user": {user}, "password": {pw}})
	if err != nil {
		r.t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func (r *rig) get(path string) (string, int) {
	r.t.Helper()
	resp, err := r.http.Get(r.srv.URL + path)
	if err != nil {
		r.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return string(body), resp.StatusCode
}

func (r *rig) post(path string, form url.Values) (string, int) {
	r.t.Helper()
	resp, err := r.http.PostForm(r.srv.URL+path, form)
	if err != nil {
		r.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return string(body), resp.StatusCode
}

func TestLoginFlow(t *testing.T) {
	r := newRig(t)
	// Unauthenticated requests land on the login page.
	body, _ := r.get("/browse?path=/")
	if !strings.Contains(body, "MySRB") || !strings.Contains(body, "password") {
		t.Errorf("expected login page, got:\n%s", body[:min(200, len(body))])
	}
	// Bad password bounces back with an error.
	r.login("curator", "wrong")
	body, _ = r.get("/browse?path=/")
	if !strings.Contains(body, "password") {
		t.Error("bad login should not create a session")
	}
	// Good login reaches the browser.
	r.login("curator", "pw")
	body, _ = r.get("/browse?path=/")
	if !strings.Contains(body, "user: curator") {
		t.Errorf("expected browse page:\n%s", body[:min(300, len(body))])
	}
}

func TestSessionExpiry(t *testing.T) {
	r := newRig(t)
	now := time.Now()
	r.authn.SetClock(func() time.Time { return now })
	r.login("curator", "pw")
	if body, _ := r.get("/browse?path=/"); !strings.Contains(body, "user: curator") {
		t.Fatal("login failed")
	}
	// Sessions hit the paper's 60-minute limit.
	now = now.Add(61 * time.Minute)
	if body, _ := r.get("/browse?path=/"); !strings.Contains(body, "password") {
		t.Error("expired session should bounce to login")
	}
}

func TestMkCollAndBrowse(t *testing.T) {
	r := newRig(t)
	r.login("curator", "pw")
	r.post("/mkcoll", url.Values{"parent": {"/cultures"}, "name": {"Avian Culture"}})
	body, _ := r.get("/browse?path=/cultures")
	if !strings.Contains(body, "/cultures/Avian Culture") {
		t.Errorf("new collection missing from listing:\n%s", body)
	}
}

// multipartIngest posts a file through the ingest form.
func (r *rig) multipartIngest(coll, name, resource string, contents []byte, extra map[string]string) (string, int) {
	r.t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, _ := mw.CreateFormFile("file", name)
	fw.Write(contents)
	mw.WriteField("resource", resource)
	mw.WriteField("datatype", "generic")
	for k, v := range extra {
		mw.WriteField(k, v)
	}
	mw.Close()
	req, _ := http.NewRequest(http.MethodPost, r.srv.URL+"/ingest?path="+url.QueryEscape(coll), &buf)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	resp, err := r.http.Do(req)
	if err != nil {
		r.t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b), resp.StatusCode
}

func TestIngestOpenAnnotate(t *testing.T) {
	r := newRig(t)
	r.login("curator", "pw")
	r.multipartIngest("/cultures", "finch.txt", "disk1", []byte("zebra finch notes"), map[string]string{
		"meta-name-0": "species", "meta-value-0": "taeniopygia guttata",
	})
	// Object exists with metadata.
	o, err := r.broker.Cat.GetObject("/cultures/finch.txt")
	if err != nil || o.Size != 17 {
		t.Fatalf("ingested object = %+v, %v", o, err)
	}
	// Open shows contents and metadata in the split window.
	body, _ := r.get("/open?path=/cultures/finch.txt")
	if !strings.Contains(body, "zebra finch notes") {
		t.Errorf("contents missing:\n%s", body)
	}
	if !strings.Contains(body, "taeniopygia guttata") || !strings.Contains(body, "sys:size") {
		t.Errorf("metadata pane missing attributes:\n%s", body)
	}
	// Annotate through the form; it appears on reopen.
	r.post("/annotate", url.Values{"path": {"/cultures/finch.txt"}, "kind": {"comment"}, "text": {"lovely bird"}})
	body, _ = r.get("/open?path=/cultures/finch.txt")
	if !strings.Contains(body, "lovely bird") {
		t.Errorf("annotation missing:\n%s", body)
	}
	// Raw download.
	body, code := r.get("/raw?path=/cultures/finch.txt")
	if code != http.StatusOK || body != "zebra finch notes" {
		t.Errorf("raw = %q (%d)", body, code)
	}
}

func TestIngestMandatoryMetadata(t *testing.T) {
	r := newRig(t)
	r.login("curator", "pw")
	r.broker.Cat.SetStructural("/cultures", types.StructuralAttr{Name: "culture-core", Mandatory: true})
	// Missing mandatory attribute bounces with an error notice.
	body, _ := r.multipartIngest("/cultures", "x.txt", "disk1", []byte("x"), nil)
	_ = body
	if _, err := r.broker.Cat.GetObject("/cultures/x.txt"); err == nil {
		t.Error("ingest without mandatory metadata should fail")
	}
	// Supplying it through the structural form field succeeds.
	r.multipartIngest("/cultures", "x.txt", "disk1", []byte("x"), map[string]string{"attr:culture-core": "avian"})
	if _, err := r.broker.Cat.GetObject("/cultures/x.txt"); err != nil {
		t.Errorf("ingest with mandatory metadata: %v", err)
	}
	// The ingest form shows the requirement.
	form, _ := r.get("/ingest?path=/cultures")
	if !strings.Contains(form, "culture-core") || !strings.Contains(form, "(required)") {
		t.Errorf("form missing structural attr:\n%s", form)
	}
}

func TestQueryBuilder(t *testing.T) {
	r := newRig(t)
	r.login("curator", "pw")
	for i, species := range []string{"finch", "sparrow", "finch"} {
		r.multipartIngest("/cultures", "b"+string(rune('0'+i))+".txt", "disk1", []byte("x"), map[string]string{
			"meta-name-0": "species", "meta-value-0": species,
		})
	}
	// The form offers the attribute drop-down.
	form, _ := r.get("/query?path=/cultures")
	if !strings.Contains(form, "species") || !strings.Contains(form, "not like") {
		t.Errorf("query form incomplete:\n%s", form)
	}
	// Conjunctive query with a shown column.
	body, _ := r.post("/query?path=/cultures", url.Values{
		"attr-0": {"species"}, "op-0": {"="}, "val-0": {"finch"}, "show-0": {"1"},
	})
	if !strings.Contains(body, "2 matching objects") {
		t.Errorf("query results:\n%s", body)
	}
	if !strings.Contains(body, "/cultures/b0.txt") || strings.Contains(body, "/cultures/b1.txt") {
		t.Errorf("wrong hits:\n%s", body)
	}
}

func TestACLPage(t *testing.T) {
	r := newRig(t)
	r.broker.Cat.AddUser(types.User{Name: "public-user", Domain: "x"})
	r.login("curator", "pw")
	r.multipartIngest("/cultures", "f.txt", "disk1", []byte("x"), nil)
	r.post("/acl?path=/cultures/f.txt", url.Values{"grantee": {"public-user"}, "level": {"read"}})
	if got := r.broker.Cat.EffectiveLevel("/cultures/f.txt", "public-user"); got != acl.Read {
		t.Errorf("grant via web = %v", got)
	}
	body, _ := r.get("/acl?path=/cultures/f.txt")
	if !strings.Contains(body, "public-user") || !strings.Contains(body, "read") {
		t.Errorf("acl page:\n%s", body)
	}
}

func TestOpsViaWeb(t *testing.T) {
	r := newRig(t)
	r.login("curator", "pw")
	r.multipartIngest("/cultures", "f.txt", "disk1", []byte("x"), nil)
	// Lock then unlock through the split-window buttons.
	r.post("/op", url.Values{"path": {"/cultures/f.txt"}, "op": {"lock"}, "kind": {"shared"}})
	o, _ := r.broker.Cat.GetObject("/cultures/f.txt")
	if o.Lock.Kind != types.LockShared {
		t.Errorf("lock via web = %+v", o.Lock)
	}
	r.post("/op", url.Values{"path": {"/cultures/f.txt"}, "op": {"unlock"}})
	o, _ = r.broker.Cat.GetObject("/cultures/f.txt")
	if o.Lock.Kind != types.LockNone {
		t.Error("unlock via web failed")
	}
	// Move.
	r.post("/mkcoll", url.Values{"parent": {"/cultures"}, "name": {"sub"}})
	r.post("/op", url.Values{"path": {"/cultures/f.txt"}, "op": {"move"}, "to": {"/cultures/sub/f.txt"}})
	if _, err := r.broker.Cat.GetObject("/cultures/sub/f.txt"); err != nil {
		t.Errorf("move via web: %v", err)
	}
	// Delete.
	r.post("/op", url.Values{"path": {"/cultures/sub/f.txt"}, "op": {"delete"}})
	if _, err := r.broker.Cat.GetObject("/cultures/sub/f.txt"); err == nil {
		t.Error("delete via web failed")
	}
}

func TestMetaFormsAndExtraction(t *testing.T) {
	r := newRig(t)
	r.login("curator", "pw")
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, _ := mw.CreateFormFile("file", "img.fits")
	fw.Write([]byte("OBJECT  = 'M31'\nEND\n"))
	mw.WriteField("resource", "disk1")
	mw.WriteField("datatype", "fits image")
	mw.Close()
	req, _ := http.NewRequest(http.MethodPost, r.srv.URL+"/ingest?path=/cultures", &buf)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	resp, err := r.http.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Insert, then extract via the metadata form.
	r.post("/meta?path=/cultures/img.fits", url.Values{"name": {"note"}, "value": {"hand-added"}})
	r.post("/meta?path=/cultures/img.fits", url.Values{"action": {"extract"}, "method": {"fits-cards"}})
	avus, _ := r.broker.Cat.GetMeta("/cultures/img.fits", types.MetaType)
	found := false
	for _, a := range avus {
		if a.Name == "OBJECT" && a.Value == "M31" {
			found = true
		}
	}
	if !found {
		t.Errorf("extraction via web: %+v", avus)
	}
	// Dublin Core lands in the type class.
	r.post("/meta?path=/cultures/img.fits", url.Values{"name": {"dc:title"}, "value": {"Andromeda"}})
	avus, _ = r.broker.Cat.GetMeta("/cultures/img.fits", types.MetaType)
	foundDC := false
	for _, a := range avus {
		if a.Name == "dc:title" {
			foundDC = true
		}
	}
	if !foundDC {
		t.Error("Dublin Core should use the type class")
	}
	// Delete through the form.
	r.post("/meta?path=/cultures/img.fits", url.Values{"action": {"delete"}, "name": {"note"}})
	user, _ := r.broker.Cat.GetMeta("/cultures/img.fits", types.MetaUser)
	if len(user) != 0 {
		t.Errorf("meta delete via web: %+v", user)
	}
}

func TestSQLObjectRendering(t *testing.T) {
	r := newRig(t)
	db := dbfs.New()
	if err := r.broker.AddPhysicalResource("admin", "db1", types.ClassDatabase, "dbfs", db); err != nil {
		t.Fatal(err)
	}
	db.Database().Exec("CREATE TABLE birds (name, family)")
	db.Database().Exec("INSERT INTO birds VALUES ('zebra finch', 'Estrildidae')")
	r.login("curator", "pw")
	if _, err := r.broker.RegisterSQL("curator", "/cultures/birds-q", types.SQLSpec{
		Resource: "db1", Query: "SELECT name, family FROM birds", Template: "HTMLREL",
	}); err != nil {
		t.Fatal(err)
	}
	body, _ := r.get("/open?path=/cultures/birds-q")
	// The HTMLREL table renders inline, unescaped.
	if !strings.Contains(body, "<td>zebra finch</td>") {
		t.Errorf("SQL object rendering:\n%s", body)
	}
}

func TestHelpPage(t *testing.T) {
	r := newRig(t)
	r.login("curator", "pw")
	body, _ := r.get("/help")
	if !strings.Contains(body, "collection and file management") {
		t.Errorf("help page:\n%s", body)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestUserRegistrationViaWeb(t *testing.T) {
	r := newRig(t)
	r.authn.Register("admin", "adminpw")
	// Non-admins are refused.
	r.login("curator", "pw")
	if _, code := r.get("/register"); code != http.StatusForbidden {
		t.Errorf("non-admin register page code = %d", code)
	}
	// Admin registers a new account.
	r2 := newRig(t)
	r2.authn.Register("admin", "adminpw")
	r2.login("admin", "adminpw")
	r2.post("/register", url.Values{"name": {"newbie"}, "domain": {"sdsc"}, "password": {"npw"}})
	if _, err := r2.broker.Cat.GetUser("newbie"); err != nil {
		t.Fatalf("user not created: %v", err)
	}
	// The new account can log in.
	r2.login("newbie", "npw")
	if body, _ := r2.get("/browse?path=/"); !strings.Contains(body, "user: newbie") {
		t.Error("new user login failed")
	}
	// Missing fields bounce.
	r2.login("admin", "adminpw")
	r2.post("/register", url.Values{"name": {""}, "password": {""}})
	if _, err := r2.broker.Cat.GetUser(""); err == nil {
		t.Error("empty user should not register")
	}
}

func TestEditFacility(t *testing.T) {
	r := newRig(t)
	r.login("curator", "pw")
	r.multipartIngest("/cultures", "note.txt", "disk1", []byte("first draft"), nil)
	// The form shows current contents.
	body, code := r.get("/edit?path=/cultures/note.txt")
	if code != http.StatusOK || !strings.Contains(body, "first draft") {
		t.Fatalf("edit form (%d):\n%s", code, body)
	}
	// Saving reingests; metadata remains linked.
	r.broker.Cat.AddMeta("/cultures/note.txt", types.MetaUser, types.AVU{Name: "k", Value: "v"})
	r.post("/edit?path=/cultures/note.txt", url.Values{"contents": {"second draft"}})
	data, _ := r.broker.Get("curator", "/cultures/note.txt")
	if string(data) != "second draft" {
		t.Errorf("after edit = %q", data)
	}
	avus, _ := r.broker.Cat.GetMeta("/cultures/note.txt", types.MetaUser)
	if len(avus) != 1 {
		t.Error("metadata must survive the edit")
	}
	// Non-editable types are refused.
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, _ := mw.CreateFormFile("file", "img.fits")
	fw.Write([]byte("binary-ish"))
	mw.WriteField("resource", "disk1")
	mw.WriteField("datatype", "fits image")
	mw.Close()
	req, _ := http.NewRequest(http.MethodPost, r.srv.URL+"/ingest?path=/cultures", &buf)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	resp, err := r.http.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, code := r.get("/edit?path=/cultures/img.fits"); code != http.StatusForbidden {
		t.Errorf("non-ascii edit code = %d", code)
	}
}

func TestRegisterObjectsViaWeb(t *testing.T) {
	r := newRig(t)
	db := dbfs.New()
	if err := r.broker.AddPhysicalResource("admin", "db1", types.ClassDatabase, "dbfs", db); err != nil {
		t.Fatal(err)
	}
	db.Database().Exec("CREATE TABLE t (a)")
	db.Database().Exec("INSERT INTO t VALUES ('from the web')")
	r.login("curator", "pw")

	// The form page lists all five kinds.
	form, _ := r.get("/registerobj?path=/cultures")
	for _, want := range []string{"shadow object", "SQL query", "A URL", "method object"} {
		if !strings.Contains(form, want) {
			t.Errorf("register form missing %q", want)
		}
	}
	// Register a URL through the form.
	r.broker.Fetcher().RegisterMemBytes("mem://site", []byte("web content"))
	r.post("/registerobj?path=/cultures", url.Values{
		"kind": {"url"}, "name": {"site-ptr"}, "url": {"mem://site"},
	})
	data, err := r.broker.Get("curator", "/cultures/site-ptr")
	if err != nil || string(data) != "web content" {
		t.Errorf("registered URL get = %q, %v", data, err)
	}
	// Register a SQL query through the form; it renders on open.
	r.post("/registerobj?path=/cultures", url.Values{
		"kind": {"sql"}, "name": {"report"}, "resource": {"db1"},
		"query": {"SELECT a FROM t"}, "template": {"HTMLREL"},
	})
	body, _ := r.get("/open?path=/cultures/report")
	if !strings.Contains(body, "from the web") {
		t.Errorf("registered SQL render:\n%s", body)
	}
	// Register a shadow directory through the form.
	d1, _ := r.broker.Driver("disk1")
	storage.WriteAll(d1, "/outside/f.txt", []byte("cone file"))
	r.post("/registerobj?path=/cultures", url.Values{
		"kind": {"directory"}, "name": {"shadow"}, "resource": {"disk1"}, "physpath": {"/outside"},
	})
	o, err := r.broker.Cat.GetObject("/cultures/shadow")
	if err != nil || o.Kind != types.KindShadowDir {
		t.Errorf("registered dir = %+v, %v", o, err)
	}
	// Bad kind bounces with an error notice.
	r.post("/registerobj?path=/cultures", url.Values{"kind": {"bogus"}, "name": {"x"}})
	if _, err := r.broker.Cat.GetObject("/cultures/x"); err == nil {
		t.Error("bogus kind should not register")
	}
}

func TestRelatedObjectHotLinks(t *testing.T) {
	r := newRig(t)
	r.login("curator", "pw")
	r.multipartIngest("/cultures", "a.txt", "disk1", []byte("A"), nil)
	r.multipartIngest("/cultures", "b.txt", "disk1", []byte("B"), nil)
	// Relate b to a through metadata; the open page hot-links it.
	r.broker.Cat.AddMeta("/cultures/a.txt", types.MetaUser,
		types.AVU{Name: "related", Value: "/cultures/b.txt"})
	body, _ := r.get("/open?path=/cultures/a.txt")
	// html/template URL-escapes the query value.
	if !strings.Contains(body, `<a href="/open?path=%2fcultures%2fb.txt">`) {
		t.Errorf("related object not hot-linked:\n%s", body)
	}
	// Ordinary values stay plain text.
	r.broker.Cat.AddMeta("/cultures/a.txt", types.MetaUser,
		types.AVU{Name: "note", Value: "not a path"})
	body, _ = r.get("/open?path=/cultures/a.txt")
	if strings.Contains(body, `>not a path</a>`) {
		t.Error("plain value wrongly linked")
	}
}

func TestMoreWebOps(t *testing.T) {
	r := newRig(t)
	// Second resource for web-driven replication.
	if err := r.broker.AddPhysicalResource("admin", "disk2", types.ClassFileSystem, "memfs", memfs.New()); err != nil {
		t.Fatal(err)
	}
	r.login("curator", "pw")
	r.multipartIngest("/cultures", "f.txt", "disk1", []byte("payload"), nil)

	// Replicate via the split-window form.
	r.post("/op", url.Values{"path": {"/cultures/f.txt"}, "op": {"replicate"}, "resource": {"disk2"}})
	o, _ := r.broker.Cat.GetObject("/cultures/f.txt")
	if len(o.Replicas) != 2 {
		t.Errorf("web replicate: %+v", o.Replicas)
	}
	// Copy via the form.
	r.post("/op", url.Values{"path": {"/cultures/f.txt"}, "op": {"copy"}, "to": {"/cultures/f2.txt"}})
	if _, err := r.broker.Cat.GetObject("/cultures/f2.txt"); err != nil {
		t.Errorf("web copy: %v", err)
	}
	// Link via the form.
	r.post("/op", url.Values{"path": {"/cultures/f.txt"}, "op": {"link"}, "to": {"/cultures/ln.txt"}})
	if data, err := r.broker.Get("curator", "/cultures/ln.txt"); err != nil || string(data) != "payload" {
		t.Errorf("web link: %q, %v", data, err)
	}
	// Checkout via the form blocks others' writes.
	r.post("/op", url.Values{"path": {"/cultures/f.txt"}, "op": {"checkout"}})
	o, _ = r.broker.Cat.GetObject("/cultures/f.txt")
	if o.CheckedOutBy != "curator" {
		t.Errorf("web checkout: %+v", o.CheckedOutBy)
	}
	// rmcoll via the form.
	r.post("/mkcoll", url.Values{"parent": {"/cultures"}, "name": {"empty"}})
	r.post("/op", url.Values{"path": {"/cultures/empty"}, "op": {"rmcoll"}})
	if r.broker.Cat.CollExists("/cultures/empty") {
		t.Error("web rmcoll failed")
	}
	// Unknown op bounces with an error notice rather than a 500.
	body, code := r.post("/op", url.Values{"path": {"/cultures/f.txt"}, "op": {"explode"}})
	if code != http.StatusOK || !strings.Contains(body, "not supported") {
		t.Errorf("unknown web op: %d\n%s", code, body[:min(300, len(body))])
	}
	// Raw download of a missing object is a 404.
	if _, code := r.get("/raw?path=/cultures/ghost"); code != http.StatusNotFound {
		t.Errorf("raw missing code = %d", code)
	}
	// GET on POST-only endpoints is a 404.
	if _, code := r.get("/annotate"); code != http.StatusNotFound {
		t.Errorf("GET /annotate = %d", code)
	}
	if _, code := r.get("/mkcoll"); code != http.StatusNotFound {
		t.Errorf("GET /mkcoll = %d", code)
	}
	// Logout kills the session.
	r.get("/logout")
	if body, _ := r.get("/browse?path=/cultures"); !strings.Contains(body, "password") {
		t.Error("session should be gone after logout")
	}
}

// TestGridPhaseTable drives the /grid latency-decomposition table both
// empty (a fresh window renders the no-activity note, not a bare
// table) and populated (folded phases appear as rows with the op and
// phase names escaped into the HTML).
func TestGridPhaseTable(t *testing.T) {
	r := newRig(t)
	r.login("curator", "pw")

	resp, err := r.http.Get(r.srv.URL + "/grid")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "Latency decomposition") ||
		!strings.Contains(string(body), "no phase activity in the window") {
		t.Fatalf("fresh /grid missing the empty-state note:\n%s", body)
	}

	// Fold a decomposed span into the registry. The window diffs the
	// live counters against the oldest retained rollup, so capture the
	// empty baseline first.
	reg := r.broker.Metrics()
	reg.CaptureRollup(time.Now().Add(-time.Second))
	sp := obs.StartSpan(0, "get")
	sp.Phase(obs.PhaseQueueWait, 2*time.Millisecond)
	sp.Phase(obs.PhaseStorageRead, 5*time.Millisecond)
	sp.Phase(obs.PhaseDispatch, 6*time.Millisecond)
	reg.RecordPhases("server", "get", sp.Trace, sp.Events())

	resp, err = r.http.Get(r.srv.URL + "/grid")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	page := string(body)
	for _, want := range []string{obs.PhaseQueueWait, obs.PhaseStorageRead, obs.PhaseDispatch, "server"} {
		if !strings.Contains(page, want) {
			t.Errorf("/grid phase table missing %q", want)
		}
	}
	if strings.Contains(page, "no phase activity in the window") {
		t.Error("/grid still shows the empty-state note with phases recorded")
	}
}

// TestPagesHideWhatUserCannotRead: a user with no grant on /cultures
// sees none of its annotations, version comments or grantees on any
// page, and the edit facility answers a path it cannot read the same
// way whether or not the path exists.
func TestPagesHideWhatUserCannotRead(t *testing.T) {
	r := newRig(t)
	r.login("curator", "pw")
	r.multipartIngest("/cultures", "f.txt", "disk1", []byte("x"), nil)
	b := r.broker
	b.Cat.AddUser(types.User{Name: "colleague", Domain: "sdsc"})
	b.Cat.AddUser(types.User{Name: "outsider", Domain: "sdsc"})
	r.authn.Register("outsider", "opw")
	for _, err := range []error{
		b.Annotate("curator", "/cultures", types.Annotation{Kind: "comment", Text: "collection-note-secret"}),
		b.Annotate("curator", "/cultures/f.txt", types.Annotation{Kind: "comment", Text: "object-note-secret"}),
		b.Checkout("curator", "/cultures/f.txt"),
		b.Checkin("curator", "/cultures/f.txt", []byte("y"), "version-comment-secret"),
		b.Chmod("curator", "/cultures", "colleague", acl.Read),
		b.Chmod("curator", "/cultures/f.txt", "colleague", acl.Read),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}

	out := &rig{t: t, srv: r.srv, http: &http.Client{Jar: newJar()}}
	out.login("outsider", "opw")
	secrets := []string{"collection-note-secret", "object-note-secret", "version-comment-secret", "colleague"}
	for _, page := range []string{
		"/browse?path=/cultures", "/open?path=/cultures/f.txt",
		"/acl?path=/cultures", "/acl?path=/cultures/f.txt", "/edit?path=/cultures/f.txt",
	} {
		body, _ := out.get(page)
		for _, s := range secrets {
			if strings.Contains(body, s) {
				t.Errorf("%s shows %q to a user with no grant", page, s)
			}
		}
	}
	existing, c1 := out.get("/edit?path=/cultures/f.txt")
	missing, c2 := out.get("/edit?path=/cultures/none.txt")
	if c1 != http.StatusForbidden || c1 != c2 || existing != strings.Replace(missing, "none.txt", "f.txt", 1) {
		t.Errorf("edit answers %d %q for a path that exists and %d %q for one that does not", c1, existing, c2, missing)
	}

	// The owner still sees all of it.
	for page, want := range map[string]string{
		"/browse?path=/cultures":     "collection-note-secret",
		"/open?path=/cultures/f.txt": "version-comment-secret",
		"/acl?path=/cultures":        "colleague",
	} {
		if body, _ := r.get(page); !strings.Contains(body, want) {
			t.Errorf("%s lacks %q for the owner", page, want)
		}
	}
}
