// Package mysrb implements MySRB, "a web-based interface to the SRB
// that provides a user-friendly interface to distributed collections
// brokered by the SRB" (paper abstract). It offers the paper's three
// primary functionalities: collection and file management, metadata
// handling, and access/display of files and metadata, rendered in the
// split-window layout of Figure 1 (metadata in the top pane, collection
// listing or file contents in the bottom pane).
//
// Sessions follow the paper: each login mints a unique session key held
// as an in-memory cookie with a 60-minute maximum lifetime, and every
// request re-validates the key.
package mysrb

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/auth"
	"gosrb/internal/chunk"
	"gosrb/internal/core"
	"gosrb/internal/mcat"
	"gosrb/internal/metadata"
	"gosrb/internal/obs"
	"gosrb/internal/report"
	"gosrb/internal/storage"
	"gosrb/internal/types"
)

// SessionCookie names the in-memory session cookie.
const SessionCookie = "mysrb-session"

// App is the MySRB web application.
type App struct {
	broker *core.Broker
	authn  *auth.Authenticator
	mux    *http.ServeMux
	// slowOp holds the slow-request threshold in nanoseconds (0 =
	// disabled): any session request at least this slow gets its span
	// tree written to the log (srbd's -slow-op flag).
	slowOp atomic.Int64
	// env is what the status pages report on: this process's broker.
	env report.Env
	// Logger receives slow-request span trees. Replaceable for tests.
	Logger *obs.Logger
}

// New builds the application over a broker and authenticator.
func New(b *core.Broker, a *auth.Authenticator) *App {
	app := &App{
		broker: b,
		authn:  a,
		env:    report.Env{Name: b.ServerName(), Broker: b},
		mux:    http.NewServeMux(),
		Logger: obs.NewLogger(os.Stderr, b.ServerName(), obs.LevelInfo),
	}
	app.routes()
	return app
}

// SetSlowOpThreshold enables the slow-request log: any session request
// taking at least d gets its full span tree logged (0 disables).
func (a *App) SetSlowOpThreshold(d time.Duration) {
	if d < 0 {
		d = 0
	}
	a.slowOp.Store(int64(d))
}

// ServeHTTP implements http.Handler.
func (a *App) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

func (a *App) routes() {
	a.mux.HandleFunc("/mySRB.html", a.handleLoginPage)
	a.mux.HandleFunc("/login", a.handleLogin)
	a.mux.HandleFunc("/logout", a.handleLogout)
	a.mux.HandleFunc("/", a.withSession("browse", a.handleBrowse))
	a.mux.HandleFunc("/browse", a.withSession("browse", a.handleBrowse))
	a.mux.HandleFunc("/open", a.withSession("open", a.handleOpen))
	a.mux.HandleFunc("/raw", a.withSession("raw", a.handleRaw))
	a.mux.HandleFunc("/mkcoll", a.withSession("mkcoll", a.handleMkColl))
	a.mux.HandleFunc("/ingest", a.withSession("ingest", a.handleIngest))
	a.mux.HandleFunc("/meta", a.withSession("meta", a.handleMeta))
	a.mux.HandleFunc("/annotate", a.withSession("annotate", a.handleAnnotate))
	a.mux.HandleFunc("/query", a.withSession("query", a.handleQuery))
	a.mux.HandleFunc("/acl", a.withSession("acl", a.handleACL))
	a.mux.HandleFunc("/op", a.withSession("op", a.handleOp))
	a.mux.HandleFunc("/edit", a.withSession("edit", a.handleEdit))
	a.mux.HandleFunc("/registerobj", a.withSession("registerobj", a.handleRegisterObj))
	a.mux.HandleFunc("/register", a.withSession("register", a.handleRegister))
	a.mux.HandleFunc("/help", a.withSession("help", a.handleHelp))
	a.mux.HandleFunc("/status", a.withSession("status", a.statusPage("server status", nil, "opstats", "repair")))
	a.mux.HandleFunc("/usage", a.withSession("usage", a.statusPage("usage accounting", nil, "usage")))
	a.mux.HandleFunc("/shards", a.withSession("shards", a.statusPage("catalog shards", nil, "shards")))
	a.mux.HandleFunc("/grid", a.withSession("grid", a.statusPage("grid console", a.drawActivity, "grid", "phases")))
	a.mux.HandleFunc("/incidents", a.withSession("incidents", a.statusPage("incident bundles", drawBundleLinks, "incidents")))
	a.mux.HandleFunc("/incident", a.withSession("incident", a.handleIncidentFile))
	a.mux.HandleFunc("/peers", a.withSession("peers", a.statusPage("peer transfer observatory", nil, "peers")))
	a.mux.HandleFunc("/heat", a.withSession("heat", a.statusPage("heat observatory", drawShardHeat, "heat")))
}

// withSession performs the paper's "security checks on the session keys
// when validating a user request", and times the request as a web.<name>
// op so the dashboard, the grid feed and SLO rules see web traffic
// alongside wire ops.
func (a *App) withSession(name string, h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	op := "web." + name
	return func(w http.ResponseWriter, r *http.Request) {
		reg := a.broker.Metrics()
		sp := obs.StartSpan(0, op)
		defer func() {
			elapsed := sp.Elapsed()
			reg.Op(op).Observe(elapsed, nil)
			sp.End(reg.Traces(), a.broker.ServerName(), r.RemoteAddr, nil)
			if thr := time.Duration(a.slowOp.Load()); thr > 0 && elapsed >= thr {
				// Outlier: log the whole span tree while the trace ring
				// still holds it, so the slow page's causes (broker
				// retries, failovers) land in the log.
				reg.Counter("web.slowops").Inc()
				var tree strings.Builder
				obs.WriteTree(&tree, obs.AssembleTree(reg.Traces().ForTrace(sp.TraceID())))
				a.Logger.Infof("slow web request %s took %s (threshold %s) trace=%s\n%s",
					op, elapsed, thr, sp.TraceID(), tree.String())
			}
		}()
		ck, err := r.Cookie(SessionCookie)
		if err != nil {
			http.Redirect(w, r, "/mySRB.html", http.StatusSeeOther)
			return
		}
		user, err := a.authn.Validate(ck.Value)
		if err != nil {
			http.Redirect(w, r, "/mySRB.html", http.StatusSeeOther)
			return
		}
		h(w, r, user)
	}
}

func (a *App) handleLoginPage(w http.ResponseWriter, r *http.Request) {
	render(w, "login", map[string]any{"Error": r.URL.Query().Get("err")})
}

func (a *App) handleLogin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Redirect(w, r, "/mySRB.html", http.StatusSeeOther)
		return
	}
	user := r.FormValue("user")
	password := r.FormValue("password")
	// Web logins prove the password locally against the same derived
	// key the wire protocol uses.
	nonce, err := auth.NewChallenge()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if !a.authn.VerifyUser(user, nonce, auth.Respond(auth.DeriveKey(user, password), nonce)) {
		http.Redirect(w, r, "/mySRB.html?err=invalid+name+or+password", http.StatusSeeOther)
		return
	}
	sess, err := a.authn.NewSession(user)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// An in-memory cookie: no Expires/MaxAge, so it dies with the
	// browser; the server enforces the 60-minute limit.
	http.SetCookie(w, &http.Cookie{Name: SessionCookie, Value: sess.Key, Path: "/", HttpOnly: true})
	http.Redirect(w, r, "/browse?path=/", http.StatusSeeOther)
}

func (a *App) handleLogout(w http.ResponseWriter, r *http.Request) {
	if ck, err := r.Cookie(SessionCookie); err == nil {
		a.authn.Logout(ck.Value)
	}
	http.SetCookie(w, &http.Cookie{Name: SessionCookie, Value: "", Path: "/", MaxAge: -1})
	http.Redirect(w, r, "/mySRB.html", http.StatusSeeOther)
}

// pageData is the split-window view model.
type pageData struct {
	User      string
	Path      string
	Parent    string
	TopMeta   []types.AVU // metadata pane (top window)
	Structs   []types.StructuralAttr
	Annots    []types.Annotation
	Entries   []types.Stat // collection listing (bottom window)
	Content   string       // file contents (bottom window)
	IsHTML    bool         // content is pre-rendered HTML (SQL templates)
	Error     string
	Notice    string
	AttrNames []string
	Hits      []queryHit
	Selected  []string
	ACL       []aclRow
	Resources []types.Resource
	Methods   []metadata.Method
	DCNames   []string
	Versions  []types.Version
}

type queryHit struct {
	Path   string
	Values []string
}

type aclRow struct {
	Grantee string
	Level   string
}

func (a *App) handleBrowse(w http.ResponseWriter, r *http.Request, user string) {
	path := types.CleanPath(r.URL.Query().Get("path"))
	pd := pageData{User: user, Path: path, Parent: types.Parent(path)}
	entries, err := a.broker.List(user, path)
	if err != nil {
		pd.Error = err.Error()
	} else {
		// A collection's structural metadata (its required attribute
		// names) is shown to whoever may list it, and to no one else.
		pd.Structs = a.broker.Cat.Structural(path)
	}
	pd.Entries = entries
	// Top window: collection metadata.
	if avus, err := a.broker.GetMeta(user, path, types.MetaUser); err == nil {
		pd.TopMeta = avus
	}
	if anns, err := a.broker.Annotations(user, path); err == nil {
		pd.Annots = anns
	}
	pd.Resources = a.broker.Cat.Resources()
	pd.Error = strings.TrimSpace(pd.Error + " " + r.URL.Query().Get("err"))
	pd.Notice = r.URL.Query().Get("ok")
	render(w, "browse", pd)
}

func (a *App) handleOpen(w http.ResponseWriter, r *http.Request, user string) {
	path := types.CleanPath(r.URL.Query().Get("path"))
	pd := pageData{User: user, Path: path, Parent: types.Parent(path)}
	// Top window: "when a user 'opens' a file, the attributes about the
	// file are displayed along with the contents of the file".
	if sys, err := a.broker.GetMeta(user, path, types.MetaSystem); err == nil {
		pd.TopMeta = append(pd.TopMeta, sys...)
	}
	for _, class := range []types.MetaClass{types.MetaUser, types.MetaType, types.MetaFile} {
		if avus, err := a.broker.GetMeta(user, path, class); err == nil {
			pd.TopMeta = append(pd.TopMeta, avus...)
		}
	}
	if anns, err := a.broker.Annotations(user, path); err == nil {
		pd.Annots = anns
	}
	// The row's versions and type are shown only once OpenGet has
	// checked read.
	row := a.broker.Lookup(path)
	var f core.GetHandle
	if size, err := a.broker.OpenGet(&f, user, &row, nil); err != nil {
		pd.Error = err.Error()
	} else {
		pd.Versions = row.Obj.Versions
		pd.Methods = a.broker.Extractors().MethodsFor(row.Obj.DataType)
		pd.Content, pd.IsHTML, err = renderContent(&f, size)
		f.Close()
		if err != nil {
			pd.Error = err.Error()
		}
	}
	render(w, "open", pd)
}

// previewBytes is how much of a non-HTML object the open page shows.
const previewBytes int64 = 64 * 1024

// renderContent decides how the bottom window shows the bytes. Only an
// object that renders inline (it starts with markup) is read whole; of
// anything else the page needs no more than the preview.
func renderContent(f io.Reader, size int64) (string, bool, error) {
	preview := size
	if preview > previewBytes {
		preview = previewBytes
	}
	head, err := storage.ReadSized(io.LimitReader(f, previewBytes), preview)
	if err != nil {
		return "", false, err
	}
	if strings.HasPrefix(strings.TrimSpace(string(head)), "<") {
		// SQL templates and registered HTML render inline.
		rest, err := storage.ReadSized(f, size-preview)
		return string(head) + string(rest), true, err
	}
	if size > previewBytes {
		return fmt.Sprintf("[%d bytes; first 64 KiB shown]\n%s", size, head), false, nil
	}
	return string(head), false, nil
}

// handleRaw is the download: the object streams from its replica to the
// response through one pooled chunk, its length announced up front from
// the catalog.
func (a *App) handleRaw(w http.ResponseWriter, r *http.Request, user string) {
	row := a.broker.Lookup(r.URL.Query().Get("path"))
	var f core.GetHandle
	size, err := a.broker.OpenGet(&f, user, &row, nil)
	if err != nil {
		http.Error(w, err.Error(), statusOf(err))
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	// Past the header an error can only cut the response short; the
	// client sees fewer bytes than Content-Length promised.
	chunk.Copy(w, io.LimitReader(&f, size))
}

func (a *App) handleMkColl(w http.ResponseWriter, r *http.Request, user string) {
	if r.Method != http.MethodPost {
		http.NotFound(w, r)
		return
	}
	parent := types.CleanPath(r.FormValue("parent"))
	name := r.FormValue("name")
	err := a.broker.Mkdir(user, types.Join(parent, name))
	redirectOutcome(w, r, "/browse?path="+urlEscape(parent), err, "collection created")
}

func (a *App) handleIngest(w http.ResponseWriter, r *http.Request, user string) {
	coll := types.CleanPath(r.URL.Query().Get("path"))
	if r.Method == http.MethodGet {
		pd := pageData{User: user, Path: coll, Parent: types.Parent(coll)}
		// The form asks for the attributes the collection requires only of
		// a user who may put objects in it.
		if a.broker.Cat.EffectiveLevel(coll, user) >= acl.Write {
			pd.Structs = a.broker.Cat.Structural(coll)
		}
		pd.Resources = a.broker.Cat.Resources()
		pd.DCNames = metadata.DublinCoreElements
		render(w, "ingest", pd)
		return
	}
	if err := r.ParseMultipartForm(32 << 20); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	file, hdr, err := r.FormFile("file")
	if err != nil {
		redirectOutcome(w, r, "/browse?path="+urlEscape(coll), err, "")
		return
	}
	defer file.Close()
	name := r.FormValue("name")
	if name == "" {
		name = hdr.Filename
	}
	meta := collectMeta(r)
	_, err = a.broker.Ingest(user, core.IngestOpts{
		Path:      types.Join(coll, name),
		Reader:    file, // the upload streams from the form part to the drivers
		Resource:  r.FormValue("resource"),
		Container: r.FormValue("container"),
		DataType:  r.FormValue("datatype"),
		Meta:      meta,
	})
	redirectOutcome(w, r, "/browse?path="+urlEscape(coll), err, "file ingested")
}

// collectMeta lifts metadata fields from the form: meta-name-N /
// meta-value-N / meta-units-N triples plus any structural or Dublin
// Core fields (named dc:...).
func collectMeta(r *http.Request) []types.AVU {
	var out []types.AVU
	for i := 0; i < 16; i++ {
		n := r.FormValue(fmt.Sprintf("meta-name-%d", i))
		if n == "" {
			continue
		}
		out = append(out, types.AVU{
			Name:  n,
			Value: r.FormValue(fmt.Sprintf("meta-value-%d", i)),
			Units: r.FormValue(fmt.Sprintf("meta-units-%d", i)),
		})
	}
	for key, vals := range r.Form {
		if strings.HasPrefix(key, "attr:") && len(vals) > 0 && vals[0] != "" {
			out = append(out, types.AVU{Name: strings.TrimPrefix(key, "attr:"), Value: vals[0]})
		}
		if strings.HasPrefix(key, "dc:") && len(vals) > 0 && vals[0] != "" {
			out = append(out, types.AVU{Name: key, Value: vals[0]})
		}
	}
	return out
}

func (a *App) handleMeta(w http.ResponseWriter, r *http.Request, user string) {
	path := types.CleanPath(r.URL.Query().Get("path"))
	if r.Method == http.MethodGet {
		pd := pageData{User: user, Path: path, Parent: types.Parent(path)}
		if avus, err := a.broker.GetMeta(user, path, types.MetaUser); err == nil {
			pd.TopMeta = avus
		}
		pd.DCNames = metadata.DublinCoreElements
		render(w, "meta", pd)
		return
	}
	if err := r.ParseForm(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var err error
	switch r.FormValue("action") {
	case "delete":
		_, err = a.broker.DeleteMeta(user, path, types.MetaUser, r.FormValue("name"), r.FormValue("value"))
	case "extract":
		_, err = a.broker.ExtractMeta(user, path, r.FormValue("method"), r.FormValue("from"))
	case "copy":
		err = a.broker.CopyMeta(user, r.FormValue("from"), path)
	default:
		class := types.MetaUser
		if strings.HasPrefix(r.FormValue("name"), "dc:") {
			class = types.MetaType
		}
		err = a.broker.AddMeta(user, path, class, types.AVU{
			Name:  r.FormValue("name"),
			Value: r.FormValue("value"),
			Units: r.FormValue("units"),
		})
	}
	redirectOutcome(w, r, "/open?path="+urlEscape(path), err, "metadata updated")
}

func (a *App) handleAnnotate(w http.ResponseWriter, r *http.Request, user string) {
	if r.Method != http.MethodPost {
		http.NotFound(w, r)
		return
	}
	path := types.CleanPath(r.FormValue("path"))
	err := a.broker.Annotate(user, path, types.Annotation{
		Kind: r.FormValue("kind"),
		Text: r.FormValue("text"),
	})
	redirectOutcome(w, r, "/open?path="+urlEscape(path), err, "annotation added")
}

func (a *App) handleQuery(w http.ResponseWriter, r *http.Request, user string) {
	scope := types.CleanPath(r.URL.Query().Get("path"))
	pd := pageData{User: user, Path: scope, Parent: types.Parent(scope)}
	// The drop-down holds "all the metadata names that are queryable in
	// that collection and every collection in the hierarchy under" it.
	pd.AttrNames = append(a.broker.QueryAttrNames(user, scope), mcat.SysAttrs()...)
	pd.AttrNames = append(pd.AttrNames, "annotation")
	sort.Strings(pd.AttrNames)
	if r.Method == http.MethodGet {
		render(w, "query", pd)
		return
	}
	if err := r.ParseForm(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	q := mcat.Query{Scope: scope}
	var selected []string
	for i := 0; i < 8; i++ {
		attr := r.FormValue(fmt.Sprintf("attr-%d", i))
		if attr == "" {
			continue
		}
		op := r.FormValue(fmt.Sprintf("op-%d", i))
		val := r.FormValue(fmt.Sprintf("val-%d", i))
		if r.FormValue(fmt.Sprintf("show-%d", i)) != "" {
			selected = append(selected, attr)
		}
		// The fourth-column checkbox may be ticked "without using it as
		// part of any query condition": empty values add no conjunct.
		if val == "" {
			continue
		}
		q.Conds = append(q.Conds, mcat.Condition{Attr: attr, Op: op, Value: val})
	}
	q.Select = selected
	hits, err := a.broker.Query(user, q)
	if err != nil {
		pd.Error = err.Error()
	}
	pd.Selected = selected
	for _, h := range hits {
		qh := queryHit{Path: h.Path}
		for _, col := range h.Values {
			qh.Values = append(qh.Values, strings.Join(col, "; "))
		}
		pd.Hits = append(pd.Hits, qh)
	}
	render(w, "query", pd)
}

func (a *App) handleACL(w http.ResponseWriter, r *http.Request, user string) {
	path := types.CleanPath(r.URL.Query().Get("path"))
	if r.Method == http.MethodPost {
		lvl, err := acl.ParseLevel(r.FormValue("level"))
		if err == nil {
			err = a.broker.Chmod(user, path, r.FormValue("grantee"), lvl)
		}
		redirectOutcome(w, r, "/acl?path="+urlEscape(path), err, "access updated")
		return
	}
	pd := pageData{User: user, Path: path, Parent: types.Parent(path)}
	list, err := a.broker.ACL(user, path)
	if err != nil {
		pd.Error = err.Error()
	}
	for _, e := range list {
		pd.ACL = append(pd.ACL, aclRow{Grantee: e.Grantee, Level: e.Level.String()})
	}
	render(w, "acl", pd)
}

// handleOp covers the one-click data-movement operations: replicate,
// delete, move, copy, link, lock, unlock, checkout.
func (a *App) handleOp(w http.ResponseWriter, r *http.Request, user string) {
	if r.Method != http.MethodPost {
		http.NotFound(w, r)
		return
	}
	path := types.CleanPath(r.FormValue("path"))
	back := "/browse?path=" + urlEscape(types.Parent(path))
	var err error
	var notice string
	switch r.FormValue("op") {
	case "replicate":
		_, err = a.broker.Replicate(user, path, r.FormValue("resource"))
		notice = "replica created"
	case "delete":
		err = a.broker.Delete(user, path)
		notice = "deleted"
	case "rmcoll":
		err = a.broker.RmColl(user, path)
		back = "/browse?path=" + urlEscape(types.Parent(types.Parent(path)))
		notice = "collection removed"
	case "move":
		err = a.broker.Move(user, path, r.FormValue("to"))
		notice = "moved"
	case "copy":
		err = a.broker.Copy(user, path, r.FormValue("to"), r.FormValue("resource"))
		notice = "copied"
	case "link":
		err = a.broker.Link(user, path, r.FormValue("to"))
		notice = "linked"
	case "lock":
		kind := types.LockShared
		if r.FormValue("kind") == "exclusive" {
			kind = types.LockExclusive
		}
		err = a.broker.Lock(user, path, kind, time.Hour)
		notice = "locked"
	case "unlock":
		err = a.broker.Unlock(user, path)
		notice = "unlocked"
	case "checkout":
		err = a.broker.Checkout(user, path)
		notice = "checked out"
	default:
		err = types.E("op", r.FormValue("op"), types.ErrUnsupported)
	}
	redirectOutcome(w, r, back, err, notice)
}

// handleRegisterObj offers the paper's five registration kinds (§5):
// a file in place, a shadow directory, a SQL query, a URL, and a method
// object.
func (a *App) handleRegisterObj(w http.ResponseWriter, r *http.Request, user string) {
	coll := types.CleanPath(r.URL.Query().Get("path"))
	if r.Method == http.MethodGet {
		pd := pageData{User: user, Path: coll, Parent: types.Parent(coll)}
		pd.Resources = a.broker.Cat.Resources()
		render(w, "registerobj", pd)
		return
	}
	if err := r.ParseForm(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	name := r.FormValue("name")
	target := types.Join(coll, name)
	var err error
	var notice string
	switch r.FormValue("kind") {
	case "file":
		_, err = a.broker.RegisterFile(user, target, r.FormValue("resource"), r.FormValue("physpath"), nil)
		notice = "file registered"
	case "directory":
		_, err = a.broker.RegisterDirectory(user, target, r.FormValue("resource"), r.FormValue("physpath"))
		notice = "directory registered"
	case "sql":
		template := r.FormValue("template")
		if sheet := r.FormValue("stylesheet"); sheet != "" {
			// A custom T-language style sheet overrides the built-ins.
			template = sheet
		}
		_, err = a.broker.RegisterSQL(user, target, types.SQLSpec{
			Resource: r.FormValue("resource"),
			Query:    r.FormValue("query"),
			Partial:  r.FormValue("partial") != "",
			Template: template,
		})
		notice = "SQL query registered"
	case "url":
		_, err = a.broker.RegisterURL(user, target, r.FormValue("url"))
		notice = "URL registered"
	case "method":
		_, err = a.broker.RegisterMethod(user, target, types.MethodSpec{
			Proxy: true,
			Name:  r.FormValue("command"),
			Args:  strings.Fields(r.FormValue("args")),
		})
		notice = "method registered"
	default:
		err = types.E("registerobj", r.FormValue("kind"), types.ErrInvalid)
	}
	redirectOutcome(w, r, "/browse?path="+urlEscape(coll), err, notice)
}

// editableTypes are the data types the edit facility allows, per the
// paper: "the edit facility is allowed only for a few data types".
var editableTypes = map[string]bool{
	"ascii text": true, "generic": true, "html": true, "email": true,
}

// editMaxBytes bounds the edit facility to small files.
const editMaxBytes = 256 * 1024

// handleEdit shows a textarea for a small ASCII object and reingests on
// save, keeping all metadata linked.
func (a *App) handleEdit(w http.ResponseWriter, r *http.Request, user string) {
	path := types.CleanPath(r.URL.Query().Get("path"))
	o, err := a.broker.GetObject(user, path)
	if errors.Is(err, types.ErrPermission) {
		http.Error(w, err.Error(), http.StatusForbidden)
		return
	}
	if err != nil {
		http.NotFound(w, r)
		return
	}
	if !editableTypes[o.DataType] || o.Size > editMaxBytes {
		http.Error(w, "the edit facility is allowed only for small ASCII data types", http.StatusForbidden)
		return
	}
	if r.Method == http.MethodPost {
		err := a.broker.Reingest(user, path, []byte(r.FormValue("contents")))
		redirectOutcome(w, r, "/open?path="+urlEscape(path), err, "file saved")
		return
	}
	data, err := a.broker.Get(user, path)
	pd := pageData{User: user, Path: path, Parent: types.Parent(path)}
	if err != nil {
		pd.Error = err.Error()
	}
	pd.Content = string(data)
	render(w, "edit", pd)
}

// handleRegister implements the paper's user-registration function:
// administrators create accounts (name, domain, password) through the
// interface.
func (a *App) handleRegister(w http.ResponseWriter, r *http.Request, user string) {
	if !a.broker.Cat.IsAdmin(user) {
		http.Error(w, "user registration requires an administrator", http.StatusForbidden)
		return
	}
	if r.Method == http.MethodGet {
		render(w, "register", pageData{User: user, Path: "/"})
		return
	}
	name := r.FormValue("name")
	domain := r.FormValue("domain")
	password := r.FormValue("password")
	if name == "" || password == "" {
		redirectOutcome(w, r, "/register", types.E("register", name, types.ErrInvalid), "")
		return
	}
	if domain == "" {
		domain = "local"
	}
	if err := a.broker.Cat.AddUser(types.User{Name: name, Domain: domain}); err != nil {
		redirectOutcome(w, r, "/register", err, "")
		return
	}
	a.authn.Register(name, password)
	a.broker.Audit.Op(user, "register-user", name, true, domain)
	redirectOutcome(w, r, "/register", nil, "user "+name+" registered")
}

func (a *App) handleHelp(w http.ResponseWriter, r *http.Request, user string) {
	render(w, "help", pageData{User: user, Path: "/"})
}

// redirectOutcome redirects back with either an ok or err notice.
func redirectOutcome(w http.ResponseWriter, r *http.Request, back string, err error, ok string) {
	sep := "&"
	if !strings.Contains(back, "?") {
		sep = "?"
	}
	if err != nil {
		http.Redirect(w, r, back+sep+"err="+urlEscape(err.Error()), http.StatusSeeOther)
		return
	}
	http.Redirect(w, r, back+sep+"ok="+urlEscape(ok), http.StatusSeeOther)
}

func statusOf(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case strings.Contains(err.Error(), "permission"):
		return http.StatusForbidden
	case strings.Contains(err.Error(), "not found"):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

func urlEscape(s string) string {
	r := strings.NewReplacer(" ", "+", "&", "%26", "?", "%3F", "#", "%23", "=", "%3D")
	return r.Replace(s)
}
