package core

import (
	"strings"

	"gosrb/internal/sqlengine"
	"gosrb/internal/storage"
	"gosrb/internal/tlang"
	"gosrb/internal/types"
)

// This file implements the paper's five registered-object kinds (§5):
// files, shadow directories, SQL queries, URLs and method objects —
// pointers SRB maintains without controlling the bytes. Each is checked,
// then created like any object: newObject, then one commit.

// RegisterFile registers an existing physical file. "Since the file is
// not fully under SRB's control, the file size and other
// characteristics might change without SRB being aware."
func (b *Broker) RegisterFile(user, path, resource, physPath string, meta []types.AVU) (types.DataObject, error) {
	obj, err := b.newObject("registerfile", user, path)
	if err != nil {
		return types.DataObject{}, err
	}
	d, err := b.Driver(resource)
	if err != nil {
		return types.DataObject{}, err
	}
	fi, err := d.Stat(physPath)
	if err != nil {
		return types.DataObject{}, types.E("registerfile", physPath, types.ErrNotFound)
	}
	if fi.IsDir {
		return types.DataObject{}, types.E("registerfile", physPath, types.ErrInvalid)
	}
	obj.Kind, obj.DataType, obj.Size = types.KindRegisteredFile, "generic", fi.Size
	obj.Replicas = []types.Replica{{
		Number: 0, Resource: resource, PhysicalPath: types.CleanPath(physPath),
		Status: types.ReplicaClean, Size: fi.Size, Registered: true,
	}}
	return b.commit("registerfile", user, obj, meta, resource+":"+physPath)
}

// RegisterDirectory registers a "shadow directory object": the cone of
// files under the physical directory is visible through it, read-only.
func (b *Broker) RegisterDirectory(user, path, resource, physDir string) (types.DataObject, error) {
	obj, err := b.newObject("registerdir", user, path)
	if err != nil {
		return types.DataObject{}, err
	}
	d, err := b.Driver(resource)
	if err != nil {
		return types.DataObject{}, err
	}
	if _, err := d.List(physDir); err != nil {
		return types.DataObject{}, types.E("registerdir", physDir, types.ErrNotFound)
	}
	obj.Kind, obj.DataType = types.KindShadowDir, "directory"
	obj.Replicas = []types.Replica{{
		Number: 0, Resource: resource, PhysicalPath: types.CleanPath(physDir),
		Status: types.ReplicaClean, Registered: true,
	}}
	return b.commit("registerdir", user, obj, nil, resource+":"+physDir)
}

// ShadowList lists entries under a shadow directory object; rel walks
// into the cone ("." or "" for the root).
func (b *Broker) ShadowList(user, path, rel string) ([]storage.FileInfo, error) {
	o, err := b.checkRead(user, path, "shadowlist")
	if err != nil {
		return nil, err
	}
	return b.shadowList(&o, rel)
}

func (b *Broker) shadowList(o *types.DataObject, rel string) ([]storage.FileInfo, error) {
	if o.Kind != types.KindShadowDir {
		return nil, types.E("shadowlist", o.Path(), types.ErrUnsupported)
	}
	rep := o.Replicas[0]
	d, err := b.Driver(rep.Resource)
	if err != nil {
		return nil, err
	}
	target, err := shadowJoin(rep.PhysicalPath, rel)
	if err != nil {
		return nil, err
	}
	return d.List(target)
}

// ShadowOpen reads one file inside a shadow directory's cone. New file
// ingestion, update and deletion inside the cone are not supported
// (paper §5 kind 2 withholds them for security reasons).
func (b *Broker) ShadowOpen(user, path, rel string) ([]byte, error) {
	o, err := b.checkRead(user, path, "shadowopen")
	if err != nil {
		return nil, err
	}
	if o.Kind != types.KindShadowDir {
		return nil, types.E("shadowopen", path, types.ErrUnsupported)
	}
	rep := o.Replicas[0]
	d, err := b.Driver(rep.Resource)
	if err != nil {
		return nil, err
	}
	target, err := shadowJoin(rep.PhysicalPath, rel)
	if err != nil {
		return nil, err
	}
	data, err := storage.ReadAll(d, target)
	b.audit(user, "shadowopen", path, err == nil, rel)
	return data, err
}

// shadowJoin confines rel inside the registered root.
func shadowJoin(root, rel string) (string, error) {
	if rel == "" || rel == "." {
		return root, nil
	}
	joined := types.Join(root, rel)
	if !types.WithinOrEqual(root, joined) {
		return "", types.E("shadow", rel, types.ErrInvalid)
	}
	return joined, nil
}

// RegisterSQL registers a SQL query object against a database resource.
// Only SELECT text is accepted ("for security reasons, we recommend
// that one register only 'select' commands"; this implementation
// enforces it). The query executes at retrieval time, never at
// registration, so "the answer to the query can vary with time".
func (b *Broker) RegisterSQL(user, path string, spec types.SQLSpec) (types.DataObject, error) {
	obj, err := b.newObject("registersql", user, path)
	if err != nil {
		return types.DataObject{}, err
	}
	// The database may be mounted locally or owned by a federated peer;
	// the catalog's resource class is authoritative either way.
	if _, err := b.Database(spec.Resource); err != nil {
		res, rerr := b.Cat.GetResource(spec.Resource)
		if rerr != nil || res.Class != types.ClassDatabase {
			return types.DataObject{}, types.E("registersql", spec.Resource, types.ErrNotFound)
		}
	}
	if !strings.HasPrefix(strings.ToUpper(strings.TrimSpace(spec.Query)), "SELECT") {
		return types.DataObject{}, types.E("registersql", path, types.ErrInvalid)
	}
	if spec.Template == "" {
		spec.Template = tlang.TemplateHTMLRel
	}
	obj.Kind, obj.DataType, obj.SQL = types.KindSQL, "sql query", &spec
	return b.commit("registersql", user, obj, nil, spec.Resource)
}

// ExecuteSQL runs a registered SQL object, completing a partial query
// with suffix ("the user can specify [the] remainder of the query at
// retrieval time") and rendering through its template.
func (b *Broker) ExecuteSQL(user, path, suffix string) ([]byte, error) {
	o, err := b.checkRead(user, path, "execsql")
	if err != nil {
		return nil, err
	}
	if o.Kind == types.KindLink {
		o, err = b.Cat.GetObject(o.LinkTarget)
		if err != nil {
			return nil, err
		}
	}
	if o.Kind != types.KindSQL || o.SQL == nil {
		return nil, types.E("execsql", path, types.ErrUnsupported)
	}
	data, err := b.ExecuteSQLSpec(&o, suffix)
	b.audit(user, "execsql", path, err == nil, "")
	return data, err
}

// ExecuteSQLSpec executes the object's SQL spec and renders the result.
func (b *Broker) ExecuteSQLSpec(o *types.DataObject, suffix string) ([]byte, error) {
	spec := o.SQL
	if spec == nil {
		return nil, types.E("execsql", o.Path(), types.ErrInvalid)
	}
	db, err := b.Database(spec.Resource)
	if err != nil {
		return nil, err
	}
	q := spec.Query
	if spec.Partial && suffix != "" {
		q = q + " " + suffix
	}
	res, err := db.Exec(q)
	if err != nil {
		if len(o.Alternates) > 0 {
			return b.readAlternates(o, err)
		}
		return nil, types.E("execsql", o.Path(), err)
	}
	return b.renderResult(o, res)
}

// renderResult applies the object's template: a built-in name or the
// logical path of a T-language style sheet stored in SRB.
func (b *Broker) renderResult(o *types.DataObject, res *sqlengine.Result) ([]byte, error) {
	name := o.SQL.Template
	var sb strings.Builder
	if tlang.IsBuiltin(name) {
		if err := tlang.RenderBuiltin(name, &sb, res); err != nil {
			return nil, err
		}
		return []byte(sb.String()), nil
	}
	// The template names an SRB object holding the style sheet. The
	// sheet is read with the object owner's authority.
	sheet, err := b.Cat.GetObject(name)
	if err != nil {
		return nil, types.E("template", name, types.ErrNotFound)
	}
	raw, err := b.getObject(o.Owner, &sheet, nil)
	if err != nil {
		return nil, err
	}
	tpl, err := tlang.ParseTemplate(string(raw))
	if err != nil {
		return nil, err
	}
	if err := tpl.Render(&sb, res); err != nil {
		return nil, err
	}
	return []byte(sb.String()), nil
}

// RegisterURL registers a URL object; the contents are fetched at
// retrieval time and never stored.
func (b *Broker) RegisterURL(user, path, rawURL string) (types.DataObject, error) {
	obj, err := b.newObject("registerurl", user, path)
	if err != nil {
		return types.DataObject{}, err
	}
	if rawURL == "" {
		return types.DataObject{}, types.E("registerurl", path, types.ErrInvalid)
	}
	obj.Kind, obj.DataType, obj.URL = types.KindURL, "url", rawURL
	return b.commit("registerurl", user, obj, nil, rawURL)
}

// RegisterMethod registers a method object: a proxy command or proxy
// function executed at access time on an SRB server.
func (b *Broker) RegisterMethod(user, path string, spec types.MethodSpec) (types.DataObject, error) {
	obj, err := b.newObject("registermethod", user, path)
	if err != nil {
		return types.DataObject{}, err
	}
	if _, ok := b.command(spec.Name); !ok {
		// Commands must be pre-installed by an administrator.
		return types.DataObject{}, types.E("registermethod", spec.Name, types.ErrNotFound)
	}
	if spec.Server == "" {
		spec.Server = b.serverName
	}
	obj.Kind, obj.DataType, obj.Method = types.KindMethod, "method", &spec
	return b.commit("registermethod", user, obj, nil, spec.Name)
}

// InvokeMethod runs a method object with extra command-line parameters
// ("the user can provide command-line parameters at the invocation")
// and returns its output.
func (b *Broker) InvokeMethod(user, path string, extraArgs []string) ([]byte, error) {
	o, err := b.checkRead(user, path, "invoke")
	if err != nil {
		return nil, err
	}
	if o.Kind == types.KindLink {
		o, err = b.Cat.GetObject(o.LinkTarget)
		if err != nil {
			return nil, err
		}
	}
	data, err := b.invokeMethod(&o, extraArgs)
	b.audit(user, "invoke", path, err == nil, "")
	return data, err
}

func (b *Broker) invokeMethod(o *types.DataObject, extraArgs []string) ([]byte, error) {
	if o.Kind != types.KindMethod || o.Method == nil {
		return nil, types.E("invoke", o.Path(), types.ErrUnsupported)
	}
	fn, ok := b.command(o.Method.Name)
	if !ok {
		return nil, types.E("invoke", o.Method.Name, types.ErrNotFound)
	}
	args := append(append([]string(nil), o.Method.Args...), extraArgs...)
	return fn(args)
}

// RegisterReplicaSpec attaches a "registered replicate" to a registered
// object: another directory, URL or SQL declared semantically equal.
// "Note that SRB does not check whether a registered replica is really
// an equal of the other copy."
func (b *Broker) RegisterReplicaSpec(user, path string, alt types.AltSpec) error {
	o, err := b.checkWrite(user, path, "registerreplica")
	if err != nil {
		return err
	}
	switch o.Kind {
	case types.KindRegisteredFile, types.KindShadowDir, types.KindSQL, types.KindURL:
	default:
		return types.E("registerreplica", path, types.ErrUnsupported)
	}
	switch alt.Kind {
	case types.KindURL:
		if alt.URL == "" {
			return types.E("registerreplica", path, types.ErrInvalid)
		}
	case types.KindSQL:
		if alt.SQL == nil {
			return types.E("registerreplica", path, types.ErrInvalid)
		}
	case types.KindRegisteredFile, types.KindShadowDir:
		if alt.Resource == "" || alt.PhysicalPath == "" {
			return types.E("registerreplica", path, types.ErrInvalid)
		}
	default:
		return types.E("registerreplica", path, types.ErrInvalid)
	}
	err = b.Cat.UpdateObject(path, func(o *types.DataObject) error {
		o.Alternates = append(o.Alternates, alt)
		return nil
	})
	b.audit(user, "registerreplica", path, err == nil, alt.Kind.String())
	return err
}
