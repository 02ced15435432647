package mcat

import (
	"slices"

	"gosrb/internal/acl"
	"gosrb/internal/types"
)

// commit commits e, built in a pooled line (lend), through the attached
// journal (see commitLocked).
func (c *Catalog) commit(e Entry) error { return c.commitLine(lend(e)) }

// commitLine commits the entry built in l through the attached journal,
// and hands l back.
func (c *Catalog) commitLine(l *lineBuf) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commitLineLocked(l)
}

// commitLineLocked is commitLine for a caller that holds the write lock.
func (c *Catalog) commitLineLocked(l *lineBuf) error {
	err := c.commitLocked(c.journal, &l.e, nil)
	l.free()
	return err
}

// commitLocked is the one way catalog state changes: every mutator, boot
// replay, replication and migration commit entries through it. The arm
// for e's kind checks e against the catalog and stamps its defaults into
// e (a creation time, a resource online, a move's resolved collection);
// then it appends e's line to j — line when the caller has it encoded,
// else e encoded here — and only then applies e. An entry refused by a
// check or by the journal changes nothing, and an entry that would change
// nothing is neither appended nor refused. A nil j appends nothing
// (replay). Callers hold the write lock, which also orders the lines as
// the mutations.
//
// The catalog keeps an object e points to, which its caller hands over
// (a created or an updated row), and copies every other payload: a
// mutator builds its entry in a pooled line (lend), and a reshard
// applies one entry to every shard.
// A stored object row never changes: an update, a rename or a move
// stores a new row in its place, so a row handed to a reader stays as
// it was read (the rowcanary build checks this; see canary.go).
func (c *Catalog) commitLocked(j *Journal, e *Entry, line []byte) error {
	switch op := e.Op; {
	case op == "adduser" && e.User != nil:
		u := *e.User
		if !types.ValidName(u.Name) {
			return types.E(op, u.Name, types.ErrInvalid)
		}
		if _, ok := c.users[u.Name]; ok {
			return types.E(op, u.Name, types.ErrExists)
		}
		if u.CreatedAt.IsZero() {
			u.CreatedAt = c.now()
		}
		e.User = &u
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		c.users[u.Name] = &u

	case op == "deluser":
		if _, ok := c.users[e.Name]; !ok {
			return types.E(op, e.Name, types.ErrNotFound)
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		delete(c.users, e.Name)
		for _, g := range c.groups {
			g.Members = removeString(g.Members, e.Name)
		}

	case op == "addgroup":
		if !types.ValidName(e.Group) {
			return types.E(op, e.Group, types.ErrInvalid)
		}
		if _, ok := c.groups[e.Group]; ok {
			return types.E(op, e.Group, types.ErrExists)
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		c.groups[e.Group] = &types.Group{Name: e.Group}

	case op == "addtogroup":
		g, ok := c.groups[e.Group]
		if !ok {
			return types.E(op, e.Group, types.ErrNotFound)
		}
		if _, ok := c.users[e.Member]; !ok {
			return types.E(op, e.Member, types.ErrNotFound)
		}
		if slices.Contains(g.Members, e.Member) {
			return nil
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		g.Members = append(g.Members, e.Member)

	case op == "rmfromgroup":
		g, ok := c.groups[e.Group]
		if !ok {
			return types.E(op, e.Group, types.ErrNotFound)
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		g.Members = removeString(g.Members, e.Member)

	case op == "addresource" && e.Resource != nil:
		r := *e.Resource
		if !types.ValidName(r.Name) {
			return types.E(op, r.Name, types.ErrInvalid)
		}
		if _, ok := c.resources[r.Name]; ok {
			return types.E(op, r.Name, types.ErrExists)
		}
		if r.Kind == types.ResourceLogical {
			if len(r.Members) < 2 {
				return types.E(op, r.Name, types.ErrInvalid)
			}
			if k, _, err := types.ParseReplPolicy(r.ReplPolicy); err != nil {
				return err
			} else if k > len(r.Members) {
				return types.E(op, r.ReplPolicy, types.ErrInvalid)
			}
			for _, m := range r.Members {
				mr, ok := c.resources[m]
				if !ok {
					return types.E(op, m, types.ErrNotFound)
				}
				if mr.Kind != types.ResourcePhysical {
					return types.E(op, m, types.ErrInvalid)
				}
			}
		}
		if r.CreatedAt.IsZero() {
			r.CreatedAt = c.now()
		}
		r.Online = true
		e.Resource = &r
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		c.resources[r.Name] = &r
		if r.Kind == types.ResourcePhysical {
			c.self[r.Name] = []types.Resource{r}
		}

	case op == "delresource":
		if _, ok := c.resources[e.Name]; !ok {
			return types.E(op, e.Name, types.ErrNotFound)
		}
		for _, r := range c.resources {
			if slices.Contains(r.Members, e.Name) {
				return types.E(op, e.Name, types.ErrInvalid)
			}
		}
		for _, o := range c.objects {
			for _, rep := range o.Replicas {
				if rep.Resource == e.Name {
					return types.E(op, e.Name, types.ErrInvalid)
				}
			}
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		delete(c.resources, e.Name)
		delete(c.self, e.Name)

	case op == "setonline":
		r, ok := c.resources[e.Name]
		if !ok {
			return types.E(op, e.Name, types.ErrNotFound)
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		r.Online = e.Online
		if r.Kind == types.ResourcePhysical {
			c.self[e.Name] = []types.Resource{*r}
		}

	case op == "replpolicy":
		r, ok := c.resources[e.Name]
		if !ok {
			return types.E("setpolicy", e.Name, types.ErrNotFound)
		}
		if r.Kind != types.ResourceLogical {
			return types.E("setpolicy", e.Name, types.ErrInvalid)
		}
		k, _, err := types.ParseReplPolicy(e.Value)
		if err != nil {
			return err
		}
		if k > len(r.Members) {
			return types.E("setpolicy", e.Value, types.ErrInvalid)
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		r.ReplPolicy = e.Value

	case op == "setresourceacl":
		if _, ok := c.resources[e.Name]; !ok {
			return types.E("setacl", e.Name, types.ErrNotFound)
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		key := "resource:" + e.Name
		c.acls[key] = c.acls[key].Grant(e.Grantee, acl.Level(e.Level))

	case op == "repairenq" && e.Repair != nil:
		// An upsert, not EnqueueRepair's add: an attempt count overwrites
		// the task it counts for.
		t := *e.Repair
		if t.Key == "" {
			t.Key = types.RepairKey(t.Path, t.Resource)
		}
		if t.Enqueued.IsZero() {
			t.Enqueued = c.now()
		}
		e.Repair = &t
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		c.repairs[t.Key] = &t

	case op == "repairdone":
		if _, ok := c.repairs[e.Name]; !ok {
			return types.E(op, e.Name, types.ErrNotFound)
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		delete(c.repairs, e.Name)

	case (op == "mkcoll" || op == "linkcoll") && e.Coll != nil:
		// The collection as given: owner, creation time and link target,
		// so a dangling link is restored as it was.
		col := *e.Coll
		col.Path = types.CleanPath(col.Path)
		switch {
		case col.Path == "/" || c.pathExistsLocked(col.Path):
			return types.E(op, col.Path, types.ErrExists)
		case !types.ValidName(types.Base(col.Path)):
			return types.E(op, col.Path, types.ErrInvalid)
		}
		parent := types.Parent(col.Path)
		if _, ok := c.colls[parent]; !ok {
			return types.E(op, parent, types.ErrNotFound)
		}
		if col.CreatedAt.IsZero() {
			col.CreatedAt = c.now()
		}
		e.Coll = &col
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		c.colls[col.Path] = &col
		c.addChildColl(parent, col.Path)

	case op == "rmcoll":
		col, ok := c.colls[e.Path]
		if !ok {
			return types.E(op, e.Path, types.ErrNotFound)
		}
		if e.Path == "/" {
			return types.E(op, e.Path, types.ErrInvalid)
		}
		if col.LinkTarget == "" && (len(c.childColls[e.Path]) > 0 || len(c.childObjs[e.Path]) > 0) {
			return types.E(op, e.Path, types.ErrNotEmpty)
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		delete(c.colls, e.Path)
		c.removeChildColl(types.Parent(e.Path), e.Path)
		c.dropPathState(e.Path)

	case op == "movecoll":
		// The subtree's new keys are built from these paths.
		e.Path, e.Path2 = types.CleanPath(e.Path), types.CleanPath(e.Path2)
		if _, ok := c.colls[e.Path]; !ok {
			return types.E(op, e.Path, types.ErrNotFound)
		}
		if e.Path == "/" || types.WithinOrEqual(e.Path, e.Path2) {
			return types.E(op, e.Path2, types.ErrInvalid)
		}
		if c.pathExistsLocked(e.Path2) {
			return types.E(op, e.Path2, types.ErrExists)
		}
		if _, ok := c.colls[types.Parent(e.Path2)]; !ok {
			return types.E(op, types.Parent(e.Path2), types.ErrNotFound)
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		c.moveSubtreeLocked(e.Path, e.Path2)

	case (op == "register" || op == "ingest") && e.Object != nil:
		// The object with its identity (ID, replicas, timestamps) as given,
		// and for an ingest the user metadata it was put with. The object
		// becomes the row: its caller hands it over (Catalog.Ingest), a
		// decoded entry has no other holder, and an exported one is a copy
		// whose slices are shared read-only, as every row's are.
		o := e.Object
		o.Collection = types.CleanPath(o.Collection)
		// A put names its path (Catalog.Ingest sets it once its line is
		// encoded, so no line carries it); any other entry's is joined.
		path := e.Path
		if !o.PathIs(path) {
			path = o.Path()
		}
		if err := c.checkNewObjectLocked(op, path, o.Collection, o.Name); err != nil {
			return err
		}
		if o.ID == 0 {
			return types.E(op, path, types.ErrInvalid)
		}
		if other, ok := c.byID[o.ID]; ok {
			return types.E(op, other, types.ErrExists)
		}
		var meta []metaEntry
		if len(e.Meta) > 0 {
			meta = make([]metaEntry, len(e.Meta))
			for i, avu := range e.Meta {
				if avu.Name == "" {
					return types.E(op, path, types.ErrInvalid)
				}
				meta[i] = metaEntry{Class: types.MetaUser, AVU: avu}
			}
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		clipRow(o)
		c.objects[path] = o
		c.canary.store(o)
		c.byID[o.ID] = path
		c.addChildObj(o.Collection, path)
		if o.ID >= c.nextID {
			c.nextID = c.alignIDLocked(o.ID + 1)
		}
		if meta != nil {
			c.meta[path] = meta
			for _, avu := range e.Meta {
				c.indexAdd(avu.Name, avu.Value, path)
			}
		}

	case op == "update" && e.Object != nil:
		// The entry's object replaces the one at its path, under its ID.
		path := e.Object.Path()
		cur, ok := c.objects[path]
		if !ok {
			return types.E(op, path, types.ErrNotFound)
		}
		e.Object.ID = cur.ID
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		clipRow(e.Object)
		c.canary.retire(path, cur)
		c.objects[path] = e.Object
		c.canary.store(e.Object)

	case op == "delete":
		o, ok := c.objects[e.Path]
		if !ok {
			return types.E(op, e.Path, types.ErrNotFound)
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		c.canary.retire(e.Path, o)
		delete(c.objects, e.Path)
		delete(c.byID, o.ID)
		c.removeChildObj(o.Collection, e.Path)
		c.dropPathState(e.Path)
		// An attachment naming the object would point at nothing.
		for p, files := range c.fileMeta {
			if i := slices.Index(files, e.Path); i >= 0 {
				c.fileMeta[p] = slices.Delete(files, i, i+1)
			}
			if len(c.fileMeta[p]) == 0 {
				delete(c.fileMeta, p)
			}
		}

	case op == "move":
		// Stamped: the name a move keeps, the collection a link resolves to.
		o, ok := c.objects[e.Path]
		if !ok {
			return types.E(op, e.Path, types.ErrNotFound)
		}
		if e.Name == "" {
			e.Name = o.Name
		}
		if !types.ValidName(e.Name) {
			return types.E(op, e.Name, types.ErrInvalid)
		}
		col, ok := c.colls[e.Path2]
		if !ok {
			return types.E(op, e.Path2, types.ErrNotFound)
		}
		if col.LinkTarget != "" {
			e.Path2 = col.LinkTarget
		}
		newPath := types.Join(e.Path2, e.Name)
		if newPath == e.Path {
			return nil
		}
		if c.pathExistsLocked(newPath) {
			return types.E(op, newPath, types.ErrExists)
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		// The renamed row is a new one: a stored row never changes.
		c.canary.retire(e.Path, o)
		c.removeChildObj(o.Collection, e.Path)
		delete(c.objects, e.Path)
		cp := *o
		cp.Collection, cp.Name = e.Path2, e.Name
		c.objects[newPath] = &cp
		c.canary.store(&cp)
		c.byID[cp.ID] = newPath
		c.addChildObj(e.Path2, newPath)
		c.rekeyPathState(e.Path, newPath)
		// An attachment naming the object follows it.
		for _, files := range c.fileMeta {
			if i := slices.Index(files, e.Path); i >= 0 {
				files[i] = newPath
			}
		}

	case op == "setacl":
		if !c.pathExistsLocked(e.Path) {
			return types.E(op, e.Path, types.ErrNotFound)
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		c.acls[e.Path] = c.acls[e.Path].Grant(e.Grantee, acl.Level(e.Level))

	case op == "addmeta" && e.AVU != nil:
		class, avu := types.MetaClass(e.Class), *e.AVU
		if !c.pathExistsLocked(e.Path) {
			return types.E(op, e.Path, types.ErrNotFound)
		}
		if avu.Name == "" {
			return types.E(op, e.Path, types.ErrInvalid)
		}
		if class == types.MetaSystem {
			return types.E(op, e.Path, types.ErrUnsupported)
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		c.meta[e.Path] = append(c.meta[e.Path], metaEntry{Class: class, AVU: avu})
		if queryableClass(class) {
			c.indexAdd(avu.Name, avu.Value, e.Path)
		}

	case op == "updmeta" && e.AVU != nil && e.NewAVU != nil:
		if c.metaMatchesLocked(e) == 0 {
			return types.E(op, e.Path, types.ErrNotFound)
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		var old []types.AVU
		for i := range c.meta[e.Path] {
			if m := &c.meta[e.Path][i]; matchesMeta(*m, e) {
				old = append(old, m.AVU)
				m.AVU = *e.NewAVU
			}
		}
		if queryableClass(types.MetaClass(e.Class)) {
			c.indexAdd(e.NewAVU.Name, e.NewAVU.Value, e.Path)
			c.unindexGone(old, e.Path)
		}

	case op == "delmeta" && e.AVU != nil:
		if c.metaMatchesLocked(e) == 0 {
			return types.E(op, e.Path, types.ErrNotFound)
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		kept := c.meta[e.Path][:0:0]
		var gone []types.AVU
		for _, m := range c.meta[e.Path] {
			if matchesMeta(m, e) {
				gone = append(gone, m.AVU)
			} else {
				kept = append(kept, m)
			}
		}
		if len(kept) == 0 {
			delete(c.meta, e.Path)
		} else {
			c.meta[e.Path] = kept
		}
		if queryableClass(types.MetaClass(e.Class)) {
			c.unindexGone(gone, e.Path)
		}

	case op == "copymeta":
		from, to := e.Path, e.Path2
		if !c.pathExistsLocked(from) {
			return types.E(op, from, types.ErrNotFound)
		}
		if !c.pathExistsLocked(to) {
			return types.E(op, to, types.ErrNotFound)
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		for _, m := range c.meta[from] {
			if queryableClass(m.Class) {
				c.meta[to] = append(c.meta[to], m)
				c.indexAdd(m.AVU.Name, m.AVU.Value, to)
			}
		}

	case op == "filemeta":
		if !c.pathExistsLocked(e.Path) {
			return types.E(op, e.Path, types.ErrNotFound)
		}
		if _, ok := c.objects[e.Path2]; !ok {
			return types.E(op, e.Path2, types.ErrNotFound)
		}
		if slices.Contains(c.fileMeta[e.Path], e.Path2) {
			return nil
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		c.fileMeta[e.Path] = append(c.fileMeta[e.Path], e.Path2)

	case op == "structural" && e.Attr != nil:
		if _, ok := c.colls[e.Path]; !ok {
			return types.E(op, e.Path, types.ErrNotFound)
		}
		if e.Attr.Name == "" {
			return types.E(op, e.Path, types.ErrInvalid)
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		list := c.structural[e.Path]
		if i := slices.IndexFunc(list, func(a types.StructuralAttr) bool { return lowerEq(a.Name, e.Attr.Name) }); i >= 0 {
			list[i] = *e.Attr
		} else {
			c.structural[e.Path] = append(list, *e.Attr)
		}

	case op == "delstructural":
		list := c.structural[e.Path]
		i := slices.IndexFunc(list, func(a types.StructuralAttr) bool { return lowerEq(a.Name, e.Name) })
		if i < 0 {
			return types.E("structural", e.Path+"#"+e.Name, types.ErrNotFound)
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		c.structural[e.Path] = append(list[:i], list[i+1:]...)

	case op == "annotate" && e.Ann != nil:
		if !c.pathExistsLocked(e.Path) {
			return types.E(op, e.Path, types.ErrNotFound)
		}
		if e.Ann.CreatedAt.IsZero() {
			e.Ann.CreatedAt = c.now()
		}
		if e.Ann.Kind == "" {
			e.Ann.Kind = "comment"
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		c.annots[e.Path] = append(c.annots[e.Path], *e.Ann)

	case op == "delannotations":
		if !c.pathExistsLocked(e.Path) {
			return types.E("annotations", e.Path, types.ErrNotFound)
		}
		kept := c.annots[e.Path][:0:0]
		for _, a := range c.annots[e.Path] {
			if e.Name != "" && a.Author != e.Name {
				kept = append(kept, a)
			}
		}
		if len(kept) == len(c.annots[e.Path]) {
			return types.E("annotations", e.Path, types.ErrNotFound)
		}
		if err := c.appendLocked(j, e, line); err != nil {
			return err
		}
		if len(kept) == 0 {
			delete(c.annots, e.Path)
		} else {
			c.annots[e.Path] = kept
		}

	default:
		return types.E("apply", op, types.ErrInvalid)
	}
	return nil
}
