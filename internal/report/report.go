// Package report defines gosrb's read-only status feeds once. Each feed
// is one row: a producer over an Env, the reply struct it fills, and a
// renderer that draws the reply as a Doc. Every surface is derived from
// the row — the wire handler (internal/server), the admin route (text or
// ?format=json), `srb <verb> [-json]` (cmd/srb) and the data behind the
// MySRB pages (internal/mysrb) — so a new feed is one row in rows.go.
package report

import (
	"fmt"
	"net/url"
	"strings"
	"time"

	"gosrb/internal/core"
	"gosrb/internal/obs"
	"gosrb/internal/traceid"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// Env is what a producer reads: the daemon it reports on, as seen by one
// caller.
type Env struct {
	// Name identifies the daemon in reply envelopes.
	Name string
	// Broker supplies metrics, breakers, catalog, repair engine, SLO state
	// and flight recorder.
	Broker *core.Broker
	// Zone, when set, reaches the daemon's federation peers: the grid and
	// trace reports then cover the zone. nil (MySRB's status pages, and
	// srbd answering a peer) keeps them to this daemon, bounding a gather
	// to one hop.
	Zone Zone
	// Pool, when set, reports the daemon's federation connection pool
	// (MySRB's status pages report on an env of their own and leave it
	// nil).
	Pool func() wire.PoolStats
}

// Zone gathers the peers' parts of the reports that span a federation.
// Both calls are best-effort: a dead peer keeps its grid member slot,
// flagged unreachable, and simply contributes no spans.
type Zone interface {
	GridMembers(window time.Duration) []wire.GridMember
	TraceSpans(id traceid.ID) []obs.SpanRecord
}

// Caller performs one wire call (client.Client.Call).
type Caller func(op string, args, out any) error

// Report is one status feed: the names of its surfaces, and its typed
// producer, argument builder and renderer behind four functions.
type Report struct {
	// Name is the admin route ("/"+Name), the MySRB data key and an srb
	// verb.
	Name string
	// Verb is srb's traditional verb for the feed (Name when left empty).
	Verb string
	// Op is the wire op that serves the feed; "" when it has none, and
	// then srb has no verb for it either.
	Op string
	// Help is the feed's line in srb's usage text.
	Help string
	// Params lists what the feed accepts: "name" is a positional word (a
	// query key on HTTP), "-name" a boolean flag, "-name=" a flag that
	// takes a value.
	Params []string
	// Text makes text the admin route's default format (?format=json for
	// JSON); otherwise JSON is (?format=text for text).
	Text bool

	// Produce answers from the daemon itself, with parameters as an admin
	// route or a MySRB page receives them.
	Produce func(Env, url.Values) (any, error)
	// Serve answers the feed's wire op from the request's encoded
	// arguments.
	Serve func(Env, []byte) (any, error)
	// Fetch asks a server for the feed over the wire.
	Fetch func(Caller, url.Values) (any, error)
	// Render draws a reply that Produce, Serve or Fetch returned; it may
	// read presentation parameters.
	Render func(any, url.Values) Doc
}

// define builds a row from its typed parts: args turns named parameters
// into the op's argument struct (nil when the feed takes none), produce
// answers from the daemon, render draws the reply.
func define[A, R any](r Report, args func(url.Values) (A, error), produce func(Env, A) (R, error), render func(R, url.Values) Doc) *Report {
	if args == nil {
		args = func(url.Values) (a A, err error) { return }
	}
	if r.Verb == "" {
		r.Verb = r.Name
	}
	r.Produce = func(env Env, p url.Values) (any, error) {
		a, err := args(p)
		if err != nil {
			return nil, err
		}
		return produce(env, a)
	}
	r.Serve = func(env Env, raw []byte) (any, error) {
		a, err := wire.DecodeArgs[A](raw)
		if err != nil {
			return nil, err
		}
		return produce(env, a)
	}
	r.Fetch = func(call Caller, p url.Values) (any, error) {
		a, err := args(p)
		if err != nil {
			return nil, err
		}
		var rep R
		return rep, call(r.Op, a, &rep)
	}
	r.Render = func(rep any, p url.Values) Doc { return render(rep.(R), p) }
	return &r
}

// Synopsis is the feed's srb command line.
func (r *Report) Synopsis() string {
	words := []string{r.Verb}
	for _, p := range r.Params {
		words = append(words, "["+strings.Replace(p, "=", " v", 1)+"]")
	}
	return strings.Join(append(words, "[-json]"), " ")
}

// ParseWords turns the words after srb's verb into named parameters;
// every feed also takes -json, anywhere among them. A boolean flag the
// words leave out is recorded as "0": the command line says no, where an
// HTTP query that does not mention it takes the feed's default.
func (r *Report) ParseWords(words []string) (url.Values, error) {
	p := url.Values{}
	var positional []string
	takesValue := map[string]bool{"-json": false}
	for _, name := range r.Params {
		switch {
		case !strings.HasPrefix(name, "-"):
			positional = append(positional, name)
		case strings.HasSuffix(name, "="):
			takesValue[strings.TrimSuffix(name, "=")] = true
		default:
			takesValue[name] = false
			p.Set(name[1:], "0")
		}
	}
	for i := 0; i < len(words); i++ {
		w := words[i]
		takes, flag := takesValue[w]
		switch {
		case flag && !takes:
			p.Set(w[1:], "1")
		case flag:
			if i++; i >= len(words) {
				return nil, fmt.Errorf("%s needs a value", w)
			}
			p.Set(w[1:], words[i])
		case strings.HasPrefix(w, "-"):
			return nil, fmt.Errorf("unknown %s flag %q (usage: %s)", r.Verb, w, r.Synopsis())
		case len(positional) > 0:
			p.Set(positional[0], w)
			positional = positional[1:]
		default:
			return nil, fmt.Errorf("unexpected argument %q (usage: %s)", w, r.Synopsis())
		}
	}
	return p, nil
}

// Lookup finds a report by name or srb verb.
func Lookup(name string) *Report {
	for _, r := range All {
		if r.Name == name || r.Verb == name {
			return r
		}
	}
	return nil
}

// defaultWindow is the trailing window of the windowed reports when
// none is asked for.
const defaultWindow = 5 * time.Minute

// Window reads the "window" parameter: a positive duration like 5m.
func Window(p url.Values) (time.Duration, error) {
	q := p.Get("window")
	if q == "" {
		return defaultWindow, nil
	}
	d, err := time.ParseDuration(q)
	if err != nil || d <= 0 {
		return 0, types.E("window", q, fmt.Errorf("want a duration like 5m: %w", types.ErrInvalid))
	}
	return d, nil
}
