package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strings"
	"time"

	"gosrb/internal/core"
	"gosrb/internal/obs"
	"gosrb/internal/report"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// NewAdminHandler builds the admin mux over env: the operator-facing
// HTTP endpoint riding alongside the wire listener. This package only
// builds the handler; daemon.Runtime.ServeAdmin listens, serves it on
// -admin-addr and shuts it down, over the env Server.AdminEnv gives
// srbd. It is read-only (but for /repair's pause and resume) and
// unauthenticated, so bind it to localhost in production. Every status feed in
// report.All has a route, "/"+Name, derived from its row: the feed's
// parameters are query keys (?window=5m, ?user=alice), and the answer is
// the row's reply as JSON or its rendering as text — ?format=json or
// ?format=text picks, the row says which is the default (/peers, /usage,
// /heat and /trace/{id} default to text, the rest to JSON). Beside them:
//
//	/metrics       Prometheus text exposition format; append
//	               ?format=openmetrics for OpenMetrics with trace-ID
//	               tail exemplars on histogram buckets (audit drops
//	               refreshed per scrape). Windowed rates and quantiles
//	               from the rollup ring are the grid feed's:
//	               /grid?grid=0&window=5m&format=text
//	/healthz       readiness probe: 200 when healthy, 503 with one
//	               detail line per open breaker / offline resource /
//	               wedged repair engine; the repair backlog line and
//	               "warn:" SLO lines are informational in both cases
//	/repair        the repair feed; ?action=pause|resume via POST first
//	               suspends/resumes background maintenance
//	/trace/{id}    the trace feed for one trace ID; 404 when no ring
//	               still holds a span of it
//	/incidents/{id} one incident bundle's meta; ?file= serves a member
//	/debug/pprof/  the Go runtime profiler
func NewAdminHandler(env report.Env) http.Handler {
	b := env.Broker
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		reg := b.Metrics()
		reg.Gauge("audit.dropped").Set(b.Audit.Dropped())
		b.Breakers().Publish()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if r.URL.Query().Get("format") == "openmetrics" {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			obs.WriteOpenMetrics(w, reg.Snapshot())
			return
		}
		obs.WritePrometheus(w, reg.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		b.Breakers().Publish()
		uptime := b.Metrics().Snapshot().UptimeSeconds
		ok, detail := readiness(b, env.Name)
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "degraded %s version=%s uptime=%.0fs\n", env.Name, obs.Version, uptime)
		} else {
			fmt.Fprintf(w, "ok %s version=%s uptime=%.0fs\n", env.Name, obs.Version, uptime)
		}
		for _, d := range detail {
			fmt.Fprintf(w, "%s\n", d)
		}
	})
	for _, rp := range report.All {
		h := func(w http.ResponseWriter, r *http.Request) {
			rep, err := rp.Produce(env, r.URL.Query())
			writeReport(w, rp, r.URL.Query(), rep, err)
		}
		if rp.Name == "repair" {
			h = repairActions(b, h)
		}
		mux.HandleFunc("/"+rp.Name, h)
	}
	mux.HandleFunc("/trace/", func(w http.ResponseWriter, r *http.Request) {
		rp, q := report.Lookup("trace"), r.URL.Query()
		q.Set("id", strings.TrimPrefix(r.URL.Path, "/trace/"))
		rep, err := rp.Produce(env, q)
		if tr, ok := rep.(wire.TraceReply); ok && err == nil && len(tr.Spans) == 0 {
			err = types.E("trace", q.Get("id"), fmt.Errorf("ring may have wrapped: %w", types.ErrNotFound))
		}
		writeReport(w, rp, q, rep, err)
	})
	mux.HandleFunc("/incidents/", func(w http.ResponseWriter, r *http.Request) {
		// A file query serves one raw bundle member; otherwise the meta
		// with its file listing.
		name := r.URL.Query().Get("file")
		meta, data, err := report.Bundle(env, strings.TrimPrefix(r.URL.Path, "/incidents/"), name)
		switch {
		case err != nil:
			http.Error(w, err.Error(), http.StatusNotFound)
		case name != "":
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(data)
		default:
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(meta)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeReport answers one status feed: the reply as JSON, or its
// rendering as text. A producer's error maps to the status a client can
// act on: bad parameters 400, nothing to report (no pool on this daemon,
// no span left of that trace) 404.
func writeReport(w http.ResponseWriter, rp *report.Report, q url.Values, rep any, err error) {
	switch {
	case errors.Is(err, types.ErrInvalid):
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if f := q.Get("format"); f == "json" || f == "" && !rp.Text {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rp.Render(rep, q).WriteText(w)
}

// repairActions wraps the repair feed's route: ?action=pause|resume via
// POST suspends or resumes background maintenance, then the feed
// answers as usual.
func repairActions(b *core.Broker, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		switch action := r.URL.Query().Get("action"); action {
		case "":
		case "pause", "resume":
			eng := b.Repair()
			if eng == nil {
				http.Error(w, "no repair engine", http.StatusNotFound)
				return
			}
			if r.Method != http.MethodPost {
				http.Error(w, "pause/resume require POST", http.StatusMethodNotAllowed)
				return
			}
			if action == "pause" {
				eng.Pause()
			} else {
				eng.Resume()
			}
		default:
			http.Error(w, "unknown action (want pause or resume)", http.StatusBadRequest)
			return
		}
		next(w, r)
	}
}

// adminGridDeadline bounds the zone fan-out behind the admin endpoint's
// feeds; a dead peer costs one refused dial, well inside it.
const adminGridDeadline = 5 * time.Second

// AdminEnv is the env of a local surface — the admin endpoint, the
// flight recorder's grid snapshot: it reaches the zone as admin, the
// daemon's administrator, so peers forward and account the gather under
// a user their catalog holds; each gather gets adminGridDeadline.
func (s *Server) AdminEnv(admin string) report.Env {
	return s.env(reach{s: s, user: admin, budget: adminGridDeadline})
}
