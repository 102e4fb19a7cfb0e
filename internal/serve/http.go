package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"memsched/internal/obs"
)

// TraceHeader carries a propagated trace ID on forwarded submissions
// (router → replica). The value is the decimal uint64 trace ID.
const TraceHeader = "X-Memsched-Trace"

// JobAPI is the backend of the jobs HTTP surface: a replica's *Server,
// or the fleet router. S is its job status, R its /readyz body and M its
// JSON metrics snapshot.
type JobAPI[S any, R ReadyBody, M any] interface {
	SubmitTraced(req JobRequest, extTrace uint64) (S, error)
	List() []S
	Job(id string) (S, error)
	Wait(ctx context.Context, id string) (S, error)
	Cancel(id string) (S, error)
	Ready() R
	Snapshot() M
	WritePrometheus(w io.Writer) error
	FlightDump(n int) Flight
	Spans() []obs.Span
}

// ReadyBody is a /readyz body that knows its response code; both
// bodies get it by embedding Readiness.
type ReadyBody interface{ HTTPStatus() int }

// Readiness heads every /readyz body: "ready" or "draining", plus the
// drain flag a fleet health prober keys on to tell a draining process
// (alive, finishing in-flight work, send nothing new) from a dead one.
type Readiness struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
}

// NewReadiness is the head of a process that is, or is not, draining.
func NewReadiness(draining bool) Readiness {
	if draining {
		return Readiness{Status: "draining", Draining: true}
	}
	return Readiness{Status: "ready"}
}

// HTTPStatus is the /readyz response code: 503 once draining.
func (r Readiness) HTTPStatus() int {
	if r.Draining {
		return http.StatusServiceUnavailable
	}
	return http.StatusOK
}

// JobsMux returns the route table a replica and the router share, so
// clients can point at either:
//
//	POST   /jobs        submit a JobRequest; 202 + status, or 400 /
//	                    429 (+Retry-After) / 503 (+Retry-After)
//	GET    /jobs        list all jobs in submission order
//	GET    /jobs/{id}   poll one job; ?wait=1 long-polls until it is
//	                    terminal (bounded by the request context)
//	DELETE /jobs/{id}   cancel a job
//	GET    /healthz     liveness: 200 while the process runs
//	GET    /readyz      readiness: 200, or 503 once draining
//	GET    /metrics     Prometheus text exposition (0.0.4); the JSON
//	                    snapshot with Accept: application/json or
//	                    ?format=json
//	GET    /debug/flight       flight recorder: last N job timelines +
//	                           last N service events (?n=)
//	GET    /debug/spans.jsonl  the retained span ring as JSONL
//
// All responses are JSON except the Prometheus exposition and the JSONL
// span export. Every debug/metrics handler snapshots first and formats
// after — none holds the submission lock while rendering. Callers mount
// their own routes on the returned mux.
func JobsMux[S any, R ReadyBody, M any](api JobAPI[S, R, M]) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var req JobRequest
		if !ReadJSON(w, r, 1<<20, &req) {
			return
		}
		// A router forwarding the job propagates its trace ID so the spans
		// recorded downstream correlate with the router's flight recorder.
		// A malformed header is ignored rather than rejected: tracing is
		// observability, not admission control.
		var extTrace uint64
		if h := r.Header.Get(TraceHeader); h != "" {
			if v, err := strconv.ParseUint(h, 10, 64); err == nil {
				extTrace = v
			}
		}
		st, err := api.SubmitTraced(req, extTrace)
		if err != nil {
			writeReject(w, err)
			return
		}
		WriteJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, api.List())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if r.URL.Query().Get("wait") != "" {
			// Long-poll: the request context bounds the wait, so a client
			// disconnect or timeout releases the handler immediately.
			writeJob(w, func() (S, error) { return api.Wait(r.Context(), id) })
		} else {
			writeJob(w, func() (S, error) { return api.Job(id) })
		}
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		writeJob(w, func() (S, error) { return api.Cancel(r.PathValue("id")) })
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// The body carries saturation and the drain flag in both the 200
		// and the 503 so a health prober can tell "draining" from "dead".
		st := api.Ready()
		WriteJSON(w, st.HTTPStatus(), st)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// An unrecognized ?format= is a 400, not a silent fallback: a
		// scraper that typos "josn" should find out from the response.
		switch format := r.URL.Query().Get("format"); format {
		case "json":
			WriteJSON(w, http.StatusOK, api.Snapshot())
			return
		case "", "prometheus":
		default:
			WriteJSON(w, http.StatusBadRequest, map[string]string{
				"error": fmt.Sprintf("unknown format %q (json, prometheus)", format)})
			return
		}
		if strings.Contains(r.Header.Get("Accept"), "application/json") {
			WriteJSON(w, http.StatusOK, api.Snapshot())
			return
		}
		// Render into a buffer first so an encoding error can still become
		// a 500 instead of a torn 200.
		var buf bytes.Buffer
		if err := api.WritePrometheus(&buf); err != nil {
			WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		w.Header().Set("Content-Type", obs.PromContentType)
		w.WriteHeader(http.StatusOK)
		w.Write(buf.Bytes())
	})
	mux.HandleFunc("GET /debug/flight", func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 1 {
				WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "n must be a positive integer"})
				return
			}
			n = v
		}
		WriteJSON(w, http.StatusOK, api.FlightDump(n))
	})
	mux.HandleFunc("GET /debug/spans.jsonl", func(w http.ResponseWriter, r *http.Request) {
		spans := api.Spans()
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		obs.WriteJSONL(w, spans)
	})
	return mux
}

// Handler returns the HTTP API of the server: the JobsMux routes plus
//
//	GET    /debug/jobs/{id}/trace one job's span timeline
func (s *Server) Handler() http.Handler {
	mux := JobsMux[JobStatus, ReadyStatus, Metrics](s)
	mux.HandleFunc("GET /debug/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		writeJob(w, func() (JobTrace, error) { return s.JobTraceDump(r.PathValue("id")) })
	})
	return mux
}

// writeJob answers one job lookup: 404 for an unknown ID, otherwise 200
// with whatever status the lookup produced.
func writeJob[S any](w http.ResponseWriter, lookup func() (S, error)) {
	st, err := lookup()
	if errors.Is(err, ErrUnknownJob) {
		WriteJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

// ReadJSON decodes a request body of at most limit bytes into v,
// refusing unknown fields. On failure it writes the 400 and returns
// false.
func ReadJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad request body: %v", err)})
		return false
	}
	return true
}

// writeReject maps a Submit rejection onto its HTTP status and
// Retry-After header.
func writeReject(w http.ResponseWriter, err error) {
	var rej *RejectError
	if !errors.As(err, &rej) {
		WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	if rej.RetryAfter > 0 {
		secs := int(math.Ceil(rej.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	WriteJSON(w, rej.Status, map[string]string{"error": rej.Reason})
}

// WriteJSON writes v as an indented JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// ServeUntilSignal serves h on ln until SIGTERM or SIGINT, then drains
// while the HTTP server keeps answering — so /readyz reports 503 and
// polls on in-flight jobs still resolve — and shuts the server down. It
// returns the daemon's exit code (1 if serving failed, the drain missed
// its deadline or the shutdown failed) and whether a drain ran.
func ServeUntilSignal(ln net.Listener, h http.Handler, logger *slog.Logger, drainTimeout time.Duration, drain func(time.Duration) error) (code int, drained bool) {
	httpSrv := &http.Server{Handler: h}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case got := <-sig:
		logger.Info("signal received; draining", "signal", got.String(), "timeout", drainTimeout.String())
	case err := <-httpErr:
		logger.Error("http server failed", "err", err)
		return 1, false
	}

	if err := drain(drainTimeout); err != nil {
		logger.Error("drain incomplete", "err", err)
		code = 1
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		logger.Error("http shutdown failed", "err", err)
		code = 1
	}
	return code, true
}
