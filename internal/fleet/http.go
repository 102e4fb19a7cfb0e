package fleet

import (
	"fmt"
	"net/http"

	"memsched/internal/serve"
)

// Handler returns the router's HTTP API: a replica's jobs surface
// (serve.JobsMux: /jobs, /healthz, /readyz, /metrics, /debug/flight,
// /debug/spans.jsonl) so clients can point at either, plus membership:
//
//	GET    /replicas    health view of every replica
//	POST   /replicas    join a replica: {"replica":"http://host:port"}
//	DELETE /replicas?replica=URL[&force=1]
//	                    leave a replica (drain-aware unless force=1)
func (r *Router) Handler() http.Handler {
	mux := serve.JobsMux[JobStatus, ReadyStatus, Metrics](r)
	mux.HandleFunc("GET /replicas", func(w http.ResponseWriter, req *http.Request) {
		serve.WriteJSON(w, http.StatusOK, r.Replicas())
	})
	mux.HandleFunc("POST /replicas", r.handleReplicaJoin)
	mux.HandleFunc("DELETE /replicas", r.handleReplicaLeave)
	return mux
}

func (r *Router) handleReplicaJoin(w http.ResponseWriter, req *http.Request) {
	var body struct {
		Replica string `json:"replica"`
	}
	if !serve.ReadJSON(w, req, 1<<16, &body) {
		return
	}
	if err := r.AddReplica(body.Replica); err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	serve.WriteJSON(w, http.StatusOK, r.Replicas())
}

func (r *Router) handleReplicaLeave(w http.ResponseWriter, req *http.Request) {
	replica := req.URL.Query().Get("replica")
	if replica == "" {
		serve.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "missing replica query parameter"})
		return
	}
	force := false
	switch v := req.URL.Query().Get("force"); v {
	case "", "0", "false":
	case "1", "true":
		force = true
	default:
		serve.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad force value %q", v)})
		return
	}
	if err := r.RemoveReplica(replica, force); err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	serve.WriteJSON(w, http.StatusOK, r.Replicas())
}
