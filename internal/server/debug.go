package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Live introspection endpoints. The flight recorder (obs.Recorder)
// retains sampled and outlier request traces; these handlers serve
// them — and a consistent snapshot of the server's live state — as
// JSON an operator can curl mid-incident without restarting anything.
//
//	GET /debug/requests            recorder stats + recent and slowest
//	                               traces with per-span breakdowns
//	GET /debug/requests/{id}       one trace as Chrome trace_event JSON
//	                               (load in chrome://tracing or Perfetto)
//	GET /debug/state               session table, live sharded-solve
//	                               fan-out, prepared-cache residency
//	                               with pin counts, link-memo entries
//	                               and bytes, pool occupancy,
//	                               result-cache bytes against budget
//
// They are routed on the public mux (they are cheap, bounded reads;
// traces never contain request bodies) and skipped by the tracing
// middleware so reading the recorder does not write to it.

// debugRequestsResponse is the wire form of GET /debug/requests.
type debugRequestsResponse struct {
	Recorder obs.RecorderStats   `json:"recorder"`
	Recent   []obs.TraceSnapshot `json:"recent"`
	Slowest  []obs.TraceSnapshot `json:"slowest"`
}

// maxDebugTraces caps ?n= so one curl cannot serialize an unbounded
// response (the ring itself is bounded, but snapshots copy spans).
const maxDebugTraces = 512

func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if s.recorder == nil {
		writeError(w, http.StatusNotFound, "tracing disabled (TraceRing < 0)")
		return
	}
	n := 20
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			writeError(w, http.StatusBadRequest, "bad n: want a positive integer")
			return
		}
		n = min(parsed, maxDebugTraces)
	}
	writeJSON(w, http.StatusOK, debugRequestsResponse{
		Recorder: s.recorder.Stats(),
		Recent:   s.recorder.Recent(n),
		Slowest:  s.recorder.Slowest(n),
	})
}

func (s *Server) handleDebugRequestTrace(w http.ResponseWriter, r *http.Request) {
	if s.recorder == nil {
		writeError(w, http.StatusNotFound, "tracing disabled (TraceRing < 0)")
		return
	}
	id := r.PathValue("id")
	snap, ok := s.recorder.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("trace %q not retained (evicted, unsampled, or never seen)", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("inline; filename=%q", "trace-"+id+".json"))
	if err := snap.WriteTraceEvent(w); err != nil {
		// Headers are gone; nothing truthful left to send.
		return
	}
}

// debugSessionInfo is one live streaming session in GET /debug/state.
type debugSessionInfo struct {
	ID            string  `json:"id"`
	OriginTraceID string  `json:"origin_trace_id,omitempty"`
	Algorithm     string  `json:"algorithm"`
	N             int     `json:"n"`
	Seq           uint64  `json:"seq"`
	ReplayBacklog int     `json:"replay_backlog"`
	Streaming     bool    `json:"streaming"`
	IdleMS        float64 `json:"idle_ms"`
}

// debugShardSolveInfo is one in-flight tile-sharded solve in
// GET /debug/state: its shard fan-out so far, folded live from the
// solve's span counters while tile workers are still running.
type debugShardSolveInfo struct {
	TraceID   string `json:"trace_id,omitempty"`
	Algorithm string `json:"algorithm"`
	N         int    `json:"n"`
	// Shards is the requested tile count (0 = auto-sized).
	Shards int `json:"shards,omitempty"`
	// Tiles is the realized partition size; 0 until partitioning ran.
	Tiles           int64   `json:"tiles"`
	TilesSolved     int64   `json:"tiles_solved"`
	TileAdmitted    int64   `json:"tile_admitted"`
	BoundaryRepairs int64   `json:"boundary_repairs"`
	ElapsedMS       float64 `json:"elapsed_ms"`
}

// debugStateResponse is the wire form of GET /debug/state.
type debugStateResponse struct {
	Sessions         []debugSessionInfo    `json:"sessions"`
	SessionsReserved int                   `json:"sessions_reserved,omitempty"`
	MaxSessions      int                   `json:"max_sessions"`
	ShardSolves      []debugShardSolveInfo `json:"sharded_solves,omitempty"`
	Prepared         []prepEntryInfo       `json:"prepared_cache"`
	LinksMemo        debugLinksMemoInfo    `json:"links_memo"`
	ResultCache      debugResultCacheInfo  `json:"result_cache"`
	Pool             debugPoolInfo         `json:"pool"`
	Recorder         obs.RecorderStats     `json:"recorder"`
}

// debugResultCacheInfo is the response cache's residency against its
// byte budget (budget ≤ 0: caching disabled).
type debugResultCacheInfo struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	Budget  int64 `json:"budget"`
}

// debugLinksMemoInfo is the link memo's residency against its entry
// bound (capacity ≤ 0: memo off).
type debugLinksMemoInfo struct {
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	Capacity int   `json:"capacity"`
}

type debugPoolInfo struct {
	Capacity int   `json:"capacity"`
	InUse    int   `json:"in_use"`
	Queued   int64 `json:"queued"`
}

func (s *Server) handleDebugState(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	s.sessMu.Lock()
	reserved := s.sessReserved
	sessions := make([]debugSessionInfo, 0, len(s.sessions))
	for _, sess := range s.sessions {
		// sessMu before sess.mu is the registry's documented lock order
		// (see session.mu); each session is held only long enough to copy
		// scalar fields.
		sess.mu.Lock()
		sessions = append(sessions, debugSessionInfo{
			ID:            sess.id,
			OriginTraceID: sess.origin,
			Algorithm:     sess.algoName,
			N:             sess.ed.N(),
			Seq:           sess.seq,
			ReplayBacklog: len(sess.replay),
			Streaming:     sess.streaming,
			IdleMS:        float64(now.Sub(sess.lastEvent).Microseconds()) / 1e3,
		})
		sess.mu.Unlock()
	}
	s.sessMu.Unlock()

	s.liveMu.Lock()
	shardSolves := make([]debugShardSolveInfo, 0, len(s.liveSolves))
	for ls := range s.liveSolves {
		// SolveStats folds the solve's trace under its own mutex; the
		// tile workers bumping these counters mid-solve are safe
		// concurrent writers.
		st := ls.trace.SolveStats()
		shardSolves = append(shardSolves, debugShardSolveInfo{
			TraceID:         ls.traceID,
			Algorithm:       ls.algorithm,
			N:               ls.links,
			Shards:          ls.shards,
			Tiles:           st.Counter(obs.KeyTiles),
			TilesSolved:     st.Counter(obs.KeyTilesSolved),
			TileAdmitted:    st.Counter(obs.KeyTileAdmitted),
			BoundaryRepairs: st.Counter(obs.KeyBoundaryRepairs),
			ElapsedMS:       float64(now.Sub(ls.started).Microseconds()) / 1e3,
		})
	}
	s.liveMu.Unlock()
	sort.Slice(shardSolves, func(i, j int) bool {
		return shardSolves[i].ElapsedMS > shardSolves[j].ElapsedMS
	})

	entries, bytes := s.cache.residency()
	memoEntries, memoBytes := s.memo.residency()
	writeJSON(w, http.StatusOK, debugStateResponse{
		Sessions:         sessions,
		SessionsReserved: reserved,
		MaxSessions:      s.cfg.MaxSessions,
		ShardSolves:      shardSolves,
		Prepared:         s.preps.snapshot(),
		LinksMemo:        debugLinksMemoInfo{Entries: memoEntries, Bytes: memoBytes, Capacity: s.memo.cap},
		ResultCache:      debugResultCacheInfo{Entries: entries, Bytes: bytes, Budget: s.cfg.CacheBytes},
		Pool: debugPoolInfo{
			Capacity: s.pool.capacity(),
			InUse:    s.pool.inUse(),
			Queued:   s.pool.queued(),
		},
		Recorder: s.recorder.Stats(),
	})
}
