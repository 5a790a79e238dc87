package server

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Streaming scheduling sessions: POST /v1/session registers a link set
// against a server-owned Prepared handle; the client then streams
// move/add/remove/retune events (line-delimited JSON over one
// long-lived full-duplex request) and receives re-solved schedule
// deltas, each tagged with a monotonic sequence number. A move costs
// only the DenseField column patch (and a row refill if the solve
// reads the moved row) plus one warm solve — never a rebuild that
// drops every row the session's solves have filled.
//
// Resume: every applied delta is retained in a bounded per-session
// replay window; GET /v1/session/{id}/deltas?seq=N replays exactly the
// deltas after N (long-polling via wait_ms when none are pending), so
// a client that lost its stream reconciles without re-registering. A
// seq that has fallen out of the window gets 410 and must re-register.
//
// Lifecycle: sessions are bounded in number (MaxSessions ⇒ 429 when
// full), evicted after SessionTTL without an event or live stream, and
// drained by Server.Close — live streams and long-polls unblock and
// end before the HTTP server's own Shutdown is asked to wait on them.

// maxEventLine caps one event frame on the stream; a longer line is a
// framing error that terminates the stream (the session survives).
const maxEventLine = 1 << 20

// SessionRequest is the wire form of POST /v1/session: the link set,
// algorithm, and model parameters the session's Prepared handle is
// built for. Fields match SolveRequest exactly; the Monte-Carlo knobs
// are absent because a session answers schedules, not simulations.
type SessionRequest struct {
	Algorithm string         `json:"algorithm"`
	Links     []network.Link `json:"links"`

	Alpha   float64 `json:"alpha,omitempty"`
	GammaTh float64 `json:"gamma_th,omitempty"`
	Eps     float64 `json:"eps,omitempty"`
	Power   float64 `json:"power,omitempty"`
	N0      float64 `json:"n0,omitempty"`
	Field   string  `json:"field,omitempty"`
	Cutoff  float64 `json:"cutoff,omitempty"`

	wire wireLinks
}

func (q *SessionRequest) linkState() (*[]network.Link, *wireLinks) { return &q.Links, &q.wire }

// solveView adapts the request to the SolveRequest validation and
// field-key methods (the same adapter TrafficRequest uses).
func (q *SessionRequest) solveView() *SolveRequest {
	return &SolveRequest{
		Algorithm: q.Algorithm,
		Links:     q.Links,
		Alpha:     q.Alpha, GammaTh: q.GammaTh, Eps: q.Eps,
		Power: q.Power, N0: q.N0,
		Field: q.Field, Cutoff: q.Cutoff,
		wire: q.wire,
	}
}

// SessionResponse is the wire form of a session registration and of
// GET /v1/session/{id}. Seq is the sequence number of the state the
// response describes (0 = the registration solve); a client resuming
// from this snapshot asks /deltas?seq=<Seq>. Links is populated only
// by the state endpoint — the registering client already has them.
type SessionResponse struct {
	SessionID  string         `json:"session_id"`
	Seq        uint64         `json:"seq"`
	Algorithm  string         `json:"algorithm"`
	Field      string         `json:"field"`
	Eps        float64        `json:"eps"`
	N          int            `json:"n"`
	Active     []int          `json:"active"`
	Throughput float64        `json:"throughput"`
	Links      []network.Link `json:"links,omitempty"`
}

// replayEntry is one retained delta frame (newline-terminated).
type replayEntry struct {
	seq  uint64
	line []byte
}

// session is one live streaming session. All mutable state is guarded
// by mu; event application holds mu across the solve, which is the
// per-session serialization the protocol promises (deltas are totally
// ordered by seq). done closes exactly once, when the session leaves
// the registry, and unblocks any live stream or long-poll.
type session struct {
	id       string
	key      cacheKey
	algoName string
	algo     sched.Algorithm
	// origin is the trace ID of the request that registered the session;
	// resume responses echo it in X-Origin-Trace-Id so a reconnecting
	// client (and an operator reading the flight recorder) can correlate
	// a long-poll with the registration that built the session's field.
	origin string

	// mu guards everything below. Lock ordering: the registry's sessMu
	// may be taken before a session's mu, never after.
	mu        sync.Mutex
	ed        *mobility.Editor
	active    []int
	spare     []int
	entered   []int
	left      []int
	seq       uint64
	replay    []replayEntry
	notify    chan struct{}
	lastEvent time.Time
	streaming bool
	closed    bool

	done chan struct{}
}

// startStream claims the session's single live event stream.
func (sess *session) startStream() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed || sess.streaming {
		return false
	}
	sess.streaming = true
	return true
}

func (sess *session) endStream() {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.streaming = false
	sess.lastEvent = time.Now()
}

// seqN snapshots the current sequence number and instance size (for
// error frames composed outside apply).
func (sess *session) seqN() (uint64, int) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.seq, sess.ed.N()
}

// appendReplayLocked retains an applied delta and wakes long-pollers.
// Callers hold mu.
func (sess *session) appendReplayLocked(window int, line []byte) {
	sess.replay = append(sess.replay, replayEntry{seq: sess.seq, line: line})
	if len(sess.replay) > window {
		n := copy(sess.replay, sess.replay[len(sess.replay)-window:])
		sess.replay = sess.replay[:n]
	}
	close(sess.notify)
	sess.notify = make(chan struct{})
}

// replayStatus classifies a resume request against the window.
type replayStatus int

const (
	replayOK     replayStatus = iota
	replayGone                // seq fell out of the window: re-register
	replayAhead               // seq is beyond the session's current seq
	replayClosed              // session closed while waiting
)

// replaySince collects the retained deltas after seq, plus the notify
// channel to wait on when none are pending yet.
func (sess *session) replaySince(seq uint64) (lines [][]byte, cur uint64, notify chan struct{}, st replayStatus) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return nil, sess.seq, nil, replayClosed
	}
	if seq > sess.seq {
		return nil, sess.seq, nil, replayAhead
	}
	if len(sess.replay) > 0 && seq+1 < sess.replay[0].seq {
		return nil, sess.seq, nil, replayGone
	}
	if seq < sess.seq && len(sess.replay) == 0 {
		// Deltas existed but the window dropped them all.
		return nil, sess.seq, nil, replayGone
	}
	for _, e := range sess.replay {
		if e.seq > seq {
			lines = append(lines, e.line)
		}
	}
	return lines, sess.seq, sess.notify, replayOK
}

// sessionFieldKey derives the per-session prepared-cache key: the
// field key of the registered instance salted with the session ID, so
// a session's field — which its events mutate in place — is never
// shared with /v1/solve traffic or another session.
func sessionFieldKey(base cacheKey, id string) cacheKey {
	h := sha256.New()
	h.Write([]byte("schedd/session/v1"))
	h.Write(base[:])
	h.Write([]byte(id))
	return cacheKey(h.Sum(nil))
}

// encodeDelta marshals a delta as one newline-terminated frame. Empty
// difference sets encode as [] rather than null so clients see one
// shape regardless of which reused buffer happened to be nil.
func encodeDelta(d *network.SessionDelta) []byte {
	if d.Entered == nil {
		d.Entered = []int{}
	}
	if d.Left == nil {
		d.Left = []int{}
	}
	b, err := json.Marshal(d)
	if err != nil {
		// The delta is built from ints and floats the solver produced;
		// this cannot fail, but a wire frame must still appear.
		b = []byte(fmt.Sprintf(`{"v":%d,"seq":%d,"error":"encoding failed"}`, network.SessionWireVersion, d.Seq))
	}
	return append(b, '\n')
}

// errorDelta builds a rejection frame: seq unchanged, state untouched.
// traceID ties the frame to the request whose trace recorded the
// failure — ordinary deltas stay trace-free so replayed frames remain
// byte-identical across reconnects.
func errorDelta(traceID string, seq uint64, event string, n int, msg string) []byte {
	return encodeDelta(&network.SessionDelta{
		V: network.SessionWireVersion, Seq: seq, Event: event, N: n,
		Error: msg, TraceID: traceID,
	})
}

// lookupSession resolves a path {id} to a live session.
func (s *Server) lookupSession(id string) (*session, bool) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// reserveSession claims a registry slot before the expensive field
// build; the caller must insert or releaseSessionSlot.
func (s *Server) reserveSession() error {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if s.sessClosed {
		return errServerDraining
	}
	if len(s.sessions)+s.sessReserved >= s.cfg.MaxSessions {
		return errSessionsFull
	}
	s.sessReserved++
	return nil
}

func (s *Server) releaseSessionSlot() {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	s.sessReserved--
}

var (
	errSessionsFull   = errors.New("session limit reached")
	errServerDraining = errors.New("server is draining")
)

// insertSession converts the reservation into a registered session.
func (s *Server) insertSession(sess *session) error {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	s.sessReserved--
	if s.sessClosed {
		return errServerDraining
	}
	s.sessions[sess.id] = sess
	return nil
}

// closeSession removes sess from the registry (exactly once — later
// calls are no-ops), wakes its stream and long-pollers, and releases
// its pinned prepared-cache entry.
func (s *Server) closeSession(sess *session, reason string) {
	s.sessMu.Lock()
	if _, ok := s.sessions[sess.id]; !ok {
		s.sessMu.Unlock()
		return
	}
	delete(s.sessions, sess.id)
	s.sessMu.Unlock()

	sess.mu.Lock()
	sess.closed = true
	close(sess.done)
	close(sess.notify)
	sess.notify = make(chan struct{})
	sess.mu.Unlock()

	s.preps.release(sess.key)
	s.metrics.SessionClosed(reason)
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "session closed",
		slog.String("session_id", sess.id), slog.String("reason", reason))
}

// sweepSessions evicts sessions idle past the TTL. A session with a
// live event stream is never idle — silence on an open stream is the
// client's prerogative; eviction is for sessions nobody is attached to.
func (s *Server) sweepSessions(now time.Time) {
	s.sessMu.Lock()
	var expired []*session
	for _, sess := range s.sessions {
		sess.mu.Lock()
		if !sess.streaming && now.Sub(sess.lastEvent) > s.cfg.SessionTTL {
			expired = append(expired, sess)
		}
		sess.mu.Unlock()
	}
	s.sessMu.Unlock()
	for _, sess := range expired {
		s.closeSession(sess, "ttl")
	}
}

// janitorInterval picks the sweep cadence for a TTL.
func janitorInterval(ttl time.Duration) time.Duration {
	iv := ttl / 4
	if iv < 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	if iv > 30*time.Second {
		iv = 30 * time.Second
	}
	return iv
}

// handleSessionCreate serves POST /v1/session: validate, build (or
// rather: always build — the field will be mutated, so it is keyed
// per-session and pinned), solve the initial schedule, register.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	defer req.wire.release()
	sv := req.solveView()
	if err := sv.validate(s.cfg.MaxLinks); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Links) == 0 {
		writeError(w, http.StatusBadRequest, "missing links: a session needs an instance to track")
		return
	}
	if err := s.reserveSession(); err != nil {
		if errors.Is(err, errServerDraining) {
			writeError(w, http.StatusServiceUnavailable, err.Error())
		} else {
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("%s (%d open)", err.Error(), s.cfg.MaxSessions))
		}
		return
	}
	inserted := false
	defer func() {
		if !inserted {
			s.releaseSessionSlot()
		}
	}()

	id := obs.NewTraceID()
	key := sessionFieldKey(sv.fieldKey(), id)
	root := obs.SpanFrom(r.Context())
	prepSp := root.Child("prepare")
	prepCtx := obs.ContextWithSpan(r.Context(), prepSp)
	prep, err := s.preps.get(key, true, func() (*sched.Prepared, error) {
		return sv.prepare(prepCtx)
	})
	prepSp.End()
	if err != nil {
		writeRequestFailure(w, err)
		return
	}
	pinned := true
	defer func() {
		if !inserted && pinned {
			s.preps.release(key)
		}
	}()

	algo, ok := sched.Lookup(req.Algorithm)
	if !ok { // validate already checked; belt and braces
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown algorithm %q", req.Algorithm))
		return
	}
	ctx, cancel := s.deadline(r.Context(), 0)
	defer cancel()
	poolSp := root.Child("pool_wait")
	err = s.pool.acquire(ctx)
	poolSp.End()
	if err != nil {
		writeSolveFailure(w, err)
		return
	}
	solveSp := root.Child("solve")
	sch, err := solve(obs.ContextWithSpan(ctx, solveSp), algo, prep, nil)
	setDenseRows(solveSp, prep.Problem())
	solveSp.End()
	s.pool.release()
	if err != nil {
		writeRequestFailure(w, err)
		return
	}

	opt, _ := sv.fieldOption()
	sess := &session{
		id:        id,
		key:       key,
		origin:    obs.TraceIDFrom(r.Context()),
		algoName:  req.Algorithm,
		algo:      algo,
		ed:        mobility.NewEditor(prep, opt),
		active:    sch.Active,
		seq:       0,
		notify:    make(chan struct{}),
		lastEvent: time.Now(),
		done:      make(chan struct{}),
	}
	if err := s.insertSession(sess); err != nil {
		inserted = true // slot already released by insertSession
		s.preps.release(key)
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	inserted = true
	s.metrics.SessionOpened()
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "session opened",
		slog.String("session_id", id),
		slog.String("algorithm", req.Algorithm),
		slog.Int("links", len(req.Links)))

	writeJSON(w, http.StatusOK, &SessionResponse{
		SessionID:  id,
		Seq:        0,
		Algorithm:  req.Algorithm,
		Field:      prep.Problem().FieldName(),
		Eps:        prep.Problem().Params.Eps,
		N:          prep.Problem().N(),
		Active:     sch.Active,
		Throughput: sch.Throughput(prep.Problem()),
	})
}

// applyStatus classifies one event's outcome for the stream loop.
type applyStatus int

const (
	applyOK       applyStatus = iota
	applyRejected             // error delta written, stream continues
	applyClosed               // session closed underneath the stream
	applyPoisoned             // state diverged (solve failed): close session
)

// applySessionEvent applies one structurally decoded event under the
// session lock: validate against current state, patch the field, run
// the warm solve into the session-owned buffers, diff, and append the
// delta to the replay window. Returns the frame to write.
func (s *Server) applySessionEvent(ctx context.Context, sess *session, ev *network.SessionEvent) ([]byte, applyStatus) {
	start := time.Now()
	tid := obs.TraceIDFrom(ctx)
	esp := obs.SpanFrom(ctx).Child("session_event")
	defer esp.End()
	if esp.Enabled() {
		esp.SetStr("type", ev.Type)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return errorDelta(tid, sess.seq, ev.Type, sess.ed.N(), "session closed"), applyClosed
	}
	if err := ev.Validate(sess.ed.N()); err != nil {
		s.metrics.SessionEventRejected()
		return errorDelta(tid, sess.seq, ev.Type, sess.ed.N(), err.Error()), applyRejected
	}
	if ev.Type == network.EventAdd && sess.ed.N() >= s.cfg.MaxLinks {
		s.metrics.SessionEventRejected()
		return errorDelta(tid, sess.seq, ev.Type, sess.ed.N(),
			fmt.Sprintf("instance at the %d-link limit", s.cfg.MaxLinks)), applyRejected
	}

	ectx, cancel := s.deadline(ctx, 0)
	defer cancel()
	poolSp := esp.Child("pool_wait")
	err := s.pool.acquire(ectx)
	poolSp.End()
	if err != nil {
		return errorDelta(tid, sess.seq, ev.Type, sess.ed.N(), "event aborted: "+err.Error()), applyPoisoned
	}
	defer s.pool.release()

	rebuildsBefore := sess.ed.Rebuilds()
	if err := sess.ed.ApplyContext(obs.ContextWithSpan(ectx, esp), ev); err != nil {
		s.metrics.SessionEventRejected()
		return errorDelta(tid, sess.seq, ev.Type, sess.ed.N(), err.Error()), applyRejected
	}
	if sess.ed.Rebuilds() != rebuildsBefore {
		// add/remove rebuilt the field: account for the build and point
		// the pinned cache entry at the live handle.
		s.metrics.PreparedBuild()
		s.preps.replace(sess.key, sess.ed.Prepared())
	}
	if ev.Type == network.EventRemove {
		sess.active = sched.RenumberAfterRemove(sess.active, ev.Link)
	}

	solveSp := esp.Child("solve")
	sch, err := solve(obs.ContextWithSpan(ectx, solveSp), sess.algo, sess.ed.Prepared(), sess.spare)
	solveSp.End()
	setDenseRows(esp, sess.ed.Prepared().Problem())
	if err != nil {
		// The geometry changed but the schedule could not follow; the
		// session's streamed state no longer matches its field. Poison
		// it rather than stream a stale baseline.
		s.metrics.SolveError()
		return errorDelta(tid, sess.seq, ev.Type, sess.ed.N(), "re-solve failed: "+err.Error()), applyPoisoned
	}
	sess.entered, sess.left = sched.DiffSchedulesInto(sess.active, sch.Active, sess.entered, sess.left)
	sess.spare = sess.active
	sess.active = sch.Active
	sess.seq++
	line := encodeDelta(&network.SessionDelta{
		V:          network.SessionWireVersion,
		Seq:        sess.seq,
		Event:      ev.Type,
		N:          sess.ed.N(),
		Entered:    sess.entered,
		Left:       sess.left,
		Throughput: sch.Throughput(sess.ed.Prepared().Problem()),
	})
	sess.appendReplayLocked(s.cfg.SessionReplay, line)
	sess.lastEvent = time.Now()
	s.metrics.SessionEvent(ev.Type, time.Since(start))
	s.metrics.SessionDelta()
	return line, applyOK
}

// handleSessionEvents serves POST /v1/session/{id}/events: the
// long-lived full-duplex event stream. Events are read one JSON line
// at a time and answered in order with delta lines; the request stays
// open until the client closes its body, the session closes, or the
// server drains. A malformed frame terminates the stream (framing can
// no longer be trusted) but leaves the session itself intact — the
// client reconnects and resumes from its last seq.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	// The request body is an open-ended event stream, so this connection
	// can never be reused: without Connection: close, net/http tries to
	// drain the unread chunked body before flushing ANY response —
	// including early rejections below — and blocks forever against a
	// client that is itself waiting for our response.
	w.Header().Set("Connection", "close")
	sess, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session")
		return
	}
	if sess.origin != "" {
		w.Header().Set("X-Origin-Trace-Id", sess.origin)
	}
	if !sess.startStream() {
		writeError(w, http.StatusConflict, "session already has a live event stream")
		return
	}
	defer sess.endStream()

	rc := http.NewResponseController(w)
	// Full duplex lets us write deltas while the request body is still
	// open (HTTP/1.1); on transports where it is unsupported the error
	// is ignored and streaming degrades to the transport's semantics.
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	seq, _ := sess.seqN()
	w.Header().Set("X-Session-Seq", strconv.FormatUint(seq, 10))
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()

	lines := make(chan []byte)
	readDone := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 64<<10), maxEventLine)
		for sc.Scan() {
			line := append([]byte(nil), sc.Bytes()...)
			select {
			case lines <- line:
			case <-r.Context().Done():
				return
			}
		}
		readDone <- sc.Err() // nil on clean EOF
	}()

	writeFrame := func(frame []byte) bool {
		if _, err := w.Write(frame); err != nil {
			return false
		}
		return rc.Flush() == nil
	}

	for {
		select {
		case <-s.sessCtx.Done():
			return // server draining
		case <-sess.done:
			return // session closed (DELETE or TTL)
		case <-r.Context().Done():
			return // client gone
		case err := <-readDone:
			if err != nil {
				seq, n := sess.seqN()
				s.metrics.SessionEventRejected()
				writeFrame(errorDelta(obs.TraceIDFrom(r.Context()), seq, "", n,
					"stream read error: "+err.Error()))
			}
			return
		case line := <-lines:
			if len(line) == 0 {
				continue
			}
			ev, err := network.DecodeSessionEvent(line)
			if err != nil {
				seq, n := sess.seqN()
				s.metrics.SessionEventRejected()
				writeFrame(errorDelta(obs.TraceIDFrom(r.Context()), seq, "", n,
					"malformed event: "+err.Error()))
				return
			}
			frame, st := s.applySessionEvent(r.Context(), sess, &ev)
			ok := writeFrame(frame)
			switch st {
			case applyClosed:
				return
			case applyPoisoned:
				s.closeSession(sess, "error")
				return
			}
			if !ok {
				return
			}
		}
	}
}

// handleSessionDeltas serves GET /v1/session/{id}/deltas?seq=N: the
// resume path. Deltas with sequence numbers above N are returned
// immediately as ndjson; with none pending and wait_ms set, the
// request long-polls until a delta arrives, the wait expires (200,
// empty body), the session closes (410), or the server drains.
// X-Session-Seq always reports the session's current seq.
func (s *Server) handleSessionDeltas(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session")
		return
	}
	// A resumed stream correlates back to the registration that built
	// the session: X-Trace-Id identifies this long-poll's own trace,
	// X-Origin-Trace-Id the trace that created the session.
	if sess.origin != "" {
		w.Header().Set("X-Origin-Trace-Id", sess.origin)
	}
	q := r.URL.Query()
	var seq uint64
	if v := q.Get("seq"); v != "" {
		parsed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad seq: "+err.Error())
			return
		}
		seq = parsed
	}
	var wait time.Duration
	if v := q.Get("wait_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, "bad wait_ms")
			return
		}
		wait = time.Duration(ms) * time.Millisecond
	}
	if wait > s.cfg.MaxTimeout {
		wait = s.cfg.MaxTimeout
	}
	deadline := time.Now().Add(wait)

	for {
		lines, cur, notify, st := sess.replaySince(seq)
		switch st {
		case replayClosed:
			writeError(w, http.StatusGone, "session closed")
			return
		case replayGone:
			writeError(w, http.StatusGone,
				fmt.Sprintf("seq %d fell out of the replay window; re-register", seq))
			return
		case replayAhead:
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("seq %d is ahead of the session (at %d)", seq, cur))
			return
		}
		remaining := time.Until(deadline)
		if len(lines) > 0 || remaining <= 0 {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Session-Seq", strconv.FormatUint(cur, 10))
			w.WriteHeader(http.StatusOK)
			for _, l := range lines {
				w.Write(l)
			}
			return
		}
		timer := time.NewTimer(remaining)
		select {
		case <-notify:
		case <-timer.C:
		case <-sess.done:
		case <-r.Context().Done():
			timer.Stop()
			return
		case <-s.sessCtx.Done():
			timer.Stop()
			writeError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		timer.Stop()
	}
}

// handleSessionGet serves GET /v1/session/{id}: the authoritative
// snapshot (links, active set, seq) a resuming client reconciles
// against when its own mirror is suspect.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session")
		return
	}
	sess.mu.Lock()
	pr := sess.ed.Prepared().Problem()
	resp := &SessionResponse{
		SessionID:  sess.id,
		Seq:        sess.seq,
		Algorithm:  sess.algoName,
		Field:      pr.FieldName(),
		Eps:        pr.Params.Eps,
		N:          sess.ed.N(),
		Active:     append([]int(nil), sess.active...),
		Throughput: pr.Links.TotalRate(sess.active),
		Links:      sess.ed.Links(),
	}
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleSessionDelete serves DELETE /v1/session/{id}.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session")
		return
	}
	s.closeSession(sess, "client")
	w.WriteHeader(http.StatusNoContent)
}
