package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/sched"
)

// SolveRequest is the wire form of one POST /v1/solve query. Radio
// parameters are flat and optional — a zero field means "the paper's
// default" (radio.DefaultParams), so the minimal request is just an
// algorithm name and a link list.
type SolveRequest struct {
	// Algorithm is a sched registry name ("ldp", "rle", "exact", ...).
	Algorithm string `json:"algorithm"`
	// Links is the instance; it goes through the same validation as a
	// file loaded with network.Read.
	Links []network.Link `json:"links"`

	// Radio parameters (0 = paper default for that field).
	Alpha   float64 `json:"alpha,omitempty"`
	GammaTh float64 `json:"gamma_th,omitempty"`
	Eps     float64 `json:"eps,omitempty"`
	Power   float64 `json:"power,omitempty"`
	N0      float64 `json:"n0,omitempty"`

	// Field selects the interference backend: "" or "dense" for the
	// exact matrix, "sparse" for the truncated near-field; Cutoff
	// configures the sparse truncation (0 = backend default).
	Field  string  `json:"field,omitempty"`
	Cutoff float64 `json:"cutoff,omitempty"`

	// TimeoutMS caps this request's solve time; 0 uses the server
	// default, and values above the server maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// MCSlots > 0 requests Monte-Carlo validation of the schedule with
	// that many Rayleigh realizations via internal/mc; MCSeed anchors
	// the draws (same seed ⇒ same simulation, which keeps responses
	// cacheable).
	MCSlots int    `json:"mc_slots,omitempty"`
	MCSeed  uint64 `json:"mc_seed,omitempty"`

	// Shards > 0 pins the tile count of a shard-capable algorithm
	// ("greedy-sharded"); 0 lets the solver pick from the instance size
	// and core count. Setting it on an algorithm without a sharded
	// solve path is a 400 — silently ignoring a performance knob would
	// make two differently-shaped requests cache-collide.
	Shards int `json:"shards,omitempty"`

	wire wireLinks
}

func (q *SolveRequest) linkState() (*[]network.Link, *wireLinks) { return &q.Links, &q.wire }

// maxMCSlots caps per-request simulation effort: one request must not
// buy unbounded CPU.
const maxMCSlots = 100_000

// params resolves the request's radio parameters over the defaults.
func (q *SolveRequest) params() radio.Params {
	p := radio.DefaultParams()
	if q.Alpha != 0 {
		p.Alpha = q.Alpha
	}
	if q.GammaTh != 0 {
		p.GammaTh = q.GammaTh
	}
	if q.Eps != 0 {
		p.Eps = q.Eps
	}
	if q.Power != 0 {
		p.Power = q.Power
	}
	if q.N0 != 0 {
		p.N0 = q.N0
	}
	return p
}

// validate rejects requests before any expensive work: unknown
// algorithm, oversized instance, out-of-domain parameters, unknown
// field backend, or a malformed simulation ask.
func (q *SolveRequest) validate(maxLinks int) error {
	if q.Algorithm == "" {
		return fmt.Errorf("missing algorithm (have %v)", sched.Names())
	}
	if _, ok := sched.Lookup(q.Algorithm); !ok {
		return fmt.Errorf("unknown algorithm %q (have %v)", q.Algorithm, sched.Names())
	}
	if len(q.Links) > maxLinks {
		return fmt.Errorf("instance too large: %d links > limit %d", len(q.Links), maxLinks)
	}
	if err := q.params().Validate(); err != nil {
		return fmt.Errorf("invalid radio params: %w", err)
	}
	if _, err := q.fieldOption(); err != nil {
		return err
	}
	if q.MCSlots < 0 || q.MCSlots > maxMCSlots {
		return fmt.Errorf("mc_slots %d outside [0, %d]", q.MCSlots, maxMCSlots)
	}
	if q.Shards < 0 || q.Shards > sched.MaxShards {
		return fmt.Errorf("shards %d outside [0, %d]", q.Shards, sched.MaxShards)
	}
	if _, err := q.algorithm(); err != nil {
		return err
	}
	if q.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms %d must be ≥ 0", q.TimeoutMS)
	}
	return nil
}

// algorithm resolves the registry entry with the request's solve
// knobs applied: shards > 0 configures a shard-capable algorithm's
// tile count via sched.Shardable.
func (q *SolveRequest) algorithm() (sched.Algorithm, error) {
	a, ok := sched.Lookup(q.Algorithm)
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q (have %v)", q.Algorithm, sched.Names())
	}
	if q.Shards > 0 {
		sh, ok := a.(sched.Shardable)
		if !ok {
			return nil, fmt.Errorf("algorithm %q does not take shards (shard-capable: %q)",
				q.Algorithm, sched.Sharded{}.Name())
		}
		a = sh.WithShards(q.Shards)
	}
	return a, nil
}

// fieldOption resolves the backend selector.
func (q *SolveRequest) fieldOption() (sched.Option, error) {
	return sched.FieldOption(q.fieldName(), q.Cutoff)
}

// prepare is the one field build behind every route: it validates the
// links, resolves the backend and builds the prepared field under ctx,
// whose span records the construction. Each failure is the request's
// fault, so each is a badRequestError.
func (q *SolveRequest) prepare(ctx context.Context) (*sched.Prepared, error) {
	ls, err := network.NewLinkSet(q.Links)
	if err != nil {
		return nil, &badRequestError{msg: "invalid links: " + err.Error()}
	}
	opt, err := q.fieldOption()
	if err != nil {
		return nil, &badRequestError{msg: err.Error()}
	}
	pp, err := sched.PrepareContext(ctx, ls, q.params(), opt)
	if err != nil {
		return nil, &badRequestError{msg: err.Error()}
	}
	return pp, nil
}

// hash is the canonical problem key: a SHA-256 over every input that
// determines the response body — algorithm, resolved radio parameters,
// field backend config, Monte-Carlo ask, and the link geometry's
// canonical digest. TimeoutMS is deliberately excluded: the deadline
// changes whether an answer arrives, never which answer.
func (q *SolveRequest) hash() cacheKey {
	h := newKeyHash("schedd/v1")
	h.str(q.Algorithm)
	p := q.params()
	h.floats(p.Alpha, p.GammaTh, p.Eps, p.Power, p.N0)
	h.str(q.fieldName())
	h.floats(q.Cutoff)
	h.uints(uint64(q.MCSlots), q.MCSeed, uint64(q.Shards))
	return h.sum(q.wire.digest(q.Links))
}

// fieldKey is the canonical interference-field hash: a SHA-256 over
// exactly the inputs that determine the built field — the link
// geometry and the field-shaping radio parameters (α, γ_th, P, N0)
// plus the backend selection. ε joins only for non-dense backends,
// whose default truncation cutoff derives from γ_ε. Algorithm, ε (on
// dense), and the Monte-Carlo knobs are deliberately excluded: that is
// what lets a response-cache miss on (linkset, algorithm, params)
// still reuse the field built for any prior solve on the same links.
func (q *SolveRequest) fieldKey() cacheKey {
	h := newKeyHash("schedd/field/v1")
	p := q.params()
	h.floats(p.Alpha, p.GammaTh, p.Power, p.N0)
	field := q.fieldName()
	h.str(field)
	h.floats(q.Cutoff)
	if field != "dense" {
		h.floats(p.Eps)
	}
	return h.sum(q.wire.digest(q.Links))
}

// fieldName is the backend selector with its default resolved.
func (q *SolveRequest) fieldName() string {
	if q.Field == "" {
		return "dense"
	}
	return q.Field
}

// linksKey is the canonical digest of a link list: a SHA-256 over its
// length and every link's six floats as IEEE-754 bit patterns. Every
// cache key a request derives (response, field, traffic) folds in this
// one digest, so a request computes it at most once however many keys
// and batch configs it has, and a link-memo hit carries it.
type linksKey [sha256.Size]byte

func digestLinks(links []network.Link) linksKey {
	h := sha256.New()
	var buf [48 * 64]byte // 64 links per Write
	binary.LittleEndian.PutUint64(buf[:], uint64(len(links)))
	h.Write(buf[:8])
	n := 0
	for _, l := range links {
		for _, v := range [6]float64{l.Sender.X, l.Sender.Y, l.Receiver.X, l.Receiver.Y, l.Rate, l.Power} {
			binary.LittleEndian.PutUint64(buf[n:], math.Float64bits(v))
			n += 8
		}
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
	}
	h.Write(buf[:n])
	var k linksKey
	h.Sum(k[:0])
	return k
}

// wireLinks is what a request keeps of its link list besides the
// decoded value: the canonical digest, once computed or carried by a
// link-memo hit, and the decoded body, which the request offers to the
// link memo on its first prepared-cache hit. Batch configs and solve
// views copy it, so they share the digest and the one offer.
type wireLinks struct {
	key   linksKey
	keyed bool
	cand  *memoCandidate // nil after a memo hit, or with the memo off
}

// release returns the request's body buffer to the pool. The handler
// that decoded the request calls it when the request is done, after
// every batch config and view sharing the candidate has finished.
func (w *wireLinks) release() {
	if c := w.cand; c != nil && c.buf != nil {
		putBody(c.buf)
		c.buf = nil
	}
}

// digest returns the canonical digest of links, computing it on first
// use; links must be the list the request decoded.
func (w *wireLinks) digest(links []network.Link) linksKey {
	if !w.keyed {
		w.key, w.keyed = digestLinks(links), true
	}
	return w.key
}

// keyHash builds a cache key: a version prefix, then length-prefixed
// strings and fixed-width numbers, then the links digest.
type keyHash struct {
	h       hash.Hash
	scratch [8]byte
}

func newKeyHash(version string) *keyHash {
	k := &keyHash{h: sha256.New()}
	k.str(version)
	return k
}

func (k *keyHash) uints(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(k.scratch[:], v)
		k.h.Write(k.scratch[:])
	}
}

func (k *keyHash) floats(vs ...float64) {
	for _, v := range vs {
		k.uints(math.Float64bits(v))
	}
}

func (k *keyHash) str(s string) {
	k.uints(uint64(len(s)))
	k.h.Write([]byte(s))
}

func (k *keyHash) sum(links linksKey) cacheKey {
	k.h.Write(links[:])
	var c cacheKey
	k.h.Sum(c[:0])
	return c
}

// SolveResponse is the wire form of a successful solve.
type SolveResponse struct {
	Algorithm string `json:"algorithm"`
	N         int    `json:"n"`
	// Field echoes the backend the instance was built with.
	Field string `json:"field"`
	// Active is the activation set, ascending link indices.
	Active []int `json:"active"`
	// Throughput is Σλ over the scheduled links (the paper's U(P)).
	Throughput float64 `json:"throughput"`
	// Feasible is the independent Corollary 3.1 verification verdict.
	Feasible bool `json:"feasible"`
	// SuccessProb is each scheduled link's Theorem 3.1 success
	// probability, indexed like Active.
	SuccessProb []float64 `json:"success_prob"`
	// ExpectedFailures is the analytic per-slot expectation of failed
	// transmissions.
	ExpectedFailures float64 `json:"expected_failures"`
	// Simulation is present when mc_slots > 0 requested validation.
	Simulation *SimulationResult `json:"simulation,omitempty"`
	// Stats is the solver trace: per-phase wall times and algorithm
	// counters. Cached responses replay the stats of the solve that
	// produced them.
	Stats *obs.SolveStats `json:"stats,omitempty"`
}

// SimulationResult summarizes the optional Monte-Carlo validation.
type SimulationResult struct {
	Slots        int     `json:"slots"`
	MeanFailures float64 `json:"mean_failures"`
	CI95         float64 `json:"ci95"`
	FailureRate  float64 `json:"failure_rate"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}
