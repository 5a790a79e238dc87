package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/network"
)

// TestCacheKeysShareOneLinksDigest pins the keys built over the one
// canonical links digest: equal inputs share every key, one flipped
// link bit or one changed parameter changes it, and a batch config's
// keys equal the equivalent single solve's while the batch computes
// its digest once.
func TestCacheKeysShareOneLinksDigest(t *testing.T) {
	links := paperLinks(t, 20, 3)
	solve := func(mut func(*SolveRequest)) SolveRequest {
		q := SolveRequest{Algorithm: "rle", Links: append([]network.Link(nil), links...), Eps: 0.02, MCSlots: 5}
		if mut != nil {
			mut(&q)
		}
		return q
	}
	flip := func(v *float64) { *v = math.Float64frombits(math.Float64bits(*v) ^ 1) }
	base := solve(nil)
	if twin := solve(nil); twin.hash() != base.hash() || twin.fieldKey() != base.fieldKey() {
		t.Fatal("equal solve requests derive different keys")
	}
	for name, mut := range map[string]func(*SolveRequest){
		"sender bit":    func(q *SolveRequest) { flip(&q.Links[7].Sender.X) },
		"receiver bit":  func(q *SolveRequest) { flip(&q.Links[0].Receiver.Y) },
		"rate bit":      func(q *SolveRequest) { flip(&q.Links[19].Rate) },
		"power":         func(q *SolveRequest) { q.Links[3].Power = 2 },
		"one link less": func(q *SolveRequest) { q.Links = q.Links[:19] },
		"alpha":         func(q *SolveRequest) { q.Alpha = 3.5 },
	} {
		q := solve(mut)
		if q.hash() == base.hash() || q.fieldKey() == base.fieldKey() {
			t.Errorf("%s: response or field key unchanged", name)
		}
	}
	// ε and the Monte-Carlo ask change the answer, not the dense field.
	for name, mut := range map[string]func(*SolveRequest){
		"eps":     func(q *SolveRequest) { q.Eps = 0.03 },
		"mc seed": func(q *SolveRequest) { q.MCSeed = 1 },
		"shards":  func(q *SolveRequest) { q.Shards = 2 },
	} {
		q := solve(mut)
		if q.hash() == base.hash() || q.fieldKey() != base.fieldKey() {
			t.Errorf("%s: want a new response key on the same field key", name)
		}
	}

	traffic := func(mut func(*TrafficRequest)) cacheKey {
		q := TrafficRequest{Links: append([]network.Link(nil), links...), Slots: 10, Rate: 0.1, Seed: 4}
		if mut != nil {
			mut(&q)
		}
		return q.hash()
	}
	if traffic(nil) != traffic(nil) {
		t.Fatal("equal traffic requests derive different keys")
	}
	if traffic(func(q *TrafficRequest) { flip(&q.Links[11].Sender.Y) }) == traffic(nil) ||
		traffic(func(q *TrafficRequest) { q.Seed = 5 }) == traffic(nil) {
		t.Error("traffic key ignores a link bit or the seed")
	}

	br := BatchRequest{Links: links, Eps: 0.02, Configs: []BatchConfig{
		{Algorithm: "rle", MCSlots: 5}, {Algorithm: "greedy", Eps: 0.05},
	}}
	sub := br.solveRequest(br.Configs[0])
	if sub.hash() != base.hash() || sub.fieldKey() != base.fieldKey() {
		t.Error("batch config keys differ from the single solve's")
	}
	single := SolveRequest{Algorithm: "greedy", Links: links, Eps: 0.05}
	if sub2 := br.solveRequest(br.Configs[1]); sub2.hash() != single.hash() {
		t.Error("batch config ε override keys differ from the single solve's")
	}
	if !br.wire.keyed || sub.wire.key != br.wire.key {
		t.Error("batch configs do not share the batch's one digest")
	}
}

// normalize strips what legitimately differs between two servers'
// answers to one request — solver phase timings, the wall-clock packet
// rate, session IDs — so the rest compares byte for byte.
func normalize(t testing.TB, body []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	var strip func(any)
	strip = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			delete(v, "seconds")
			delete(v, "packets_per_sec")
			delete(v, "session_id")
			for _, x := range v {
				strip(x)
			}
		case []any:
			for _, x := range v {
				strip(x)
			}
		}
	}
	strip(v)
	out, _ := json.Marshal(v)
	return string(out)
}

// decodeAttrs returns the attributes of the decode span in trace id.
func decodeAttrs(t testing.TB, srv *Server, id string) map[string]any {
	t.Helper()
	snap, ok := srv.recorder.Get(id)
	if !ok {
		t.Fatalf("trace %s not retained", id)
	}
	for _, sp := range snap.Spans {
		if sp.Name == "decode" {
			return sp.Attrs
		}
	}
	t.Fatalf("trace %s has no decode span", id)
	return nil
}

// TestLinkMemoRepeatDecodesOnlyRemainder walks one topology through
// the memo: the first sighting builds its field, the second — a
// prepared-cache hit — enters it, and from then on every JSON route
// hands encoding/json only the body around the links array and answers
// what a fresh server answers.
func TestLinkMemoRepeatDecodesOnlyRemainder(t *testing.T) {
	srv, ts := newSessionServer(t, Config{})
	links := paperLinks(t, 60, 5)
	wire, err := json.Marshal(links)
	if err != nil {
		t.Fatal(err)
	}
	post := func(ts *httptest.Server, route string, req any) (*http.Response, []byte, []byte) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+route, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out := readAll(t, resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", route, resp.StatusCode, out)
		}
		return resp, body, out
	}
	memo := func() (hits, misses int64, entries int) {
		entries, _ = srv.memo.residency()
		return srv.metrics.memoHits.Value(), srv.metrics.memoMiss.Value(), entries
	}

	post(ts, "/v1/solve", SolveRequest{Algorithm: "rle", Links: links})
	if h, m, n := memo(); h != 0 || m != 1 || n != 0 {
		t.Fatalf("after the first sighting: hits/misses/entries = %d/%d/%d, want 0/1/0", h, m, n)
	}
	post(ts, "/v1/solve", SolveRequest{Algorithm: "greedy", Links: links})
	if h, m, n := memo(); h != 0 || m != 2 || n != 1 {
		t.Fatalf("after the prepared hit: hits/misses/entries = %d/%d/%d, want 0/2/1", h, m, n)
	}

	routes := []struct {
		route string
		req   any
	}{
		{"/v1/solve", SolveRequest{Algorithm: "ldp", Links: links, MCSlots: 20, MCSeed: 3}},
		{"/v1/solve/batch", BatchRequest{Links: links, Configs: []BatchConfig{
			{Algorithm: "greedy"}, {Algorithm: "rle", Eps: 0.05}, {Algorithm: "greedy-sharded", Shards: 2}}}},
		{"/v1/traffic", TrafficRequest{Links: links, Slots: 30, Rate: 0.05, Policy: "maxweight", Seed: 2}},
		{"/v1/session", SessionRequest{Algorithm: "greedy", Links: links}},
	}
	_, fresh := newSessionServer(t, Config{})
	for i, rt := range routes {
		resp, body, got := post(ts, rt.route, rt.req)
		attrs := decodeAttrs(t, srv, resp.Header.Get("X-Trace-Id"))
		want := map[string]any{"links": "memo", "bytes": int64(len(body)),
			"json_bytes": int64(len(body) - len(wire) + len("null"))}
		if !reflect.DeepEqual(attrs, want) {
			t.Errorf("%s: decode span %v, want %v", rt.route, attrs, want)
		}
		if h, _, _ := memo(); h != int64(i+1) {
			t.Errorf("%s: memo hits = %d, want %d", rt.route, h, i+1)
		}
		if _, _, ref := post(fresh, rt.route, rt.req); normalize(t, got) != normalize(t, ref) {
			t.Errorf("%s: memo-served answer differs from a fresh server's:\n%s\n%s", rt.route, got, ref)
		}
	}
}

// TestLinkMemoConcurrentHits decodes many bodies sharing one memoised
// links array at once: every request gets the entry's list and digest
// and its own remainder fields (run under -race).
func TestLinkMemoConcurrentHits(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	links := paperLinks(t, 30, 2)
	body := func(alg string, eps float64) []byte {
		b, err := json.Marshal(SolveRequest{Algorithm: alg, Links: links, Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	decode := func(b []byte) (*SolveRequest, int) {
		var q SolveRequest
		rec := httptest.NewRecorder()
		if !srv.decodeRequest(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(b)), &q) {
			return nil, rec.Code
		}
		return &q, http.StatusOK
	}
	primer, _ := decode(body("rle", 0))
	srv.memo.remember(primer.wire.cand, primer.Links, primer.wire.digest(primer.Links))
	want := digestLinks(links)

	const workers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				eps := 0.01 + 0.001*float64(w*each+k)
				q, code := decode(body("greedy", eps))
				switch {
				case q == nil:
					t.Errorf("decode status %d", code)
				case &q.Links[0] != &primer.Links[0] || !q.wire.keyed || q.wire.key != want:
					t.Error("hit did not take the shared entry's links and digest")
				case q.Algorithm != "greedy" || q.Eps != eps || q.wire.cand != nil:
					t.Errorf("remainder fields wrong: %q ε=%v cand=%v", q.Algorithm, q.Eps, q.wire.cand)
				}
			}
		}(w)
	}
	wg.Wait()
	if h := srv.metrics.memoHits.Value(); h != workers*each {
		t.Fatalf("memo hits = %d, want %d", h, workers*each)
	}
}

// plainDecode is decodeRequest's contract without the memo: one strict
// encoding/json pass over the whole body.
func plainDecode(body []byte, v any) (int, string) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return http.StatusBadRequest, "malformed request: " + err.Error()
	}
	if _, err := dec.Token(); err != io.EOF {
		return http.StatusBadRequest, "trailing data after request"
	}
	return http.StatusOK, ""
}

// FuzzDecodeRequest checks the memo path against a plain strict decode
// on every request type: same status, same message, same decoded value.
// Each "@" in the template becomes the primed links array's wire bytes,
// so the corpus reaches the memo through case-folded, escaped and
// duplicate keys, non-array and nested values, and broken bodies.
func FuzzDecodeRequest(f *testing.F) {
	for _, tmpl := range []string{
		`{"algorithm":"rle","links":@}`,
		`{"links":@,"configs":[{"algorithm":"rle"},{"algorithm":"greedy","eps":0.05}]}`,
		`{"links":@,"slots":5,"rate":0.1,"policy":"maxweight"}`,
		` { "algorithm" : "rle" , "links" : @ , "eps" : 0.02 } `,
		`{"LINKS":@,"algorithm":"rle"}`,
		`{"algorithm":"rle","links":@,"Links":@}`,
		`{"\u006cinks":@}`,
		`{"lin\u212as":@}`,
		"{\"lin\u212as\":@,\"links\":@}",
		"{\"links\":@,\"lin\u212as\":null}",
		`{"links":@,"links":@}`,
		`{"links":@,"links":null}`,
		`{"links":null,"links":@}`,
		`{"links":null}`,
		`{"links":5,"algorithm":"rle"}`,
		`{"links":{"sender":@}}`,
		`{"links":@,"configs":[{"algorithm":"rle","links":@}]}`,
		`{"algorithm":"\"links\":[","links":@}`,
		`{"algorithm":"rle","links":@,"bogus":1}`,
		`{"algorithm":"rle","links":@} extra`,
		`{"algorithm":"rle","links":@}{}`,
		`{"algorithm":"rle","links":@`,
		`{"algorithm":"rle","links":@,`,
		`{"algorithm":"rle","links":[@]}`,
		`{"algorithm":rle,"links":@}`,
		`[@]`,
	} {
		for kind := uint8(0); kind < 4; kind++ {
			f.Add(tmpl, kind)
		}
	}
	links := paperLinks(f, 3, 9)
	wire, err := json.Marshal(links)
	if err != nil {
		f.Fatal(err)
	}
	srv := New(Config{})
	f.Cleanup(srv.Close)
	var primer SolveRequest
	if !srv.decodeRequest(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/",
		strings.NewReader(fmt.Sprintf(`{"links":%s}`, wire))), &primer) {
		f.Fatal("priming body rejected")
	}
	srv.memo.remember(primer.wire.cand, primer.Links, primer.wire.digest(primer.Links))
	kinds := [4]func() linkRequest{
		func() linkRequest { return new(SolveRequest) },
		func() linkRequest { return new(BatchRequest) },
		func() linkRequest { return new(TrafficRequest) },
		func() linkRequest { return new(SessionRequest) },
	}

	f.Fuzz(func(t *testing.T, tmpl string, kind uint8) {
		if len(tmpl) > 4096 {
			return
		}
		body := bytes.ReplaceAll([]byte(tmpl), []byte("@"), wire)
		got, want := kinds[kind%4](), kinds[kind%4]()
		rec := httptest.NewRecorder()
		code, msg := http.StatusOK, ""
		if !srv.decodeRequest(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), got) {
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("error envelope %q: %v", rec.Body.Bytes(), err)
			}
			code, msg = rec.Code, e.Error
		}
		wantCode, wantMsg := plainDecode(body, want)
		if code != wantCode || msg != wantMsg {
			t.Fatalf("body %q: memo path %d %q, plain decode %d %q", body, code, msg, wantCode, wantMsg)
		}
		if code != http.StatusOK {
			return
		}
		gotLinks, gotWire := got.linkState()
		if gotWire.keyed && gotWire.key != digestLinks(*gotLinks) {
			t.Fatalf("body %q: memo digest is not the decoded links'", body)
		}
		*gotWire = wireLinks{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: memo path decoded %+v, plain decode %+v", body, got, want)
		}
	})
}

// TestTracedRoutesDropNothing traces one request of every JSON route —
// a Monte-Carlo solve, a batch over the algorithms with the most
// counters, a traffic run, a session create and one event — and checks
// that no span or attribute was dropped from any trace.
func TestTracedRoutesDropNothing(t *testing.T) {
	srv, ts := newSessionServer(t, Config{})
	links := paperLinks(t, 40, 6)
	readOK := func(resp *http.Response) {
		t.Helper()
		if body := readAll(t, resp.Body); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	readOK(postSolve(t, ts, SolveRequest{Algorithm: "rle", Links: links, MCSlots: 20}))
	readOK(postBatch(t, ts, BatchRequest{Links: links, Configs: []BatchConfig{
		{Algorithm: "greedy-sharded", Shards: 2, MCSlots: 10}, {Algorithm: "dls"},
		{Algorithm: "approxdiversity"}, {Algorithm: "ldp"}}}))
	readOK(postTraffic(t, ts, TrafficRequest{Links: links, Slots: 20, Rate: 0.2, Policy: "maxqueue", Seed: 1}))
	created := createSession(t, ts, SessionRequest{Algorithm: "greedy", Links: links})
	st := openStream(t, ts, created.SessionID)
	to := links[0].Sender.Add(1, 1)
	st.send(network.SessionEvent{Type: network.EventMove, Link: 0, Sender: &to})
	if d, raw := st.recv(); d.Error != "" {
		t.Fatalf("event rejected: %s", raw)
	}
	st.closeWrite()

	seen := map[string]bool{}
	for _, snap := range srv.recorder.Recent(maxDebugTraces) {
		seen[snap.Name] = true
		if snap.DroppedSpans != 0 || snap.DroppedAttrs != 0 {
			t.Errorf("%s dropped %d spans and %d attributes", snap.Name, snap.DroppedSpans, snap.DroppedAttrs)
		}
	}
	for _, name := range []string{"POST /v1/solve", "POST /v1/solve/batch", "POST /v1/traffic",
		"POST /v1/session", "POST /v1/session/" + created.SessionID + "/events"} {
		if !seen[name] {
			t.Errorf("no trace of %s (have %v)", name, seen)
		}
	}
}
