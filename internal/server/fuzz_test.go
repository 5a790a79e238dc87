package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/rng"
)

// fuzzSessionEvent translates one fuzz byte into a session event
// against the mirror's current state. Low bytes map onto the same mix
// the differential tests exercise (move-heavy, with add/remove churn
// and retunes); the top of the range deliberately produces frames the
// server must reject — out-of-range indices and zero-length geometry —
// so the fuzzer also walks the error-delta path. The second return
// says whether rejection is the required outcome.
func fuzzSessionEvent(m *mirror, b byte, r *rng.Source) (network.SessionEvent, bool) {
	n := len(m.links)
	switch {
	case b >= 250: // index past the end: fails wire validation
		p := geom.Point{X: 1, Y: 1}
		return network.SessionEvent{Type: network.EventMove, Link: n + int(b)%5, Sender: &p}, true
	case b >= 244: // sender onto own receiver: zero-length link
		i := int(b) % n
		p := m.links[i].Receiver
		return network.SessionEvent{Type: network.EventMove, Link: i, Sender: &p}, true
	}
	switch roll := int(b) % 10; {
	case roll < 6: // move
		i := int(b/10) % n
		p := geom.Point{X: r.Float64() * 500, Y: r.Float64() * 500}
		if b%2 == 0 {
			return network.SessionEvent{Type: network.EventMove, Link: i, Sender: &p}, false
		}
		return network.SessionEvent{Type: network.EventMove, Link: i, Receiver: &p}, false
	case roll < 7: // add
		s := geom.Point{X: r.Float64() * 500, Y: r.Float64() * 500}
		d := geom.Point{X: s.X + 1 + r.Float64()*30, Y: s.Y + r.Float64()}
		return network.SessionEvent{Type: network.EventAdd,
			Add: &network.Link{Sender: s, Receiver: d, Rate: 1, Power: 1}}, false
	case roll < 9 && n > 2: // remove
		return network.SessionEvent{Type: network.EventRemove, Link: int(b/10) % n}, false
	default: // retune
		return network.SessionEvent{Type: network.EventRetune,
			Eps: []float64{0.05, 0.1, 0.2, 0.3}[int(b/10)%4]}, false
	}
}

// FuzzSessionEvents drives the full session lifecycle through the real
// HTTP stack: register, stream fuzz-derived events over a live
// connection, disconnect at a fuzz-chosen cut point, verify the replay
// endpoint reproduces every confirmed delta byte-for-byte, then resume
// on a fresh stream and finish the sequence. The oracle is the same as
// the differential tests': the mirrored state must equal a cold solve
// of the final link set, the server's authoritative GET must agree
// with the mirror, and rejected frames must never advance the
// sequence number.
func FuzzSessionEvents(f *testing.F) {
	// Corpus seeded from the event mixes the differential tests cover:
	// move-only (0,2,4 → move), churn with adds (6) and removes (8),
	// retunes (9), and the forced-rejection band (244+).
	f.Add([]byte{0, 2, 4, 10, 12, 24}, uint8(3), uint64(1))
	f.Add([]byte{6, 0, 8, 6, 2, 8, 46, 96}, uint8(4), uint64(2))
	f.Add([]byte{9, 0, 39, 2, 99, 4}, uint8(2), uint64(3))
	f.Add([]byte{250, 0, 244, 2, 255, 4, 245}, uint8(5), uint64(4))
	f.Add([]byte{6, 6, 6, 9, 8, 8, 0, 1, 2, 3}, uint8(0), uint64(5))

	f.Fuzz(func(t *testing.T, data []byte, cut uint8, seed uint64) {
		if len(data) == 0 {
			return
		}
		if len(data) > 48 {
			data = data[:48]
		}
		_, ts := newSessionServer(t, Config{})
		links := paperLinks(t, 6, seed%16+1)
		created := createSession(t, ts, SessionRequest{Algorithm: "greedy", Links: links})
		m := newMirror(links, created)

		r := rng.New(seed | 1)
		var confirmed [][]byte // raw success deltas, in seq order
		run := func(st *eventStream, part []byte) {
			for _, b := range part {
				ev, wantReject := fuzzSessionEvent(m, b, r)
				st.send(ev)
				d, raw := st.recv()
				if d.Error != "" {
					if d.Seq != m.seq {
						t.Fatalf("error delta moved seq %d → %d", m.seq, d.Seq)
					}
					continue
				}
				if wantReject {
					t.Fatalf("event %+v must be rejected, got delta %s", ev, raw)
				}
				m.apply(t, ev, d)
				confirmed = append(confirmed, raw)
			}
		}

		st := openStream(t, ts, created.SessionID)
		run(st, data[:int(cut)%(len(data)+1)])
		st.disconnect() // the mid-session disconnect resume exists for

		// Replay from seq 0 must reproduce every confirmed delta
		// byte-for-byte — no gaps, no error frames, no reordering.
		resp, err := ts.Client().Get(ts.URL + "/v1/session/" + created.SessionID + "/deltas?seq=0")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replay: status %d: %s", resp.StatusCode, readAll(t, resp.Body))
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), maxEventLine)
		for i := 0; sc.Scan(); i++ {
			if i >= len(confirmed) {
				t.Fatalf("replay frame %d beyond the %d confirmed deltas: %s", i, len(confirmed), sc.Bytes())
			}
			if string(sc.Bytes()) != string(confirmed[i]) {
				t.Fatalf("replay frame %d diverged:\n  replay %s\n  stream %s", i, sc.Bytes(), confirmed[i])
			}
			confirmed[i] = nil
		}
		resp.Body.Close()
		for i, raw := range confirmed {
			if raw != nil {
				t.Fatalf("replay omitted confirmed delta %d: %s", i, raw)
			}
		}

		st2 := openStream(t, ts, created.SessionID)
		run(st2, data[int(cut)%(len(data)+1):])
		st2.closeWrite()

		m.coldCheck(t, "greedy")
		resp, err = ts.Client().Get(ts.URL + "/v1/session/" + created.SessionID)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get state: status %d: %s", resp.StatusCode, body)
		}
		var state SessionResponse
		if err := json.Unmarshal(body, &state); err != nil {
			t.Fatal(err)
		}
		if state.Seq != m.seq {
			t.Fatalf("server seq %d, mirror %d", state.Seq, m.seq)
		}
		gotActive, _ := json.Marshal(state.Active)
		wantActive, _ := json.Marshal(m.active)
		if string(gotActive) != string(wantActive) {
			t.Fatalf("server active %s, mirror %s", gotActive, wantActive)
		}
	})
}
