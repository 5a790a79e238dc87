package mobility

import (
	"context"
	"fmt"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Editor applies streaming geometry events — move, add, remove, retune
// — onto a live Prepared handle, one explicit event at a time, and
// picks the cheapest update the event admits:
//
//   - move goes through Problem.Rebind — the dense backend drops the
//     moved link's row and patches its column in the resident rows
//     instead of rebuilding, which is what makes per-event re-solving
//     affordable;
//   - retune goes through Prepared.Derive — ε never enters the stored
//     factors, so the field is reused untouched;
//   - add and remove change the link count, which no backend can patch
//     incrementally; they rebuild the field (counted by Rebuilds so
//     callers can account for the cost honestly: every row the
//     solves had filled is filled again on demand).
//
// Every mutator validates the candidate geometry through NewLinkSet
// before touching the problem, so a rejected event provably leaves the
// editor's state unchanged. An Editor is not safe for concurrent use;
// callers serialize events against solves exactly as Problem.Rebind
// already requires.
type Editor struct {
	links []network.Link
	opt   sched.Option
	prep  *sched.Prepared

	rebinds  int64
	rebuilds int64
}

// NewEditor wraps an existing prepared handle. opt must be the field
// option the handle was built with (nil selects the dense default);
// add and remove rebuild through it.
func NewEditor(prep *sched.Prepared, opt sched.Option) *Editor {
	if opt == nil {
		opt = sched.WithDenseField()
	}
	return &Editor{
		links: prep.Problem().Links.Links(),
		opt:   opt,
		prep:  prep,
	}
}

// Prepared returns the current solve handle. Rebuilding events (add,
// remove) replace it, so callers must re-read after every event rather
// than caching it.
func (ed *Editor) Prepared() *sched.Prepared { return ed.prep }

// N returns the current number of links.
func (ed *Editor) N() int { return len(ed.links) }

// Links returns a copy of the current link list.
func (ed *Editor) Links() []network.Link {
	return append([]network.Link(nil), ed.links...)
}

// Rebinds counts events applied by incremental field patching.
func (ed *Editor) Rebinds() int64 { return ed.rebinds }

// Rebuilds counts events that paid a full field reconstruction.
func (ed *Editor) Rebuilds() int64 { return ed.rebuilds }

// Apply dispatches one wire event. The frame must already have passed
// SessionEvent.Validate against the current N.
func (ed *Editor) Apply(ev *network.SessionEvent) error {
	return ed.ApplyContext(context.Background(), ev)
}

// ApplyContext is Apply under a context. When ctx carries a trace span
// the update path the event took is recorded as a distinct span —
// "rebind" for a move (the dense row drop and column patch), "rebuild"
// for add/remove (a full field reconstruction, with the builder's
// phases nested inside), "derive" for a retune (field reused
// untouched) — so a session trace shows which events paid a rebuild.
func (ed *Editor) ApplyContext(ctx context.Context, ev *network.SessionEvent) error {
	parent := obs.SpanFrom(ctx)
	switch ev.Type {
	case network.EventMove:
		sp := parent.Child("rebind")
		sp.SetInt("link", int64(ev.Link))
		err := ed.Move(ev.Link, ev.Sender, ev.Receiver)
		sp.End()
		return err
	case network.EventAdd:
		sp := parent.Child("rebuild")
		sp.SetStr("cause", "add")
		err := ed.add(obs.ContextWithSpan(ctx, sp), *ev.Add)
		sp.End()
		return err
	case network.EventRemove:
		sp := parent.Child("rebuild")
		sp.SetStr("cause", "remove")
		sp.SetInt("link", int64(ev.Link))
		err := ed.remove(obs.ContextWithSpan(ctx, sp), ev.Link)
		sp.End()
		return err
	case network.EventRetune:
		sp := parent.Child("derive")
		sp.SetFloat("eps", ev.Eps)
		err := ed.Retune(ev.Eps)
		sp.End()
		return err
	default:
		return fmt.Errorf("mobility: unknown event type %q", ev.Type)
	}
}

// Move repositions link i: a non-nil sender and/or receiver replaces
// the corresponding endpoint. The interference field is patched
// incrementally via Rebind — on the dense backend only row and column
// i are recomputed.
func (ed *Editor) Move(i int, sender, receiver *geom.Point) error {
	if i < 0 || i >= len(ed.links) {
		return fmt.Errorf("mobility: move link %d out of range [0,%d)", i, len(ed.links))
	}
	if sender == nil && receiver == nil {
		return fmt.Errorf("mobility: move needs a sender and/or receiver position")
	}
	next := append([]network.Link(nil), ed.links...)
	l := next[i]
	if sender != nil {
		l.Sender = *sender
	}
	if receiver != nil {
		l.Receiver = *receiver
	}
	next[i] = l
	ls, err := network.NewLinkSet(next)
	if err != nil {
		return err
	}
	if err := ed.prep.Problem().Rebind(ls, []int{i}); err != nil {
		return err
	}
	ed.links = next
	ed.rebinds++
	return nil
}

// Add appends a link and rebuilds the field (the link count changed;
// no backend patches that incrementally). The new link's index is the
// new N−1; existing indices are stable.
func (ed *Editor) Add(l network.Link) error { return ed.add(context.Background(), l) }

func (ed *Editor) add(ctx context.Context, l network.Link) error {
	next := make([]network.Link, 0, len(ed.links)+1)
	next = append(next, ed.links...)
	next = append(next, l)
	return ed.rebuild(ctx, next)
}

// Remove splices link i out and rebuilds the field. Links above i
// shift down by one — RenumberAfterRemove is the matching index
// rewrite for any schedule held against the old instance.
func (ed *Editor) Remove(i int) error { return ed.remove(context.Background(), i) }

func (ed *Editor) remove(ctx context.Context, i int) error {
	if i < 0 || i >= len(ed.links) {
		return fmt.Errorf("mobility: remove link %d out of range [0,%d)", i, len(ed.links))
	}
	if len(ed.links) == 1 {
		return fmt.Errorf("mobility: cannot remove the last link (an instance needs at least one)")
	}
	next := make([]network.Link, 0, len(ed.links)-1)
	next = append(next, ed.links[:i]...)
	next = append(next, ed.links[i+1:]...)
	return ed.rebuild(ctx, next)
}

// Retune changes the target success probability ε, deriving a sibling
// handle over the same field — no rebuild, no rebind. After a retune
// the previous handle is dropped, so the Derive-vs-Rebind exclusion
// (siblings must not outlive a rebind) holds by construction: the
// derived handle is the only live view of the field.
func (ed *Editor) Retune(eps float64) error {
	p := ed.prep.Problem().Params
	p.Eps = eps
	dp, err := ed.prep.Derive(p)
	if err != nil {
		return err
	}
	ed.prep = dp
	return nil
}

// rebuild validates next and replaces the prepared handle with a fresh
// build over it, keeping the current radio parameters.
func (ed *Editor) rebuild(ctx context.Context, next []network.Link) error {
	ls, err := network.NewLinkSet(next)
	if err != nil {
		return err
	}
	prep, err := sched.PrepareContext(ctx, ls, ed.prep.Problem().Params, ed.opt)
	if err != nil {
		return err
	}
	ed.prep = prep
	ed.links = next
	ed.rebuilds++
	return nil
}
