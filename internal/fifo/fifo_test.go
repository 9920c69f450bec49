package fifo

import (
	"slices"
	"testing"
)

func TestOrderAcrossSlides(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	// Interleave pushes and pops so the live items slide back to the
	// front of the array many times.
	for round := 0; round < 200; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < round%5+1 && q.Len() > 0; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("round %d: popped %d, want %d", round, got, want)
			}
			want++
		}
	}
	if q.Len() != next-want {
		t.Fatalf("Len = %d, want %d", q.Len(), next-want)
	}
	for i, x := range q.Items() {
		if x != want+i {
			t.Fatalf("Items()[%d] = %d, want %d", i, x, want+i)
		}
	}
}

func TestAppendAndDrop(t *testing.T) {
	var q Queue[byte]
	q.Append([]byte("hello, "))
	q.Drop(5)
	q.Append([]byte("world"))
	if got := string(q.Items()); got != ", world" {
		t.Fatalf("Items = %q", got)
	}
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Len after Reset = %d", q.Len())
	}
	q.Append([]byte("again"))
	if got := string(q.Items()); got != "again" {
		t.Fatalf("Items after Reset = %q", got)
	}
}

func TestDropPastEndPanics(t *testing.T) {
	var q Queue[int]
	q.Push(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Drop(2) of a one-item queue did not panic")
		}
	}()
	q.Drop(2)
}

// Popped slots are zeroed, so a queue of pointers does not keep what it
// handed out alive.
func TestPopReleasesReferences(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 4; i++ {
		q.Push(new(int))
	}
	q.Pop()
	q.Drop(1)
	if slices.ContainsFunc(q.buf[:q.head], func(p *int) bool { return p != nil }) {
		t.Fatal("consumed slots still hold pointers")
	}
}

// A queue whose length stays bounded stops allocating once its array has
// grown to the bound — the property the transport paths rely on.
func TestBoundedQueueReusesItsArray(t *testing.T) {
	var q Queue[[]byte]
	item := make([]byte, 8)
	churn := func() {
		for i := 0; i < 3; i++ {
			q.Push(item)
		}
		q.Pop()
		q.Pop()
		q.Pop()
	}
	churn() // grow the array once
	if n := testing.AllocsPerRun(100, churn); n != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f times per round", n)
	}

	var w Queue[byte]
	window := func() {
		w.Append(item)
		w.Drop(4)
	}
	for i := 0; i < 4; i++ {
		window()
	}
	if n := testing.AllocsPerRun(100, window); n != 0 {
		t.Fatalf("a sliding byte window allocates %.1f times per round", n)
	}
}

// base is the first slot of q's array, which names the array; nil when
// q has none.
func base[T any](buf []T) *T {
	if cap(buf) == 0 {
		return nil
	}
	return &buf[:cap(buf)][0]
}

// A drained queue gives its array to its spares, and the next push onto
// an empty queue bound to them takes that array instead of allocating.
func TestDrainedQueueReturnsItsArray(t *testing.T) {
	var sp Spares[*int]
	var q, r Queue[*int]
	q.UseSpares(&sp)
	r.UseSpares(&sp)
	for i := 0; i < 5; i++ {
		q.Push(new(int))
	}
	arr := base(q.buf)
	q.Pop()
	q.Drop(4)
	if q.buf != nil || len(sp.arrays) != 1 || base(sp.arrays[0]) != arr {
		t.Fatalf("the drained queue kept its array: buf cap %d, %d spares", cap(q.buf), len(sp.arrays))
	}
	if slices.ContainsFunc(sp.arrays[0][:cap(sp.arrays[0])], func(p *int) bool { return p != nil }) {
		t.Fatal("a spare array still holds pointers")
	}
	r.Push(new(int))
	if base(r.buf) != arr || len(sp.arrays) != 0 {
		t.Fatalf("the push onto an empty queue did not take the spare array (%d spares left)", len(sp.arrays))
	}
	churn := func() {
		r.Pop()
		q.Push(nil)
		q.Push(nil)
		q.Reset()
		r.Push(nil)
	}
	if n := testing.AllocsPerRun(100, churn); n != 0 {
		t.Fatalf("queues refilling from their spares allocate %.1f times per round", n)
	}
}

// Resetting an empty queue that has no array stocks nothing.
func TestEmptyResetStocksNothing(t *testing.T) {
	var sp Spares[int]
	var q Queue[int]
	q.UseSpares(&sp)
	q.Reset()
	q.Drop(0)
	if len(sp.arrays) != 0 {
		t.Fatalf("an empty queue stocked %d arrays", len(sp.arrays))
	}
}

// Queues sharing spares keep their order across slides and drains, and
// no array is ever held by two live queues, or by a queue and the
// spares, at once.
func TestSharedSparesKeepOrderAndOwnership(t *testing.T) {
	var sp Spares[int]
	qs := make([]Queue[int], 4)
	next := make([]int, len(qs)) // next value to push, per queue
	want := make([]int, len(qs)) // next value to pop, per queue
	for i := range qs {
		qs[i].UseSpares(&sp)
	}
	for round := 0; round < 2000; round++ {
		i := round * 7 % len(qs)
		q := &qs[i]
		switch {
		case round%5 == 0:
			// Drain, so the array goes back to the spares.
			for q.Len() > 0 {
				if got := q.Pop(); got != want[i] {
					t.Fatalf("round %d: queue %d popped %d, want %d", round, i, got, want[i])
				}
				want[i]++
			}
		case round%3 == 0:
			for k := 0; k < round%4+1 && q.Len() > 0; k++ {
				if got := q.Pop(); got != want[i] {
					t.Fatalf("round %d: queue %d popped %d, want %d", round, i, got, want[i])
				}
				want[i]++
			}
		default:
			for k := 0; k < round%9+1; k++ {
				q.Push(next[i])
				next[i]++
			}
		}
		seen := map[*int]string{}
		for _, a := range sp.arrays {
			seen[base(a)] = "the spares"
		}
		for j := range qs {
			b := base(qs[j].buf)
			if b == nil {
				continue
			}
			if owner, dup := seen[b]; dup {
				t.Fatalf("round %d: queue %d shares its array with %s", round, j, owner)
			}
			seen[b] = "another queue"
		}
	}
	for i := range qs {
		for k, x := range qs[i].Items() {
			if x != want[i]+k {
				t.Fatalf("queue %d: Items()[%d] = %d, want %d", i, k, x, want[i]+k)
			}
		}
	}
}
