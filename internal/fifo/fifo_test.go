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
