// Package fifo provides Queue, a first-in first-out buffer whose backing
// array is reused instead of reallocated.
//
// The idiom it replaces, q = q[1:] on pop and append on push, walks the
// slice forward through its array, so every push that reaches the end of
// the capacity allocates a fresh array even when the queue holds one item.
// On the simulator's transport paths (receive queues, the stream send
// window) that is one allocation per message. Queue instead slides the
// live items back to the front of the array when a push would outgrow it,
// so a queue whose length stays bounded stops allocating once its array
// has grown to that bound.
//
// A queue that drains and refills, or one built anew each run, would
// still grow a fresh array from empty every time. Spares keeps those
// arrays: a queue bound to one gives its array back when it drains, and
// a push onto the empty queue takes a spare before it allocates.
package fifo

// Queue is a FIFO of T. The zero value is an empty queue ready to use.
type Queue[T any] struct {
	buf    []T // buf[head:] are the live items, front first
	head   int
	spares *Spares[T] // where a drained array goes, if anywhere
}

// Spares is a stack of empty backing arrays for Queues of T, shared by
// the queues bound to it (UseSpares). It holds no items: every slot of
// an array in it is the zero T, so an array of pointers keeps nothing
// alive. It grows to the most arrays its queues held at once and is not
// safe for concurrent use. The zero value is empty and ready to use.
type Spares[T any] struct {
	arrays [][]T
}

// UseSpares binds q to sp: from now on q gives its array to sp whenever
// it drains, and a push onto the empty q takes the array sp got last.
// Call it while q is empty.
func (q *Queue[T]) UseSpares(sp *Spares[T]) { q.spares = sp }

// Len returns the number of items in the queue.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Items returns the live items, front first. The slice aliases the queue's
// storage: it is valid until the next Push, Append, Pop, Drop or Reset.
func (q *Queue[T]) Items() []T { return q.buf[q.head:] }

// Push appends one item at the back.
func (q *Queue[T]) Push(x T) {
	q.reserve(1)
	q.buf = append(q.buf, x)
}

// Append copies xs to the back of the queue.
func (q *Queue[T]) Append(xs []T) {
	q.reserve(len(xs))
	q.buf = append(q.buf, xs...)
}

// reserve slides the live items to the front of the array when n more
// would not fit behind them, so the append that follows reuses the array
// unless the live items themselves outgrow it. An empty queue without an
// array first takes a spare.
func (q *Queue[T]) reserve(n int) {
	if cap(q.buf) == 0 && q.spares != nil {
		if k := len(q.spares.arrays) - 1; k >= 0 {
			q.buf = q.spares.arrays[k]
			q.spares.arrays[k] = nil
			q.spares.arrays = q.spares.arrays[:k]
		}
	}
	if q.head == 0 || len(q.buf)+n <= cap(q.buf) {
		return
	}
	live := copy(q.buf, q.buf[q.head:])
	clear(q.buf[live:])
	q.buf = q.buf[:live]
	q.head = 0
}

// Pop removes and returns the front item. It panics on an empty queue.
func (q *Queue[T]) Pop() T {
	x := q.buf[q.head]
	q.Drop(1)
	return x
}

// Drop discards the n front items. It panics if fewer than n are queued.
func (q *Queue[T]) Drop(n int) {
	if n > q.Len() {
		panic("fifo: drop past the end of the queue")
	}
	clear(q.buf[q.head : q.head+n]) // release references for the GC
	q.head += n
	if q.head < len(q.buf) {
		return
	}
	q.head = 0
	if q.spares != nil && cap(q.buf) > 0 {
		q.spares.arrays = append(q.spares.arrays, q.buf[:0])
		q.buf = nil
		return
	}
	q.buf = q.buf[:0]
}

// Reset empties the queue, keeping its array for reuse (or giving it to
// the queue's spares).
func (q *Queue[T]) Reset() { q.Drop(q.Len()) }
