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
package fifo

// Queue is a FIFO of T. The zero value is an empty queue ready to use.
type Queue[T any] struct {
	buf  []T // buf[head:] are the live items, front first
	head int
}

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
// unless the live items themselves outgrow it.
func (q *Queue[T]) reserve(n int) {
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
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
}

// Reset empties the queue, keeping its array for reuse.
func (q *Queue[T]) Reset() { q.Drop(q.Len()) }
