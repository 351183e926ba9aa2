package core

import "math/bits"

// Completion events. Every issued uop is scheduled to complete at an
// absolute cycle, and the cycle loop pops due events in (cycle, uop seq)
// order. Latencies are small bounded integers, so the queue is a timing
// wheel: one bucket per cycle over a power-of-two horizon, each bucket an
// intrusive list of uops kept in seq order, plus an occupancy bitmap that
// finds the next busy bucket a word at a time. Events the window cannot
// hold — due before its start (non-positive latencies are legal
// configurations) or past its horizon (long DRAM queues) — go to a
// binary-heap overflow, and every pop compares the wheel's head with the
// overflow's, so the pop order is exactly the (cycle, seq) order of one
// heap holding everything.

// wheelSize is the wheel's horizon in cycles: a power of two, and a
// multiple of 64 so the occupancy bitmap has no partial words.
const (
	wheelSize = 1024
	wheelMask = wheelSize - 1
)

// bucket is one cycle's events: a singly linked list through uop.next in
// increasing seq order.
type bucket struct {
	head, tail *uop
}

// eventWheel is the completion-event queue. Its buckets cover the cycles
// [cur, cur+wheelSize); bucket t&wheelMask holds only cycle t's events.
// cur trails the caller's clock and only moves across empty buckets. A
// uop sits in at most one bucket at a time (it is scheduled once per
// issue and popped before it completes).
type eventWheel struct {
	cur     int64
	n       int // events in buckets
	buckets [wheelSize]bucket
	busy    [wheelSize / 64]uint64 // bit t&wheelMask set: bucket non-empty
	far     eventHeap              // events outside the window
}

// schedule queues u to complete at cycle at.
func (w *eventWheel) schedule(at int64, u *uop) {
	if at < w.cur || at-w.cur >= wheelSize {
		w.far.push(event{at: at, seq: u.seq, u: u})
		return
	}
	i := at & wheelMask
	b := &w.buckets[i]
	w.n++
	u.next = nil
	switch {
	case b.head == nil:
		b.head, b.tail = u, u
		w.busy[i>>6] |= 1 << (i & 63)
	case b.tail.seq < u.seq:
		// Uops issue oldest-first, so appending is the common case.
		b.tail.next, b.tail = u, u
	default:
		p := &b.head
		for (*p).seq < u.seq {
			p = &(*p).next
		}
		u.next, *p = *p, u
	}
}

// firstBusy returns the cycle of the earliest non-empty bucket among the
// span cycles starting at cur, or -1.
func (w *eventWheel) firstBusy(span int64) int64 {
	if w.n == 0 || span <= 0 {
		return -1
	}
	if span > wheelSize {
		span = wheelSize
	}
	i := w.cur & wheelMask
	for off := int64(0); off < span; {
		if word := w.busy[i>>6] >> (i & 63); word != 0 {
			if d := off + int64(bits.TrailingZeros64(word)); d < span {
				return w.cur + d
			}
			return -1
		}
		step := 64 - i&63
		off += step
		i = (i + step) & wheelMask
	}
	return -1
}

// popDue removes and returns the next event due at or before now, in
// (cycle, seq) order; nil when none is due. now must not decrease from
// one call to the next.
func (w *eventWheel) popDue(now int64) *uop {
	t := w.firstBusy(now - w.cur + 1)
	var u *uop
	if t >= 0 {
		u = w.buckets[t&wheelMask].head
	}
	if len(w.far) > 0 {
		if f := &w.far[0]; f.at <= now && (u == nil || f.at < t || f.at == t && f.seq < u.seq) {
			return w.far.popMin().u
		}
	}
	if u == nil {
		// Nothing in the wheel is due: every bucket before now is
		// empty, so the window may start at now.
		if now > w.cur {
			w.cur = now
		}
		return nil
	}
	w.cur = t
	b := &w.buckets[t&wheelMask]
	b.head = u.next
	if b.head == nil {
		b.tail = nil
		w.busy[(t&wheelMask)>>6] &^= 1 << (t & 63)
	}
	w.n--
	return u
}

// nextAt returns the cycle of the earliest pending event, or -1.
func (w *eventWheel) nextAt() int64 {
	t := w.firstBusy(wheelSize)
	if len(w.far) > 0 && (t < 0 || w.far[0].at < t) {
		return w.far[0].at
	}
	return t
}

// reset drops every pending event (a flush squashes the whole window).
func (w *eventWheel) reset() {
	for k, word := range w.busy {
		for word != 0 {
			i := k<<6 | bits.TrailingZeros64(word)
			w.buckets[i] = bucket{}
			word &= word - 1
		}
		w.busy[k] = 0
	}
	w.n = 0
	w.far = w.far[:0]
}

// event is one overflow entry; seq is the uop's, kept inline so sifts
// compare without dereferencing uops.
type event struct {
	at, seq int64
	u       *uop
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events ordered by (cycle, seq): the
// wheel's overflow.
type eventHeap []event

func (h *eventHeap) push(e event) {
	a := append(*h, e)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p].before(&a[i]) {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
	*h = a
}

func (h *eventHeap) popMin() event {
	a := *h
	e := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = event{}
	a = a[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && a[r].before(&a[l]) {
			m = r
		}
		if a[i].before(&a[m]) {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	*h = a
	return e
}
