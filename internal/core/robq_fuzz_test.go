package core

import (
	"testing"
)

// FuzzRobQ drives the ROB ring buffer against a reference slice: each
// input byte selects push / popFront / clear, and after every operation
// the ring's length, emptiness, fullness, front and full contents (via
// at) must match the model. This is the wraparound property test — head
// chases around the ring across clears and refills.
func FuzzRobQ(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 2, 0, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const capacity = 5 // small ring so wraparound happens constantly
		q := newRobQ(capacity)
		var model []int // trace indices, oldest first
		next := 0
		for _, op := range ops {
			switch op % 3 {
			case 0: // push
				if q.full() {
					continue
				}
				q.next().idx = next
				q.push()
				model = append(model, next)
				next++
			case 1: // popFront
				if q.empty() {
					continue
				}
				if got := q.front().idx; got != model[0] {
					t.Fatalf("popFront would retire idx %d, want %d", got, model[0])
				}
				q.popFront()
				model = model[1:]
			case 2: // clear (pipeline flush)
				q.clear()
				model = model[:0]
			}
			if q.len() != len(model) {
				t.Fatalf("len %d, model %d", q.len(), len(model))
			}
			if q.empty() != (len(model) == 0) || q.full() != (len(model) == capacity) {
				t.Fatalf("empty/full disagree with model size %d", len(model))
			}
			if len(model) > 0 && q.front().idx != model[0] {
				t.Fatalf("front idx %d, want %d", q.front().idx, model[0])
			}
			for i, want := range model {
				if q.at(i).idx != want {
					t.Fatalf("at(%d) idx %d, want %d", i, q.at(i).idx, want)
				}
			}
		}
		// Drain what's left: order must survive.
		for len(model) > 0 {
			if got := q.front().idx; got != model[0] {
				t.Fatalf("drain reached idx %d, want %d", got, model[0])
			}
			q.popFront()
			model = model[1:]
		}
		if !q.empty() {
			t.Fatal("queue not empty after drain")
		}
	})
}
