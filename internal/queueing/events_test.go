package queueing

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is a container/heap reference the TimeHeap must match pop for
// pop, including tie order.
type refHeap struct {
	keys []float64
	vals []int
}

func (h *refHeap) Len() int           { return len(h.keys) }
func (h *refHeap) Less(i, j int) bool { return h.keys[i] < h.keys[j] }
func (h *refHeap) Swap(i, j int) {
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.vals[i], h.vals[j] = h.vals[j], h.vals[i]
}
func (h *refHeap) Push(x interface{}) {
	p := x.([2]float64)
	h.keys = append(h.keys, p[0])
	h.vals = append(h.vals, int(p[1]))
}
func (h *refHeap) Pop() interface{} {
	n := len(h.keys) - 1
	k, v := h.keys[n], h.vals[n]
	h.keys, h.vals = h.keys[:n], h.vals[:n]
	return [2]float64{k, float64(v)}
}

// TestTimeHeapMatchesContainerHeap interleaves pushes and pops on the
// TimeHeap and the standard-library heap with the same inputs,
// including duplicate keys, and requires identical pop sequences and an
// identical array layout after every operation — the hole sift must
// leave each slot where container/heap's swaps would.
func TestTimeHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var th TimeHeap[int]
	ref := &refHeap{}
	for op := 0; op < 5000; op++ {
		if th.Len() == 0 || rng.Float64() < 0.6 {
			k := float64(rng.Intn(50)) // coarse keys force ties
			v := op
			th.Push(k, v)
			heap.Push(ref, [2]float64{k, float64(v)})
		} else {
			gotK, gotV := th.Pop()
			want := heap.Pop(ref).([2]float64)
			if gotK != want[0] || gotV != int(want[1]) {
				t.Fatalf("op %d: Pop = (%v, %d), container/heap = (%v, %d)",
					op, gotK, gotV, want[0], int(want[1]))
			}
		}
		for i := range ref.keys {
			if th.keys[i] != ref.keys[i] || th.vals[i] != ref.vals[i] {
				t.Fatalf("op %d: slot %d = (%v, %d), container/heap = (%v, %d)",
					op, i, th.keys[i], th.vals[i], ref.keys[i], ref.vals[i])
			}
		}
	}
	if th.Len() != ref.Len() {
		t.Fatalf("length drifted: %d vs %d", th.Len(), ref.Len())
	}
	if _, ok := th.PeekTime(); ok != (th.Len() > 0) {
		t.Fatal("PeekTime ok disagrees with Len")
	}
	th.Reset()
	if th.Len() != 0 {
		t.Fatal("Reset left events behind")
	}
	if _, ok := th.PeekTime(); ok {
		t.Fatal("PeekTime ok on empty heap")
	}
}

// TestRingFIFO drives the ring against a plain slice queue across
// growth boundaries; Peek must name the element the next Pop returns.
func TestRingFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var r Ring[int]
	var ref []int
	grew := 0
	for op := 0; op < 4000; op++ {
		if len(ref) == 0 || rng.Float64() < 0.55 {
			c := len(r.buf)
			r.Push(op)
			ref = append(ref, op)
			if len(r.buf) != c {
				grew++
			}
			if got := r.Peek(); got != ref[0] {
				t.Fatalf("op %d: Peek after Push = %d, want %d", op, got, ref[0])
			}
			continue
		}
		peek := r.Peek()
		got := r.Pop()
		want := ref[0]
		ref = ref[1:]
		if got != want || peek != want {
			t.Fatalf("op %d: Peek = %d, Pop = %d, want %d", op, peek, got, want)
		}
		if r.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, r.Len(), len(ref))
		}
	}
	if grew < 3 {
		t.Fatalf("ring grew %d times; the walk must cross several growth boundaries", grew)
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("Reset left elements behind")
	}
	for name, f := range map[string]func(){"Pop": func() { r.Pop() }, "Peek": func() { r.Peek() }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on empty ring did not panic", name)
				}
			}()
			f()
		}()
	}
}
