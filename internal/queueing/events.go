package queueing

// TimeHeap is a generic binary min-heap on float64 event times with an
// arbitrary payload, the event queue of both discrete-event
// simulators: the single-node Simulator keys server completions on it,
// and the cluster-scale DES schedules completions, retries and the
// timers its FIFO timer lanes refuse through one heap per loop (its
// arrivals, interval ticks and lane heads are merged with the heap top
// by comparison). It replicates container/heap's sift order exactly —
// ties on the key keep the order the standard library would produce —
// so simulations built on it are bit-reproducible for a given
// insertion sequence. The zero value is ready to use; a TimeHeap is
// not safe for concurrent use.
type TimeHeap[T any] struct {
	keys []float64
	vals []T
}

// Len returns the number of pending events.
func (h *TimeHeap[T]) Len() int { return len(h.keys) }

// Reset discards all pending events, keeping capacity.
func (h *TimeHeap[T]) Reset() {
	h.keys = h.keys[:0]
	h.vals = h.vals[:0]
}

// PeekTime returns the earliest event time without removing it; ok is
// false on an empty heap.
func (h *TimeHeap[T]) PeekTime() (t float64, ok bool) {
	if len(h.keys) == 0 {
		return 0, false
	}
	return h.keys[0], true
}

// Push schedules v at time t, mirroring container/heap.Push. The sift
// moves a hole up instead of swapping at each level: every parent that
// the new key beats shifts down one slot, and the key lands where
// container/heap's swaps would have left it.
func (h *TimeHeap[T]) Push(t float64, v T) {
	h.keys = append(h.keys, t)
	h.vals = append(h.vals, v)
	j := len(h.keys) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(t < h.keys[i]) {
			break
		}
		h.keys[j] = h.keys[i]
		h.vals[j] = h.vals[i]
		j = i
	}
	h.keys[j] = t
	h.vals[j] = v
}

// Pop removes and returns the earliest event, mirroring
// container/heap.Pop: the last element replaces the root and sifts
// down over the shortened heap. The sift moves a hole down from the
// root, so the array ends exactly as container/heap's swaps leave it.
// Pop on an empty heap panics.
func (h *TimeHeap[T]) Pop() (float64, T) {
	t, v := h.keys[0], h.vals[0]
	n := len(h.keys) - 1
	xk, xv := h.keys[n], h.vals[n]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.keys[j2] < h.keys[j1] {
			j = j2
		}
		if !(h.keys[j] < xk) {
			break
		}
		h.keys[i] = h.keys[j]
		h.vals[i] = h.vals[j]
		i = j
	}
	h.keys[i] = xk
	h.vals[i] = xv
	h.keys = h.keys[:n]
	h.vals = h.vals[:n]
	return t, v
}

// Ring is a generic FIFO ring buffer: push to the tail, pop from the
// head, power-of-two storage grown on demand. The single-node
// Simulator queues waiting arrival times on one; the cluster-scale DES
// keeps one per node holding queued request ids, which work stealing
// also pops from, and two per domain loop as its deadline and hedge
// timer lanes.
// The zero value is ready to use; a Ring is not safe for concurrent
// use.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Reset discards all queued elements, keeping capacity.
func (r *Ring[T]) Reset() { r.head, r.n = 0, 0 }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the oldest element. Pop on an empty ring
// panics.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("queueing: Pop on empty ring")
	}
	v := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Peek returns the oldest element without removing it. Peek on an
// empty ring panics, as Pop does.
func (r *Ring[T]) Peek() T {
	if r.n == 0 {
		panic("queueing: Peek on empty ring")
	}
	return r.buf[r.head]
}

// grow doubles the storage, linearizing the live window so the
// power-of-two masking stays valid.
func (r *Ring[T]) grow() {
	n := 2 * len(r.buf)
	if n == 0 {
		n = 16
	}
	buf := make([]T, n)
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf = buf
	r.head = 0
}
