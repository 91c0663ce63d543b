package clusterdes

import (
	"slices"
	"testing"

	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/resilience"
	"hipster/internal/workload"
)

// queueIDs returns node n's queued request ids, oldest first, leaving
// the queue as it was.
func queueIDs(n *desNode) []int32 {
	ids := make([]int32, n.queue.Len())
	for i := range ids {
		ids[i] = n.queue.Pop()
		n.queue.Push(ids[i])
	}
	return ids
}

// TestBoundaryStealLeavesReferencedQueue covers a cross-domain steal
// with deadlines on. Every queued request holds its deadline timer's
// reference, so none can move between request tables: an idle node's
// boundary kick must leave the victim's queue exactly as it was — same
// requests, same order, same references — and count no steal.
func TestBoundaryStealLeavesReferencedQueue(t *testing.T) {
	nodes, err := Uniform(2, platform.JunoR1(), workload.WebSearch())
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Options{
		Nodes:      nodes,
		Pattern:    loadgen.Constant{Frac: 0.5},
		Mitigation: WorkStealing{},
		Domains:    2,
		Seed:       3,
		Resilience: &resilience.Options{Timeout: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	victim, vl := f.nodes[0], f.domains[0]
	for i := 0; i < 6; i++ {
		id := vl.alloc(0, int32(victim.id))
		if !vl.dispatch(victim, id, 0) {
			t.Fatalf("request %d refused", i)
		}
		vl.armDeadline(id, 0)
	}
	want := queueIDs(victim)
	if len(want) < f.minDepth {
		t.Fatalf("victim queue %d deep, need at least %d to be robbed", len(want), f.minDepth)
	}

	f.boundaryKick(0)

	if got := queueIDs(victim); !slices.Equal(got, want) {
		t.Fatalf("boundary kick changed the victim's queue to %v, want %v", got, want)
	}
	for _, id := range want {
		if r := vl.reqs[id]; r.refs != 2 || r.done {
			t.Fatalf("queued request %d: refs %d done %v, want 2 (queue slot, deadline) and live", id, r.refs, r.done)
		}
	}
	if f.stats.CrossDomainSteals != 0 || f.domains[1].steals != 0 {
		t.Fatalf("counted %d cross-domain steals, %d thief-domain steals; want none",
			f.stats.CrossDomainSteals, f.domains[1].steals)
	}
	if busy := busySlots(f.nodes[1]); busy != 0 {
		t.Fatalf("thief serves %d requests, want none", busy)
	}
}
