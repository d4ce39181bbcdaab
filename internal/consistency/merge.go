package consistency

import (
	"fmt"

	"memverify/internal/memory"
)

// MergeSchedules implements the VSC-Conflict construction discussed in
// §6.3: given a coherent schedule for each address of the execution, it
// attempts to merge them into one sequentially consistent schedule.
//
// Encoded in each coherent schedule is a serial order for the writes of
// its address and a mapping from reads to the writes they observed.
// Treating those as hard constraints plus program order yields a
// precedence graph; a topological order of the graph is a sequentially
// consistent schedule, obtainable in O(n log n) time (here O(n + e) with
// hashing).
//
// The catch — and the paper's point — is that the coherent schedules are
// a constraint, not just a hint: an execution may be sequentially
// consistent and yet this particular set of coherent schedules may not be
// mergeable, in which case MergeSchedules reports Consistent == false
// while the SC verifier would succeed with a different set of per-address
// orders. VSC stays NP-Complete; the merge is only a sound, incomplete
// fast path.
//
// schedules must contain exactly one coherent schedule per address of
// exec; each is validated with memory.CheckCoherent before merging.
func MergeSchedules(exec *memory.Execution, schedules map[memory.Addr]memory.Schedule) (*Result, error) {
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	addrs := exec.Addresses()
	for _, a := range addrs {
		s, ok := schedules[a]
		if !ok {
			return nil, fmt.Errorf("consistency: no coherent schedule supplied for address %d", a)
		}
		if err := memory.CheckCoherent(exec, a, s); err != nil {
			return nil, fmt.Errorf("consistency: schedule for address %d is not coherent: %w", a, err)
		}
	}

	// Node numbering: dense index per operation.
	id := make(map[memory.Ref]int)
	var refs []memory.Ref
	for p, h := range exec.Histories {
		for i := range h {
			r := memory.Ref{Proc: p, Index: i}
			id[r] = len(refs)
			refs = append(refs, r)
		}
	}
	n := len(refs)
	adj := make([][]int, n)
	indeg := make([]int, n)
	addEdge := func(a, b memory.Ref) {
		u, v := id[a], id[b]
		adj[u] = append(adj[u], v)
		indeg[v]++
	}

	// Program order edges.
	for p, h := range exec.Histories {
		for i := 1; i < len(h); i++ {
			addEdge(memory.Ref{Proc: p, Index: i - 1}, memory.Ref{Proc: p, Index: i})
		}
	}

	// Conflict edges from each coherent schedule: successive writes are
	// ordered; each read follows the write it observed and precedes the
	// next write.
	for _, a := range addrs {
		var lastWrite *memory.Ref
		var pendingReads []memory.Ref // reads since lastWrite
		for _, r := range schedules[a] {
			r := r
			o := exec.Op(r)
			if _, ok := o.Writes(); ok {
				if lastWrite != nil {
					addEdge(*lastWrite, r)
				}
				for _, rd := range pendingReads {
					addEdge(rd, r)
				}
				pendingReads = pendingReads[:0]
				lastWrite = &r
				continue
			}
			// Pure read: it observed lastWrite (or the initial value).
			if lastWrite != nil {
				addEdge(*lastWrite, r)
			}
			pendingReads = append(pendingReads, r)
		}
	}

	// Kahn topological sort.
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order := make(memory.Schedule, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, refs[v])
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != n {
		return &Result{
			Consistent: false,
			Decided:    true,
			Algorithm:  "vsc-conflict-merge",
		}, nil
	}
	// The topological order interleaves the per-address coherent
	// schedules without reordering any of them, so reads still observe
	// the same writes; validate regardless.
	if err := memory.CheckSC(exec, order); err != nil {
		return nil, fmt.Errorf("consistency: internal error: merged schedule not SC: %w", err)
	}
	return &Result{
		Consistent: true,
		Decided:    true,
		Schedule:   order,
		Algorithm:  "vsc-conflict-merge",
	}, nil
}
