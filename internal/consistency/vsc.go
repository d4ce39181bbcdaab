package consistency

import (
	"context"

	"memverify/internal/coherence"
	"memverify/internal/memory"
)

// solveVSC decides Verifying Sequential Consistency (Definition 6.1): is
// there a schedule of all operations, all addresses, in which every read
// returns the value written by the immediately preceding write to the
// same address? It runs the coherence package's exact-search kernel with
// one value slot per address (coherence.SearchSC), so VSC gets the same
// packed memo, eager rule, pooled scratch and worker team as VMC. With k
// histories and c addresses the state space is O(n^k · |D|^c), the
// constant-process bound cited in §5.1 from Gibbons & Korach. The search
// is complete absent a budget; VSC is NP-Complete, so worst-case time is
// exponential.
func solveVSC(ctx context.Context, exec *memory.Execution, orders map[memory.Addr][]memory.Ref, opts *Options, algorithm string) (*Result, error) {
	r, err := coherence.SearchSC(ctx, exec, orders, opts, algorithm)
	if err != nil {
		return nil, err
	}
	return &Result{
		Consistent: r.Coherent,
		Decided:    true,
		Schedule:   r.Schedule,
		Algorithm:  r.Algorithm,
		Stats:      r.Stats,
	}, nil
}
