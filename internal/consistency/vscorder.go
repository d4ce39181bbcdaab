package consistency

import (
	"context"
	"fmt"

	"memverify/internal/memory"
)

// solveVSCWithWriteOrders decides whether a sequentially consistent
// schedule exists that is consistent with the supplied per-address write
// orders (the memory-system augmentation of §5.2 applied to VSC). This
// is the problem Gibbons & Korach proved remains NP-Complete — the
// result §6.3 leans on to show that information sufficient to verify
// coherence in polynomial time does not make consistency tractable. The
// orders typically prune the search dramatically in practice
// nonetheless, which the A3/E7 experiments quantify.
//
// orders must contain, for every address of exec, the exact sequence of
// its writing operations. The search is the VSC search with one extra
// enabledness rule: a writing operation may only be scheduled once its
// predecessor in its address's order has been.
func solveVSCWithWriteOrders(ctx context.Context, exec *memory.Execution, orders map[memory.Addr][]memory.Ref, opts *Options) (*Result, error) {
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	// One pass counts every address's writers; a dense per-op table
	// catches an operation listed twice.
	writers := make(map[memory.Addr]int)
	listed := make([][]bool, len(exec.Histories))
	for p, h := range exec.Histories {
		listed[p] = make([]bool, len(h))
		for _, o := range h {
			if _, w := o.Writes(); w {
				writers[o.Addr]++
			}
		}
	}
	for _, a := range exec.Addresses() {
		order, ok := orders[a]
		if !ok && writers[a] > 0 {
			return nil, fmt.Errorf("consistency: no write order supplied for address %d", a)
		}
		if len(order) != writers[a] {
			return nil, fmt.Errorf("consistency: write order for address %d lists %d operations, execution has %d",
				a, len(order), writers[a])
		}
		for _, r := range order {
			if r.Proc < 0 || r.Proc >= len(exec.Histories) || r.Index < 0 || r.Index >= len(exec.Histories[r.Proc]) {
				return nil, fmt.Errorf("consistency: write order reference %s out of range", r)
			}
			o := exec.Op(r)
			if !o.IsMemory() || o.Addr != a {
				return nil, fmt.Errorf("consistency: order entry %s is not an operation of address %d", r, a)
			}
			if _, w := o.Writes(); !w {
				return nil, fmt.Errorf("consistency: order entry %s (%s) does not write", r, o)
			}
			if listed[r.Proc][r.Index] {
				return nil, fmt.Errorf("consistency: write order for address %d lists %s twice", a, r)
			}
			listed[r.Proc][r.Index] = true
		}
	}
	return solveVSC(ctx, exec, orders, opts, "vsc-write-order-search")
}
