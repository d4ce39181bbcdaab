package coherence

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// CheckpointKind tags coherence checkpoints in the solver envelope, so a
// coherence resume never consumes another model's state.
const CheckpointKind = "coherence-vmc"

// SavedResult is a completed per-address verdict carried by a
// checkpoint: enough to replay the report (and the certificate) without
// re-solving the address.
type SavedResult struct {
	Addr      memory.Addr     `json:"addr"`
	Coherent  bool            `json:"coherent"`
	Algorithm string          `json:"algorithm"`
	Stats     solver.Stats    `json:"stats"`
	Schedule  memory.Schedule `json:"schedule,omitempty"`
}

// PendingSearch is the interrupted per-address search: the memoized
// failed states (base64 of the searcher's binary keys) plus the frontier
// and partial stats at the abort. Seeding a resumed search with Memo is
// sound — each entry records that no coherent completion exists from
// that state, a fact of the instance — so the resumed search re-explores
// strictly less than a fresh one.
type PendingSearch struct {
	Addr     memory.Addr  `json:"addr"`
	Memo     []string     `json:"memo"`
	Frontier []memory.Ref `json:"frontier,omitempty"`
	Stats    solver.Stats `json:"stats"`
}

// Checkpoint is the resumable state of a per-address coherence
// verification: the executed addresses' verdicts and the one interrupted
// search. Fingerprint ties the checkpoint to the execution it was taken
// from; resuming against a different trace is rejected.
type Checkpoint struct {
	Fingerprint string         `json:"fingerprint"`
	Done        []SavedResult  `json:"done,omitempty"`
	Pending     *PendingSearch `json:"pending,omitempty"`
}

// WriteFile writes the checkpoint through the solver's versioned,
// checksummed envelope (atomic rename; see solver.WriteCheckpointFile).
func (c *Checkpoint) WriteFile(path string) error {
	return solver.WriteCheckpointFile(path, CheckpointKind, c)
}

// LoadCheckpoint reads and verifies a coherence checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	raw, err := solver.ReadCheckpointFile(path, CheckpointKind)
	if err != nil {
		return nil, err
	}
	var c Checkpoint
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("coherence: checkpoint payload: %w", err)
	}
	return &c, nil
}

// ExecutionFingerprint hashes an execution's observable content
// (histories in program order, declared initial and final values) so a
// checkpoint can prove it belongs to the trace being resumed. Memo-table
// soundness depends on the instance being identical; this is the guard.
func ExecutionFingerprint(exec *memory.Execution) string {
	h := sha256.New()
	fmt.Fprintf(h, "h%d\n", len(exec.Histories))
	for p, hist := range exec.Histories {
		for i, o := range hist {
			fmt.Fprintf(h, "%d.%d:%s\n", p, i, o)
		}
	}
	var addrs []memory.Addr
	for a := range exec.Initial {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		fmt.Fprintf(h, "i%d=%d\n", a, exec.Initial[a])
	}
	addrs = addrs[:0]
	for a := range exec.Final {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		fmt.Fprintf(h, "f%d=%d\n", a, exec.Final[a])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CheckpointRun accumulates resumable state across the address loop of
// VerifyCheckpoint or VerifyEach, which replays, seeds and records
// through it. It is not safe for concurrent use: the loop decides one
// address at a time, and the format models one pending search.
type CheckpointRun struct {
	fp      string
	done    []SavedResult
	doneIdx map[memory.Addr]int
	resume  *PendingSearch // pending search carried in from a loaded checkpoint
	current *PendingSearch // latest snapshot of the in-flight search
}

// NewCheckpointRun starts checkpoint accounting for a fresh run over
// exec.
func NewCheckpointRun(exec *memory.Execution) *CheckpointRun {
	return &CheckpointRun{fp: ExecutionFingerprint(exec), doneIdx: make(map[memory.Addr]int)}
}

// ResumeCheckpointRun starts checkpoint accounting seeded from a loaded
// checkpoint, verifying it belongs to exec.
func ResumeCheckpointRun(exec *memory.Execution, ck *Checkpoint) (*CheckpointRun, error) {
	r := NewCheckpointRun(exec)
	if ck == nil {
		return r, nil
	}
	if ck.Fingerprint != r.fp {
		return nil, fmt.Errorf("coherence: checkpoint was taken from a different execution (fingerprint %.12s, trace %.12s)",
			ck.Fingerprint, r.fp)
	}
	for _, d := range ck.Done {
		r.doneIdx[d.Addr] = len(r.done)
		r.done = append(r.done, d)
	}
	r.resume = ck.Pending
	return r, nil
}

// replay fills ar with the already-completed verdict for addr, if the
// resumed checkpoint carries one. The algorithm is annotated
// "checkpoint:" so reports show the verdict was replayed, not re-solved.
func (r *CheckpointRun) replay(addr memory.Addr, ar *AddrReport) bool {
	i, ok := r.doneIdx[addr]
	if !ok {
		return false
	}
	d := r.done[i]
	res := &Result{
		Coherent:  d.Coherent,
		Decided:   true,
		Schedule:  d.Schedule,
		Algorithm: "checkpoint:" + d.Algorithm,
		Stats:     d.Stats,
	}
	*ar = AddrReport{Addr: addr, Verdict: VerdictCoherent, Rung: RungExact, Result: res, Stats: res.Stats, Replayed: true}
	if !res.Coherent {
		ar.Verdict = VerdictIncoherent
	}
	return true
}

// configure returns a clone of opts wired for addr: the failed-state
// cache is seeded when the resumed checkpoint's pending search matches
// addr, and every snapshot the searcher takes (periodic and at-abort)
// lands in this run's current pending state.
func (r *CheckpointRun) configure(addr memory.Addr, opts *Options) *Options {
	o := opts.Clone()
	if r.resume != nil && r.resume.Addr == addr {
		o.ResumeMemo = decodeMemo(r.resume.Memo)
	}
	o.CheckpointSink = func(snap solver.SearchSnapshot) {
		r.current = &PendingSearch{
			Addr:     addr,
			Memo:     encodeMemo(snap.Memo),
			Frontier: snap.Frontier,
			Stats:    snap.Stats,
		}
	}
	return o
}

// record stores a completed per-address result and clears any in-flight
// snapshot for it.
func (r *CheckpointRun) record(addr memory.Addr, res *Result) {
	if i, ok := r.doneIdx[addr]; ok {
		r.done[i] = savedFrom(addr, res)
		return
	}
	r.doneIdx[addr] = len(r.done)
	r.done = append(r.done, savedFrom(addr, res))
	if r.current != nil && r.current.Addr == addr {
		r.current = nil
	}
}

// Checkpoint packages the run's state for writing: completed verdicts
// plus the most recent pending search, if any.
func (r *CheckpointRun) Checkpoint() *Checkpoint {
	ck := &Checkpoint{
		Fingerprint: r.fp,
		Done:        append([]SavedResult(nil), r.done...),
	}
	if r.current != nil {
		ck.Pending = r.current
	} else if r.resume != nil {
		// A run interrupted before its first snapshot keeps the carried-in
		// pending search rather than losing it.
		ck.Pending = r.resume
	}
	return ck
}

func savedFrom(addr memory.Addr, res *Result) SavedResult {
	return SavedResult{
		Addr:      addr,
		Coherent:  res.Coherent,
		Algorithm: res.Algorithm,
		Stats:     res.Stats,
		Schedule:  res.Schedule,
	}
}

// encodeMemo base64-encodes the searcher's binary memo keys for JSON.
func encodeMemo(keys []string) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = base64.StdEncoding.EncodeToString([]byte(k))
	}
	return out
}

// decodeMemo reverses encodeMemo, dropping entries that do not decode
// (a corrupted entry only loses pruning, never soundness — the search
// simply re-explores that state).
func decodeMemo(enc []string) []string {
	out := make([]string, 0, len(enc))
	for _, e := range enc {
		b, err := base64.StdEncoding.DecodeString(e)
		if err != nil {
			continue
		}
		out = append(out, string(b))
	}
	return out
}
