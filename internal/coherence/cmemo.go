package coherence

import (
	"sync"

	"memverify/internal/solver"
)

// The parallel exact search (psearch.go) shares one failed-state memo
// across its workers, so a subtree refuted by one worker prunes every
// other worker's search. cmemo is the concurrent form of the kernel's
// solver.MemoSet: the same packed state keys, sharded across
// independently locked shards (striped locking — the shard index comes
// from the top bits of the key's hash, so contention stays negligible
// for any realistic worker count). Each shard is a mutex over two
// MemoSets, one of claimed and one of failed keys.
//
// Where the sequential memo only knows "absent" and "failed", the
// concurrent one runs a three-state claim protocol per key:
//
//	empty   — nobody has visited the state;
//	claimed — some worker is exploring the state right now (the key is
//	          in the shard's claimed set);
//	failed  — the state is fully explored and has no complete schedule
//	          (the key is in the shard's failed set).
//
// A worker that finds a state claimed by another worker skips it
// instead of waiting (claim-skip). Soundness: the skipping worker
// treats the state as pruned, which is only consulted for the final
// "incoherent" verdict, and that verdict is declared only when every
// outstanding task has completed — at which point the claiming worker
// either marked the state failed (consistent with the skip) or found a
// certificate (in which case the verdict is coherent and the skip is
// irrelevant). A claim abandoned mid-exploration only happens when the
// whole search is aborting, and an abort never declares incoherent.
// Claims that are never resolved lose only pruning for other workers,
// never soundness — memo entries are an optimization, not an input to
// the verdict.

// cmemoShardBits selects the shard from the top bits of the key's hash;
// 64 shards keeps lock contention negligible for any realistic worker
// count while staying small enough to live in one allocation.
const (
	cmemoShardBits = 6
	cmemoShards    = 1 << cmemoShardBits
)

// cmemoMinSlots is each shard set's initial table size; 64 shards × 64
// slots matches the sequential set's 4096-state capacity at 3/4 load.
const cmemoMinSlots = 64

// cmemoMaxRetainKeys bounds what a pooled reset keeps per shard set: a
// set that held more is dropped rather than cleared, so the pool retains
// about the sequential set's bound across all shards.
const cmemoMaxRetainKeys = 768

// claimStatus is the outcome of cmemo.claim.
type claimStatus int

const (
	// claimed: the caller now owns the state and must either markFailed
	// it after refuting its subtree or abandon it (verdict found /
	// search aborting).
	claimed claimStatus = iota
	// claimBusy: another worker owns the state; skip it.
	claimBusy
	// claimFailed: the state is already refuted; prune.
	claimFailed
)

// cmemoShard is one independently locked pair of sets. The pad rounds
// a shard up to 128 bytes, so hot shards sit on distinct cache lines.
type cmemoShard struct {
	mu              sync.Mutex
	claimed, failed solver.MemoSet
	_               [24]byte
}

// cmemo is the concurrent memo. The zero value is not ready; call reset
// first.
type cmemo struct {
	shards [cmemoShards]cmemoShard
}

// reset prepares every shard for a fresh solve over keys of words words.
func (cm *cmemo) reset(words int) {
	for i := range cm.shards {
		sh := &cm.shards[i]
		for _, set := range []*solver.MemoSet{&sh.claimed, &sh.failed} {
			if set.Len() > cmemoMaxRetainKeys {
				*set = solver.MemoSet{}
			}
			set.Reset(words, cmemoMinSlots)
		}
	}
}

// shardOf picks the shard from the top bits of the key's hash; the sets
// index by the low bits, so the two never alias.
func (cm *cmemo) shardOf(key []uint64) *cmemoShard {
	return &cm.shards[solver.HashKey(key)>>(64-cmemoShardBits)]
}

// claim transitions key from empty to claimed and reports which state
// it found. Exactly one caller ever receives `claimed` for a key (until
// the memo is reset): the transition happens under the shard lock.
func (cm *cmemo) claim(key []uint64) claimStatus {
	sh := cm.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch {
	case sh.failed.Contains(key):
		return claimFailed
	case !sh.claimed.Add(key):
		return claimBusy
	}
	return claimed
}

// markFailed resolves the caller's claim on key: the state is fully
// explored and refuted. It inserts key as failed directly when no claim
// exists (the resume-seed path).
func (cm *cmemo) markFailed(key []uint64) {
	sh := cm.shardOf(key)
	sh.mu.Lock()
	sh.failed.Add(key)
	sh.mu.Unlock()
}
