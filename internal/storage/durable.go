package storage

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/lwt"
)

// DurableKV is a key-value store made a durable appliance, composed from
// the small storage libraries of §3.5.2: every update is written ahead to
// the WAL (group-committed), served from an in-memory overlay, and folded
// into the append-only B-tree at checkpoints, after which the log
// truncates. Crash recovery is OpenBTree + WAL replay: the B-tree's
// superblock-last commit makes torn checkpoints invisible, and the log
// holds everything since the last complete one.
type DurableKV struct {
	s *lwt.Scheduler
	T *BTree
	W *WAL

	// overlay holds un-checkpointed entries (nil = tombstone); seqOf maps
	// each overlay key to the WAL sequence of its latest record so a
	// checkpoint only clears entries it actually folded in.
	overlay map[string][]byte
	seqOf   map[string]uint64

	// Replayed counts records recovered from the WAL at open.
	Replayed int
}

const (
	walKindSet byte = 1
	walKindDel byte = 2
)

// CreateDurableKV formats a fresh appliance on dev: B-tree pages grow up
// from page 1, the WAL occupies [walBase, walBase+1+walSectors) sectors.
// The tree is capped at the pages that fit below walBase, so a checkpoint
// that would grow it into the log fails instead. Resolves when both
// structures are durable.
func CreateDurableKV(s *lwt.Scheduler, dev Device, walBase uint64, walSectors int) *lwt.Promise[*DurableKV] {
	t, tDone := NewBTree(s, dev)
	w, wDone := NewWAL(s, dev, walBase, walSectors)
	kv := newDurableKV(s, t, w, walBase)
	return lwt.Map(lwt.Join(s, tDone, wDone), func(struct{}) *DurableKV { return kv })
}

func newDurableKV(s *lwt.Scheduler, t *BTree, w *WAL, walBase uint64) *DurableKV {
	t.MaxPages = walBase / PageSectors
	return &DurableKV{s: s, T: t, W: w, overlay: map[string][]byte{}, seqOf: map[string]uint64{}}
}

// OpenDurableKV recovers an appliance: attach to the B-tree, scan the WAL
// for the durable record prefix, and replay it into the overlay. Replay is
// idempotent — records are pure put/delete by key, so applying them twice
// (or re-opening twice) yields identical state.
func OpenDurableKV(s *lwt.Scheduler, dev Device, walBase uint64, walSectors int) *lwt.Promise[*DurableKV] {
	return lwt.Bind(OpenBTree(s, dev), func(t *BTree) *lwt.Promise[*DurableKV] {
		return lwt.Map(OpenWAL(s, dev, walBase, walSectors), func(rec *WALRecovery) *DurableKV {
			kv := newDurableKV(s, t, rec.W, walBase)
			for _, r := range rec.Records {
				switch r.Kind {
				case walKindSet:
					kv.overlay[string(r.Key)] = r.Val
				case walKindDel:
					kv.overlay[string(r.Key)] = nil
				}
				kv.seqOf[string(r.Key)] = r.Seq
				kv.Replayed++
			}
			return kv
		})
	})
}

// Set stores key=value; the promise resolves once the WAL record is
// durable (group commit may batch it with concurrent updates).
func (kv *DurableKV) Set(key, value []byte) *lwt.Promise[struct{}] {
	if len(key) == 0 || len(key) > maxKey || len(value) > maxVal {
		return lwt.FailWith[struct{}](kv.s, fmt.Errorf("durablekv: key/value size out of range (%d/%d)", len(key), len(value)))
	}
	seq := kv.W.nextSeq
	v := append([]byte(nil), value...)
	return lwt.Map(kv.W.Append(walKindSet, key, v), func(struct{}) struct{} {
		k := string(key)
		if kv.seqOf[k] < seq {
			kv.overlay[k] = v
			kv.seqOf[k] = seq
		}
		return struct{}{}
	})
}

// Delete removes key, durably.
func (kv *DurableKV) Delete(key []byte) *lwt.Promise[struct{}] {
	seq := kv.W.nextSeq
	return lwt.Map(kv.W.Append(walKindDel, key, nil), func(struct{}) struct{} {
		k := string(key)
		if kv.seqOf[k] < seq {
			kv.overlay[k] = nil
			kv.seqOf[k] = seq
		}
		return struct{}{}
	})
}

// Get resolves with the value for key (nil if absent), reading the overlay
// first and the B-tree beneath it.
func (kv *DurableKV) Get(key []byte) *lwt.Promise[[]byte] {
	if v, ok := kv.overlay[string(key)]; ok {
		return lwt.Return(kv.s, v)
	}
	return kv.T.Get(key)
}

// Checkpoint folds the overlay into the B-tree (sorted order, so the node
// write sequence is deterministic) and truncates the WAL. Updates arriving
// during the checkpoint stay in the overlay — the sequence check keeps
// them — and land in the next one. Resolves when the truncated header is
// durable; fails, with the log untouched and every entry still in the
// overlay, if the tree runs out of pages below the WAL region part-way, or
// with ErrUpdateInFlight if it overlaps another checkpoint still folding.
func (kv *DurableKV) Checkpoint() *lwt.Promise[struct{}] {
	type entry struct {
		key string
		val []byte
		seq uint64
	}
	snap := make([]entry, 0, len(kv.overlay))
	for k, v := range kv.overlay {
		snap = append(snap, entry{k, v, kv.seqOf[k]})
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i].key < snap[j].key })

	chain := kv.W.Sync()
	for _, e := range snap {
		e := e
		chain = lwt.Bind(chain, func(struct{}) *lwt.Promise[struct{}] {
			if e.val == nil {
				return kv.T.Delete([]byte(e.key))
			}
			return kv.T.Set([]byte(e.key), e.val)
		})
	}
	return lwt.Bind(chain, func(struct{}) *lwt.Promise[struct{}] {
		for _, e := range snap {
			if kv.seqOf[e.key] == e.seq {
				delete(kv.overlay, e.key)
				delete(kv.seqOf, e.key)
			}
		}
		return kv.W.Truncate()
	})
}

// DirtyBytes returns the size of the un-checkpointed WAL stream — the
// knob appliances watch to decide when to checkpoint.
func (kv *DurableKV) DirtyBytes() int { return kv.W.LiveBytes() }

// Dump resolves with a deterministic textual snapshot ("key=value\n",
// sorted) of the merged B-tree + overlay state — the byte-identity anchor
// for crash drills.
func (kv *DurableKV) Dump() *lwt.Promise[[]byte] {
	m := map[string][]byte{}
	return lwt.Map(kv.T.Range(nil, nil, func(k, v []byte) bool {
		m[string(k)] = append([]byte(nil), v...)
		return true
	}), func(struct{}) []byte {
		for k, v := range kv.overlay {
			if v == nil {
				delete(m, k)
			} else {
				m[k] = v
			}
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var buf bytes.Buffer
		for _, k := range keys {
			fmt.Fprintf(&buf, "%s=%s\n", k, m[k])
		}
		return buf.Bytes()
	})
}
