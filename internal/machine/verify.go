package machine

import (
	"fmt"
	"math"

	"dircoh/internal/cache"
)

// CheckCoherence validates the machine's coherence invariants. It must be
// called at quiescence (after Run returns): in-flight messages may
// transiently violate the invariants, exactly as release consistency
// permits on real DASH hardware.
//
// Invariants checked:
//  1. A block is dirty in at most one cache machine-wide.
//  2. A block dirty in a cluster other than its home is recorded as dirty
//     with that owner in the home directory.
//  3. Every remote cluster holding a copy is covered by the home
//     directory entry's candidate sharer set (the superset property that
//     makes invalidation-based coherence correct).
//
// Blocks are checked in ascending order, so a machine with several
// violations reports the lowest block's, the same one on every call.
func (m *Machine) CheckCoherence() error {
	n := 0
	for _, p := range m.procs {
		n += p.h.Occupancy()
	}
	hs := make([]holder, 0, n)
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	// Processors run in cluster order, so each block's holders do too,
	// and sortHolders keeps that order.
	for _, p := range m.procs {
		cl := int32(p.cl.id)
		p.h.ForEach(func(b int64, st cache.State) {
			hs = append(hs, holder{block: b, cluster: cl, state: st})
			lo, hi = min(lo, b), max(hi, b)
		})
	}
	hs = sortHolders(hs, lo, hi)
	for len(hs) > 0 {
		n := 1
		for n < len(hs) && hs[n].block == hs[0].block {
			n++
		}
		if err := m.checkHolders(hs[0].block, hs[:n]); err != nil {
			return err
		}
		hs = hs[n:]
	}
	return nil
}

// holder is one cache's copy of a block.
type holder struct {
	block   int64
	cluster int32
	state   cache.State
}

// sortHolders orders hs by block, blocks in [lo, hi] (lo > hi when hs is
// empty), with a stable LSD radix sort: one counting pass per byte of
// hi-lo, so holders of one block keep their order. It returns hs or the
// scratch buffer, whichever holds the result.
func sortHolders(hs []holder, lo, hi int64) []holder {
	if lo >= hi {
		return hs
	}
	span := uint64(hi) - uint64(lo)
	tmp := make([]holder, len(hs))
	for shift := uint(0); shift < 64 && span>>shift != 0; shift += 8 {
		var start [256]int
		for _, h := range hs {
			start[byte((uint64(h.block)-uint64(lo))>>shift)]++
		}
		pos := 0
		for d, c := range start {
			start[d] = pos
			pos += c
		}
		for _, h := range hs {
			d := byte((uint64(h.block) - uint64(lo)) >> shift)
			tmp[start[d]] = h
			start[d]++
		}
		hs, tmp = tmp, hs
	}
	return hs
}

// checkHolders checks block b's invariants over its holders hs.
func (m *Machine) checkHolders(b int64, hs []holder) error {
	dirty := 0
	var dirtyCluster int32
	for _, h := range hs {
		if h.state == cache.Dirty {
			dirty++
			dirtyCluster = h.cluster
		}
	}
	if dirty > 1 {
		return fmt.Errorf("block %d dirty in %d caches", b, dirty)
	}
	if dirty == 1 {
		for _, h := range hs {
			if h.state != cache.Dirty {
				return fmt.Errorf("block %d dirty in cluster %d but also cached in cluster %d", b, dirtyCluster, h.cluster)
			}
		}
	}
	home := m.home(b)
	needEntry := false
	for _, h := range hs {
		if int(h.cluster) != home {
			needEntry = true
		}
	}
	if !needEntry {
		return nil // blocks cached only at home need no directory entry
	}
	// Peek, not Lookup: the validator must leave recency state and the
	// dir.* counters exactly as the run left them.
	e := m.clusters[home].dir.Peek(m.dirKey(b))
	if e == nil {
		return fmt.Errorf("block %d cached remotely but home %d has no directory entry", b, home)
	}
	for _, h := range hs {
		if int(h.cluster) == home {
			continue
		}
		if h.state == cache.Dirty {
			if !e.Dirty() || e.Owner() != int(h.cluster) {
				return fmt.Errorf("block %d dirty in cluster %d but directory says dirty=%v owner=%d",
					b, h.cluster, e.Dirty(), e.Owner())
			}
			continue
		}
		if !e.IsSharer(int(h.cluster)) {
			return fmt.Errorf("block %d cached in cluster %d but not in directory sharer set %v",
				b, h.cluster, e.Sharers())
		}
	}
	return nil
}
