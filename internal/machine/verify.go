package machine

import (
	"cmp"
	"fmt"
	"slices"

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
	var hs []holder
	for _, p := range m.procs {
		cl := p.cl.id
		p.h.ForEach(func(b int64, st cache.State) {
			hs = append(hs, holder{block: b, cluster: cl, state: st})
		})
	}
	// A block's holders sort by cluster: which of one cluster's caches
	// comes first changes no message.
	slices.SortFunc(hs, func(a, b holder) int {
		if c := cmp.Compare(a.block, b.block); c != 0 {
			return c
		}
		return cmp.Compare(a.cluster, b.cluster)
	})
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
	cluster int
	state   cache.State
}

// checkHolders checks block b's invariants over its holders hs.
func (m *Machine) checkHolders(b int64, hs []holder) error {
	dirty := 0
	var dirtyCluster int
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
		if h.cluster != home {
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
		if h.cluster == home {
			continue
		}
		if h.state == cache.Dirty {
			if !e.Dirty() || e.Owner() != h.cluster {
				return fmt.Errorf("block %d dirty in cluster %d but directory says dirty=%v owner=%d",
					b, h.cluster, e.Dirty(), e.Owner())
			}
			continue
		}
		if !e.IsSharer(h.cluster) {
			return fmt.Errorf("block %d cached in cluster %d but not in directory sharer set %v",
				b, h.cluster, e.Sharers())
		}
	}
	return nil
}
