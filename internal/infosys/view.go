package infosys

import (
	"sync"
	"time"
)

// View is one broker's window onto a shared Service. Reads and writes
// delegate to the service, but the partition switch is per view: while
// a view is cut it serves the snapshots frozen at its own cut time,
// so in a federation each broker can be split-brained independently —
// two brokers over one registry scheduling against different frozen
// worlds until their partitions heal. A healed view resumes serving
// the live registry on the next query.
type View struct {
	svc *Service

	mu           sync.Mutex
	partitioned  bool
	frozenShards []*Snapshot
	frozenMerged *Snapshot
}

// NewView creates a per-broker view of the service.
func (s *Service) NewView() *View { return &View{svc: s} }

// Publish delegates to the shared registry (publishes always land,
// partitioned or not — the cut is between broker and index, not
// between site and index).
func (v *View) Publish(rec SiteRecord) error { return v.svc.Publish(rec) }

// Remove delegates to the shared registry.
func (v *View) Remove(name string) { v.svc.Remove(name) }

// QueryLatency returns the underlying service's per-query cost.
func (v *View) QueryLatency() time.Duration { return v.svc.queryLatency }

// SnapshotImmediate returns the view's snapshot without charging query
// latency: the frozen merge while this view is partitioned, the
// service's current view otherwise (which may itself be frozen by a
// service-wide partition).
func (v *View) SnapshotImmediate() *Snapshot {
	v.mu.Lock()
	if v.partitioned {
		fm := v.frozenMerged
		v.mu.Unlock()
		return fm
	}
	v.mu.Unlock()
	return v.svc.SnapshotImmediate()
}

// DiscoverImmediate starts a paged traversal without the latency
// charge; pages are served from the view's frozen shards while it is
// partitioned.
func (v *View) DiscoverImmediate(pageSize int) *Cursor {
	if pageSize < 1 {
		pageSize = DefaultPageSize
	}
	return &Cursor{svc: v.svc, view: v, pageSize: pageSize}
}

// shardView pins shard i as this view currently sees it.
func (v *View) shardView(i int) *Snapshot {
	v.mu.Lock()
	if v.partitioned {
		fs := v.frozenShards[i]
		v.mu.Unlock()
		return fs
	}
	v.mu.Unlock()
	return v.svc.shardView(i)
}

// SetPartitioned cuts (or heals) this view's link to the index,
// freezing what the view serves at the snapshots of cut time. Other
// views of the same service are unaffected. Idempotent per direction.
func (v *View) SetPartitioned(cut bool) {
	if !cut {
		v.mu.Lock()
		v.partitioned, v.frozenShards, v.frozenMerged = false, nil, nil
		v.mu.Unlock()
		return
	}
	v.mu.Lock()
	already := v.partitioned
	v.mu.Unlock()
	if already {
		return
	}
	// Capture what the view serves right now — shard by shard, plus
	// the merged whole — honoring a service-wide freeze if one is on.
	parts := make([]*Snapshot, len(v.svc.shards))
	for i := range v.svc.shards {
		parts[i] = v.svc.shardView(i)
	}
	merged := v.svc.SnapshotImmediate()
	v.mu.Lock()
	if !v.partitioned {
		v.partitioned, v.frozenShards, v.frozenMerged = true, parts, merged
	}
	v.mu.Unlock()
}

// Partitioned reports whether this view is currently frozen.
func (v *View) Partitioned() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.partitioned
}
