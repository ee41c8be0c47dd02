package infosys

// Delta subscriptions: instead of re-reading the registry every
// scheduling pass, a broker tracks each shard's epoch and asks only for
// what changed since. Each shard is an independently-publishing unit —
// it keeps a bounded per-epoch delta log alongside its record map, and
// Subscribe(shard, since) replays the missed deltas, or falls back to a
// snapshot re-pin when the log has been compacted past the subscriber's
// position. Because every effective mutation bumps the owning shard's
// epoch by exactly one and appends exactly one delta, a shard's log
// covers a contiguous epoch interval and "covered" is a pure range
// check.
//
// The answer's transfer cost is modeled with a netsim link profile per
// shard (SetShardLink): a delta poll pays one round trip plus the
// serialized deltas, a re-pin pays one round trip plus the whole shard
// — which is exactly the cost asymmetry the scale experiment's churn
// axis measures. Without a link profile the classic flat query latency
// is charged, so existing callers are unchanged.

import (
	"time"

	"crossbroker/internal/netsim"
	"crossbroker/internal/trace"
)

// DeltaKind classifies one registry mutation.
type DeltaKind uint8

const (
	// DeltaAdded is a publish of a site not currently registered.
	DeltaAdded DeltaKind = iota
	// DeltaUpdated is a publish replacing an existing record.
	DeltaUpdated
	// DeltaRemoved is an effective Remove.
	DeltaRemoved
)

// String names the delta kind.
func (k DeltaKind) String() string {
	switch k {
	case DeltaAdded:
		return "added"
	case DeltaUpdated:
		return "updated"
	case DeltaRemoved:
		return "removed"
	}
	return "unknown"
}

// Delta is one logged mutation of one shard.
type Delta struct {
	// Kind says whether the site was added, updated or removed.
	Kind DeltaKind
	// Epoch is the shard epoch the mutation created (contiguous within
	// a shard: each effective mutation bumps the epoch by exactly one).
	Epoch uint64
	// Name is the site the mutation touched.
	Name string
	// Rec is the record as published, under the registry's no-mutate
	// sharing contract (zero value for DeltaRemoved).
	Rec SiteRecord
}

// SubUpdate is one shard's answer to a subscription poll.
type SubUpdate struct {
	// Shard is the shard index the answer is for.
	Shard int
	// FromEpoch is the subscriber's position the poll asked from;
	// ToEpoch is the position the subscriber holds after applying the
	// answer. On a gap fallback ToEpoch is the re-pinned snapshot's own
	// epoch — NOT the epoch the log happened to reach — so the first
	// post-fallback delta (epoch ToEpoch+1) is applied exactly once.
	FromEpoch, ToEpoch uint64
	// Deltas are the missed mutations in epoch order (empty on a no-op
	// poll and on a gap fallback).
	Deltas []Delta
	// Gap reports that the log was compacted past FromEpoch and the
	// subscriber must rebuild from Snapshot.
	Gap bool
	// Snapshot is the shard snapshot to rebuild from when Gap is set.
	Snapshot *Snapshot
	// Schema is the service-wide schema the answer is laid out against.
	Schema *Schema
	// Cost is the modeled wire cost of this answer; Subscribe charges
	// it, SubscribeImmediate leaves charging to the caller.
	Cost time.Duration
}

// DeltaSource is the subscription surface an incremental matchmaker
// consumes; *Service and *View both implement it. The caller charges
// each answer's Cost itself.
type DeltaSource interface {
	ShardCount() int
	SubscribeImmediate(shard int, since uint64) SubUpdate
}

// deltaLog is one shard's bounded mutation history: a ring of the last
// (at most) depth deltas. Epochs in the ring are contiguous, so the
// ring covers [first, first+n).
type deltaLog struct {
	buf   []Delta
	start int    // ring index of the oldest retained delta
	n     int    // retained count
	first uint64 // epoch of the oldest retained delta (valid when n > 0)
}

func newDeltaLog(depth int) *deltaLog { return &deltaLog{buf: make([]Delta, depth)} }

// append logs one delta, compacting (dropping) the oldest when full.
func (l *deltaLog) append(d Delta) {
	if l.n == 0 {
		l.first = d.Epoch
	}
	if l.n == len(l.buf) {
		l.buf[l.start] = d
		l.start = (l.start + 1) % len(l.buf)
		l.first++
		return
	}
	l.buf[(l.start+l.n)%len(l.buf)] = d
	l.n++
}

// slice returns the deltas covering (since, target] in epoch order, or
// ok=false when the log has been compacted past since+1.
func (l *deltaLog) slice(since, target uint64) ([]Delta, bool) {
	if since+1 < l.first || l.n == 0 {
		return nil, false
	}
	last := l.first + uint64(l.n) - 1
	if target > last {
		return nil, false
	}
	count := int(target - since)
	out := make([]Delta, count)
	off := int(since + 1 - l.first)
	for i := 0; i < count; i++ {
		out[i] = l.buf[(l.start+off+i)%len(l.buf)]
	}
	return out, true
}

// Serialized sizes used by the link cost model: a delta is one record's
// worth of attributes, a re-pin streams the denser snapshot encoding.
const (
	deltaWireBytes  = 256
	recordWireBytes = 512
)

// SetDeltaLog enables per-shard delta logs of the given depth (the
// DeltaLogDepth knob). Depth <= 0 disables logging: every
// epoch-advancing poll then falls back to a snapshot re-pin, which is
// the degraded mode the scale experiment's "repin" cells measure. Not
// safe to call concurrently with publishes; configure at setup time.
func (s *Service) SetDeltaLog(depth int) {
	s.mu.Lock()
	s.deltaDepth = depth
	s.mu.Unlock()
	for _, sh := range s.shards {
		sh.mu.Lock()
		if depth > 0 {
			sh.log = newDeltaLog(depth)
		} else {
			sh.log = nil
		}
		sh.mu.Unlock()
	}
}

// DeltaLogDepth reports the configured per-shard log depth (0 when
// delta logging is disabled).
func (s *Service) DeltaLogDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deltaDepth
}

// SetShardLink models each shard as an independently-publishing unit
// behind its own network link: subscription answers are charged p's
// round trip plus transfer time for what they carry, instead of the
// flat query latency. Configure at setup time.
func (s *Service) SetShardLink(p netsim.Profile) {
	s.mu.Lock()
	s.link, s.hasLink = p, true
	s.mu.Unlock()
}

// SetTracer wires a tracer to the registry: every effective mutation
// emits a DeltaPublished event while delta logs are enabled. Configure
// at setup time.
func (s *Service) SetTracer(t *trace.Tracer) { s.tracer = t }

// subCost models the wire cost of one subscription answer.
func (s *Service) subCost(nDeltas int, repin *Snapshot) time.Duration {
	s.mu.Lock()
	link, hasLink := s.link, s.hasLink
	s.mu.Unlock()
	if !hasLink {
		return s.queryLatency
	}
	if repin != nil {
		return link.RTT() + link.TransferTime(repin.Len()*recordWireBytes)
	}
	return link.RTT() + link.TransferTime(nDeltas*deltaWireBytes)
}

// Subscribe polls shard for mutations since the given shard epoch,
// charging the answer's modeled cost on the service clock (the caller
// must be a simulation process when the clock is a simulation clock).
func (s *Service) Subscribe(shard int, since uint64) SubUpdate {
	u := s.SubscribeImmediate(shard, since)
	s.clock.Sleep(u.Cost)
	return u
}

// SubscribeImmediate is Subscribe without charging the cost — the
// incremental matchmaker polls every shard and charges the slowest
// answer once, as parallel per-shard link waits.
//
// While the service is partitioned the answer is bounded at the frozen
// shard snapshot: the subscriber can catch up to the cut point but sees
// nothing published behind the partition until it heals.
func (s *Service) SubscribeImmediate(shard int, since uint64) SubUpdate {
	s.mu.Lock()
	if s.partitioned {
		f := s.frozenShards[shard]
		s.mu.Unlock()
		return s.subscribeBounded(shard, since, f.epoch, f)
	}
	s.mu.Unlock()
	return s.subscribeBounded(shard, since, ^uint64(0), nil)
}

// subscribeBounded answers a poll up to min(current shard epoch,
// bound); pinned, when non-nil, is the snapshot to serve on a gap
// (the frozen shard view during a partition).
func (s *Service) subscribeBounded(shard int, since, bound uint64, pinned *Snapshot) SubUpdate {
	sh := s.shards[shard]
	sc := s.sharedSchema()
	u := SubUpdate{Shard: shard, FromEpoch: since, Schema: sc}

	sh.mu.Lock()
	target := sh.epoch
	if bound < target {
		target = bound
	}
	if since >= target {
		sh.mu.Unlock()
		u.ToEpoch = since
		u.Cost = s.subCost(0, nil)
		return u
	}
	if sh.log != nil {
		if ds, ok := sh.log.slice(since, target); ok {
			sh.mu.Unlock()
			u.Deltas = ds
			u.ToEpoch = target
			u.Cost = s.subCost(len(ds), nil)
			return u
		}
	}
	sh.mu.Unlock()

	// Compacted past the subscriber: fall back to a snapshot re-pin.
	// The subscriber's new position is the snapshot's OWN epoch — using
	// the poll target here would skip (or replay) whatever landed while
	// the snapshot was cut, double- or zero-counting the first
	// post-fallback delta.
	u.Gap = true
	if pinned != nil {
		u.Snapshot = pinned
	} else {
		u.Snapshot = s.shardSnapshot(shard, sc)
	}
	u.ToEpoch = u.Snapshot.epoch
	u.Cost = s.subCost(0, u.Snapshot)
	return u
}

// logDeltaLocked appends one mutation to the shard's delta log. The
// caller holds sh.mu and s.mu (the epoch fields are stable); the
// returned flag says whether a DeltaPublished event should be emitted
// once the locks are released.
func (s *Service) logDeltaLocked(sh *shard, k DeltaKind, rec SiteRecord) bool {
	if sh.log == nil {
		return false
	}
	sh.log.append(Delta{Kind: k, Epoch: sh.epoch, Name: rec.Name, Rec: rec})
	return s.tracer != nil
}

// ShardCount and SubscribeImmediate on a View delegate to the service;
// while the view is partitioned, answers are bounded at the view's own
// frozen shard snapshots, so a split-brained broker's subscriber is
// held at its cut point independently of other views.

// ShardCount reports the underlying service's shard count.
func (v *View) ShardCount() int { return v.svc.ShardCount() }

// SubscribeImmediate polls through this view without charging.
func (v *View) SubscribeImmediate(shard int, since uint64) SubUpdate {
	v.mu.Lock()
	if v.partitioned {
		f := v.frozenShards[shard]
		v.mu.Unlock()
		return v.svc.subscribeBounded(shard, since, f.epoch, f)
	}
	v.mu.Unlock()
	return v.svc.SubscribeImmediate(shard, since)
}

// Flatten lays one record's attributes out against the schema, in
// offset order — the incremental matchmaker's mirror uses it to keep
// flat vectors alongside records received as deltas.
func (sc *Schema) Flatten(r SiteRecord) []any { return valsFor(r, sc) }

// PooledMatchAttrs wraps an externally-held flat value slice (laid out
// against sc, e.g. by Schema.Flatten) in a pooled MatchAttrs vector.
// The slice is copied; the caller must Release the vector.
func PooledMatchAttrs(sc *Schema, vals []any) *MatchAttrs {
	m := matchAttrsPool.Get().(*MatchAttrs)
	m.schema = sc
	if cap(m.vals) < len(vals) {
		m.vals = make([]any, len(vals))
	} else {
		m.vals = m.vals[:len(vals)]
	}
	copy(m.vals, vals)
	return m
}
