package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"crossbroker/internal/broker"
	"crossbroker/internal/infosys"
)

// layer names one boundary the benchmark times from outside the
// program: every call the benchmark makes into a package, and every
// call the broker makes into the information system through spanDir.
type layer uint8

const (
	lRunFor layer = iota
	lNext
	lParse
	lSubmit
	lPublish
	lRemove
	lDiscover
	lSnapshot
	lSubscribe
	nLayers
)

var layerNames = [nLayers]string{
	lRunFor:    "simclock.runfor",
	lNext:      "workload.next",
	lParse:     "jdl.parse",
	lSubmit:    "broker.submit",
	lPublish:   "infosys.publish",
	lRemove:    "infosys.remove",
	lDiscover:  "infosys.discover",
	lSnapshot:  "infosys.snapshot",
	lSubscribe: "infosys.subscribe",
}

// span is one timed call. Times are host nanoseconds since the
// recorder's origin.
type span struct {
	start, end int64
	parent     int32 // index of the enclosing span, -1 at top level
	job        int32 // job ordinal the call serves, -1 for grid-level calls
	layer      layer
}

// recorder keeps spans in memory for one traced run; they are written
// out once the run ends. The simulation is single-threaded, so the
// open-span stack gives each span its parent. A nil recorder records
// nothing, which is how untraced runs pay only a nil check per call.
type recorder struct {
	origin time.Time
	spans  []span
	open   []int32
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) begin(l layer, job int) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{start: int64(time.Since(r.origin)), parent: parent, job: int32(job), layer: l})
	r.open = append(r.open, i)
	return i
}

func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	r.spans[i].end = int64(time.Since(r.origin))
	r.open = r.open[:len(r.open)-1]
}

// layerTotals is the per-layer sum over a run's spans.
type layerTotals struct {
	calls  [nLayers]int
	self   [nLayers]int64 // span time minus the time its child spans cover
	topSum int64          // time covered by top-level spans
}

func (r *recorder) totals() layerTotals {
	var t layerTotals
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range r.spans {
		d := s.end - s.start
		t.calls[s.layer]++
		t.self[s.layer] += d - child[i]
		if s.parent < 0 {
			t.topSum += d
		}
	}
	return t
}

// write dumps the spans as CSV: layer, start and end in host ns since
// the run began, parent span index (-1 for none) and job ordinal (-1
// for grid-level calls).
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintln(w, "layer,start_ns,end_ns,parent,job")
	for _, s := range r.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", layerNames[s.layer], s.start, s.end, s.parent, s.job)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanDir is the broker's information system seen through spans: it
// forwards every call to the service and times it.
//
// The broker runs its flows on the callback engine only when its
// Directory also serves the Immediate reads, and matches incrementally
// only when it serves delta subscriptions. A wrapper missing either
// would silently move the traced run onto the goroutine engine or
// panic, so both surfaces are asserted here at compile time.
type spanDir struct {
	svc *infosys.Service
	rec *recorder
}

type immediateDirectory interface {
	broker.Directory
	QueryLatency() time.Duration
	SnapshotImmediate() *infosys.Snapshot
	DiscoverImmediate(pageSize int) *infosys.Cursor
}

var (
	_ immediateDirectory  = (*spanDir)(nil)
	_ infosys.DeltaSource = (*spanDir)(nil)
)

func (d *spanDir) Publish(rec infosys.SiteRecord) error {
	s := d.rec.begin(lPublish, -1)
	err := d.svc.Publish(rec)
	d.rec.end(s)
	return err
}

func (d *spanDir) Remove(name string) {
	s := d.rec.begin(lRemove, -1)
	d.svc.Remove(name)
	d.rec.end(s)
}

func (d *spanDir) QueryLatency() time.Duration { return d.svc.QueryLatency() }

func (d *spanDir) Snapshot() *infosys.Snapshot {
	s := d.rec.begin(lSnapshot, -1)
	snap := d.svc.Snapshot()
	d.rec.end(s)
	return snap
}

func (d *spanDir) SnapshotImmediate() *infosys.Snapshot {
	s := d.rec.begin(lSnapshot, -1)
	snap := d.svc.SnapshotImmediate()
	d.rec.end(s)
	return snap
}

func (d *spanDir) Discover(pageSize int) *infosys.Cursor {
	s := d.rec.begin(lDiscover, -1)
	c := d.svc.Discover(pageSize)
	d.rec.end(s)
	return c
}

func (d *spanDir) DiscoverImmediate(pageSize int) *infosys.Cursor {
	s := d.rec.begin(lDiscover, -1)
	c := d.svc.DiscoverImmediate(pageSize)
	d.rec.end(s)
	return c
}

func (d *spanDir) ShardCount() int    { return d.svc.ShardCount() }
func (d *spanDir) DeltaLogDepth() int { return d.svc.DeltaLogDepth() }

func (d *spanDir) Subscribe(shard int, since uint64) infosys.SubUpdate {
	s := d.rec.begin(lSubscribe, -1)
	u := d.svc.Subscribe(shard, since)
	d.rec.end(s)
	return u
}

func (d *spanDir) SubscribeImmediate(shard int, since uint64) infosys.SubUpdate {
	s := d.rec.begin(lSubscribe, -1)
	u := d.svc.SubscribeImmediate(shard, since)
	d.rec.end(s)
	return u
}
