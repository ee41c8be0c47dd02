// Package simclock provides the time substrate used by every simulated
// subsystem in the repository: a Clock interface with a real
// implementation backed by package time, and a deterministic
// discrete-event implementation (Sim) with virtual time.
//
// The discrete-event clock supports two styles of use:
//
//   - Event style: schedule callbacks with AfterFunc/At and drive the
//     simulation with Run/RunUntil. This is the style used by the grid
//     site, batch queue and broker simulations.
//   - Process style: spawn cooperative processes with Sim.Go whose code
//     reads linearly (Sleep between actions). Processes interleave with
//     scheduled events under a single logical thread of control, so
//     simulations remain deterministic.
//
// Virtual time only advances when no process is runnable, mirroring the
// usual sequential discrete-event simulation loop.
//
// # Same-timestamp ordering
//
// Events scheduled for the same virtual instant dispatch in the order
// they were scheduled — FIFO by a monotone sequence number, never by
// heap accident. This holds uniformly across every scheduling source:
// AfterFunc/At/Post callbacks, Go process starts, Sleep wake-ups, and
// Trigger/Queue releases all draw from one sequence. The guarantee is
// part of the Clock contract for the simulated implementation; the
// golden output digests of every experiment depend on it, and
// TestSameTimestampFIFO pins it.
package simclock

import (
	"time"
)

// Clock abstracts time so that components can run against either the
// wall clock or a simulated clock.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks the calling process for d. On the real clock this is
	// time.Sleep; on the simulated clock it must be called from a
	// process started with Sim.Go (or from within Run's event loop via
	// a process), and suspends the process in virtual time.
	Sleep(d time.Duration)
	// AfterFunc schedules fn to run once d has elapsed. The returned
	// Timer can stop the call before it fires.
	AfterFunc(d time.Duration, fn func()) Timer
	// Since returns the duration elapsed since t.
	Since(t time.Time) time.Duration
}

// Timer is a handle to a pending AfterFunc call.
type Timer interface {
	// Stop cancels the timer. It reports whether the call was stopped
	// before firing.
	Stop() bool
}

// Real returns a Clock backed by the wall clock.
func Real() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time                  { return time.Now() }
func (realClock) Sleep(d time.Duration)           { time.Sleep(d) }
func (realClock) Since(t time.Time) time.Duration { return time.Since(t) }

func (realClock) AfterFunc(d time.Duration, fn func()) Timer {
	return realTimer{time.AfterFunc(d, fn)}
}

type realTimer struct{ t *time.Timer }

func (t realTimer) Stop() bool { return t.t.Stop() }
