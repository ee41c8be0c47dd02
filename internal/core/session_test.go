package core

import (
	"io"
	"net"
	"testing"
	"time"

	"crossbroker/internal/console"
	"crossbroker/internal/interpose"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
)

// TestAwaitAttachedCountsHungUpSubjobs pins the startup wait against
// the ordering that made StartSession flaky: subjob 0's application
// finishes and its agent hangs up before subjob 1 attaches. Only one
// link is ever live at a time, so a wait on live links never reaches
// the subjob total and times out; a wait on completed hellos returns
// as soon as subjob 1 attaches.
func TestAwaitAttachedCountsHungUpSubjobs(t *testing.T) {
	nw := netsim.New(netsim.CampusGrid(), 1)
	lis, err := nw.Listen("shadow")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	sh, err := console.StartShadow(console.ShadowConfig{
		Mode:     jdl.FastStreaming,
		Subjobs:  2,
		Accept:   func() (net.Conn, error) { return lis.Accept() },
		Stdout:   io.Discard,
		Stderr:   io.Discard,
		SpillDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	start := func(sub uint16, app interpose.AppFunc) *console.Agent {
		t.Helper()
		proc, err := interpose.Func(app)
		if err != nil {
			t.Fatal(err)
		}
		a, err := console.StartAgent(console.AgentConfig{
			Subjob:   sub,
			Mode:     jdl.FastStreaming,
			Dial:     func() (net.Conn, error) { return nw.Dial("shadow") },
			SpillDir: t.TempDir(),
		}, proc)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	waitUntil := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Subjob 0 runs to completion: its agent connected (output pumps
	// wait for the link), delivered EOF and closed the link.
	a0 := start(0, func(io.Reader, io.Writer, io.Writer) error { return nil })
	<-a0.Done()
	waitUntil("subjob 0's link to drop at the shadow", func() bool { return sh.Connected() == 0 })

	// Subjob 1 attaches only now and stays up until the test ends.
	release := make(chan struct{})
	defer close(release)
	a1 := start(1, func(io.Reader, io.Writer, io.Writer) error { <-release; return nil })
	defer a1.Kill()
	waitUntil("subjob 1 to connect", a1.Connected)

	if got := sh.Connected(); got != 1 {
		t.Fatalf("live links = %d, want 1 (subjob 0 hung up)", got)
	}
	if err := awaitAttached(sh, 2, 2*time.Second); err != nil {
		t.Fatalf("both subjobs completed a hello, wait still failed: %v", err)
	}
}
