package console

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"crossbroker/internal/jdl"
	"crossbroker/internal/trace"
)

// ShadowConfig configures a Console Shadow.
type ShadowConfig struct {
	// Mode selects fast or reliable streaming; it must match the
	// agents' mode.
	Mode jdl.StreamingMode
	// Subjobs is the number of Console Agents expected (1 for
	// sequential and MPICH-P4 jobs, NodeNumber for MPICH-G2).
	Subjobs int
	// Accept produces the next agent connection (already GSI-wrapped);
	// it is typically a listener's Accept. It must return an error
	// once the shadow's listener is closed.
	Accept func() (net.Conn, error)
	// Stdout and Stderr receive the merged application output.
	Stdout, Stderr io.Writer
	// Stdin is the user's input; each line is forwarded to every
	// subjob when the enter key is hit (Section 4). Nil disables input
	// forwarding.
	Stdin io.Reader
	// SpillDir holds the reliable mode write-ahead files for the
	// shadow->agent (stdin) direction.
	SpillDir string
	// BufferSize and FlushInterval configure the screen-side output
	// buffer (flush on full, timeout, or end of line).
	BufferSize    int
	FlushInterval time.Duration
	// RetryInterval and MaxRetries tune per-subjob link behaviour.
	RetryInterval time.Duration
	MaxRetries    int
	// DiskCost is a modeled per-record spill latency (experiments
	// only; zero charges real disk I/O).
	DiskCost time.Duration
	// AuxSink receives auxiliary-channel traffic (streams forwarded
	// beyond stdin/stdout/stderr). eof marks the channel's end. Nil
	// discards auxiliary traffic. Auxiliary channels do not gate the
	// shadow's completion.
	AuxSink func(subjob uint16, channel int, data []byte, eof bool)
	// OnLinkFail is called when a subjob's link gives up permanently
	// (the agent's whole retry budget passed with no reconnection).
	// Per the paper the remote process is killed at that point, so the
	// shadow reports the failure here — typically wired to the broker
	// to drive the job into a terminal failed state — and releases the
	// subjob's streams so Done can still fire. Nil disables reporting
	// (the session then simply never completes).
	OnLinkFail func(subjob uint16, err error)
	// Trace records console lifecycle events — first agent attach,
	// transient link losses and reconnections, permanent give-up —
	// labeled with TraceJob (nil disables). The shadow runs in real
	// time, so these events are NOT deterministic across runs; keep
	// console sessions on their own tracer when byte-stable exports
	// matter.
	Trace *trace.Tracer
	// TraceJob is the job ID stamped on the shadow's trace events.
	TraceJob string
}

// Shadow is the Console Shadow / Job Shadow (CS/JS) of Section 4,
// running on the user's submission machine. All of the job's subjobs
// have both an output and an input stream connected to it.
type Shadow struct {
	cfg ShadowConfig

	outBuf *flushBuffer
	errBuf *flushBuffer

	mu        sync.Mutex
	links     map[uint16]*Link
	eofs      map[uint16]map[Stream]bool
	attaches  map[uint16]int // per-subjob count of completed hellos
	doneOnce  sync.Once
	done      chan struct{}
	closed    bool
	acceptErr error
	linkErr   error
}

// StartShadow creates the shadow, pre-creating one link per expected
// subjob (so reliable stdin spills exist before agents connect), and
// begins accepting agent connections and forwarding user input.
func StartShadow(cfg ShadowConfig) (*Shadow, error) {
	if cfg.Subjobs <= 0 {
		cfg.Subjobs = 1
	}
	if cfg.Accept == nil {
		return nil, fmt.Errorf("console: shadow needs an Accept function")
	}
	s := &Shadow{
		cfg:      cfg,
		links:    make(map[uint16]*Link),
		eofs:     make(map[uint16]map[Stream]bool),
		attaches: make(map[uint16]int),
		done:     make(chan struct{}),
	}
	s.outBuf = newFlushBuffer(cfg.BufferSize, cfg.FlushInterval, func(b []byte) {
		if cfg.Stdout != nil {
			_, _ = cfg.Stdout.Write(b)
		}
	})
	s.errBuf = newFlushBuffer(cfg.BufferSize, cfg.FlushInterval, func(b []byte) {
		if cfg.Stderr != nil {
			_, _ = cfg.Stderr.Write(b)
		}
	})

	spillDir := cfg.SpillDir
	if spillDir == "" {
		spillDir = os.TempDir()
	}
	for i := 0; i < cfg.Subjobs; i++ {
		sub := uint16(i)
		lcfg := LinkConfig{
			Mode:          cfg.Mode,
			Subjob:        sub,
			RetryInterval: cfg.RetryInterval,
			MaxRetries:    cfg.MaxRetries,
			DiskCost:      cfg.DiskCost,
			SpillPath:     filepath.Join(spillDir, fmt.Sprintf("cs-spill-%d-%d.log", os.Getpid(), sub)),
		}
		if cfg.Trace.Enabled() {
			lcfg.OnDown = func() {
				cfg.Trace.Emit(trace.Event{Kind: trace.LinkDown, Job: cfg.TraceJob, N: int(sub), Detail: "connection lost"})
			}
		}
		link, err := NewAcceptLink(lcfg, s.receiverFor(sub), s.failerFor(sub))
		if err != nil {
			for _, l := range s.links {
				l.Close()
			}
			return nil, err
		}
		s.links[sub] = link
	}

	go s.acceptLoop()
	if cfg.Stdin != nil {
		go s.stdinLoop()
	}
	return s, nil
}

// receiverFor merges one subjob's output into the screen buffers and
// tracks per-stream EOFs.
func (s *Shadow) receiverFor(sub uint16) Receiver {
	return func(stream Stream, data []byte, eof bool) {
		if stream.IsAux() {
			if s.cfg.AuxSink != nil {
				s.cfg.AuxSink(sub, stream.AuxIndex(), data, eof)
			}
			return
		}
		if eof {
			s.markEOF(sub, stream)
			return
		}
		switch stream {
		case Stdout:
			s.outBuf.Write(data)
		case Stderr:
			s.errBuf.Write(data)
		}
	}
}

// failerFor handles one subjob's permanent link failure: record it,
// report the give-up kill upstream, and mark the subjob's streams
// terminated so the remaining healthy subjobs can still complete the
// session.
func (s *Shadow) failerFor(sub uint16) func(error) {
	return func(err error) {
		s.cfg.Trace.Emit(trace.Event{Kind: trace.LinkDown, Job: s.cfg.TraceJob, N: int(sub), Detail: "gave up"})
		s.mu.Lock()
		if s.linkErr == nil {
			s.linkErr = fmt.Errorf("subjob %d: %w", sub, err)
		}
		cb := s.cfg.OnLinkFail
		s.mu.Unlock()
		if cb != nil {
			cb(sub, err)
		}
		s.markEOF(sub, Stdout)
		s.markEOF(sub, Stderr)
	}
}

// LinkFailure returns the first permanent link failure observed (nil
// while every subjob's link is healthy or merely retrying).
func (s *Shadow) LinkFailure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.linkErr
}

func (s *Shadow) markEOF(sub uint16, stream Stream) {
	s.mu.Lock()
	m := s.eofs[sub]
	if m == nil {
		m = make(map[Stream]bool)
		s.eofs[sub] = m
	}
	m[stream] = true
	complete := len(s.eofs) == s.cfg.Subjobs
	if complete {
		for _, streams := range s.eofs {
			if !streams[Stdout] || !streams[Stderr] {
				complete = false
				break
			}
		}
	}
	s.mu.Unlock()
	if complete {
		s.finish()
	}
}

func (s *Shadow) finish() {
	s.doneOnce.Do(func() {
		s.outBuf.Close()
		s.errBuf.Close()
		close(s.done)
	})
}

// acceptLoop admits agent connections: the first frame must be a Hello
// identifying the subjob; the connection is then attached to that
// subjob's link (reconnections replace the previous connection).
func (s *Shadow) acceptLoop() {
	for {
		conn, err := s.cfg.Accept()
		if err != nil {
			s.mu.Lock()
			s.acceptErr = err
			s.mu.Unlock()
			return
		}
		go s.admit(conn)
	}
}

func (s *Shadow) admit(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	hello, err := ReadMessage(conn)
	if err != nil || hello.Type != MsgHello {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	s.mu.Lock()
	link, ok := s.links[hello.Subjob]
	closed := s.closed
	s.mu.Unlock()
	if !ok || closed {
		conn.Close()
		return
	}
	if err := link.Attach(conn, hello); err != nil {
		return
	}
	s.mu.Lock()
	s.attaches[hello.Subjob]++
	first := s.attaches[hello.Subjob] == 1
	s.mu.Unlock()
	if s.cfg.Trace.Enabled() {
		kind := trace.ConsoleAttached
		if !first {
			kind = trace.LinkResumed
		}
		s.cfg.Trace.Emit(trace.Event{Kind: kind, Job: s.cfg.TraceJob, N: int(hello.Subjob)})
	}
}

// stdinLoop forwards user input line by line to every subjob; "the
// forwarding is produced when the enter key is hit". A trailing
// partial line is forwarded at EOF, then stdin EOF is propagated.
func (s *Shadow) stdinLoop() {
	r := bufio.NewReader(s.cfg.Stdin)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			s.mu.Lock()
			for _, l := range s.links {
				l.Send(Stdin, line)
			}
			s.mu.Unlock()
		}
		if err != nil {
			s.mu.Lock()
			for _, l := range s.links {
				l.SendEOF(Stdin)
			}
			s.mu.Unlock()
			return
		}
	}
}

// SendInput programmatically forwards input to every subjob (used by
// steering front ends instead of a Stdin reader).
func (s *Shadow) SendInput(data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.links {
		l.Send(Stdin, data)
	}
}

// Done is closed once every subjob has delivered EOF on both output
// streams and the screen buffers are flushed.
func (s *Shadow) Done() <-chan struct{} { return s.done }

// Wait blocks until Done or the timeout, reporting whether the session
// completed.
func (s *Shadow) Wait(timeout time.Duration) bool {
	select {
	case <-s.done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Connected reports how many subjob links currently hold a live
// connection.
func (s *Shadow) Connected() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, l := range s.links {
		if l.Connected() {
			n++
		}
	}
	return n
}

// Attached reports how many subjobs have completed a hello with the
// shadow, whether or not their link is still live: a subjob whose
// application finished and hung up still counts.
func (s *Shadow) Attached() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.attaches)
}

// Close tears down all links and flushes the screen buffers. The
// caller closes its own listener to stop the accept loop.
func (s *Shadow) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	links := make([]*Link, 0, len(s.links))
	for _, l := range s.links {
		links = append(links, l)
	}
	s.mu.Unlock()
	for _, l := range links {
		l.Close()
	}
	s.finish()
	return nil
}
