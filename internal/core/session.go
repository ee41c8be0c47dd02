package core

import (
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"crossbroker/internal/console"
	"crossbroker/internal/gsi"
	"crossbroker/internal/interpose"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
	"crossbroker/internal/trace"
)

// SessionConfig configures a real-time interactive session.
type SessionConfig struct {
	// Mode selects fast or reliable streaming.
	Mode jdl.StreamingMode
	// Profile shapes the network between the user and the worker
	// nodes (defaults to the campus grid).
	Profile netsim.Profile
	// Stdin, Stdout and Stderr are the user's terminal; Stdin may be
	// nil for output-only applications.
	Stdin          io.Reader
	Stdout, Stderr io.Writer
	// SpillDir holds reliable-mode spill files (default os.TempDir()).
	SpillDir string
	// Secure wraps every agent<->shadow connection in a GSI channel:
	// a simulated CA issues the user a credential, the broker-side
	// shadow runs under a delegated proxy, and each agent authenticates
	// mutually with it.
	Secure bool
	// User is the user's distinguished name for GSI (default
	// "/O=CrossGrid/CN=user").
	User string
	// RetryInterval and MaxRetries tune reliable-mode reconnection.
	RetryInterval time.Duration
	MaxRetries    int
	// FlushInterval tunes the output buffers.
	FlushInterval time.Duration
	// AuxSink receives auxiliary-channel traffic from applications
	// started with extra output channels (interpose.FuncAux); nil
	// discards it.
	AuxSink func(subjob uint16, channel int, data []byte, eof bool)
	// OnLinkFail is called when a subjob's console link gives up
	// permanently (retry budget exhausted, process killed); wire it to
	// the broker's Abort to drive the job terminal.
	OnLinkFail func(subjob uint16, err error)
	// Trace records the session's console events (attach, link
	// down/resume, give-up) labeled with TraceJob; nil disables.
	Trace *trace.Tracer
	// TraceJob is the broker job ID stamped on the session's events.
	TraceJob string
}

// Session is a running interactive session: one Console Shadow plus
// one Console Agent per subjob, each interposing one application
// subjob, over a failure-injectable network.
type Session struct {
	// Net is the underlying network; use Net.SetDown/Outage for
	// failure injection.
	Net *netsim.Net
	// Shadow is the user-side endpoint.
	Shadow *console.Shadow
	// Agents are the per-subjob Console Agents.
	Agents []*console.Agent
	// UserIdentity is the authenticated identity agents saw (empty
	// without Secure).
	UserIdentity string

	lis *netsim.Listener
}

// StartSession launches apps (one per subjob) under the Grid Console.
func StartSession(cfg SessionConfig, apps []interpose.AppFunc) (*Session, error) {
	wrapped := make([]interpose.AuxAppFunc, len(apps))
	for i, app := range apps {
		app := app
		wrapped[i] = func(stdin io.Reader, stdout, stderr io.Writer, _ []io.Writer) error {
			return app(stdin, stdout, stderr)
		}
	}
	return StartAuxSession(cfg, 0, wrapped)
}

// StartAuxSession launches apps that additionally write to naux
// auxiliary output channels each, forwarded to cfg.AuxSink — the
// paper's "transparent streaming of other IO traffic" extension.
func StartAuxSession(cfg SessionConfig, naux int, apps []interpose.AuxAppFunc) (*Session, error) {
	if len(apps) == 0 {
		return nil, fmt.Errorf("core: session needs at least one application subjob")
	}
	if cfg.Profile.Name == "" {
		cfg.Profile = netsim.CampusGrid()
	}
	if cfg.SpillDir == "" {
		cfg.SpillDir = os.TempDir()
	}
	if cfg.User == "" {
		cfg.User = "/O=CrossGrid/CN=user"
	}
	nw := netsim.New(cfg.Profile, 1)
	lis, err := nw.Listen("shadow")
	if err != nil {
		return nil, err
	}
	s := &Session{Net: nw, lis: lis}

	accept := func() (net.Conn, error) { return lis.Accept() }
	dial := func() (net.Conn, error) { return nw.Dial("shadow") }

	if cfg.Secure {
		accept, dial, err = s.secureTransports(cfg, accept, dial)
		if err != nil {
			lis.Close()
			return nil, err
		}
	}

	shadow, err := console.StartShadow(console.ShadowConfig{
		Mode:          cfg.Mode,
		Subjobs:       len(apps),
		Accept:        accept,
		Stdout:        cfg.Stdout,
		Stderr:        cfg.Stderr,
		Stdin:         cfg.Stdin,
		AuxSink:       cfg.AuxSink,
		OnLinkFail:    cfg.OnLinkFail,
		Trace:         cfg.Trace,
		TraceJob:      cfg.TraceJob,
		SpillDir:      cfg.SpillDir,
		FlushInterval: cfg.FlushInterval,
		RetryInterval: cfg.RetryInterval,
		MaxRetries:    cfg.MaxRetries,
	})
	if err != nil {
		lis.Close()
		return nil, err
	}
	s.Shadow = shadow

	for i, app := range apps {
		proc, err := interpose.FuncAux(naux, app)
		if err != nil {
			s.Close()
			return nil, err
		}
		agent, err := console.StartAgent(console.AgentConfig{
			Subjob:        uint16(i),
			Mode:          cfg.Mode,
			Dial:          dial,
			SpillDir:      cfg.SpillDir,
			FlushInterval: cfg.FlushInterval,
			RetryInterval: cfg.RetryInterval,
			MaxRetries:    cfg.MaxRetries,
		}, proc)
		if err != nil {
			_ = proc.Kill()
			s.Close()
			return nil, err
		}
		s.Agents = append(s.Agents, agent)
	}
	// The session is interactive only once every Console Agent has its
	// channel to the shadow (in the paper the CA opens its RPC channel
	// as part of job startup). Without this, fast-mode input typed
	// right after startup would be silently dropped.
	if err := awaitAttached(s.Shadow, len(apps), 10*time.Second); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// awaitAttached polls until n subjobs have completed a hello with the
// shadow, or fails after timeout. It counts hellos, not live links: a
// subjob whose application finishes fast may hang up before its
// siblings attach, and a live-link count would then never reach n.
func awaitAttached(sh *console.Shadow, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for sh.Attached() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("core: agents did not connect")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// secureTransports wraps the raw dial/accept in GSI handshakes: the
// shadow holds a proxy delegated from the user's credential; agents
// hold worker-node credentials from the same CA.
func (s *Session) secureTransports(cfg SessionConfig, accept, dial func() (net.Conn, error)) (func() (net.Conn, error), func() (net.Conn, error), error) {
	now := time.Now()
	ca, err := gsi.NewCA("/O=CrossGrid/CN=TestbedCA", now, 24*time.Hour)
	if err != nil {
		return nil, nil, err
	}
	pool := gsi.NewPool(ca)
	userCred, err := ca.Issue(cfg.User, now, 12*time.Hour)
	if err != nil {
		return nil, nil, err
	}
	shadowProxy, err := userCred.Delegate(now, 2*time.Hour)
	if err != nil {
		return nil, nil, err
	}
	agentCred, err := ca.Issue("/O=CrossGrid/CN=worker-node", now, 12*time.Hour)
	if err != nil {
		return nil, nil, err
	}

	secAccept := func() (net.Conn, error) {
		// A failed handshake rejects that one peer; only listener
		// errors may end the shadow's accept loop.
		for {
			raw, err := accept()
			if err != nil {
				return nil, err
			}
			c, err := gsi.Handshake(raw, shadowProxy, pool, time.Now(), true)
			if err != nil {
				raw.Close()
				continue
			}
			s.UserIdentity = shadowProxy.Identity()
			return c, nil
		}
	}
	secDial := func() (net.Conn, error) {
		raw, err := dial()
		if err != nil {
			return nil, err
		}
		c, err := gsi.Handshake(raw, agentCred, pool, time.Now(), false)
		if err != nil {
			raw.Close()
			return nil, err
		}
		return c, nil
	}
	return secAccept, secDial, nil
}

// Wait blocks until every agent's application exits and the shadow has
// received all output, or the timeout elapses.
func (s *Session) Wait(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, a := range s.Agents {
		done := make(chan error, 1)
		go func() { done <- a.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				return err
			}
		case <-time.After(time.Until(deadline)):
			return fmt.Errorf("core: session timed out")
		}
	}
	if !s.Shadow.Wait(time.Until(deadline)) {
		return fmt.Errorf("core: shadow did not complete")
	}
	return nil
}

// Close tears the session down.
func (s *Session) Close() {
	for _, a := range s.Agents {
		_ = a.Kill()
	}
	if s.Shadow != nil {
		s.Shadow.Close()
	}
	if s.lis != nil {
		s.lis.Close()
	}
}
