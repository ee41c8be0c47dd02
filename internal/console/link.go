package console

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"crossbroker/internal/jdl"
)

// ErrLinkFailed is reported after the link has exhausted its
// reconnection budget; per the paper the process is then killed.
var ErrLinkFailed = errors.New("console: link failed permanently")

// ErrLinkClosed is returned by Send after Close.
var ErrLinkClosed = errors.New("console: link closed")

// LinkConfig configures one agent<->shadow link endpoint.
type LinkConfig struct {
	// Mode selects fast or reliable streaming.
	Mode jdl.StreamingMode
	// Subjob identifies this agent's subjob in Hello messages (agents
	// only; shadows learn it from the peer).
	Subjob uint16
	// RetryInterval is the pause between reconnection attempts
	// ("the number of seconds between each retry are configurable").
	RetryInterval time.Duration
	// MaxRetries is the number of consecutive failed reconnections
	// after which the link gives up.
	MaxRetries int
	// SpillPath is the reliable mode write-ahead file; required when
	// Mode is ReliableStreaming.
	SpillPath string
	// HandshakeTimeout bounds the Hello exchange on a fresh
	// connection.
	HandshakeTimeout time.Duration
	// DiskCost is a modeled per-record storage latency added to every
	// reliable spill write (era calibration for experiments; zero in
	// production).
	DiskCost time.Duration
	// OnDown, when set, is called (on its own goroutine — the link's
	// lock is held at the detection point) each time a live connection
	// is lost. Permanent give-up is reported through onFail instead.
	// Close waits for calls already started, so OnDown must not call
	// Close.
	OnDown func()
}

func (c *LinkConfig) setDefaults() {
	if c.RetryInterval <= 0 {
		c.RetryInterval = 500 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 20
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
}

// Receiver consumes data arriving on a link. eof marks the end of the
// given stream.
type Receiver func(stream Stream, data []byte, eof bool)

// Link is one endpoint of the agent<->shadow channel. A dial-side link
// (the Console Agent's) owns connection establishment and the retry
// loop; an accept-side link (the shadow's, one per subjob) is handed
// fresh connections by the shadow's accept loop.
type Link struct {
	cfg  LinkConfig
	dial func() (net.Conn, error) // nil on the accept side

	mu       sync.Mutex
	conn     net.Conn
	sendSeq  uint64 // fast mode sequence counter
	recvNext uint64
	spill    *Spill
	closed   bool
	failed   bool
	retrying bool
	watchGen int // invalidates stale give-up watchdogs
	// pendingEOF tracks fast-mode stream EOFs not yet written to a
	// live connection. EOF is control information the agent knows
	// authoritatively, so unlike fast-mode data it is re-sent after a
	// reconnect.
	pendingEOF map[Stream]bool

	receiver Receiver
	onFail   func(error)
	// downs counts OnDown calls in flight; Close waits for them.
	downs sync.WaitGroup
}

// NewDialLink creates the agent-side endpoint. dial must produce a
// ready-to-use connection to the shadow (typically netsim or TCP,
// already wrapped in GSI). The link connects lazily on Start.
func NewDialLink(cfg LinkConfig, dial func() (net.Conn, error), recv Receiver, onFail func(error)) (*Link, error) {
	cfg.setDefaults()
	l := &Link{cfg: cfg, dial: dial, receiver: recv, onFail: onFail}
	if err := l.initSpill(); err != nil {
		return nil, err
	}
	return l, nil
}

// NewAcceptLink creates the shadow-side endpoint for one subjob.
func NewAcceptLink(cfg LinkConfig, recv Receiver, onFail func(error)) (*Link, error) {
	cfg.setDefaults()
	l := &Link{cfg: cfg, receiver: recv, onFail: onFail}
	if err := l.initSpill(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *Link) initSpill() error {
	if l.cfg.Mode != jdl.ReliableStreaming {
		return nil
	}
	if l.cfg.SpillPath == "" {
		return errors.New("console: reliable link needs SpillPath")
	}
	sp, err := OpenSpill(l.cfg.SpillPath)
	if err != nil {
		return err
	}
	sp.SetDelay(l.cfg.DiskCost)
	l.spill = sp
	return nil
}

// Start connects a dial-side link (asynchronously retrying per the
// configuration). It is a no-op on accept-side links.
func (l *Link) Start() {
	if l.dial == nil {
		return
	}
	l.mu.Lock()
	l.startRetryLocked()
	l.mu.Unlock()
}

// startRetryLocked launches the reconnect loop if not already running.
func (l *Link) startRetryLocked() {
	if l.retrying || l.closed || l.failed || l.dial == nil {
		return
	}
	l.retrying = true
	go l.retryLoop()
}

func (l *Link) retryLoop() {
	var lastErr error
	for attempt := 0; attempt < l.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(l.cfg.RetryInterval)
		}
		l.mu.Lock()
		if l.closed {
			l.retrying = false
			l.mu.Unlock()
			return
		}
		l.mu.Unlock()

		conn, err := l.dial()
		if err != nil {
			lastErr = err
			continue
		}
		if err := l.handshakeDial(conn); err != nil {
			lastErr = err
			conn.Close()
			continue
		}
		l.mu.Lock()
		l.retrying = false
		l.mu.Unlock()
		return
	}
	l.mu.Lock()
	l.retrying = false
	l.failed = true
	cb := l.onFail
	l.mu.Unlock()
	if cb != nil {
		cb(fmt.Errorf("%w: %d attempts, last error: %v", ErrLinkFailed, l.cfg.MaxRetries, lastErr))
	}
}

// handshakeDial performs the dial-side Hello exchange and installs the
// connection.
func (l *Link) handshakeDial(conn net.Conn) error {
	l.mu.Lock()
	hello := &Message{Type: MsgHello, Subjob: l.cfg.Subjob, Seq: l.recvNext}
	l.mu.Unlock()
	conn.SetReadDeadline(time.Now().Add(l.cfg.HandshakeTimeout))
	if err := WriteMessage(conn, hello); err != nil {
		return err
	}
	peer, err := ReadMessage(conn)
	if err != nil {
		return err
	}
	if peer.Type != MsgHello {
		return fmt.Errorf("%w: expected hello, got type %d", ErrBadFrame, peer.Type)
	}
	conn.SetReadDeadline(time.Time{})
	return l.install(conn, peer)
}

// Attach installs a connection accepted by the shadow, replying to the
// peer's Hello. It replaces any previous connection.
func (l *Link) Attach(conn net.Conn, peerHello *Message) error {
	l.mu.Lock()
	hello := &Message{Type: MsgHello, Subjob: l.cfg.Subjob, Seq: l.recvNext}
	l.mu.Unlock()
	if err := WriteMessage(conn, hello); err != nil {
		conn.Close()
		return err
	}
	return l.install(conn, peerHello)
}

// install replaces the live connection, replays unacknowledged data
// past the peer's receive horizon (reliable mode), and starts the read
// loop.
func (l *Link) install(conn net.Conn, peerHello *Message) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		conn.Close()
		return ErrLinkClosed
	}
	if l.conn != nil {
		l.conn.Close()
	}
	l.conn = conn
	if l.spill != nil {
		// Everything below the peer's next expected sequence has been
		// delivered.
		if err := l.spill.Ack(peerHello.Seq); err != nil {
			return err
		}
		recs, err := l.spill.Unacked(peerHello.Seq)
		if err != nil {
			return err
		}
		for _, r := range recs {
			if err := WriteMessage(conn, recordMessage(r)); err != nil {
				// The fresh connection died during replay; the retry
				// loop (or next Attach) will try again.
				l.markDeadLocked(conn)
				break
			}
		}
	} else {
		for stream := range l.pendingEOF {
			m := &Message{Type: MsgEOF, Stream: stream, Subjob: l.cfg.Subjob, Seq: l.sendSeq}
			l.sendSeq++
			if err := WriteMessage(conn, m); err != nil {
				l.markDeadLocked(conn)
				break
			}
			delete(l.pendingEOF, stream)
		}
	}
	go l.readLoop(conn)
	return nil
}

func recordMessage(r Record) *Message {
	m := &Message{Type: MsgData, Stream: r.Stream, Seq: r.Seq, Data: r.Data}
	if len(r.Data) == 0 {
		m.Type = MsgEOF
	}
	return m
}

// Send transmits data on the given stream. In reliable mode the data
// is written through the spill file first and Send succeeds even while
// the network is down (the data will be replayed); in fast mode data
// is written straight to the connection and silently dropped when the
// link is down, as the paper specifies.
func (l *Link) Send(stream Stream, data []byte) error {
	return l.send(stream, data, false)
}

// SendEOF marks the end of a stream.
func (l *Link) SendEOF(stream Stream) error {
	return l.send(stream, nil, true)
}

func (l *Link) send(stream Stream, data []byte, eof bool) error {
	if !eof && len(data) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLinkClosed
	}
	if l.failed {
		return ErrLinkFailed
	}
	m := &Message{Type: MsgData, Stream: stream, Subjob: l.cfg.Subjob, Data: data}
	if eof {
		m.Type = MsgEOF
		m.Data = nil
	}
	if l.spill != nil {
		seq, err := l.spill.Append(stream, m.Data)
		if err != nil {
			return err
		}
		m.Seq = seq
	} else {
		m.Seq = l.sendSeq
		l.sendSeq++
	}
	if l.conn == nil {
		// Reliable: buffered on disk for replay. Fast: data is lost,
		// but EOF is remembered and re-sent on reconnect.
		if l.spill == nil && eof {
			l.notePendingEOFLocked(stream)
		}
		return nil
	}
	if err := WriteMessage(l.conn, m); err != nil {
		if l.spill == nil && eof {
			l.notePendingEOFLocked(stream)
		}
		l.markDeadLocked(l.conn)
	}
	return nil
}

func (l *Link) notePendingEOFLocked(stream Stream) {
	if l.pendingEOF == nil {
		l.pendingEOF = make(map[Stream]bool)
	}
	l.pendingEOF[stream] = true
}

// markDeadLocked drops the connection (if it is still the current one)
// and, on the dial side, starts the retry loop. On the accept side it
// arms the give-up watchdog instead.
func (l *Link) markDeadLocked(conn net.Conn) {
	if l.conn != conn || l.conn == nil {
		return
	}
	l.conn.Close()
	l.conn = nil
	if l.cfg.OnDown != nil {
		l.downs.Add(1)
		go func() {
			defer l.downs.Done()
			l.cfg.OnDown()
		}()
	}
	l.startRetryLocked()
	l.startWatchdogLocked()
}

// startWatchdogLocked arms the accept-side give-up timer: reconnection
// is the dialing agent's job, so the shadow's link just waits out the
// peer's whole retry budget (plus one interval of slack for the last
// in-flight attempt) and then declares the link permanently failed.
func (l *Link) startWatchdogLocked() {
	if l.dial != nil || l.onFail == nil || l.failed || l.closed {
		return
	}
	l.watchGen++
	gen := l.watchGen
	go l.watchdog(gen)
}

func (l *Link) watchdog(gen int) {
	grace := time.Duration(l.cfg.MaxRetries+1) * l.cfg.RetryInterval
	time.Sleep(grace)
	l.mu.Lock()
	if gen != l.watchGen || l.conn != nil || l.failed || l.closed {
		l.mu.Unlock()
		return
	}
	l.failed = true
	cb := l.onFail
	l.mu.Unlock()
	cb(fmt.Errorf("%w: no reconnection within %v", ErrLinkFailed, grace))
}

func (l *Link) readLoop(conn net.Conn) {
	for {
		m, err := ReadMessage(conn)
		if err != nil {
			l.mu.Lock()
			l.markDeadLocked(conn)
			l.mu.Unlock()
			return
		}
		switch m.Type {
		case MsgData, MsgEOF:
			l.handleData(conn, m)
		case MsgAck:
			if l.spill != nil {
				// Best effort: a failed truncate only delays spill-file
				// reclamation until the next ack.
				_ = l.spill.Ack(m.Seq)
			}
		case MsgHello:
			// Duplicate hello on an established connection: ignore.
		}
	}
}

func (l *Link) handleData(conn net.Conn, m *Message) {
	reliable := l.cfg.Mode == jdl.ReliableStreaming
	if reliable {
		l.mu.Lock()
		if m.Seq < l.recvNext {
			// Duplicate from a replay: re-acknowledge and drop.
			if l.conn == conn && l.conn != nil {
				if err := WriteMessage(l.conn, &Message{Type: MsgAck, Seq: l.recvNext}); err != nil {
					l.markDeadLocked(l.conn)
				}
			}
			l.mu.Unlock()
			return
		}
		l.recvNext = m.Seq + 1
		if l.conn == conn && l.conn != nil {
			if err := WriteMessage(l.conn, &Message{Type: MsgAck, Seq: l.recvNext}); err != nil {
				l.markDeadLocked(l.conn)
			}
		}
		l.mu.Unlock()
	}
	if l.receiver != nil {
		l.receiver(m.Stream, m.Data, m.Type == MsgEOF)
	}
}

// Pending reports unacknowledged reliable records (always 0 in fast
// mode).
func (l *Link) Pending() int {
	if l.spill == nil {
		return 0
	}
	return l.spill.Pending()
}

// WaitDrained blocks until all reliable data has been acknowledged —
// or, on fast links, until any pending EOFs have reached a live
// connection — or the timeout elapses, reporting whether the link
// drained.
func (l *Link) WaitDrained(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if l.drained() {
			return true
		}
		l.mu.Lock()
		failed := l.failed || l.closed
		l.mu.Unlock()
		if failed {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return l.drained()
}

func (l *Link) drained() bool {
	if l.spill != nil {
		return l.spill.Pending() == 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pendingEOF) == 0
}

// WaitConnected blocks until the link holds a live connection, has
// failed permanently, or was closed, reporting whether it connected.
// The agent uses it to avoid streaming into the void before the first
// connection in fast mode.
func (l *Link) WaitConnected() bool {
	for {
		l.mu.Lock()
		conn, stop := l.conn != nil, l.failed || l.closed
		l.mu.Unlock()
		if conn {
			return true
		}
		if stop {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// Failed reports whether the link gave up permanently.
func (l *Link) Failed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Connected reports whether a live connection is installed.
func (l *Link) Connected() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn != nil
}

// Close tears the link down and removes its spill file. It returns
// only after every OnDown call already started has returned; with the
// connection gone, no new one can start.
func (l *Link) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	sp := l.spill
	l.mu.Unlock()
	l.downs.Wait()
	if sp != nil {
		return sp.Close()
	}
	return nil
}
