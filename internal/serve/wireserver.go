package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ring"
	"repro/internal/secure"

	repro "repro"
)

// ErrWireServerClosed is returned by WireServer.Serve after Shutdown,
// mirroring http.ErrServerClosed so cmd/ringd can tell a graceful stop
// from a listener failure.
var ErrWireServerClosed = errors.New("serve: wire server closed")

// errWireWriterClosed fails appends that race the final flush; by
// construction (inflight.Wait before close) it should not be observed.
var errWireWriterClosed = errors.New("serve: wire writer closed")

// wireMaxInflightBytes bounds, per connection, the response bytes that
// detached responders (miss owners, singleflight waiters, backend calls)
// may hold in flight; each reserves the worst-case response size, so a
// connection holds at most 1 MiB / wireMaxResponseBody (about 3,300)
// detached requests. Excess requests are shed instead of buffered.
const wireMaxInflightBytes = 1 << 20

// WireServer is the one RGV1 connection engine. It owns the listener
// (accept loop, connection set, graceful Shutdown) and every
// per-connection concern: the optional ringsec handshake, the magic
// check, framing, ELECT decode, the draining check, the per-peer rate
// limit, the in-flight budget, the batching writer, and the flush, FIN
// and linger teardown. Only the per-ELECT handler differs, and the
// constructor picks it:
//
//   - NewWireServer(With) serves elections from a local Server — the same
//     result cache, admission queue, metrics registry and crosscheck
//     policy the HTTP handlers use, so the two protocols can never
//     disagree. Cache hits are answered inline in the reader goroutine,
//     allocation-free; misses and singleflight waiters detach and
//     complete out of order, matched by request id.
//   - NewWireFrontend delegates every ELECT to a WireBackend on a
//     detached goroutine, so a gateway terminates RGV1 without owning a
//     cache or an admission queue.
//
// Run Serve on a dedicated listener, and Shutdown before Server.Close
// (the same stop-accepting-then-drain ordering as http.Server.Shutdown).
type WireServer struct {
	elect   func(wc *wireConn, start time.Time, req wireElect) // the per-ELECT handler
	s       *Server                                            // local handler: cache, admission, crosscheck
	b       WireBackend                                        // backend handler: the delegated election
	maxRing int
	timeout time.Duration // bounds one detached election
	opts    WireServerOptions
	metrics *Metrics
	ep      *endpointStats
	limiter *rateLimiter

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*wireConn]struct{}
	closed bool
	wg     sync.WaitGroup // one per live connection handler
}

// WireServerOptions hardens a WireServer's edge. The zero value serves
// plaintext RGV1 with no per-peer limits — exactly NewWireServer.
type WireServerOptions struct {
	// Secure, when set, requires every connection to complete the
	// authenticated ringsec handshake before the RGV1 magic. Plaintext
	// clients, unknown keys, and garbage are counted in
	// ringd_handshake_failures_total and dropped without a frame.
	Secure *secure.ServerConfig
	// RateLimit, when set, applies a per-peer token bucket to ELECT
	// requests. Peers are keyed by authenticated key fingerprint on a
	// secure port, remote host otherwise; over-budget requests get the
	// SHED error frame with a Retry-After hint.
	RateLimit *RateLimitConfig
}

// NewWireServer builds the wire front end of s. One Server can carry at
// most one WireServer per listener; sharing s between HTTP and wire is
// the intended deployment.
func NewWireServer(s *Server) *WireServer {
	return NewWireServerWith(s, WireServerOptions{})
}

// NewWireServerWith builds a wire front end with hardening options.
func NewWireServerWith(s *Server, opts WireServerOptions) *WireServer {
	ws := newWireEngine(s.metrics, s.cfg.MaxRingSize, s.cfg.RequestTimeout, opts)
	ws.s = s
	ws.elect = (*wireConn).electLocal
	return ws
}

// newWireEngine builds the handler-independent part of a WireServer.
func newWireEngine(m *Metrics, maxRing int, timeout time.Duration, opts WireServerOptions) *WireServer {
	ws := &WireServer{
		maxRing: maxRing,
		timeout: timeout,
		opts:    opts,
		metrics: m,
		ep:      m.Endpoint("wire/elect"),
		conns:   make(map[*wireConn]struct{}),
	}
	if opts.RateLimit != nil {
		ws.limiter = newRateLimiter(*opts.RateLimit)
	}
	return ws
}

// Serve accepts RGV1 connections on ln until Shutdown. It returns
// ErrWireServerClosed after a graceful stop, or the accept error that
// ended the loop.
func (ws *WireServer) Serve(ln net.Listener) error {
	ws.mu.Lock()
	if ws.closed {
		ws.mu.Unlock()
		ln.Close()
		return ErrWireServerClosed
	}
	ws.ln = ln
	ws.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			ws.mu.Lock()
			closed := ws.closed
			ws.mu.Unlock()
			if closed {
				return ErrWireServerClosed
			}
			return err
		}
		wc := newWireConn(ws, c)
		ws.mu.Lock()
		if ws.closed {
			ws.mu.Unlock()
			c.Close()
			return ErrWireServerClosed
		}
		ws.conns[wc] = struct{}{}
		ws.wg.Add(1)
		ws.mu.Unlock()
		go wc.serve()
	}
}

// Shutdown drains the wire path: the listener stops accepting, every
// connection stops reading new requests, all in-flight elections are
// answered, each connection's writer flushes completely, and only then
// are the sockets closed — a client never observes a truncated frame,
// only a clean EOF between frames. If ctx expires first the remaining
// connections are torn down hard and ctx.Err is returned.
func (ws *WireServer) Shutdown(ctx context.Context) error {
	ws.mu.Lock()
	ws.closed = true
	ln := ws.ln
	conns := make([]*wireConn, 0, len(ws.conns))
	for wc := range ws.conns {
		conns = append(conns, wc)
	}
	ws.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, wc := range conns {
		wc.beginDrain()
	}
	done := make(chan struct{})
	go func() {
		ws.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		ws.mu.Lock()
		for wc := range ws.conns {
			wc.conn.Close()
		}
		ws.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// wireConn is one persistent client connection: the reader-side scratch
// buffers (reused across frames so the hit path allocates nothing), the
// batching writer, and the in-flight accounting the drain relies on.
type wireConn struct {
	ws       *WireServer
	conn     net.Conn // the accepted socket: deadlines and hard teardown
	rw       net.Conn // the framing stream: conn, or its secure wrapper
	w        *wireWriter
	peer     string        // rate-limit identity: key fingerprint or remote host
	draining chan struct{} // closed by beginDrain
	drainOne sync.Once

	// inflightBytes tracks response bytes reserved by this connection's
	// detached responders, bounded by wireMaxInflightBytes.
	inflightBytes atomic.Int64

	// Reader-goroutine-only scratch.
	body   []byte
	labels []ring.Label
}

func newWireConn(ws *WireServer, c net.Conn) *wireConn {
	return &wireConn{
		ws:       ws,
		conn:     c,
		rw:       c,
		w:        newWireWriter(c),
		draining: make(chan struct{}),
	}
}

// reserve admits one detached responder against the connection's
// in-flight budget: it claims worst-case response room and registers
// with the drain. When the budget is exhausted it answers a SHED frame
// carrying retryAfter() instead and reports false. An admitted responder
// runs on its own goroutine, so the reader keeps draining pipelined
// requests, and calls release when it has answered.
func (wc *wireConn) reserve(start time.Time, id uint64, retryAfter func() int) bool {
	if wc.inflightBytes.Add(wireMaxResponseBody) > wireMaxInflightBytes {
		wc.inflightBytes.Add(-wireMaxResponseBody)
		wc.ws.metrics.RateLimited()
		wc.respondError(start, id, wireErrShed, retryAfter(), "connection response budget exhausted")
		return false
	}
	wc.w.inflight.Add(1)
	return true
}

func (wc *wireConn) release() {
	wc.inflightBytes.Add(-wireMaxResponseBody)
	wc.w.inflight.Done()
}

// beginDrain stops this connection's reader: the blocked Read is
// interrupted via an immediate deadline, after which the reader loop
// sees the draining signal and falls into the graceful teardown.
func (wc *wireConn) beginDrain() {
	wc.drainOne.Do(func() {
		close(wc.draining)
		wc.conn.SetReadDeadline(time.Now())
	})
}

func (wc *wireConn) isDraining() bool {
	select {
	case <-wc.draining:
		return true
	default:
		return false
	}
}

// wireLingerTimeout bounds the post-flush half-close linger: after the
// final flush the server sends FIN and absorbs inbound bytes for at most
// this long, so a straggling client reads every response then a clean
// EOF instead of the RST a close-with-unread-data would provoke.
const wireLingerTimeout = 500 * time.Millisecond

// serve is the connection's reader loop. On exit — client hangup,
// protocol violation, or drain — it waits for every detached responder,
// flushes the writer, half-closes (FIN, then drain the inbound side),
// and only then closes the socket, so no response is ever cut mid-frame
// and no buffered response is destroyed by a reset.
func (wc *wireConn) serve() {
	defer wc.ws.wg.Done()
	defer func() {
		wc.w.inflight.Wait()
		wc.w.close()
		if hc, ok := wc.rw.(interface{ CloseWrite() error }); ok {
			if hc.CloseWrite() == nil {
				// Closing with unread data in the receive queue sends RST,
				// which discards responses still in flight to the client.
				// Absorb what the client already pipelined until its EOF
				// (or the linger bound) so the close is a clean FIN.
				wc.conn.SetReadDeadline(time.Now().Add(wireLingerTimeout))
				io.Copy(io.Discard, wc.conn)
			}
		}
		wc.conn.Close()
		wc.ws.mu.Lock()
		delete(wc.ws.conns, wc)
		wc.ws.mu.Unlock()
	}()

	if sec := wc.ws.opts.Secure; sec != nil {
		// Authenticate before the first protocol byte. A client that
		// cannot complete the handshake — plaintext RGV1, a wrong or
		// unlisted key, injected garbage — never reaches the frame
		// decoder; it is counted and hung up on, frameless, exactly like
		// a non-RGV1 client on a plaintext port.
		sconn, err := secure.Server(wc.conn, sec)
		if err != nil {
			wc.ws.metrics.HandshakeFailure()
			return
		}
		if wc.isDraining() {
			// The handshake cleared the drain's wakeup deadline; don't
			// start reading frames a shutdown will never answer.
			return
		}
		wc.rw = sconn
		wc.peer = sconn.Peer().Fingerprint()
		wc.w.setOut(sconn)
	} else if host, _, err := net.SplitHostPort(wc.conn.RemoteAddr().String()); err == nil {
		wc.peer = host
	} else {
		wc.peer = wc.conn.RemoteAddr().String()
	}

	var magic [4]byte
	if _, err := io.ReadFull(wc.rw, magic[:]); err != nil || string(magic[:]) != wireMagic {
		return // not an RGV1 client; hang up without a frame
	}
	maxBody := wireMaxRequestBody(wc.ws.maxRing)
	var pfx [4]byte
	for {
		if _, err := io.ReadFull(wc.rw, pfx[:]); err != nil {
			return // EOF, hangup, or the drain deadline
		}
		n := binary.BigEndian.Uint32(pfx[:])
		if int(n) < wireHeaderLen || int(n) > maxBody {
			return // unframeable stream: close
		}
		if cap(wc.body) < int(n) {
			wc.body = make([]byte, n)
		}
		body := wc.body[:n]
		if _, err := io.ReadFull(wc.rw, body); err != nil {
			return
		}
		if !wc.processFrame(body) {
			return
		}
	}
}

// processFrame handles one received frame body. It returns false when
// the connection can no longer be trusted and must close; a payload
// error on a well-framed ELECT answers an ERROR frame and keeps the
// connection. Everything up to the handler runs allocation-free on
// scratch, so a local cache hit stays allocation-free end to end.
func (wc *wireConn) processFrame(body []byte) bool {
	start := time.Now()
	typ, id, payload, err := decodeWireHeader(body)
	if err != nil || typ != wireFrameElect {
		// Header-level garbage, or a frame type only servers send:
		// protocol confusion, not a recoverable request.
		return false
	}
	var req wireElect
	req, wc.labels, err = decodeWireElect(id, payload, wc.labels, wc.ws.maxRing)
	if err != nil {
		wc.respondError(start, id, wireErrBadRequest, 0, err.Error())
		return true
	}
	if wc.isDraining() {
		wc.respondError(start, id, wireErrDraining, 0, "shutting down")
		return true
	}
	if rl := wc.ws.limiter; rl != nil {
		if ok, retry := rl.allow(wc.peer, time.Now()); !ok {
			wc.ws.metrics.RateLimited()
			wc.respondError(start, id, wireErrShed, retry, "rate limited")
			return true
		}
	}
	wc.ws.elect(wc, start, req)
	return true
}

// electLocal is the local Server's per-ELECT handler: the v2 hot path.
// On a warm cache it runs allocation-free (pooled canonicalization,
// sharded lookup, batched response append). It canonicalizes and looks
// up straight from the decoded label scratch — no ring.Ring exists on
// this path.
func (wc *wireConn) electLocal(start time.Time, req wireElect) {
	s := wc.ws.s
	n := len(req.labels)
	key, rot, sc := canonicalKey(req.labels, req.alg, req.k)
	e, owner := s.cache.lookup(key, hashKey(key))
	sc.release()

	if owner {
		s.metrics.CacheMiss()
		wc.runMiss(start, req, e, rot)
		return
	}
	s.metrics.CacheHit()
	id := req.id
	select {
	case <-e.ready:
		// Completed entry: answer inline, in the reader goroutine.
		if e.err != nil {
			wc.respondEntryError(start, id, e.err)
			return
		}
		// Crosscheck before the RESULT is queued, as the HTTP handler
		// does: a client holding the answer can rely on the sampled
		// re-run having been counted.
		if s.shouldCrosscheck() {
			wc.crosscheckHit(req, rot, e.out)
		}
		wc.respondResult(start, id, true, (e.out.Leader+rot)%n, e.out)
	default:
		// Deduplicated into another requester's flight: wait off the
		// reader loop so pipelined requests behind this one keep flowing.
		if !wc.reserve(start, id, s.adm.retryAfterSeconds) {
			return
		}
		go func() {
			defer wc.release()
			t := time.NewTimer(wc.ws.timeout)
			defer t.Stop()
			select {
			case <-e.ready:
			case <-t.C:
				wc.respondError(start, id, wireErrInternal, 0, "timed out waiting for result")
				return
			}
			if e.err != nil {
				wc.respondEntryError(start, id, e.err)
				return
			}
			wc.respondResult(start, id, true, (e.out.Leader+rot)%n, e.out)
		}()
	}
}

// canonRing materializes the canonical rotation of decoded labels — the
// one place the wire path builds a ring.Ring.
func canonRing(labels []ring.Label, rot int) (*ring.Ring, error) {
	n := len(labels)
	canonLabels := make([]ring.Label, n)
	for i := range canonLabels {
		canonLabels[i] = labels[(rot+i)%n]
	}
	return ring.New(canonLabels)
}

// runMiss owns a fresh cache entry: it materializes the canonical ring,
// finishes validation the decoder could not do, and runs the election
// through the shared admission layer on a detached goroutine.
func (wc *wireConn) runMiss(start time.Time, req wireElect, e *entry, rot int) {
	s := wc.ws.s
	canon, err := canonRing(req.labels, rot)
	if err == nil {
		// Class validation (multiplicity, asymmetry) — the HTTP path does
		// this pre-lookup via ProtocolFor; here the ring only exists now.
		_, err = repro.ProtocolFor(canon, req.alg, req.k)
	}
	if err != nil {
		s.cache.abandon(e, fmt.Errorf("%w: %v", errBadRequest, err))
		wc.respondError(start, req.id, wireErrBadRequest, 0, err.Error())
		return
	}
	id, n := req.id, len(req.labels)
	if !wc.reserve(start, id, s.adm.retryAfterSeconds) {
		s.cache.abandon(e, errSaturated)
		return
	}
	go func() {
		defer wc.release()
		ctx, cancel := context.WithTimeout(context.Background(), wc.ws.timeout)
		defer cancel()
		if err := s.adm.submit(ctx, req.alg.String(), "sim", func(sc *repro.ElectScratch) {
			out, rerr := s.runElectionInto(canon, req.alg, req.k, "sim", sc)
			s.cache.finish(e, out, rerr)
		}); err != nil {
			s.cache.abandon(e, err)
			wc.respondEntryError(start, id, err)
			return
		}
		<-e.ready
		if e.err != nil {
			wc.respondEntryError(start, id, e.err)
			return
		}
		wc.respondResult(start, id, false, (e.out.Leader+rot)%n, e.out)
	}()
}

// crosscheckHit re-runs a sampled wire cache hit through the simulator,
// sharing the Server's divergence policy. Only the inline hit path
// samples: it still holds the decoded labels the canonical ring is
// rebuilt from (the same synchronous cost profile as the HTTP path).
func (wc *wireConn) crosscheckHit(req wireElect, rot int, out *canonOutcome) {
	canon, err := canonRing(req.labels, rot)
	if err != nil {
		return // unreachable: the cached entry implies a valid ring
	}
	wc.ws.s.crosscheck(canon, req.alg, req.k, out)
}

// respondResult appends one RESULT frame and records the request in the
// metrics (endpoint "wire/elect", status 200).
func (wc *wireConn) respondResult(start time.Time, id uint64, cached bool, leader int, out *canonOutcome) {
	wc.w.appendResult(id, cached, leader, out)
	wc.ws.metrics.observe(wc.ws.ep, 200, time.Since(start))
}

// respondError appends one typed ERROR frame, recording it under the
// equivalent HTTP status so /metrics tells one story for both protocols.
func (wc *wireConn) respondError(start time.Time, id uint64, code wireErrCode, retryAfter int, msg string) {
	wc.w.appendError(id, code, retryAfter, msg)
	wc.ws.metrics.observe(wc.ws.ep, code.httpStatus(), time.Since(start))
}

// respondEntryError maps a cache-entry error (shed, drain, bad request,
// engine failure) onto the typed ERROR frame vocabulary — the wire twin
// of handleElect's status mapping. Sheds carry the admission layer's
// Retry-After estimate, exactly like the HTTP 429 header.
func (wc *wireConn) respondEntryError(start time.Time, id uint64, err error) {
	s := wc.ws.s
	switch {
	case errors.Is(err, errSaturated) || errors.Is(err, errExpired):
		wc.respondError(start, id, wireErrShed, s.adm.retryAfterSeconds(), err.Error())
	case errors.Is(err, errClosed):
		wc.respondError(start, id, wireErrDraining, 0, "shutting down")
	case errors.Is(err, errBadRequest):
		wc.respondError(start, id, wireErrBadRequest, 0, err.Error())
	default:
		wc.respondError(start, id, wireErrInternal, 0, "election failed: "+err.Error())
	}
}

// wireWriter is the per-connection batching sender. Responders append
// encoded frames into a shared pending buffer under a mutex; a single
// flusher goroutine swaps the buffer out and writes it with one syscall.
// Appenders block once wireMaxWriteBatch frames are pending — the same
// ≤64-frames-per-Write bound as internal/netring's link sender, providing
// backpressure instead of unbounded buffering. Both buffers are recycled,
// so a steady-state response costs no allocation.
type wireWriter struct {
	mu      sync.Mutex
	out     io.Writer  // guarded by mu; swapped once by setOut post-handshake
	avail   *sync.Cond // signaled when frames become pending (or close)
	room    *sync.Cond // signaled when the flusher drains the batch
	pending []byte
	spare   []byte
	frames  int
	closed  bool
	err     error
	done    chan struct{}

	// inflight counts detached responders (miss owners, singleflight
	// waiters); the connection teardown waits for it before the final
	// flush so every accepted request is answered or the conn stays open.
	inflight sync.WaitGroup
}

func newWireWriter(out io.Writer) *wireWriter {
	w := &wireWriter{out: out, done: make(chan struct{})}
	w.avail = sync.NewCond(&w.mu)
	w.room = sync.NewCond(&w.mu)
	go w.flushLoop()
	return w
}

// setOut redirects the flusher to a new stream — the post-handshake swap
// from the raw socket to its secure wrapper. Safe only while nothing has
// been appended on this connection, which the handshake-before-magic
// ordering guarantees.
func (w *wireWriter) setOut(out io.Writer) {
	w.mu.Lock()
	w.out = out
	w.mu.Unlock()
}

// waitRoomLocked blocks while the pending batch is full. Returns the
// writer's terminal error, if any.
func (w *wireWriter) waitRoomLocked() error {
	for w.frames >= wireMaxWriteBatch && w.err == nil && !w.closed {
		w.room.Wait()
	}
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errWireWriterClosed
	}
	return nil
}

// appendResult enqueues one RESULT frame. Encoding happens directly into
// the recycled pending buffer — no intermediate allocation, no closure.
func (w *wireWriter) appendResult(id uint64, cached bool, leader int, out *canonOutcome) error {
	w.mu.Lock()
	if err := w.waitRoomLocked(); err != nil {
		w.mu.Unlock()
		return err
	}
	w.pending = appendWireResult(w.pending, id, cached, leader, out)
	w.frames++
	w.avail.Signal()
	w.mu.Unlock()
	return nil
}

// appendError enqueues one ERROR frame.
func (w *wireWriter) appendError(id uint64, code wireErrCode, retryAfter int, msg string) error {
	w.mu.Lock()
	if err := w.waitRoomLocked(); err != nil {
		w.mu.Unlock()
		return err
	}
	w.pending = appendWireError(w.pending, id, code, retryAfter, msg)
	w.frames++
	w.avail.Signal()
	w.mu.Unlock()
	return nil
}

// flushLoop is the single writer goroutine: swap the pending buffer for
// the spare, write it in one syscall, recycle. It exits after close()
// once everything pending has been flushed.
func (w *wireWriter) flushLoop() {
	defer close(w.done)
	for {
		w.mu.Lock()
		for w.frames == 0 && !w.closed {
			w.avail.Wait()
		}
		if w.frames == 0 && w.closed {
			w.mu.Unlock()
			return
		}
		buf := w.pending
		w.pending = w.spare[:0]
		w.spare = nil
		w.frames = 0
		broken := w.err != nil
		out := w.out
		w.room.Broadcast()
		w.mu.Unlock()

		var werr error
		if !broken {
			_, werr = out.Write(buf)
		}
		w.mu.Lock()
		w.spare = buf[:0]
		if werr != nil && w.err == nil {
			w.err = werr
			w.room.Broadcast()
		}
		w.mu.Unlock()
	}
}

// close flushes whatever is pending and stops the flusher. It returns
// the writer's terminal error (nil on a clean flush).
func (w *wireWriter) close() error {
	w.mu.Lock()
	w.closed = true
	w.avail.Signal()
	w.room.Broadcast()
	w.mu.Unlock()
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}
