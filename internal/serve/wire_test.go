package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/ring"

	repro "repro"
)

// startWire brings up a Server with its wire front end on a loopback
// listener and returns the dial address. Cleanup shuts the wire path
// down before the Server, the required order.
func startWire(t *testing.T, cfg Config) (*Server, *WireServer, string) {
	t.Helper()
	s := New(cfg)
	ws := NewWireServer(s)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- ws.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := ws.Shutdown(ctx); err != nil {
			t.Errorf("wire shutdown: %v", err)
		}
		if err := <-served; !errors.Is(err, ErrWireServerClosed) {
			t.Errorf("Serve returned %v, want ErrWireServerClosed", err)
		}
		s.Close()
	})
	return s, ws, ln.Addr().String()
}

// TestWireFrameRoundTrip pins the frame encodings: every frame the
// encoder emits must decode back to the same value through the same
// header/payload split the server and client use.
func TestWireFrameRoundTrip(t *testing.T) {
	labels := []ring.Label{1, 3, 1, 3, 2, 2, 1, 2}
	buf := appendWireElect(nil, 7, repro.AlgorithmB, 3, labels)
	typ, id, payload, err := decodeWireHeader(buf[4:])
	if err != nil || typ != wireFrameElect || id != 7 {
		t.Fatalf("ELECT header: typ=%v id=%d err=%v", typ, id, err)
	}
	req, _, err := decodeWireElect(id, payload, nil, 4096)
	if err != nil {
		t.Fatalf("decode ELECT: %v", err)
	}
	if req.alg != repro.AlgorithmB || req.k != 3 {
		t.Errorf("ELECT decoded alg=%v k=%d", req.alg, req.k)
	}
	if len(req.labels) != len(labels) {
		t.Fatalf("ELECT decoded %d labels, want %d", len(req.labels), len(labels))
	}
	for i := range labels {
		if req.labels[i] != labels[i] {
			t.Errorf("label %d: %v, want %v", i, req.labels[i], labels[i])
		}
	}

	out := &canonOutcome{LeaderLabel: 1, Messages: 276, TimeUnits: 19.5, PeakSpaceBits: 88}
	buf = appendWireResult(nil, 9, true, 5, out)
	typ, id, payload, err = decodeWireHeader(buf[4:])
	if err != nil || typ != wireFrameResult || id != 9 {
		t.Fatalf("RESULT header: typ=%v id=%d err=%v", typ, id, err)
	}
	res, err := decodeWireResult(payload)
	if err != nil {
		t.Fatalf("decode RESULT: %v", err)
	}
	want := wireResult{cached: true, leader: 5, leaderLabel: 1, messages: 276, peakSpaceBits: 88, timeUnits: 19.5}
	if res != want {
		t.Errorf("RESULT round trip: %+v, want %+v", res, want)
	}

	buf = appendWireError(nil, 11, wireErrShed, 4, "overloaded")
	typ, id, payload, err = decodeWireHeader(buf[4:])
	if err != nil || typ != wireFrameError || id != 11 {
		t.Fatalf("ERROR header: typ=%v id=%d err=%v", typ, id, err)
	}
	ef, err := decodeWireError(payload)
	if err != nil {
		t.Fatalf("decode ERROR: %v", err)
	}
	if ef.code != wireErrShed || ef.retryAfter != 4 || ef.msg != "overloaded" {
		t.Errorf("ERROR round trip: %+v", ef)
	}
	if ef.code.httpStatus() != 429 {
		t.Errorf("shed code maps to %d, want 429", ef.code.httpStatus())
	}
}

// TestWireElectPayloadIsCacheKey pins the tentpole's framing trick: the
// ELECT payload after the request-id header is byte-identical to the
// result cache's compact key for the same (alg, k, labels) — so the
// server can canonicalize and hash a request without re-encoding it.
func TestWireElectPayloadIsCacheKey(t *testing.T) {
	labels := ring.Figure1().LabelsView()
	frame := appendWireElect(nil, 1, repro.AlgorithmB, 3, labels)
	payload := frame[4+wireHeaderLen:]
	key := appendCacheKey(nil, repro.AlgorithmB, 3, labels, 0)
	if !bytes.Equal(payload, key) {
		t.Errorf("ELECT payload %x != cache key %x", payload, key)
	}
}

// TestWireRotationsShareHTTPCacheEntry is the cross-protocol
// consistency contract, extending TestRotationCanonicalCache: rotation 0
// of the Figure 1 ring is warmed through the HTTP handler, then every
// rotation is requested over the wire. All of them must land on the one
// HTTP-created cache entry (n wire hits, zero wire misses) and map the
// cached canonical leader back into each rotation's frame.
func TestWireRotationsShareHTTPCacheEntry(t *testing.T) {
	s, _, addr := startWire(t, Config{Workers: 2})
	h := s.Handler()

	base := ring.Figure1()
	n := base.N()
	var warm ElectResponse
	if code, _ := postJSON(t, h, "/v1/elect", ElectRequest{Ring: canonSpec(base.Labels()), Alg: "B", K: 3}, &warm); code != 200 {
		t.Fatalf("HTTP warmup: status %d", code)
	}

	c, err := DialWire(addr, 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for d := 0; d < n; d++ {
		rotated := base.Rotate(d)
		out, err := c.Elect(rotated.LabelsView(), repro.AlgorithmB, 3)
		if err != nil {
			t.Fatalf("rotation %d: %v", d, err)
		}
		if want := (n - d) % n; out.Leader != want {
			t.Errorf("rotation %d: leader %d, want %d", d, out.Leader, want)
		}
		if out.LeaderLabel != 1 {
			t.Errorf("rotation %d: leader label %v, want 1", d, out.LeaderLabel)
		}
		if out.Messages != 276 {
			t.Errorf("rotation %d: messages %d, want 276", d, out.Messages)
		}
		if !out.Cached {
			t.Errorf("rotation %d: not served from the HTTP-warmed cache entry", d)
		}
	}
	snap := s.Metrics().Snapshot()
	if snap.Misses != 1 {
		t.Errorf("misses = %d, want 1: wire requests must share the HTTP entry", snap.Misses)
	}
	if snap.Hits != int64(n) {
		t.Errorf("hits = %d, want %d", snap.Hits, n)
	}
	if got := s.cache.len(); got != 1 {
		t.Errorf("cache has %d entries, want 1", got)
	}
}

// TestWirePipelinedMatchesHTTP pipelines many distinct elections over
// one wire connection from concurrent callers and requires every
// response — completed out of order, matched by request id — to agree
// with the HTTP answer for the same ring.
func TestWirePipelinedMatchesHTTP(t *testing.T) {
	s, _, addr := startWire(t, Config{Workers: 2})
	h := s.Handler()

	const rings = 24
	want := make([]ElectResponse, rings)
	specs := make([]*ring.Ring, rings)
	for i := range specs {
		specs[i] = ring.MustNew(ring.Label(100+i), 2, 1, 2, 1)
		if code, _ := postJSON(t, h, "/v1/elect", ElectRequest{Ring: canonSpec(specs[i].Labels()), Alg: "A", K: 2}, &want[i]); code != 200 {
			t.Fatalf("HTTP ring %d: status %d", i, code)
		}
	}

	c, err := DialWire(addr, 1, 5*time.Second) // one conn: true pipelining
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make([]error, rings)
	for i := 0; i < rings; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := c.Elect(specs[i].LabelsView(), repro.AlgorithmA, 2)
			if err != nil {
				errs[i] = err
				return
			}
			if out.Leader != want[i].Leader || out.Messages != want[i].Messages {
				errs[i] = fmt.Errorf("wire leader=%d messages=%d, HTTP leader=%d messages=%d",
					out.Leader, out.Messages, want[i].Leader, want[i].Messages)
			}
			if !out.Cached {
				errs[i] = fmt.Errorf("ring %d not cached after HTTP warmup", i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("ring %d: %v", i, err)
		}
	}
}

// TestWireShedsTyped saturates the admission layer and requires the
// wire surface of shedding: a typed ERROR frame with the shed code and a
// sane Retry-After, delivered without blocking, on a connection that
// stays usable for the retry once capacity frees up.
func TestWireShedsTyped(t *testing.T) {
	s, _, addr := startWire(t, Config{Workers: 1, QueueDepth: 1, BatchSize: 1, BatchWait: time.Millisecond})

	release := make(chan struct{})
	var running, occupied sync.WaitGroup
	running.Add(1)
	for i := 0; i < 2; i++ {
		first := i == 0
		occupied.Add(1)
		go func() {
			defer occupied.Done()
			_ = s.adm.submit(context.Background(), "test", "sim", func(*repro.ElectScratch) {
				if first {
					running.Done()
				}
				<-release
			})
		}()
		if first {
			running.Wait()
		} else {
			deadline := time.After(2 * time.Second)
			for len(s.adm.queue) < 1 {
				select {
				case <-deadline:
					t.Fatal("queue never filled")
				default:
					time.Sleep(time.Millisecond)
				}
			}
		}
	}

	c, err := DialWire(addr, 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	labels := []ring.Label{1, 2, 2}
	start := time.Now()
	_, err = c.Elect(labels, repro.AlgorithmA, 2)
	var we *WireError
	if !errors.As(err, &we) {
		t.Fatalf("saturated elect returned %v, want *WireError", err)
	}
	if we.Status != 429 {
		t.Fatalf("shed status %d, want 429; msg %q", we.Status, we.Msg)
	}
	if we.RetryAfter < 1 || we.RetryAfter > 30 {
		t.Errorf("Retry-After %d, want [1, 30]", we.RetryAfter)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("shed took %v; must not block", d)
	}
	if got := s.cache.len(); got != 0 {
		t.Errorf("cache holds %d entries after a shed, want 0", got)
	}

	close(release)
	occupied.Wait()

	// Same connection, same ring: must now succeed.
	out, err := c.Elect(labels, repro.AlgorithmA, 2)
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	if out.Cached {
		t.Error("after a shed the entry must have been abandoned, not cached")
	}
}

// TestWireBadRequestKeepsConnection: a well-framed but unservable
// request (symmetric ring, bad k) answers a typed 400 ERROR frame and
// the connection keeps serving; the invalid ring must not leave a cache
// entry behind.
func TestWireBadRequestKeepsConnection(t *testing.T) {
	for _, engine := range wireEngines {
		t.Run(engine, func(t *testing.T) {
			s, addr := startEngine(t, engine, Config{Workers: 1}, WireServerOptions{})
			c, err := DialWire(addr, 1, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			// Symmetric ring: shallow-valid, rejected by ProtocolFor on the miss
			// path.
			_, err = c.Elect([]ring.Label{5, 5, 5, 5}, repro.AlgorithmA, 2)
			var we *WireError
			if !errors.As(err, &we) || we.Status != 400 {
				t.Fatalf("symmetric ring returned %v, want *WireError 400", err)
			}
			if got := s.cache.len(); got != 0 {
				t.Errorf("invalid request left %d cache entries", got)
			}

			// k out of range: rejected at decode, before the cache.
			_, err = c.Elect([]ring.Label{1, 2, 2}, repro.AlgorithmA, wireMaxK+1)
			if !errors.As(err, &we) || we.Status != 400 {
				t.Fatalf("k=%d returned %v, want *WireError 400", wireMaxK+1, err)
			}

			// The connection must still serve valid requests.
			out, err := c.Elect([]ring.Label{1, 2, 2}, repro.AlgorithmA, 2)
			if err != nil {
				t.Fatalf("valid request after rejections: %v", err)
			}
			if out.LeaderLabel != 1 {
				t.Errorf("leader label %v, want 1", out.LeaderLabel)
			}
		})
	}
}

// TestWireUnknownAlgTypedError: an alg byte past the registry — the
// exact frame an old server would see from a newer client — answers a
// typed 400 ERROR naming the algorithm, the connection keeps serving,
// and the very next request may ride the randomized engine on a
// symmetric ring the deterministic algorithms refuse.
func TestWireUnknownAlgTypedError(t *testing.T) {
	s, _, addr := startWire(t, Config{Workers: 1})
	c, err := DialWire(addr, 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sym := []ring.Label{1, 2, 1, 2, 1, 2}
	var we *WireError
	for _, alg := range []repro.Algorithm{repro.AlgorithmItaiRodeh + 1, 99} {
		_, err := c.Elect(sym, alg, 3)
		if !errors.As(err, &we) || we.Status != 400 {
			t.Fatalf("alg byte %d returned %v, want *WireError 400", alg, err)
		}
	}
	if got := s.cache.len(); got != 0 {
		t.Errorf("unknown alg left %d cache entries", got)
	}

	out, err := c.Elect(sym, repro.AlgorithmItaiRodeh, 3)
	if err != nil {
		t.Fatalf("IR elect after unknown-alg rejections: %v", err)
	}
	if out.Leader < 0 || out.Leader >= len(sym) {
		t.Errorf("leader %d outside the ring", out.Leader)
	}
	if out.LeaderLabel != sym[out.Leader] {
		t.Errorf("leader label %v at index %d, want %v", out.LeaderLabel, out.Leader, sym[out.Leader])
	}
}

// TestWireGarbageClosesConnection: streams the framer cannot trust —
// wrong magic, bad frame version, an unknown frame type, an oversized
// length prefix — must close the connection (no panic, no reply loop).
func TestWireGarbageClosesConnection(t *testing.T) {
	for _, engine := range wireEngines {
		t.Run(engine, func(t *testing.T) {
			_, addr := startEngine(t, engine, Config{Workers: 1}, WireServerOptions{})

			expectClose := func(name string, payload []byte) {
				t.Helper()
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				defer nc.Close()
				if _, err := nc.Write(payload); err != nil {
					return // server already hung up: fine
				}
				nc.SetReadDeadline(time.Now().Add(5 * time.Second))
				buf := make([]byte, 64)
				for {
					n, err := nc.Read(buf)
					if err != nil {
						return // closed, as required
					}
					if n > 0 {
						t.Fatalf("%s: server replied %x to garbage, want connection close", name, buf[:n])
					}
				}
			}

			expectClose("bad magic", []byte("HTTP GET / HTTP/1.1\r\n"))
			// Good magic, frame body shorter than the header.
			expectClose("short body", append([]byte(wireMagic), 0, 0, 0, 2, wireVersion, byte(wireFrameElect)))
			// Good magic, bad version.
			bad := appendWireElect([]byte(wireMagic), 1, repro.AlgorithmA, 2, []ring.Label{1, 2, 2})
			bad[len(wireMagic)+4] = 99
			expectClose("bad version", bad)
			// Good magic, server-only frame type from a client.
			res := appendWireResult([]byte(wireMagic), 1, false, 0, &canonOutcome{})
			expectClose("result from client", res)
			// Good magic, length prefix beyond the request bound.
			expectClose("oversized frame", append([]byte(wireMagic), 0xff, 0xff, 0xff, 0xff))
		})
	}
}

// TestWireGracefulDrain pipelines traffic while the wire server shuts
// down. Every call must end in exactly one of: a complete, correct
// RESULT; a typed draining ERROR; or a clean connection close
// (ErrWireClientClosed from the frame boundary) — never a truncated
// frame, which would surface as a decode error.
func TestWireGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 2})
	ws := NewWireServer(s)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- ws.Serve(ln) }()

	c, err := DialWire(ln.Addr().String(), 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	labels := ring.Figure1().LabelsView()
	if _, err := c.Elect(labels, repro.AlgorithmB, 3); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	const callers = 16
	var wg sync.WaitGroup
	errs := make([]error, callers)
	begun := make(chan struct{})
	var once sync.Once
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				out, err := c.Elect(labels, repro.AlgorithmB, 3)
				if err != nil {
					errs[i] = err
					return
				}
				if out.Leader != 0 || out.Messages != 276 {
					errs[i] = fmt.Errorf("corrupt result mid-drain: %+v", out)
					return
				}
				once.Do(func() { close(begun) })
			}
		}(i)
	}
	<-begun
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ws.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; !errors.Is(err, ErrWireServerClosed) {
		t.Errorf("Serve returned %v, want ErrWireServerClosed", err)
	}
	wg.Wait()
	s.Close()

	for i, err := range errs {
		var we *WireError
		switch {
		case errors.Is(err, ErrWireClientClosed):
			// Clean close at a frame boundary.
		case errors.As(err, &we):
			if we.Status != 503 {
				t.Errorf("caller %d: wire error %d mid-drain, want 503", i, we.Status)
			}
		default:
			t.Errorf("caller %d: drain surfaced %v — a truncated or corrupt frame", i, err)
		}
	}
}

// TestWireCrosscheckRuns: sampled wire cache hits must flow through the
// shared crosscheck machinery (and agree with the cache).
func TestWireCrosscheckRuns(t *testing.T) {
	diverged := make(chan string, 1)
	s, _, addr := startWire(t, Config{
		Workers:    2,
		Crosscheck: 1,
		OnDivergence: func(detail string) {
			select {
			case diverged <- detail:
			default:
			}
		},
	})
	c, err := DialWire(addr, 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	labels := ring.Figure1().LabelsView()
	for i := 0; i < 4; i++ {
		if _, err := c.Elect(labels, repro.AlgorithmB, 3); err != nil {
			t.Fatalf("elect %d: %v", i, err)
		}
	}
	select {
	case d := <-diverged:
		t.Fatalf("crosscheck diverged: %s", d)
	default:
	}
	snap := s.Metrics().Snapshot()
	if snap.Crosschecks != 3 {
		t.Errorf("crosschecks = %d, want 3 (every wire hit at fraction 1)", snap.Crosschecks)
	}
	if snap.Divergences != 0 {
		t.Errorf("divergences = %d, want 0", snap.Divergences)
	}
}

// discardConn satisfies net.Conn for server-side paths that only write;
// the allocation test and the wire benchmarks use it to isolate frame
// processing from real sockets.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error)     { return len(b), nil }
func (discardConn) Close() error                    { return nil }
func (discardConn) SetReadDeadline(time.Time) error { return nil }

// TestWireHitAllocationFree pins the acceptance criterion directly: one
// served wire cache hit — header decode, label decode into scratch,
// Booth canonicalization, sharded lookup, RESULT append through the
// batched writer, metrics — performs zero heap allocations.
func TestWireHitAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime bypasses sync.Pool; allocation counts are distorted")
	}
	s := New(Config{Workers: 1})
	defer s.Close()
	ws := NewWireServer(s)
	wc := newWireConn(ws, discardConn{})
	defer wc.w.close()

	rg := ring.Figure1()
	key, _, sc := canonicalKey(rg.LabelsView(), repro.AlgorithmB, 3)
	e, owner := s.cache.lookup(key, hashKey(key))
	sc.release()
	if !owner {
		t.Fatal("first lookup must own the entry")
	}
	s.cache.finish(e, &canonOutcome{LeaderLabel: 1, Messages: 276}, nil)

	frame := appendWireElect(nil, 42, repro.AlgorithmB, 3, rg.Rotate(3).LabelsView())
	body := frame[4:]
	// Warm the connection scratch and the writer's recycled buffers past
	// their steady-state size before counting.
	for i := 0; i < 256; i++ {
		if !wc.processFrame(body) {
			t.Fatal("warmup frame rejected")
		}
	}
	n := testing.AllocsPerRun(500, func() {
		if !wc.processFrame(body) {
			t.Fatal("frame rejected")
		}
	})
	if n != 0 {
		t.Errorf("wire hit path allocates %v times per op, want 0", n)
	}
}
