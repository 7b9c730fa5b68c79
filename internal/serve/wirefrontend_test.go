package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ring"

	repro "repro"
)

// stubBackend answers elections from a fixed script and records calls.
type stubBackend struct {
	mu    sync.Mutex
	calls int
	out   WireOutcome
	err   error
}

func (b *stubBackend) Elect(ctx context.Context, labels []ring.Label, alg repro.Algorithm, k int) (WireOutcome, error) {
	b.mu.Lock()
	b.calls++
	b.mu.Unlock()
	return b.out, b.err
}

// startFrontend brings a WireFrontend up on a loopback listener.
func startFrontend(t *testing.T, b WireBackend, cfg WireFrontendConfig) string {
	t.Helper()
	f := NewWireFrontend(b, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- f.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := f.Shutdown(ctx); err != nil {
			t.Errorf("frontend shutdown: %v", err)
		}
		if err := <-served; !errors.Is(err, ErrWireServerClosed) {
			t.Errorf("Serve returned %v, want ErrWireServerClosed", err)
		}
	})
	return ln.Addr().String()
}

// TestWireFrontendTerminates checks a WireClient can speak to a
// WireFrontend exactly as it speaks to a WireServer: results come back
// by id, the Cached bit survives, and typed errors keep their status
// and Retry-After through the two protocol hops.
func TestWireFrontendTerminates(t *testing.T) {
	b := &stubBackend{out: WireOutcome{Leader: 4, LeaderLabel: 3, Messages: 17, TimeUnits: 2.5, Cached: true}}
	addr := startFrontend(t, b, WireFrontendConfig{})
	c, err := DialWire(addr, 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r := ring.Figure1()
	out, err := c.Elect(r.LabelsView(), repro.AlgorithmB, 3)
	if err != nil {
		t.Fatalf("elect through frontend: %v", err)
	}
	if out != b.out {
		t.Errorf("outcome through frontend = %+v, want %+v", out, b.out)
	}

	// Typed backend failures must round-trip as the same status.
	for _, tc := range []struct {
		status, retryAfter int
	}{{400, 0}, {429, 7}, {503, 0}, {500, 0}} {
		b.mu.Lock()
		b.err = &WireError{Status: tc.status, RetryAfter: tc.retryAfter, Msg: "scripted"}
		b.mu.Unlock()
		_, err := c.Elect(r.LabelsView(), repro.AlgorithmB, 3)
		var we *WireError
		if !errors.As(err, &we) || we.Status != tc.status || we.RetryAfter != tc.retryAfter {
			t.Errorf("status %d: got %v, want WireError with that status", tc.status, err)
		}
	}

	// An untyped failure is an internal error to the wire client.
	b.mu.Lock()
	b.err = errors.New("replica pool exhausted")
	b.mu.Unlock()
	_, err = c.Elect(r.LabelsView(), repro.AlgorithmB, 3)
	var we *WireError
	if !errors.As(err, &we) || we.Status != 500 {
		t.Errorf("untyped backend error: got %v, want WireError 500", err)
	}
}

// wireClientBackend proxies frontend elections to a real ringd wire
// port — the minimal gateway, with no routing layer in between.
type wireClientBackend struct{ c *WireClient }

func (b wireClientBackend) Elect(ctx context.Context, labels []ring.Label, alg repro.Algorithm, k int) (WireOutcome, error) {
	return b.c.Elect(labels, alg, k)
}

// wireEngines names the two per-ELECT handlers of the one RGV1 engine;
// connection-level tests run through both. "local" is a WireServer over
// a Server. "backend" is a WireFrontend proxying over a WireClient to
// that Server's own plaintext wire port; the frontend records into the
// Server's metrics, so one set of assertions serves both.
var wireEngines = []string{"local", "backend"}

// startEngine brings up a Server behind the named engine, with opts
// hardening the engine's edge, and returns the engine's dial address.
func startEngine(t *testing.T, engine string, cfg Config, opts WireServerOptions) (*Server, string) {
	t.Helper()
	if engine == "local" {
		return startWireWith(t, cfg, opts)
	}
	s, backendAddr := startWireWith(t, cfg, WireServerOptions{})
	bc, err := DialWire(backendAddr, 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	return s, startFrontend(t, wireClientBackend{bc}, WireFrontendConfig{
		MaxRingSize: s.cfg.MaxRingSize,
		Metrics:     s.Metrics(),
		Secure:      opts.Secure,
		RateLimit:   opts.RateLimit,
	})
}

// TestWireFrontendProxiesToWireServer stacks the full binary path —
// client → frontend → client → WireServer → Server — and checks the
// answer matches a direct election, rotation frames included, and that
// malformed requests are rejected at the server with a 400 that
// survives the proxy hop.
func TestWireFrontendProxiesToWireServer(t *testing.T) {
	_, _, backendAddr := startWire(t, Config{})
	bc, err := DialWire(backendAddr, 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	feAddr := startFrontend(t, wireClientBackend{bc}, WireFrontendConfig{})
	c, err := DialWire(feAddr, 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	base := ring.Figure1()
	want, ok := base.TrueLeader()
	if !ok {
		t.Fatal("Figure1 has no unique leader")
	}
	for d := 0; d < base.N(); d++ {
		rot := base.Rotate(d)
		out, err := c.Elect(rot.LabelsView(), repro.AlgorithmB, 3)
		if err != nil {
			t.Fatalf("rotation %d: %v", d, err)
		}
		// The true leader's position in the rotated frame.
		if wantIdx := (want - d + base.N()) % base.N(); out.Leader != wantIdx {
			t.Errorf("rotation %d: leader %d, want %d", d, out.Leader, wantIdx)
		}
		if out.LeaderLabel != base.Labels()[want] {
			t.Errorf("rotation %d: leader label %d", d, out.LeaderLabel)
		}
	}

	// A symmetric ring is a 400 at the replica; the frontend must relay
	// it typed, not wrap it as a 500.
	_, err = c.Elect([]ring.Label{1, 1, 1, 1}, repro.AlgorithmB, 3)
	var we *WireError
	if !errors.As(err, &we) || we.Status != 400 {
		t.Errorf("symmetric ring through proxy: got %v, want WireError 400", err)
	}
}

// blockingBackend parks every election until release is closed.
type blockingBackend struct {
	release chan struct{}
	calls   atomic.Int64
}

func (b *blockingBackend) Elect(ctx context.Context, labels []ring.Label, alg repro.Algorithm, k int) (WireOutcome, error) {
	b.calls.Add(1)
	select {
	case <-b.release:
		return WireOutcome{LeaderLabel: labels[0]}, nil
	case <-ctx.Done():
		return WireOutcome{}, ctx.Err()
	}
}

// TestWireFrontendInflightBudgetSheds pins the per-connection in-flight
// budget on the gateway side: one connection pipelining more ELECTs than
// the budget admits, against a backend that parks every call, gets typed
// 429s for the excess instead of an unbounded pile of parked goroutines,
// and every request is answered exactly once after the backend releases.
func TestWireFrontendInflightBudgetSheds(t *testing.T) {
	b := &blockingBackend{release: make(chan struct{})}
	addr := startFrontend(t, b, WireFrontendConfig{})
	const budget = wireMaxInflightBytes / wireMaxResponseBody
	const n = budget + 100

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// Replies are read on their own goroutine so neither side's writes
	// stall on a full socket buffer.
	type reply struct {
		id         uint64
		status     int
		retryAfter int
	}
	replies := make(chan reply, n)
	go func() {
		defer close(replies)
		br := bufio.NewReader(nc)
		var pfx [4]byte
		for {
			if _, err := io.ReadFull(br, pfx[:]); err != nil {
				return
			}
			body := make([]byte, binary.BigEndian.Uint32(pfx[:]))
			if _, err := io.ReadFull(br, body); err != nil {
				return
			}
			typ, id, payload, err := decodeWireHeader(body)
			if err != nil {
				return
			}
			r := reply{id: id, status: 200}
			if typ == wireFrameError {
				ef, err := decodeWireError(payload)
				if err != nil {
					return
				}
				r.status, r.retryAfter = ef.code.httpStatus(), ef.retryAfter
			}
			replies <- r
		}
	}()

	frames := []byte(wireMagic)
	labels := ring.Figure1().LabelsView()
	for id := uint64(1); id <= n; id++ {
		frames = appendWireElect(frames, id, repro.AlgorithmB, 3, labels)
	}
	if _, err := nc.Write(frames); err != nil {
		t.Fatal(err)
	}

	seen := make(map[uint64]bool, n)
	shed := 0
	deadline := time.After(10 * time.Second)
	next := func(phase string) {
		t.Helper()
		select {
		case r, ok := <-replies:
			if !ok {
				t.Fatalf("%s: connection closed after %d of %d replies", phase, len(seen), n)
			}
			if seen[r.id] {
				t.Fatalf("request %d answered twice", r.id)
			}
			seen[r.id] = true
			switch r.status {
			case 200:
			case 429:
				shed++
				if r.retryAfter < 1 {
					t.Errorf("budget shed without a Retry-After hint: %+v", r)
				}
			default:
				t.Fatalf("request %d: status %d, want 200 or 429", r.id, r.status)
			}
		case <-deadline:
			t.Fatalf("%s: %d of %d replies, %d sheds, %d backend calls parked",
				phase, len(seen), n, shed, b.calls.Load())
		}
	}
	for shed == 0 {
		next("waiting for a budget shed")
	}
	if calls := b.calls.Load(); calls > budget {
		t.Errorf("%d backend calls parked at once, budget %d", calls, budget)
	}
	close(b.release)
	for len(seen) < n {
		next("after release")
	}
}
