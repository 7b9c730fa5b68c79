package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/netring"
	"repro/internal/ring"
	"repro/internal/secure"

	repro "repro"
)

// testKey generates a fresh ringsec identity or fails the test.
func testKey(t *testing.T) *secure.PrivateKey {
	t.Helper()
	key, err := secure.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// startWireWith is startWire with explicit WireServerOptions — the
// secure and rate-limited variants of the wire port.
func startWireWith(t *testing.T, cfg Config, opts WireServerOptions) (*Server, string) {
	t.Helper()
	s := New(cfg)
	ws := NewWireServerWith(s, opts)
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
	return s, ln.Addr().String()
}

// clientFor builds the client half of a ringsec session against server.
func clientFor(identity *secure.PrivateKey, server *secure.PrivateKey) *secure.ClientConfig {
	return &secure.ClientConfig{
		Config:    secure.Config{Identity: identity, HandshakeTimeout: 2 * time.Second},
		ServerKey: server.Public(),
	}
}

// TestWireSecureRoundTrip runs a real election over an authenticated
// encrypted wire connection, with the client pinned in the server's
// allow list, and checks the answer against the in-process engine.
func TestWireSecureRoundTrip(t *testing.T) {
	serverKey, clientKey := testKey(t), testKey(t)
	s, addr := startWireWith(t, Config{}, WireServerOptions{
		Secure: &secure.ServerConfig{
			Config:  secure.Config{Identity: serverKey, HandshakeTimeout: 2 * time.Second},
			Allowed: []secure.PublicKey{clientKey.Public()},
		},
	})
	c, err := DialWireSecure(addr, 2, 5*time.Second, netring.Backoff{}, clientFor(clientKey, serverKey))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r := ring.Figure1()
	want, err := repro.Elect(r, repro.AlgorithmB, 3)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Elect(r.LabelsView(), repro.AlgorithmB, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Leader != want.Leader || out.Messages != want.Messages {
		t.Errorf("sealed election: leader p%d %d msgs, want p%d %d msgs",
			out.Leader, out.Messages, want.Leader, want.Messages)
	}
	if s.Metrics().HandshakeFailures() != 0 {
		t.Errorf("handshake failures = %d on a clean session", s.Metrics().HandshakeFailures())
	}
}

// TestWireSecureRejectsUnknownClient pins the allow list: a client
// authenticating with a key outside it is cut off during the handshake
// and counted in ringd_handshake_failures_total.
func TestWireSecureRejectsUnknownClient(t *testing.T) {
	for _, engine := range wireEngines {
		t.Run(engine, func(t *testing.T) {
			serverKey, trusted, stranger := testKey(t), testKey(t), testKey(t)
			s, addr := startEngine(t, engine, Config{}, WireServerOptions{
				Secure: &secure.ServerConfig{
					Config:  secure.Config{Identity: serverKey, HandshakeTimeout: 2 * time.Second},
					Allowed: []secure.PublicKey{trusted.Public()},
				},
			})
			c, err := DialWireSecure(addr, 1, 2*time.Second, netring.Backoff{}, clientFor(stranger, serverKey))
			if err == nil {
				c.Close()
				t.Fatal("dial with a key outside the allow list succeeded")
			}
			if s.Metrics().HandshakeFailures() == 0 {
				t.Error("rejected client not counted as a handshake failure")
			}
		})
	}
}

// TestWireSecureDowngradeRejected pins both downgrade directions: a
// plaintext client on a secure port never gets served (and is counted
// as a handshake failure), and a secure client on a plaintext port
// fails its handshake instead of silently talking in the clear.
func TestWireSecureDowngradeRejected(t *testing.T) {
	serverKey, clientKey := testKey(t), testKey(t)
	s, addr := startWireWith(t, Config{}, WireServerOptions{
		Secure: &secure.ServerConfig{
			Config: secure.Config{Identity: serverKey, HandshakeTimeout: 500 * time.Millisecond},
		},
	})
	// Plaintext client, secure server: the magic bytes are not a
	// handshake, so the server must cut the connection without serving.
	c, err := DialWire(addr, 1, 2*time.Second)
	if err == nil {
		_, err = c.Elect(ring.Figure1().LabelsView(), repro.AlgorithmB, 3)
		c.Close()
	}
	if err == nil {
		t.Fatal("plaintext election served on a secure port")
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Metrics().HandshakeFailures() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.Metrics().HandshakeFailures() == 0 {
		t.Error("plaintext downgrade not counted as a handshake failure")
	}

	// Secure client, plaintext server: the handshake must fail — the
	// client never falls back to cleartext.
	_, plainAddr := startWireWith(t, Config{}, WireServerOptions{})
	if c, err := DialWireSecure(plainAddr, 1, 2*time.Second, netring.Backoff{}, clientFor(clientKey, serverKey)); err == nil {
		c.Close()
		t.Fatal("secure dial to a plaintext port succeeded")
	}
}

// recordConn captures everything written through it while recording is
// on — the ciphertext a replaying adversary would have sniffed.
type recordConn struct {
	net.Conn
	mu  sync.Mutex
	buf bytes.Buffer
	rec bool
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.rec {
		c.buf.Write(p)
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *recordConn) record(on bool) {
	c.mu.Lock()
	c.rec = on
	c.mu.Unlock()
}

func (c *recordConn) captured() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf.Bytes()...)
}

// TestWireSecureReplayRejected is the wire-level replay drill: the
// ciphertext of a served ELECT is re-sent verbatim on the same
// connection. The strict per-direction nonce counter must reject it —
// the server severs the connection and the replay never becomes a
// second election.
func TestWireSecureReplayRejected(t *testing.T) {
	serverKey, clientKey := testKey(t), testKey(t)
	s, addr := startWireWith(t, Config{}, WireServerOptions{
		Secure: &secure.ServerConfig{
			Config: secure.Config{Identity: serverKey, HandshakeTimeout: 2 * time.Second},
		},
	})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	rc := &recordConn{Conn: nc}
	sconn, err := secure.Client(rc, clientFor(clientKey, serverKey))
	if err != nil {
		t.Fatal(err)
	}

	// One real election, its ciphertext recorded off the socket.
	rc.record(true)
	if _, err := sconn.Write([]byte(wireMagic)); err != nil {
		t.Fatal(err)
	}
	if _, err := sconn.Write(appendWireElect(nil, 1, repro.AlgorithmB, 3, ring.Figure1().LabelsView())); err != nil {
		t.Fatal(err)
	}
	var prefix [4]byte
	if _, err := io.ReadFull(sconn, prefix[:]); err != nil {
		t.Fatal(err)
	}
	n := int(prefix[0])<<24 | int(prefix[1])<<16 | int(prefix[2])<<8 | int(prefix[3])
	body := make([]byte, n)
	if _, err := io.ReadFull(sconn, body); err != nil {
		t.Fatal(err)
	}
	typ, id, payload, err := decodeWireHeader(body)
	if err != nil || typ != wireFrameResult || id != 1 {
		t.Fatalf("first response: typ=%v id=%d err=%v", typ, id, err)
	}
	if _, err := decodeWireResult(payload); err != nil {
		t.Fatalf("first response: %v", err)
	}
	rc.record(false)

	before := s.Metrics().Snapshot()

	// The replay: the captured handshake-less ciphertext, bytes the
	// adversary saw on the wire, written straight to the socket.
	if _, err := nc.Write(rc.captured()); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	// The server must sever the connection without answering: nothing
	// but EOF may come back.
	if extra, err := io.ReadAll(nc); err != nil {
		t.Fatalf("expected a clean sever after the replay, got read error %v", err)
	} else if len(extra) != 0 {
		t.Fatalf("server sent %d bytes after a replayed record", len(extra))
	}
	after := s.Metrics().Snapshot()
	if got, want := after.Hits+after.Misses, before.Hits+before.Misses; got != want {
		t.Errorf("replay reached the election path: %d elections, want %d", got, want)
	}
}

// TestRateLimiter unit-tests the token bucket: burst spending,
// continuous refill, the Retry-After floor, and the peer-table bound.
func TestRateLimiter(t *testing.T) {
	rl := newRateLimiter(RateLimitConfig{Rate: 2, Burst: 2, MaxPeers: 2})
	now := time.Now()
	for i := 0; i < 2; i++ {
		if ok, _ := rl.allow("a", now); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, retry := rl.allow("a", now)
	if ok {
		t.Fatal("request beyond the burst allowed")
	}
	if retry < 1 {
		t.Fatalf("Retry-After %d, want at least 1", retry)
	}
	if ok, _ := rl.allow("a", now.Add(600*time.Millisecond)); !ok {
		t.Fatal("refilled token denied") // 0.6s at 2/s refills 1.2 tokens
	}
	// A second peer has its own bucket.
	if ok, _ := rl.allow("b", now); !ok {
		t.Fatal("fresh peer denied")
	}
	// A third peer evicts the oldest instead of growing without bound.
	if ok, _ := rl.allow("c", now.Add(time.Second)); !ok {
		t.Fatal("evicting peer denied")
	}
	rl.mu.Lock()
	n := len(rl.buckets)
	rl.mu.Unlock()
	if n > 2 {
		t.Fatalf("peer table grew to %d entries, bound is 2", n)
	}
}

// TestWireRateLimitFairness is the fairness drill from the acceptance
// list: a flooder hammering the secure wire port is shed with 429s and
// Retry-After hints, while a well-behaved peer — a different key, so a
// different bucket — keeps its requests inside the latency budget with
// zero sheds.
func TestWireRateLimitFairness(t *testing.T) {
	for _, engine := range wireEngines {
		t.Run(engine, func(t *testing.T) {
			serverKey, floodKey, politeKey := testKey(t), testKey(t), testKey(t)
			s, addr := startEngine(t, engine, Config{}, WireServerOptions{
				Secure: &secure.ServerConfig{
					Config: secure.Config{Identity: serverKey, HandshakeTimeout: 2 * time.Second},
				},
				RateLimit: &RateLimitConfig{Rate: 25, Burst: 4},
			})
			flooder, err := DialWireSecure(addr, 1, 5*time.Second, netring.Backoff{}, clientFor(floodKey, serverKey))
			if err != nil {
				t.Fatal(err)
			}
			defer flooder.Close()
			polite, err := DialWireSecure(addr, 1, 5*time.Second, netring.Backoff{}, clientFor(politeKey, serverKey))
			if err != nil {
				t.Fatal(err)
			}
			defer polite.Close()
			labels := ring.Figure1().LabelsView()

			var politeWorst time.Duration
			politeDone := make(chan error, 1)
			go func() {
				for i := 0; i < 10; i++ {
					start := time.Now()
					if _, err := polite.Elect(labels, repro.AlgorithmB, 3); err != nil {
						politeDone <- fmt.Errorf("request %d: %w", i, err)
						return
					}
					if d := time.Since(start); d > politeWorst {
						politeWorst = d
					}
					time.Sleep(100 * time.Millisecond) // 10 req/s, well under the 25/s cap
				}
				politeDone <- nil
			}()

			shed, served := 0, 0
			for i := 0; i < 60; i++ {
				_, err := flooder.Elect(labels, repro.AlgorithmB, 3)
				var we *WireError
				switch {
				case err == nil:
					served++
				case errors.As(err, &we) && we.Status == http.StatusTooManyRequests:
					shed++
					if we.RetryAfter < 1 {
						t.Fatalf("429 without a Retry-After hint: %+v", we)
					}
				default:
					t.Fatalf("flooder request %d: %v", i, err)
				}
			}
			if err := <-politeDone; err != nil {
				t.Fatalf("well-behaved peer shed or failed: %v", err)
			}
			if shed == 0 {
				t.Fatal("flooder was never rate limited")
			}
			if served == 0 {
				t.Fatal("flooder burst allowance never served a request")
			}
			if politeWorst > 2*time.Second {
				t.Errorf("well-behaved peer's worst latency %v exceeds the budget", politeWorst)
			}
			if s.Metrics().Snapshot().RateLimited != int64(shed) {
				t.Errorf("rate-limited counter %d, want %d", s.Metrics().Snapshot().RateLimited, shed)
			}
		})
	}
}

// TestHTTPRateLimit pins the HTTP edge of the limiter: past the burst,
// /v1/elect answers 429 with a Retry-After header and the shed shows up
// in ringd_rate_limited_total, all before the body is even parsed.
func TestHTTPRateLimit(t *testing.T) {
	s := New(Config{RateLimit: &RateLimitConfig{Rate: 1, Burst: 2}})
	defer s.Close()
	h := s.Handler()
	body := `{"ring":"1 2 2","alg":"A","k":2}`
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/elect", bytes.NewReader([]byte(body))))
		if rec.Code != http.StatusOK {
			t.Fatalf("burst request %d: status %d, body %s", i, rec.Code, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/elect", bytes.NewReader([]byte(body))))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d past the burst, want 429; body %s", rec.Code, rec.Body.String())
	}
	if ra, err := strconv.Atoi(rec.Result().Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After %q, want an integer of at least 1", rec.Result().Header.Get("Retry-After"))
	}
	if got := s.Metrics().Snapshot().RateLimited; got != 1 {
		t.Errorf("rate-limited counter %d, want 1", got)
	}
}
