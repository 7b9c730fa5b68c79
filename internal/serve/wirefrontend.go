package serve

import (
	"context"
	"errors"
	"slices"
	"time"

	"repro/internal/ring"
	"repro/internal/secure"

	repro "repro"
)

// WireBackend is the election engine behind a WireFrontend. The labels
// are in the requester's frame and the returned Leader must be too; the
// cluster router satisfies this, as does any wrapper over a WireClient.
// A *WireError return is relayed to the wire client as a typed ERROR
// frame; any other error becomes an internal-error frame.
type WireBackend interface {
	Elect(ctx context.Context, labels []ring.Label, alg repro.Algorithm, k int) (WireOutcome, error)
}

// WireFrontendConfig tunes a WireFrontend. The zero value is usable.
type WireFrontendConfig struct {
	// MaxRingSize bounds the label count a single ELECT may carry,
	// and thereby the frame size the reader will accept. Default 4096.
	MaxRingSize int
	// RequestTimeout bounds one backend call. Default 30s.
	RequestTimeout time.Duration
	// Metrics records every terminated request under the "wire/elect"
	// endpoint with the HTTP-equivalent status, plus handshake failures
	// and sheds. Default: a private registry no one scrapes.
	Metrics *Metrics
	// Secure, when set, requires the ringsec handshake before the RGV1
	// magic, exactly as on a WireServer port. Handshake failures are
	// counted in Metrics and dropped frameless.
	Secure *secure.ServerConfig
	// RateLimit, when set, applies a per-peer token bucket to ELECT
	// requests at the gateway edge, keyed by authenticated fingerprint
	// (secure) or remote host.
	RateLimit *RateLimitConfig
}

// WireFrontend is the RGV1 engine with the backend handler installed:
// the gateway side of the protocol, with the framing, batching writer,
// in-flight budget and drain discipline of every WireServer, but the
// election itself delegated, so a proxy terminates wire traffic without
// owning a cache or an admission queue.
type WireFrontend = WireServer

// NewWireFrontend builds a frontend terminating RGV1 onto b.
func NewWireFrontend(b WireBackend, cfg WireFrontendConfig) *WireFrontend {
	if cfg.MaxRingSize <= 0 {
		cfg.MaxRingSize = 4096
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(nil)
	}
	ws := newWireEngine(cfg.Metrics, cfg.MaxRingSize, cfg.RequestTimeout,
		WireServerOptions{Secure: cfg.Secure, RateLimit: cfg.RateLimit})
	ws.b = b
	ws.elect = (*wireConn).electBackend
	return ws
}

// minRetryAfter is a frontend's budget-shed hint. A frontend keeps no
// queue to estimate a wait from, so it sends the smallest hint there is.
func minRetryAfter() int { return 1 }

// electBackend is the frontend's per-ELECT handler. Every ELECT detaches,
// because the backend call blocks on the network rather than on a local
// cache lookup; the decoded labels alias reader scratch, so they are
// copied first.
func (wc *wireConn) electBackend(start time.Time, req wireElect) {
	if !wc.reserve(start, req.id, minRetryAfter) {
		return
	}
	// The goroutine captures the fields it uses, not req, which keeps its
	// closure one heap size class smaller on every routed ELECT.
	labels, id, alg, k := slices.Clone(req.labels), req.id, req.alg, req.k
	go func() {
		defer wc.release()
		ctx, cancel := context.WithTimeout(context.Background(), wc.ws.timeout)
		defer cancel()
		out, err := wc.ws.b.Elect(ctx, labels, alg, k)
		if err != nil {
			wc.respondBackendError(start, id, err)
			return
		}
		wc.respondResult(start, id, out.Cached, out.Leader, &canonOutcome{
			Leader:        out.Leader, // already in the requester's frame
			LeaderLabel:   out.LeaderLabel,
			Messages:      out.Messages,
			PeakSpaceBits: out.PeakSpaceBits,
			TimeUnits:     out.TimeUnits,
		})
	}()
}

// respondBackendError maps a backend failure onto the ERROR frame
// vocabulary: a typed *WireError keeps its status (and Retry-After on
// sheds); anything else — including a transport failure to every
// replica — is an internal error from the client's point of view.
func (wc *wireConn) respondBackendError(start time.Time, id uint64, err error) {
	var we *WireError
	if !errors.As(err, &we) {
		wc.respondError(start, id, wireErrInternal, 0, "election failed: "+err.Error())
		return
	}
	switch we.Status {
	case 400:
		wc.respondError(start, id, wireErrBadRequest, 0, we.Msg)
	case 429:
		wc.respondError(start, id, wireErrShed, we.RetryAfter, we.Msg)
	case 503:
		wc.respondError(start, id, wireErrDraining, 0, we.Msg)
	default:
		wc.respondError(start, id, wireErrInternal, 0, we.Msg)
	}
}
