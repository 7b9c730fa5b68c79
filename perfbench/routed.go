package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/netring"
	"repro/internal/ring"
	"repro/internal/secure"
	"repro/internal/serve"

	repro "repro"
)

const (
	benchClients = 2
	// hitWarmOps and missWarmOps are the closed-loop ops run at the end of
	// set-up, after prefill, so caches, pools and the runtime are warm.
	hitWarmOps  = 1000
	missWarmOps = 400
	wireTimeout = 10 * time.Second
)

// timedGateway is the benchmark's serve.WireBackend around
// cluster.Gateway: it counts the elections in flight in the gateway and
// records a gateway span for every election while tracing is on.
type timedGateway struct {
	gw *cluster.Gateway
	tr *tracer
}

func (g timedGateway) Elect(ctx context.Context, labels []ring.Label, alg repro.Algorithm, k int) (serve.WireOutcome, error) {
	g.tr.enter()
	defer g.tr.leave()
	if !g.tr.on.Load() {
		return g.gw.Elect(ctx, labels, alg, k)
	}
	t0 := time.Now()
	out, err := g.gw.Elect(ctx, labels, alg, k)
	g.tr.span(spanGateway, 0, t0, time.Since(t0))
	return out, err
}

// routedEnv is routed_hit (ringsec, hot set) or routed_miss (plaintext,
// fresh rings): clients → WireFrontend → Gateway → Router → 2×1-worker
// LocalFleet.
type routedEnv struct {
	secure  bool
	fleet   *cluster.LocalFleet
	health  *cluster.Health
	flaps   atomic.Int64 // health transitions logged since start
	router  *cluster.Router
	fe      *serve.WireFrontend
	feDone  chan struct{}
	clients []*serve.WireClient
	stream  *stream
	tr      *tracer
	// uncached counts hot-set replies with cached=false since the last
	// reset; each must be matched by a router hedge win over the same
	// span (checkUncached).
	uncached atomic.Int64

	handshakes []time.Duration // secure client dials made during set-up
	before     routedCounters
}

func setupRouted(secureHit bool, seed int64, tr *tracer) (env, error) {
	e := &routedEnv{secure: secureHit, tr: tr}
	var hot [][]ring.Label
	if secureHit {
		hot, e.stream = newHitStream(seed)
	} else {
		e.stream = newMissStream(seed)
	}
	if err := e.start(); err != nil {
		e.close()
		return nil, err
	}
	for _, labels := range hot {
		rq := newRequest(labels, classHot, false)
		if err := e.verify(e.clients[0], rq); err != nil {
			e.close()
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	warm := missWarmOps
	if secureHit {
		warm = hitWarmOps
	}
	prefilled := e.read()
	if err := warmUp(warm, func(c int) error { return e.verify(e.clients[c], e.stream.Next()) }); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := e.checkUncached(prefilled); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	e.uncached.Store(0)
	e.before = e.read()
	return e, nil
}

func (e *routedEnv) start() error {
	var err error
	cfg := serve.Config{Workers: 1}
	var identity *secure.PrivateKey
	if e.secure {
		if e.fleet, err = cluster.StartSecureLocalFleet(2, cfg); err != nil {
			return err
		}
		if identity, err = secure.GenerateKey(); err != nil {
			return err
		}
	} else if e.fleet, err = cluster.StartLocalFleet(2, cfg); err != nil {
		return err
	}
	e.health = cluster.StartHealth(e.fleet.Roster, cluster.HealthConfig{
		Logf: func(string, ...any) { e.flaps.Add(1) },
	})
	e.router, err = cluster.NewRouter(cluster.RouterConfig{Roster: e.fleet.Roster, Health: e.health, Identity: identity})
	if err != nil {
		return err
	}
	gw := cluster.NewGateway(cluster.GatewayConfig{Router: e.router})
	feCfg := serve.WireFrontendConfig{
		Metrics: gw.Metrics(),
		// Far above what two closed-loop clients can offer: the check
		// runs on every request, the bucket never empties.
		RateLimit: &serve.RateLimitConfig{Rate: 1e9, Burst: 1 << 30},
	}
	var feKey *secure.PrivateKey
	if e.secure {
		if feKey, err = secure.GenerateKey(); err != nil {
			return err
		}
		feCfg.Secure = &secure.ServerConfig{Config: secure.Config{Identity: feKey}}
	}
	e.fe = serve.NewWireFrontend(timedGateway{gw: gw, tr: e.tr}, feCfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.feDone = make(chan struct{})
	go func() { defer close(e.feDone); e.fe.Serve(ln) }()

	for c := 0; c < benchClients; c++ {
		var sec *secure.ClientConfig
		if e.secure {
			key, err := secure.GenerateKey()
			if err != nil {
				return err
			}
			sec = &secure.ClientConfig{Config: secure.Config{Identity: key}, ServerKey: feKey.Public()}
		}
		t0 := time.Now()
		cl, err := serve.DialWireSecure(ln.Addr().String(), 1, wireTimeout, netring.Backoff{}, sec)
		if err != nil {
			return err
		}
		if e.secure {
			e.handshakes = append(e.handshakes, time.Since(t0))
		}
		e.clients = append(e.clients, cl)
	}
	return nil
}

// verify sends one election and checks the reply against the oracle.
func (e *routedEnv) verify(cl *serve.WireClient, rq request) error {
	out, err := cl.Elect(rq.labels, repro.AlgorithmB, benchK)
	if err != nil {
		return err
	}
	if rq.cached && !out.Cached {
		e.uncached.Add(1)
		out.Cached = true // checked against hedge wins by checkUncached
	}
	return check(rq, out.Leader, out.Cached)
}

// check compares a reply with the generated request's expected answer.
func check(rq request, leader int, cached bool) error {
	if leader != rq.leader {
		return fmt.Errorf("ring [%s]: leader %d, want %d", rq.spec, leader, rq.leader)
	}
	if cached != rq.cached && !rq.repeat {
		return fmt.Errorf("ring [%s]: cached=%v, want %v", rq.spec, cached, rq.cached)
	}
	return nil
}

func (e *routedEnv) run(m *meter, blockDur time.Duration) {
	closedLoop(m, e.tr, benchClients, blockDur, e.stream, func(c int, _ uint64, rq request) error {
		return e.verify(e.clients[c], rq)
	})
}

// guard fails the run when the fleet was not healthy throughout.
func (e *routedEnv) guard() error {
	if n := e.flaps.Load(); n != 0 {
		return fmt.Errorf("health prober logged %d replica transitions", n)
	}
	for i, up := range e.health.Up() {
		if !up {
			return fmt.Errorf("replica %d marked down", i)
		}
	}
	for _, st := range e.router.Stats() {
		if st.Failed != 0 {
			return fmt.Errorf("router: %d failed attempts at %s", st.Failed, st.Name)
		}
	}
	return e.checkUncached(e.before)
}

// checkUncached matches the uncached hot replies counted since since was
// read against the router's hedge wins over the same span. A hedge that
// wins answers from a replica that does not own the class, so its reply
// is legitimately uncached; any other uncached hot reply is a failure.
func (e *routedEnv) checkUncached(since routedCounters) error {
	var wins int64
	for i, st := range e.router.Stats() {
		wins += st.HedgeWins - since.stats[i].HedgeWins
	}
	if n := e.uncached.Load(); n > wins {
		return fmt.Errorf("%d uncached hot replies, only %d explained by hedge wins", n, wins)
	}
	return nil
}

// routedCounters is a reading of every counter the routed layers expose.
type routedCounters struct {
	stats               []cluster.ReplicaStats
	hits, misses, sheds int64
	serviceSum          float64 // seconds, wire/elect, all replicas
	serviceCount        int64
}

func (e *routedEnv) read() routedCounters {
	rc := routedCounters{stats: e.router.Stats()}
	for i := range e.fleet.Roster {
		s := e.fleet.Server(i)
		snap := s.Metrics().Snapshot()
		rc.hits += snap.Hits
		rc.misses += snap.Misses
		rc.sheds += snap.Sheds
		sum, count := endpointLatency(s.Metrics(), "wire/elect")
		rc.serviceSum += sum
		rc.serviceCount += count
	}
	return rc
}

// endpointLatency reads one endpoint's ringd_request_seconds sum and
// count from the Prometheus exposition.
func endpointLatency(m *serve.Metrics, endpoint string) (sum float64, count int64) {
	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	sumKey := fmt.Sprintf("ringd_request_seconds_sum{endpoint=%q} ", endpoint)
	countKey := fmt.Sprintf("ringd_request_seconds_count{endpoint=%q} ", endpoint)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, sumKey); ok {
			sum, _ = strconv.ParseFloat(v, 64)
		} else if v, ok := strings.CutPrefix(line, countKey); ok {
			count, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	return sum, count
}

func (e *routedEnv) layers(m *meter, out map[string]float64) error {
	after := e.read()
	attempted, _ := m.totals()
	ops := float64(attempted)
	var routed, hedged, failed, maxRouted, total int64
	var attemptP50 float64
	for i, st := range after.stats {
		d := st.Routed - e.before.stats[i].Routed
		routed += d
		maxRouted = max(maxRouted, d)
		hedged += st.Hedged - e.before.stats[i].Hedged
		failed += st.Failed - e.before.stats[i].Failed
		// Stats.P50 is a cumulative histogram quantile; weight each
		// replica by the attempts it served.
		attemptP50 += st.P50 * float64(st.Routed)
		total += st.Routed
	}
	attemptUs := 1e6 * ratio(attemptP50, float64(total))
	gatewayUs := e.tr.meanUs(spanGateway)
	clientUs := e.tr.meanUs(spanClient)
	hits := after.hits - e.before.hits
	misses := after.misses - e.before.misses
	serviceUs := 1e6 * ratio(after.serviceSum-e.before.serviceSum, float64(after.serviceCount-e.before.serviceCount))
	hitRatio := ratio(float64(hits), float64(hits+misses))

	out["frontend.self_us"] = clientUs - gatewayUs
	out["gateway.elect_us"] = gatewayUs
	// Stats.P50 interpolates inside one bucket of the router's latency
	// ladder (0.1, 0.25, 0.5, 1, 2.5, 5 ms, ...); router.self_us and
	// unattributed_share inherit that resolution.
	out["router.attempt_us"] = attemptUs
	out["router.self_us"] = gatewayUs - attemptUs
	out["router.hedges_per_kop"] = 1000 * ratio(float64(hedged), ops)
	out["router.failed_per_kop"] = 1000 * ratio(float64(failed), ops)
	out["router.max_replica_share"] = ratio(float64(maxRouted), float64(routed))
	out["replica.service_us"] = serviceUs
	out["replica.hit_ratio"] = hitRatio
	out["replica.sheds_per_kop"] = 1000 * ratio(float64(after.sheds-e.before.sheds), ops)
	// The client span less frontend, router and replica self times: the
	// gap between the router's attempt and the replica's own service time
	// (pool client, pool-leg records, loopback TCP), named by no layer.
	out["unattributed_share"] = ratio(attemptUs-serviceUs, clientUs)
	if e.secure {
		out["secure.handshake_ms"] = median(durationsMs(e.handshakes))
	}
	kept := e.stream.kept()
	items, err := bkItems(kept)
	if err != nil {
		return err
	}
	if err := kernelLayers(items, hitRatio, serviceUs, out); err != nil {
		return err
	}
	probeKeys(e.fleet.Roster.Names(), kept, out)
	return nil
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

func (e *routedEnv) close() {
	for _, cl := range e.clients {
		cl.Close()
	}
	if e.fe != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = e.fe.Shutdown(ctx) // nothing is in flight at teardown; a late drain has nothing to report
		cancel()
		<-e.feDone
	}
	if e.router != nil {
		e.router.Close()
	}
	if e.health != nil {
		e.health.Stop()
	}
	if e.fleet != nil {
		e.fleet.Stop()
	}
}
