package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/ring"
	"repro/internal/serve"
)

const (
	mixWarmOps = 1000
	opHeader   = "X-Perfbench-Op"
)

// httpEnv is ringd_http_mix: HTTP/JSON POST /v1/elect from two clients
// over at most two keep-alive connections to one serve.Server with
// production defaults.
type httpEnv struct {
	srv    *serve.Server
	inner  http.Handler
	hs     *http.Server
	hsDone chan struct{}
	client *http.Client
	url    string
	stream *stream
	tr     *tracer
	before httpCounters
}

// ServeHTTP is the benchmark's middleware around Server.Handler: it
// counts the requests in flight in the handler and, while tracing is on,
// records the handler span, split by the reply's cached flag, under the
// client's op id.
func (e *httpEnv) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	e.tr.enter()
	defer e.tr.leave()
	if !e.tr.on.Load() {
		e.inner.ServeHTTP(w, r)
		return
	}
	cw := &captureWriter{ResponseWriter: w}
	t0 := time.Now()
	e.inner.ServeHTTP(cw, r)
	d := time.Since(t0)
	parent, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
	kind := spanHTTPMiss
	if bytes.Contains(cw.body, []byte(`"cached":true`)) {
		kind = spanHTTPHit
	}
	e.tr.span(spanHTTP, parent, t0, d)
	e.tr.span(kind, parent, t0, d)
}

// captureWriter keeps a copy of the response body.
type captureWriter struct {
	http.ResponseWriter
	body []byte
}

func (w *captureWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return w.ResponseWriter.Write(p)
}

func setupHTTP(seed int64, tr *tracer) (env, error) {
	e := &httpEnv{tr: tr, srv: serve.New(serve.Config{})}
	var hot [][]ring.Label
	hot, e.stream = newMixStream(seed)
	e.inner = e.srv.Handler()
	e.hs = &http.Server{Handler: e}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.srv.Close()
		return nil, err
	}
	e.hsDone = make(chan struct{})
	go func() { defer close(e.hsDone); e.hs.Serve(ln) }()
	e.url = "http://" + ln.Addr().String() + "/v1/elect"
	e.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: benchClients,
		MaxConnsPerHost:     benchClients,
		DisableCompression:  true,
	}}
	for _, labels := range hot {
		if err := e.verify(newRequest(labels, classHot, false), 0); err != nil {
			e.close()
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	if err := warmUp(mixWarmOps, func(int) error { return e.verify(e.stream.Next(), 0) }); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	e.before = e.read()
	return e, nil
}

type electReply struct {
	Leader int  `json:"leader"`
	Cached bool `json:"cached"`
}

// verify posts one election and checks the reply against the oracle.
// A nonzero id is sent in a header so the handler span can name its
// parent.
func (e *httpEnv) verify(rq request, id uint64) error {
	body := make([]byte, 0, 64+len(rq.spec))
	body = append(body, `{"ring":"`...)
	body = append(body, rq.spec...)
	body = append(body, `","alg":"B","k":3}`...)
	req, err := http.NewRequest(http.MethodPost, e.url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != 0 {
		req.Header.Set(opHeader, strconv.FormatUint(id, 10))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ring [%s]: status %d: %s", rq.spec, resp.StatusCode, bytes.TrimSpace(data))
	}
	var rep electReply
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("ring [%s]: decoding reply: %w", rq.spec, err)
	}
	return check(rq, rep.Leader, rep.Cached)
}

func (e *httpEnv) run(m *meter, blockDur time.Duration) {
	closedLoop(m, e.tr, benchClients, blockDur, e.stream, func(_ int, id uint64, rq request) error {
		if !e.tr.on.Load() {
			id = 0
		}
		return e.verify(rq, id)
	})
}

func (e *httpEnv) guard() error { return nil }

type httpCounters struct {
	hits, misses, sheds int64
	serviceSum          float64
	serviceCount        int64
}

func (e *httpEnv) read() httpCounters {
	snap := e.srv.Metrics().Snapshot()
	sum, count := endpointLatency(e.srv.Metrics(), "/v1/elect")
	return httpCounters{hits: snap.Hits, misses: snap.Misses, sheds: snap.Sheds, serviceSum: sum, serviceCount: count}
}

func (e *httpEnv) layers(m *meter, out map[string]float64) error {
	after := e.read()
	attempted, _ := m.totals()
	hits, misses := after.hits-e.before.hits, after.misses-e.before.misses
	hitRatio := ratio(float64(hits), float64(hits+misses))
	serviceUs := 1e6 * ratio(after.serviceSum-e.before.serviceSum, float64(after.serviceCount-e.before.serviceCount))
	clientUs := e.tr.meanUs(spanClient)
	handlerUs := e.tr.meanUs(spanHTTP)
	out["http.handler_us"] = handlerUs
	out["http.hit_us"] = e.tr.meanUs(spanHTTPHit)
	out["http.miss_us"] = e.tr.meanUs(spanHTTPMiss)
	out["http.client_self_us"] = clientUs - handlerUs
	out["replica.service_us"] = serviceUs
	out["replica.hit_ratio"] = hitRatio
	out["replica.sheds_per_kop"] = 1000 * ratio(float64(after.sheds-e.before.sheds), float64(attempted))
	// Inside the middleware span but outside the server's own
	// /v1/elect accounting: routing mux and instrumentation.
	out["unattributed_share"] = ratio(handlerUs-serviceUs, clientUs)
	var cold []request
	for _, rq := range e.stream.kept() {
		if rq.class == classCold {
			cold = append(cold, rq)
		}
	}
	items, err := bkItems(cold)
	if err != nil {
		return err
	}
	if err := kernelLayers(items, hitRatio, serviceUs, out); err != nil {
		return err
	}
	probeKeys([]string{"r0", "r1"}, e.stream.kept(), out)
	return nil
}

func (e *httpEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // idle keep-alive connections only; nothing to report
	<-e.hsDone
	e.client.CloseIdleConnections()
	e.srv.Close()
}
